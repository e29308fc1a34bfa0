//! Small helpers shared by every workload: order statistics, a digest for
//! input pinning, process memory, scratch directories and JSON text.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// The `q`-quantile of `xs` by linear interpolation between order
/// statistics (the "inclusive" method). `xs` need not be sorted.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "quantile of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Sleeps until `deadline` (no-op when it already passed).
pub fn sleep_until(deadline: Instant) {
    let now = Instant::now();
    if deadline > now {
        std::thread::sleep(deadline - now);
    }
}

/// 64-bit FNV-1a, streaming: enough to pin generated inputs, not a
/// cryptographic hash.
#[derive(Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

/// A memory field of `/proc/self/status` (`VmHWM`, `VmRSS`) in bytes.
fn status_bytes(field: &str) -> Result<u64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.strip_prefix(field).is_some_and(|rest| rest.starts_with(':')))
        .ok_or_else(|| format!("no {field} line in /proc/self/status"))?;
    let kb: u64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("unparsable {field} line {line:?}"))?;
    Ok(kb * 1024)
}

/// Process high-water resident set size in bytes, since the last
/// [`reset_peak_rss`] or the start of the process.
pub fn peak_rss_bytes() -> Result<u64, String> {
    status_bytes("VmHWM")
}

/// Returns freed heap pages to the system (glibc `malloc_trim`). Measured
/// work starts from a trimmed heap: a rep that ran on the pages the rep
/// before it left behind took 35–40 % more CPU time than the first rep of
/// the same run, which ran after a trim.
pub fn trim_heap() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> std::os::raw::c_int;
        }
        // SAFETY: glibc's malloc_trim only releases free heap memory.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// Resident set size in bytes after freed heap pages are returned to the
/// system, so it counts what is held, not what the allocator kept from
/// earlier work.
pub fn held_rss_bytes() -> Result<u64, String> {
    trim_heap();
    status_bytes("VmRSS")
}

/// Resets the process high-water resident set size to the current one
/// (`/proc/self/clear_refs`).
pub fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("reset the peak RSS through /proc/self/clear_refs: {e}"))
}

/// Cumulative CPU time the hypervisor gave to other guests (`steal` in
/// `/proc/stat`), in clock ticks (1/100 s) summed over CPUs.
pub fn steal_ticks() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    stat.lines().find(|l| l.starts_with("cpu "))?.split_whitespace().nth(8)?.parse().ok()
}

/// A scratch directory inside the working directory (the benchmark must
/// not write outside its checkout), removed on drop.
pub struct ScratchDir(pub PathBuf);

impl ScratchDir {
    pub fn new(tag: &str) -> Result<ScratchDir, String> {
        static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir = PathBuf::from(".bench_build")
            .join("perfbench-scratch")
            .join(format!("{}-{tag}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(ScratchDir(dir))
    }

    /// Total size of the regular files directly inside the directory.
    pub fn bytes_on_disk(&self) -> Result<u64, String> {
        let mut total = 0;
        let entries =
            std::fs::read_dir(&self.0).map_err(|e| format!("read {}: {e}", self.0.display()))?;
        for entry in entries {
            let meta = entry.and_then(|e| e.metadata()).map_err(|e| e.to_string())?;
            if meta.is_file() {
                total += meta.len();
            }
        }
        Ok(total)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number; non-finite values (which JSON cannot carry) are an error
/// in the caller, so they are rendered as `null` to make that visible.
pub fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}
