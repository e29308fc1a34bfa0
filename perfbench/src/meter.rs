//! Host-normalised CPU time.
//!
//! The benchmark runs on shared virtual machines whose speed drifts by a
//! third over minutes: other guests contend for the cores, caches and
//! memory bandwidth, and the hypervisor takes the vCPUs away. Wall-clock
//! throughput of the same code read 270k and 380k updates/s on the same
//! host hours apart. Two defences, both in the benchmark's own code:
//!
//! - measured work runs on the calling thread alone (one detector worker,
//!   serial partitions) and is timed with that thread's CPU clock, which
//!   leaves out the time the vCPU was stolen or the thread was not
//!   scheduled;
//! - a fixed calibration kernel runs between chunks of measured work, and
//!   the CPU seconds of each phase of a run (a rep, a pass of queries) are
//!   scaled by [`REFERENCE_S`] over the median of the kernel samples taken
//!   during that phase. The kernel never changes with the program, so a
//!   change to the program moves only the measured side, while a host that
//!   is slower for the whole phase moves both. The median of many
//!   samples, not the sample next to each chunk, sets the scale: one
//!   sample is as noisy as one chunk.
//!
//! The kernel mixes dependent random reads through a table larger than
//! the host's shared cache with hash-map and sort work on buffers that
//! stay in the core's caches. Alone, the reads followed about half of the
//! program's run-to-run drift (they miss the cache whatever the
//! neighbours do); the cache-resident work followed the drift on one
//! workload and overshot it on the other; README.md ("How a run
//! measures") has the figures. The results are *reference seconds*: CPU
//! seconds on a host that runs the kernel in [`REFERENCE_S`].

use crate::util::{median, secs, trim_heap};
use std::collections::HashMap;
use std::time::Duration;

/// CPU seconds of one calibration sample on the reference host, and of
/// its cache-resident part (the hash-map and sort work).
pub const REFERENCE_S: f64 = 0.0047;
pub const REFERENCE_CORE_S: f64 = 0.0018;

/// Words of the kernel's random-read table: 512 MiB.
const TABLE_WORDS: usize = 128 << 20;
/// Dependent reads per sample.
const READS: usize = 30_000;
/// Keys of the hash-map work and length of the sort work per sample.
const MAP_KEYS: u64 = 20_000;
const SORT_LEN: usize = 30_000;

/// The calling thread's CPU time (`CLOCK_THREAD_CPUTIME_ID`).
pub fn thread_cpu() -> Duration {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: clock_gettime writes one timespec through a valid pointer.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// Calibration kernel and the samples it took.
pub struct Meter {
    table: Vec<u32>,
    /// The kernel's hash map and sort buffer, reused from sample to sample.
    map: HashMap<u64, u64>,
    sort: Vec<u64>,
    /// Every calibration sample of the run, in CPU seconds, and its
    /// cache-resident part.
    samples: Vec<f64>,
    core: Vec<f64>,
    state: u64,
    sink: u64,
}

impl Meter {
    /// Builds the kernel's table and takes two warm-up samples.
    pub fn new() -> Meter {
        let mut x = 0x2545_f491_4f6c_dd1d;
        let table = (0..TABLE_WORDS).map(|_| xorshift(&mut x) as u32).collect();
        let mut m = Meter {
            table,
            map: HashMap::with_capacity(2 * MAP_KEYS as usize),
            sort: Vec::with_capacity(SORT_LEN),
            samples: Vec::new(),
            core: Vec::new(),
            state: 1,
            sink: 0,
        };
        m.kernel_s();
        m.kernel_s();
        m
    }

    /// One calibration sample: [`READS`] dependent random reads through
    /// the table, then hash-map inserts and lookups and a sort. Returns
    /// the CPU seconds of the whole and of the cache-resident part.
    fn kernel_s(&mut self) -> (f64, f64) {
        let t = thread_cpu();
        let mask = TABLE_WORDS - 1;
        let mut i = (xorshift(&mut self.state) as usize) & mask;
        let mut acc = 0u64;
        for _ in 0..READS {
            let v = self.table[i];
            acc = acc.wrapping_add(v as u64);
            i = (v as usize ^ i.rotate_left(7)) & mask;
        }
        let t_core = thread_cpu();
        self.map.clear();
        for k in 0..MAP_KEYS {
            *self.map.entry(xorshift(&mut self.state) % (2 * MAP_KEYS)).or_default() += k;
        }
        for k in 0..MAP_KEYS {
            acc = acc.wrapping_add(self.map.get(&(2 * k)).copied().unwrap_or(k));
        }
        self.sort.clear();
        self.sort.extend((0..SORT_LEN).map(|_| xorshift(&mut self.state)));
        self.sort.sort_unstable();
        acc = acc.wrapping_add(self.sort[SORT_LEN / 2]);
        self.sink ^= std::hint::black_box(acc);
        let end = thread_cpu();
        (secs(end - t), secs(end - t_core))
    }

    /// Ends a chunk of measured work with a calibration sample.
    pub fn tick(&mut self) {
        let (s, core) = self.kernel_s();
        self.samples.push(s);
        self.core.push(core);
    }

    /// Runs `f` as a chunk of its own, from a trimmed heap; returns its
    /// result and its CPU seconds.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> (T, f64) {
        trim_heap();
        let t = thread_cpu();
        let out = f();
        let raw = secs(thread_cpu() - t);
        self.tick();
        (out, raw)
    }

    /// Reference seconds per CPU second of this run: [`REFERENCE_S`] over
    /// the median calibration sample.
    pub fn factor(&self) -> f64 {
        self.factor_since(0)
    }

    /// Position in the run's samples, for [`Meter::factor_since`].
    pub fn mark(&self) -> usize {
        self.samples.len()
    }

    /// Reference seconds per CPU second over one phase of the run: the
    /// median of the samples taken since `mark` (of the whole run when the
    /// phase took none).
    pub fn factor_since(&self, mark: usize) -> f64 {
        REFERENCE_S / phase_median(&self.samples, mark)
    }

    /// The same scale from the kernel's cache-resident part alone, for
    /// work that stays in the core's caches (query answers): it loses
    /// more to a busy neighbour core than the memory-bound reads do.
    pub fn core_factor_since(&self, mark: usize) -> f64 {
        REFERENCE_CORE_S / phase_median(&self.core, mark)
    }

    pub fn samples(&self) -> usize {
        self.samples.len()
    }
}

/// Median of the samples since `mark`, or of all when there are none.
fn phase_median(samples: &[f64], mark: usize) -> f64 {
    let phase = &samples[mark.min(samples.len())..];
    median(if phase.is_empty() { samples } else { phase })
}
