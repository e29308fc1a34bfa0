//! End-to-end benchmark of the staleness pipeline: MRT bytes in,
//! published epochs and answered queries out.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload durable-serve --seed 42 --seconds 15 --trace 0
//! ```
//!
//! Every run generates its input from the seed, runs the deployment once,
//! measures serial reps for about `--seconds` of CPU time (host-normalised
//! by `meter.rs`), verifies the program's outputs against serial references,
//! and prints as its last stdout line one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics of the traced run with `--trace 1`.
//! A receipt line and a report line with every measured number come just
//! before it. `README.md` beside this file explains the workloads.

mod bgp;
mod meter;
mod queries;
mod refresh;
mod spans;
mod util;

use bgp::{Pacing, Reference, SerialEngine, WeatherInput};
use meter::Meter;
use queries::QueryPool;
use refresh::RefreshInput;
use rrr_bench::weather::WeatherScale;
use rrr_core::{Metrics, MetricsSnapshot};
use rrr_serve::{Engine, TcpServer};
use spans::{Tracer, NO_WINDOW};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};
use util::{json_num, json_str, median, quantile, secs};

/// End-to-end metrics, printed by every untraced run of every workload.
const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("windows_per_s", "windows/s"),
    ("publish_lag_mean_ms", "ms"),
    ("query_p50_us", "us"),
    ("query_p99_us", "us"),
    ("restore_s", "s"),
    ("state_mb", "MB"),
    ("held_rss_mb", "MB"),
];

/// Per-layer metrics, printed by every traced run of every workload. A
/// layer a workload bypasses reads 0 (1 for a skew). Layer timings that
/// exist on only some workloads are in the report line instead.
const PER_LAYER: [(&str, &str); 36] = [
    ("mrt.decode.share", "ratio"),
    ("serve.feed.merge.share", "ratio"),
    ("core.bgp_monitors.observe.share", "ratio"),
    ("core.bgp_monitors.close.share", "ratio"),
    ("core.trace_monitors.share", "ratio"),
    ("core.calibration.plan.share", "ratio"),
    ("core.corpus.refresh.share", "ratio"),
    ("core.query.snapshot.share", "ratio"),
    ("core.persist.checkpoint.share", "ratio"),
    ("serve.query.share", "ratio"),
    ("serve.wire.share", "ratio"),
    ("mrt.bytes_per_update", "bytes"),
    ("serve.feed.stalls", "count"),
    ("core.bgp_monitors.observe_ns_per_update", "ns"),
    ("core.bgp_monitors.close_ms_per_window", "ms"),
    ("core.bgp_monitors.parked_ratio", "ratio"),
    ("core.corpus.refresh_changed_ratio", "ratio"),
    ("core.query.index_reuse_ratio", "ratio"),
    ("core.partition.skew", "ratio"),
    ("rrr-store.wal_bytes_per_window", "bytes"),
    ("rrr-store.bytes_on_disk", "bytes"),
    ("rrr-store.restore_replayed_records", "count"),
    ("serve.query.is_stale_p50_us", "us"),
    ("serve.query.is_stale_p99_us", "us"),
    ("serve.query.prefix_summary_p50_us", "us"),
    ("serve.query.prefix_summary_p99_us", "us"),
    ("serve.query.as_summary_p50_us", "us"),
    ("serve.query.as_summary_p99_us", "us"),
    ("serve.query.corpus_summary_p50_us", "us"),
    ("serve.query.corpus_summary_p99_us", "us"),
    ("serve.query.refresh_plan_p50_us", "us"),
    ("serve.query.refresh_plan_p99_us", "us"),
    ("serve.wire.overhead_us", "us"),
    ("gen.lateness_p99_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.closure_ratio", "ratio"),
];

const WORKLOADS: [&str; 3] = ["bgp-replay", "trace-refresh", "durable-serve"];

/// Traced runs must attribute at least this share of their wall time.
const MIN_CLOSURE: f64 = 0.9;

/// Pinned input digests (`input scale seed digest bytes` per line).
const PINS: &str = include_str!("../pins.txt");

/// Workload sizes. `full` is the measured configuration; `tiny` runs
/// every path in seconds for the self-test.
pub struct Scale {
    pub tiny: bool,
    pub weather: WeatherScale,
    pub bgp_windows: u64,
    /// Window interval of the collector workloads: the pace of
    /// durable-serve's daemon run, and the arrival pace of the measured
    /// windows' virtual queue on bgp-replay and durable-serve.
    pub pace: Duration,
    /// Arrival pace of trace-refresh's measured windows (about half of
    /// the loop's serial capacity on the reference host).
    pub refresh_pace: Duration,
    /// Open-loop query rate (queries per second). At full scale: a fifth
    /// of the lowest in-process query capacity of the server thread on the
    /// mix among the served states (README.md, "Query load").
    pub query_rate: f64,
    /// Queries served in virtual time against each run's final state.
    pub queries: usize,
    /// Queries sent over TCP to the deployment (checked; their timings go
    /// to the report line).
    pub tcp_queries: usize,
    /// Queries of the traced run's query-layer phase, in process and (the
    /// first `wire_queries`) as closed-loop TCP round trips.
    pub layer_queries: usize,
    pub wire_queries: usize,
    pub refresh_windows: u64,
    pub public_per_window: usize,
    /// Set-ups per untraced run (each rep sets up once; extra set-ups
    /// fill the rest), which also caps the reps.
    pub setups: usize,
    pub restores: usize,
}

impl Scale {
    fn by_name(name: &str) -> Option<Scale> {
        match name {
            "full" => Some(Scale {
                tiny: false,
                weather: WeatherScale::full(),
                bgp_windows: 192,
                pace: Duration::from_micros(1_000_000 / 15),
                refresh_pace: Duration::from_millis(REFRESH_PACE_MS),
                query_rate: 460.0,
                queries: 2_000,
                tcp_queries: 500,
                layer_queries: 1_000,
                wire_queries: 50,
                refresh_windows: 384,
                public_per_window: 1_000,
                setups: 11,
                restores: 2,
            }),
            "tiny" => Some(Scale {
                tiny: true,
                weather: WeatherScale::small(),
                bgp_windows: 24,
                pace: Duration::from_millis(5),
                refresh_pace: Duration::from_millis(5),
                query_rate: 2_000.0,
                queries: 100,
                tcp_queries: 100,
                layer_queries: 100,
                wire_queries: 20,
                refresh_windows: 24,
                public_per_window: 100,
                setups: 2,
                restores: 1,
            }),
            _ => None,
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: String,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 42,
        seconds: 10.0,
        trace: false,
        scale: "full".into(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--scale" => args.scale = value()?,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// What one run measured.
#[derive(Default)]
struct Outcome {
    /// Every number measured, by name, with its unit.
    values: BTreeMap<String, (f64, &'static str)>,
    attempted: u64,
    failed: u64,
    /// Workload facts for the receipt (JSON fragments).
    facts: Vec<(String, String)>,
}

impl Outcome {
    fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        self.values.insert(name.to_string(), (value, unit));
    }

    fn fact(&mut self, key: &str, value: impl std::fmt::Display) {
        self.facts.push((key.to_string(), value.to_string()));
    }

    fn fact_str(&mut self, key: &str, value: &str) {
        self.facts.push((key.to_string(), json_str(value)));
    }
}

/// Re-executes the benchmark once with address-space layout randomisation
/// off (`personality(ADDR_NO_RANDOMIZE)`, as `setarch -R` does). Where the
/// allocator places the big tables decides which of them share cache sets,
/// and with randomisation on the same code read two speeds 30 % apart from
/// process to process. Where the kernel refuses, the run goes on as it is.
fn without_aslr() {
    extern "C" {
        fn personality(persona: std::os::raw::c_ulong) -> std::os::raw::c_int;
    }
    const ADDR_NO_RANDOMIZE: std::os::raw::c_ulong = 0x0040000;
    const QUERY: std::os::raw::c_ulong = 0xffff_ffff;
    // SAFETY: personality only reads or sets this process's execution
    // domain flags.
    let current = unsafe { personality(QUERY) };
    if current < 0 || current as std::os::raw::c_ulong & ADDR_NO_RANDOMIZE != 0 {
        return;
    }
    // SAFETY: as above; the flag takes effect at the next exec.
    if unsafe { personality(current as std::os::raw::c_ulong | ADDR_NO_RANDOMIZE) } < 0 {
        return;
    }
    let Ok(exe) = std::env::current_exe() else { return };
    use std::os::unix::process::CommandExt;
    // exec returns only when it failed.
    let err = std::process::Command::new(exe).args(std::env::args_os().skip(1)).exec();
    eprintln!("perfbench: running with address randomisation on: {err}");
}

fn main() {
    without_aslr();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let Some(scale) = Scale::by_name(&args.scale) else {
        eprintln!("perfbench: --scale must be full or tiny");
        std::process::exit(2);
    };
    let started = Instant::now();
    let steal_at_start = util::steal_ticks();
    let result = match args.workload.as_str() {
        "bgp-replay" => run_weather(&args, &scale, false),
        "durable-serve" => run_weather(&args, &scale, true),
        _ => run_refresh(&args, &scale),
    };
    let mut out = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            println!("{{\"correct\": false, \"attempted\": 1, \"failed\": 1, \"metrics\": {{}}}}");
            std::process::exit(1);
        }
    };
    out.fact("run_wall_s", json_num(secs(started.elapsed())));
    if let (Some(a), Some(b)) = (steal_at_start, util::steal_ticks()) {
        out.fact("cpu_steal_s", json_num(b.saturating_sub(a) as f64 / 100.0));
    }
    println!("{}", receipt_line(&args, &out));
    println!("{}", report_line(&out));

    let wanted: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut metrics = Vec::with_capacity(wanted.len());
    for (name, unit) in wanted {
        let Some((value, got_unit)) = out.values.get(*name) else {
            eprintln!("perfbench: metric {name} was not measured");
            std::process::exit(1);
        };
        assert_eq!(got_unit, unit, "unit of {name}");
        if !value.is_finite() {
            eprintln!("perfbench: metric {name} is not finite ({value})");
            std::process::exit(1);
        }
        metrics.push(format!(
            "{}: {{\"value\": {}, \"unit\": {}}}",
            json_str(name),
            json_num(*value),
            json_str(unit)
        ));
    }
    println!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    );
}

fn receipt_line(args: &Args, out: &Outcome) -> String {
    let git_rev = if std::path::Path::new(".git").exists() {
        command_line("git", &["rev-parse", "HEAD"])
    } else {
        "unknown (not a git checkout)".into()
    };
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut fields = vec![
        ("git_rev".to_string(), json_str(&git_rev)),
        ("rustc".to_string(), json_str(&command_line("rustc", &["-V"]))),
        ("nproc".to_string(), nproc.to_string()),
        ("cpu".to_string(), json_str(&cpu)),
        ("workload".to_string(), json_str(&args.workload)),
        ("seed".to_string(), args.seed.to_string()),
        ("seconds".to_string(), json_num(args.seconds)),
        ("trace".to_string(), (args.trace as u8).to_string()),
        ("scale".to_string(), json_str(&args.scale)),
        ("load_threads".to_string(), "2".to_string()),
        ("load_connections".to_string(), "1".to_string()),
        // `DetectorConfig::threads` is left at 0: one worker per core.
        ("detector_threads".to_string(), nproc.to_string()),
    ];
    fields.extend(out.facts.iter().cloned());
    let body: Vec<String> = fields.iter().map(|(k, v)| format!("{}: {v}", json_str(k))).collect();
    format!("{{\"receipt\": {{{}}}}}", body.join(", "))
}

fn report_line(out: &Outcome) -> String {
    let body: Vec<String> = out
        .values
        .iter()
        .map(|(k, (v, u))| {
            format!("{}: {{\"value\": {}, \"unit\": {}}}", json_str(k), json_num(*v), json_str(u))
        })
        .collect();
    format!("{{\"report\": {{{}}}}}", body.join(", "))
}

/// First line of a command's stdout, or a note that it could not run.
fn command_line(program: &str, args: &[&str]) -> String {
    match std::process::Command::new(program).args(args).output() {
        Ok(o) if o.status.success() => {
            String::from_utf8_lossy(&o.stdout).lines().next().unwrap_or("").trim().to_string()
        }
        _ => format!("unknown ({program} unavailable)"),
    }
}

/// Fails the run when a pinned input digest for this seed and scale does
/// not match what the generator produced.
fn check_pin(input: &str, scale: &str, seed: u64, digest: &str, bytes: u64) -> Result<(), String> {
    for line in PINS.lines().map(str::trim).filter(|l| !l.is_empty() && !l.starts_with('#')) {
        let f: Vec<&str> = line.split_whitespace().collect();
        if f.len() != 5 {
            return Err(format!("malformed pin line {line:?}"));
        }
        let pinned = f[0] == input && f[1] == scale && f[2] == seed.to_string();
        if pinned && (f[3] != digest || f[4] != bytes.to_string()) {
            return Err(format!(
                "{input} input for seed {seed} changed: digest {digest} ({bytes} bytes), pinned {} ({} bytes)",
                f[3], f[4]
            ));
        }
    }
    Ok(())
}

/// Windows per throughput sample and per normalisation chunk: rates are
/// measured over consecutive chunks of this many windows and reported as
/// the median chunk, so a burst of host contention moves one sample, not
/// the result.
pub const CHUNK: usize = 16;

/// Window interval of trace-refresh's virtual queue, in milliseconds.
const REFRESH_PACE_MS: u64 = 50;

/// Timings of the measured reps, in reference seconds (`meter.rs`): each
/// rep and each pass of queries is scaled by the calibration samples taken
/// during it; set-ups and restores, which are short, by the whole run's.
struct Samples {
    /// Arrival interval of the windows' virtual queue.
    pace_s: f64,
    reps: usize,
    /// CPU seconds of measured windows so far.
    measured_s: f64,
    /// Per chunk of [`CHUNK`] windows: windows and inputs per second.
    windows_rate: Vec<f64>,
    inputs_rate: Vec<f64>,
    lags_ms: Vec<f64>,
    /// CPU seconds per set-up and per restore.
    setup_s: Vec<f64>,
    restore_s: Vec<f64>,
    /// Per query: its fastest service time over the run's passes, and its
    /// send time.
    query_s: Vec<f64>,
    query_at: Vec<f64>,
}

impl Samples {
    fn new(pace: Duration, query_at: Vec<f64>) -> Samples {
        Samples {
            pace_s: secs(pace),
            reps: 0,
            measured_s: 0.0,
            windows_rate: Vec::new(),
            inputs_rate: Vec::new(),
            lags_ms: Vec::new(),
            setup_s: Vec::new(),
            restore_s: Vec::new(),
            query_s: Vec::new(),
            query_at,
        }
    }

    /// Adds one deployment's run over its windows: per window, its whole
    /// cost (`window_s`), its service once handed to the ingest loop
    /// (`service_s`), both in CPU seconds, and its input count, with the
    /// run's scale `f`. Publish lag is each window's time in a
    /// single-server queue whose windows arrive every `pace_s`: its own
    /// service plus the wait behind earlier windows.
    fn add_run(&mut self, window_s: &[f64], service_s: &[f64], inputs: &[u64], f: f64) {
        self.measured_s += window_s.iter().sum::<f64>();
        for (ws, n) in window_s.chunks(CHUNK).zip(inputs.chunks(CHUNK)) {
            let took = ws.iter().sum::<f64>() * f;
            self.windows_rate.push(ws.len() as f64 / took);
            self.inputs_rate.push(n.iter().sum::<u64>() as f64 / took);
        }
        let service: Vec<f64> = service_s.iter().map(|s| s * f).collect();
        let arrivals = (0..service.len()).map(|k| k as f64 * self.pace_s);
        let lags = queries::single_server(arrivals, &service);
        self.lags_ms.extend(lags.into_iter().map(|s| s * 1e3));
    }

    /// Adds one pass of queries (service seconds, with the pass's scale).
    /// Passes are spread over the run, one after each rep, and each query
    /// keeps its fastest: a pass that the host slowed down moves nothing.
    fn add_queries(&mut self, service: &[f64], f: f64) {
        let scaled = service.iter().map(|s| s * f);
        if self.query_s.is_empty() {
            self.query_s = scaled.collect();
        } else {
            self.query_s.iter_mut().zip(scaled).for_each(|(best, s)| *best = best.min(s));
        }
    }

    /// Sets every timing metric: throughput as the median chunk, publish
    /// lag as the median and mean window, query latency as each query's
    /// time in a single-server queue at the send schedule.
    fn report(&self, out: &mut Outcome, meter: &Meter) -> Result<(), String> {
        if self.reps == 0 || self.query_s.is_empty() || self.setup_s.is_empty() {
            return Err("no throughput, publish, query or set-up samples".into());
        }
        let f = meter.factor();
        let query_us: Vec<f64> =
            queries::single_server(self.query_at.iter().copied(), &self.query_s)
                .into_iter()
                .map(|s| s * 1e6)
                .collect();
        let lags = &self.lags_ms;
        out.set("setup_s", median(&self.setup_s) * f, "s");
        out.set("restore_s", median(&self.restore_s) * f, "s");
        out.set("windows_per_s", median(&self.windows_rate), "windows/s");
        out.set("inputs_per_s", median(&self.inputs_rate), "inputs/s");
        out.set("publish_lag_p50_ms", quantile(lags, 0.5), "ms");
        out.set("publish_lag_mean_ms", lags.iter().sum::<f64>() / lags.len() as f64, "ms");
        out.set("publish_lag_p90_ms", quantile(lags, 0.9), "ms");
        out.set("query_p50_us", quantile(&query_us, 0.5), "us");
        out.set("query_p99_us", quantile(&query_us, 0.99), "us");
        out.fact("reps", self.reps);
        out.fact("throughput_chunks", self.windows_rate.len());
        out.fact("publish_lag_samples", lags.len());
        out.fact("query_samples", query_us.len());
        out.fact("setup_samples", self.setup_s.len());
        out.fact("restore_samples", self.restore_s.len());
        out.fact("measured_cpu_s", json_num(self.measured_s));
        out.fact("reference_s_per_cpu_s", json_num(f));
        out.fact("core_reference_s_per_cpu_s", json_num(meter.core_factor_since(0)));
        out.fact("calibration_samples", meter.samples());
        Ok(())
    }
}

const QUERY_SALT: u64 = 0x9e37_79b9_7f4a_7c15;

/// Memory of the first measured rep. Before it the resident set holds
/// only what the benchmark keeps (inputs, references): that is the
/// baseline, taken after freed heap is returned to the system, and the
/// high-water mark is reset to it. Later reps are not measured: they reuse
/// pages the allocator kept from the rep before, which no trim returns.
struct FirstRepMemory(u64);

impl FirstRepMemory {
    fn start() -> Result<FirstRepMemory, String> {
        let base = util::held_rss_bytes()?;
        util::reset_peak_rss()?;
        Ok(FirstRepMemory(base))
    }

    /// Called when the rep has ended, before any check that changes its
    /// state: what the program still holds above the baseline (detector or
    /// partitions, engine, latest snapshot, signal log), and the rep's
    /// high-water mark above it.
    fn finish(self, out: &mut Outcome) -> Result<(), String> {
        let peak = util::peak_rss_bytes()?;
        let held = util::held_rss_bytes()?;
        let mb = |b: u64| b.saturating_sub(self.0) as f64 / 1e6;
        out.set("held_rss_mb", mb(held), "MB");
        out.set("peak_rss_added_mb", mb(peak), "MB");
        out.fact("harness_rss_mb", json_num(self.0 as f64 / 1e6));
        Ok(())
    }
}

/// Open-loop TCP queries against a finished run's served state, verified
/// against `reference_at`. Returns (latencies µs, lateness ms, failed).
fn final_queries(
    handle: rrr_serve::ServeHandle,
    pool: &QueryPool,
    scale: &Scale,
    seed: u64,
    reference_at: impl Fn(u64) -> Option<std::sync::Arc<rrr_core::DetectorSnapshot>>,
) -> Result<(Vec<f64>, Vec<f64>, usize), String> {
    let mut server =
        TcpServer::bind("127.0.0.1:0", handle).map_err(|e| format!("bind query server: {e}"))?;
    let qs = queries::draw(pool, scale.tcp_queries, seed ^ QUERY_SALT);
    let offsets = queries::schedule(qs.len(), scale.query_rate);
    let start = Instant::now() + Duration::from_millis(20);
    let run = queries::open_loop(&server, qs, &offsets, start, Duration::from_secs(10));
    server.shutdown();
    let run = run?;
    let failed = run.verify(reference_at)?;
    Ok((run.latency_us, run.lateness_ms, failed))
}

fn run_weather(args: &Args, scale: &Scale, durable: bool) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut input = WeatherInput::generate(args.seed, scale);
    let bytes = input.mrt_bytes();
    check_pin("weather", &args.scale, args.seed, &input.digest, bytes)?;
    out.fact_str("input_digest", &input.digest);
    out.fact("input_mrt_bytes", bytes);
    out.fact("input_windows", input.windows());
    out.fact("input_updates", input.updates);
    out.fact("feeds", bgp::FEEDS);
    out.fact("partitions", 1);
    out.fact_str("engine", if durable { "durable" } else { "plain" });
    let reference = Reference::compute(&mut input)?;
    let pool = QueryPool::of_snapshot(&reference.initial);
    out.fact(
        "input_bytes_in_memory",
        bytes
            + input.batches.iter().map(|b| b.updates.len() as u64).sum::<u64>()
                * std::mem::size_of::<rrr_types::BgpUpdate>() as u64,
    );

    if args.trace {
        return trace_weather(args, scale, durable, &mut input, &reference, &pool, out);
    }

    let mut meter = Meter::new();
    deploy_weather(&mut out, &mut input, &reference, &pool, scale, durable, args.seed)?;

    let window_inputs: Vec<u64> = input.batches.iter().map(|b| b.updates.len() as u64).collect();
    let qs = queries::draw(&pool_of(&reference), scale.queries, args.seed ^ QUERY_SALT);
    let query_at = queries::schedule(qs.len(), scale.query_rate).into_iter().map(secs).collect();
    let mut samples = Samples::new(scale.pace, query_at);
    let mut state_mb = 0.0;
    let windows = input.windows();
    let want = queries::reference_lines(&reference.last(), &qs);
    // Each rep is checked, restored and queried, then dropped before the
    // next starts.
    while samples.measured_s < args.seconds && samples.reps < scale.setups {
        util::trim_heap();
        let memory = (samples.reps == 0).then(FirstRepMemory::start).transpose()?;
        let mark = meter.mark();
        let mut rep = bgp::measured_rep(&mut input, durable, &mut meter)?;
        samples.setup_s.push(rep.setup_s);
        samples.add_run(&rep.window_s, &rep.service_s, &window_inputs, meter.factor_since(mark));
        samples.reps += 1;
        out.attempted += windows;
        // These two checks only read; the rep then keeps what a daemon
        // keeps (its engine and the latest snapshot) for the memory reading.
        reference.check_snapshots(&rep.snaps)?;
        reference.check_signals(&rep.signals)?;
        rep.snaps.drain(..rep.snaps.len().saturating_sub(1));
        rep.signals = Vec::new();
        if let Some(m) = memory {
            m.finish(&mut out)?;
        }
        let final_snap = rep.snaps.last().ok_or("the measured rep published nothing")?;
        let mark = meter.mark();
        let service = queries::serve_in_process(&mut meter, final_snap, &qs, &want)?;
        samples.add_queries(&service, meter.core_factor_since(mark));
        out.attempted += qs.len() as u64;
        let restores = match &rep.engine {
            SerialEngine::Durable(_, dir) => {
                state_mb = dir.bytes_on_disk()? as f64 / 1e6;
                let m = &Metrics::disabled();
                bgp::restore_durable(
                    &mut input,
                    &dir.0,
                    &reference,
                    scale.restores,
                    m,
                    Some(&mut meter),
                )?
            }
            SerialEngine::Plain(d) => {
                let ckpt = refresh::checkpoint(d)?;
                state_mb = ckpt.len() as f64 / 1e6;
                bgp::restore_plain(&mut input, &ckpt, &reference, scale.restores, &mut meter)?
            }
        };
        samples.restore_s.extend(restores);
        reference.check_canonical(rep.engine.detector_mut(), "measured rep")?;
    }
    while samples.setup_s.len() < scale.setups {
        samples.setup_s.push(bgp::setup_only(&mut input, durable, &mut meter)?);
    }
    samples.report(&mut out, &meter)?;
    out.set("state_mb", state_mb, "MB");
    Ok(out)
}

/// The deployment shape, once per untraced run: the daemon with two MRT
/// feeds (full speed through the plain engine, or paced through the
/// durable engine with the TCP query load beside it), then TCP queries
/// against its final state (collector path) and a reopen of its directory
/// (durable). Every output is checked; the wall-clock figures go to the
/// report line only, because they follow the host (README.md).
fn deploy_weather(
    out: &mut Outcome,
    input: &mut WeatherInput,
    reference: &Reference,
    pool: &QueryPool,
    scale: &Scale,
    durable: bool,
    seed: u64,
) -> Result<(), String> {
    let pacing = Pacing { interval: scale.pace, query_rate: scale.query_rate };
    let mut run =
        bgp::daemon_run(input, durable.then_some(&pacing), &Metrics::disabled(), Some(pool), seed)?;
    let windows = input.windows();
    out.attempted += windows;
    let wall = secs(run.wall);
    out.set("daemon.windows_per_s", windows as f64 / wall, "windows/s");
    out.set("daemon.inputs_per_s", input.updates as f64 / wall, "inputs/s");
    let lags: Vec<f64> = run
        .handed
        .iter()
        .zip(&run.visible)
        .map(|(a, b)| secs(b.saturating_duration_since(*a)) * 1e3)
        .collect();
    out.set("daemon.publish_lag_p50_ms", quantile(&lags, 0.5), "ms");
    out.set("daemon.publish_lag_mean_ms", lags.iter().sum::<f64>() / lags.len() as f64, "ms");
    out.set("daemon.publish_lag_p90_ms", quantile(&lags, 0.9), "ms");
    out.set("daemon.setup_s", secs(run.setup), "s");
    let tcp = match &run.queries {
        Some(q) => {
            out.attempted += q.queries.len() as u64;
            out.failed += q.verify(|e| reference.at(e))? as u64;
            q.latency_us.clone()
        }
        None => {
            let (lat, _, failed) =
                final_queries(run.handle.clone(), &pool_of(reference), scale, seed, |e| {
                    reference.at(e)
                })?;
            out.attempted += scale.tcp_queries as u64;
            out.failed += failed as u64;
            lat
        }
    };
    if tcp.is_empty() {
        return Err("no TCP query was answered".into());
    }
    out.set("tcp.query_p50_us", quantile(&tcp, 0.5), "us");
    out.set("tcp.query_p99_us", quantile(&tcp, 0.99), "us");
    bgp::check_daemon_run(&mut run, reference)?;
    if let Some(dir) = &run.scratch {
        bgp::restore_durable(input, &dir.0, reference, 1, &Metrics::disabled(), None)?;
    }
    Ok(())
}

fn pool_of(reference: &Reference) -> QueryPool {
    QueryPool::of_snapshot(&reference.last())
}

/// Each layer's self time as a share of the phase it runs in (replay or
/// serve). Checkpoint cuts happen inside the closing step call, so their
/// time (from the store's own histograms) is moved from the close layer to
/// the persistence layer.
fn shares(out: &mut Outcome, tracer: &Tracer, checkpoint_ns: u64) {
    let selfs = tracer.self_times();
    let get = |n: &str| selfs.get(n).map_or(0, |(ns, _)| *ns);
    let close = get("core.bgp_monitors.close");
    let carve = checkpoint_ns.min(close);
    for (name, _) in PER_LAYER.iter().filter(|(n, _)| n.ends_with(".share")) {
        let layer = name.trim_end_matches(".share");
        let share = match layer {
            "core.bgp_monitors.close" => tracer.share(layer, close - carve),
            "core.persist.checkpoint" => tracer.share("core.bgp_monitors.close", carve),
            l => tracer.share(l, get(l)),
        };
        out.set(name, share, "ratio");
    }
    out.set("trace.closure_ratio", tracer.closure(), "ratio");
    out.fact("trace_spans", tracer.spans().len());
}

fn hist_ms(m: &MetricsSnapshot, name: &str, q: f64) -> f64 {
    m.histograms
        .iter()
        .filter(|(k, _)| rrr_obs::base_name(k) == name)
        .map(|(_, h)| h.quantile(q))
        .max()
        .unwrap_or(0) as f64
        / 1e6
}

fn hist_sum_ns(m: &MetricsSnapshot, name: &str) -> u64 {
    m.histograms.iter().filter(|(k, _)| rrr_obs::base_name(k) == name).map(|(_, h)| h.sum).sum()
}

fn gauge_family(m: &MetricsSnapshot, name: &str) -> i64 {
    m.gauges.iter().filter(|(k, _)| rrr_obs::base_name(k) == name).map(|(_, v)| v).sum()
}

/// The traced serve phase on a finished engine: in-process and wire query
/// timing as spans, then an untraced open-loop phase whose sender lateness
/// samples (ms) are returned with the engine.
fn trace_serve(
    out: &mut Outcome,
    tracer: &mut Tracer,
    engine: Engine,
    pool: &QueryPool,
    scale: &Scale,
    seed: u64,
    reference_at: impl Fn(u64) -> Option<std::sync::Arc<rrr_core::DetectorSnapshot>>,
) -> Result<(Engine, Vec<f64>), String> {
    let (handle, engine) = bgp::serve_final(engine)?;
    let mut server = TcpServer::bind("127.0.0.1:0", handle.clone())
        .map_err(|e| format!("bind query server: {e}"))?;
    let qs = queries::draw(pool, scale.layer_queries, seed ^ QUERY_SALT ^ 1);
    let root = tracer.begin("serve", NO_WINDOW);
    let layer = queries::trace_query_layer(tracer, &handle, &server, &qs, scale.wire_queries);
    tracer.end(root);
    server.shutdown();
    let (per_kind, overhead) = layer?;
    for (kind, xs) in &per_kind {
        let (p50, p99) = queries::p50_p99(xs);
        out.set(&format!("serve.query.{kind}_p50_us"), p50, "us");
        out.set(&format!("serve.query.{kind}_p99_us"), p99, "us");
    }
    out.set("serve.wire.overhead_us", overhead, "us");
    let (_, lateness, failed) = final_queries(handle, pool, scale, seed, reference_at)?;
    out.failed += failed as u64;
    out.attempted += (scale.tcp_queries + scale.layer_queries + scale.wire_queries) as u64;
    Ok((engine, lateness))
}

fn trace_weather(
    args: &Args,
    scale: &Scale,
    durable: bool,
    input: &mut WeatherInput,
    reference: &Reference,
    pool: &QueryPool,
    mut out: Outcome,
) -> Result<Outcome, String> {
    let windows = input.windows() as f64;
    let updates = input.updates as f64;
    // 1. The daemon run with the program's own metrics on: feed stalls and
    //    the store's series come from the real deployment shape.
    let m1 = Metrics::enabled();
    let pacing = Pacing { interval: scale.pace, query_rate: scale.query_rate };
    let mut run = bgp::daemon_run(input, durable.then_some(&pacing), &m1, Some(pool), args.seed)?;
    out.attempted += input.windows();
    if let Some(q) = &run.queries {
        out.attempted += q.queries.len() as u64;
        out.failed += q.verify(|e| reference.at(e))? as u64;
    }
    let s1 = m1.snapshot();
    out.set(
        "serve.feed.stalls",
        s1.counter_family("rrr_serve_backpressure_stalls_total") as f64,
        "count",
    );
    let mut replayed = 0.0;
    let mut on_disk = 0.0;
    bgp::check_daemon_run(&mut run, reference)?;
    if let Some(dir) = &run.scratch {
        on_disk = dir.bytes_on_disk()? as f64;
        let mr = Metrics::enabled();
        bgp::restore_durable(input, &dir.0, reference, 1, &mr, None)?;
        replayed = mr.snapshot().counter_family("rrr_store_restore_replayed_records_total") as f64;
    }
    out.set(
        "rrr-store.wal_bytes_per_window",
        s1.counter_family("rrr_wal_bytes_total") as f64 / windows,
        "bytes",
    );
    out.set("rrr-store.bytes_on_disk", on_disk, "bytes");
    out.set("rrr-store.restore_replayed_records", replayed, "count");
    out.set(
        "rrr-store.checkpoint_full_ms_p50",
        hist_ms(&s1, "rrr_store_checkpoint_full_ns", 0.5),
        "ms",
    );
    out.set(
        "rrr-store.checkpoint_full_ms_max",
        hist_ms(&s1, "rrr_store_checkpoint_full_ns", 1.0),
        "ms",
    );
    out.set(
        "rrr-store.checkpoint_delta_ms_p50",
        hist_ms(&s1, "rrr_store_checkpoint_delta_ns", 0.5),
        "ms",
    );
    out.set(
        "rrr-store.checkpoint_delta_ms_max",
        hist_ms(&s1, "rrr_store_checkpoint_delta_ns", 1.0),
        "ms",
    );
    let lag_max = run.handed.iter().zip(&run.visible).map(|(a, b)| b.saturating_duration_since(*a));
    out.set("daemon.publish_lag_max_ms", secs(lag_max.max().unwrap_or_default()) * 1e3, "ms");
    let mut lateness = run.feed_lateness_ms.clone();
    drop(run);

    // 2. The same serial replay untraced, then 3. traced.
    let mut untraced =
        bgp::serial_replay(input, durable, &mut Tracer::new(false), &Metrics::disabled())?;
    let mut tracer = Tracer::new(true);
    let m3 = Metrics::enabled();
    let traced = bgp::serial_replay(input, durable, &mut tracer, &m3)?;
    let s3 = m3.snapshot();
    reference.check_snapshots(&traced.snaps)?;
    reference.check_snapshots(&untraced.snaps)?;
    reference.check_signals(&traced.signals)?;
    reference.check_signals(&untraced.signals)?;
    reference.check_signals(traced.engine.detector().signal_log())?;
    reference.check_canonical(untraced.engine.detector_mut(), "untraced serial replay")?;
    out.set("trace.overhead_ratio", secs(traced.wall) / secs(untraced.wall), "ratio");
    out.fact("traced_replay_s", json_num(secs(traced.wall)));
    out.fact("untraced_replay_s", json_num(secs(untraced.wall)));
    drop(untraced);

    let selfs = tracer.self_times();
    let get = |n: &str| selfs.get(n).map_or(0, |(ns, _)| *ns) as f64;
    let ckpt_ns = hist_sum_ns(&s3, "rrr_store_checkpoint_full_ns")
        + hist_sum_ns(&s3, "rrr_store_checkpoint_delta_ns");
    out.set("mrt.decode_ns_per_update", get("mrt.decode") / updates, "ns");
    out.set("mrt.bytes_per_update", input.mrt_bytes() as f64 / updates, "bytes");
    out.set("serve.feed.merge_ns_per_round", get("serve.feed.merge") / windows, "ns");
    out.set(
        "core.bgp_monitors.observe_ns_per_update",
        get("core.bgp_monitors.observe") / updates,
        "ns",
    );
    out.set(
        "core.bgp_monitors.close_ms_per_window",
        (get("core.bgp_monitors.close") - ckpt_ns as f64).max(0.0) / windows / 1e6,
        "ms",
    );
    out.set(
        "core.bgp_monitors.program_close_ms_p50",
        hist_ms(&s3, "rrr_detector_window_close_ns", 0.5),
        "ms",
    );
    let groups = gauge_family(&s3, "rrr_detector_monitor_groups");
    out.set(
        "core.bgp_monitors.parked_ratio",
        gauge_family(&s3, "rrr_detector_parked_groups") as f64 / groups.max(1) as f64,
        "ratio",
    );
    out.set("core.query.snapshot_ms", get("core.query.snapshot") / windows / 1e6, "ms");
    out.set("core.query.index_reuse_ratio", traced.reused as f64 / windows, "ratio");
    out.set("core.corpus.refresh_changed_ratio", 0.0, "ratio");
    out.set("core.partition.skew", 1.0, "ratio");

    let (engine, _scratch) = traced.engine.into_engine();
    let last = reference.last();
    let (mut engine, query_lateness) =
        trace_serve(&mut out, &mut tracer, engine, &pool_of(reference), scale, args.seed, |e| {
            (e == last_epoch(&last)).then(|| std::sync::Arc::clone(&last))
        })?;
    reference.check_canonical(engine.detector_mut(), "traced serial replay")?;
    lateness.extend(query_lateness);
    out.set("gen.lateness_p99_ms", quantile(&lateness, 0.99), "ms");
    shares(&mut out, &tracer, ckpt_ns);
    check_closure(&out)?;
    write_trace(args, &tracer)?;
    Ok(out)
}

fn last_epoch(snap: &rrr_core::DetectorSnapshot) -> u64 {
    use rrr_core::Query;
    snap.epoch()
}

fn check_closure(out: &Outcome) -> Result<(), String> {
    let closure = out.values.get("trace.closure_ratio").map_or(0.0, |v| v.0);
    if closure < MIN_CLOSURE {
        return Err(format!(
            "traced run attributes only {closure:.3} of its wall time (needs {MIN_CLOSURE})"
        ));
    }
    Ok(())
}

fn write_trace(args: &Args, tracer: &Tracer) -> Result<(), String> {
    let path = std::path::PathBuf::from(".bench_build")
        .join("perfbench-traces")
        .join(format!("{}-{}-seed{}.jsonl", args.workload, args.scale, args.seed));
    tracer.write_jsonl(&path)
}

fn run_refresh(args: &Args, scale: &Scale) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let per_segment = scale.refresh_windows / refresh::SEGMENTS;
    let segments: Vec<RefreshInput> = (0..refresh::SEGMENTS)
        .map(|k| RefreshInput::generate(refresh::segment_seed(args.seed, k), per_segment, scale))
        .collect::<Result<_, _>>()?;
    let mut digest = util::Digest::default();
    for seg in &segments {
        digest.update(seg.digest.as_bytes());
    }
    let total = |f: fn(&RefreshInput) -> u64| segments.iter().map(f).sum::<u64>();
    let bytes = total(|s| s.bytes);
    check_pin("refresh", &args.scale, args.seed, &digest.hex(), bytes)?;
    out.fact_str("input_digest", &digest.hex());
    out.fact("input_encoded_bytes", bytes);
    out.fact("input_segments", segments.len());
    out.fact("input_windows", total(|s| s.windows()));
    out.fact("input_updates", total(|s| s.updates));
    out.fact("input_public_traces", total(|s| s.public));
    out.fact("input_refreshes", total(|s| s.refreshes));
    // The last segment's final state is the one queried, restored and
    // traced.
    let input = segments.last().ok_or("no input segment")?;
    let windows = input.windows() as f64;
    out.fact("corpus", input.corpus.len());
    out.fact("refresh_budget", input.budget);
    out.fact("feeds", 0);
    out.fact("partitions", refresh::PARTITIONS);
    out.fact_str("engine", "partitioned");
    let final_snap = std::sync::Arc::clone(&input.final_snapshot);
    let final_epoch = last_epoch(&final_snap);
    let reference_at = |e: u64| (e == final_epoch).then(|| std::sync::Arc::clone(&final_snap));
    let pool = QueryPool::of_snapshot(&final_snap);

    if args.trace {
        let (pd, _) = input.build(None)?;
        let mut untraced = refresh::maintenance_loop(
            input,
            pd,
            true,
            &mut Tracer::new(false),
            &Metrics::disabled(),
            None,
        )?;
        let (pd, _) = input.build(None)?;
        let mut tracer = Tracer::new(true);
        let m3 = Metrics::enabled();
        let mut traced = refresh::maintenance_loop(input, pd, true, &mut tracer, &m3, None)?;
        let s3 = m3.snapshot();
        let wall_u = untraced.busy_s();
        let wall_t = traced.busy_s();
        out.set("trace.overhead_ratio", wall_t / wall_u, "ratio");
        let part_bytes: Vec<f64> = traced
            .pd
            .partitions()
            .iter()
            .map(|p| refresh::checkpoint(p).map(|b| b.len() as f64))
            .collect::<Result<_, _>>()?;
        untraced.check(input)?;
        traced.check(input)?;
        drop(untraced);
        out.attempted += input.windows() + input.refreshes;

        let selfs = tracer.self_times();
        let get = |n: &str| selfs.get(n).map_or(0, |(ns, _)| *ns) as f64;
        let updates = input.updates.max(1) as f64;
        out.set(
            "core.bgp_monitors.observe_ns_per_update",
            get("core.bgp_monitors.observe") / updates,
            "ns",
        );
        out.set(
            "core.bgp_monitors.close_ms_per_window",
            get("core.bgp_monitors.close") / windows / 1e6,
            "ms",
        );
        out.set(
            "core.bgp_monitors.program_close_ms_p50",
            hist_ms(&s3, "rrr_detector_window_close_ns", 0.5),
            "ms",
        );
        let groups = gauge_family(&s3, "rrr_detector_monitor_groups");
        out.set(
            "core.bgp_monitors.parked_ratio",
            gauge_family(&s3, "rrr_detector_parked_groups") as f64 / groups.max(1) as f64,
            "ratio",
        );
        out.set(
            "core.trace_monitors.ns_per_trace",
            get("core.trace_monitors") / input.public.max(1) as f64,
            "ns",
        );
        let plan_ms: Vec<f64> = tracer
            .spans()
            .iter()
            .filter(|s| s.name == "core.calibration.plan")
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .collect();
        out.set("core.calibration.plan_ms_p50", quantile(&plan_ms, 0.5), "ms");
        out.set("core.calibration.plan_ms_p99", quantile(&plan_ms, 0.99), "ms");
        out.set(
            "core.corpus.refresh_us",
            get("core.corpus.refresh") / input.refreshes.max(1) as f64 / 1e3,
            "us",
        );
        out.set(
            "core.corpus.refresh_changed_ratio",
            traced.changed as f64 / input.refreshes.max(1) as f64,
            "ratio",
        );
        out.set("core.partition.step_ms_p50", hist_ms(&s3, "rrr_partition_step_ns", 0.5), "ms");
        out.set("core.partition.merge_ms_p50", hist_ms(&s3, "rrr_partition_merge_ns", 0.5), "ms");
        let routed: Vec<f64> = (0..refresh::PARTITIONS)
            .map(|k| {
                s3.counter(&format!("rrr_partition_routed_updates_total{{part=\"{k}\"}}")) as f64
            })
            .collect();
        out.set("core.partition.skew", max_over_mean(&routed), "ratio");
        out.set("core.partition.state_skew", max_over_mean(&part_bytes), "ratio");
        for name in
            ["mrt.bytes_per_update", "rrr-store.wal_bytes_per_window", "rrr-store.bytes_on_disk"]
        {
            out.set(name, 0.0, "bytes");
        }
        for name in ["serve.feed.stalls", "rrr-store.restore_replayed_records"] {
            out.set(name, 0.0, "count");
        }
        out.set("core.query.index_reuse_ratio", 0.0, "ratio");

        let (_, lateness) = trace_serve(
            &mut out,
            &mut tracer,
            Engine::Partitioned(traced.pd),
            &pool,
            scale,
            args.seed,
            reference_at,
        )?;
        out.set("gen.lateness_p99_ms", quantile(&lateness, 0.99), "ms");
        shares(&mut out, &tracer, 0);
        check_closure(&out)?;
        write_trace(args, &tracer)?;
        return Ok(out);
    }

    let mut meter = Meter::new();
    let qs = queries::draw(&pool, scale.queries, args.seed ^ QUERY_SALT);
    let want = queries::reference_lines(&final_snap, &qs);
    let query_at = queries::schedule(qs.len(), scale.query_rate).into_iter().map(secs).collect();
    let mut samples = Samples::new(scale.refresh_pace, query_at);
    let (mut last_pd, mut served) = (None, None);
    let mut state_mb = 0.0;
    // A rep runs every segment on a fresh deployment, checking each; the
    // last segment's final state is then restored and queried, and the
    // last rep's is served over TCP.
    while samples.measured_s < args.seconds && samples.reps < scale.setups {
        drop(served.take());
        for (k, seg) in segments.iter().enumerate() {
            drop(last_pd.take());
            util::trim_heap();
            let memory = (samples.reps == 0 && k == 0).then(FirstRepMemory::start).transpose()?;
            let mark = meter.mark();
            let (pd, setup) = seg.build(Some(&mut meter))?;
            let mut run = refresh::maintenance_loop(
                seg,
                pd,
                false,
                &mut Tracer::new(false),
                &Metrics::disabled(),
                Some(&mut meter),
            )?;
            if let Some(m) = memory {
                m.finish(&mut out)?;
            }
            samples.setup_s.push(setup);
            // Inputs per window: BGP updates, public traceroutes and
            // refresh measurements. The loop's window is its service:
            // there is no decode before it.
            let inputs: Vec<u64> = seg
                .rounds
                .iter()
                .map(|r| (r.updates.len() + r.public.len() + r.refreshes.len()) as u64)
                .collect();
            samples.add_run(&run.window_s, &run.window_s, &inputs, meter.factor_since(mark));
            out.attempted += seg.windows() + seg.refreshes;
            run.check(seg)?;
            last_pd = Some(run.pd);
        }
        samples.reps += 1;
        let pd = last_pd.take().ok_or("no maintenance run")?;
        let ckpts: Vec<Vec<u8>> =
            pd.partitions().iter().map(refresh::checkpoint).collect::<Result<_, _>>()?;
        state_mb = ckpts.iter().map(|c| c.len()).sum::<usize>() as f64 / 1e6;
        let engine = Engine::Partitioned(pd);
        let mark = meter.mark();
        let service = queries::serve_in_process(&mut meter, &engine.snapshot(), &qs, &want)?;
        samples.add_queries(&service, meter.core_factor_since(mark));
        out.attempted += qs.len() as u64;
        for k in 0..scale.restores {
            samples.restore_s.push(input.restore(&ckpts, k == 0, &mut meter)?);
        }
        served = Some(engine);
    }
    // The final state served over TCP: checked, timings in the report line.
    let (handle, _) = bgp::serve_final(served.ok_or("no maintenance run")?)?;
    let (tcp, _, failed) = final_queries(handle, &pool, scale, args.seed, reference_at)?;
    if tcp.is_empty() {
        return Err("no TCP query was answered".into());
    }
    out.attempted += scale.tcp_queries as u64;
    out.failed += failed as u64;
    out.set("tcp.query_p50_us", quantile(&tcp, 0.5), "us");
    out.set("tcp.query_p99_us", quantile(&tcp, 0.99), "us");
    while samples.setup_s.len() < scale.setups {
        samples.setup_s.push(input.build(Some(&mut meter))?.1);
    }
    samples.report(&mut out, &meter)?;
    out.set("state_mb", state_mb, "MB");
    Ok(out)
}

fn max_over_mean(xs: &[f64]) -> f64 {
    let mean = xs.iter().sum::<f64>() / xs.len().max(1) as f64;
    if mean == 0.0 {
        return 1.0;
    }
    xs.iter().copied().fold(0.0, f64::max) / mean
}
