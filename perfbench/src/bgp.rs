//! The collector path: `bgp-replay` (MRT feeds through the daemon at full
//! speed) and `durable-serve` (the same feeds paced, through the durable
//! engine, with queries over TCP beside them).

use crate::meter::{thread_cpu, Meter};
use crate::queries::{self, OpenLoopRun, QueryPool};
use crate::spans::{Tracer, NO_WINDOW};
use crate::util::{secs, sleep_until, Digest, ScratchDir};
use crate::{Scale, CHUNK};
use rrr_bench::weather::{Regime, WeatherWorld, WINDOW_SECS};
use rrr_core::{
    canonical_bytes_single, DetectorConfig, DetectorSnapshot, DurableConfig, DurableDetector,
    Metrics, Query, StalenessDetector, StalenessSignal,
};
use rrr_mrt::{MrtFileWriter, StreamFilter, UpdateStream, VpDirectory};
use rrr_serve::feed::canonical_sort;
use rrr_serve::{
    replay_reference, Daemon, DaemonConfig, Engine, FeedBatch, FeedSource, IngestReport, MrtFeed,
    ServeHandle, TcpServer,
};
use rrr_types::{BgpUpdate, Timestamp, Traceroute, VpId, WindowConfig};
use std::io::Cursor;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// MRT feeds the input is split across (by vantage point).
pub const FEEDS: usize = 2;

/// Seed of the weather world: topology, corpus and vantage points. The
/// world is part of the workload's definition, like a dataset; `--seed`
/// drives the weather over it (churn events, feed loss and skew) and the
/// detector. At seed 42 the input is the one a world drawn from the seed
/// would give.
const WORLD_SEED: u64 = 42;

type Feed = MrtFeed<Cursor<Arc<[u8]>>>;

/// The generated collector input: one MRT stream per feed, plus the
/// serial batch script the reference replay steps through.
pub struct WeatherInput {
    pub world: WeatherWorld,
    pub seed: u64,
    pub batches: Vec<FeedBatch>,
    pub mrt: Vec<Arc<[u8]>>,
    pub dir: VpDirectory,
    pub rib: Vec<BgpUpdate>,
    pub corpus: Vec<Traceroute>,
    pub vps: Vec<VpId>,
    pub updates: u64,
    pub digest: String,
}

impl WeatherInput {
    pub fn generate(seed: u64, scale: &Scale) -> WeatherInput {
        let regime = Regime::by_name("diurnal").expect("diurnal is a built-in regime");
        let mut world = WeatherWorld::new(regime, scale.weather, WORLD_SEED);
        world.seed = seed;
        let mut dir = VpDirectory::default();
        for (vp, asn) in world.vp_asns() {
            dir.register(vp, asn);
        }
        let mut writers: Vec<MrtFileWriter<Vec<u8>>> =
            (0..FEEDS).map(|_| MrtFileWriter::new(Vec::new())).collect();
        let mut batches = Vec::with_capacity(scale.bgp_windows as usize);
        let mut updates = 0;
        for w in 0..scale.bgp_windows {
            let (window, _) = world.advance(w);
            for u in &window {
                writers[u.vp.0 as usize % FEEDS]
                    .write_update(&dir, u)
                    .expect("writing MRT to memory cannot fail");
            }
            updates += window.len() as u64;
            batches.push(FeedBatch {
                now: Timestamp((w + 1) * WINDOW_SECS),
                updates: window,
                public: Vec::new(),
            });
        }
        let mut digest = Digest::default();
        let mrt: Vec<Arc<[u8]>> = writers
            .into_iter()
            .map(|w| {
                let bytes = w.finish().expect("flushing MRT to memory cannot fail");
                digest.update(&(bytes.len() as u64).to_le_bytes());
                digest.update(&bytes);
                Arc::from(bytes)
            })
            .collect();
        let rib = world.rib_seed();
        let corpus = world.corpus_seed();
        let vps = (0..scale.weather.vps).map(VpId).collect();
        WeatherInput {
            world,
            seed,
            batches,
            mrt,
            dir,
            rib,
            corpus,
            vps,
            updates,
            digest: digest.hex(),
        }
    }

    pub fn mrt_bytes(&self) -> u64 {
        self.mrt.iter().map(|b| b.len() as u64).sum()
    }

    pub fn windows(&self) -> u64 {
        self.batches.len() as u64
    }

    /// The detector configuration; `threads` 0 is one worker per core.
    pub fn det_cfg(&self, threads: usize) -> DetectorConfig {
        DetectorConfig { seed: self.seed, threads, ..DetectorConfig::default() }
    }

    /// A fresh detector with one worker per core: the environment is
    /// derived untimed, then the program-side build (construct, seed the
    /// RIB mirror, register the corpus) is timed on the wall clock.
    pub fn build_detector(&mut self) -> Result<(StalenessDetector, Duration), String> {
        let env = self.world.detector_env();
        let t = Instant::now();
        let det = self.program_build(env, 0)?;
        Ok((det, t.elapsed()))
    }

    /// The same build on one worker, timed in CPU seconds.
    pub fn timed_build(&mut self, meter: &mut Meter) -> Result<(StalenessDetector, f64), String> {
        let env = self.world.detector_env();
        let (det, s) = meter.time(|| self.program_build(env, 1));
        Ok((det?, s))
    }

    fn program_build(&self, env: Env, threads: usize) -> Result<StalenessDetector, String> {
        let (topo, map, geo, alias) = env;
        let mut det =
            StalenessDetector::new(topo, map, geo, alias, self.vps.clone(), self.det_cfg(threads));
        det.init_rib(&self.rib);
        for tr in &self.corpus {
            det.add_corpus(tr.clone(), None).ok_or("weather corpus trace rejected")?;
        }
        Ok(det)
    }

    pub fn feeds(&self) -> Vec<Feed> {
        self.mrt
            .iter()
            .map(|bytes| {
                let stream = UpdateStream::new(
                    Cursor::new(Arc::clone(bytes)),
                    self.dir.clone(),
                    StreamFilter::default(),
                );
                MrtFeed::new(stream, WindowConfig::BGP)
            })
            .collect()
    }

    /// Reopens a durable directory written from this input, timed in CPU
    /// seconds when a meter is given (0 otherwise).
    pub fn open_durable(
        &mut self,
        dir: &std::path::Path,
        meter: Option<&mut Meter>,
    ) -> Result<(DurableDetector, f64), String> {
        let (topo, map, geo, alias) = self.world.detector_env();
        let cfg = self.det_cfg(if meter.is_some() { 1 } else { 0 });
        let open =
            || DurableDetector::open(dir, topo, map, geo, alias, cfg, DurableConfig::default());
        let (d, s) = match meter {
            Some(m) => m.time(open),
            None => (open(), 0.0),
        };
        Ok((d.map_err(|e| format!("reopen durable directory: {e}"))?, s))
    }
}

type Env = (
    Arc<rrr_topology::Topology>,
    rrr_ip2as::IpToAsMap,
    rrr_geo::Geolocator,
    rrr_ip2as::AliasResolver,
);

/// The serial reference: a fresh detector stepped through the canonical
/// batch script, with a full snapshot at every epoch.
pub struct Reference {
    pub initial: Arc<DetectorSnapshot>,
    pub snaps: Vec<Arc<DetectorSnapshot>>,
    pub signals: Vec<StalenessSignal>,
    pub canonical: Vec<u8>,
}

impl Reference {
    pub fn compute(input: &mut WeatherInput) -> Result<Reference, String> {
        let (det, _) = input.build_detector()?;
        let initial = Arc::new(det.snapshot());
        let (mut det, snaps) = replay_reference(det, &input.batches);
        if snaps.len() as u64 != input.windows() {
            return Err(format!(
                "reference published {} epochs for {} windows",
                snaps.len(),
                input.windows()
            ));
        }
        let signals = det.signal_log().to_vec();
        let canonical = canonical_bytes_single(&mut det).map_err(|e| e.to_string())?;
        Ok(Reference { initial, snaps, signals, canonical })
    }

    pub fn at(&self, epoch: u64) -> Option<Arc<DetectorSnapshot>> {
        match epoch {
            0 => Some(Arc::clone(&self.initial)),
            e => self.snaps.get(e as usize - 1).cloned(),
        }
    }

    pub fn last(&self) -> Arc<DetectorSnapshot> {
        Arc::clone(self.snaps.last().unwrap_or(&self.initial))
    }

    /// Published snapshots must equal the reference, epoch by epoch.
    pub fn check_snapshots(&self, got: &[Arc<DetectorSnapshot>]) -> Result<(), String> {
        if got.len() != self.snaps.len() {
            return Err(format!(
                "{} snapshots published, the reference has {}",
                got.len(),
                self.snaps.len()
            ));
        }
        for (g, w) in got.iter().zip(&self.snaps) {
            if g.epoch() != w.epoch()
                || g.corpus_summary() != w.corpus_summary()
                || g.monitor_stats() != w.monitor_stats()
                || g.plan(32) != w.plan(32)
            {
                return Err(format!("snapshot at epoch {} differs from the reference", g.epoch()));
            }
        }
        Ok(())
    }

    pub fn check_signals(&self, got: &[StalenessSignal]) -> Result<(), String> {
        if got != self.signals.as_slice() {
            return Err(format!(
                "signal log differs from the reference ({} signals against {})",
                got.len(),
                self.signals.len()
            ));
        }
        Ok(())
    }

    pub fn check_canonical(&self, det: &mut StalenessDetector, what: &str) -> Result<(), String> {
        let bytes = canonical_bytes_single(det).map_err(|e| e.to_string())?;
        if bytes != self.canonical {
            return Err(format!("{what}: canonical state bytes differ from the reference"));
        }
        Ok(())
    }
}

/// An MRT feed that records when it hands each window's batch to the
/// daemon and, when paced, holds the batch until the window is due, so
/// the daemon receives the input at a fixed window rate.
struct Handoff {
    inner: Feed,
    /// Start of ingest and window interval, when paced.
    pace: Option<(Instant, Duration)>,
    /// Hand-over instant of each window, indexed by window.
    handed: Arc<Mutex<Vec<Option<Instant>>>>,
    lateness_ms: Arc<Mutex<Vec<f64>>>,
}

impl FeedSource for Handoff {
    fn next_batch(&mut self) -> Result<Option<FeedBatch>, rrr_types::Error> {
        let batch = self.inner.next_batch()?;
        if let Some(b) = &batch {
            let w = (b.now.0 / WINDOW_SECS - 1) as usize;
            if let Some((start, interval)) = self.pace {
                let due = start + interval * w as u32;
                sleep_until(due);
                let late = Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3;
                self.lateness_ms.lock().expect("lateness log poisoned").push(late);
            }
            let now = Instant::now();
            let mut handed = self.handed.lock().expect("hand-over log poisoned");
            // A window is handed over once every feed has handed its part.
            if let Some(slot) = handed.get_mut(w) {
                *slot = Some(slot.map_or(now, |t: Instant| t.max(now)));
            }
        }
        Ok(batch)
    }
}

/// Records when each epoch first becomes visible on the handle.
fn watch_epochs(
    handle: ServeHandle,
    total: u64,
    stop: Arc<AtomicBool>,
) -> JoinHandle<Vec<Option<Instant>>> {
    std::thread::Builder::new()
        .name("perfbench-epoch-watch".into())
        .spawn(move || {
            let mut seen_at = vec![None; total as usize];
            let mut seen = 0;
            loop {
                let e = handle.epoch().min(total);
                if e > seen {
                    let now = Instant::now();
                    for slot in &mut seen_at[seen as usize..e as usize] {
                        *slot = Some(now);
                    }
                    seen = e;
                }
                if seen >= total || stop.load(Ordering::Acquire) {
                    break;
                }
                std::thread::sleep(Duration::from_micros(200));
            }
            seen_at
        })
        .expect("spawn epoch watcher")
}

/// One daemon run over the whole input.
pub struct DaemonRun {
    pub setup: Duration,
    pub wall: Duration,
    /// Per window: when its last feed handed the batch to the daemon, and
    /// when its epoch became visible on the handle.
    pub handed: Vec<Instant>,
    pub visible: Vec<Instant>,
    pub report: IngestReport,
    pub handle: ServeHandle,
    pub queries: Option<OpenLoopRun>,
    pub feed_lateness_ms: Vec<f64>,
    /// The durable directory (durable runs only); removed on drop.
    pub scratch: Option<ScratchDir>,
}

/// Paced-run settings: window interval and the query load beside it.
pub struct Pacing {
    pub interval: Duration,
    pub query_rate: f64,
}

/// Wraps a built detector as the daemon's engine: bare, or durable in a
/// fresh scratch directory (whose creation cuts the first checkpoint).
fn wrap_engine(
    det: StalenessDetector,
    durable: bool,
) -> Result<(Engine, Option<ScratchDir>), String> {
    if !durable {
        return Ok((Engine::Plain(det), None));
    }
    let scratch = ScratchDir::new("durable")?;
    let d = DurableDetector::create(det, &scratch.0, DurableConfig::default())
        .map_err(|e| format!("create durable directory: {e}"))?;
    Ok((Engine::Durable(d), Some(scratch)))
}

/// One program-side set-up with no input behind it, in CPU seconds:
/// build on one worker and, for the durable engine, create the directory
/// (which cuts the first checkpoint).
pub fn setup_only(
    input: &mut WeatherInput,
    durable: bool,
    meter: &mut Meter,
) -> Result<f64, String> {
    let (det, build) = input.timed_build(meter)?;
    if !durable {
        return Ok(build);
    }
    let scratch = ScratchDir::new("setup")?;
    let (d, create) =
        meter.time(|| DurableDetector::create(det, &scratch.0, DurableConfig::default()));
    d.map_err(|e| format!("create durable directory: {e}"))?;
    Ok(build + create)
}

/// Runs the daemon over the input: at full speed through the plain engine,
/// or paced through the durable engine with an open-loop query load.
pub fn daemon_run(
    input: &mut WeatherInput,
    pacing: Option<&Pacing>,
    metrics: &Metrics,
    queries: Option<&QueryPool>,
    query_seed: u64,
) -> Result<DaemonRun, String> {
    let (det, build) = input.build_detector()?;
    let t = Instant::now();
    let (engine, scratch) = wrap_engine(det, pacing.is_some())?;
    let lateness = Arc::new(Mutex::new(Vec::new()));
    let handed = Arc::new(Mutex::new(vec![None; input.batches.len()]));
    let start = Instant::now();
    let feeds: Vec<Box<dyn FeedSource>> = input
        .feeds()
        .into_iter()
        .map(|f| {
            Box::new(Handoff {
                inner: f,
                pace: pacing.map(|p| (start, p.interval)),
                handed: Arc::clone(&handed),
                lateness_ms: Arc::clone(&lateness),
            }) as Box<dyn FeedSource>
        })
        .collect();
    let cfg =
        DaemonConfig { record_snapshots: true, metrics: metrics.clone(), ..Default::default() };
    let daemon = Daemon::spawn(engine, feeds, cfg);
    let setup = build + t.elapsed();
    let handle = daemon.handle();
    let windows = input.windows();
    let stop = Arc::new(AtomicBool::new(false));
    let watcher = watch_epochs(handle.clone(), windows, Arc::clone(&stop));

    let queries = match pacing {
        None => None,
        Some(p) => {
            let server = TcpServer::bind("127.0.0.1:0", handle.clone())
                .map_err(|e| format!("bind query server: {e}"))?;
            let span = p.interval * windows as u32;
            let count = (span.as_secs_f64() * p.query_rate) as usize;
            let pool = queries.ok_or("a paced run needs a query pool")?;
            let qs = queries::draw(pool, count, query_seed);
            let offsets = queries::schedule(count, p.query_rate);
            let run = queries::open_loop(&server, qs, &offsets, start, Duration::from_secs(10));
            let mut server = server;
            server.shutdown();
            Some(run?)
        }
    };

    let report = daemon.join();
    let wall = start.elapsed();
    stop.store(true, Ordering::Release);
    let seen = watcher.join().map_err(|_| "epoch watcher panicked".to_string())?;
    let report = report.map_err(|e| format!("daemon: {e}"))?;
    let visible = seen
        .into_iter()
        .enumerate()
        .map(|(w, at)| at.ok_or_else(|| format!("epoch {} was never published", w + 1)))
        .collect::<Result<Vec<_>, _>>()?;
    let handed = std::mem::take(&mut *handed.lock().expect("hand-over log poisoned"))
        .into_iter()
        .enumerate()
        .map(|(w, at)| at.ok_or_else(|| format!("window {w} was never handed over")))
        .collect::<Result<Vec<_>, _>>()?;
    let feed_lateness_ms = std::mem::take(&mut *lateness.lock().expect("lateness log poisoned"));
    Ok(DaemonRun {
        setup,
        wall,
        handed,
        visible,
        report,
        handle,
        queries,
        feed_lateness_ms,
        scratch,
    })
}

/// Checks a daemon run's outputs against the reference. The engine's
/// state is compared last because canonical bytes wake parked groups.
pub fn check_daemon_run(run: &mut DaemonRun, reference: &Reference) -> Result<(), String> {
    reference.check_snapshots(&run.report.snapshots)?;
    reference.check_signals(&run.report.signals)?;
    reference.check_canonical(run.report.engine.detector_mut(), "daemon final state")
}

/// The engine a serial replay steps: bare, or durable in a scratch
/// directory. One exists per replay, so the variants' size gap costs
/// nothing worth an indirection.
#[allow(clippy::large_enum_variant)]
pub enum SerialEngine {
    Plain(StalenessDetector),
    Durable(DurableDetector, ScratchDir),
}

impl SerialEngine {
    pub fn detector(&self) -> &StalenessDetector {
        match self {
            SerialEngine::Plain(d) => d,
            SerialEngine::Durable(d, _) => d.detector(),
        }
    }

    pub fn detector_mut(&mut self) -> &mut StalenessDetector {
        match self {
            SerialEngine::Plain(d) => d,
            SerialEngine::Durable(d, _) => d.detector_mut(),
        }
    }

    fn step(
        &mut self,
        now: Timestamp,
        updates: &[BgpUpdate],
        public: &[Traceroute],
    ) -> Result<Vec<StalenessSignal>, String> {
        match self {
            SerialEngine::Plain(d) => Ok(d.step(now, updates, public)),
            SerialEngine::Durable(d, _) => {
                d.step(now, updates, public).map_err(|e| format!("durable step: {e}"))
            }
        }
    }

    pub fn into_engine(self) -> (Engine, Option<ScratchDir>) {
        match self {
            SerialEngine::Plain(d) => (Engine::Plain(d), None),
            SerialEngine::Durable(d, s) => (Engine::Durable(d), Some(s)),
        }
    }
}

/// Output of a serial replay.
pub struct SerialRun {
    pub engine: SerialEngine,
    pub wall: Duration,
    pub snaps: Vec<Arc<DetectorSnapshot>>,
    pub signals: Vec<StalenessSignal>,
    pub reused: u64,
}

/// Replays the input serially through the layers' public entry points:
/// decode each feed's window, merge, step in three calls (observe, close,
/// trace), snapshot. With an enabled tracer every call is a span.
pub fn serial_replay(
    input: &mut WeatherInput,
    durable: bool,
    tracer: &mut Tracer,
    metrics: &Metrics,
) -> Result<SerialRun, String> {
    let (det, _) = input.build_detector()?;
    let mut engine = if durable {
        let scratch = ScratchDir::new("serial")?;
        let d = DurableDetector::create(det, &scratch.0, DurableConfig::default())
            .map_err(|e| format!("create durable directory: {e}"))?;
        SerialEngine::Durable(d, scratch)
    } else {
        SerialEngine::Plain(det)
    };
    match &mut engine {
        SerialEngine::Plain(d) => d.set_metrics(metrics),
        SerialEngine::Durable(d, _) => d.set_metrics(metrics),
    }
    let mut feeds = input.feeds();
    let mut prev = Arc::new(engine.detector().snapshot());
    let mut snaps = Vec::with_capacity(input.batches.len());
    let mut signals = Vec::new();
    let mut reused = 0;

    let t = Instant::now();
    let root = tracer.begin("replay", NO_WINDOW);
    for w in 0..input.windows() {
        let now = Timestamp((w + 1) * WINDOW_SECS);
        let merged = next_window(&mut feeds, now, |name, f| tracer.time(name, w, f))?;
        let observe = Timestamp(now.0 - 1);
        let s = tracer
            .time("core.bgp_monitors.observe", w, || engine.step(observe, &merged.updates, &[]))?;
        signals.extend(s);
        let s = tracer.time("core.bgp_monitors.close", w, || engine.step(now, &[], &[]))?;
        signals.extend(s);
        let s = tracer.time("core.trace_monitors", w, || engine.step(now, &[], &merged.public))?;
        signals.extend(s);
        let snap = tracer.time("core.query.snapshot", w, || {
            Arc::new(engine.detector().snapshot_incremental(&prev))
        });
        if snap.shares_indexes_with(&prev) {
            reused += 1;
        }
        snaps.push(Arc::clone(&snap));
        prev = snap;
    }
    tracer.end(root);
    let wall = t.elapsed();
    Ok(SerialRun { engine, wall, snaps, signals, reused })
}

/// Decodes window `now` from every feed (`mrt.decode`) and merges the
/// parts into one canonically sorted batch (`serve.feed.merge`), as the
/// daemon's feeds and ingest loop do. `layer` wraps each of the two.
fn next_window(
    feeds: &mut [Feed],
    now: Timestamp,
    mut layer: impl FnMut(
        &'static str,
        &mut dyn FnMut() -> Result<FeedBatch, String>,
    ) -> Result<FeedBatch, String>,
) -> Result<FeedBatch, String> {
    let mut parts = Vec::with_capacity(FEEDS);
    for f in feeds.iter_mut() {
        let part = layer("mrt.decode", &mut || match f.next_batch() {
            Ok(Some(b)) if b.now == now => Ok(b),
            Ok(Some(b)) => Err(format!("feed batch for {:?}, expected {now:?}", b.now)),
            Ok(None) => Ok(FeedBatch::tick(now)),
            Err(e) => Err(format!("mrt feed: {e}")),
        })?;
        parts.push(part);
    }
    layer("serve.feed.merge", &mut || {
        let mut merged = FeedBatch::tick(now);
        for b in std::mem::take(&mut parts) {
            merged.updates.extend(b.updates);
            merged.public.extend(b.public);
        }
        canonical_sort(&mut merged);
        Ok(merged)
    })
}

/// One measured rep: the whole input through the serial pipeline on the
/// calling thread, one detector worker, `Metrics::disabled()`. Each window
/// is decoded, merged, stepped in one call and published as an incremental
/// snapshot, like the daemon does; times are CPU seconds of this thread.
pub struct Rep {
    pub engine: SerialEngine,
    pub snaps: Vec<Arc<DetectorSnapshot>>,
    pub signals: Vec<StalenessSignal>,
    pub setup_s: f64,
    /// Per window: decode to publish (the throughput's cost), and step to
    /// publish (its service once handed to the ingest loop).
    pub window_s: Vec<f64>,
    pub service_s: Vec<f64>,
}

pub fn measured_rep(
    input: &mut WeatherInput,
    durable: bool,
    meter: &mut Meter,
) -> Result<Rep, String> {
    let (det, mut setup_s) = input.timed_build(meter)?;
    let mut engine = if durable {
        let scratch = ScratchDir::new("rep")?;
        let (d, create) =
            meter.time(|| DurableDetector::create(det, &scratch.0, DurableConfig::default()));
        setup_s += create;
        SerialEngine::Durable(d.map_err(|e| format!("create durable directory: {e}"))?, scratch)
    } else {
        SerialEngine::Plain(det)
    };
    let mut feeds = input.feeds();
    let mut prev = Arc::new(engine.detector().snapshot());
    let n = input.batches.len();
    let (mut snaps, mut signals) = (Vec::with_capacity(n), Vec::new());
    let (mut window_s, mut service_s) = (Vec::with_capacity(n), Vec::with_capacity(n));
    for w in 0..n as u64 {
        let now = Timestamp((w + 1) * WINDOW_SECS);
        let t0 = thread_cpu();
        let merged = next_window(&mut feeds, now, |_, f| f())?;
        let t1 = thread_cpu();
        signals.extend(engine.step(now, &merged.updates, &merged.public)?);
        let snap = Arc::new(engine.detector().snapshot_incremental(&prev));
        let t2 = thread_cpu();
        window_s.push(secs(t2 - t0));
        service_s.push(secs(t2 - t1));
        snaps.push(Arc::clone(&snap));
        prev = snap;
        if (w as usize + 1).is_multiple_of(CHUNK) {
            meter.tick();
        }
    }
    Ok(Rep { engine, snaps, signals, setup_s, window_s, service_s })
}

/// CPU seconds to restore the final state from its full checkpoint,
/// checking the first restored state against the reference.
pub fn restore_plain(
    input: &mut WeatherInput,
    ckpt: &[u8],
    reference: &Reference,
    samples: usize,
    meter: &mut Meter,
) -> Result<Vec<f64>, String> {
    let mut out = Vec::with_capacity(samples);
    for k in 0..samples {
        let (topo, map, geo, alias) = input.world.detector_env();
        let cfg = input.det_cfg(1);
        let (restored, s) =
            meter.time(|| StalenessDetector::restore(ckpt, topo, map, geo, alias, cfg));
        out.push(s);
        let mut restored = restored.map_err(|e| format!("restore: {e}"))?;
        if k == 0 {
            reference.check_canonical(&mut restored, "restored state")?;
        }
    }
    Ok(out)
}

/// Reopens a durable directory `samples` times, checking the first
/// reopened state against the reference; returns CPU seconds per reopen
/// when a meter is given. The first reopen's replay counts go to
/// `metrics` when it is enabled.
pub fn restore_durable(
    input: &mut WeatherInput,
    dir: &std::path::Path,
    reference: &Reference,
    samples: usize,
    metrics: &Metrics,
    mut meter: Option<&mut Meter>,
) -> Result<Vec<f64>, String> {
    let mut out = Vec::with_capacity(samples);
    for k in 0..samples {
        let (mut reopened, s) = input.open_durable(dir, meter.as_deref_mut())?;
        out.push(s);
        if k == 0 {
            reopened.set_metrics(metrics);
            reference.check_canonical(reopened.detector_mut(), "reopened durable directory")?;
        }
    }
    Ok(out)
}

/// Wraps a finished engine in a daemon with no feeds, so its final state
/// is served exactly as a live daemon would serve it.
pub fn serve_final(engine: Engine) -> Result<(ServeHandle, Engine), String> {
    let daemon = Daemon::spawn(engine, Vec::new(), DaemonConfig::default());
    let handle = daemon.handle();
    let report = daemon.join().map_err(|e| format!("feedless daemon: {e}"))?;
    Ok((handle, report.engine))
}
