//! `trace-refresh`: the corpus maintenance loop (§4.2 + §4.3) on a
//! two-partition detector — step each window, plan a refresh of 1 % of the
//! corpus, apply every planned refresh.
//!
//! A refresh measurement depends on which traceroutes the planner picks,
//! so the input is recorded by a serial reference detector stepping in
//! lockstep with the simulated world; the measured runs then replay the
//! recording and must reproduce the reference's plans, signal log and
//! canonical state bytes exactly.

use crate::meter::{thread_cpu, Meter};
use crate::spans::{Tracer, NO_WINDOW};
use crate::util::{secs, Digest};
use crate::{Scale, CHUNK};
use rrr_bench::world::{World, WorldConfig};
use rrr_core::{
    canonical_bytes_single, DetectorBuilder, DetectorConfig, DetectorSnapshot, Metrics,
    PartitionMap, PartitionedDetector, StalenessDetector, StalenessSignal,
};
use rrr_geo::Geolocator;
use rrr_ip2as::{AliasResolver, IpToAsMap};
use rrr_topology::Topology;
use rrr_types::{Asn, BgpUpdate, Timestamp, Traceroute, TracerouteId, VpId};
use std::sync::Arc;
use std::time::Instant;

/// Partitions of the measured deployment.
pub const PARTITIONS: usize = 2;

/// Segments of the workload's input: each has routing events of its own
/// seed (derived from `--seed`) and a fresh deployment. One event seed
/// changed the work per window by up to a fifth against another (a few
/// large events dominate a seed), so each run spreads its windows over
/// several.
pub const SEGMENTS: u64 = 4;

/// Event seed of segment `k` of the input made from `seed`: segments of
/// different seeds never share one.
pub fn segment_seed(seed: u64, k: u64) -> u64 {
    seed.wrapping_mul(SEGMENTS).wrapping_add(k)
}

/// One window of recorded input.
pub struct Round {
    pub now: Timestamp,
    pub updates: Vec<BgpUpdate>,
    pub public: Vec<Traceroute>,
    /// The reference plan, which every replay must reproduce.
    pub plan: Vec<TracerouteId>,
    /// The refresh measurements of the planned entries, in plan order.
    pub refreshes: Vec<(TracerouteId, Traceroute, Asn)>,
}

type Env = (IpToAsMap, Geolocator, AliasResolver);

/// Seed of the simulated world: topology, collector peers and measurement
/// platform. The world is part of the workload's definition, like a
/// dataset; `--seed` drives the routing events over it (and so the BGP
/// updates, the public traceroutes' paths and the refresh outcomes). A
/// world drawn per seed would change the corpus and the work per window by
/// up to a third between seeds.
const WORLD_SEED: u64 = 42;

pub struct RefreshInput {
    pub seed: u64,
    pub budget: usize,
    pub topo: Arc<Topology>,
    pub vps: Vec<VpId>,
    pub rib: Vec<BgpUpdate>,
    pub corpus: Vec<(Traceroute, Asn)>,
    pub rounds: Vec<Round>,
    pub map: PartitionMap,
    /// An un-advanced twin of the recorded world: detector environments
    /// are derived from the t0 routing state, so this world answers for it.
    env_world: World,
    pub digest: String,
    /// Encoded size of the recording (what the digest covers).
    pub bytes: u64,
    pub updates: u64,
    pub public: u64,
    pub refreshes: u64,
    /// Outputs of the serial reference.
    pub signals: Vec<StalenessSignal>,
    pub canonical: Vec<u8>,
    pub final_snapshot: Arc<DetectorSnapshot>,
}

impl RefreshInput {
    /// Builds the world and records `windows` windows of the events of
    /// `seed` through a serial reference detector.
    pub fn generate(seed: u64, windows: u64, scale: &Scale) -> Result<RefreshInput, String> {
        let duration = rrr_types::Duration::secs(windows * 900);
        let mut cfg = if scale.tiny {
            WorldConfig::small(WORLD_SEED)
        } else {
            WorldConfig::evaluation(WORLD_SEED, duration)
        };
        cfg.events.seed = seed.wrapping_add(1);
        cfg.events.duration = duration;
        cfg.public_per_round = scale.public_per_window;
        let env_world = World::new(cfg.clone());
        let mut world = World::new(cfg);
        let vps: Vec<VpId> = world.engine.vps().iter().map(|v| v.id).collect();
        let rib = world.rib_seed();
        let corpus: Vec<(Traceroute, Asn)> = world
            .platform
            .anchoring_round(&world.engine, Timestamp::ZERO)
            .into_iter()
            .map(|tr| {
                let asn = world.topo.asn_of(world.platform.probe(tr.probe).asx);
                (tr, asn)
            })
            .collect();
        let (ip2as, geo, alias) = env_world.detector_env();
        let map = quantile_map(&ip2as, &corpus)?;
        let budget = (corpus.len() / 100).max(1);
        let det_cfg = DetectorConfig { seed, ..DetectorConfig::default() };

        let mut det = DetectorBuilder::from_config(det_cfg).build(
            Arc::clone(&world.topo),
            ip2as,
            geo,
            alias,
            vps.clone(),
        );
        det.init_rib(&rib);
        for (tr, asn) in &corpus {
            det.add_corpus(tr.clone(), Some(*asn));
        }

        let mut digest = Digest::default();
        let mut bytes = 0u64;
        let mut rounds = Vec::with_capacity(windows as usize);
        let (mut n_updates, mut n_public, mut n_refresh) = (0, 0, 0);
        for w in 1..=windows {
            let now = Timestamp(w * 900);
            let (updates, public) = world.advance_round(now, scale.public_per_window);
            det.step(now, &updates, &public);
            let plan = det.plan_refresh(budget).refresh;
            let mut refreshes = Vec::with_capacity(plan.len());
            for &id in &plan {
                let Some(e) = det.corpus().get(id) else { continue };
                let (probe, dst) = (e.traceroute.probe, e.traceroute.dst);
                let fresh = world.platform.measure(&world.engine, probe, dst, now);
                let asn = world.topo.asn_of(world.platform.probe(probe).asx);
                det.apply_refresh(id, fresh.clone(), Some(asn));
                refreshes.push((id, fresh, asn));
            }
            let rec =
                rrr_core::StepRecord { now, bgp_updates: updates.clone(), public: public.clone() };
            let mut feed = |b: &[u8]| {
                bytes += b.len() as u64;
                digest.update(b);
            };
            feed(&rrr_store_payload(&rec)?);
            for (id, tr, asn) in &refreshes {
                feed(&id.0.to_le_bytes());
                feed(&asn.0.to_le_bytes());
                feed(&rrr_store_payload(&rrr_core::StepRecord {
                    now,
                    bgp_updates: Vec::new(),
                    public: vec![tr.clone()],
                })?);
            }
            n_updates += updates.len() as u64;
            n_public += public.len() as u64;
            n_refresh += refreshes.len() as u64;
            rounds.push(Round { now, updates, public, plan, refreshes });
        }
        let signals = det.signal_log().to_vec();
        let final_snapshot = Arc::new(det.snapshot());
        let canonical = canonical_bytes_single(&mut det).map_err(|e| e.to_string())?;
        Ok(RefreshInput {
            seed,
            budget,
            topo: Arc::clone(&world.topo),
            vps,
            rib,
            corpus,
            rounds,
            map,
            env_world,
            digest: digest.hex(),
            bytes,
            updates: n_updates,
            public: n_public,
            refreshes: n_refresh,
            signals,
            canonical,
            final_snapshot,
        })
    }

    pub fn windows(&self) -> u64 {
        self.rounds.len() as u64
    }

    /// The detector configuration; `threads` 0 is one worker per core.
    fn det_cfg(&self, threads: usize) -> DetectorConfig {
        DetectorConfig { seed: self.seed, threads, ..DetectorConfig::default() }
    }

    fn env(&self) -> Env {
        self.env_world.detector_env()
    }

    /// A fresh partitioned deployment (partition build, RIB routing, corpus
    /// registration). With a meter it is built serial — one worker, no
    /// partition threads — and the build is timed in CPU seconds;
    /// without, it runs one worker per core and partition-parallel steps,
    /// and the build is timed on the wall clock.
    pub fn build(&self, meter: Option<&mut Meter>) -> Result<(PartitionedDetector, f64), String> {
        let envs: Vec<Env> = (0..PARTITIONS).map(|_| self.env()).collect();
        let serial = meter.is_some();
        let build = || {
            let parts: Vec<StalenessDetector> = envs
                .into_iter()
                .map(|(ip2as, geo, alias)| {
                    DetectorBuilder::from_config(self.det_cfg(serial as usize)).build(
                        Arc::clone(&self.topo),
                        ip2as,
                        geo,
                        alias,
                        self.vps.clone(),
                    )
                })
                .collect();
            let mut pd = PartitionedDetector::new(parts, self.map.clone());
            pd.set_parallel(!serial);
            pd.init_rib(&self.rib);
            for (tr, asn) in &self.corpus {
                pd.add_corpus(tr.clone(), Some(*asn));
            }
            pd
        };
        Ok(match meter {
            Some(m) => m.time(build),
            None => {
                let t = Instant::now();
                let pd = build();
                (pd, secs(t.elapsed()))
            }
        })
    }

    /// Restores every partition from its full checkpoint on one worker;
    /// returns the CPU seconds taken and checks each restored
    /// partition re-checkpoints to the same bytes.
    pub fn restore(
        &self,
        ckpts: &[Vec<u8>],
        check: bool,
        meter: &mut Meter,
    ) -> Result<f64, String> {
        let envs: Vec<Env> = (0..ckpts.len()).map(|_| self.env()).collect();
        let (restored, took) = meter.time(|| {
            ckpts
                .iter()
                .zip(envs)
                .map(|(bytes, (ip2as, geo, alias))| {
                    StalenessDetector::restore(
                        &bytes[..],
                        Arc::clone(&self.topo),
                        ip2as,
                        geo,
                        alias,
                        self.det_cfg(1),
                    )
                })
                .collect::<Result<Vec<_>, _>>()
        });
        let restored = restored.map_err(|e| format!("restore partition: {e}"))?;
        if check {
            for (d, bytes) in restored.iter().zip(ckpts) {
                if checkpoint(d)? != *bytes {
                    return Err("restored partition checkpoints to different bytes".into());
                }
            }
        }
        Ok(took)
    }
}

fn rrr_store_payload(rec: &rrr_core::StepRecord) -> Result<Vec<u8>, String> {
    rrr_store::to_payload(rec).map_err(|e| format!("encode input record: {e}"))
}

/// A full checkpoint of one detector, in memory.
pub fn checkpoint(d: &StalenessDetector) -> Result<Vec<u8>, String> {
    let mut buf = Vec::new();
    d.checkpoint(&mut buf).map_err(|e| format!("checkpoint: {e}"))?;
    Ok(buf)
}

/// Splits the address space at the corpus destination prefixes' quantiles,
/// so each partition owns a comparable share of the corpus.
fn quantile_map(ip2as: &IpToAsMap, corpus: &[(Traceroute, Asn)]) -> Result<PartitionMap, String> {
    let mut bases: Vec<u32> = corpus
        .iter()
        .map(|(tr, _)| ip2as.most_specific_prefix(tr.dst).map_or(tr.dst, |p| p.network()).value())
        .collect();
    bases.sort_unstable();
    let mut splits: Vec<u32> =
        (1..PARTITIONS).map(|k| bases[k * bases.len() / PARTITIONS]).collect();
    splits.dedup();
    splits.retain(|&s| s > 0);
    if splits.len() + 1 != PARTITIONS {
        return Err(format!("corpus prefixes do not split into {PARTITIONS} partitions"));
    }
    PartitionMap::from_splits(splits).map_err(|e| format!("partition map: {e}"))
}

/// One pass of the maintenance loop over the recording.
pub struct LoopRun {
    pub pd: PartitionedDetector,
    /// Per window: seconds of its program calls (step, plan, refreshes) —
    /// CPU seconds of this thread when measured with a meter, wall seconds
    /// otherwise.
    pub window_s: Vec<f64>,
    pub changed: u64,
}

/// Replays the recording through `pd`. With `split`, each window's step is
/// made as three calls (observe, close, trace) so a tracer can attribute
/// them; otherwise one call per window, as a deployment would make. With a
/// meter, windows are timed on this thread's CPU clock, with a calibration
/// sample after every chunk of windows.
pub fn maintenance_loop(
    input: &RefreshInput,
    mut pd: PartitionedDetector,
    split: bool,
    tracer: &mut Tracer,
    metrics: &Metrics,
    mut meter: Option<&mut Meter>,
) -> Result<LoopRun, String> {
    pd.set_metrics(metrics);
    let n = input.rounds.len();
    let mut window_s = Vec::with_capacity(n);
    let mut changed = 0;
    let root = tracer.begin("replay", NO_WINDOW);
    for (w, r) in input.rounds.iter().enumerate() {
        let (wall, cpu) = (Instant::now(), thread_cpu());
        let w = w as u64;
        if split {
            let observe = Timestamp(r.now.0 - 1);
            tracer.time("core.bgp_monitors.observe", w, || pd.step(observe, &r.updates, &[]));
            tracer.time("core.bgp_monitors.close", w, || pd.step(r.now, &[], &[]));
            tracer.time("core.trace_monitors", w, || pd.step(r.now, &[], &r.public));
        } else {
            pd.step(r.now, &r.updates, &r.public);
        }
        let plan = tracer.time("core.calibration.plan", w, || pd.plan_refresh(input.budget));
        if plan.refresh != r.plan {
            return Err(format!("window {w}: refresh plan differs from the reference"));
        }
        for (id, tr, asn) in &r.refreshes {
            let (_, c) = tracer
                .time("core.corpus.refresh", w, || pd.apply_refresh(*id, tr.clone(), Some(*asn)));
            changed += c as u64;
        }
        let w = w as usize;
        match meter.as_deref_mut() {
            Some(m) => {
                window_s.push(secs(thread_cpu() - cpu));
                if (w + 1).is_multiple_of(CHUNK) {
                    m.tick();
                }
            }
            None => window_s.push(secs(wall.elapsed())),
        }
    }
    tracer.end(root);
    Ok(LoopRun { pd, window_s, changed })
}

impl LoopRun {
    /// Seconds spent in program calls.
    pub fn busy_s(&self) -> f64 {
        self.window_s.iter().sum()
    }

    /// The signal log and canonical state must equal the serial reference.
    pub fn check(&mut self, input: &RefreshInput) -> Result<(), String> {
        if self.pd.signal_log() != input.signals.as_slice() {
            return Err(format!(
                "signal log differs from the reference ({} signals against {})",
                self.pd.signal_log().len(),
                input.signals.len()
            ));
        }
        let bytes = self.pd.canonical_bytes().map_err(|e| e.to_string())?;
        if bytes != input.canonical {
            return Err("partitioned canonical state bytes differ from the reference".into());
        }
        Ok(())
    }
}
