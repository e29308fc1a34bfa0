//! Deterministic input generation: each scenario's world kind expands to a
//! list of per-round detector inputs plus a way to build identically
//! configured detectors (for the shard-invariance and crash-resume
//! oracles, which need several detectors fed the same stream).
//!
//! The micro world mirrors the generator in
//! `crates/rrr-core/tests/checkpoint_resume_equivalence.rs`: 3 vantage
//! points × 4 destination prefixes (`10.2.0.0/16`..`10.5.0.0/16`) with
//! fully scripted update streams, which makes scripted routing events and
//! their reverts exact. The bench world drives the full simulated internet
//! from `rrr-bench::world` through [`World::advance_round`].

use crate::scenario::{Scenario, SimEvent, WorldKind};
use crate::weather::WeatherSpec;
use rrr_bench::weather::{WeatherScale, WeatherWorld, WINDOW_SECS};
use rrr_bench::world::{World, WorldConfig};
use rrr_core::{DetectorConfig, StalenessDetector};
use rrr_geo::{GeoDb, Geolocator};
use rrr_ip2as::{AliasResolver, IpToAsMap};
use rrr_topology::{generate, Topology, TopologyConfig};
use rrr_types::{
    AsPath, Asn, BgpElem, BgpUpdate, CityId, Community, Duration, Hop, Ipv4, Prefix, ProbeId,
    Timestamp, Traceroute, TracerouteId, VpId,
};
use std::sync::Arc;

/// The paper's round length (one RouteViews dump cycle), also the BGP
/// window length: every micro round's updates share one window.
pub const ROUND: u64 = 900;
const NUM_VPS: u32 = 3;
const NUM_DSTS: u32 = 4;
/// Corpus entries taken from the bench world's anchoring mesh.
const BENCH_CORPUS_CAP: usize = 40;
/// Public traceroutes per bench round (kept small; scenarios run the same
/// stream through many detectors).
const BENCH_PUBLIC_PER_ROUND: usize = 48;

/// One round of detector inputs.
#[derive(Debug, Clone)]
pub struct RoundInput {
    /// Zero-based round index.
    pub round: u64,
    /// The `now` passed to `step` (the round's closing time).
    pub now: Timestamp,
    pub updates: Vec<BgpUpdate>,
    pub public: Vec<Traceroute>,
}

impl RoundInput {
    /// Inclusive timestamp span of this round's BGP window.
    pub fn window_span(&self) -> (u64, u64) {
        (self.round * ROUND, (self.round + 1) * ROUND - 1)
    }
}

/// The micro world's expansion recipe.
#[derive(Debug, Clone)]
pub struct MicroPlan {
    pub rounds: u64,
    pub events: Vec<SimEvent>,
    /// Split each round into two `step` calls, the first ending mid-window.
    pub half_steps: bool,
}

fn ip(s: &str) -> Ipv4 {
    s.parse().expect("valid ip literal")
}

fn micro_env() -> (Arc<Topology>, IpToAsMap, Geolocator, AliasResolver) {
    let topo = Arc::new(generate(&TopologyConfig::small(3)));
    let mut map = IpToAsMap::new();
    for i in 0..(2 + NUM_DSTS) {
        map.add_origin(format!("10.{i}.0.0/16").parse::<Prefix>().expect("prefix"), Asn(100 + i));
    }
    let mut db = GeoDb::default();
    for third in 0..(2 + NUM_DSTS) as u8 {
        for last in 0..32u8 {
            db.insert(Ipv4::new(10, third, 0, last), CityId(third as u16));
        }
    }
    let geo = Geolocator::new(db, vec![]);
    let alias = AliasResolver::from_topology(&topo, 1.0, 0);
    (topo, map, geo, alias)
}

fn corpus_trace(id: u64, dst_idx: u32) -> Traceroute {
    let d = 2 + dst_idx;
    Traceroute {
        id: TracerouteId(id),
        probe: ProbeId(dst_idx),
        src: ip("10.0.0.200"),
        dst: Ipv4::new(10, d as u8, 0, 1),
        time: Timestamp(0),
        hops: vec![
            Hop::responsive(ip("10.0.0.2")),
            Hop::responsive(ip("10.1.0.1")),
            Hop::responsive(Ipv4::new(10, d as u8, 0, 1)),
        ],
        reached: true,
    }
}

/// Per-(vp, dst, round) update action, resolved from the scripted events.
/// 0 = withdraw, 1 = RIB-seeded path, 2 = deviating path, 3 = community
/// flip (with variant).
fn action_for(events: &[SimEvent], round: u64, dst: u32) -> (u8, u8) {
    let holds = |from: u64, to: u64| (from..to).contains(&round);
    // Withdraw dominates a route change dominates a community flip when
    // events overlap — one resolved action per (round, dst).
    let mut resolved = (1u8, 0u8);
    for e in events {
        match *e {
            SimEvent::CommunityFlip { from, to, dst: d, variant }
                if d == dst && holds(from, to) && resolved.0 == 1 =>
            {
                resolved = (3, variant);
            }
            SimEvent::RouteChange { from, to, dst: d }
                if d == dst && holds(from, to) && resolved.0 != 0 =>
            {
                resolved = (2, 0);
            }
            SimEvent::Withdraw { from, to, dst: d } if d == dst && holds(from, to) => {
                resolved = (0, 0);
            }
            _ => {}
        }
    }
    resolved
}

fn public_deviates(events: &[SimEvent], round: u64, dst: u32) -> bool {
    events.iter().any(|e| {
        matches!(*e, SimEvent::PublicDeviate { from, to, dst: d }
            if d == dst && (from..to).contains(&round))
    })
}

fn micro_update(vp: u32, dst: u32, action: u8, variant: u8, round: u64, n: u64) -> BgpUpdate {
    let prefix: Prefix = format!("10.{}.0.0/16", 2 + dst).parse().expect("prefix");
    let origin = 102 + dst;
    let elem = match action {
        0 => BgpElem::Withdraw,
        _ => {
            let path = match action {
                2 => vec![90 + vp, 101, 77, origin],
                _ => vec![90 + vp, 101, origin],
            };
            let comm = match action {
                3 => vec![Community::new(101, 50_002 + variant as u32)],
                _ => vec![Community::new(101, 50_001)],
            };
            BgpElem::Announce { path: AsPath::from_asns(path), communities: comm }
        }
    };
    let off = (vp as u64 * 31 + dst as u64 * 7) % (ROUND - 10);
    BgpUpdate { time: Timestamp(round * ROUND + off + n % 7), vp: VpId(vp), prefix, elem }
}

fn micro_public(id: u64, round: u64, off: u64, dst: u32, deviate: bool) -> Traceroute {
    let d = (2 + dst) as u8;
    let mid = if deviate { ip("10.1.0.9") } else { ip("10.1.0.1") };
    Traceroute {
        id: TracerouteId(500_000 + id),
        probe: ProbeId(9),
        src: ip("10.0.0.201"),
        dst: Ipv4::new(10, d, 0, 8),
        time: Timestamp(round * ROUND + off % (ROUND - 10)),
        hops: vec![
            Hop::responsive(ip("10.0.0.2")),
            Hop::responsive(mid),
            Hop::responsive(Ipv4::new(10, d, 0, 2)),
            Hop::responsive(Ipv4::new(10, d, 0, 8)),
        ],
        reached: true,
    }
}

fn micro_rib_seed() -> Vec<BgpUpdate> {
    let mut rib = Vec::new();
    for dst in 0..NUM_DSTS {
        for vp in 0..NUM_VPS {
            rib.push(micro_update(vp, dst, 1, 0, 0, 0));
        }
    }
    rib
}

/// Expands a micro plan into the unfaulted per-step input stream. With
/// `half_steps`, every round becomes two `step` calls split at mid-window,
/// so crash points exist while a BGP window is still open.
pub fn micro_rounds(plan: &MicroPlan) -> Vec<RoundInput> {
    let mut out = Vec::new();
    for r in 0..plan.rounds {
        let mut updates = Vec::new();
        let mut n = 0u64;
        for vp in 0..NUM_VPS {
            for dst in 0..NUM_DSTS {
                let (action, variant) = action_for(&plan.events, r, dst);
                updates.push(micro_update(vp, dst, action, variant, r, n));
                n += 1;
            }
        }
        updates.sort_by_key(|u| u.time);
        let public: Vec<Traceroute> = (0..2u64)
            .map(|i| {
                let dst = ((r + i) % NUM_DSTS as u64) as u32;
                let off = (r * 37 + i * 211) % (ROUND - 10);
                micro_public(r * 100 + i, r, off, dst, public_deviates(&plan.events, r, dst))
            })
            .collect();
        if plan.half_steps {
            let mid = r * ROUND + ROUND / 2;
            let (u1, u2): (Vec<_>, Vec<_>) = updates.into_iter().partition(|u| u.time.0 < mid);
            let (p1, p2): (Vec<_>, Vec<_>) = public.into_iter().partition(|t| t.time.0 < mid);
            out.push(RoundInput { round: r, now: Timestamp(mid), updates: u1, public: p1 });
            out.push(RoundInput {
                round: r,
                now: Timestamp((r + 1) * ROUND),
                updates: u2,
                public: p2,
            });
        } else {
            out.push(RoundInput { round: r, now: Timestamp((r + 1) * ROUND), updates, public });
        }
    }
    out
}

/// A fresh weather generator world at corpus-test scale (full scale runs
/// stream through `sim_run --weather` instead of materializing rounds).
fn weather_world(spec: &WeatherSpec) -> WeatherWorld {
    spec.world(WeatherScale::small()).expect("regime name validated at scenario parse")
}

/// A scenario's world: builds identically configured detectors on demand
/// and knows the environment needed to restore checkpoints.
pub enum SimWorld {
    Micro {
        seed: u64,
    },
    Bench {
        cfg: Box<WorldConfig>,
    },
    /// An internet-weather regime at corpus-test scale. The handle stores
    /// only the spec; generator worlds are pure functions of it, so every
    /// accessor derives a fresh one.
    Weather {
        spec: WeatherSpec,
    },
}

impl SimWorld {
    /// Expands a scenario into its world handle and unfaulted input stream.
    pub fn from_scenario(sc: &Scenario) -> (SimWorld, Vec<RoundInput>) {
        match sc.world {
            WorldKind::Micro => {
                let plan = MicroPlan {
                    rounds: sc.rounds,
                    events: sc.events.clone(),
                    half_steps: sc.half_steps,
                };
                (SimWorld::Micro { seed: sc.seed }, micro_rounds(&plan))
            }
            WorldKind::Bench => {
                let mut cfg = WorldConfig::small(sc.seed);
                cfg.duration = Duration::minutes(15 * sc.rounds);
                cfg.events.duration = cfg.duration;
                cfg.public_per_round = BENCH_PUBLIC_PER_ROUND;
                let mut world = World::new(cfg.clone());
                let rounds = (0..sc.rounds)
                    .map(|r| {
                        let now = Timestamp((r + 1) * ROUND);
                        let (updates, public) = world.advance_round(now, BENCH_PUBLIC_PER_ROUND);
                        RoundInput { round: r, now, updates, public }
                    })
                    .collect();
                (SimWorld::Bench { cfg: Box::new(cfg) }, rounds)
            }
            WorldKind::Weather => {
                let spec =
                    sc.weather.clone().expect("validate() ties the Weather world to its block");
                let mut world = weather_world(&spec);
                let rounds = (0..spec.windows)
                    .map(|w| {
                        let (updates, _) = world.advance(w);
                        RoundInput {
                            round: w,
                            now: Timestamp((w + 1) * WINDOW_SECS),
                            updates,
                            public: Vec::new(),
                        }
                    })
                    .collect();
                (SimWorld::Weather { spec }, rounds)
            }
        }
    }

    /// The detector configuration used by every run of this scenario.
    pub fn det_config(&self, threads: usize) -> DetectorConfig {
        let seed = match self {
            SimWorld::Micro { seed } => *seed,
            SimWorld::Bench { cfg } => cfg.seed,
            SimWorld::Weather { spec } => spec.seed,
        };
        DetectorConfig { seed, threads, ..DetectorConfig::default() }
    }

    /// Builds a fresh detector wired to this world (RIB seeded, corpus
    /// loaded). Identical across calls with the same `threads`.
    pub fn build(&self, threads: usize) -> StalenessDetector {
        match self {
            SimWorld::Micro { .. } => {
                let (topo, map, geo, alias) = micro_env();
                let vps: Vec<VpId> = (0..NUM_VPS).map(VpId).collect();
                let mut det =
                    StalenessDetector::new(topo, map, geo, alias, vps, self.det_config(threads));
                det.init_rib(&micro_rib_seed());
                for dst in 0..NUM_DSTS {
                    det.add_corpus(corpus_trace(1 + dst as u64, dst), None)
                        .expect("micro corpus trace is valid");
                }
                det
            }
            SimWorld::Bench { cfg } => {
                // A fresh same-config world sits at t0, so its RIB snapshot
                // and measured environment match the stream generator's
                // pre-advance state (world generation is deterministic).
                let mut world = World::new(cfg.as_ref().clone());
                let mut det = world.build_detector(self.det_config(threads));
                let boot = world.platform.topology_round(&world.engine, Timestamp::ZERO);
                det.bootstrap_public(&boot);
                let mesh = world.platform.anchoring_round(&world.engine, Timestamp::ZERO);
                for tr in mesh.into_iter().take(BENCH_CORPUS_CAP) {
                    let src_asn = world.topo.asn_of(world.platform.probe(tr.probe).asx);
                    let _ = det.add_corpus(tr, Some(src_asn));
                }
                det
            }
            SimWorld::Weather { spec } => weather_world(spec).build_detector(threads),
        }
    }

    /// A fresh detector with *no* RIB mirror or corpus — the raw material
    /// for a partitioned deployment, where the facade routes
    /// [`SimWorld::rib_seed`] and [`SimWorld::corpus_seed`] itself.
    pub fn build_empty(&self, threads: usize) -> StalenessDetector {
        match self {
            SimWorld::Micro { .. } => {
                let (topo, map, geo, alias) = micro_env();
                let vps: Vec<VpId> = (0..NUM_VPS).map(VpId).collect();
                StalenessDetector::new(topo, map, geo, alias, vps, self.det_config(threads))
            }
            SimWorld::Bench { cfg } => {
                World::new(cfg.as_ref().clone()).build_detector_unseeded(self.det_config(threads))
            }
            SimWorld::Weather { spec } => {
                let mut world = weather_world(spec);
                let (topo, map, geo, alias) = world.detector_env();
                let vps: Vec<VpId> = (0..world.scale.vps).map(VpId).collect();
                StalenessDetector::new(topo, map, geo, alias, vps, self.det_config(threads))
            }
        }
    }

    /// The RIB seed stream [`SimWorld::build`] mirrors before stepping.
    pub fn rib_seed(&self) -> Vec<BgpUpdate> {
        match self {
            SimWorld::Micro { .. } => micro_rib_seed(),
            SimWorld::Bench { cfg } => World::new(cfg.as_ref().clone()).rib_seed(),
            SimWorld::Weather { spec } => weather_world(spec).rib_seed(),
        }
    }

    /// The corpus traceroutes (with source ASNs) [`SimWorld::build`]
    /// inserts, in insertion order.
    pub fn corpus_seed(&self) -> Vec<(Traceroute, Option<Asn>)> {
        match self {
            SimWorld::Micro { .. } => {
                (0..NUM_DSTS).map(|dst| (corpus_trace(1 + dst as u64, dst), None)).collect()
            }
            SimWorld::Bench { cfg } => {
                let mut world = World::new(cfg.as_ref().clone());
                let mesh = world.platform.anchoring_round(&world.engine, Timestamp::ZERO);
                mesh.into_iter()
                    .take(BENCH_CORPUS_CAP)
                    .map(|tr| {
                        let asn = world.topo.asn_of(world.platform.probe(tr.probe).asx);
                        (tr, Some(asn))
                    })
                    .collect()
            }
            SimWorld::Weather { spec } => {
                weather_world(spec).corpus_seed().into_iter().map(|tr| (tr, None)).collect()
            }
        }
    }

    /// Pre-t0 public traceroutes [`SimWorld::build`] bootstraps IXP
    /// membership from (a partitioned build feeds them to its trace
    /// home).
    pub fn bootstrap_seed(&self) -> Vec<Traceroute> {
        match self {
            SimWorld::Micro { .. } | SimWorld::Weather { .. } => Vec::new(),
            SimWorld::Bench { cfg } => {
                let mut world = World::new(cfg.as_ref().clone());
                world.platform.topology_round(&world.engine, Timestamp::ZERO)
            }
        }
    }

    /// The restore environment (topology, IP-to-AS map, geolocation, alias
    /// resolution) matching [`SimWorld::build`].
    pub fn env(&self) -> (Arc<Topology>, IpToAsMap, Geolocator, AliasResolver) {
        match self {
            SimWorld::Micro { .. } => micro_env(),
            SimWorld::Bench { cfg } => {
                let world = World::new(cfg.as_ref().clone());
                let (map, geo, alias) = world.detector_env();
                (Arc::clone(&world.topo), map, geo, alias)
            }
            SimWorld::Weather { spec } => weather_world(spec).detector_env(),
        }
    }

    /// Vantage points with AS numbers, for MRT peer-table registration.
    pub fn vp_asns(&self) -> Vec<(VpId, Asn)> {
        match self {
            // Micro update paths start at AS `90 + vp`.
            SimWorld::Micro { .. } => (0..NUM_VPS).map(|v| (VpId(v), Asn(90 + v))).collect(),
            SimWorld::Bench { cfg } => World::new(cfg.as_ref().clone()).engine.vp_asns(),
            SimWorld::Weather { spec } => weather_world(spec).vp_asns(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::SimEvent;

    #[test]
    fn micro_rounds_are_deterministic_and_sorted() {
        let plan = MicroPlan {
            rounds: 6,
            events: vec![SimEvent::CommunityFlip { from: 2, to: 4, dst: 0, variant: 1 }],
            half_steps: false,
        };
        let a = micro_rounds(&plan);
        let b = micro_rounds(&plan);
        assert_eq!(a.len(), 6);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.updates, y.updates);
            assert_eq!(x.public, y.public);
            assert!(x.updates.windows(2).all(|w| w[0].time <= w[1].time));
            let (lo, hi) = x.window_span();
            assert!(x.updates.iter().all(|u| (lo..=hi).contains(&u.time.0)));
        }
    }

    #[test]
    fn events_change_the_stream_and_revert() {
        let quiet = micro_rounds(&MicroPlan { rounds: 6, events: vec![], half_steps: false });
        let flipped = micro_rounds(&MicroPlan {
            rounds: 6,
            events: vec![SimEvent::CommunityFlip { from: 2, to: 4, dst: 0, variant: 0 }],
            half_steps: false,
        });
        assert_eq!(quiet[1].updates, flipped[1].updates, "before the event");
        assert_ne!(quiet[2].updates, flipped[2].updates, "during the event");
        assert_eq!(quiet[5].updates, flipped[5].updates, "after the revert");
    }

    #[test]
    fn micro_detector_builds_with_corpus() {
        let w = SimWorld::Micro { seed: 5 };
        let det = w.build(1);
        assert_eq!(det.corpus().len(), NUM_DSTS as usize);
        det.validate().expect("fresh detector is consistent");
    }
}
