//! Partitioned detector deployment: N cooperating [`StalenessDetector`]
//! instances, each owning a contiguous range of the IPv4 destination-prefix
//! key space, coordinated so the merged output is **bit-identical** to one
//! unpartitioned instance consuming the same streams.
//!
//! # Key routing
//!
//! A [`PartitionMap`] splits the 32-bit address space into `N` contiguous
//! ranges by interior split points. Everything keyed by destination prefix
//! routes by the prefix's *base address*:
//!
//! - BGP updates and RIB seeds go to `of_prefix(update.prefix)`;
//! - a corpus traceroute goes to the partition of its destination's
//!   most-specific announced prefix (falling back to the destination host
//!   address). Routing by the covering prefix — not the raw destination —
//!   guarantees an entry and the BGP updates for its destination prefix
//!   never straddle a partition boundary.
//!
//! # The trace home and owned state
//!
//! Each partition owns its corpus entries, their BGP monitors, RIB slice,
//! assertions and potential-signal lists. The traceroute-derived monitors
//! (§4.2: subpath, border, IXP membership) are not keyed by prefix — their
//! series advance on the public traceroute stream — so they live once per
//! deployment, in partition 0, the **trace home**:
//!
//! - the home holds the only `TraceMonitors` and `IxpMonitor` and
//!   registers trace monitors for every corpus entry, in global insertion
//!   order, so its trace state equals a single instance's; every other
//!   partition holds empty ones;
//! - the home alone consumes the public stream; the others step with their
//!   routed BGP slice only;
//! - an owner's `potential[id]` holds its BGP keys followed by the trace
//!   keys the home's registration returned — the single instance's order,
//!   which the planner sums TNRs in.
//!
//! A step runs in two halves. Every partition first *observes* its input
//! (`StalenessDetector::observe_step`) without applying assertions. The
//! coordinator then takes the home's output — trace signals, trace
//! revocations, and IXP joins, whose signals it computes once over every
//! partition's corpus (`IxpJoin::signals` reads each `corpus.by_asn`) —
//! and routes each signal and revocation to the partitions owning the
//! entries it names: the **forwarded batch**. Each partition then
//! *applies* its BGP batch with its forwarded batch in the single
//! instance's order: assertions first, in canonical order, then BGP
//! revocations, then trace revocations.
//!
//! The merged step batch is every partition's BGP signals (disjoint: a
//! monitor group lives with its prefix) plus the home's trace and IXP
//! signals, `canonical_sort`ed (`signal` module) — the order the
//! single-instance `step` applies — so the merged signal log is
//! byte-for-byte the unpartitioned log.
//!
//! # Calibration merge and planning
//!
//! Refresh verification records calibration tallies in the owner partition
//! only, so a (probe, key) cell may hold partial tallies in several
//! partitions (trace keys are shared across entries). Planning reads the
//! partitions' assertion and potential maps in place and computes each
//! TPR/TNR by summing the partitions' cells on lookup (`Tallies`), which
//! is exactly the calibrator `Calibrator::absorb` would materialise (all
//! partitions roll generation windows in lockstep). Planning draws from a
//! coordinator-owned RNG seeded like the single instance's calibrator RNG;
//! partition calibrators never draw, so the coordinator stream *is* the
//! single-instance stream. Snapshots and canonical bytes still materialise
//! the merged calibrator, with a copy of the coordinator stream swapped in.
//!
//! # Durability
//!
//! [`PartitionedDurable`] gives each partition its own
//! [`DurableDetector`] — a private WAL plus full/delta checkpoint chain
//! under `part-NNN/` — and persists the routing table
//! (`partition_map.rrr`, fingerprinted against the detector config) and
//! the coordinator state (`coordinator.rrr`: planning RNG + merged signal
//! log). The trace state stays inside a partition: the home's WAL logs the
//! public stream and its checkpoints carry the trace monitors. Every
//! partition's WAL record also carries the forwarded batch it applied, so
//! a single crashed partition recovers independently via
//! [`PartitionedDurable::reopen_partition`] — replaying its own inputs and
//! forwarded batches — while the coordinator and the surviving partitions
//! keep their in-memory state.

use crate::calibration::{Calibrator, RefreshPlan, Tallies};
use crate::corpus::Corpus;
use crate::detector::{cfg_fingerprint, DetectorConfig, Forwarded, Observed, StalenessDetector};
use crate::persist::{DurableConfig, DurableDetector};
use crate::query::DetectorSnapshot;
use crate::signal::StalenessSignal;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rrr_geo::Geolocator;
use rrr_ip2as::{AliasResolver, IpToAsMap};
use rrr_obs::{Counter, Histogram, Metrics};
use rrr_store::{Decoder, Encoder, Persist, StoreError};
use rrr_topology::Topology;
use rrr_types::{Asn, BgpUpdate, Ipv4, Prefix, Timestamp, Traceroute, TracerouteId};
use std::collections::{BTreeMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Deterministic range-based key→partition routing, shared by ingestion,
/// serving, and restore. Partition `k` owns addresses in
/// `[splits[k-1], splits[k])` (with 0 and 2³² as the outer bounds).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionMap {
    /// Interior split points, strictly ascending, all non-zero. `N-1`
    /// points define `N` partitions.
    splits: Vec<u32>,
}

impl PartitionMap {
    /// `n` equal-width ranges over the 32-bit address space.
    pub fn even(n: usize) -> Self {
        assert!(n >= 1, "at least one partition");
        assert!(n <= 1 << 16, "unreasonable partition count");
        let span = (1u64 << 32) / n as u64;
        PartitionMap { splits: (1..n as u64).map(|i| (i * span) as u32).collect() }
    }

    /// A map from explicit interior split points (strictly ascending,
    /// non-zero); `splits.len() + 1` partitions.
    pub fn from_splits(splits: Vec<u32>) -> Result<Self, rrr_types::Error> {
        if !splits.windows(2).all(|w| w[0] < w[1]) || splits.first() == Some(&0) {
            return Err(rrr_types::Error::invariant(
                "partition map",
                "split points must be strictly ascending and non-zero",
            ));
        }
        Ok(PartitionMap { splits })
    }

    /// Number of partitions.
    #[allow(clippy::len_without_is_empty)] // never empty: N >= 1 by construction
    pub fn len(&self) -> usize {
        self.splits.len() + 1
    }

    /// The partition owning an address. Total: every address maps to
    /// exactly one partition index below [`PartitionMap::len`].
    pub fn of_addr(&self, addr: Ipv4) -> usize {
        self.splits.partition_point(|&s| s <= addr.value())
    }

    /// The partition owning a prefix — routed by its base address, so a
    /// covering prefix and every update for it land together.
    pub fn of_prefix(&self, prefix: Prefix) -> usize {
        self.of_addr(prefix.network())
    }

    /// The half-open address range `[start, end)` of partition `k`
    /// (`end = None` means "through the top of the address space").
    pub fn range(&self, k: usize) -> (u32, Option<u32>) {
        let start = if k == 0 { 0 } else { self.splits[k - 1] };
        (start, self.splits.get(k).copied())
    }

    /// Canonical bytes of the routing table, for persistence stamps.
    pub fn fingerprint(&self) -> Result<Vec<u8>, StoreError> {
        rrr_store::to_payload(self)
    }
}

impl Persist for PartitionMap {
    fn store<W: std::io::Write>(&self, e: &mut Encoder<W>) -> Result<(), StoreError> {
        self.splits.store(e)
    }
    fn load<R: std::io::Read>(d: &mut Decoder<R>) -> Result<Self, StoreError> {
        let splits: Vec<u32> = Persist::load(d)?;
        PartitionMap::from_splits(splits).map_err(|_| d.corrupt("partition split points"))
    }
}

/// The partition owning a corpus traceroute: the base address of its
/// destination's most-specific announced prefix (host address when
/// unannounced) — mirroring the key the corpus itself indexes by.
fn owner_of_trace(map: &PartitionMap, ip2as: &IpToAsMap, tr: &Traceroute) -> usize {
    let base = ip2as.most_specific_prefix(tr.dst).map(|p| p.network()).unwrap_or(tr.dst);
    map.of_addr(base)
}

/// Routes BGP updates to per-partition buckets, preserving order.
fn route_updates(map: &PartitionMap, updates: &[BgpUpdate]) -> Vec<Vec<BgpUpdate>> {
    let mut buckets = vec![Vec::new(); map.len()];
    for u in updates {
        buckets[map.of_prefix(u.prefix)].push(u.clone());
    }
    buckets
}

/// The partition holding the deployment's only trace and IXP monitors.
const HOME: usize = 0;

/// What the coordinator needs of one partition: its detector, and how a
/// step's observed output and forwarded batch are committed (applied
/// directly, or logged first by a durable partition).
trait Partition {
    fn det(&self) -> &StalenessDetector;
    fn det_mut(&mut self) -> &mut StalenessDetector;
    fn commit(
        &mut self,
        now: Timestamp,
        bgp_updates: &[BgpUpdate],
        public: &[Traceroute],
        observed: Observed,
        forwarded: &Forwarded,
    ) -> Result<Vec<StalenessSignal>, StoreError>;
}

impl Partition for StalenessDetector {
    fn det(&self) -> &StalenessDetector {
        self
    }
    fn det_mut(&mut self) -> &mut StalenessDetector {
        self
    }
    fn commit(
        &mut self,
        _now: Timestamp,
        _bgp_updates: &[BgpUpdate],
        _public: &[Traceroute],
        observed: Observed,
        forwarded: &Forwarded,
    ) -> Result<Vec<StalenessSignal>, StoreError> {
        Ok(self.apply_step(observed.bgp_signals, &observed.bgp_revokes, forwarded))
    }
}

impl Partition for DurableDetector {
    fn det(&self) -> &StalenessDetector {
        self.detector()
    }
    fn det_mut(&mut self) -> &mut StalenessDetector {
        self.detector_mut()
    }
    fn commit(
        &mut self,
        now: Timestamp,
        bgp_updates: &[BgpUpdate],
        public: &[Traceroute],
        observed: Observed,
        forwarded: &Forwarded,
    ) -> Result<Vec<StalenessSignal>, StoreError> {
        self.commit_step(now, bgp_updates, public, observed, forwarded)
    }
}

/// The partitions owning the entries a signal or revocation names, each
/// once, in first-named order.
fn owners(corpora: &[&Corpus], traceroutes: &[TracerouteId]) -> Vec<usize> {
    let mut out = Vec::new();
    for &tr in traceroutes {
        if let Some(k) = corpora.iter().position(|c| c.get(tr).is_some()) {
            if !out.contains(&k) {
                out.push(k);
            }
        }
    }
    out
}

/// Turns the trace home's observed output into one forwarded batch per
/// partition — IXP join signals computed once over every partition's
/// corpus, each signal and revocation routed to the owners of the entries
/// it names — and returns the batches with the merged step batch.
fn route_home_output(
    corpora: &[&Corpus],
    topo: &Topology,
    observed: &mut [Observed],
) -> (Vec<StalenessSignal>, Vec<Forwarded>) {
    let home = &mut observed[HOME];
    let mut out = std::mem::take(&mut home.trace);
    for join in std::mem::take(&mut home.joins) {
        out.signals.extend(join.signals(corpora, topo));
    }
    let mut inboxes = vec![Forwarded::default(); corpora.len()];
    for s in &out.signals {
        for k in owners(corpora, &s.traceroutes) {
            inboxes[k].signals.push(s.clone());
        }
    }
    for r in &out.revokes {
        for k in owners(corpora, &r.traceroutes) {
            inboxes[k].revokes.push(r.clone());
        }
    }
    let mut merged: Vec<StalenessSignal> =
        observed.iter().flat_map(|o| o.bgp_signals.iter().cloned()).collect();
    merged.extend(out.signals);
    crate::signal::canonical_sort(&mut merged);
    (merged, inboxes)
}

/// One coordinator step: route the BGP updates, observe every partition
/// (the public stream to the trace home only; on scoped threads when
/// `parallel`), route the home's output, then commit each partition's BGP
/// batch with its forwarded batch. Returns the merged batch.
fn step_parts<P: Partition + Send>(
    parts: &mut [P],
    map: &PartitionMap,
    obs: &PartObs,
    parallel: bool,
    now: Timestamp,
    bgp_updates: &[BgpUpdate],
    public: &[Traceroute],
) -> Result<Vec<StalenessSignal>, StoreError> {
    let _step_span = obs.step_ns.span();
    let buckets = route_updates(map, bgp_updates);
    obs.observe_route(&buckets, public.len());
    let public_of = |k: usize| if k == HOME { public } else { &[] };
    let mut observed: Vec<Observed> = if parallel && parts.len() > 1 {
        std::thread::scope(|s| {
            let handles: Vec<_> = parts
                .iter_mut()
                .zip(&buckets)
                .enumerate()
                .map(|(k, (p, bucket))| {
                    let public = public_of(k);
                    s.spawn(move || p.det_mut().observe_step(now, bucket, public))
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("partition worker panicked")).collect()
        })
    } else {
        parts
            .iter_mut()
            .zip(&buckets)
            .enumerate()
            .map(|(k, (p, bucket))| p.det_mut().observe_step(now, bucket, public_of(k)))
            .collect()
    };
    let merge_span = obs.merge_ns.span();
    let (merged, inboxes) = {
        let corpora: Vec<&Corpus> = parts.iter().map(|p| &p.det().corpus).collect();
        route_home_output(&corpora, &parts[HOME].det().topo, &mut observed)
    };
    drop(merge_span);
    for (k, ((p, o), inbox)) in parts.iter_mut().zip(observed).zip(&inboxes).enumerate() {
        p.commit(now, &buckets[k], public_of(k), o, inbox)?;
    }
    obs.merged_signals.add(merged.len() as u64);
    Ok(merged)
}

/// Clone of partition 0's calibrator with every other partition's tallies
/// absorbed — the single instance's calibrator, up to the RNG (which the
/// coordinator supplies).
fn merged_calibrator<P: Partition>(parts: &[P]) -> Calibrator {
    let mut cal = parts[0].det().cal.clone();
    for p in &parts[1..] {
        cal.absorb(&p.det().cal);
    }
    cal
}

/// [`merged_calibrator`] carrying a copy of the coordinator stream, for
/// snapshots and canonical bytes (neither advances the live stream).
fn merged_calibrator_with<P: Partition>(parts: &[P], plan_rng: &StdRng) -> Calibrator {
    let mut cal = merged_calibrator(parts);
    cal.swap_rng(&mut plan_rng.clone());
    cal
}

/// Merged refresh planning over the partitions' state in place: the
/// partition-local assertion and potential maps are borrowed, probes
/// resolve across partitions, TPR/TNR sum the partitions' calibration
/// cells on lookup, and the coordinator's stream is drawn.
fn merged_plan<P: Partition>(parts: &[P], plan_rng: &mut StdRng, budget: usize) -> RefreshPlan {
    let dets: Vec<&StalenessDetector> = parts.iter().map(P::det).collect();
    let active: Vec<_> = dets.iter().map(|p| &p.active).collect();
    let potential: Vec<_> = dets.iter().map(|p| &p.potential).collect();
    let cals: Vec<&Calibrator> = dets.iter().map(|p| &p.cal).collect();
    let probe_of =
        |id: TracerouteId| dets.iter().find_map(|p| p.corpus.get(id)).map(|e| e.traceroute.probe);
    crate::query::plan_refresh_impl(
        &active,
        &potential,
        &probe_of,
        &Tallies::of(&cals),
        plan_rng,
        budget,
    )
}

/// The partition owning a corpus entry, if any.
fn owner_index<P: Partition>(parts: &[P], id: TracerouteId) -> Option<usize> {
    parts.iter().position(|p| p.det().corpus.get(id).is_some())
}

/// Inserts a corpus traceroute: the owner inserts it and registers its BGP
/// monitors, the trace home registers its trace monitors, and the owner
/// appends the home's keys to the entry's potential signals.
fn add_corpus_impl<P: Partition>(
    parts: &mut [P],
    map: &PartitionMap,
    tr: Traceroute,
    src_asn: Option<Asn>,
) -> Option<TracerouteId> {
    let owner = owner_of_trace(map, parts[HOME].det().map(), &tr);
    let (home, rest) = parts.split_first_mut()?;
    if owner == HOME {
        return home.det_mut().add_corpus(tr, src_asn);
    }
    let owner_det = rest[owner - 1].det_mut();
    let id = owner_det.insert_owned(tr, src_asn)?;
    let keys = home.det_mut().register_trace(owner_det.corpus.get(id)?);
    owner_det.add_potential(id, keys);
    Some(id)
}

/// Removes a corpus traceroute from its owner and the trace home's
/// monitors.
fn remove_corpus_impl<P: Partition>(parts: &mut [P], id: TracerouteId) {
    if let Some(k) = owner_index(parts, id) {
        parts[k].det_mut().remove_corpus(id);
    }
    parts[HOME].det_mut().trace.unregister(id);
}

/// The partitioned `apply_refresh`: verification (and its calibration
/// records) run in the owner of the old entry; the replacement routes to
/// wherever the new destination belongs.
fn apply_refresh_impl<P: Partition>(
    parts: &mut [P],
    map: &PartitionMap,
    old_id: TracerouteId,
    new_tr: Traceroute,
    src_asn: Option<Asn>,
) -> (Option<TracerouteId>, bool) {
    let any_changed = match owner_index(parts, old_id) {
        Some(k) => {
            let changed = parts[k].det_mut().verify_signals(old_id, &new_tr);
            remove_corpus_impl(parts, old_id);
            changed
        }
        None => false,
    };
    let id = add_corpus_impl(parts, map, new_tr, src_asn);
    (id, any_changed)
}

/// Asserts a byte-level section is identical in every partition (state
/// all partitions advance in lockstep) and returns the shared bytes.
fn equal_bytes(
    views: &[&StalenessDetector],
    what: &str,
    f: impl Fn(&StalenessDetector) -> Result<Vec<u8>, StoreError>,
) -> Result<Vec<u8>, StoreError> {
    let first = f(views[0])?;
    for p in &views[1..] {
        assert!(f(p)? == first, "lockstep state diverged across partitions: {what}");
    }
    Ok(first)
}

/// Canonical (park-normalized) encoding of the semantic detector state
/// across one or more partitions. A single instance and any N-way
/// partitioning of the same input produce byte-identical output:
///
/// - parked monitor groups are materialized first, so parking policy
///   cannot leak into the bytes;
/// - lockstep sections (config fingerprint, vantage points, window
///   cursor, close count) are asserted equal across partitions and
///   written once;
/// - the trace and IXP monitor sections are the trace home's (partition
///   0's), the deployment's only copy;
/// - partition-local sections (corpus entries, monitor groups, RIB and
///   open-window slices, potential/active maps) are disjoint by
///   construction and merge under a canonical sort;
/// - the calibrator section carries the caller's merged calibrator bytes
///   (coordinator RNG included) and the signal log is the merged log.
fn canonical_state_bytes<P: Partition>(
    parts: &mut [P],
    cal_bytes: &[u8],
    log: &[StalenessSignal],
) -> Result<Vec<u8>, StoreError> {
    for p in parts.iter_mut() {
        p.det_mut().bgp.materialize_all();
    }
    let views: Vec<&StalenessDetector> = parts.iter().map(P::det).collect();

    let mut payload = Vec::new();
    let mut e = Encoder::new(&mut payload);

    // Lockstep sections (asserted identical, written once).
    equal_bytes(&views, "config fingerprint", |p| cfg_fingerprint(&p.cfg))?.store(&mut e)?;
    equal_bytes(&views, "vantage points", |p| rrr_store::to_payload(&p.vps))?.store(&mut e)?;

    // Disjoint corpus entries, canonically ordered by id.
    let mut entries: BTreeMap<TracerouteId, Vec<u8>> = BTreeMap::new();
    for p in &views {
        for en in p.corpus.entries() {
            let prev = entries.insert(en.id, rrr_store::to_payload(en)?);
            assert!(prev.is_none(), "corpus entry {:?} owned by two partitions", en.id);
        }
    }
    e.len(entries.len())?;
    for (id, bytes) in &entries {
        id.store(&mut e)?;
        bytes.store(&mut e)?;
    }

    // Disjoint BGP monitor groups, sorted by encoded key (arena-free
    // bytes, so intern order cannot leak in).
    let mut groups: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
    for p in &views {
        groups.extend(p.bgp.canonical_groups()?);
    }
    groups.sort();
    groups.store(&mut e)?;

    // Disjoint RIB mirror and open-window slices (keyed by prefix, so the
    // per-partition BTreeMaps union without collision).
    let mut rib = BTreeMap::new();
    let mut window = BTreeMap::new();
    for p in &views {
        for (k, v) in p.bgp.rib_snapshot() {
            assert!(rib.insert(k, v).is_none(), "rib key owned by two partitions");
        }
        for (k, v) in p.bgp.window_snapshot() {
            assert!(window.insert(k, v).is_none(), "window key owned by two partitions");
        }
    }
    rib.store(&mut e)?;
    window.store(&mut e)?;
    equal_bytes(&views, "close count", |p| rrr_store::to_payload(&p.bgp.closes()))?
        .store(&mut e)?;

    // The trace home's monitor families.
    rrr_store::to_payload(&views[HOME].trace)?.store(&mut e)?;
    rrr_store::to_payload(&views[HOME].ixp)?.store(&mut e)?;

    // Merged calibrator (coordinator RNG inside).
    cal_bytes.to_vec().store(&mut e)?;

    // Disjoint per-traceroute maps, canonically ordered by id.
    let mut potential: BTreeMap<TracerouteId, Vec<u8>> = BTreeMap::new();
    let mut active: BTreeMap<TracerouteId, Vec<u8>> = BTreeMap::new();
    for p in &views {
        for (id, keys) in &p.potential {
            let prev = potential.insert(*id, rrr_store::to_payload(keys)?);
            assert!(prev.is_none(), "potential[{id:?}] owned by two partitions");
        }
        for (id, per) in &p.active {
            let prev = active.insert(*id, rrr_store::to_payload(per)?);
            assert!(prev.is_none(), "active[{id:?}] owned by two partitions");
        }
    }
    potential.store(&mut e)?;
    active.store(&mut e)?;

    equal_bytes(&views, "window cursor", |p| rrr_store::to_payload(&p.next_bgp_window))?
        .store(&mut e)?;

    // Merged signal log.
    e.len(log.len())?;
    for s in log {
        s.store(&mut e)?;
    }
    Ok(payload)
}

/// Canonical state bytes of one unpartitioned detector — the reference
/// side of the partition-invariance oracle. Materializes parked groups
/// (park normalization), so call at a comparison point, not mid-benchmark.
pub fn canonical_bytes_single(det: &mut StalenessDetector) -> Result<Vec<u8>, StoreError> {
    let cal_bytes = rrr_store::to_payload(&det.cal)?;
    let log = det.log.clone();
    canonical_state_bytes(std::slice::from_mut(det), &cal_bytes, &log)
}

/// Coordinator-level metric handles shared by [`PartitionedDetector`] and
/// [`PartitionedDurable`] (all no-ops by default). Covers the routing and
/// merge layer: keyed updates routed per partition, public traceroutes
/// delivered to the trace home, and step/merge timings. Per-partition
/// detector metrics are installed separately with a `part="k"` label.
#[derive(Default)]
struct PartObs {
    steps: Counter,
    updates: Counter,
    /// Keyed-update counters per partition; empty when disabled (callers
    /// zip against it, so absence is a no-op).
    routed: Vec<Counter>,
    /// Public traceroutes delivered to the trace home — each once, so it
    /// counts the public stream (the name predates the trace home, when
    /// every partition received the stream).
    home_public: Counter,
    merged_signals: Counter,
    step_ns: Histogram,
    merge_ns: Histogram,
}

impl PartObs {
    fn new(m: &Metrics, n: usize) -> PartObs {
        PartObs {
            steps: m.counter("rrr_partition_steps_total"),
            updates: m.counter("rrr_partition_updates_total"),
            routed: (0..n)
                .map(|k| m.counter(&format!("rrr_partition_routed_updates_total{{part=\"{k}\"}}")))
                .collect(),
            home_public: m.counter("rrr_partition_broadcast_public_total"),
            merged_signals: m.counter("rrr_partition_merged_signals_total"),
            step_ns: m.histogram("rrr_partition_step_ns"),
            merge_ns: m.histogram("rrr_partition_merge_ns"),
        }
    }

    fn observe_route(&self, buckets: &[Vec<BgpUpdate>], public_len: usize) {
        self.steps.inc();
        self.home_public.add(public_len as u64);
        for (c, b) in self.routed.iter().zip(buckets) {
            c.add(b.len() as u64);
            self.updates.add(b.len() as u64);
        }
    }
}

/// Checks a set of partitions against the routing map and makes partition
/// 0 the trace home: every other partition's trace and IXP state is
/// dropped. Partitions must be fresh, or come from
/// [`PartitionedDetector::into_parts`].
fn home_partitions(parts: &mut [StalenessDetector], map: &PartitionMap) {
    assert!(!parts.is_empty(), "at least one partition");
    assert_eq!(parts.len(), map.len(), "partition count must match the routing map");
    let fp = cfg_fingerprint(&parts[HOME].cfg).expect("config fingerprint");
    for p in &mut parts[1..] {
        let pfp = cfg_fingerprint(&p.cfg).expect("config fingerprint");
        assert!(pfp == fp, "partition configurations diverge");
        p.drop_trace_state();
    }
}

/// N cooperating detector partitions behind a single-detector facade.
///
/// Construction requires every partition to be built over the *same*
/// environment (topology, IP-to-AS map, geolocation, aliases, vantage
/// points) and configuration; the facade then routes keyed input, feeds
/// the public stream to the trace home, routes the home's output to the
/// owners, and merges outputs deterministically (see the module docs for
/// the exact equivalence argument).
pub struct PartitionedDetector {
    parts: Vec<StalenessDetector>,
    map: PartitionMap,
    /// Coordinator planning stream — seeded exactly like each partition's
    /// (never-drawn) calibrator RNG, advanced only by `plan_refresh`.
    plan_rng: StdRng,
    /// The merged signal log (what a single instance's log would hold).
    log: Vec<StalenessSignal>,
    /// Run partition steps on scoped worker threads.
    parallel: bool,
    /// Coordinator metric handles (no-ops unless `set_metrics` installed).
    obs: PartObs,
}

impl PartitionedDetector {
    /// Wraps pre-built partitions (fresh, or from
    /// [`PartitionedDetector::into_parts`]); partition 0 becomes the trace
    /// home. Panics if the partition count does not match the map or the
    /// configs diverge.
    pub fn new(mut parts: Vec<StalenessDetector>, map: PartitionMap) -> Self {
        home_partitions(&mut parts, &map);
        let plan_rng = StdRng::seed_from_u64(parts[HOME].cfg.seed);
        PartitionedDetector {
            plan_rng,
            map,
            log: Vec::new(),
            parallel: parts.len() > 1,
            obs: PartObs::default(),
            parts,
        }
    }

    /// Installs coordinator metric handles plus per-partition detector
    /// metrics labeled `part="k"`, all on one shared registry. Purely
    /// observational: the merged output is bit-identical with metrics on
    /// or off.
    pub fn set_metrics(&mut self, metrics: &Metrics) {
        for (k, p) in self.parts.iter_mut().enumerate() {
            p.set_metrics_labeled(metrics, &format!("part=\"{k}\""));
        }
        self.obs = PartObs::new(metrics, self.map.len());
    }

    /// Builds `map.len()` partitions from a per-index factory (each call
    /// must produce an identically configured detector over the same
    /// environment).
    pub fn from_factory(
        map: PartitionMap,
        mut make: impl FnMut(usize) -> StalenessDetector,
    ) -> Self {
        let parts = (0..map.len()).map(&mut make).collect();
        PartitionedDetector::new(parts, map)
    }

    pub fn partition_map(&self) -> &PartitionMap {
        &self.map
    }

    pub fn partitions(&self) -> &[StalenessDetector] {
        &self.parts
    }

    /// Dissolves the facade into its partitions and routing map (e.g. to
    /// wrap each partition in a [`DurableDetector`] via
    /// [`PartitionedDurable::create`]). The coordinator planning stream
    /// restarts from the seed, so convert before any `plan_refresh`.
    pub fn into_parts(self) -> (Vec<StalenessDetector>, PartitionMap) {
        (self.parts, self.map)
    }

    /// The merged signal log — bit-identical to a single instance's.
    pub fn signal_log(&self) -> &[StalenessSignal] {
        &self.log
    }

    pub fn closed_bgp_windows(&self) -> u64 {
        self.parts[0].closed_bgp_windows()
    }

    /// Toggles partition-parallel stepping (scoped threads, one per
    /// partition). The merged output is identical at any setting.
    pub fn set_parallel(&mut self, parallel: bool) {
        self.parallel = parallel;
    }

    /// Overrides the per-window worker count inside every partition.
    pub fn set_threads(&mut self, threads: usize) {
        for p in &mut self.parts {
            p.set_threads(threads);
        }
    }

    /// Routes a RIB table dump by prefix.
    pub fn init_rib(&mut self, rib: &[BgpUpdate]) {
        let buckets = route_updates(&self.map, rib);
        for (p, bucket) in self.parts.iter_mut().zip(&buckets) {
            p.init_rib(bucket);
        }
    }

    /// Feeds pre-t0 public traceroutes to the trace home (IXP membership
    /// bootstrap).
    pub fn bootstrap_public(&mut self, traces: &[Traceroute]) {
        self.parts[HOME].bootstrap_public(traces);
    }

    /// Inserts a traceroute into the owning partition's corpus and its
    /// trace monitors into the trace home.
    pub fn add_corpus(&mut self, tr: Traceroute, src_asn: Option<Asn>) -> Option<TracerouteId> {
        add_corpus_impl(&mut self.parts, &self.map, tr, src_asn)
    }

    /// Removes a traceroute from its owner and the trace home's monitors.
    pub fn remove_corpus(&mut self, id: TracerouteId) {
        remove_corpus_impl(&mut self.parts, id);
    }

    /// Looks up a corpus entry in whichever partition owns it.
    pub fn corpus_get(&self, id: TracerouteId) -> Option<&crate::corpus::CorpusEntry> {
        self.parts.iter().find_map(|p| p.corpus.get(id))
    }

    /// Total corpus entries across partitions.
    pub fn corpus_len(&self) -> usize {
        self.parts.iter().map(|p| p.corpus.len()).sum()
    }

    /// Advances every partition to `now` — keyed BGP input routed, the
    /// public stream to the trace home, the home's output routed to the
    /// owners — and returns the merged single-instance batch.
    pub fn step(
        &mut self,
        now: Timestamp,
        bgp_updates: &[BgpUpdate],
        public: &[Traceroute],
    ) -> Vec<StalenessSignal> {
        let merged = step_parts(
            &mut self.parts,
            &self.map,
            &self.obs,
            self.parallel,
            now,
            bgp_updates,
            public,
        )
        .expect("in-memory partitions commit infallibly");
        self.log.extend(merged.iter().cloned());
        merged
    }

    /// Plans refreshes from the partitions' calibration state read in
    /// place, drawing the coordinator's random stream — the exact plan (and
    /// stream position) a single instance produces.
    pub fn plan_refresh(&mut self, budget: usize) -> RefreshPlan {
        merged_plan(&self.parts, &mut self.plan_rng, budget)
    }

    /// Applies a refresh measurement (verify in the owner, replace
    /// wherever the new destination routes).
    pub fn apply_refresh(
        &mut self,
        old_id: TracerouteId,
        new_tr: Traceroute,
        src_asn: Option<Asn>,
    ) -> (Option<TracerouteId>, bool) {
        apply_refresh_impl(&mut self.parts, &self.map, old_id, new_tr, src_asn)
    }

    /// An epoch-stamped merged snapshot answering the [`crate::query::Query`]
    /// trait over the whole corpus — entry, index, and assertion unions,
    /// monitor stats from the trace home, and the merged calibrator under
    /// a *copy* of the coordinator RNG (snapshot plans are repeatable and
    /// never advance the live stream).
    pub fn snapshot(&self) -> DetectorSnapshot {
        let refs: Vec<&StalenessDetector> = self.parts.iter().collect();
        let cal = merged_calibrator_with(&self.parts, &self.plan_rng);
        crate::query::merged_snapshot(&refs, cal, self.log.len())
    }

    /// Per-partition invariants plus the cross-partition ones: exclusive
    /// ownership and routing agreement.
    pub fn validate(&self) -> Result<(), rrr_types::Error> {
        let mut seen = HashSet::new();
        for (k, p) in self.parts.iter().enumerate() {
            p.validate()?;
            for en in p.corpus.entries() {
                if !seen.insert(en.id) {
                    return Err(rrr_types::Error::invariant(
                        "partition",
                        format!("corpus entry {:?} owned by two partitions", en.id),
                    ));
                }
                let base = en.dst_prefix.map(|pf| pf.network()).unwrap_or(en.traceroute.dst);
                if self.map.of_addr(base) != k {
                    return Err(rrr_types::Error::invariant(
                        "partition",
                        format!("corpus entry {:?} misrouted to partition {k}", en.id),
                    ));
                }
            }
        }
        Ok(())
    }

    /// Canonical (park-normalized) semantic state bytes — byte-identical
    /// to [`canonical_bytes_single`] over an unpartitioned detector that
    /// consumed the same streams.
    pub fn canonical_bytes(&mut self) -> Result<Vec<u8>, StoreError> {
        let cal_bytes =
            rrr_store::to_payload(&merged_calibrator_with(&self.parts, &self.plan_rng))?;
        canonical_state_bytes(&mut self.parts, &cal_bytes, &self.log)
    }
}

/// File name of the persisted routing table within a partitioned durable
/// root directory.
const PARTITION_MAP_FILE: &str = "partition_map.rrr";
/// File name of the persisted coordinator state (planning RNG + merged
/// signal log).
const COORDINATOR_FILE: &str = "coordinator.rrr";

fn part_dir(dir: &Path, k: usize) -> PathBuf {
    dir.join(format!("part-{k:03}"))
}

/// A [`PartitionedDetector`] where every partition runs inside its own
/// [`DurableDetector`] — private WAL and full/delta checkpoint chain under
/// `part-NNN/` — so one partition can crash and recover by replay while
/// the rest keep running. Each WAL record carries the partition's routed
/// inputs (the public stream only in the trace home's) and the forwarded
/// batch it applied.
///
/// Coordinator state (planning RNG, merged log) persists in
/// `coordinator.rrr`, written at creation, after every plan, and on
/// [`PartitionedDurable::cut_checkpoints`]. The routing table persists in
/// `partition_map.rrr`, stamped with the detector-config fingerprint so a
/// restore under different semantics fails loudly.
pub struct PartitionedDurable {
    parts: Vec<DurableDetector>,
    map: PartitionMap,
    plan_rng: StdRng,
    log: Vec<StalenessSignal>,
    dir: PathBuf,
    dur_cfg: DurableConfig,
    /// Coordinator metric handles plus the registry they came from, kept so
    /// `reopen_partition` can re-install metrics on the replacement.
    obs: PartObs,
    metrics: Metrics,
}

impl PartitionedDurable {
    /// Wraps freshly built partitions (partition 0 becomes the trace
    /// home), cutting each one's initial checkpoint under `dir/part-NNN/`
    /// and persisting the routing table and coordinator state.
    pub fn create(
        mut parts: Vec<StalenessDetector>,
        map: PartitionMap,
        dir: impl Into<PathBuf>,
        dur_cfg: DurableConfig,
    ) -> Result<Self, StoreError> {
        home_partitions(&mut parts, &map);
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        let fp = cfg_fingerprint(&parts[HOME].cfg)?;
        let seed = parts[HOME].cfg.seed;
        std::fs::write(dir.join(PARTITION_MAP_FILE), rrr_store::to_payload(&(map.clone(), fp))?)?;
        let mut durable_parts = Vec::with_capacity(parts.len());
        for (k, det) in parts.into_iter().enumerate() {
            durable_parts.push(DurableDetector::create(det, part_dir(&dir, k), dur_cfg.clone())?);
        }
        let durable = PartitionedDurable {
            parts: durable_parts,
            map,
            plan_rng: StdRng::seed_from_u64(seed),
            log: Vec::new(),
            dir,
            dur_cfg,
            obs: PartObs::default(),
            metrics: Metrics::disabled(),
        };
        durable.sync_coordinator()?;
        Ok(durable)
    }

    /// Reopens a partitioned durable root: loads the routing table
    /// (checking its config fingerprint), the coordinator state, and every
    /// partition (each replaying its own delta chain and WAL). The
    /// environment is input data, supplied per partition by `env`.
    pub fn open(
        dir: impl Into<PathBuf>,
        mut env: impl FnMut(usize) -> (Arc<Topology>, IpToAsMap, Geolocator, AliasResolver),
        det_cfg: DetectorConfig,
        dur_cfg: DurableConfig,
    ) -> Result<Self, StoreError> {
        let dir = dir.into();
        let (map, fp): (PartitionMap, Vec<u8>) =
            rrr_store::from_payload(&std::fs::read(dir.join(PARTITION_MAP_FILE))?)?;
        if fp != cfg_fingerprint(&det_cfg)? {
            return Err(StoreError::ConfigMismatch { what: "partition map fingerprint" });
        }
        let (rng_state, log): ([u64; 4], Vec<StalenessSignal>) =
            rrr_store::from_payload(&std::fs::read(dir.join(COORDINATOR_FILE))?)?;
        let mut parts = Vec::with_capacity(map.len());
        for k in 0..map.len() {
            let (topo, ip2as, geo, alias) = env(k);
            parts.push(DurableDetector::open(
                part_dir(&dir, k),
                topo,
                ip2as,
                geo,
                alias,
                det_cfg.clone(),
                dur_cfg.clone(),
            )?);
        }
        Ok(PartitionedDurable {
            parts,
            map,
            plan_rng: StdRng::from_state(rng_state),
            log,
            dir,
            dur_cfg,
            obs: PartObs::default(),
            metrics: Metrics::disabled(),
        })
    }

    /// Installs coordinator metric handles plus per-partition durable and
    /// detector metrics labeled `part="k"`, all on one shared registry.
    pub fn set_metrics(&mut self, metrics: &Metrics) {
        self.metrics = metrics.clone();
        for (k, p) in self.parts.iter_mut().enumerate() {
            p.set_metrics_labeled(metrics, &format!("part=\"{k}\""));
        }
        self.obs = PartObs::new(metrics, self.map.len());
    }

    /// Recovers a single crashed partition from its own files — delta
    /// chain plus WAL replay, forwarded batches included — while the
    /// coordinator and every other partition keep their live state. This
    /// is the mid-window single-partition crash path the
    /// partition-invariance oracle exercises.
    pub fn reopen_partition(
        &mut self,
        k: usize,
        topo: Arc<Topology>,
        ip2as: IpToAsMap,
        geo: Geolocator,
        alias: AliasResolver,
        det_cfg: DetectorConfig,
    ) -> Result<(), StoreError> {
        // The WAL flushes per append, so the crashed instance's log is
        // complete on disk; the replacement replays it and the old handle
        // (dropped by the assignment) never writes again.
        self.parts[k] = DurableDetector::open(
            part_dir(&self.dir, k),
            topo,
            ip2as,
            geo,
            alias,
            det_cfg,
            self.dur_cfg.clone(),
        )?;
        if self.metrics.is_enabled() {
            self.parts[k].set_metrics_labeled(&self.metrics, &format!("part=\"{k}\""));
        }
        Ok(())
    }

    pub fn partition_map(&self) -> &PartitionMap {
        &self.map
    }

    pub fn partitions(&self) -> usize {
        self.parts.len()
    }

    pub fn detector(&self, k: usize) -> &StalenessDetector {
        self.parts[k].detector()
    }

    /// Looks up a corpus entry in whichever partition owns it.
    pub fn corpus_get(&self, id: TracerouteId) -> Option<&crate::corpus::CorpusEntry> {
        self.parts.iter().find_map(|p| p.detector().corpus.get(id))
    }

    /// The partition owning a corpus entry, if any.
    pub fn owner_of(&self, id: TracerouteId) -> Option<usize> {
        owner_index(&self.parts, id)
    }

    /// The merged signal log (coordinator state; survives restarts).
    pub fn signal_log(&self) -> &[StalenessSignal] {
        &self.log
    }

    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// On-disk footprint of one partition's durable directory (checkpoint
    /// chain + WAL), in bytes.
    pub fn bytes_on_disk(&self, k: usize) -> Result<u64, StoreError> {
        let mut total = 0;
        for entry in std::fs::read_dir(part_dir(&self.dir, k))? {
            total += entry?.metadata()?.len();
        }
        Ok(total)
    }

    /// Persists the coordinator state (planning RNG + merged log).
    fn sync_coordinator(&self) -> Result<(), StoreError> {
        let payload = rrr_store::to_payload(&(self.plan_rng.state(), self.log.clone()))?;
        let tmp = self.dir.join("coordinator.rrr.tmp");
        std::fs::write(&tmp, payload)?;
        std::fs::rename(&tmp, self.dir.join(COORDINATOR_FILE))?;
        Ok(())
    }

    /// Routes a RIB table dump by prefix. Not WAL-logged (like corpus
    /// mutations): call before the first step or cut checkpoints after.
    pub fn init_rib(&mut self, rib: &[BgpUpdate]) {
        let buckets = route_updates(&self.map, rib);
        for (p, bucket) in self.parts.iter_mut().zip(&buckets) {
            p.detector_mut().init_rib(bucket);
        }
    }

    /// Feeds pre-t0 public traceroutes to the trace home. Not WAL-logged;
    /// see [`PartitionedDurable::init_rib`].
    pub fn bootstrap_public(&mut self, traces: &[Traceroute]) {
        self.parts[HOME].detector_mut().bootstrap_public(traces);
    }

    /// Inserts a corpus traceroute (owner + trace-home registration). Not
    /// WAL-logged; cut checkpoints after corpus maintenance.
    pub fn add_corpus(&mut self, tr: Traceroute, src_asn: Option<Asn>) -> Option<TracerouteId> {
        add_corpus_impl(&mut self.parts, &self.map, tr, src_asn)
    }

    /// Removes a corpus traceroute everywhere. Not WAL-logged; cut
    /// checkpoints after corpus maintenance.
    pub fn remove_corpus(&mut self, id: TracerouteId) {
        remove_corpus_impl(&mut self.parts, id);
    }

    /// Advances every partition (each WAL-logs its routed inputs and
    /// forwarded batch before applying them, and cuts its own checkpoints
    /// on the window cadence, which all partitions share) and merges the
    /// batches.
    pub fn step(
        &mut self,
        now: Timestamp,
        bgp_updates: &[BgpUpdate],
        public: &[Traceroute],
    ) -> Result<Vec<StalenessSignal>, StoreError> {
        let merged =
            step_parts(&mut self.parts, &self.map, &self.obs, false, now, bgp_updates, public)?;
        self.log.extend(merged.iter().cloned());
        Ok(merged)
    }

    /// Merged refresh planning (see [`PartitionedDetector::plan_refresh`]);
    /// persists the advanced coordinator stream so a restart continues it.
    pub fn plan_refresh(&mut self, budget: usize) -> Result<RefreshPlan, StoreError> {
        let plan = merged_plan(&self.parts, &mut self.plan_rng, budget);
        self.sync_coordinator()?;
        Ok(plan)
    }

    /// Applies a refresh measurement. Not WAL-logged; cut checkpoints
    /// after refresh cycles (see [`DurableDetector::detector_mut`]).
    pub fn apply_refresh(
        &mut self,
        old_id: TracerouteId,
        new_tr: Traceroute,
        src_asn: Option<Asn>,
    ) -> (Option<TracerouteId>, bool) {
        apply_refresh_impl(&mut self.parts, &self.map, old_id, new_tr, src_asn)
    }

    /// Cuts a checkpoint in every partition and persists the coordinator
    /// state — the durable equivalent of a consistent cross-partition cut
    /// (all partitions sit at the same closed-window count between steps).
    pub fn cut_checkpoints(&mut self) -> Result<(), StoreError> {
        for p in &mut self.parts {
            p.cut_checkpoint()?;
        }
        self.sync_coordinator()
    }

    /// An epoch-stamped merged snapshot (see
    /// [`PartitionedDetector::snapshot`]).
    pub fn snapshot(&self) -> DetectorSnapshot {
        let refs: Vec<&StalenessDetector> = self.parts.iter().map(|p| p.detector()).collect();
        let cal = merged_calibrator_with(&self.parts, &self.plan_rng);
        crate::query::merged_snapshot(&refs, cal, self.log.len())
    }

    /// Canonical semantic state bytes (see
    /// [`PartitionedDetector::canonical_bytes`]).
    pub fn canonical_bytes(&mut self) -> Result<Vec<u8>, StoreError> {
        let cal_bytes =
            rrr_store::to_payload(&merged_calibrator_with(&self.parts, &self.plan_rng))?;
        canonical_state_bytes(&mut self.parts, &cal_bytes, &self.log)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn even_map_is_total_and_balanced() {
        for n in [1usize, 2, 3, 4, 8, 16] {
            let map = PartitionMap::even(n);
            assert_eq!(map.len(), n);
            // Totality at the boundaries and interior points.
            assert_eq!(map.of_addr(Ipv4::new(0, 0, 0, 0)), 0);
            assert_eq!(map.of_addr(Ipv4::new(255, 255, 255, 255)), n - 1);
            for k in 0..n {
                let (start, _) = map.range(k);
                assert_eq!(map.of_addr(Ipv4(start)), k);
            }
        }
    }

    #[test]
    fn split_points_validated() {
        assert!(PartitionMap::from_splits(vec![10, 20, 30]).is_ok());
        assert!(PartitionMap::from_splits(vec![0, 20]).is_err(), "zero split");
        assert!(PartitionMap::from_splits(vec![20, 20]).is_err(), "duplicate split");
        assert!(PartitionMap::from_splits(vec![30, 20]).is_err(), "descending");
    }

    #[test]
    fn map_round_trips_and_fingerprint_is_stable() {
        let map = PartitionMap::even(8);
        let bytes = rrr_store::to_payload(&map).expect("encode");
        let back: PartitionMap = rrr_store::from_payload(&bytes).expect("decode");
        assert_eq!(back, map);
        assert_eq!(back.fingerprint().expect("fp"), map.fingerprint().expect("fp"));
        // Routing is identical through the round trip.
        for v in [0u32, 1, 1 << 29, 1 << 31, u32::MAX] {
            assert_eq!(back.of_addr(Ipv4(v)), map.of_addr(Ipv4(v)));
        }
    }

    #[test]
    fn prefix_routes_by_base_address() {
        let map = PartitionMap::even(4);
        let p: Prefix = "192.0.0.0/8".parse().expect("prefix");
        assert_eq!(map.of_prefix(p), map.of_addr(Ipv4::new(192, 0, 0, 0)));
    }
}
