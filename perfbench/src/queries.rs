//! The query load: a fixed mix drawn from a seed, timed from each query's
//! scheduled send time and verified against reference snapshots — sent
//! open loop over one TCP connection, or answered in process and queued at
//! the same schedule in virtual time.

use crate::meter::Meter;
use crate::spans::Tracer;
use crate::util::{median, quantile, sleep_until, trim_heap};
use rrr_core::DetectorSnapshot;
use rrr_serve::wire::{decode_response, encode_request, encode_response};
use rrr_serve::{answer, ServeHandle, StalenessQuery, TcpServer};
use rrr_types::{Asn, Prefix, TracerouteId};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Budget of the refresh-plan queries in the mix.
pub const PLAN_BUDGET: usize = 64;

/// What the mix draws its arguments from.
pub struct QueryPool {
    pub ids: Vec<TracerouteId>,
    pub prefixes: Vec<Prefix>,
    pub asns: Vec<Asn>,
}

impl QueryPool {
    pub fn of_snapshot(snap: &DetectorSnapshot) -> QueryPool {
        QueryPool {
            ids: snap.ids(),
            prefixes: snap.prefixes().collect(),
            asns: snap.asns().collect(),
        }
    }
}

/// The query types of the mix, with their shares in percent.
pub const MIX: [(&str, u64); 5] = [
    ("is_stale", 70),
    ("prefix_summary", 10),
    ("as_summary", 10),
    ("corpus_summary", 5),
    ("refresh_plan", 5),
];

/// One cycle of the mix: the shares above, interleaved so that the costly
/// plan queries are evenly spaced and the queueing they cause does not
/// depend on how a seed happened to cluster them.
const CYCLE: [u8; 20] = [0, 0, 1, 0, 2, 0, 0, 3, 0, 0, 4, 0, 0, 1, 0, 2, 0, 0, 0, 0];

pub fn kind_of(q: &StalenessQuery) -> &'static str {
    match q {
        StalenessQuery::IsStale(_) => "is_stale",
        StalenessQuery::PrefixSummary(_) => "prefix_summary",
        StalenessQuery::AsSummary(_) => "as_summary",
        StalenessQuery::CorpusSummary => "corpus_summary",
        StalenessQuery::RefreshPlan { .. } => "refresh_plan",
        StalenessQuery::MonitorStats => "monitor_stats",
        StalenessQuery::Metrics => "metrics",
    }
}

fn mix64(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// `count` queries of the fixed mix; the arguments (which traceroute,
/// prefix or AS) are drawn from `seed`.
pub fn draw(pool: &QueryPool, count: usize, seed: u64) -> Vec<StalenessQuery> {
    let pick =
        |k: u64, len: usize| (mix64(seed ^ k.wrapping_mul(0x9e37_79b9)) % len as u64) as usize;
    (0..count as u64)
        .map(|k| match CYCLE[k as usize % CYCLE.len()] {
            0 if !pool.ids.is_empty() => StalenessQuery::IsStale(pool.ids[pick(k, pool.ids.len())]),
            1 if !pool.prefixes.is_empty() => {
                StalenessQuery::PrefixSummary(pool.prefixes[pick(k, pool.prefixes.len())])
            }
            2 if !pool.asns.is_empty() => {
                StalenessQuery::AsSummary(pool.asns[pick(k, pool.asns.len())])
            }
            4 => StalenessQuery::RefreshPlan { budget: PLAN_BUDGET },
            _ => StalenessQuery::CorpusSummary,
        })
        .collect()
}

/// One open-loop query run: per-query latency from the scheduled send time,
/// how late the generator sent, and the raw response lines.
pub struct OpenLoopRun {
    pub queries: Vec<StalenessQuery>,
    /// Microseconds from scheduled send to response, per answered query.
    pub latency_us: Vec<f64>,
    /// Milliseconds the sender ran behind schedule, per query.
    pub lateness_ms: Vec<f64>,
    /// Response lines in query order (fewer than `queries` when some went
    /// unanswered).
    pub responses: Vec<String>,
}

/// Send offsets of `count` queries at a mean `rate` per second, each gap
/// drawn uniformly from half to one and a half of the mean. The server
/// holds a response until the client's next segment acknowledges it, so a
/// strictly periodic schedule would round every latency up to the next
/// send slot; the jitter keeps the distribution continuous. The draw uses
/// a fixed seed: every run sends on the same schedule.
pub fn schedule(count: usize, rate: f64) -> Vec<Duration> {
    let mut at = 0.0;
    (0..count as u64)
        .map(|k| {
            let offset = Duration::from_secs_f64(at);
            let u = (mix64(0x5c4e_d01e ^ k) >> 11) as f64 / (1u64 << 53) as f64;
            at += (0.5 + u) / rate;
            offset
        })
        .collect()
}

/// Sends `queries[k]` at `start + offsets[k]` over one connection to
/// `server`; a second thread reads the responses. Waits up to `grace`
/// past the last scheduled send for the remaining answers.
pub fn open_loop(
    server: &TcpServer,
    queries: Vec<StalenessQuery>,
    offsets: &[Duration],
    start: Instant,
    grace: Duration,
) -> Result<OpenLoopRun, String> {
    assert_eq!(queries.len(), offsets.len(), "one send time per query");
    let stream = TcpStream::connect(server.addr()).map_err(|e| format!("connect: {e}"))?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    let mut writer = stream.try_clone().map_err(|e| e.to_string())?;
    let offsets = offsets.to_vec();
    let due = move |k: usize| start + offsets[k];
    let last_due = queries.len().checked_sub(1).map_or(start, &due);
    let lines: Vec<String> = queries.iter().map(|q| encode_request(q) + "\n").collect();
    let n = queries.len();

    let send_due = due.clone();
    let sender = std::thread::Builder::new()
        .name("perfbench-query-send".into())
        .spawn(move || -> Result<Vec<f64>, String> {
            let mut lateness = Vec::with_capacity(lines.len());
            for (k, line) in lines.iter().enumerate() {
                let d = send_due(k);
                sleep_until(d);
                lateness.push(Instant::now().saturating_duration_since(d).as_secs_f64() * 1e3);
                writer.write_all(line.as_bytes()).map_err(|e| format!("send: {e}"))?;
            }
            Ok(lateness)
        })
        .map_err(|e| e.to_string())?;

    stream.set_read_timeout(Some(Duration::from_millis(50))).map_err(|e| e.to_string())?;
    let mut reader = BufReader::new(stream);
    let mut received: Vec<(Instant, String)> = Vec::with_capacity(n);
    let mut line = String::new();
    let deadline = last_due + grace;
    while received.len() < n && Instant::now() < deadline {
        match reader.read_line(&mut line) {
            Ok(0) => break,
            Ok(_) if line.ends_with('\n') => {
                received.push((Instant::now(), line.trim_end().to_string()));
                line.clear();
            }
            // A read timeout can split a line; keep what arrived.
            Ok(_) => {}
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) => {}
            Err(e) => return Err(format!("receive: {e}")),
        }
    }
    let lateness_ms = sender.join().map_err(|_| "query sender panicked".to_string())??;
    let latency_us = received
        .iter()
        .enumerate()
        .map(|(k, (at, _))| at.saturating_duration_since(due(k)).as_secs_f64() * 1e6)
        .collect();
    let responses = received.into_iter().map(|(_, l)| l).collect();
    Ok(OpenLoopRun { queries, latency_us, lateness_ms, responses })
}

impl OpenLoopRun {
    /// Checks every answer against the reference snapshot of the epoch it
    /// is stamped with. Returns the number of failed (error or missing)
    /// queries; a wrong answer is an error, not a failure.
    pub fn verify(
        &self,
        reference_at: impl Fn(u64) -> Option<Arc<DetectorSnapshot>>,
    ) -> Result<usize, String> {
        let mut failed = self.queries.len() - self.responses.len();
        let mut last_epoch = 0;
        for (q, line) in self.queries.iter().zip(&self.responses) {
            let resp = match decode_response(line) {
                Ok(r) => r,
                Err(_) => {
                    failed += 1;
                    continue;
                }
            };
            if resp.epoch < last_epoch {
                return Err(format!("epoch went backwards: {last_epoch} then {}", resp.epoch));
            }
            last_epoch = resp.epoch;
            let snap = reference_at(resp.epoch)
                .ok_or_else(|| format!("answer stamped with unknown epoch {}", resp.epoch))?;
            let want = encode_response(&answer(&*snap, q));
            if *line != want {
                return Err(format!(
                    "{} answer at epoch {} differs from the reference:\n got {line}\nwant {want}",
                    kind_of(q),
                    resp.epoch
                ));
            }
        }
        Ok(failed)
    }
}

/// Queries between calibration samples in [`serve_in_process`].
const QUERY_CHUNK: usize = 100;

/// Answers timed per query (at least): the fastest is its service time.
/// A cheap answer is repeated until [`ANSWER_MIN_S`] have been spent on it.
const ANSWER_REPEATS: usize = 3;
const ANSWER_MIN_S: f64 = 20e-6;

/// The reference answer to each query, as the wire encodes it.
pub fn reference_lines(reference: &DetectorSnapshot, queries: &[StalenessQuery]) -> Vec<String> {
    queries.iter().map(|q| encode_response(&answer(reference, q))).collect()
}

/// The query load answered in process on this thread from `snap` (answer
/// and wire encoding, as the server thread does). Each query is timed as
/// its fastest answer on the wall clock over at least [`ANSWER_REPEATS`],
/// which leaves out most interruptions. Every answer must equal its line in
/// `want` ([`reference_lines`]) byte for byte. Returns each query's
/// service time in seconds; the caller queues them at the send schedule
/// ([`single_server`]).
pub fn serve_in_process(
    meter: &mut Meter,
    snap: &DetectorSnapshot,
    queries: &[StalenessQuery],
    want: &[String],
) -> Result<Vec<f64>, String> {
    let mut service = Vec::with_capacity(queries.len());
    trim_heap();
    for (k, (q, want)) in queries.iter().zip(want).enumerate() {
        let (mut best, mut spent, mut n) = (f64::INFINITY, 0.0, 0);
        let mut line = String::new();
        while n < ANSWER_REPEATS || spent < ANSWER_MIN_S {
            let t = Instant::now();
            line = encode_response(&answer(snap, q));
            let took = t.elapsed().as_secs_f64();
            best = best.min(took);
            spent += took;
            n += 1;
        }
        if line != *want {
            return Err(format!(
                "{} answer differs from the reference:\n got {line}\nwant {want}",
                kind_of(q)
            ));
        }
        service.push(best);
        if (k + 1).is_multiple_of(QUERY_CHUNK) {
            meter.tick();
        }
    }
    Ok(service)
}

/// Time in system of each job at one first-come first-served server:
/// arrivals (seconds, non-decreasing) and service times in, each job's
/// wait plus service out (Lindley's recursion).
pub fn single_server(arrivals: impl Iterator<Item = f64>, service: &[f64]) -> Vec<f64> {
    let mut free_at = f64::NEG_INFINITY;
    arrivals
        .zip(service)
        .map(|(arrive, s)| {
            let done = arrive.max(free_at) + s;
            free_at = done;
            done - arrive
        })
        .collect()
}

/// In-process latencies (µs) per query type.
pub type PerKind = Vec<(&'static str, Vec<f64>)>;

/// Query-layer timing for the traced run: each query answered in process
/// through `ServeHandle::query`, and the first `wire` of them also as a
/// closed-loop TCP round trip. Returns per-type in-process latencies (µs)
/// and the median wire overhead (round trip minus in-process answer, µs).
pub fn trace_query_layer(
    tracer: &mut Tracer,
    handle: &ServeHandle,
    server: &TcpServer,
    queries: &[StalenessQuery],
    wire: usize,
) -> Result<(PerKind, f64), String> {
    let stream = TcpStream::connect(server.addr()).map_err(|e| format!("connect: {e}"))?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    let mut writer = stream.try_clone().map_err(|e| e.to_string())?;
    let mut reader = BufReader::new(stream);
    let mut per_kind: PerKind = MIX.iter().map(|(k, _)| (*k, Vec::new())).collect();
    let mut overhead = Vec::with_capacity(queries.len());
    let mut line = String::new();
    for (k, q) in queries.iter().enumerate() {
        let w = k as u64;
        let t0 = Instant::now();
        let resp = tracer.time("serve.query", w, || handle.query(q));
        let inproc = t0.elapsed().as_secs_f64() * 1e6;
        std::hint::black_box(resp);
        if let Some((_, v)) = per_kind.iter_mut().find(|(name, _)| *name == kind_of(q)) {
            v.push(inproc);
        }
        if k >= wire {
            continue;
        }
        let request = encode_request(q) + "\n";
        line.clear();
        let t1 = Instant::now();
        tracer
            .time("serve.wire", w, || {
                writer.write_all(request.as_bytes()).and_then(|()| reader.read_line(&mut line))
            })
            .map_err(|e| format!("wire round trip: {e}"))?;
        let rtt = t1.elapsed().as_secs_f64() * 1e6;
        if decode_response(line.trim_end()).is_err() {
            return Err(format!("wire query failed: {}", line.trim_end()));
        }
        overhead.push(rtt - inproc);
    }
    Ok((per_kind, median(&overhead)))
}

/// p50 and p99 of a latency sample (0 for an empty one).
pub fn p50_p99(xs: &[f64]) -> (f64, f64) {
    if xs.is_empty() {
        (0.0, 0.0)
    } else {
        (quantile(xs, 0.5), quantile(xs, 0.99))
    }
}
