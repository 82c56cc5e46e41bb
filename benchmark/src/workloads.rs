//! The four workloads, driven over loopback HTTP against a spawned
//! `chatiyp serve`.
//!
//! | workload | loop | what it isolates |
//! |---|---|---|
//! | `cypher_hot` | closed | 59 queries ≪ result cache: the HTTP edge and serialisation |
//! | `cypher_cold` | closed | ≈4 100 queries cycled ≫ both caches: parse → compile → execute |
//! | `ask_mixed` | closed | Zipf-skewed questions: translation, retrieval, generation |
//! | `ingest_mixed` | open | durable ingest beside reads: publish, invalidation, WAL, recovery |
//!
//! Every workload repeats one fixed sequence of requests — a *pass* of a
//! closed loop, 2.5 s of `ingest_mixed` on a fresh server — and each
//! position in that sequence, a *slot*, does the same work every time it
//! comes round. A timing is therefore summarised per slot first: the
//! quartile on the good side (the first quartile of a latency) of the slot's
//! samples, one per pass. Noise on a shared box is one-sided: a neighbour's
//! burst or a withheld CPU makes a request slower, never faster, and lasts
//! from a millisecond to a few seconds, so it spoils some of a slot's
//! samples and never all; the mean or the median of a pass tracks the
//! neighbours while the good quartile per slot tracks the code. The
//! percentiles a run reports are taken over the slots' values, and `rps` is
//! the rate of a pass in which every slot took its usual time (for a slot
//! that opens its connection, the median: its wait for the acceptor's next
//! poll is spread evenly by the server itself). Passes during
//! which the hypervisor withheld the CPUs (`steal` in `/proc/stat`) are left
//! out altogether.

use crate::http::{Conn, Reply};
use crate::inputs::{self, QuestionPool};
use crate::openloop::{paced, Timing};
use crate::oracle::{self, Expect};
use crate::server::{cpu_ticks, peak_rss_mb, stolen_ticks, tick_us, CpuPlan, ScratchDir, Serve};
use crate::stats::{median, percentile, tail_supported};
use iyp_cypher::corpus::PARITY_QUERIES;
use iyp_graphdb::Graph;
use std::io;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// The workload names, in report order.
pub const WORKLOADS: [&str; 4] = ["cypher_hot", "cypher_cold", "ask_mixed", "ingest_mixed"];

/// The server closes a connection after this many requests
/// (`MAX_REQUESTS_PER_CONN`).
const CONN_CAP: usize = 100;
/// Zipf draws per `ask_mixed` pass (about 2.5 s). They touch about 1 600
/// distinct questions, more than the result cache holds (1 024), so a pass
/// replayed over and over keeps hitting on the popular questions and
/// missing on the tail.
const ASK_PASS: usize = 4_000;
/// Zipf draws of the `ask_mixed` warm-up pass.
const ASK_WARM_UP: usize = 1_000;
/// Seed of the question pool. The pool is the same for every `--seed`,
/// which picks the order and the popularity of its questions: two pools
/// differ in their mix of cheap and dear queries (server CPU per request
/// moved by 13 % across ten pools), and a run-to-run comparison would see
/// that instead of the code.
pub const POOL_SEED: u64 = 42;
/// Server boots timed per run; `setup_s` is their first quartile.
const SETUPS: usize = 5;
/// One-shot connections timed for `fresh_conn_p50_ms`.
const FRESH_PROBES: usize = 200;
/// `ingest_mixed`: ingest batches per second, and new ASes per batch.
const INGEST_RATE: u32 = 20;
const INGEST_BATCH_AS: usize = 5;
/// `ingest_mixed`: corpus reads per second. Every publish invalidates the
/// result cache and the corpus averages about a millisecond of execution
/// per query, so this keeps the server's CPU about 30 % busy: loaded, not
/// saturated. At 500/s (55 %) a machine that ran 30 % slower for a minute
/// pushed the queue to its knee and p50 went from 1.5 ms to 9 ms — the
/// workload amplified the box's noise instead of measuring the server.
const READ_RATE: u32 = 250;
/// `ingest_mixed`: after the timed window, this many times: checkpoint,
/// then this many more ingests.
const TAIL_SEGMENTS: usize = 2;
const TAIL_BATCHES: usize = 10;
/// `ingest_mixed`: batches per slice (2.5 s at [`INGEST_RATE`], in which
/// the reader sends 625 requests). Short, so that a run has many slices and
/// every slot many samples to take its quartile from.
const SLICE_BATCHES: usize = 50;
/// `ingest_mixed`: kill-and-reboot cycles; `recovery_s` is their median.
pub const RECOVERIES: usize = 3;

/// Everything a run needs to know about where and how it runs.
pub struct Env {
    /// The `chatiyp` binary under test.
    pub bin: PathBuf,
    /// `benchmark/out/`: scratch data directories and the trace file.
    pub out: PathBuf,
    /// CPU split between generator and server.
    pub plan: CpuPlan,
    /// Seed of every generated input.
    pub seed: u64,
    /// Measured seconds on the wire.
    pub seconds: f64,
}

/// One request and the body it must be answered with.
pub struct Request {
    /// Pre-framed wire bytes.
    pub bytes: Vec<u8>,
    /// The expected response body.
    pub expect: Expect,
    /// The rows the answer rests on equal the gold query's (always true
    /// where the request *is* the gold query).
    pub gold_correct: bool,
}

/// Numbers from the wire that the traced run folds into per-layer metrics.
#[derive(Debug, Clone, Default)]
pub struct WireLayer {
    /// Client mean, p50 and p95 of kept-alive requests (over the slots'
    /// usual values), ns.
    pub keepalive_mean_ns: f64,
    pub keepalive_p50_ns: f64,
    pub keepalive_p95_ns: f64,
    /// Client p99 of every kept-alive sample; 0 without ten beyond it.
    pub keepalive_p99_ns: f64,
    /// Client p50 of first-on-connection requests, ns.
    pub fresh_p50_ns: f64,
    /// Server user-mode and kernel-mode CPU per completed request, µs.
    pub user_us_per_req: f64,
    pub sys_us_per_req: f64,
    /// `/stats` counters over the measured phase.
    pub stats: Stats,
    /// `ingest_mixed`: ack latency from due time, ms.
    pub ingest_ack_p50_ms: f64,
    /// `ingest_mixed`: p95 of the same; 0 without ten acks beyond it.
    pub ingest_ack_p95_ms: f64,
    /// `ingest_mixed`: median spawn → first 200 carrying the final version.
    pub recovery_s: f64,
    /// `ingest_mixed`: WAL bytes on disk per JSON body byte sent.
    pub wal_bytes_per_body_byte: f64,
    /// `ingest_mixed`: p99 of how late the generator sent.
    pub sched_lag_p99_ms: f64,
}

/// What one wire run measured.
pub struct WireReport {
    /// Requests sent in the measured phase.
    pub attempted: u64,
    /// Requests that failed: I/O error, non-200, or oracle mismatch.
    pub failed: u64,
    /// End-to-end metrics, `BENCHMARK.json` order.
    pub e2e: Vec<(&'static str, f64)>,
    /// Per-layer inputs (traced run).
    pub layer: WireLayer,
    /// Human-readable notes: sample counts, rounds, load shape.
    pub notes: Vec<String>,
    /// Why the numbers should not be trusted, if anything.
    pub invalid: Vec<String>,
}

/// `GET /stats`: the counters the per-layer metrics are built from, and
/// the gauges the oracle checks.
#[derive(Debug, Clone, Copy, Default)]
pub struct Stats {
    /// Result-cache hits.
    pub hits: u64,
    /// Result-cache misses.
    pub misses: u64,
    /// Result-cache evictions.
    pub evictions: u64,
    /// Result-cache epoch invalidations.
    pub invalidations: u64,
    /// Plan-cache hits.
    pub plan_hits: u64,
    /// Plan-cache misses.
    pub plan_misses: u64,
    /// Connections shed with 429.
    pub shed: u64,
    graph_version: u64,
    nodes: u64,
    wal_bytes: u64,
}

impl Stats {
    fn scrape(addr: SocketAddr) -> io::Result<Stats> {
        let mut body = Vec::new();
        let reply = Conn::new(addr).send(&inputs::http_request("GET", "/stats", ""), &mut body)?;
        let v: serde_json::Value = serde_json::from_slice(&body)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        if reply.status != 200 {
            return Err(io::Error::other(format!(
                "/stats answered {}",
                reply.status
            )));
        }
        let n = |v: &serde_json::Value| v.as_u64().unwrap_or(0);
        Ok(Stats {
            hits: n(&v["cache"]["hits"]),
            misses: n(&v["cache"]["misses"]),
            evictions: n(&v["cache"]["evictions"]),
            invalidations: n(&v["cache"]["invalidations"]),
            plan_hits: n(&v["cache"]["plan"]["hits"]),
            plan_misses: n(&v["cache"]["plan"]["misses"]),
            shed: n(&v["resilience"]["shed"]),
            graph_version: n(&v["graph_version"]),
            nodes: n(&v["nodes"]),
            wal_bytes: n(&v["durability"]["wal_bytes"]),
        })
    }

    /// `f` applied to each counter of `self` and `other`; the gauges of a
    /// difference or a sum mean nothing and read 0.
    fn counters(&self, other: &Stats, f: impl Fn(u64, u64) -> u64) -> Stats {
        Stats {
            hits: f(self.hits, other.hits),
            misses: f(self.misses, other.misses),
            evictions: f(self.evictions, other.evictions),
            invalidations: f(self.invalidations, other.invalidations),
            plan_hits: f(self.plan_hits, other.plan_hits),
            plan_misses: f(self.plan_misses, other.plan_misses),
            shed: f(self.shed, other.shed),
            ..Stats::default()
        }
    }
}

/// What one slot — a position in the repeated sequence — measured in one
/// slice.
#[derive(Debug, Clone, Copy, Default)]
struct Sample {
    /// Client-observed latency; from the due time in an open loop.
    ns: u64,
    /// From the start of this request to the moment the client could start
    /// the next one: the slot's share of a closed-loop pass.
    cycle_ns: u64,
    /// Answered 200 with the body the oracle expects.
    ok: bool,
    /// The request opened its connection (and paid for the connect).
    fresh: bool,
}

impl Sample {
    fn of(reply: &Reply, ok: bool, ns: u64) -> Sample {
        Sample {
            ns,
            cycle_ns: reply.start.elapsed().as_nanos() as u64,
            ok,
            fresh: reply.fresh,
        }
    }
}

/// One slice of a run: a closed-loop pass, or a window of `ingest_mixed`.
#[derive(Default)]
struct Slice {
    /// The reads, by slot.
    samples: Vec<Sample>,
    /// `ingest_mixed`: the ingests, by slot.
    acks: Vec<Sample>,
    wall: Duration,
    /// Server CPU consumed during the slice.
    cpu: (u64, u64),
    /// Clock ticks the hypervisor withheld from this machine's CPUs during
    /// the slice.
    stolen: u64,
}

impl Slice {
    fn all(&self) -> impl Iterator<Item = &Sample> {
        self.samples.iter().chain(&self.acks)
    }

    fn ok(&self) -> u64 {
        self.all().filter(|s| s.ok).count() as u64
    }

    fn failed(&self) -> u64 {
        self.all().filter(|s| !s.ok).count() as u64
    }

    /// Stolen CPU time as a share of the slice's wall time.
    fn stolen_share(&self) -> f64 {
        self.stolen as f64 * tick_us() / (self.wall.as_secs_f64() * 1e6).max(1.0)
    }

    /// The hypervisor took the CPUs away for more than 2 % of the slice:
    /// what such a slice measured is the neighbours, not the server.
    fn disturbed(&self) -> bool {
        self.stolen_share() > 0.02
    }
}

/// A run's slices summarised slot by slot.
struct Summary {
    /// Slices left out because the hypervisor disturbed them.
    excluded: usize,
    /// Kept-alive samples behind the latency percentiles.
    samples: usize,
    rps: f64,
    /// Mean, median and p95 over the slots' usual latencies.
    mean_ns: f64,
    p50_ns: f64,
    p95_ns: f64,
    /// p99 over the samples themselves, every pass's: the one figure that
    /// keeps what the per-slot quartile removes, a stall that comes and
    /// goes. 0 without ten samples beyond it.
    p99_ns: f64,
    /// `ingest_mixed`: the same for the ingest acks, fresh or not.
    ack_p50_ns: f64,
    ack_p95_ns: f64,
    /// Server CPU per completed request over all slices used: a pass is a
    /// few dozen clock ticks long, too few for a figure of its own.
    user_us_per_req: f64,
    sys_us_per_req: f64,
}

/// The value `at` of the way (0 to 1) through the sorted `values`,
/// interpolated between the two nearest ranks, so that the figure does not
/// jump with the number of passes a run happened to fit in. `None` when
/// there are no values.
fn quantile(mut values: Vec<f64>, at: f64) -> Option<f64> {
    values.sort_by(f64::total_cmp);
    let at = values.len().checked_sub(1)? as f64 * at;
    let (low, high) = (values[at.floor() as usize], values[at.ceil() as usize]);
    Some(low + (high - low) * at.fract())
}

/// Each slot's usual value: the quantile `at`, across `slices`, of what
/// `pick` takes from the slot's sample in each. `None` for a slot no slice
/// has a value for.
fn per_slot(
    slices: &[&[Sample]],
    at: f64,
    pick: impl Fn(&Sample) -> Option<u64>,
) -> (Vec<Option<f64>>, usize) {
    let slots = slices.iter().map(|s| s.len()).max().unwrap_or(0);
    let mut samples = 0;
    let usual = (0..slots)
        .map(|j| {
            let values: Vec<f64> = slices
                .iter()
                .filter_map(|s| pick(s.get(j)?).map(|v| v as f64))
                .collect();
            samples += values.len();
            quantile(values, at)
        })
        .collect();
    (usual, samples)
}

/// Percentile `p` (nearest rank) over the slots' usual values; 0 when
/// there are none.
fn over_slots(usual: &[Option<f64>], p: f64) -> f64 {
    let mut values: Vec<f64> = usual.iter().flatten().copied().collect();
    values.sort_by(f64::total_cmp);
    percentile(&values, p).unwrap_or(0.0)
}

/// Summarises `slices`. `clients` is the number of closed-loop
/// connections (connection `c` sent the slots `c`, `c + clients`, …), or
/// `None` for an open loop, whose rate is its schedule's.
fn summarize(slices: &[Slice], clients: Option<usize>) -> Summary {
    // Disturbed slices are left out, but never more than three quarters of
    // the run: when the hypervisor interfered throughout, the quarter it
    // interfered with least is what there is.
    let mut used: Vec<&Slice> = slices.iter().filter(|s| s.ok() > 0).collect();
    used.sort_by(|a, b| a.stolen_share().total_cmp(&b.stolen_share()));
    let clean = used.iter().filter(|s| !s.disturbed()).count();
    used.truncate(clean.max(used.len().div_ceil(4)));

    let reads: Vec<&[Sample]> = used.iter().map(|s| s.samples.as_slice()).collect();
    let acks: Vec<&[Sample]> = used.iter().map(|s| s.acks.as_slice()).collect();
    let (latency, samples) = per_slot(&reads, 0.25, |s| (s.ok && !s.fresh).then_some(s.ns));
    let (ack, ack_samples) = per_slot(&acks, 0.25, |s| s.ok.then_some(s.ns));
    let rps = match clients {
        // Each connection's rate over its own slots; connections run side
        // by side, so the rates add up.
        Some(clients) => {
            // A request that opens its connection waits for the acceptor's
            // next poll, anything from nothing to its whole sleep: that
            // spread is the server's, not the box's, and the slot's usual
            // time is its median.
            let (kept, _) = per_slot(&reads, 0.25, |s| (s.ok && !s.fresh).then_some(s.cycle_ns));
            let (fresh, _) = per_slot(&reads, 0.5, |s| (s.ok && s.fresh).then_some(s.cycle_ns));
            let cycle: Vec<Option<f64>> = kept.iter().zip(&fresh).map(|(k, f)| k.or(*f)).collect();
            (0..clients)
                .map(|c| {
                    let own: Vec<f64> = cycle
                        .iter()
                        .skip(c)
                        .step_by(clients)
                        .flatten()
                        .copied()
                        .collect();
                    own.len() as f64 / (own.iter().sum::<f64>() / 1e9).max(f64::MIN_POSITIVE)
                })
                .sum()
        }
        // The good side of a rate is its third quartile.
        None => quantile(
            used.iter()
                .map(|s| s.ok() as f64 / s.wall.as_secs_f64())
                .collect(),
            0.75,
        )
        .unwrap_or(0.0),
    };
    let completed: u64 = used.iter().map(|s| s.ok()).sum();
    let cpu_us = |ticks: &dyn Fn(&Slice) -> u64| {
        used.iter().map(|s| ticks(s)).sum::<u64>() as f64 * tick_us() / completed.max(1) as f64
    };
    // A tail percentile needs ten of the measurements behind the slots'
    // values beyond it.
    let tail = |usual: &[Option<f64>], n: usize, p: f64| {
        if tail_supported(n, p) {
            over_slots(usual, p)
        } else {
            0.0
        }
    };
    Summary {
        excluded: slices.len() - used.len(),
        samples,
        rps,
        mean_ns: latency.iter().flatten().sum::<f64>()
            / latency.iter().flatten().count().max(1) as f64,
        p50_ns: over_slots(&latency, 50.0),
        p95_ns: tail(&latency, samples, 95.0),
        p99_ns: {
            let mut raw: Vec<u64> = reads
                .iter()
                .flat_map(|r| r.iter().filter(|s| s.ok && !s.fresh).map(|s| s.ns))
                .collect();
            raw.sort_unstable();
            percentile(&raw, 99.0)
                .filter(|_| tail_supported(raw.len(), 99.0))
                .unwrap_or(0) as f64
        },
        ack_p50_ns: over_slots(&ack, 50.0),
        ack_p95_ns: tail(&ack, ack_samples, 95.0),
        user_us_per_req: cpu_us(&|s| s.cpu.0),
        sys_us_per_req: cpu_us(&|s| s.cpu.1),
    }
}

/// Runs `work` as one slice against server `pid`: takes the wall time, the
/// server's CPU and the stolen ticks around it.
fn slice_of(pid: u32, work: impl FnOnce() -> Slice) -> Slice {
    let cpu0 = cpu_ticks(pid).ok();
    let stolen0 = stolen_ticks();
    let t0 = Instant::now();
    let mut slice = work();
    slice.wall = t0.elapsed();
    slice.stolen = stolen_ticks() - stolen0;
    if let (Some(a), Ok(b)) = (cpu0, cpu_ticks(pid)) {
        slice.cpu = (b.utime - a.utime, b.stime - a.stime);
    }
    slice
}

/// Sends `order` (indices into `requests`) closed-loop over `conns`, one
/// thread per connection, connection `c` taking every `conns.len()`-th
/// slot from `c`. Every connection starts afresh, so the reconnects the
/// server's [`CONN_CAP`] forces fall on the same slots in every pass. Each
/// reply is checked against the oracle after its end time was taken. `pid`
/// is the server.
fn closed_loop(conns: &mut [Conn], requests: &[Request], order: &[u32], pid: u32) -> Slice {
    let clients = conns.len();
    slice_of(pid, || {
        let parts: Vec<Vec<Sample>> = std::thread::scope(|s| {
            let handles: Vec<_> = conns
                .iter_mut()
                .enumerate()
                .map(|(c, conn)| {
                    s.spawn(move || {
                        let mut body = Vec::new();
                        conn.close();
                        order
                            .iter()
                            .skip(c)
                            .step_by(clients)
                            .map(|&i| {
                                let request = &requests[i as usize];
                                match conn.send(&request.bytes, &mut body) {
                                    Ok(r) => Sample::of(
                                        &r,
                                        r.status == 200 && request.expect.matches(&body),
                                        r.latency_ns(),
                                    ),
                                    Err(_) => Sample::default(),
                                }
                            })
                            .collect()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        Slice {
            samples: (0..order.len())
                .map(|j| parts[j % clients][j / clients])
                .collect(),
            ..Slice::default()
        }
    })
}

/// Boots a server [`SETUPS`] times — spawn → first `/healthz` 200 →
/// `warm_up` done — and keeps the last one. Returns it with the first
/// quartile of the boot times: a boot is slowed by the same one-sided noise
/// as a request, and summarised the same way.
fn boot(
    mut spawn: impl FnMut() -> io::Result<Serve>,
    mut warm_up: impl FnMut(&Serve) -> io::Result<()>,
) -> io::Result<(Serve, f64)> {
    let mut times = Vec::new();
    let mut kept = None;
    for _ in 0..SETUPS {
        drop(kept.take());
        let serve = spawn()?;
        serve.await_ready()?;
        warm_up(&serve)?;
        times.push(serve.spawned.elapsed().as_secs_f64());
        kept = Some(serve);
    }
    let usual = quantile(times, 0.25).expect("SETUPS > 0");
    Ok((kept.expect("SETUPS > 0"), usual))
}

/// One-shot connections back to back: connect, one request, full reply,
/// close. Returns the sorted latencies of the successful ones.
fn fresh_probes(addr: SocketAddr, request: &Request) -> Vec<u64> {
    let mut conn = Conn::new(addr);
    let mut body = Vec::new();
    let mut ns = Vec::with_capacity(FRESH_PROBES);
    for _ in 0..FRESH_PROBES {
        conn.close();
        if let Ok(r) = conn.send(&request.bytes, &mut body) {
            if r.status == 200 && r.fresh {
                ns.push(r.latency_ns());
            }
        }
    }
    ns.sort_unstable();
    ns
}

fn ms(ns: f64) -> f64 {
    ns / 1e6
}

/// A closed-loop read workload: its requests and the order every pass
/// sends them in.
pub struct ReadSpec {
    /// Distinct requests.
    pub requests: Vec<Request>,
    /// The warm-up pass (part of set-up, unmeasured).
    pub warm_up: Vec<u32>,
    /// The measured pass, sent over and over: slot `j` is the same request
    /// on the same connection at the same place in the server's caches
    /// every time.
    pub pass: Vec<u32>,
}

/// `cypher_hot`: the parity corpus round-robin, once on every position of
/// a connection's [`CONN_CAP`] requests (about 0.6 s a pass). The warm-up is
/// one such pass, reconnects included: a boot alone takes 0.1 s and follows
/// the box's phases by a quarter, and a set-up that short could not carry
/// its bound.
pub fn cypher_hot(graph: &Graph) -> ReadSpec {
    let requests = corpus_requests(graph);
    let n = requests.len() as u32;
    let pass: Vec<u32> = (0..n * CONN_CAP as u32).map(|i| i % n).collect();
    ReadSpec {
        requests,
        warm_up: pass.clone(),
        pass,
    }
}

/// The 59 corpus queries as checked `/cypher` requests against `graph`.
fn corpus_requests(graph: &Graph) -> Vec<Request> {
    PARITY_QUERIES
        .iter()
        .map(|q| Request {
            bytes: inputs::cypher_request(q),
            expect: Expect::Exact(oracle::cypher_body(graph, q)),
            gold_correct: true,
        })
        .collect()
}

/// `cypher_cold`: every distinct gold query of the pool, cycled in a
/// seeded order. Cycling over more keys than either LRU holds evicts each
/// entry before it is asked for again, so every request misses both tiers.
pub fn cypher_cold(graph: &Graph, pool: &QuestionPool, seed: u64) -> ReadSpec {
    let requests: Vec<Request> = pool
        .gold_queries
        .iter()
        .map(|q| Request {
            bytes: inputs::cypher_request(q),
            expect: Expect::Exact(oracle::cypher_body(graph, q)),
            gold_correct: true,
        })
        .collect();
    // One pass over the distinct gold queries (about 0.9 s).
    let pass = inputs::shuffled(requests.len(), seed);
    ReadSpec {
        requests,
        // The back half of the pass warms code and allocator without warming
        // the caches: a pass starts at the front and has evicted whatever
        // this left resident long before it gets there.
        warm_up: pass[pass.len() / 2..].to_vec(),
        pass,
    }
}

/// `ask_mixed`: Zipf(1.0) draws over the pool's distinct questions. The
/// popularity ranking is a seeded shuffle, stratified by route
/// ([`inputs::interleave_proportionally`]).
pub fn ask_mixed(pool: &QuestionPool, seed: u64) -> ReadSpec {
    let chat = oracle::twin_pipeline();
    let wants: Vec<oracle::AskExpectation> = pool
        .items
        .iter()
        .map(|item| oracle::ask_expectation(&chat, item))
        .collect();
    let (vector, cypher): (Vec<u32>, Vec<u32>) = inputs::shuffled(wants.len(), seed)
        .into_iter()
        .partition(|&i| wants[i as usize].vector_route);
    let requests: Vec<Request> = pool
        .items
        .iter()
        .zip(wants)
        .map(|(item, want)| Request {
            bytes: inputs::ask_request(&item.question),
            expect: want.expect,
            gold_correct: want.gold_correct,
        })
        .collect();
    let by_rank = inputs::interleave_proportionally(&vector, &cypher);
    let n = requests.len();
    let draws = move |count: usize, stream: u64| -> Vec<u32> {
        inputs::zipf_ranks(n, count, seed, stream)
            .into_iter()
            .map(|rank| by_rank[rank as usize])
            .collect()
    };
    ReadSpec {
        requests,
        // Stream 0 brings the result cache to the skew's steady state.
        warm_up: draws(ASK_WARM_UP, 0),
        pass: draws(ASK_PASS, 1),
    }
}

/// Runs a closed-loop read workload.
pub fn run_read(env: &Env, spec: &ReadSpec) -> io::Result<WireReport> {
    let clients = env.plan.clients();
    let mut conns: Vec<Conn> = Vec::new();
    let (serve, setup_s) = boot(
        || Serve::spawn(&env.bin, &[], &env.plan),
        |serve| {
            conns = (0..clients).map(|_| Conn::new(serve.addr)).collect();
            let warm = closed_loop(&mut conns, &spec.requests, &spec.warm_up, serve.pid());
            if warm.failed() > 0 {
                return Err(io::Error::other(format!(
                    "{} warm-up requests failed",
                    warm.failed()
                )));
            }
            Ok(())
        },
    )?;

    let stats0 = Stats::scrape(serve.addr)?;
    let mut passes = Vec::new();
    let t0 = Instant::now();
    while passes.is_empty() || t0.elapsed().as_secs_f64() < env.seconds {
        passes.push(closed_loop(
            &mut conns,
            &spec.requests,
            &spec.pass,
            serve.pid(),
        ));
    }
    let stats1 = Stats::scrape(serve.addr)?;
    // Accuracy is the pool's: whatever the pass left out is asked once now,
    // unmeasured, so every distinct request was answered and checked.
    let mut asked = vec![false; spec.requests.len()];
    for &i in &spec.pass {
        asked[i as usize] = true;
    }
    let rest: Vec<u32> = (0..asked.len() as u32)
        .filter(|&i| !asked[i as usize])
        .collect();
    let rest = closed_loop(&mut conns, &spec.requests, &rest, serve.pid());
    drop(conns);
    let fresh = fresh_probes(serve.addr, &spec.requests[0]);
    let rss_mb = peak_rss_mb(serve.pid())?;
    drop(serve);

    let ok = passes.iter().map(Slice::ok).sum::<u64>() + rest.ok();
    let failed = passes.iter().map(Slice::failed).sum::<u64>() + rest.failed();
    let gold = spec.requests.iter().filter(|r| r.gold_correct).count();
    let summary = summarize(&passes, Some(clients));
    let fresh_p50 = percentile(&fresh, 50.0).unwrap_or(0) as f64;

    let mut invalid = Vec::new();
    if summary.p95_ns == 0.0 {
        invalid.push("fewer than ten samples beyond p95".to_string());
    }
    if fresh.len() < FRESH_PROBES {
        invalid.push(format!(
            "{} of {FRESH_PROBES} fresh-connection probes failed",
            FRESH_PROBES - fresh.len()
        ));
    }
    Ok(WireReport {
        attempted: ok + failed,
        failed,
        e2e: vec![
            ("rps", summary.rps),
            ("fresh_conn_p50_ms", ms(fresh_p50)),
            ("rss_mb", rss_mb),
            (
                "gold_accuracy",
                gold as f64 / spec.requests.len().max(1) as f64,
            ),
            ("setup_s", setup_s),
        ],
        layer: WireLayer {
            keepalive_mean_ns: summary.mean_ns,
            keepalive_p50_ns: summary.p50_ns,
            keepalive_p95_ns: summary.p95_ns,
            keepalive_p99_ns: summary.p99_ns,
            fresh_p50_ns: fresh_p50,
            user_us_per_req: summary.user_us_per_req,
            sys_us_per_req: summary.sys_us_per_req,
            stats: stats1.counters(&stats0, u64::saturating_sub),
            ..WireLayer::default()
        },
        notes: vec![format!(
            "closed loop, {clients} keep-alive connection(s); {} passes over the same {} slots \
             ({} left out: CPU stolen), good quartile per slot; {} kept-alive samples, {} more \
             requests for coverage, {} fresh-connection probes, {SETUPS} set-ups",
            passes.len(),
            spec.pass.len(),
            summary.excluded,
            summary.samples,
            rest.samples.len(),
            fresh.len(),
        )],
        invalid,
    })
}

/// The pre-generated write side of `ingest_mixed`: batch `i` turns version
/// `i + 1` into `i + 2`. The server's graph is a deterministic function of
/// the batches applied, so a twin advanced here, ahead of time, yields the
/// same node ids the server will assign.
pub struct IngestPlan {
    /// Pre-framed `/admin/ingest` requests: the timed window's batches,
    /// then [`TAIL_SEGMENTS`] × [`TAIL_BATCHES`] more.
    pub requests: Vec<Vec<u8>>,
    /// Batches sent inside the timed window.
    pub window: usize,
    /// JSON body bytes of the window's requests.
    body_bytes: u64,
    /// Corpus bodies at each version: `expected[v - 1][q]`.
    expected: Vec<Vec<Vec<u8>>>,
    /// Node count after the last batch.
    final_nodes: u64,
}

impl IngestPlan {
    fn build(mut twin: Graph, seed: u64, window: usize) -> IngestPlan {
        let corpus = |g: &Graph| -> Vec<Vec<u8>> {
            PARITY_QUERIES
                .iter()
                .map(|q| oracle::cypher_body(g, q))
                .collect()
        };
        let mut plan = IngestPlan {
            requests: Vec::new(),
            window,
            body_bytes: 0,
            expected: vec![corpus(&twin)],
            final_nodes: 0,
        };
        for i in 0..window + TAIL_SEGMENTS * TAIL_BATCHES {
            let batch = iyp_data::growth_batch(
                &twin,
                seed.wrapping_mul(1_000_003).wrapping_add(i as u64),
                INGEST_BATCH_AS,
            );
            let body = serde_json::to_string(&batch).expect("batch serializes");
            batch.apply(&mut twin).expect("twin applies its own batch");
            if i < window {
                plan.body_bytes += body.len() as u64;
            }
            plan.requests
                .push(inputs::http_request("POST", "/admin/ingest", &body));
            plan.expected.push(corpus(&twin));
        }
        plan.final_nodes = twin.node_count() as u64;
        plan
    }

    /// Request indices after which a checkpoint is taken: the end of the
    /// window and the end of each tail segment but the last, so recovery
    /// always finds a checkpoint with [`TAIL_BATCHES`] WAL records above it.
    pub fn checkpoint_after(&self) -> Vec<usize> {
        (0..TAIL_SEGMENTS)
            .map(|seg| self.window + seg * TAIL_BATCHES - 1)
            .collect()
    }
}

/// Posts the corpus over one connection and returns the indices of the
/// queries not answered 200 with exactly `want`'s bytes.
fn corpus_mismatches(
    addr: SocketAddr,
    corpus: &[Vec<u8>],
    want: &[Vec<u8>],
) -> io::Result<Vec<usize>> {
    let mut conn = Conn::new(addr);
    let mut body = Vec::new();
    let mut wrong = Vec::new();
    for (q, (request, want)) in corpus.iter().zip(want).enumerate() {
        if conn.send(request, &mut body)?.status != 200 || &body != want {
            wrong.push(q);
        }
    }
    Ok(wrong)
}

/// Is `body` the ack of the ingest that turned version `v` into `v + 1`?
fn acks_version(body: &[u8], v: u64) -> bool {
    serde_json::from_slice::<serde_json::Value>(body).is_ok_and(|ack| {
        (ack["old_version"].as_u64(), ack["new_version"].as_u64()) == (Some(v), Some(v + 1))
    })
}

/// One connection's open-loop schedule: `send(i, body)` performs request
/// `i` and says whether the reply was right. Returns one sample per
/// request, its latency counted from the due time, and how late each
/// request was sent although its connection was idle when it fell due: the
/// generator's own lateness (timer wake-up), as opposed to backlog, which
/// the from-due latency already charges.
fn open_loop(
    start: Instant,
    rate: u32,
    count: usize,
    mut send: impl FnMut(usize, &mut Vec<u8>) -> io::Result<(Reply, bool)>,
) -> (Vec<Sample>, Vec<u64>) {
    let mut samples = Vec::with_capacity(count);
    let mut lags_ns = Vec::new();
    let mut body = Vec::new();
    let mut idle_since = start;
    paced(start, Duration::from_secs(1) / rate, count, |i, due| {
        let Ok((reply, ok)) = send(i, &mut body) else {
            samples.push(Sample::default());
            idle_since = Instant::now();
            return;
        };
        let timing = Timing::new(due, reply.start, reply.end);
        if idle_since <= due {
            lags_ns.push(timing.lag_ns);
        }
        idle_since = reply.end;
        samples.push(Sample::of(&reply, ok, timing.from_due_ns));
    });
    (samples, lags_ns)
}

/// One slice, open loop on two kept-alive connections: the writer posts
/// `plan`'s window batches at [`INGEST_RATE`]/s while the reader posts the
/// corpus round-robin at [`READ_RATE`]/s. Every latency counts from the
/// instant the request was *due*, so a stall is charged to each request it
/// delayed. Returns the slice and the idle-at-due lags of both connections.
fn ingest_slice(
    addr: SocketAddr,
    pid: u32,
    plan: &IngestPlan,
    corpus: &[Vec<u8>],
) -> (Slice, Vec<u64>) {
    // The oracle's view of the write side, shared with the reader: a read
    // may be served from any version between the last ingest acked before
    // it was sent and the last ingest sent before it completed.
    let (sent, acked) = (AtomicUsize::new(0), AtomicUsize::new(0));
    let mut lags_ns = Vec::new();
    let slice = slice_of(pid, || {
        let start = Instant::now() + Duration::from_millis(5);
        let (wrote, read) = std::thread::scope(|s| {
            let writer = s.spawn(|| {
                let mut conn = Conn::new(addr);
                open_loop(start, INGEST_RATE, plan.window, |i, body| {
                    sent.store(i + 1, Ordering::SeqCst);
                    let reply = conn.send(&plan.requests[i], body)?;
                    let ok = reply.status == 200 && acks_version(body, i as u64 + 1);
                    if ok {
                        acked.store(i + 1, Ordering::SeqCst);
                    }
                    Ok((reply, ok))
                })
            });
            let reader = s.spawn(|| {
                let mut conn = Conn::new(addr);
                let reads = plan.window * READ_RATE as usize / INGEST_RATE as usize;
                open_loop(start, READ_RATE, reads, |i, body| {
                    let q = i % corpus.len();
                    let low = acked.load(Ordering::SeqCst);
                    let reply = conn.send(&corpus[q], body)?;
                    let high = sent.load(Ordering::SeqCst);
                    let served = (low..=high).any(|v| plan.expected[v][q] == *body);
                    Ok((reply, reply.status == 200 && served))
                })
            });
            (
                writer.join().expect("writer thread panicked"),
                reader.join().expect("reader thread panicked"),
            )
        });
        lags_ns = wrote.1;
        lags_ns.extend(read.1);
        Slice {
            samples: read.0,
            acks: wrote.0,
            ..Slice::default()
        }
    });
    (slice, lags_ns)
}

/// Runs `ingest_mixed`: a feed and a dashboard, both on a schedule, against
/// a durable server (`--fsync always`). Every publish invalidates the
/// result cache, so the corpus keeps re-executing while clone → apply →
/// WAL append + fsync → index patch → publish run beside it.
///
/// The graph grows with every batch and some corpus queries cost more on a
/// larger graph, so one long window is not stationary: its last second
/// does far more work than its first. Each slice therefore runs the *same*
/// [`SLICE_BATCHES`] batches against a **freshly booted** server over an
/// empty data directory — identical work per slice, and one timed set-up
/// per slice.
///
/// After the last slice come the checkpoints, each followed by a few more
/// ingests, and then [`RECOVERIES`] kill-and-reboot cycles over the same
/// directory. The checkpoints sit outside the slices on purpose: each
/// stalls the server for tens of milliseconds, two such events land
/// exactly on a slice's p99, and it then reads 10 ms or 50 ms by chance.
/// Their cost is reported by the traced run
/// (`core.durability.checkpoint_ms`) instead.
pub fn run_ingest(env: &Env, graph: Graph) -> io::Result<(WireReport, IngestPlan, Vec<Vec<u8>>)> {
    let slice_seconds = SLICE_BATCHES as f64 / f64::from(INGEST_RATE);
    let slices = ((env.seconds / slice_seconds).round() as usize).max(1);
    let plan = IngestPlan::build(graph, env.seed, SLICE_BATCHES);
    let corpus: Vec<Vec<u8>> = PARITY_QUERIES
        .iter()
        .map(|q| inputs::cypher_request(q))
        .collect();
    let final_version = plan.requests.len() as u64 + 1;

    let mut cut: Vec<Slice> = Vec::new();
    let mut lags = Vec::new();
    let mut setups = Vec::new();
    let mut stats = Stats::default();
    let mut wal_bytes = 0;
    let mut last = None;
    for k in 0..slices {
        drop(last.take());
        let dir = ScratchDir::create(&env.out, &format!("data{k}"))?;
        let path = dir.path().to_string_lossy().into_owned();
        let serve = Serve::spawn(
            &env.bin,
            &["--data-dir", &path, "--fsync", "always"],
            &env.plan,
        )?;
        serve.await_ready()?;
        // Warm-up pass: the corpus once, filling both cache tiers.
        if !corpus_mismatches(serve.addr, &corpus, &plan.expected[0])?.is_empty() {
            return Err(io::Error::other("warm-up corpus mismatch"));
        }
        setups.push(serve.spawned.elapsed().as_secs_f64());

        let stats0 = Stats::scrape(serve.addr)?;
        let (slice, lags_ns) = ingest_slice(serve.addr, serve.pid(), &plan, &corpus);
        cut.push(slice);
        lags.extend(lags_ns);
        let stats1 = Stats::scrape(serve.addr)?;
        let delta = stats1.counters(&stats0, u64::saturating_sub);
        stats = stats.counters(&delta, u64::saturating_add);
        wal_bytes = stats1.wal_bytes;
        last = Some((serve, dir, path));
    }
    let (serve, data_dir, data_path) = last.expect("at least one slice");
    let addr = serve.addr;

    // Checkpoints and the WAL tail above the last of them.
    let mut problems = Vec::new();
    let checkpoint = inputs::http_request("POST", "/admin/checkpoint", "");
    let checkpoint_after = plan.checkpoint_after();
    let mut conn = Conn::new(addr);
    let mut body = Vec::new();
    for i in plan.window - 1..plan.requests.len() {
        if i >= plan.window {
            let r = conn.send(&plan.requests[i], &mut body)?;
            if r.status != 200 || !acks_version(&body, i as u64 + 1) {
                problems.push(format!(
                    "tail ingest {i} was not acked as version {}",
                    i + 2
                ));
            }
        }
        if checkpoint_after.contains(&i) && conn.send(&checkpoint, &mut body)?.status != 200 {
            problems.push(format!("checkpoint after ingest {i} failed"));
        }
    }
    drop(conn);
    let stats2 = Stats::scrape(addr)?;
    if (stats2.graph_version, stats2.nodes) != (final_version, plan.final_nodes) {
        problems.push(format!(
            "/stats shows version {} with {} nodes, twin has version {final_version} with {}",
            stats2.graph_version, stats2.nodes, plan.final_nodes
        ));
    }
    let want = plan.expected.last().expect("at least the base version");
    let probe = Request {
        bytes: corpus[0].clone(),
        expect: Expect::Exact(want[0].clone()),
        gold_correct: true,
    };
    let fresh = fresh_probes(addr, &probe);
    let rss_mb = peak_rss_mb(serve.pid())?;

    // Kill -9 and reboot over the same directory. The OS page cache
    // survives the kill, so this proves replay, not fsync.
    let mut recovery = Vec::new();
    let mut serve = Some(serve);
    for cycle in 0..RECOVERIES {
        drop(serve.take());
        let rebooted = Serve::spawn(
            &env.bin,
            &["--data-dir", &data_path, "--fsync", "always"],
            &env.plan,
        )?;
        let ready = rebooted.await_ready()?;
        recovery.push(rebooted.spawned.elapsed().as_secs_f64());
        if ready["graph_version"].as_u64() != Some(final_version) {
            problems.push(format!(
                "reboot {cycle}: first 200 carried version {:?}, not {final_version}",
                ready["graph_version"].as_u64()
            ));
        }
        for q in corpus_mismatches(rebooted.addr, &corpus, want)? {
            problems.push(format!(
                "reboot {cycle}: corpus query {q} differs after replay"
            ));
        }
        serve = Some(rebooted);
    }
    drop(serve);
    drop(data_dir);

    lags.sort_unstable();
    let summary = summarize(&cut, None);
    let ok: u64 = cut.iter().map(Slice::ok).sum();
    let failed = cut.iter().map(Slice::failed).sum::<u64>() + problems.len() as u64;
    let pct = |v: &[u64], p: f64| percentile(v, p).unwrap_or(0) as f64;
    let lag_p99_ms = ms(pct(&lags, 99.0));

    let mut invalid = problems;
    // The writer shares the generator's CPUs with the reader, so a late
    // wake-up of a millisecond or two is normal; a generator that misses
    // its schedule by a fifth of the interval is not holding it.
    let lag_limit_ms = 1e3 / f64::from(INGEST_RATE) / 5.0;
    if lag_p99_ms > lag_limit_ms {
        invalid.push(format!(
            "generator ran late: sched_lag_p99_ms = {lag_p99_ms:.3} > {lag_limit_ms}"
        ));
    }
    if summary.p95_ns == 0.0 {
        invalid.push("fewer than ten samples beyond p95".to_string());
    }
    let report = WireReport {
        attempted: ok + failed,
        failed,
        e2e: vec![
            ("rps", summary.rps),
            ("fresh_conn_p50_ms", ms(pct(&fresh, 50.0))),
            ("rss_mb", rss_mb),
            // Every read is a gold query checked against the twin.
            ("gold_accuracy", 1.0),
            (
                "setup_s",
                quantile(setups, 0.25).expect("at least one slice"),
            ),
        ],
        layer: WireLayer {
            keepalive_mean_ns: summary.mean_ns,
            keepalive_p50_ns: summary.p50_ns,
            keepalive_p95_ns: summary.p95_ns,
            keepalive_p99_ns: summary.p99_ns,
            fresh_p50_ns: pct(&fresh, 50.0),
            user_us_per_req: summary.user_us_per_req,
            sys_us_per_req: summary.sys_us_per_req,
            stats,
            ingest_ack_p50_ms: ms(summary.ack_p50_ns),
            ingest_ack_p95_ms: ms(summary.ack_p95_ns),
            recovery_s: median(&recovery),
            wal_bytes_per_body_byte: wal_bytes as f64 / plan.body_bytes.max(1) as f64,
            sched_lag_p99_ms: lag_p99_ms,
        },
        notes: vec![format!(
            "open loop, latency from due time; {} slices, each a fresh server on the same \
             schedule: {SLICE_BATCHES} ingests at {INGEST_RATE}/s beside corpus reads at \
             {READ_RATE}/s, one keep-alive connection each, {} idle-at-due \
             samples for sched_lag; good quartile per slot ({} left out: CPU stolen), {} \
             kept-alive samples; then {TAIL_SEGMENTS} checkpoints, each \
             followed by {TAIL_BATCHES} ingests; {RECOVERIES} kill-and-reboot cycles over \
             checkpoint v{} + {TAIL_BATCHES} WAL records; {wal_bytes} WAL bytes for {} body \
             bytes per slice",
            cut.len(),
            lags.len(),
            summary.excluded,
            summary.samples,
            final_version - TAIL_BATCHES as u64,
            plan.body_bytes,
        )],
        invalid,
    };
    Ok((report, plan, corpus))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader, Read, Write};
    use std::net::TcpListener;

    /// A stub that answers every request with the same 200 body.
    fn stub(body: &'static str, requests: usize) -> (SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(stream);
            for _ in 0..requests {
                let mut length = 0;
                loop {
                    let mut line = String::new();
                    reader.read_line(&mut line).unwrap();
                    if let Some(v) = line.strip_prefix("Content-Length: ") {
                        length = v.trim().parse().unwrap();
                    }
                    if line == "\r\n" {
                        break;
                    }
                }
                reader.read_exact(&mut vec![0; length]).unwrap();
                write!(
                    reader.get_mut(),
                    "HTTP/1.1 200 OK\r\ncontent-length: {}\r\n\r\n{body}",
                    body.len()
                )
                .unwrap();
            }
        });
        (addr, handle)
    }

    /// The oracle decides what counts: a 200 with the wrong bytes is a
    /// failure, is kept out of the latency samples, and fails the run.
    #[test]
    fn a_corrupted_expected_body_fails_the_round() {
        let (addr, server) = stub("{\"rows\":[[1]]}", 4);
        let request = |want: &str| Request {
            bytes: inputs::cypher_request("RETURN 1"),
            expect: Expect::Exact(want.as_bytes().to_vec()),
            gold_correct: true,
        };
        let requests = [request("{\"rows\":[[1]]}"), request("{\"rows\":[[2]]}")];
        let mut conns = [Conn::new(addr)];
        let pass = closed_loop(&mut conns, &requests, &[0, 1, 0, 1], std::process::id());
        server.join().unwrap();
        assert_eq!((pass.ok(), pass.failed()), (2, 2));
        let flags: Vec<(bool, bool)> = pass.samples.iter().map(|s| (s.ok, s.fresh)).collect();
        // The first request opened the connection; only the other good
        // one is a kept-alive sample.
        assert_eq!(
            flags,
            [(true, true), (false, false), (true, false), (false, false)]
        );
        let summary = summarize(&[pass], Some(1));
        assert_eq!(summary.samples, 1);
        assert!(summary.mean_ns > 0.0 && summary.mean_ns == summary.p50_ns);
    }

    /// A pass of `slots` good kept-alive samples, each `ns` long.
    fn pass_of(ns: &[u64], stolen: u64) -> Slice {
        Slice {
            samples: ns
                .iter()
                .map(|&ns| Sample {
                    ns,
                    cycle_ns: ns + 10,
                    ok: true,
                    fresh: false,
                })
                .collect(),
            wall: Duration::from_secs(1),
            stolen,
            ..Slice::default()
        }
    }

    /// A burst that slows a whole pass, or any one sample of a slot, moves
    /// nothing: each slot reports the good quartile of its own samples.
    #[test]
    fn a_disturbed_pass_does_not_move_the_slots_usual_values() {
        let quiet = [100, 200, 300, 400];
        let mut passes: Vec<Slice> = (0..8).map(|_| pass_of(&quiet, 0)).collect();
        let calm = summarize(&passes, Some(1));
        passes[3] = pass_of(&[1_000, 2_000, 3_000, 4_000], 0);
        passes[5].samples[2].ns = 9_000;
        passes[6].samples[0].ok = false;
        let disturbed = summarize(&passes, Some(1));
        for s in [&calm, &disturbed] {
            assert_eq!((s.mean_ns, s.p50_ns), (250.0, 200.0));
            // 4 slots in (110 + 210 + 310 + 410) ns.
            assert!((s.rps - 4.0 / 1040e-9).abs() < 1.0, "rps {}", s.rps);
        }
        assert_eq!((calm.samples, disturbed.samples), (32, 31));
        // The raw p99 is the figure that does see the burst; 32 samples do
        // not support one.
        assert_eq!(disturbed.p99_ns, 0.0);

        // Two connections: each one's rate over its own slots, added up.
        let two = summarize(&passes, Some(2));
        let want = 2.0 / 420e-9 + 2.0 / 620e-9;
        assert!((two.rps - want).abs() < 1.0, "rps {}", two.rps);
    }

    /// An open loop's rate is its schedule's, and its acks are summarised
    /// slot by slot like its reads.
    #[test]
    fn open_loop_summaries_take_the_rate_from_the_wall_clock() {
        let mut slice = pass_of(&[100; 20], 0);
        slice.acks = pass_of(&[5_000; 10], 0).samples;
        let summary = summarize(&[slice], None);
        assert_eq!(summary.rps, 30.0);
        assert_eq!((summary.ack_p50_ns, summary.ack_p95_ns), (5_000.0, 0.0));
    }

    #[test]
    fn stolen_slices_are_left_out_but_a_quarter_always_remains() {
        // Two clean passes among six: only they count.
        let mixed = [
            pass_of(&[50], 0),
            pass_of(&[900], 30),
            pass_of(&[60], 1),
            pass_of(&[800], 9),
            pass_of(&[700], 5),
            pass_of(&[950], 40),
        ];
        let summary = summarize(&mixed, Some(1));
        assert_eq!((summary.excluded, summary.p50_ns), (4, 52.5));
        // All disturbed: the least disturbed quarter (2 of 5) is used.
        let stormy = [
            pass_of(&[900], 30),
            pass_of(&[400], 4),
            pass_of(&[800], 9),
            pass_of(&[300], 3),
            pass_of(&[950], 40),
        ];
        let summary = summarize(&stormy, Some(1));
        assert_eq!((summary.excluded, summary.p50_ns), (3, 325.0));
    }

    #[test]
    fn the_good_quartile_sides_with_the_undisturbed_samples() {
        let rates = vec![100.0, 98.0, 60.0, 99.0, 55.0, 97.0, 101.0, 70.0];
        assert_eq!(quantile(rates, 0.75), Some(99.25));
        let costs = vec![10.0, 30.0, 11.0, 12.0, 25.0, 10.5, 40.0, 13.0];
        assert_eq!(quantile(costs, 0.25), Some(10.875));
        // Interpolated: one more sample moves the figure a little, not by
        // a whole rank.
        assert_eq!(quantile(vec![1.0, 2.0, 3.0], 0.25), Some(1.5));
        assert_eq!(quantile(vec![1.0, 2.0, 3.0, 4.0], 0.25), Some(1.75));
        assert_eq!(quantile(vec![7.0], 0.25), Some(7.0));
        assert_eq!(quantile(vec![], 0.25), None);
    }

    /// The wait of a request that opens its connection is the acceptor's,
    /// spread evenly over its sleep: the slot's share of a pass is the
    /// median wait, not the luckiest quarter's.
    #[test]
    fn a_connection_opening_slot_counts_its_median_wait() {
        let passes: Vec<Slice> = [1_000, 2_000, 3_000, 4_000, 5_000]
            .iter()
            .map(|&wait| {
                let mut pass = pass_of(&[wait, 100], 0);
                pass.samples[0].fresh = true;
                pass
            })
            .collect();
        let summary = summarize(&passes, Some(1));
        // 2 slots in (3 000 + 10) + (100 + 10) ns; the latency figures see
        // the kept-alive slot only.
        assert!(
            (summary.rps - 2.0 / 3_120e-9).abs() < 1.0,
            "rps {}",
            summary.rps
        );
        assert_eq!((summary.samples, summary.mean_ns), (5, 100.0));
    }

    #[test]
    fn ingest_plan_is_seeded_and_checkpoints_leave_a_wal_tail() {
        let graph = || iyp_data::generate(&iyp_data::IypConfig::tiny()).graph;
        let a = IngestPlan::build(graph(), 5, 4);
        let b = IngestPlan::build(graph(), 5, 4);
        let c = IngestPlan::build(graph(), 6, 4);
        assert_eq!(a.requests, b.requests);
        assert_ne!(a.requests, c.requests);
        assert_eq!(a.requests.len(), 4 + TAIL_SEGMENTS * TAIL_BATCHES);
        assert_eq!(a.expected.len(), a.requests.len() + 1);
        // The last checkpoint is followed by TAIL_BATCHES more ingests.
        let last = *a.checkpoint_after().last().unwrap();
        assert_eq!(a.requests.len() - 1 - last, TAIL_BATCHES);
        assert_eq!(a.checkpoint_after()[0], a.window - 1);
    }
}
