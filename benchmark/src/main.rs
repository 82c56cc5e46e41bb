//! `chatiyp-loadbench`: one end-to-end load benchmark against the real
//! `chatiyp serve`, with a per-layer budget that sums.
//!
//! ```text
//! chatiyp-loadbench --workload W --seed N --seconds S --trace 0|1
//!     one workload; the last stdout line is the result object
//! chatiyp-loadbench [--seed N] [--seconds S] [--quick]
//!     all four workloads, wire and traced; prints every metric by name
//! chatiyp-loadbench --repeat N [--seed N] [--seconds S]
//!     N wire runs per workload on N seeds; spread against the bounds
//! ```
//!
//! `benchmark/run.sh` builds both binaries and forwards its arguments.

mod http;
mod inputs;
mod metrics;
mod openloop;
mod oracle;
mod replay;
mod server;
mod stats;
mod trace;
mod workloads;

use inputs::QuestionPool;
use metrics::{unit_of, END_TO_END, PER_LAYER};
use server::{others_running, CpuPlan, KeepAwake, ScratchDir};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use trace::Span;
use workloads::{Env, WireReport, WORKLOADS};

/// Requests replayed whole and decomposed per read workload.
const REPLAY_SAMPLE: usize = 1_000;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    repeat: Option<usize>,
    quick: bool,
    bin: PathBuf,
    out: PathBuf,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into());
        let mut args = Args {
            workload: None,
            seed: 1,
            seconds: None,
            trace: false,
            repeat: None,
            quick: false,
            bin: PathBuf::from(target).join("release/chatiyp"),
            out: PathBuf::from("benchmark/out"),
        };
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or(format!("{flag} needs a value"));
            let bad = |what: &str| format!("{flag}: {what}");
            match flag.as_str() {
                "--workload" => {
                    let w = value()?;
                    if !WORKLOADS.contains(&w.as_str()) {
                        return Err(format!("unknown workload `{w}`; one of {WORKLOADS:?}"));
                    }
                    args.workload = Some(w);
                }
                "--seed" => args.seed = value()?.parse().map_err(|_| bad("not a number"))?,
                "--seconds" => {
                    let s: f64 = value()?.parse().map_err(|_| bad("not a number"))?;
                    if !(s > 0.0 && s <= 60.0) {
                        return Err(bad("must be in (0, 60]"));
                    }
                    args.seconds = Some(s);
                }
                "--trace" => {
                    args.trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad("must be 0 or 1")),
                    }
                }
                "--repeat" => {
                    let n: usize = value()?.parse().map_err(|_| bad("not a number"))?;
                    if n < 2 {
                        return Err(bad("needs at least 2 runs for a spread"));
                    }
                    args.repeat = Some(n);
                }
                "--quick" => args.quick = true,
                "--bin" => args.bin = value()?.into(),
                "--out" => args.out = value()?.into(),
                other => return Err(format!("unknown argument `{other}`")),
            }
        }
        Ok(args)
    }
}

/// An in-process replay of (warm-up requests, sampled requests).
type ReplayFn<'a> = &'a dyn Fn(&[Vec<u8>], &[Vec<u8>]) -> replay::Replay;

/// What one invocation of one workload reports.
struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64)>,
    notes: Vec<String>,
    invalid: Vec<String>,
    spans: Vec<Span>,
}

/// Runs one workload: the wire phase, and with `trace` the in-process
/// replay after it.
fn run_workload(env: &Env, workload: &str, trace: bool) -> std::io::Result<Outcome> {
    let data = oracle::default_dataset();
    let server_cpus = env.plan.server.len();
    // A read workload: the wire run, then its own warm-up pass and the head
    // of its measured pass replayed in-process.
    let read = |spec: workloads::ReadSpec,
                replay: ReplayFn|
     -> std::io::Result<(WireReport, Option<replay::Replay>)> {
        let wire = workloads::run_read(env, &spec)?;
        let bytes = |order: &[u32]| -> Vec<Vec<u8>> {
            order
                .iter()
                .map(|&i| spec.requests[i as usize].bytes.clone())
                .collect()
        };
        let replayed = trace.then(|| {
            replay(
                &bytes(&spec.warm_up),
                &bytes(&spec.pass[..REPLAY_SAMPLE.min(spec.pass.len())]),
            )
        });
        Ok((wire, replayed))
    };

    let (wire, replayed) = match workload {
        "cypher_hot" => read(workloads::cypher_hot(&data.graph), &|warm, sample| {
            replay::replay_cypher(server_cpus, warm, sample, false)
        })?,
        // The head of the pass is the front of the seeded order, the warm-up
        // its back: distinct queries, none seen before, so every call misses.
        "cypher_cold" => read(
            workloads::cypher_cold(
                &data.graph,
                &QuestionPool::build(&data, workloads::POOL_SEED),
                env.seed,
            ),
            &|warm, sample| replay::replay_cypher(server_cpus, warm, sample, true),
        )?,
        "ask_mixed" => read(
            workloads::ask_mixed(&QuestionPool::build(&data, workloads::POOL_SEED), env.seed),
            &|warm, sample| replay::replay_ask(server_cpus, warm, sample),
        )?,
        "ingest_mixed" => {
            let (wire, plan, corpus) = workloads::run_ingest(env, data.graph)?;
            let replayed = if trace {
                let dir = ScratchDir::create(&env.out, "replay")?;
                Some(replay::replay_ingest(
                    server_cpus,
                    dir.path(),
                    &plan.requests,
                    &plan.checkpoint_after(),
                    &corpus,
                    workloads::RECOVERIES,
                ))
            } else {
                None
            };
            (wire, replayed)
        }
        other => unreachable!("workload `{other}` was validated at parse time"),
    };

    let per_layer = replayed.as_ref().map(|r| per_layer(&wire, r));
    let mut outcome = Outcome {
        attempted: wire.attempted,
        failed: wire.failed,
        metrics: per_layer.unwrap_or(wire.e2e),
        notes: wire.notes,
        invalid: wire.invalid,
        spans: Vec::new(),
    };
    if let Some(replayed) = replayed {
        outcome.attempted += replayed.attempted;
        outcome.failed += replayed.failed;
        outcome.notes.push(format!(
            "traced run: {} operations replayed whole and decomposed, {} spans",
            replayed.attempted,
            replayed.spans.len()
        ));
        outcome
            .notes
            .extend(replayed.findings.iter().map(|f| format!("finding: {f}")));
        outcome.spans = replayed.spans;
    }
    Ok(outcome)
}

/// Every per-layer metric: the replay's, the wire's, and 0 for layers the
/// workload never entered.
fn per_layer(wire: &WireReport, replayed: &replay::Replay) -> Vec<(&'static str, f64)> {
    let w = &wire.layer;
    let ratio = |num: u64, rest: u64| {
        if num + rest == 0 {
            0.0
        } else {
            num as f64 / (num + rest) as f64
        }
    };
    let mut values: BTreeMap<String, f64> = replayed.metrics.clone();
    values.extend(
        [
            (
                "server.serve.wire_us",
                (w.keepalive_p50_ns - replayed.whole_read_ns) / 1e3,
            ),
            ("server.serve.sys_us_per_req", w.sys_us_per_req),
            ("server.serve.shed", w.stats.shed as f64),
            (
                "server.serve.accept_wait_us",
                (w.fresh_p50_ns - w.keepalive_p50_ns) / 1e3,
            ),
            (
                "core.cache.result_hit_ratio",
                ratio(w.stats.hits, w.stats.misses),
            ),
            (
                "core.cache.plan_hit_ratio",
                ratio(w.stats.plan_hits, w.stats.plan_misses),
            ),
            ("core.cache.evictions", w.stats.evictions as f64),
            ("core.cache.invalidations", w.stats.invalidations as f64),
            ("mean_ms", w.keepalive_mean_ns / 1e6),
            ("p50_ms", w.keepalive_p50_ns / 1e6),
            ("p95_ms", w.keepalive_p95_ns / 1e6),
            ("p99_ms", w.keepalive_p99_ns / 1e6),
            ("cpu_user_us_per_req", w.user_us_per_req),
            ("ingest_ack_p50_ms", w.ingest_ack_p50_ms),
            ("ingest_ack_p95_ms", w.ingest_ack_p95_ms),
            ("recovery_s", w.recovery_s),
            ("wal_bytes_per_body_byte", w.wal_bytes_per_body_byte),
            ("sched_lag_p99_ms", w.sched_lag_p99_ms),
            (
                "fail_share",
                (wire.failed + replayed.failed) as f64
                    / (wire.attempted + replayed.attempted).max(1) as f64,
            ),
        ]
        .map(|(name, value)| (name.to_string(), value)),
    );
    PER_LAYER
        .iter()
        .map(|(name, _)| (*name, values.get(*name).copied().unwrap_or(0.0)))
        .collect()
}

/// The result object of the contract: one line of JSON.
fn result_line(outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|(name, value)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!(
                "\"{name}\":{{\"value\":{value},\"unit\":\"{}\"}}",
                unit_of(name)
            )
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        outcome.failed == 0,
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(",")
    )
}

fn print_table(out: &mut dyn std::io::Write, workload: &str, outcome: &Outcome) {
    for (name, value) in &outcome.metrics {
        let _ = writeln!(
            out,
            "{workload:<13} {name:<44} {value:>16.4} {}",
            unit_of(name)
        );
    }
    for note in &outcome.notes {
        let _ = writeln!(out, "{workload:<13} # {note}");
    }
    for reason in &outcome.invalid {
        let _ = writeln!(out, "{workload:<13} ! INVALID: {reason}");
    }
}

/// Environment facts recorded with every report.
fn environment(plan: &CpuPlan, busy: usize) -> Vec<(&'static str, String)> {
    let text = |path: &str| {
        std::fs::read_to_string(path)
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into())
    };
    // A checkout the driver runs in is not a git repository.
    let sha = match text(".git/HEAD") {
        head if head.starts_with("ref: ") => text(&format!(".git/{}", &head[5..])),
        head => head,
    };
    vec![
        ("nproc", plan.nproc.to_string()),
        ("pinned", plan.pinned.to_string()),
        ("generator_cpus", format!("{:?}", plan.generator)),
        ("server_cpus", format!("{:?}", plan.server)),
        ("clients", plan.clients().to_string()),
        ("others_running_at_start", busy.to_string()),
        ("git_sha", sha),
        (
            "rustc",
            std::env::var("LOADBENCH_RUSTC").unwrap_or_else(|_| "unknown".into()),
        ),
    ]
}

/// Reasons the whole invocation's numbers should not be published.
fn environment_problems(plan: &CpuPlan, busy: usize) -> Vec<String> {
    let mut problems = Vec::new();
    if !plan.pinned {
        problems.push(format!(
            "server and generator are not on separate CPUs (nproc = {})",
            plan.nproc
        ));
    }
    if busy >= plan.nproc {
        problems.push(format!(
            "{busy} other threads were running at start on {} CPUs",
            plan.nproc
        ));
    }
    problems
}

/// `--repeat`: per workload and end-to-end metric, the spread of `n` runs
/// on `n` seeds against the bound in `BENCHMARK.json`, computed as the
/// driver computes it.
fn repeat(env: &mut Env, n: usize) -> std::io::Result<bool> {
    let bounds: BTreeMap<String, f64> = std::fs::read_to_string("BENCHMARK.json")
        .ok()
        .and_then(|text| serde_json::from_str::<serde_json::Value>(&text).ok())
        .and_then(|v| {
            Some(
                v["end_to_end"]
                    .as_array()?
                    .iter()
                    .filter_map(|m| Some((m["name"].as_str()?.to_string(), m["bound"].as_f64()?)))
                    .collect(),
            )
        })
        .unwrap_or_default();
    let first_seed = env.seed;
    let mut all_within = true;
    println!(
        "{:<13} {:<22} {:>12} {:>12} {:>12} {:>9} {:>7} {:>9}",
        "workload", "metric", "median", "q1", "q3", "iqr/med", "bound", "max dev"
    );
    for workload in WORKLOADS {
        let mut series: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        let mut failed = 0;
        for i in 0..n as u64 {
            env.seed = first_seed + i;
            let outcome = run_workload(env, workload, false)?;
            failed += outcome.failed;
            eprintln!("{workload} seed {}: {}", env.seed, result_line(&outcome));
            for (name, value) in outcome.metrics {
                series.entry(name).or_default().push(value);
            }
        }
        for (name, _) in END_TO_END {
            let values = &series[name];
            let med = stats::median(values);
            let (q1, q3) = stats::quartiles(values).expect("n >= 2");
            let spread = (q3 - q1) / med;
            let max_dev = values
                .iter()
                .map(|v| (v - med).abs() / med)
                .fold(0.0, f64::max);
            let bound = bounds.get(*name).copied().unwrap_or(f64::NAN);
            // setup_s is exempt from the spread rule; the rest should sit
            // under a third of their bound to leave room for a noisier box.
            let verdict = if *name == "setup_s" {
                ""
            } else if spread > bound {
                all_within = false;
                "  OVER BOUND"
            } else if spread > bound / 3.0 {
                "  over bound/3"
            } else {
                ""
            };
            println!(
                "{workload:<13} {name:<22} {med:>12.4} {q1:>12.4} {q3:>12.4} {spread:>9.4} \
                 {bound:>7.3} {max_dev:>9.4}{verdict}"
            );
        }
        if failed > 0 {
            all_within = false;
            println!("{workload:<13} ! {failed} requests failed");
        }
    }
    env.seed = first_seed;
    Ok(all_within)
}

fn main() -> ExitCode {
    let args = match Args::parse() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: run.sh [--workload W --trace 0|1] [--seed N] [--seconds S] \
                 [--repeat N] [--quick]"
            );
            return ExitCode::from(2);
        }
    };
    if !args.bin.is_file() {
        eprintln!("error: no server binary at {}", args.bin.display());
        return ExitCode::from(2);
    }
    let busy = others_running();
    let plan = CpuPlan::apply();
    let mut problems = environment_problems(&plan, busy);
    // Alive until `main` returns: no CPU of either half halts meanwhile.
    let mut all_cpus: Vec<usize> = plan.generator.iter().chain(&plan.server).copied().collect();
    all_cpus.dedup();
    let _awake = KeepAwake::start(&all_cpus).unwrap_or_else(|(awake, refused)| {
        problems.push(format!(
            "{refused} of {} CPUs have no idle-priority spinner and may halt between requests",
            all_cpus.len()
        ));
        awake
    });
    let facts = environment(&plan, busy);
    for (key, value) in &facts {
        eprintln!("env {key} = {value}");
    }
    for p in &problems {
        eprintln!("warning: {p}");
    }
    let mut env = Env {
        bin: args.bin.clone(),
        out: args.out.clone(),
        plan,
        seed: args.seed,
        seconds: args.seconds.unwrap_or(if args.quick { 2.0 } else { 10.0 }),
    };
    let trace_path = args.out.join("trace.json");

    let result = if let Some(n) = args.repeat {
        repeat(&mut env, n).map(|within| within && problems.is_empty())
    } else if let Some(workload) = &args.workload {
        // Contract mode: details on stderr, the result object last on stdout.
        run_workload(&env, workload, args.trace).and_then(|outcome| {
            print_table(&mut std::io::stderr(), workload, &outcome);
            if args.trace {
                trace::write_json(
                    &trace_path,
                    env.seed,
                    &[(workload.as_str(), &outcome.spans)],
                )?;
            }
            println!("{}", result_line(&outcome));
            Ok(outcome.failed == 0)
        })
    } else {
        suite(&env, &args, &facts, &problems, &trace_path)
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(1)
        }
    }
}

/// All four workloads, wire then traced; every metric printed by name.
/// Writes `out/results.json` unless the run is a `--quick` smoke run or
/// is invalid — numbers from either are not for keeping.
fn suite(
    env: &Env,
    args: &Args,
    facts: &[(&str, String)],
    problems: &[String],
    trace_path: &std::path::Path,
) -> std::io::Result<bool> {
    let mut ok = problems.is_empty();
    let mut results = Vec::new();
    let mut traces: Vec<(&str, Vec<Span>)> = Vec::new();
    println!(
        "load shape: read workloads closed loop over {} keep-alive connection(s); \
         ingest_mixed open loop, latency from due time; seed {}, {} s per wire run{}",
        env.plan.clients(),
        env.seed,
        env.seconds,
        if args.quick {
            " (QUICK: smoke only)"
        } else {
            ""
        }
    );
    for workload in WORKLOADS {
        for trace in [false, true] {
            let outcome = run_workload(env, workload, trace)?;
            print_table(&mut std::io::stdout(), workload, &outcome);
            ok &= outcome.failed == 0 && outcome.invalid.is_empty();
            results.push(format!(
                "{{\"workload\":\"{workload}\",\"trace\":{},\"result\":{}}}",
                u8::from(trace),
                result_line(&outcome)
            ));
            if trace {
                traces.push((workload, outcome.spans));
            }
        }
    }
    let sections: Vec<(&str, &[Span])> = traces.iter().map(|(w, s)| (*w, s.as_slice())).collect();
    trace::write_json(trace_path, env.seed, &sections)?;
    println!("trace: {}", trace_path.display());
    if !ok {
        println!("run failed or invalid: numbers above are not published");
    } else if args.quick {
        println!("quick run: numbers above are a smoke test, not published");
    } else {
        let environment: Vec<String> = facts
            .iter()
            .map(|(k, v)| format!("\"{k}\":\"{}\"", v.replace('"', "'")))
            .collect();
        let path = args.out.join("results.json");
        std::fs::write(
            &path,
            format!(
                "{{\"quick\":false,\"seed\":{},\"seconds\":{},\"environment\":{{{}}},\"runs\":[\n{}\n]}}\n",
                env.seed,
                env.seconds,
                environment.join(","),
                results.join(",\n")
            ),
        )?;
        println!("results: {}", path.display());
    }
    Ok(ok)
}
