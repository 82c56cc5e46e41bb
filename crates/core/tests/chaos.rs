//! Chaos suite: a seeded fault schedule driven through the full
//! pipeline. The invariants, in order of importance:
//!
//! 1. **No panics** — every fault surfaces as a degraded-but-valid
//!    response or a typed error, never an abort.
//! 2. **No wrong-but-confident answers** — any response whose stable
//!    fields differ from the healthy baseline must carry a `degraded`
//!    marker. A response without the marker must be byte-identical to
//!    what a never-faulted pipeline serves.
//! 3. **Byte-identical recovery** — once the fault window closes, the
//!    previously-faulted pipeline answers exactly like a pipeline that
//!    never saw a fault (failures are never cached, so no poison
//!    lingers).

use chatiyp_core::{
    ChatIyp, ChatIypConfig, ChatResponse, CypherExecError, FaultPlan, FaultPoint, FaultRule,
    ResilienceConfig, RetryPolicy,
};
use iyp_cypher::corpus::PARITY_QUERIES;
use iyp_data::{generate, IypConfig};
use iyp_llm::LmConfig;
use std::sync::Arc;
use std::time::Duration;

/// Questions spanning every route: Cypher, vector fallback, and failed.
const QUESTIONS: &[&str] = &[
    "What is the name of AS2497?",
    "How many ASes are registered in Japan?",
    "In which country is AS2497 registered?",
    "What is the percentage of Japan's population in AS2497?",
    "Tell me everything interesting about IIJ in Japan",
    "Tell me everything interesting please",
];

fn oracle_lm() -> LmConfig {
    LmConfig {
        seed: 42,
        skill: 1.0,
        variety: 0.0,
    }
}

/// A pipeline with no fault plan — the healthy baseline.
fn healthy() -> ChatIyp {
    ChatIyp::new(
        generate(&IypConfig::tiny()),
        ChatIypConfig {
            lm: oracle_lm(),
            ..Default::default()
        },
    )
}

/// Zero-wait retries: chaos runs exercise the retry *logic* without
/// sleeping through real backoff.
fn instant_retry() -> RetryPolicy {
    RetryPolicy {
        base: Duration::ZERO,
        cap: Duration::ZERO,
        ..Default::default()
    }
}

/// A pipeline sharing `plan` as its fault schedule.
fn faulted(plan: &Arc<FaultPlan>) -> ChatIyp {
    ChatIyp::new(
        generate(&IypConfig::tiny()),
        ChatIypConfig {
            lm: oracle_lm(),
            resilience: ResilienceConfig {
                faults: Some(Arc::clone(plan)),
                retry: instant_retry(),
                ..Default::default()
            },
            ..Default::default()
        },
    )
}

/// The response's stable fields as JSON — everything except timings.
fn stable(r: &ChatResponse) -> String {
    let serde_json::Value::Map(entries) = serde_json::to_value(r) else {
        panic!("response is not an object")
    };
    let kept: Vec<(String, serde_json::Value)> = entries
        .into_iter()
        .filter(|(k, _)| k != "timings")
        .collect();
    serde_json::Value::Map(kept).to_string()
}

/// Baseline stable-JSON per question from a never-faulted pipeline.
fn baseline() -> Vec<String> {
    let chat = healthy();
    QUESTIONS.iter().map(|q| stable(&chat.ask(q))).collect()
}

/// Advances the plan's per-point call counter past the fault window so
/// the next pipeline call sees a healthy world. Points only reached on
/// some routes (e.g. `embed`) might not burn through their window from
/// asks alone; the counter is the schedule's clock, so ticking it
/// directly is equivalent to traffic passing.
fn close_window(plan: &FaultPlan, point: FaultPoint, until: u64) {
    while plan.calls(point) < until {
        let _ = plan.check(point);
    }
}

const WINDOW: u64 = 60;

/// One deterministic outage window per fault point: during the window
/// every response is either baseline-identical or marked degraded;
/// after it, behavior recovers byte-identically and unmarked.
#[test]
fn outage_windows_degrade_honestly_and_recover_byte_identically() {
    let golden = baseline();
    for point in FaultPoint::ALL {
        let plan = FaultPlan::new(0xC0FFEE)
            .rule(point, FaultRule::window(0, WINDOW))
            .into_arc();
        let chat = faulted(&plan);

        // Fault phase: two full rounds under the outage.
        for round in 0..2 {
            for (i, q) in QUESTIONS.iter().enumerate() {
                let r = chat.ask(q);
                if r.degraded.is_none() {
                    assert_eq!(
                        stable(&r),
                        golden[i],
                        "unmarked response diverged from baseline under {point} outage \
                         (round {round}): {q}"
                    );
                }
            }
        }

        // The schedule clears...
        close_window(&plan, point, WINDOW);

        // ...and the pipeline recovers exactly: byte-identical stable
        // fields, no degraded marker, across every question.
        for (i, q) in QUESTIONS.iter().enumerate() {
            let r = chat.ask(q);
            assert!(
                r.degraded.is_none(),
                "degraded marker survived past the {point} window: {q} → {:?}",
                r.degraded
            );
            assert_eq!(
                stable(&r),
                golden[i],
                "recovery not byte-identical after {point} outage: {q}"
            );
        }
    }
}

/// All four points flaky at once under a fixed seed: ten rounds of the
/// question set never panic, and unmarked responses always match the
/// baseline (retried-to-success is invisible; exhausted is marked).
#[test]
fn seeded_flaky_schedule_never_serves_wrong_but_confident_answers() {
    let golden = baseline();
    let mut plan = FaultPlan::new(0xBADC0DE);
    for point in FaultPoint::ALL {
        plan = plan.rule(point, FaultRule::flaky(0.3));
    }
    let plan = plan.into_arc();
    let chat = faulted(&plan);

    let mut degraded_seen = 0u32;
    for _ in 0..10 {
        for (i, q) in QUESTIONS.iter().enumerate() {
            let r = chat.ask(q);
            match r.degraded {
                None => assert_eq!(
                    stable(&r),
                    golden[i],
                    "unmarked response diverged under flaky faults: {q}"
                ),
                Some(_) => degraded_seen += 1,
            }
        }
    }
    // At 30% per call the schedule must actually bite sometimes —
    // otherwise this test exercises nothing.
    assert!(
        degraded_seen > 0,
        "flaky schedule never degraded a response; faults not reaching the pipeline?"
    );
}

/// The `/cypher` surface under an execution outage: the whole parity
/// corpus answers typed `Unavailable` errors during the window (never a
/// panic, never a wrong result), then replays byte-identically against
/// direct engine execution once the window closes.
#[test]
fn parity_corpus_replays_byte_identically_after_exec_outage() {
    let exec_window = 10u64;
    let plan = FaultPlan::new(0x5EED)
        .rule(FaultPoint::Exec, FaultRule::window(0, exec_window))
        .into_arc();
    let chat = faulted(&plan);
    let handle = chat.resolve();
    let limits = || iyp_cypher::ExecLimits::timeout(Duration::from_secs(5));

    // During the outage every execution is refused with a typed error.
    for q in PARITY_QUERIES.iter().take(exec_window as usize) {
        match chat.execute_cypher_with_limits(&handle.snapshot, q, limits()) {
            Err(CypherExecError::Unavailable(e)) => {
                assert!(e.to_string().contains("injected fault"), "{e}");
            }
            other => panic!("expected Unavailable during exec outage for {q}, got {other:?}"),
        }
    }

    close_window(&plan, FaultPoint::Exec, exec_window);

    // Recovery: all 58 corpus queries byte-identical to direct
    // execution — refused executions left nothing in the cache.
    for q in PARITY_QUERIES {
        let direct = iyp_cypher::query(handle.snapshot.graph(), q).expect("corpus query runs");
        let via = chat
            .execute_cypher_with_limits(&handle.snapshot, q, limits())
            .unwrap_or_else(|e| panic!("post-outage execution failed for {q}: {e}"));
        assert_eq!(
            serde_json::to_string(&*via).unwrap(),
            serde_json::to_string(&direct).unwrap(),
            "post-outage result diverged from direct execution: {q}"
        );
    }
}

/// An already-expired deadline: every stage falls through without
/// panicking and the response is marked, never silently partial.
#[test]
fn zero_budget_degrades_every_response_without_panicking() {
    let chat = ChatIyp::new(
        generate(&IypConfig::tiny()),
        ChatIypConfig {
            lm: oracle_lm(),
            resilience: ResilienceConfig {
                ask_deadline: Some(Duration::ZERO),
                retry: instant_retry(),
                ..Default::default()
            },
            ..Default::default()
        },
    );
    for q in QUESTIONS {
        let r = chat.ask(q);
        assert_eq!(
            r.degraded,
            Some("budget-exhausted"),
            "zero budget must mark {q}: {:?}",
            r.degraded
        );
        assert!(!r.answer.is_empty(), "empty answer under zero budget: {q}");
    }
}

/// The resilience layer switched off entirely: the fault plan is inert
/// and responses match the healthy baseline exactly.
#[test]
fn disabled_resilience_ignores_the_fault_plan() {
    let golden = baseline();
    let plan = FaultPlan::new(1)
        .rule(FaultPoint::LlmTranslate, FaultRule::window(0, u64::MAX))
        .into_arc();
    let chat = ChatIyp::new(
        generate(&IypConfig::tiny()),
        ChatIypConfig {
            lm: oracle_lm(),
            resilience: ResilienceConfig {
                faults: Some(plan),
                ..ResilienceConfig::disabled()
            },
            ..Default::default()
        },
    );
    for (i, q) in QUESTIONS.iter().enumerate() {
        let r = chat.ask(q);
        assert!(r.degraded.is_none());
        assert_eq!(
            stable(&r),
            golden[i],
            "disabled layer changed behavior: {q}"
        );
    }
}

/// A WAL outage window on a durable pipeline: ingests inside the window
/// fail with a typed durability error and publish **nothing** — no torn
/// state in memory, no partial frame on disk. Once the window closes
/// ingest succeeds again, and a reboot recovers exactly the acknowledged
/// ingests — the durable-write-or-nothing contract, end to end.
#[test]
fn wal_outage_window_fails_ingest_cleanly_and_recovery_sees_only_acks() {
    use chatiyp_core::{DurabilityConfig, DurabilityError, IngestError};

    let dir = std::env::temp_dir().join("chatiyp_chaos_wal_outage");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    // First two WAL appends fault, everything after succeeds.
    let open = || {
        ChatIyp::open_durable(
            ChatIypConfig {
                lm: oracle_lm(),
                resilience: ResilienceConfig {
                    faults: Some(
                        FaultPlan::new(9)
                            .rule(FaultPoint::Wal, FaultRule::window(0, 2))
                            .into_arc(),
                    ),
                    ..Default::default()
                },
                ..Default::default()
            },
            &DurabilityConfig::new(&dir),
            || generate(&IypConfig::tiny()),
        )
    };
    let (chat, _) = open().expect("open durable pipeline");

    let batch = {
        let handle = chat.resolve();
        iyp_data::growth_batch(handle.snapshot.graph(), 0, 4)
    };
    for attempt in 0..2 {
        match chat.ingest(&batch) {
            Err(IngestError::Durability(DurabilityError::Fault(_))) => {}
            other => panic!("attempt {attempt}: expected a WAL fault, got {other:?}"),
        }
        assert_eq!(
            chat.snapshot().version(),
            1,
            "a failed WAL append must publish nothing"
        );
    }
    // Window closed: the identical batch now lands.
    chat.ingest(&batch).expect("ingest after the outage");
    assert_eq!(chat.snapshot().version(), 2);
    let stats = chat.durability_stats().expect("durable pipeline has stats");
    assert!(stats.wal_bytes > 0, "the acknowledged ingest is on disk");
    drop(chat);

    // Reboot: exactly the one acknowledged ingest replays — the two
    // faulted attempts left no trace.
    let (recovered, report) = open().expect("recover after the outage");
    assert_eq!(report.replayed, 1);
    assert_eq!(recovered.snapshot().version(), 2);
}
