//! Crash-recovery suite for the durability subsystem: drop a durable
//! pipeline at various points in its ingest/checkpoint lifecycle,
//! reopen the data directory, and require the recovered pipeline to be
//! **byte-identical** to the one that crashed — the 58-query parity
//! corpus is the oracle, serialized result bytes the yardstick.
//!
//! Dropping the `ChatIyp` without calling `checkpoint` is the honest
//! crash model here: nothing flushes on drop, so the WAL (fsync=always)
//! is the only thing recovery can use — exactly the state a `kill -9`
//! leaves behind (the process-level variant lives in
//! `tests/kill_recover.rs` at the workspace root).

use chatiyp_core::{ChatIyp, ChatIypConfig, DurabilityConfig, DurabilityError, RecoveryReport};
use iyp_cypher::corpus::PARITY_QUERIES;
use iyp_data::{generate, growth_batch, IypConfig};
use iyp_graphdb::wal::{Wal, WalConfig};
use iyp_graphdb::{props, DeltaBatch, WalError};
use iyp_llm::LmConfig;
use std::fs;
use std::path::{Path, PathBuf};

/// A scratch data directory under the OS temp dir, wiped per test.
fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("chatiyp_durability_recovery_{name}"));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn config() -> ChatIypConfig {
    ChatIypConfig {
        lm: LmConfig {
            seed: 42,
            skill: 1.0,
            variety: 0.0,
        },
        ..Default::default()
    }
}

/// Opens (or recovers) a durable pipeline over `dir`.
fn open(dir: &Path) -> (ChatIyp, RecoveryReport) {
    ChatIyp::open_durable(config(), &DurabilityConfig::new(dir), || {
        generate(&IypConfig::tiny())
    })
    .expect("open durable pipeline")
}

/// Ingests one deterministic growth batch built against the live graph.
fn grow(chat: &ChatIyp, seed: u64) {
    let batch = {
        let handle = chat.resolve();
        growth_batch(handle.snapshot.graph(), seed, 4)
    };
    chat.ingest(&batch).expect("ingest growth batch");
}

/// The parity corpus, serialized: one string per query, byte-stable for
/// equal graphs.
fn corpus_bytes(chat: &ChatIyp) -> Vec<String> {
    let handle = chat.resolve();
    PARITY_QUERIES
        .iter()
        .map(|q| match iyp_cypher::query(handle.snapshot.graph(), q) {
            Ok(r) => serde_json::to_string(&r).unwrap(),
            Err(e) => format!("error: {e}"),
        })
        .collect()
}

fn version(chat: &ChatIyp) -> u64 {
    chat.snapshot().version()
}

/// The WAL segment files in `dir`, sorted by name (= by first version).
fn wal_segments(dir: &Path) -> Vec<PathBuf> {
    let mut segs: Vec<PathBuf> = fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("wal-") && n.ends_with(".log"))
        })
        .collect();
    segs.sort();
    segs
}

#[test]
fn crash_without_checkpoint_replays_the_whole_wal_byte_identically() {
    let dir = fresh_dir("no_checkpoint");
    let (chat, rep) = open(&dir);
    assert_eq!(rep.replayed, 0);
    assert_eq!(rep.checkpoint_version, None);

    for seed in 0..5 {
        grow(&chat, seed);
    }
    let want = corpus_bytes(&chat);
    assert_eq!(version(&chat), 6, "5 ingests on top of the base");
    drop(chat); // crash: no checkpoint, no flush — only the WAL survives

    let (recovered, rep) = open(&dir);
    assert_eq!(rep.checkpoint_version, None);
    assert_eq!(rep.replayed, 5, "every ingest replays");
    assert_eq!(version(&recovered), 6, "version sequence resumes");
    assert_eq!(
        corpus_bytes(&recovered),
        want,
        "recovered corpus bytes differ from the pre-crash pipeline"
    );
}

#[test]
fn checkpoint_bounds_replay_to_the_tail() {
    let dir = fresh_dir("mid_stream_checkpoint");
    let (chat, _) = open(&dir);
    for seed in 0..3 {
        grow(&chat, seed);
    }
    let report = chat.checkpoint().expect("checkpoint");
    assert_eq!(report.version, 4);
    assert_eq!(
        report.truncated_segments.len(),
        1,
        "the fully-covered active segment goes away"
    );
    assert_eq!(report.wal.segments, 0);

    for seed in 3..5 {
        grow(&chat, seed);
    }
    let want = corpus_bytes(&chat);
    drop(chat);

    let (recovered, rep) = open(&dir);
    assert_eq!(rep.checkpoint_version, Some(4));
    assert_eq!(rep.replayed, 2, "only post-checkpoint records replay");
    assert_eq!(version(&recovered), 6);
    assert_eq!(corpus_bytes(&recovered), want);
}

#[test]
fn fresh_directory_boots_identically_to_the_in_memory_pipeline() {
    let dir = fresh_dir("fresh_boot");
    let (chat, rep) = open(&dir);
    assert_eq!(rep.checkpoint_version, None);
    assert_eq!(rep.base_version, 1);
    assert_eq!(rep.replayed, 0);
    assert_eq!(rep.torn_tail_bytes, 0);

    let memory_only = ChatIyp::new(generate(&IypConfig::tiny()), config());
    assert_eq!(
        corpus_bytes(&chat),
        corpus_bytes(&memory_only),
        "a durable fresh boot must serve the same bytes as ChatIyp::new"
    );
}

#[test]
fn torn_final_frame_is_dropped_and_the_rest_replays() {
    let dir = fresh_dir("torn_tail");
    {
        let (chat, _) = open(&dir);
        grow(&chat, 0);
        grow(&chat, 1);
    }
    // Fake a crash mid-append: a frame header promising 100 payload
    // bytes, followed by only 10 — the torn write a power cut leaves.
    let seg = wal_segments(&dir).pop().expect("one active segment");
    let mut bytes = fs::read(&seg).unwrap();
    bytes.extend_from_slice(&100u32.to_le_bytes());
    bytes.extend_from_slice(&0u32.to_le_bytes());
    bytes.extend_from_slice(&[0xAB; 10]);
    fs::write(&seg, &bytes).unwrap();

    let (recovered, rep) = open(&dir);
    assert_eq!(rep.torn_tail_bytes, 18, "header + partial payload dropped");
    assert_eq!(rep.replayed, 2, "intact frames before the tear replay");
    assert_eq!(version(&recovered), 3);
}

#[test]
fn interior_corruption_refuses_to_boot() {
    let dir = fresh_dir("interior_corruption");
    {
        let (chat, _) = open(&dir);
        grow(&chat, 0);
        grow(&chat, 1);
    }
    // Flip one payload byte inside the *first* frame: unlike a torn
    // tail, silent mid-log damage must never be skipped over.
    let seg = wal_segments(&dir).pop().expect("one active segment");
    let mut bytes = fs::read(&seg).unwrap();
    bytes[20] ^= 0x01;
    fs::write(&seg, &bytes).unwrap();

    let err = match ChatIyp::open_durable(config(), &DurabilityConfig::new(&dir), || {
        generate(&IypConfig::tiny())
    }) {
        Ok(_) => panic!("corrupt interior frame must refuse recovery"),
        Err(e) => e,
    };
    match err {
        DurabilityError::Wal(WalError::Corrupt { path, .. }) => {
            assert_eq!(path, seg, "the error names the damaged segment");
        }
        other => panic!("expected WalError::Corrupt, got: {other}"),
    }
}

#[test]
fn record_appended_but_never_published_replays_on_boot() {
    let dir = fresh_dir("append_then_crash");
    {
        let (chat, _) = open(&dir);
        grow(&chat, 0); // version 2
    }
    // The crash window the append-before-publish ordering creates: the
    // record is on disk but the publish never happened. Recovery must
    // treat the durable record as the truth.
    {
        let opened = Wal::open(&dir, WalConfig::default()).unwrap();
        let mut wal = opened.wal;
        let mut batch = DeltaBatch::new();
        batch.add_node(
            ["AS"],
            props!("asn" => 900_000i64, "name" => "Phantom Networks"),
        );
        wal.append(3, &batch).unwrap();
    }

    let (recovered, rep) = open(&dir);
    assert_eq!(rep.replayed, 2, "the unpublished record replays too");
    assert_eq!(version(&recovered), 3);
    let handle = recovered.resolve();
    let r = iyp_cypher::query(
        handle.snapshot.graph(),
        "MATCH (a:AS {asn: 900000}) RETURN a.name",
    )
    .unwrap();
    assert_eq!(
        r.single_value().and_then(|v| v.as_str().map(String::from)),
        Some("Phantom Networks".to_string()),
        "the durable-but-unpublished node must be queryable after recovery"
    );
}

#[test]
fn recovery_is_idempotent_across_repeated_boots() {
    let dir = fresh_dir("repeated_boots");
    {
        let (chat, _) = open(&dir);
        for seed in 0..3 {
            grow(&chat, seed);
        }
    }
    let (first, rep) = open(&dir);
    assert_eq!(rep.replayed, 3);
    let want = corpus_bytes(&first);
    drop(first);
    // Booting again (no new writes) replays the same records to the
    // same result — recovery never compounds.
    let (second, rep) = open(&dir);
    assert_eq!(rep.replayed, 3);
    assert_eq!(version(&second), 4);
    assert_eq!(corpus_bytes(&second), want);
}
