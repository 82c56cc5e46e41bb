//! The traced run: a sample of each workload's requests replayed
//! in-process, once *whole* and once *decomposed*.
//!
//! Whole is the real request path with no spans inside:
//! `read_request_buffered` on the recorded bytes → `api::handle` →
//! `Response::to_bytes_conn`. Decomposed walks the same path through the
//! layers' public functions with a span round each call. The two run
//! against separate but identically built and identically fed pipelines,
//! so both see the same cache state, and they must produce the same
//! answer. Self times of the decomposed run are the per-layer figures;
//! how far their sum misses the whole call is reported, not hidden.
//!
//! The decomposed path mirrors only glue — the order in which `api` and
//! `pipeline` call other layers. Every timed call lands in the layer's own
//! code, so a change inside a layer moves its figure here too.

use crate::metrics::OP_TYPES;
use crate::oracle;
use crate::stats::{median, median_u64};
use crate::trace::{breakdown, Recorder, Span};
use chatiyp_core::{ChatIyp, ChatIypConfig, ContextChunk, DurabilityConfig, RetrievalIndex, Route};
use chatiyp_server::api::{
    handle, AppState, AskRequest, AskResponse, CypherRequest, HTTP_METRIC, HTTP_REQUESTS_METRIC,
};
use chatiyp_server::http::read_request_buffered;
use chatiyp_server::Response;
use iyp_cypher::{compile_query, execute_prepared_with_limits, ExecLimits, Params, QueryResult};
use iyp_graphdb::{dbhits, snapshot, DeltaBatch, FsyncPolicy, GraphSnapshot, GraphStore, Wal};
use iyp_llm::{generate_answer, EntityCatalog, Reranker, SimLm, Translator};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What a traced replay produced.
#[derive(Default)]
pub struct Replay {
    /// Per-layer metrics this replay could measure (others stay 0).
    pub metrics: BTreeMap<String, f64>,
    /// Operation types whose Σ self misses the whole call by over 10 %.
    pub findings: Vec<String>,
    /// Every span recorded.
    pub spans: Vec<Span>,
    /// Replayed operations.
    pub attempted: u64,
    /// Operations whose decomposed answer differed from the whole call's.
    pub failed: u64,
    /// Median whole-call time of the workload's read requests, ns.
    pub whole_read_ns: f64,
}

/// The pipeline config a server pinned to `server_cpus` CPUs runs with:
/// the default, whose `query_parallelism` is the CPUs it can see.
fn server_config(server_cpus: usize) -> ChatIypConfig {
    ChatIypConfig {
        query_parallelism: server_cpus.max(1),
        ..ChatIypConfig::default()
    }
}

fn memory_state(config: &ChatIypConfig) -> AppState {
    AppState::ready(Arc::new(ChatIyp::new(
        oracle::default_dataset(),
        config.clone(),
    )))
}

/// One whole call: bytes in, bytes out, no spans inside.
fn whole_call(state: &AppState, raw: &[u8]) -> (u64, Vec<u8>) {
    let t0 = Instant::now();
    let request = read_request_buffered(&mut &raw[..]).expect("recorded request parses");
    let response = handle(state, &request);
    let bytes = response.to_bytes_conn(true);
    let ns = t0.elapsed().as_nanos() as u64;
    (ns, bytes.to_vec())
}

/// Running tallies of one replay session.
struct Session {
    rec: Recorder,
    /// Whole-call times by op type.
    whole_ns: BTreeMap<&'static str, Vec<u64>>,
    resp_bytes: Vec<u64>,
    attempted: u64,
    failed: u64,
    /// Cold executions: (db hits, rows).
    executions: Vec<(u64, u64)>,
    compile_attempts: u64,
    compiled: u64,
}

impl Session {
    fn new() -> Session {
        Session {
            rec: Recorder::default(),
            whole_ns: BTreeMap::new(),
            resp_bytes: Vec::new(),
            attempted: 0,
            failed: 0,
            executions: Vec::new(),
            compile_attempts: 0,
            compiled: 0,
        }
    }

    fn note_whole(&mut self, kind: &'static str, ns: u64, response: &[u8]) {
        self.whole_ns.entry(kind).or_default().push(ns);
        self.resp_bytes.push(response.len() as u64);
        self.attempted += 1;
    }

    /// Parse → compile → execute through the three public entry points a
    /// cache miss goes through, each under its own span.
    fn execute_cold(
        &mut self,
        snap: &GraphSnapshot,
        query: &str,
        limits: ExecLimits,
    ) -> Result<QueryResult, iyp_cypher::CypherError> {
        let parsed = self
            .rec
            .span("cypher.parser", || iyp_cypher::parse(query))?;
        let compiled = self.rec.span("cypher.compile", || compile_query(&parsed));
        self.compile_attempts += 1;
        self.compiled += u64::from(compiled.is_some());
        let hits0 = dbhits::current();
        let result = self.rec.span("cypher.exec", || {
            execute_prepared_with_limits(
                snap.graph(),
                &parsed,
                compiled.as_ref(),
                &Params::new(),
                limits,
            )
        })?;
        self.executions
            .push((dbhits::current() - hits0, result.rows.len() as u64));
        Ok(result)
    }

    /// `POST /cypher`, decomposed. `miss` replays the path a result-cache
    /// miss takes; otherwise the query goes through the shared cache.
    fn cypher_decomposed(&mut self, chat: &ChatIyp, raw: &[u8], miss: bool) -> Vec<u8> {
        let kind = if miss {
            "op.cypher_miss"
        } else {
            "op.cypher_hit"
        };
        let (_, root) = self.rec.begin_op(kind);
        let request = self.rec.span("server.http.parse", || {
            read_request_buffered(&mut &raw[..]).expect("recorded request parses")
        });
        let api = self.rec.enter("server.api");
        let t0 = Instant::now();
        let handle = self.rec.span("core.pipeline.resolve", || chat.resolve());
        let snap = &handle.snapshot;
        let c: CypherRequest = serde_json::from_slice(&request.body).expect("body decodes");
        let limits = ExecLimits::timeout(Duration::from_secs(2))
            .with_parallelism(chat.config().query_parallelism);
        let body = if miss {
            let result = self
                .execute_cold(snap, &c.query, limits)
                .expect("workload query runs");
            self.rec.span("server.api.serialize", || {
                serde_json::to_string(&result).expect("result serializes")
            })
        } else {
            let result = self.rec.span("core.cache", || {
                chat.execute_cypher_with_limits(snap, &c.query, limits)
                    .expect("workload query runs")
            });
            self.rec.span("server.api.serialize", || {
                serde_json::to_string(&*result).expect("result serializes")
            })
        };
        let response = Response::json(200, body);
        record_http(chat, "/cypher", t0);
        self.rec.exit(api);
        let bytes = self
            .rec
            .span("server.http.write", || response.to_bytes_conn(true));
        self.rec.exit(root);
        bytes.to_vec()
    }
}

/// The two registry writes `api::handle` ends every request with.
fn record_http(chat: &ChatIyp, path: &'static str, t0: Instant) {
    let registry = chat.registry();
    registry.observe(HTTP_METRIC, &[("path", path)], t0.elapsed());
    registry.inc(
        HTTP_REQUESTS_METRIC,
        &[("path", path), ("status", "200")],
        1,
    );
}

/// Per-layer timings: (metric, span, op types by prefix). The metric is the
/// median inclusive time of the span over the operations of those types
/// that entered it, in the unit its name ends with.
const TIMINGS: &[(&str, &str, &str)] = &[
    ("server.http.parse_us", "server.http.parse", "op."),
    ("server.http.write_us", "server.http.write", "op."),
    ("server.api.handle_us", "server.api", "op."),
    ("core.cache.hit_us", "core.cache", "op."),
    ("cypher.parser.parse_us", "cypher.parser", "op."),
    ("cypher.compile.compile_us", "cypher.compile", "op."),
    ("cypher.exec.execute_us", "cypher.exec", "op."),
    ("llm.text2cypher.translate_us", "llm.text2cypher", "op.ask"),
    ("core.index.retrieve_us", "core.index", "op.ask"),
    ("embed.embedder.embed_us", "embed.embedder", "op.ask"),
    ("embed.docs.search_us", "embed.docs", "op.ask"),
    ("llm.rerank.rerank_us", "llm.rerank", "op.ask"),
    ("llm.nlg.generate_us", "llm.nlg", "op.ask"),
    ("core.pipeline.ask_us", "core.pipeline", "op.ask"),
    (
        "core.pipeline.route_cypher_p50_us",
        "core.pipeline",
        "op.ask_cypher",
    ),
    (
        "core.pipeline.route_vector_p50_us",
        "core.pipeline",
        "op.ask_vector",
    ),
    (
        "server.api.ingest_decode_us",
        "server.api.ingest_decode",
        "op.ingest",
    ),
    ("graphdb.page.clone_us", "graphdb.page", "op.ingest"),
    ("graphdb.delta.apply_us", "graphdb.delta", "op.ingest"),
    ("iyp.describe.derive_us", "iyp.describe", "op.ingest"),
    ("core.index.apply_delta_us", "core.index", "op.ingest"),
    ("graphdb.store.publish_us", "graphdb.store", "op.ingest"),
    ("core.pipeline.ingest_us", "core.pipeline", "op.ingest"),
    (
        "graphdb.snapshot.save_ms",
        "graphdb.snapshot.save",
        "op.checkpoint",
    ),
    (
        "graphdb.snapshot.load_ms",
        "graphdb.snapshot.load",
        "op.recovery",
    ),
];

/// Per-layer self times: (metric, spans billed together, op types by
/// prefix) — the median over operations that entered the first span.
const SELF_TIMES: &[(&str, &[&str], &str)] = &[
    (
        "server.api.self_us",
        &["server.api", "server.api.serialize"],
        "op.",
    ),
    ("core.pipeline.self_us", &["core.pipeline"], "op.ask"),
    (
        "core.pipeline.ingest_self_us",
        &["core.pipeline"],
        "op.ingest",
    ),
];

/// Nanoseconds in the unit a timing metric's name ends with.
fn unit_ns(metric: &str) -> f64 {
    if metric.ends_with("_ms") {
        1e6
    } else {
        1e3
    }
}

impl Session {
    /// Closes the session: every timing in [`TIMINGS`] and [`SELF_TIMES`],
    /// the executor's counts, and the whole-versus-decomposed comparison
    /// per op type. Counts only a workload knows are added by its replay.
    fn finish(self) -> Replay {
        let span_cost_ns = Recorder::calibrate();
        let spans = self.rec.into_spans();
        let ops = breakdown(&spans);
        let mut metrics = BTreeMap::new();
        let mut set = |name: &str, value: f64| {
            metrics.insert(name.to_string(), value);
        };

        for (metric, span, kinds) in TIMINGS {
            let v: Vec<u64> = ops
                .iter()
                .filter(|op| op.kind.starts_with(kinds))
                .filter_map(|op| op.inclusive_ns.get(span).copied())
                .collect();
            set(metric, median_u64(&v) / unit_ns(metric));
        }
        for (metric, layers, kinds) in SELF_TIMES {
            let v: Vec<u64> = ops
                .iter()
                .filter(|op| op.kind.starts_with(kinds) && op.self_ns.contains_key(layers[0]))
                .map(|op| layers.iter().filter_map(|l| op.self_ns.get(l)).sum())
                .collect();
            set(metric, median_u64(&v) / unit_ns(metric));
        }
        set("server.http.resp_bytes", median_u64(&self.resp_bytes));
        if self.compile_attempts > 0 {
            set(
                "cypher.compile.compiled_share",
                self.compiled as f64 / self.compile_attempts as f64,
            );
        }
        if !self.executions.is_empty() {
            let hits: u64 = self.executions.iter().map(|e| e.0).sum();
            let rows: u64 = self.executions.iter().map(|e| e.1).sum();
            let n = self.executions.len() as f64;
            set("cypher.exec.db_hits_per_query", hits as f64 / n);
            set("cypher.exec.rows_per_query", rows as f64 / n);
            set(
                "cypher.exec.db_hits_per_row",
                hits as f64 / rows.max(1) as f64,
            );
        }

        let mut findings = Vec::new();
        let mut whole_read = Vec::new();
        for op_type in OP_TYPES {
            let kind = format!("op.{op_type}");
            let Some(whole) = self.whole_ns.get(kind.as_str()) else {
                continue;
            };
            if op_type.starts_with("cypher") || op_type.starts_with("ask") {
                whole_read.extend(whole.iter().map(|&ns| ns as f64));
            }
            let of_kind = || ops.iter().filter(|o| o.kind == kind);
            let whole_ns = median_u64(whole);
            let self_sum = median(
                &of_kind()
                    .map(|o| o.self_ns.values().sum::<u64>() as f64)
                    .collect::<Vec<_>>(),
            );
            let span_count = median(&of_kind().map(|o| o.span_count as f64).collect::<Vec<_>>());
            let gap_ns = (whole_ns - self_sum).abs();
            let unattributed = gap_ns / whole_ns.max(1.0);
            set(&format!("trace.unattributed_share.{op_type}"), unattributed);
            set(
                &format!("trace.overhead_share.{op_type}"),
                span_count * span_cost_ns / whole_ns.max(1.0),
            );
            if unattributed > 0.10 {
                findings.push(format!(
                    "{kind}: whole call {:.1} us, sum of self times {:.1} us, \
                     {:.1} us ({:.0} %) unattributed over {} ops",
                    whole_ns / 1e3,
                    self_sum / 1e3,
                    gap_ns / 1e3,
                    unattributed * 100.0,
                    whole.len()
                ));
            }
        }
        Replay {
            metrics,
            findings,
            spans,
            attempted: self.attempted,
            failed: self.failed,
            whole_read_ns: median(&whole_read),
        }
    }
}

/// Replays `/cypher` requests: `warm_up` through both pipelines unrecorded,
/// then each of `sample` whole and decomposed. With `miss`, the sample must
/// be distinct queries neither pipeline has seen (every whole call then
/// misses both cache tiers, as on the wire).
pub fn replay_cypher(
    server_cpus: usize,
    warm_up: &[Vec<u8>],
    sample: &[Vec<u8>],
    miss: bool,
) -> Replay {
    let config = server_config(server_cpus);
    let whole = memory_state(&config);
    let mirror = memory_state(&config);
    let chat = Arc::clone(mirror.chat().expect("ready state"));
    for raw in warm_up {
        whole_call(&whole, raw);
        whole_call(&mirror, raw);
    }
    let mut session = Session::new();
    let kind = if miss {
        "op.cypher_miss"
    } else {
        "op.cypher_hit"
    };
    for raw in sample {
        let (ns, want) = whole_call(&whole, raw);
        session.note_whole(kind, ns, &want);
        let got = session.cypher_decomposed(&chat, raw, miss);
        session.failed += u64::from(got != want);
    }
    session.finish()
}

/// The pieces of the pipeline `ChatIyp` keeps private, rebuilt from the
/// same config the way `ChatIyp::assemble` builds them.
struct AskMirror {
    state: AppState,
    chat: Arc<ChatIyp>,
    lm: SimLm,
    translator: Translator,
    reranker: Reranker,
}

impl AskMirror {
    fn new(config: &ChatIypConfig) -> AskMirror {
        let state = memory_state(config);
        let chat = Arc::clone(state.chat().expect("ready state"));
        let lm = SimLm::new(config.lm.clone());
        AskMirror {
            translator: Translator::new(lm.clone(), EntityCatalog::default()),
            reranker: Reranker::new(lm.clone()),
            lm,
            chat,
            state,
        }
    }
}

fn contains(haystack: &[u8], needle: &[u8]) -> bool {
    haystack.windows(needle.len()).any(|w| w == needle)
}

/// An `/ask` body up to the one field that differs between two correct
/// answers (`latency_us`, serialized last).
fn ask_comparable(body: &[u8]) -> &[u8] {
    const FIELD: &[u8] = b"\"latency_us\":";
    let cut = body
        .windows(FIELD.len())
        .rposition(|w| w == FIELD)
        .unwrap_or(body.len());
    &body[..cut]
}

/// Did the whole call's result-cache lookup hit, miss, or not happen?
#[derive(Clone, Copy, PartialEq)]
enum Lookup {
    None,
    Hit,
    Miss,
}

/// Mirror of `core::pipeline::answer_from_context` (private there).
fn answer_from_context(question: &str, ctx: &ContextChunk) -> String {
    use iyp_embed::tokenize::words;
    let q_tokens = words(question);
    let best_sentence = ctx
        .text
        .split('.')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .max_by_key(|s| {
            let s_tokens = words(s);
            q_tokens.iter().filter(|t| s_tokens.contains(t)).count()
        })
        .unwrap_or(ctx.text.as_str());
    format!(
        "Based on related IYP records about {}: {best_sentence}.",
        ctx.title
    )
}

/// What one decomposed `/ask` saw, for the route and cache tallies.
struct AskOutcome {
    response: Vec<u8>,
    translated: bool,
}

impl Session {
    /// `POST /ask`, decomposed: the default-config cascade of
    /// `ChatIyp::ask` (no retries, no faults), layer by layer. `lookup` is
    /// what the whole call's cache lookup did; on a miss the query takes
    /// the cold path under spans and the mirror's cache is then filled
    /// outside the operation, so both caches stay in step.
    fn ask_decomposed(
        &mut self,
        m: &AskMirror,
        raw: &[u8],
        vector: bool,
        lookup: Lookup,
    ) -> AskOutcome {
        let chat = &*m.chat;
        let config = chat.config();
        let kind = if vector {
            "op.ask_vector"
        } else {
            "op.ask_cypher"
        };
        let (_, root) = self.rec.begin_op(kind);
        let request = self.rec.span("server.http.parse", || {
            read_request_buffered(&mut &raw[..]).expect("recorded request parses")
        });
        let api = self.rec.enter("server.api");
        let t0 = Instant::now();
        // `handle` resolves once for every route; `/ask` resolves again.
        let _ = self.rec.span("core.pipeline.resolve", || chat.resolve());
        let ask: AskRequest = serde_json::from_slice(&request.body).expect("body decodes");
        let question = ask.question.as_str();

        let pipeline = self.rec.enter("core.pipeline");
        let t_start = Instant::now();
        let handle = self.rec.span("core.pipeline.resolve", || chat.resolve());
        let snap = &handle.snapshot;
        let translation = self.rec.span("llm.text2cypher", || {
            m.translator
                .translate_attempt_with(question, 0, handle.index.catalog())
        });
        let limits = ExecLimits::none().with_parallelism(config.query_parallelism);
        let result: Option<QueryResult> = match (&translation.cypher, lookup) {
            (None, _) => None,
            (Some(cy), Lookup::Miss) => self.execute_cold(snap, cy, limits).ok(),
            (Some(cy), _) => self
                .rec
                .span("core.cache", || {
                    chat.query_cache()
                        .get_or_execute_with_limits(snap, cy, &Params::new(), limits)
                })
                .ok()
                .map(|arc| (*arc).clone()),
        };
        let structured_ok = result.as_ref().is_some_and(|r| !r.is_empty());

        let mut contexts: Vec<ContextChunk> = Vec::new();
        if !structured_ok {
            let docs = handle.index.docs();
            let retrieve = self.rec.enter("core.index");
            let query_vec = self
                .rec
                .span("embed.embedder", || docs.embedder().embed(question));
            let hits = self.rec.span("embed.docs", || {
                docs.search_vec(&query_vec, config.vector_top_k)
            });
            let candidates: Vec<ContextChunk> = hits
                .into_iter()
                .map(|hit| ContextChunk {
                    title: hit.doc.title.clone(),
                    text: hit.doc.text.clone(),
                    score: f64::from(hit.score),
                })
                .collect();
            self.rec.exit(retrieve);
            if !candidates.is_empty() {
                let texts: Vec<String> = candidates
                    .iter()
                    .map(|c| format!("{} {}", c.title, c.text))
                    .collect();
                let ranked = self.rec.span("llm.rerank", || {
                    m.reranker.rerank(question, &texts, config.rerank_top_k)
                });
                contexts = ranked
                    .into_iter()
                    .map(|r| {
                        let mut c = candidates[r.index].clone();
                        c.score = r.score;
                        c
                    })
                    .collect();
            }
        }

        let intent = translation.intent.as_ref();
        let structured_empty = result.as_ref().is_some_and(QueryResult::is_empty);
        let (answer, route) = if structured_ok {
            let rows = result.as_ref().expect("structured_ok implies a result");
            let answer = self
                .rec
                .span("llm.nlg", || generate_answer(&m.lm, question, intent, rows));
            (answer, Route::Cypher)
        } else if structured_empty {
            let refusal = self.rec.span("llm.nlg", || {
                generate_answer(&m.lm, question, intent, &QueryResult::empty())
            });
            match contexts.first() {
                Some(best) => (
                    format!("{refusal} Closest related IYP entity: {}.", best.title),
                    Route::VectorFallback,
                ),
                None => (refusal, Route::Cypher),
            }
        } else if let Some(best) = contexts.first() {
            (answer_from_context(question, best), Route::VectorFallback)
        } else {
            let answer = self.rec.span("llm.nlg", || {
                generate_answer(&m.lm, question, intent, &QueryResult::empty())
            });
            (answer, Route::Failed)
        };
        let latency_us = t_start.elapsed().as_micros() as u64;
        self.rec.exit(pipeline);

        let body = self.rec.span("server.api.serialize", || {
            serde_json::to_value(&AskResponse {
                answer: &answer,
                cypher: translation.cypher.as_deref(),
                route: route.to_string(),
                contexts: contexts.iter().map(|c| c.title.as_str()).collect(),
                degraded: None,
                latency_us,
            })
            .to_string()
        });
        let response = Response::json(200, body);
        record_http(chat, "/ask", t0);
        self.rec.exit(api);
        let bytes = self
            .rec
            .span("server.http.write", || response.to_bytes_conn(true));
        self.rec.exit(root);

        if let (Some(cy), Lookup::Miss) = (&translation.cypher, lookup) {
            // Untimed: what the whole call's miss left in its cache.
            let _ = chat
                .query_cache()
                .get_or_execute_with_limits(snap, cy, &Params::new(), limits);
        }
        AskOutcome {
            response: bytes.to_vec(),
            translated: translation.cypher.is_some(),
        }
    }
}

/// Replays `/ask` requests: `warm_up` whole through both pipelines, then
/// each of `sample` whole and decomposed, typed by the route the whole
/// call took.
pub fn replay_ask(server_cpus: usize, warm_up: &[Vec<u8>], sample: &[Vec<u8>]) -> Replay {
    let config = server_config(server_cpus);
    let whole = memory_state(&config);
    let whole_chat = Arc::clone(whole.chat().expect("ready state"));
    let mirror = AskMirror::new(&config);
    for raw in warm_up {
        whole_call(&whole, raw);
        whole_call(&mirror.state, raw);
    }
    let mut session = Session::new();
    let (mut translated, mut vector_ops) = (0u64, 0u64);
    for raw in sample {
        let before = whole_chat.query_cache().stats();
        let (ns, want) = whole_call(&whole, raw);
        let after = whole_chat.query_cache().stats();
        let lookup = if after.hits > before.hits {
            Lookup::Hit
        } else if after.misses > before.misses {
            Lookup::Miss
        } else {
            Lookup::None
        };
        let vector = contains(&want, b"\"route\":\"vector-fallback\"");
        let kind = if vector {
            "op.ask_vector"
        } else {
            "op.ask_cypher"
        };
        session.note_whole(kind, ns, &want);
        let got = session.ask_decomposed(&mirror, raw, vector, lookup);
        session.failed +=
            u64::from(ask_comparable(body_of(&got.response)) != ask_comparable(body_of(&want)));
        translated += u64::from(got.translated);
        vector_ops += u64::from(vector);
    }

    let docs_scanned = mirror.chat.retrieval_index().docs().len();
    let mut replay = session.finish();
    let n = sample.len().max(1) as f64;
    replay.metrics.extend([
        (
            "llm.text2cypher.translated_share".to_string(),
            translated as f64 / n,
        ),
        ("embed.docs.docs_scanned".to_string(), docs_scanned as f64),
        (
            "core.pipeline.route_vector_share".to_string(),
            vector_ops as f64 / n,
        ),
        (
            "core.pipeline.route_cypher_share".to_string(),
            1.0 - vector_ops as f64 / n,
        ),
    ]);
    replay
}

/// The durable write path's state, held the way `ChatIyp` holds it but
/// with every piece reachable: a store, its retrieval index, an open WAL.
struct IngestMirror {
    store: GraphStore,
    index: RetrievalIndex,
    wal: Wal,
    dcfg: DurabilityConfig,
}

impl IngestMirror {
    fn open(dir: &Path) -> IngestMirror {
        let dcfg = DurabilityConfig::new(dir).with_fsync(FsyncPolicy::Always);
        let opened = Wal::open(dir, dcfg.wal_config()).expect("open mirror WAL");
        let data = oracle::default_dataset();
        let catalog = EntityCatalog::from_dataset(&data);
        let store = GraphStore::new(data.graph);
        let seed = store.load();
        let index = RetrievalIndex::from_graph_at(seed.graph(), seed.version(), seed.epoch())
            .with_catalog(catalog);
        IngestMirror {
            store,
            index,
            wal: opened.wal,
            dcfg,
        }
    }
}

/// Whichever of two fsync-heavy runs goes first pays for the file system's
/// pending journal; alternating the order keeps that out of the medians.
fn whole_first(occurrence: usize) -> bool {
    occurrence.is_multiple_of(2)
}

/// The fields of an ingest ack that two correct servers agree on (the
/// rest are timings).
fn ingest_comparable(body: &[u8]) -> Vec<Option<u64>> {
    let v: serde_json::Value = serde_json::from_slice(body).unwrap_or_default();
    [
        "old_version",
        "new_version",
        "index_version",
        "ops_applied",
        "nodes",
        "rels",
    ]
    .iter()
    .map(|k| v[*k].as_u64())
    .collect()
}

fn body_of(response: &[u8]) -> &[u8] {
    response
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .map_or(&[][..], |at| &response[at + 4..])
}

/// Per-ingest figures taken from the calls' own return values.
#[derive(Default)]
struct IngestCounts {
    ops: Vec<u64>,
    docs: Vec<u64>,
    wal_bytes: Vec<u64>,
    append_ns: Vec<u64>,
    fsync_ns: Vec<u64>,
}

impl Session {
    /// `POST /admin/ingest`, decomposed: `ChatIyp::ingest` step by step.
    fn ingest_decomposed(
        &mut self,
        m: &mut IngestMirror,
        raw: &[u8],
        counts: &mut IngestCounts,
    ) -> Vec<Option<u64>> {
        let (_, root) = self.rec.begin_op("op.ingest");
        let request = self.rec.span("server.http.parse", || {
            read_request_buffered(&mut &raw[..]).expect("recorded request parses")
        });
        let api = self.rec.enter("server.api");
        let batch: DeltaBatch = self.rec.span("server.api.ingest_decode", || {
            serde_json::from_slice(&request.body).expect("batch decodes")
        });

        let pipeline = self.rec.enter("core.pipeline");
        let base = m.store.load();
        let t0 = Instant::now();
        let mut next_graph = self.rec.span("graphdb.page", || base.graph().clone());
        let cloned = t0.elapsed();
        let applied = self
            .rec
            .span("graphdb.delta", || batch.apply_tracked(&mut next_graph))
            .expect("batch applies");
        let apply = t0.elapsed() - cloned;
        let info = self
            .rec
            .span("graphdb.wal", || m.wal.append(base.version() + 1, &batch))
            .expect("WAL append");
        let delta = self.rec.span("iyp.describe", || {
            iyp_data::describe_delta(&next_graph, &applied)
        });
        let mut next_index = self.rec.span("core.index", || {
            let mut next = m.index.clone();
            next.apply_delta(base.graph(), &next_graph, &delta);
            next
        });
        let report = self.rec.span("graphdb.store", || {
            m.store
                .publish_prepared(next_graph, applied.ops_applied, cloned, apply)
        });
        let published = m.store.load();
        next_index.stamp(published.version(), published.epoch());
        m.index = next_index;
        self.rec.exit(pipeline);

        let body = self.rec.span("server.api.serialize", || {
            serde_json::json!({
                "old_version": report.old_version,
                "new_version": report.new_version,
                "index_version": m.index.version(),
                "ops_applied": report.ops_applied,
                "nodes": report.nodes,
                "rels": report.rels,
            })
            .to_string()
        });
        let response = Response::json(200, body);
        self.rec.exit(api);
        let _ = self
            .rec
            .span("server.http.write", || response.to_bytes_conn(true));
        self.rec.exit(root);

        counts.ops.push(applied.ops_applied as u64);
        counts
            .docs
            .push((delta.upserts.len() + delta.removals.len()) as u64);
        counts.wal_bytes.push(info.bytes);
        counts.append_ns.push(info.append.as_nanos() as u64);
        counts
            .fsync_ns
            .extend(info.fsync.map(|d| d.as_nanos() as u64));
        ingest_comparable(&response.body)
    }

    /// Checkpoint, decomposed: atomic snapshot save, then WAL truncation.
    /// Returns the snapshot's size.
    fn checkpoint_decomposed(&mut self, m: &mut IngestMirror) -> u64 {
        let (_, root) = self.rec.begin_op("op.checkpoint");
        let snap = m.store.load();
        let path = m.dcfg.checkpoint_path();
        self.rec
            .span("graphdb.snapshot.save", || {
                snapshot::save_snapshot(&snap, &path)
            })
            .expect("save snapshot");
        self.rec
            .span("graphdb.wal.truncate", || {
                m.wal.truncate_below(snap.version())
            })
            .expect("truncate WAL");
        self.rec.exit(root);
        std::fs::metadata(&path).map(|meta| meta.len()).unwrap_or(0)
    }

    /// Recovery, decomposed: `ChatIyp::open_durable` step by step over a
    /// directory holding a checkpoint and a WAL tail. Returns the
    /// recovered (version, node count).
    fn recovery_decomposed(&mut self, dcfg: &DurabilityConfig) -> (u64, usize) {
        let (_, root) = self.rec.begin_op("op.recovery");
        let opened = self
            .rec
            .span("graphdb.wal.open", || {
                Wal::open(&dcfg.data_dir, dcfg.wal_config())
            })
            .expect("open WAL");
        let base = self
            .rec
            .span("graphdb.snapshot.load", || {
                snapshot::load_snapshot(dcfg.checkpoint_path())
            })
            .expect("load checkpoint");
        let mut version = base.version();
        let recovered = self.rec.span("graphdb.delta", || {
            let mut graph = base.graph().clone();
            for record in opened.records.iter().filter(|r| r.version > base.version()) {
                record.batch.apply(&mut graph).expect("record re-applies");
                version = record.version;
            }
            GraphSnapshot::new(graph, version)
        });
        let index = self.rec.span("core.index.build", || {
            RetrievalIndex::from_snapshot(&recovered)
        });
        self.rec.exit(root);
        std::hint::black_box(index);
        (recovered.version(), recovered.node_count())
    }
}

/// Replays `ingest_mixed`'s write side — every ingest, a checkpoint after
/// each index in `checkpoint_after`, `recoveries` recoveries — then the
/// corpus reads as cold `/cypher` operations against the grown graph.
/// `dir` is scratch space for the two data directories.
pub fn replay_ingest(
    server_cpus: usize,
    dir: &Path,
    ingests: &[Vec<u8>],
    checkpoint_after: &[usize],
    corpus: &[Vec<u8>],
    recoveries: usize,
) -> Replay {
    let config = server_config(server_cpus);
    let whole_dir = dir.join("whole");
    let mirror_dir = dir.join("mirror");
    let whole_dcfg = DurabilityConfig::new(&whole_dir).with_fsync(FsyncPolicy::Always);
    let open_whole = || {
        let t0 = Instant::now();
        let (chat, report) =
            ChatIyp::open_durable(config.clone(), &whole_dcfg, oracle::default_dataset)
                .expect("open durable pipeline");
        (t0.elapsed(), AppState::ready(Arc::new(chat)), report)
    };
    for d in [&whole_dir, &mirror_dir] {
        std::fs::create_dir_all(d).expect("create replay data directory");
    }
    let (_, mut whole, _) = open_whole();
    let mut mirror = IngestMirror::open(&mirror_dir);
    let checkpoint_request = crate::inputs::http_request("POST", "/admin/checkpoint", "");

    let mut session = Session::new();
    let mut counts = IngestCounts::default();
    let mut snapshot_bytes = Vec::new();
    for (i, raw) in ingests.iter().enumerate() {
        let (ns, response) = whole_call(&whole, raw);
        session.note_whole("op.ingest", ns, &response);
        let got = session.ingest_decomposed(&mut mirror, raw, &mut counts);
        let want = ingest_comparable(body_of(&response));
        session.failed += u64::from(got != want || want.contains(&None));

        if checkpoint_after.contains(&i) {
            let run_whole = |session: &mut Session| {
                let (ns, response) = whole_call(&whole, &checkpoint_request);
                session.note_whole("op.checkpoint", ns, &response);
                let v: serde_json::Value =
                    serde_json::from_slice(body_of(&response)).unwrap_or_default();
                v["snapshot_bytes"].as_u64()
            };
            let (want, bytes) = if whole_first(snapshot_bytes.len()) {
                let want = run_whole(&mut session);
                (want, session.checkpoint_decomposed(&mut mirror))
            } else {
                let bytes = session.checkpoint_decomposed(&mut mirror);
                (run_whole(&mut session), bytes)
            };
            session.failed += u64::from(want != Some(bytes));
            snapshot_bytes.push(bytes);
        }
    }

    // Recovery: close both, then reopen each directory `recoveries` times.
    let mirror_dcfg = mirror.dcfg.clone();
    drop(mirror);
    let mut reports = Vec::new();
    for cycle in 0..recoveries {
        drop(whole);
        let mut got = None;
        if !whole_first(cycle) {
            got = Some(session.recovery_decomposed(&mirror_dcfg));
        }
        let (elapsed, reopened, report) = open_whole();
        whole = reopened;
        session
            .whole_ns
            .entry("op.recovery")
            .or_default()
            .push(elapsed.as_nanos() as u64);
        session.attempted += 1;
        let got = got.unwrap_or_else(|| session.recovery_decomposed(&mirror_dcfg));
        let snap = whole.chat().expect("ready state").snapshot();
        session.failed += u64::from(got != (snap.version(), snap.node_count()));
        reports.push(report);
    }

    // The reads, against the grown graph: first touch of each query on a
    // pipeline that has never seen it, as after every publish on the wire.
    let reader = AppState::ready(Arc::clone(whole.chat().expect("ready state")));
    let grown = Arc::clone(reader.chat().expect("ready state"));
    for raw in corpus {
        let (ns, want) = whole_call(&reader, raw);
        session.note_whole("op.cypher_miss", ns, &want);
        let got = session.cypher_decomposed(&grown, raw, true);
        session.failed += u64::from(got != want);
    }

    let ms_of = |f: &dyn Fn(&chatiyp_core::RecoveryReport) -> Duration| {
        median(
            &reports
                .iter()
                .map(|r| f(r).as_secs_f64() * 1e3)
                .collect::<Vec<_>>(),
        )
    };
    let checkpoint_ms = session
        .whole_ns
        .get("op.checkpoint")
        .map_or(0.0, |ns| median_u64(ns) / 1e6);
    let mut replay = session.finish();
    replay.metrics.extend(
        [
            ("graphdb.delta.ops_per_batch", median_u64(&counts.ops)),
            ("core.index.docs_patched", median_u64(&counts.docs)),
            ("graphdb.wal.append_us", median_u64(&counts.append_ns) / 1e3),
            ("graphdb.wal.fsync_us", median_u64(&counts.fsync_ns) / 1e3),
            ("graphdb.wal.bytes_per_batch", median_u64(&counts.wal_bytes)),
            ("core.durability.checkpoint_ms", checkpoint_ms),
            ("graphdb.snapshot.bytes", median_u64(&snapshot_bytes)),
            ("core.durability.recovery_load_ms", ms_of(&|r| r.load)),
            ("core.durability.recovery_replay_ms", ms_of(&|r| r.replay)),
            (
                "core.durability.recovery_index_build_ms",
                ms_of(&|r| r.index_build),
            ),
        ]
        .map(|(name, value)| (name.to_string(), value)),
    );
    replay
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A timing whose metric is not in the catalogue would be dropped
    /// without a word when the report is assembled.
    #[test]
    fn every_timing_is_a_catalogued_metric() {
        for (metric, _, _) in TIMINGS {
            crate::metrics::unit_of(metric);
        }
        for (metric, _, _) in SELF_TIMES {
            crate::metrics::unit_of(metric);
        }
    }

    #[test]
    fn ask_comparison_ignores_only_the_latency() {
        let a =
            b"HTTP/1.1 200 OK\r\ncontent-length: 31\r\n\r\n{\"answer\":\"x\",\"latency_us\":10}";
        let b =
            b"HTTP/1.1 200 OK\r\ncontent-length: 32\r\n\r\n{\"answer\":\"x\",\"latency_us\":999}";
        let c =
            b"HTTP/1.1 200 OK\r\ncontent-length: 31\r\n\r\n{\"answer\":\"y\",\"latency_us\":10}";
        assert_eq!(body_of(a), b"{\"answer\":\"x\",\"latency_us\":10}");
        assert_eq!(ask_comparable(body_of(a)), ask_comparable(body_of(b)));
        assert_ne!(ask_comparable(body_of(a)), ask_comparable(body_of(c)));
        assert!(contains(a, b"\"answer\":\"x\"") && !contains(a, b"vector"));
    }
}
