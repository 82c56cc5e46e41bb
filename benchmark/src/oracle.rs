//! The oracle: an in-process twin of the graph every server boots, and the
//! exact bytes each request must be answered with.
//!
//! Expected bodies are computed before the clock starts; checking one is
//! a byte comparison done after the reply's end time was taken, so the
//! check is outside every latency figure.

use crate::inputs::PoolItem;
use chatiyp_core::{ChatIyp, ChatIypConfig, Route};
use chatiyp_server::api::AskResponse;
use iyp_data::{generate, IypConfig, IypDataset};
use iyp_graphdb::Graph;

/// The dataset `chatiyp serve` generates at boot (seed 42, default scale).
pub fn default_dataset() -> IypDataset {
    generate(&IypConfig::default())
}

/// A default-config pipeline over the default dataset, as the server
/// builds it.
pub fn twin_pipeline() -> ChatIyp {
    ChatIyp::new(default_dataset(), ChatIypConfig::default())
}

/// What a response body must look like.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expect {
    /// Byte-identical.
    Exact(Vec<u8>),
    /// `/ask`: these bytes, then the one field that legitimately differs
    /// (`latency_us`, serialized last) as digits, then `}`.
    AskPrefix(Vec<u8>),
}

impl Expect {
    /// Does `body` satisfy the expectation?
    pub fn matches(&self, body: &[u8]) -> bool {
        match self {
            Expect::Exact(want) => body == want.as_slice(),
            Expect::AskPrefix(prefix) => body
                .strip_prefix(prefix.as_slice())
                .and_then(|rest| rest.strip_suffix(b"}"))
                .is_some_and(|digits| !digits.is_empty() && digits.iter().all(u8::is_ascii_digit)),
        }
    }
}

/// The `/cypher` body for `query` on `graph`: the serialized result, as
/// `handle_cypher` writes it. Workload queries are chosen to succeed, so
/// a failing one is a defect in the benchmark's inputs.
pub fn cypher_body(graph: &Graph, query: &str) -> Vec<u8> {
    let result = iyp_cypher::query(graph, query)
        .unwrap_or_else(|e| panic!("workload query must run on the twin: {query}: {e}"));
    serde_json::to_string(&result)
        .expect("result serializes")
        .into_bytes()
}

/// What the twin says about one question.
pub struct AskExpectation {
    /// The body the server must send.
    pub expect: Expect,
    /// The generated Cypher's rows equal the gold query's
    /// (`cypher_eval::results_match`) — the paper's notion of a correct
    /// answer.
    pub gold_correct: bool,
    /// The answer came from the vector-fallback route.
    pub vector_route: bool,
}

/// Asks the twin and renders the response exactly as `handle_ask` does.
pub fn ask_expectation(chat: &ChatIyp, item: &PoolItem) -> AskExpectation {
    let r = chat.ask(&item.question);
    assert!(
        r.degraded.is_none(),
        "the twin has no faults configured, yet degraded: {:?}",
        r.degraded
    );
    let body = AskResponse {
        answer: &r.answer,
        cypher: r.cypher.as_deref(),
        route: r.route.to_string(),
        contexts: r.contexts.iter().map(|c| c.title.as_str()).collect(),
        degraded: r.degraded,
        latency_us: 0,
    };
    let rendered = serde_json::to_value(&body).to_string();
    let prefix = rendered
        .strip_suffix("0}")
        .expect("latency_us is the last field")
        .as_bytes()
        .to_vec();
    let snap = chat.snapshot();
    let gold = iyp_cypher::query(snap.graph(), &item.gold_cypher).expect("gold query runs");
    let gold_correct = r
        .query_result
        .as_ref()
        .is_some_and(|got| cypher_eval::results_match(&gold, got));
    AskExpectation {
        expect: Expect::AskPrefix(prefix),
        gold_correct,
        vector_route: r.route == Route::VectorFallback,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_and_prefix_expectations() {
        let exact = Expect::Exact(b"{\"rows\":[]}".to_vec());
        assert!(exact.matches(b"{\"rows\":[]}"));
        assert!(!exact.matches(b"{\"rows\":[1]}"));

        let ask = Expect::AskPrefix(b"{\"answer\":\"x\",\"latency_us\":".to_vec());
        assert!(ask.matches(b"{\"answer\":\"x\",\"latency_us\":512}"));
        assert!(!ask.matches(b"{\"answer\":\"y\",\"latency_us\":512}"));
        assert!(!ask.matches(b"{\"answer\":\"x\",\"latency_us\":}"));
        assert!(!ask.matches(b"{\"answer\":\"x\",\"latency_us\":5,\"extra\":1}"));
    }

    #[test]
    fn ask_expectation_matches_the_real_handler() {
        use chatiyp_server::api::{handle, AppState};
        use chatiyp_server::Request;
        use std::sync::Arc;

        let tiny = || ChatIyp::new(generate(&IypConfig::tiny()), ChatIypConfig::default());
        let item = PoolItem {
            question: "What is the name of AS2497?".into(),
            gold_cypher: "MATCH (a:AS {asn: 2497}) RETURN a.name".into(),
        };
        let want = ask_expectation(&tiny(), &item);
        let state = AppState::ready(Arc::new(tiny()));
        let response = handle(
            &state,
            &Request {
                method: "POST".into(),
                target: "/ask".into(),
                headers: vec![],
                body: serde_json::json!({ "question": item.question })
                    .to_string()
                    .into_bytes(),
                http11: true,
            },
        );
        assert_eq!(response.status, 200);
        assert!(
            want.expect.matches(&response.body),
            "handler sent {}",
            String::from_utf8_lossy(&response.body)
        );
        assert!(want.gold_correct && !want.vector_route);
        // A corrupted expectation must be caught.
        let Expect::AskPrefix(mut prefix) = want.expect else {
            unreachable!()
        };
        prefix[12] ^= 1;
        assert!(!Expect::AskPrefix(prefix).matches(&response.body));
    }
}
