//! The symbolic retrieval stage: TextToCypherRetriever. The semantic
//! stage (the paper's VectorContextRetriever) is
//! [`crate::index::RetrievalIndex::retrieve`].

use crate::cache::QueryCache;
use crate::resilience::{DegradedReason, FaultPoint, ResilienceCtx, TRANSLATE_BUDGET_SHARE};
use iyp_cypher::QueryResult;
use iyp_graphdb::GraphSnapshot;
use iyp_llm::{EntityCatalog, Translation, Translator};

/// The outcome of the structured retrieval stage.
#[derive(Debug, Clone)]
pub struct StructuredRetrieval {
    /// The translation (Cypher + intent + any injected error).
    pub translation: Translation,
    /// The execution result; `None` when there was no query or execution
    /// failed.
    pub result: Option<QueryResult>,
    /// Failure text when the structured stage did not produce a result:
    /// an execution error, or an injected/transient fault description.
    pub exec_error: Option<String>,
    /// Set when the stage's outcome was shaped by a fault or exhausted
    /// budget rather than the model's own ability — the pipeline
    /// propagates it into the response's `degraded` marker.
    pub degraded: Option<DegradedReason>,
}

impl StructuredRetrieval {
    /// Did this stage produce at least one row?
    pub fn has_rows(&self) -> bool {
        self.result.as_ref().map(|r| !r.is_empty()).unwrap_or(false)
    }
}

/// TextToCypherRetriever: maps the question to Cypher through the
/// (simulated) LLM prompt chain and executes it against the graph.
pub struct TextToCypherRetriever {
    translator: Translator,
}

impl TextToCypherRetriever {
    /// Creates the retriever.
    pub fn new(translator: Translator) -> Self {
        TextToCypherRetriever { translator }
    }

    /// Translates `question` against `catalog` and executes the query
    /// against `snap` — the one entry point.
    ///
    /// * `max_retries` self-correction re-prompts: a failed or empty
    ///   execution triggers a fresh translation attempt, the first
    ///   attempt producing rows wins, and the last attempt is returned
    ///   when none succeed.
    /// * `cache`, when given, executes generated queries through the
    ///   shared query cache: repeated questions (and distinct questions
    ///   refined to the same Cypher) skip parse and execution entirely.
    /// * `limits` apply to cold executions — how the pipeline applies its
    ///   configured deadline-free morsel parallelism.
    /// * `catalog` resolves entity mentions. The pipeline's catalog is
    ///   versioned with the graph and must come from the same resolved
    ///   `(snapshot, index)` pair as `snap`.
    /// * `ctx` is the resilience context when the resilience layer is on.
    ///
    /// With a context, every translation call passes the
    /// [`FaultPoint::LlmTranslate`] check and every execution the
    /// [`FaultPoint::Exec`] check. An injected (transient) fault retries
    /// the *same* attempt after a capped, jittered backoff — distinct
    /// from the `max_retries` self-correction re-prompts, which advance
    /// the attempt index. When the fault-retry budget or the stage's
    /// share of the request deadline runs out, the stage gives up and
    /// returns a retrieval marked
    /// [`DegradedReason::Text2CypherUnavailable`] (or
    /// [`DegradedReason::BudgetExhausted`]) so the pipeline can fall
    /// through to semantic retrieval instead of aborting.
    #[allow(clippy::too_many_arguments)]
    pub fn retrieve(
        &self,
        snap: &GraphSnapshot,
        question: &str,
        max_retries: u32,
        cache: Option<&QueryCache>,
        limits: iyp_cypher::ExecLimits,
        catalog: &EntityCatalog,
        ctx: Option<&ResilienceCtx<'_>>,
    ) -> StructuredRetrieval {
        let run = |cy: &str| -> Result<QueryResult, String> {
            match cache {
                Some(cache) => cache
                    .get_or_execute_with_limits(snap, cy, &iyp_cypher::Params::new(), limits)
                    // The response owns its rows; a hit clones the cached
                    // table (parse + planning + execution still skipped).
                    .map(|arc| (*arc).clone())
                    .map_err(|e| e.to_string()),
                None => {
                    let q = iyp_cypher::parse(cy).map_err(|e| e.to_string())?;
                    iyp_cypher::execute_read_with_limits(
                        snap.graph(),
                        &q,
                        &iyp_cypher::Params::new(),
                        limits,
                    )
                    .map_err(|e| e.to_string())
                }
            }
        };
        // `attempt` indexes self-correction re-prompts (each produces a
        // fresh translation); `fault_retries` counts backoff retries of
        // a transiently faulted call (same attempt replayed).
        let mut attempt = 0u32;
        let mut fault_retries = 0u32;
        loop {
            if let Some(ctx) = ctx {
                // Past the structured stage's share of the deadline,
                // stop burning budget and fall through.
                if (attempt > 0 || fault_retries > 0)
                    && !ctx.budget.within_share(TRANSLATE_BUDGET_SHARE)
                {
                    return StructuredRetrieval {
                        translation: Translation {
                            cypher: None,
                            intent: None,
                            injected_error: None,
                        },
                        result: None,
                        exec_error: Some("structured stage budget exhausted".into()),
                        degraded: Some(DegradedReason::BudgetExhausted),
                    };
                }
                // The translation call is the LlmTranslate fault point.
                if let Err(fault) = ctx.check(FaultPoint::LlmTranslate) {
                    if ctx.retry_after_fault(fault_retries, question, TRANSLATE_BUDGET_SHARE) {
                        fault_retries += 1;
                        continue;
                    }
                    return StructuredRetrieval {
                        translation: Translation {
                            cypher: None,
                            intent: None,
                            injected_error: None,
                        },
                        result: None,
                        exec_error: Some(fault.to_string()),
                        degraded: Some(DegradedReason::Text2CypherUnavailable),
                    };
                }
            }
            let translation = self
                .translator
                .translate_attempt_with(question, attempt, catalog);
            // A question the model cannot parse at all won't improve with
            // re-prompting; bail out immediately.
            let no_query = translation.cypher.is_none();
            let mut transient_exec = false;
            let (result, exec_error) = match &translation.cypher {
                None => (None, None),
                Some(cy) => {
                    // Execution is the Exec fault point.
                    let fault = ctx.and_then(|c| c.check(FaultPoint::Exec).err());
                    match fault {
                        Some(f) => {
                            transient_exec = true;
                            (None, Some(f.to_string()))
                        }
                        None => match run(cy) {
                            Ok(r) => (Some(r), None),
                            Err(e) => (None, Some(e)),
                        },
                    }
                }
            };
            let mut retrieval = StructuredRetrieval {
                translation,
                result,
                exec_error,
                degraded: None,
            };
            if retrieval.has_rows() || no_query {
                return retrieval;
            }
            if transient_exec {
                let ctx = ctx.expect("transient faults only injected with a context");
                if ctx.retry_after_fault(fault_retries, question, TRANSLATE_BUDGET_SHARE) {
                    fault_retries += 1;
                    continue; // replay the same attempt; translation is deterministic
                }
                retrieval.degraded = Some(DegradedReason::Text2CypherUnavailable);
                return retrieval;
            }
            if attempt >= max_retries {
                return retrieval;
            }
            attempt += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iyp_data::{generate, IypConfig};
    use iyp_llm::{EntityCatalog, LmConfig, SimLm};

    /// One uncached, unlimited, retry-free retrieval against `catalog`.
    fn retrieve_once(
        lm: SimLm,
        snap: &GraphSnapshot,
        question: &str,
        catalog: &EntityCatalog,
    ) -> StructuredRetrieval {
        TextToCypherRetriever::new(Translator::new(lm, EntityCatalog::default())).retrieve(
            snap,
            question,
            0,
            None,
            iyp_cypher::ExecLimits::none(),
            catalog,
            None,
        )
    }

    fn perfect_lm() -> SimLm {
        SimLm::new(LmConfig {
            seed: 1,
            skill: 1.0,
            variety: 0.0,
        })
    }

    #[test]
    fn structured_retrieval_runs_gold_path() {
        let d = generate(&IypConfig::tiny());
        let cat = EntityCatalog::from_dataset(&d);
        let snap = GraphSnapshot::new(d.graph, 1);
        let r = retrieve_once(perfect_lm(), &snap, "What is the name of AS2497?", &cat);
        assert!(r.has_rows());
        assert_eq!(r.result.unwrap().rows[0][0].to_string(), "IIJ");
    }

    #[test]
    fn structured_retrieval_reports_no_query() {
        let d = generate(&IypConfig::tiny());
        let cat = EntityCatalog::from_dataset(&d);
        let snap = GraphSnapshot::new(d.graph, 1);
        let r = retrieve_once(SimLm::with_seed(1), &snap, "how is the weather?", &cat);
        assert!(!r.has_rows());
        assert!(r.translation.cypher.is_none());
    }

    /// Mentions resolve against the catalog the caller passes — the one
    /// paired with the snapshot — so a name only a newer catalog knows
    /// translates with that catalog and not with an older one.
    #[test]
    fn structured_retrieval_uses_the_explicit_catalog() {
        let d = generate(&IypConfig::tiny());
        let stale = EntityCatalog::from_dataset(&d);
        let mut fresh = stale.clone();
        fresh.as_names.insert("newnet".into(), 2497);
        let snap = GraphSnapshot::new(d.graph, 1);
        let q = "What is the ASN of NewNet?";
        let with_stale = retrieve_once(perfect_lm(), &snap, q, &stale);
        assert!(with_stale.translation.cypher.is_none());
        let with_fresh = retrieve_once(perfect_lm(), &snap, q, &fresh);
        assert!(
            with_fresh.translation.cypher.is_some(),
            "fresh catalog not consulted"
        );
    }
}
