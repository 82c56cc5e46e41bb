//! # chatiyp-core
//!
//! ChatIYP: a retrieval-augmented natural-language interface to the
//! Internet Yellow Pages graph — the paper's primary contribution.
//!
//! The pipeline follows Figure 1 of the paper:
//!
//! 1. **User query** — a natural-language question.
//! 2. **Retrieval** — [`retriever::TextToCypherRetriever`] maps the
//!    question to Cypher (via the simulated LLM prompt chain) and runs it;
//!    when it fails or returns nothing, [`RetrievalIndex::retrieve`]
//!    (the paper's VectorContextRetriever) fetches node-description
//!    context by dense similarity, reranked by the LLMReranker.
//! 3. **Generation** — the answer is generated from the retrieved rows or
//!    context, returned together with the Cypher query for transparency.
//!
//! ```
//! use chatiyp_core::{ChatIyp, ChatIypConfig};
//! use iyp_data::{generate, IypConfig};
//! use iyp_llm::LmConfig;
//!
//! let config = ChatIypConfig {
//!     lm: LmConfig { seed: 42, skill: 1.0, variety: 0.0 },
//!     ..Default::default()
//! };
//! let chat = ChatIyp::new(generate(&IypConfig::tiny()), config);
//! let response = chat.ask("What is the name of AS2497?");
//! assert!(response.answer.contains("IIJ"));
//! assert!(response.cypher.is_some()); // transparency output
//! ```

#![deny(missing_docs)]

pub mod cache;
pub mod config;
pub mod durability;
pub mod index;
pub mod obs;
pub mod pipeline;
pub mod resilience;
pub mod response;
pub mod retriever;

pub use cache::{CacheConfig, CacheStats, QueryCache};
pub use config::ChatIypConfig;
pub use durability::{
    CheckpointReport, DurabilityConfig, DurabilityError, DurabilityStats, RecoveryReport,
};
pub use index::RetrievalIndex;
pub use pipeline::{ChatIyp, CypherExecError, IngestError, IngestReport, RetrievalHandle};
pub use resilience::{
    Budget, DegradedReason, FaultError, FaultPlan, FaultPoint, FaultRule, ResilienceConfig,
    ResilienceCounters, ResilienceStats, RetryPolicy,
};
pub use response::{ChatResponse, ContextChunk, Route, Timings};
pub use retriever::{StructuredRetrieval, TextToCypherRetriever};
