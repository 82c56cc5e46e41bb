//! The versioned retrieval index: the semantic half of a snapshot.
//!
//! PR 5 made the *graph* snapshot-isolated, but the embedding `DocStore`
//! and the `EntityCatalog` were still built once at pipeline construction
//! — after an ingest, Cypher saw the new world while the semantic
//! fallback and entity linking answered from the old one. A
//! [`RetrievalIndex`] bundles both retrieval structures and stamps them
//! with the graph `version`/`epoch` they were derived from, so the
//! pipeline can publish graph and retrieval state as one consistent pair
//! (see `ChatIyp::resolve`) and refresh the index incrementally from an
//! ingest's delta instead of re-embedding the whole corpus.

use crate::response::ContextChunk;
use iyp_data::DocDelta;
use iyp_embed::DocStore;
use iyp_graphdb::{Graph, GraphSnapshot};
use iyp_llm::EntityCatalog;

/// The retrieval-side state of one published graph version: the embedded
/// node-description corpus and the entity catalog, stamped with the
/// `(version, epoch)` of the snapshot they describe.
///
/// Cloning is cheap relative to a rebuild (vectors and strings are
/// memcpy'd, nothing is re-embedded); an ingest clones the current index
/// off-lock, patches the clone via [`RetrievalIndex::apply_delta`], and
/// swaps it in alongside the graph snapshot.
#[derive(Clone)]
pub struct RetrievalIndex {
    docs: DocStore,
    catalog: EntityCatalog,
    version: u64,
    epoch: u64,
}

impl RetrievalIndex {
    /// Builds the index from scratch over a snapshot: one document per
    /// describable node (via `iyp_data::describe_all`) and a catalog
    /// rebuilt from the graph. The baseline the incremental path is
    /// benchmarked against (`bin/index_refresh`).
    pub fn from_snapshot(snap: &GraphSnapshot) -> Self {
        let mut index = Self::from_graph_at(snap.graph(), snap.version(), snap.epoch());
        index.catalog = EntityCatalog::from_graph(snap.graph());
        index
    }

    /// Builds the docs from `graph` with an explicit stamp, leaving the
    /// catalog to the caller (construction from a dataset uses the richer
    /// `EntityCatalog::from_dataset`).
    pub fn from_graph_at(graph: &Graph, version: u64, epoch: u64) -> Self {
        let mut docs = DocStore::new();
        // Full builds embed thousands of documents — the batch path
        // parallelizes the embedding across cores, which is what keeps
        // crash recovery's one index rebuild cheap.
        docs.upsert_batch(
            iyp_data::describe_all(graph)
                .into_iter()
                .map(|doc| iyp_embed::Doc {
                    title: doc.title,
                    text: doc.text,
                    tag: doc.node.0,
                })
                .collect(),
        );
        RetrievalIndex {
            docs,
            catalog: EntityCatalog::default(),
            version,
            epoch,
        }
    }

    /// Replaces the catalog (used at construction, where the dataset's
    /// lookup tables are available).
    pub fn with_catalog(mut self, catalog: EntityCatalog) -> Self {
        self.catalog = catalog;
        self
    }

    /// Patches the index in place with one ingest's document/catalog
    /// delta: removed nodes drop their documents, affected nodes are
    /// re-embedded, and the catalog retracts old-graph entries before
    /// inserting new-graph ones. The caller re-stamps afterwards
    /// ([`RetrievalIndex::stamp`]) once the paired graph version is
    /// known.
    ///
    /// Re-rendered documents whose text came out identical to the stored
    /// copy are skipped: the delta conservatively re-renders every node a
    /// change *might* have reached, but embedding is the expensive step,
    /// so only genuinely changed text pays for it.
    pub fn apply_delta(&mut self, old_graph: &Graph, new_graph: &Graph, delta: &DocDelta) {
        for id in &delta.removals {
            self.docs.remove(id.0);
        }
        for doc in &delta.upserts {
            let unchanged = self
                .docs
                .get(doc.node.0)
                .is_some_and(|d| d.title == doc.title && d.text == doc.text);
            if !unchanged {
                self.docs
                    .upsert(doc.title.clone(), doc.text.clone(), doc.node.0);
            }
        }
        self.catalog.apply_delta(old_graph, new_graph, delta);
    }

    /// Stamps the index with the graph version/epoch it now describes.
    pub fn stamp(&mut self, version: u64, epoch: u64) {
        self.version = version;
        self.epoch = epoch;
    }

    /// The graph version this index was derived from.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The graph epoch this index was derived from.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The embedded document corpus.
    pub fn docs(&self) -> &DocStore {
        &self.docs
    }

    /// The entity catalog questions are resolved against.
    pub fn catalog(&self) -> &EntityCatalog {
        &self.catalog
    }

    /// Top-`k` semantic context chunks for a question — the paper's
    /// VectorContextRetriever stage. Returns at most the number of live
    /// documents (a `k` past the corpus is not an error), ordered by
    /// descending score with ties broken by ascending doc id.
    pub fn retrieve(&self, question: &str, k: usize) -> Vec<ContextChunk> {
        self.docs
            .search(question, k)
            .into_iter()
            .map(|hit| ContextChunk {
                title: hit.doc.title.clone(),
                text: hit.doc.text.clone(),
                score: f64::from(hit.score),
            })
            .collect()
    }
}

impl std::fmt::Debug for RetrievalIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RetrievalIndex")
            .field("version", &self.version)
            .field("epoch", &self.epoch)
            .field("docs", &self.docs.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iyp_data::{describe_delta, generate, growth_batch, IypConfig};

    #[test]
    fn incremental_apply_matches_full_rebuild_results() {
        let d = generate(&IypConfig::tiny());
        let old_graph = d.graph;
        let old_snap = GraphSnapshot::new(old_graph.clone(), 1);
        let mut index = RetrievalIndex::from_snapshot(&old_snap);

        let batch = growth_batch(&old_graph, 3, 20);
        let mut new_graph = old_graph.clone();
        let applied = batch.apply_tracked(&mut new_graph).unwrap();
        let delta = describe_delta(&new_graph, &applied);
        index.apply_delta(&old_graph, &new_graph, &delta);
        index.stamp(2, old_snap.epoch() + 1);

        let rebuilt = RetrievalIndex::from_snapshot(&GraphSnapshot::new(new_graph.clone(), 2));
        assert_eq!(index.docs().len(), rebuilt.docs().len());
        assert_eq!(index.catalog(), rebuilt.catalog());

        // Retrieval over the patched index finds a freshly ingested AS.
        let new_asn = iyp_data::max_asn(&new_graph);
        let q = format!("Tell me about Ingest Networks {new_asn}");
        let hits = index.retrieve(&q, 3);
        assert!(
            hits.iter().any(|h| h.title.contains(&new_asn.to_string())),
            "patched index missed the new AS; hits: {:?}",
            hits.iter().map(|h| &h.title).collect::<Vec<_>>()
        );
        // And ranks it exactly as a from-scratch rebuild would.
        let rebuilt_hits = rebuilt.retrieve(&q, 3);
        let titles = |hs: &[ContextChunk]| hs.iter().map(|h| h.title.clone()).collect::<Vec<_>>();
        assert_eq!(titles(&hits), titles(&rebuilt_hits));
    }

    #[test]
    fn retrieve_finds_entity_docs() {
        let d = generate(&IypConfig::tiny());
        let index = RetrievalIndex::from_snapshot(&GraphSnapshot::new(d.graph, 1));
        assert!(!index.docs().is_empty());
        let hits = index.retrieve("tell me about AS2497 IIJ in Japan", 3);
        assert_eq!(hits.len(), 3);
        assert!(
            hits.iter().any(|h| h.title.contains("2497")),
            "hits: {:?}",
            hits.iter().map(|h| &h.title).collect::<Vec<_>>()
        );
    }

    /// Over tied scores (ordered by ascending doc id inside `DocStore`,
    /// pinned there) the whole result repeats call-to-call — the
    /// determinism the rest of the pipeline relies on.
    #[test]
    fn retrieve_over_tied_scores_repeats_call_to_call() {
        // Identical title+text embed to identical vectors: guaranteed
        // ties, distinguishable only by tag.
        let mut docs = DocStore::new();
        for tag in 0..4u64 {
            docs.add("same title", "identical text body", tag);
        }
        let index = RetrievalIndex {
            docs,
            catalog: EntityCatalog::default(),
            version: 1,
            epoch: 1,
        };
        let hits = index.retrieve("identical text body", 4);
        assert_eq!(hits.len(), 4);
        assert!(hits.windows(2).all(|w| w[0].score >= w[1].score));
        let key = |hs: &[ContextChunk]| {
            hs.iter()
                .map(|h| (h.title.clone(), h.score))
                .collect::<Vec<_>>()
        };
        assert_eq!(key(&hits), key(&index.retrieve("identical text body", 4)));
    }

    #[test]
    fn stamp_tracks_the_paired_snapshot() {
        let d = generate(&IypConfig::tiny());
        let snap = GraphSnapshot::new(d.graph, 1);
        let mut index = RetrievalIndex::from_snapshot(&snap);
        assert_eq!(index.version(), 1);
        assert_eq!(index.epoch(), snap.epoch());
        index.stamp(9, 40);
        assert_eq!((index.version(), index.epoch()), (9, 40));
    }
}
