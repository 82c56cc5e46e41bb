//! A document store pairing texts with their embeddings and a flat index —
//! the unit the VectorContextRetriever searches over.
//!
//! The store is **incrementally mutable**: documents are keyed by a
//! caller-supplied `tag` (e.g. a graph node id), and [`DocStore::upsert`] /
//! [`DocStore::remove`] patch single documents in place — tombstoned slots
//! are recycled by later upserts — so a refreshed copy of the store can be
//! produced from an ingest delta without re-embedding the whole corpus.

use std::collections::HashMap;

use crate::embedder::{Embedder, Vector};
use crate::index::{FlatIndex, Hit};

/// A stored document.
#[derive(Debug, Clone)]
pub struct Doc {
    /// Short title.
    pub title: String,
    /// Full text (what gets embedded and returned as context).
    pub text: String,
    /// Opaque tag the caller can use to map back to its own ids
    /// (e.g. a graph `NodeId`). Unique within a store: upserting an
    /// existing tag replaces that document.
    pub tag: u64,
}

/// A searchable corpus of documents.
#[derive(Clone)]
pub struct DocStore {
    embedder: Embedder,
    docs: Vec<Doc>,
    index: FlatIndex,
    /// tag → slot in `docs`/`index` for live documents.
    by_tag: HashMap<u64, usize>,
    /// Tombstoned slots available for reuse by the next upsert.
    free: Vec<usize>,
}

/// A search result with its document.
#[derive(Debug, Clone)]
pub struct DocHit<'a> {
    /// The matched document.
    pub doc: &'a Doc,
    /// Cosine similarity.
    pub score: f32,
}

impl DocStore {
    /// Creates an empty store with the default embedder.
    pub fn new() -> Self {
        DocStore {
            embedder: Embedder::default(),
            docs: Vec::new(),
            index: FlatIndex::new(),
            by_tag: HashMap::new(),
            free: Vec::new(),
        }
    }

    /// Adds or replaces the document with this `tag` (alias of
    /// [`DocStore::upsert`], kept for construction-time readability).
    pub fn add(&mut self, title: impl Into<String>, text: impl Into<String>, tag: u64) {
        self.upsert(title, text, tag);
    }

    /// Adds the document if `tag` is new, replaces it (re-embedding the new
    /// text into the same slot) if the tag is already present. Removed
    /// slots are recycled before the store grows.
    pub fn upsert(&mut self, title: impl Into<String>, text: impl Into<String>, tag: u64) {
        let doc = Doc {
            title: title.into(),
            text: text.into(),
            tag,
        };
        let vector = self.embedder.embed(&Self::embed_text(&doc));
        self.insert_embedded(doc, vector);
    }

    /// Adds a whole batch, embedding across all available cores —
    /// equivalent to (but much faster than) upserting each document in
    /// order. Construction-time bulk loads (full index builds, crash
    /// recovery) go through here; single-document churn stays on
    /// [`DocStore::upsert`].
    pub fn upsert_batch(&mut self, batch: Vec<Doc>) {
        const PARALLEL_THRESHOLD: usize = 64;
        let workers = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let vectors: Vec<Vector> = if batch.len() < PARALLEL_THRESHOLD || workers < 2 {
            batch
                .iter()
                .map(|d| self.embedder.embed(&Self::embed_text(d)))
                .collect()
        } else {
            let chunk = batch.len().div_ceil(workers);
            let embedder = &self.embedder;
            let mut parts: Vec<Vec<Vector>> = Vec::with_capacity(workers);
            std::thread::scope(|s| {
                let handles: Vec<_> = batch
                    .chunks(chunk)
                    .map(|docs| {
                        s.spawn(move || {
                            docs.iter()
                                .map(|d| embedder.embed(&Self::embed_text(d)))
                                .collect::<Vec<Vector>>()
                        })
                    })
                    .collect();
                for h in handles {
                    parts.push(h.join().expect("embed worker panicked"));
                }
            });
            parts.into_iter().flatten().collect()
        };
        for (doc, vector) in batch.into_iter().zip(vectors) {
            self.insert_embedded(doc, vector);
        }
    }

    /// What actually gets embedded for a document. The title is embedded
    /// twice as heavily as once: it names the entity.
    fn embed_text(doc: &Doc) -> String {
        format!("{} {} {}", doc.title, doc.title, doc.text)
    }

    /// The slot bookkeeping shared by the single and batch paths.
    fn insert_embedded(&mut self, doc: Doc, vector: Vector) {
        if let Some(&slot) = self.by_tag.get(&doc.tag) {
            self.index.set(slot, vector);
            self.docs[slot] = doc;
        } else if let Some(slot) = self.free.pop() {
            let tag = doc.tag;
            self.index.set(slot, vector);
            self.docs[slot] = doc;
            self.by_tag.insert(tag, slot);
        } else {
            let slot = self.index.add(vector);
            debug_assert_eq!(slot, self.docs.len());
            self.by_tag.insert(doc.tag, slot);
            self.docs.push(doc);
        }
    }

    /// Removes the document with this `tag`, if present. Its slot is
    /// tombstoned (skipped by searches) and recycled by a later upsert.
    /// Returns whether a document was removed.
    pub fn remove(&mut self, tag: u64) -> bool {
        let Some(slot) = self.by_tag.remove(&tag) else {
            return false;
        };
        self.index.remove(slot);
        self.free.push(slot);
        true
    }

    /// Does the store hold a live document with this `tag`?
    pub fn contains(&self, tag: u64) -> bool {
        self.by_tag.contains_key(&tag)
    }

    /// The live document with this `tag`, if present.
    pub fn get(&self, tag: u64) -> Option<&Doc> {
        self.by_tag.get(&tag).map(|&slot| &self.docs[slot])
    }

    /// Number of live documents.
    pub fn len(&self) -> usize {
        self.by_tag.len()
    }

    /// True if no live documents remain.
    pub fn is_empty(&self) -> bool {
        self.by_tag.is_empty()
    }

    /// Top-`k` documents for a query.
    pub fn search(&self, query: &str, k: usize) -> Vec<DocHit<'_>> {
        let qv = self.embedder.embed(query);
        self.search_vec(&qv, k)
    }

    /// Top-`k` documents for a pre-embedded query.
    pub fn search_vec(&self, query: &Vector, k: usize) -> Vec<DocHit<'_>> {
        self.index
            .search(query, k)
            .into_iter()
            .map(|Hit { doc, score }| DocHit {
                doc: &self.docs[doc],
                score,
            })
            .collect()
    }

    /// The embedder, for callers that need consistent query embeddings.
    pub fn embedder(&self) -> &Embedder {
        &self.embedder
    }
}

impl Default for DocStore {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_search() {
        let mut store = DocStore::new();
        store.add(
            "AS2497 IIJ",
            "IIJ is registered in Japan and serves 33% of its population",
            1,
        );
        store.add(
            "AS15169 Google",
            "Google is a content and cloud network in the United States",
            2,
        );
        store.add(
            "JPIX",
            "JPIX is an Internet exchange point in Tokyo with 40 members",
            3,
        );

        let hits = store.search("population of Japan", 2);
        assert_eq!(hits[0].doc.tag, 1, "got {:?}", hits[0].doc.title);
        assert_eq!(hits.len(), 2);
    }

    #[test]
    fn title_boost_helps_entity_queries() {
        let mut store = DocStore::new();
        store.add("AS2497 IIJ", "an autonomous system", 1);
        store.add("AS7018 ATT", "an autonomous system", 2);
        let hits = store.search("tell me about AS2497", 1);
        assert_eq!(hits[0].doc.tag, 1);
    }

    #[test]
    fn empty_store() {
        let store = DocStore::new();
        for k in [0, 1, 3, 10_000] {
            assert!(store.search("anything", k).is_empty());
        }
        assert!(store.is_empty());
        assert_eq!(store.len(), 0);
    }

    /// `k` past the corpus size returns exactly the corpus, once each —
    /// not an error, not duplicates, not fewer than available.
    #[test]
    fn search_with_oversized_k_returns_every_doc_once() {
        let mut store = DocStore::new();
        store.add("AS2497 IIJ", "an autonomous system in Japan", 1);
        store.add("AS15169 Google", "a cloud network", 2);
        store.add("JPIX", "an exchange point in Tokyo", 3);
        let mut tags: Vec<u64> = store
            .search("networks", 50)
            .iter()
            .map(|h| h.doc.tag)
            .collect();
        tags.sort_unstable();
        assert_eq!(tags, vec![1, 2, 3], "k=50 over 3 docs returns each once");
    }

    /// Tied scores order by ascending doc id (insertion order).
    #[test]
    fn search_breaks_ties_by_insertion_order() {
        let mut store = DocStore::new();
        for tag in 0..4u64 {
            store.add("same title", "identical text body", tag);
        }
        let tags: Vec<u64> = store
            .search("identical text body", 4)
            .iter()
            .map(|h| h.doc.tag)
            .collect();
        assert_eq!(tags, vec![0, 1, 2, 3], "ties must order by doc id");
    }

    #[test]
    fn upsert_replaces_existing_tag_in_place() {
        let mut store = DocStore::new();
        store.add("AS2497 IIJ", "an autonomous system in Japan", 2497);
        store.add("JPIX", "an exchange point in Tokyo", 7);
        assert_eq!(store.len(), 2);

        store.upsert("AS2497 Renamed Networks", "now a cloud platform", 2497);
        assert_eq!(
            store.len(),
            2,
            "upsert of a live tag must not grow the store"
        );
        assert_eq!(store.get(2497).unwrap().title, "AS2497 Renamed Networks");
        let hits = store.search("Renamed Networks cloud platform", 1);
        assert_eq!(hits[0].doc.tag, 2497);
    }

    #[test]
    fn remove_hides_doc_and_slot_is_recycled() {
        let mut store = DocStore::new();
        store.add("AS2497 IIJ", "an autonomous system in Japan", 2497);
        store.add("JPIX", "an exchange point in Tokyo", 7);

        assert!(store.remove(2497));
        assert!(!store.remove(2497), "double-remove reports nothing removed");
        assert_eq!(store.len(), 1);
        assert!(!store.contains(2497));
        assert!(store
            .search("autonomous system in Japan", 5)
            .iter()
            .all(|h| h.doc.tag != 2497));

        // The tombstoned slot is reused, so the store does not grow.
        store.upsert("AS64500 Fresh", "a newly ingested network", 64500);
        assert_eq!(store.len(), 2);
        let hits = store.search("newly ingested network", 1);
        assert_eq!(hits[0].doc.tag, 64500);
    }

    #[test]
    fn clone_is_independent() {
        let mut store = DocStore::new();
        store.add("AS2497 IIJ", "an autonomous system in Japan", 2497);
        let mut copy = store.clone();
        copy.remove(2497);
        copy.upsert("AS64500 Fresh", "a newly ingested network", 64500);
        // The original is untouched — this is what lets ingest mutate an
        // off-lock copy while readers keep searching the published one.
        assert!(store.contains(2497));
        assert!(!store.contains(64500));
        assert!(copy.contains(64500));
    }
}
