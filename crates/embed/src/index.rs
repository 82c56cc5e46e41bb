//! Cosine-similarity vector index.
//!
//! A flat (exact) index: brute-force cosine over every live vector.
//!
//! The index is **tombstone-aware**: a document can be removed (its
//! slot is skipped by searches) or overwritten in place, which is what
//! lets a live system refresh single documents after an ingest instead of
//! rebuilding the whole index.

use crate::embedder::Vector;

/// One search hit.
#[derive(Debug, Clone, PartialEq)]
pub struct Hit {
    /// Index of the document in insertion order.
    pub doc: usize,
    /// Cosine similarity to the query.
    pub score: f32,
}

/// Exact flat index: brute-force cosine over all live vectors.
#[derive(Debug, Clone, Default)]
pub struct FlatIndex {
    vectors: Vec<Vector>,
    /// Tombstones: `live[doc]` is false once `doc` was removed. Dead
    /// slots keep their (stale) vector but are invisible to `search`
    /// until [`FlatIndex::set`] revives them.
    live: Vec<bool>,
    live_count: usize,
}

impl FlatIndex {
    /// Creates an empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a vector, returning its document id.
    pub fn add(&mut self, v: Vector) -> usize {
        self.vectors.push(v);
        self.live.push(true);
        self.live_count += 1;
        self.vectors.len() - 1
    }

    /// Overwrites slot `doc` with `v`, reviving it if it was tombstoned.
    /// Panics if `doc` was never allocated by [`FlatIndex::add`].
    pub fn set(&mut self, doc: usize, v: Vector) {
        if !self.live[doc] {
            self.live[doc] = true;
            self.live_count += 1;
        }
        self.vectors[doc] = v;
    }

    /// Tombstones slot `doc`: searches skip it from now on. Removing an
    /// already-dead slot is a no-op. Panics if `doc` was never allocated.
    pub fn remove(&mut self, doc: usize) {
        if self.live[doc] {
            self.live[doc] = false;
            self.live_count -= 1;
        }
    }

    /// Is slot `doc` live (allocated and not tombstoned)?
    pub fn is_live(&self, doc: usize) -> bool {
        self.live.get(doc).copied().unwrap_or(false)
    }

    /// Number of slots ever allocated (live + tombstoned).
    pub fn len(&self) -> usize {
        self.vectors.len()
    }

    /// Number of live (searchable) vectors.
    pub fn live_len(&self) -> usize {
        self.live_count
    }

    /// True if no live vectors remain.
    pub fn is_empty(&self) -> bool {
        self.live_count == 0
    }

    /// Top-`k` most similar live documents, sorted by descending score
    /// (ties by ascending doc id, so results are fully deterministic).
    pub fn search(&self, query: &Vector, k: usize) -> Vec<Hit> {
        let mut hits: Vec<Hit> = self
            .vectors
            .iter()
            .enumerate()
            .filter(|(doc, _)| self.live[*doc])
            .map(|(doc, v)| Hit {
                doc,
                score: query.cosine(v),
            })
            .collect();
        hits.sort_by(|a, b| {
            b.score
                .partial_cmp(&a.score)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.doc.cmp(&b.doc))
        });
        hits.truncate(k);
        hits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::embedder::Embedder;

    fn corpus() -> (Embedder, Vec<&'static str>) {
        (
            Embedder::default(),
            vec![
                "AS2497 IIJ is an autonomous system registered in Japan",
                "AS15169 Google operates content and cloud networks",
                "Japan has a population of 124 million",
                "JPIX is an Internet exchange point in Tokyo",
                "shop42.com is ranked 17 in the Tranco list",
            ],
        )
    }

    #[test]
    fn flat_search_finds_relevant_doc() {
        let (e, docs) = corpus();
        let mut idx = FlatIndex::new();
        for d in &docs {
            idx.add(e.embed(d));
        }
        let hits = idx.search(&e.embed("Which exchange point is in Tokyo?"), 2);
        assert_eq!(hits[0].doc, 3, "hits: {hits:?}");
        assert!(hits[0].score > hits[1].score);
    }

    #[test]
    fn flat_search_is_deterministic() {
        let (e, docs) = corpus();
        let mut idx = FlatIndex::new();
        for d in &docs {
            idx.add(e.embed(d));
        }
        let q = e.embed("google cloud");
        assert_eq!(idx.search(&q, 3), idx.search(&q, 3));
    }

    #[test]
    fn flat_remove_hides_and_set_revives() {
        let (e, docs) = corpus();
        let mut idx = FlatIndex::new();
        for d in &docs {
            idx.add(e.embed(d));
        }
        let q = e.embed("Which exchange point is in Tokyo?");
        assert_eq!(idx.search(&q, 1)[0].doc, 3);

        idx.remove(3);
        assert_eq!(idx.live_len(), docs.len() - 1);
        assert!(!idx.is_live(3));
        assert!(idx.search(&q, docs.len()).iter().all(|h| h.doc != 3));
        // Double-remove is a no-op.
        idx.remove(3);
        assert_eq!(idx.live_len(), docs.len() - 1);

        // Reviving the slot with a fresh vector brings it back.
        idx.set(3, e.embed(docs[3]));
        assert_eq!(idx.live_len(), docs.len());
        assert_eq!(idx.search(&q, 1)[0].doc, 3);
    }

    #[test]
    fn flat_set_overwrites_in_place() {
        let (e, _) = corpus();
        let mut idx = FlatIndex::new();
        idx.add(e.embed("alpha networks"));
        idx.add(e.embed("beta exchange"));
        let q = e.embed("gamma routing");
        idx.set(1, e.embed("gamma routing platform"));
        assert_eq!(idx.search(&q, 1)[0].doc, 1);
        assert_eq!(idx.len(), 2);
        assert_eq!(idx.live_len(), 2);
    }

    #[test]
    fn top_k_truncates() {
        let (e, docs) = corpus();
        let mut idx = FlatIndex::new();
        for d in &docs {
            idx.add(e.embed(d));
        }
        assert_eq!(idx.search(&e.embed("network"), 2).len(), 2);
        assert_eq!(idx.search(&e.embed("network"), 99).len(), docs.len());
    }

    #[test]
    fn empty_index_returns_nothing() {
        let idx = FlatIndex::new();
        assert!(idx.search(&Embedder::default().embed("x"), 5).is_empty());
    }
}
