//! Seeded inputs: everything the benchmark sends is a pure function of
//! `--seed`. The graph is not — every `chatiyp serve` boots the same
//! seed-42 dataset, so the seed only picks what is asked of it.

use cypher_eval::{build_dataset, EvalConfig};
use iyp_data::IypDataset;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::BTreeMap;

/// Questions generated per pool. 6 000 template instantiations yield about
/// 5 000 distinct questions and 4 100 distinct gold queries — four times
/// the server's result cache (1 024) and eight times its plan cache (512).
pub const POOL_TARGET: usize = 6_000;

/// One distinct question with its gold query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolItem {
    /// The natural-language question (`POST /ask`).
    pub question: String,
    /// The annotated gold Cypher.
    pub gold_cypher: String,
}

/// The seeded question pool shared by `cypher_cold` and `ask_mixed`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuestionPool {
    /// Distinct questions, in generation order.
    pub items: Vec<PoolItem>,
    /// Gold queries that are distinct under the server's cache key
    /// ([`iyp_cypher::normalize_query`]), in generation order.
    pub gold_queries: Vec<String>,
}

impl QuestionPool {
    /// Instantiates the CypherEval templates against `data` with `seed`.
    pub fn build(data: &IypDataset, seed: u64) -> QuestionPool {
        let dataset = build_dataset(
            data,
            &EvalConfig {
                seed,
                target_size: POOL_TARGET,
            },
        );
        let mut items = Vec::new();
        let mut gold_queries = Vec::new();
        let mut seen_q = BTreeMap::new();
        let mut seen_gold = BTreeMap::new();
        for item in dataset.items {
            let key = iyp_cypher::normalize_query(&item.gold_cypher);
            if seen_gold.insert(key, ()).is_none() {
                gold_queries.push(item.gold_cypher.clone());
            }
            if seen_q.insert(item.question.clone(), ()).is_none() {
                items.push(PoolItem {
                    question: item.question,
                    gold_cypher: item.gold_cypher,
                });
            }
        }
        QuestionPool {
            items,
            gold_queries,
        }
    }
}

/// Zipf sampler over ranks `0..n`: rank `k` is drawn with weight
/// `1 / (k + 1)^s`, by inverting the precomputed cumulative distribution.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// A sampler over `n ≥ 1` ranks with exponent `s`.
    pub fn new(n: usize, s: f64) -> Zipf {
        assert!(n > 0, "Zipf needs at least one rank");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 0..n {
            acc += 1.0 / ((k + 1) as f64).powf(s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    /// Draws one rank.
    pub fn sample(&self, rng: &mut StdRng) -> usize {
        let u: f64 = rng.random();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// `0..n` in a seeded random order (Fisher–Yates).
pub fn shuffled(n: usize, seed: u64) -> Vec<u32> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut order: Vec<u32> = (0..n as u32).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.random_range(0..=i));
    }
    order
}

/// `count` Zipf(1.0) draws of popularity *ranks* in `0..n`; `stream`
/// separates independent draw sequences (one per round) of one seed.
pub fn zipf_ranks(n: usize, count: usize, seed: u64, stream: u64) -> Vec<u32> {
    let zipf = Zipf::new(n, 1.0);
    let mut rng = StdRng::seed_from_u64(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    (0..count).map(|_| zipf.sample(&mut rng) as u32).collect()
}

/// Merges two lists so that every prefix of the result holds them in the
/// proportion of their lengths (error below one item): the popularity
/// ranking of `ask_mixed`. Under Zipf(1.0) the ten most popular questions
/// carry a third of the traffic, so whether they happen to be cheap
/// Cypher-route or three-times-dearer vector-route questions would
/// otherwise decide the run; stratifying makes every seed ask the pool's
/// own route mix at every popularity level.
pub fn interleave_proportionally(a: &[u32], b: &[u32]) -> Vec<u32> {
    let total = a.len() + b.len();
    let mut out = Vec::with_capacity(total);
    let (mut ia, mut ib) = (0, 0);
    while out.len() < total {
        // Item k of `a` belongs at position (k + ½) · total / |a|.
        if ib == b.len() || (ia < a.len() && (2 * ia + 1) * total <= (2 * out.len() + 1) * a.len())
        {
            out.push(a[ia]);
            ia += 1;
        } else {
            out.push(b[ib]);
            ib += 1;
        }
    }
    out
}

/// The wire bytes of one keep-alive HTTP/1.1 request.
pub fn http_request(method: &str, path: &str, body: &str) -> Vec<u8> {
    format!(
        "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// `POST /cypher` for one query.
pub fn cypher_request(query: &str) -> Vec<u8> {
    http_request(
        "POST",
        "/cypher",
        &serde_json::json!({ "query": query }).to_string(),
    )
}

/// `POST /ask` for one question.
pub fn ask_request(question: &str) -> Vec<u8> {
    http_request(
        "POST",
        "/ask",
        &serde_json::json!({ "question": question }).to_string(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use iyp_data::{generate, IypConfig};

    #[test]
    fn pool_is_identical_per_seed_and_differs_across_seeds() {
        let data = generate(&IypConfig::tiny());
        let a = QuestionPool::build(&data, 7);
        let b = QuestionPool::build(&data, 7);
        let c = QuestionPool::build(&data, 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.items.len() > 1000 && a.gold_queries.len() > 500);
        // Both lists are distinct under the key the server caches by.
        let mut keys: Vec<String> = a
            .gold_queries
            .iter()
            .map(|q| iyp_cypher::normalize_query(q))
            .collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), a.gold_queries.len());
    }

    #[test]
    fn zipf_ranks_repeat_per_seed_and_follow_the_skew() {
        let a = zipf_ranks(1000, 5000, 3, 0);
        assert_eq!(a, zipf_ranks(1000, 5000, 3, 0));
        assert_ne!(a, zipf_ranks(1000, 5000, 4, 0));
        assert_ne!(a, zipf_ranks(1000, 5000, 3, 1));
        assert!(a.iter().all(|&r| r < 1000));
        // Under Zipf(1.0) over 1000 ranks, rank 0 carries 1 / H(1000),
        // about 13 % of the draws, and rank 1 half of that.
        let count = |rank| a.iter().filter(|&&r| r == rank).count();
        assert!((550..=800).contains(&count(0)), "rank 0 drew {}", count(0));
        assert!((250..=420).contains(&count(1)), "rank 1 drew {}", count(1));
    }

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let a = shuffled(500, 9);
        assert_eq!(a, shuffled(500, 9));
        assert_ne!(a, shuffled(500, 10));
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..500).collect::<Vec<u32>>());
    }

    #[test]
    fn interleaving_keeps_every_prefix_in_proportion() {
        let a: Vec<u32> = (0..30).collect();
        let b: Vec<u32> = (100..190).collect();
        let merged = interleave_proportionally(&a, &b);
        assert_eq!(merged.len(), 120);
        // Order within each list is kept.
        let from_a: Vec<u32> = merged.iter().copied().filter(|&x| x < 100).collect();
        assert_eq!(from_a, a);
        for prefix in 1..=120 {
            let taken = merged[..prefix].iter().filter(|&&x| x < 100).count() as f64;
            let share = prefix as f64 * 30.0 / 120.0;
            assert!(
                (taken - share).abs() <= 1.0,
                "prefix {prefix}: {taken} vs {share}"
            );
        }
        assert_eq!(interleave_proportionally(&[], &b), b);
        assert_eq!(interleave_proportionally(&a, &[]), a);
    }

    #[test]
    fn request_bytes_frame_the_body() {
        let raw = String::from_utf8(cypher_request("RETURN 'a\"b'")).unwrap();
        let (head, body) = raw.split_once("\r\n\r\n").unwrap();
        assert!(head.starts_with("POST /cypher HTTP/1.1\r\n"));
        assert!(head.contains(&format!("Content-Length: {}", body.len())));
        assert_eq!(body, r#"{"query":"RETURN 'a\"b'"}"#);
    }
}
