//! # explainti-ann
//!
//! Approximate nearest-neighbour search for the global-explanations module.
//!
//! The paper accelerates the top-K influential-sample retrieval of
//! Algorithm 2 with faiss's `IndexHNSW`; this crate provides a from-scratch
//! [HNSW](https://arxiv.org/abs/1603.09320) implementation
//! ([`HnswIndex`]) plus an exact [`BruteForceIndex`] used both as the
//! correctness oracle in tests and as the full-sort reference of the
//! `kernels` bench's GE retrieval arm.
//!
//! Both indexes implement [`VectorIndex`]. The embedding store retrieves
//! by an exact flat scan at the served store sizes; HNSW is kept to be
//! measured against it at paper scale (DESIGN.md §2).

#![warn(missing_docs)]

mod hnsw;

pub use hnsw::{HnswConfig, HnswIndex};

/// Similarity metric for index queries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Metric {
    /// Cosine similarity (the paper's influence score, Eq. 4).
    #[default]
    Cosine,
    /// Negative squared Euclidean distance.
    Euclidean,
}

impl Metric {
    /// Similarity between two vectors — larger is closer for both metrics.
    ///
    /// Cosine routes through the runtime-dispatched SIMD kernel
    /// ([`explainti_nn::simd::cosine`]); every dispatch arm is bitwise
    /// equal to the 8-lane scalar reference, so index contents and
    /// retrieval order stay byte-identical across hosts and tiers.
    pub fn similarity(&self, a: &[f32], b: &[f32]) -> f32 {
        debug_assert_eq!(a.len(), b.len());
        match self {
            Metric::Cosine => explainti_nn::simd::cosine(a, b),
            Metric::Euclidean => {
                let mut d = 0.0f32;
                for (&x, &y) in a.iter().zip(b) {
                    let diff = x - y;
                    d += diff * diff;
                }
                -d
            }
        }
    }
}

/// A retrieved neighbour: external id plus similarity (larger = closer).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Neighbor {
    /// Caller-assigned identifier of the stored vector.
    pub id: usize,
    /// Similarity under the index metric.
    pub similarity: f32,
}

/// Common interface over exact and approximate indexes.
pub trait VectorIndex {
    /// Inserts a vector under an external id. Ids need not be dense but
    /// must be unique.
    fn add(&mut self, id: usize, vector: &[f32]);

    /// Returns up to `k` closest stored vectors, most similar first.
    fn search(&self, query: &[f32], k: usize) -> Vec<Neighbor>;

    /// Number of stored vectors.
    fn len(&self) -> usize;

    /// True when the index holds no vectors.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Exact linear-scan index: `O(N)` per query, used as the recall oracle.
#[derive(Debug, Clone, Default)]
pub struct BruteForceIndex {
    metric: Metric,
    entries: Vec<(usize, Vec<f32>)>,
}

impl BruteForceIndex {
    /// Creates an empty exact index under `metric`.
    pub fn new(metric: Metric) -> Self {
        Self { metric, entries: Vec::new() }
    }
}

impl VectorIndex for BruteForceIndex {
    fn add(&mut self, id: usize, vector: &[f32]) {
        self.entries.push((id, vector.to_vec()));
    }

    fn search(&self, query: &[f32], k: usize) -> Vec<Neighbor> {
        let mut scored: Vec<Neighbor> = self
            .entries
            .iter()
            .map(|(id, v)| Neighbor { id: *id, similarity: self.metric.similarity(query, v) })
            .collect();
        scored.sort_by(|a, b| {
            b.similarity
                .partial_cmp(&a.similarity)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.id.cmp(&b.id))
        });
        scored.truncate(k);
        scored
    }

    fn len(&self) -> usize {
        self.entries.len()
    }
}

/// Recall@k of an approximate index against the exact oracle over a query
/// set (used by tests and the `kernels` bench).
pub fn recall_at_k(
    approx: &dyn VectorIndex,
    exact: &dyn VectorIndex,
    queries: &[Vec<f32>],
    k: usize,
) -> f32 {
    if queries.is_empty() {
        return 1.0;
    }
    let mut hit = 0usize;
    let mut total = 0usize;
    for q in queries {
        let truth: Vec<usize> = exact.search(q, k).into_iter().map(|n| n.id).collect();
        let got: Vec<usize> = approx.search(q, k).into_iter().map(|n| n.id).collect();
        total += truth.len();
        hit += truth.iter().filter(|id| got.contains(id)).count();
    }
    hit as f32 / total.max(1) as f32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cosine_similarity_orders_correctly() {
        let m = Metric::Cosine;
        let q = [1.0, 0.0];
        assert!(m.similarity(&q, &[1.0, 0.1]) > m.similarity(&q, &[0.0, 1.0]));
    }

    #[test]
    fn euclidean_similarity_is_negative_distance() {
        let m = Metric::Euclidean;
        assert_eq!(m.similarity(&[0.0], &[3.0]), -9.0);
    }

    #[test]
    fn brute_force_returns_top_k_sorted() {
        let mut idx = BruteForceIndex::new(Metric::Cosine);
        idx.add(0, &[1.0, 0.0]);
        idx.add(1, &[0.0, 1.0]);
        idx.add(2, &[0.9, 0.1]);
        let res = idx.search(&[1.0, 0.0], 2);
        assert_eq!(res.len(), 2);
        assert_eq!(res[0].id, 0);
        assert_eq!(res[1].id, 2);
        assert!(res[0].similarity >= res[1].similarity);
    }

    #[test]
    fn brute_force_handles_k_larger_than_len() {
        let mut idx = BruteForceIndex::new(Metric::Cosine);
        idx.add(7, &[1.0]);
        let res = idx.search(&[1.0], 5);
        assert_eq!(res.len(), 1);
        assert_eq!(res[0].id, 7);
    }

    #[test]
    fn recall_of_oracle_against_itself_is_one() {
        let mut idx = BruteForceIndex::new(Metric::Cosine);
        for i in 0..10 {
            idx.add(i, &[i as f32, 1.0]);
        }
        let queries = vec![vec![3.0, 1.0], vec![9.0, 1.0]];
        assert_eq!(recall_at_k(&idx, &idx, &queries, 3), 1.0);
    }
}
