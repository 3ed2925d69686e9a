//! The embedding store `Q` of Algorithm 2.
//!
//! Holds the `E_[CLS]` embedding of every *training* sample, refreshed
//! every few epochs during fine-tuning, as one contiguous `rows × dim`
//! slab with the sample id and label of each row. Top-K
//! influential-sample retrieval is an exact scan: every row is scored
//! with the SIMD cosine kernel and a bounded sorted buffer keeps the
//! best, ordered by similarity descending, then id ascending. The SE
//! module reads neighbour embeddings from the same store.
//!
//! Algorithm 2 refreshes `Q` wholesale: [`EmbeddingStore::set`] every
//! sample, which overwrites its row in place; the next query sees it.

use explainti_nn::Tensor;
use std::cmp::Ordering;
use std::collections::BTreeMap;

/// A retrieved neighbour: sample id plus cosine similarity (larger is
/// closer).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Neighbor {
    /// Id of the stored sample.
    pub id: usize,
    /// Cosine similarity to the query.
    pub similarity: f32,
}

/// Deterministic neighbour order: similarity descending, id ascending.
fn order_neighbors(a: &Neighbor, b: &Neighbor) -> Ordering {
    b.similarity.partial_cmp(&a.similarity).unwrap_or(Ordering::Equal).then_with(|| a.id.cmp(&b.id))
}

/// Flat embedding store (see module docs).
pub struct EmbeddingStore {
    dim: usize,
    /// `ids.len() × dim` embeddings; row `r` belongs to sample `ids[r]`.
    slab: Vec<f32>,
    ids: Vec<usize>,
    labels: Vec<usize>,
    /// Sample id → row.
    rows: BTreeMap<usize, usize>,
}

impl EmbeddingStore {
    /// Creates an empty store for embeddings of dimension `dim`.
    pub fn new(dim: usize) -> Self {
        Self { dim, slab: Vec::new(), ids: Vec::new(), labels: Vec::new(), rows: BTreeMap::new() }
    }

    /// Embedding dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    fn row(&self, r: usize) -> &[f32] {
        &self.slab[r * self.dim..(r + 1) * self.dim]
    }

    /// Stores (or overwrites in place) the embedding of sample `idx`.
    ///
    /// # Panics
    /// Panics if the embedding is not `dim` long.
    pub fn set(&mut self, idx: usize, embedding: &[f32], label: usize) {
        assert_eq!(embedding.len(), self.dim, "embedding length mismatch");
        match self.rows.get(&idx) {
            Some(&r) => {
                self.slab[r * self.dim..(r + 1) * self.dim].copy_from_slice(embedding);
                self.labels[r] = label;
            }
            None => {
                self.rows.insert(idx, self.ids.len());
                self.ids.push(idx);
                self.labels.push(label);
                self.slab.extend_from_slice(embedding);
            }
        }
    }

    /// The stored embedding of sample `idx`, if any.
    pub fn get(&self, idx: usize) -> Option<&[f32]> {
        self.rows.get(&idx).map(|&r| self.row(r))
    }

    /// Label recorded with the stored embedding.
    pub fn label(&self, idx: usize) -> Option<usize> {
        self.rows.get(&idx).map(|&r| self.labels[r])
    }

    /// Whether sample `idx` has a stored embedding.
    pub fn has(&self, idx: usize) -> bool {
        self.rows.contains_key(&idx)
    }

    /// Number of stored embeddings.
    pub fn stored(&self) -> usize {
        self.ids.len()
    }

    /// Top-`k` most similar stored samples to `query`, optionally
    /// excluding one index (the query sample itself during training).
    ///
    /// Every row is scored, and a sorted buffer of at most `k` keeps the
    /// best, so the answer equals a full sort truncated to `k`.
    pub fn top_k(&self, query: &Tensor, k: usize, exclude: Option<usize>) -> Vec<Neighbor> {
        let mut best: Vec<Neighbor> = Vec::with_capacity(k.min(self.stored()) + 1);
        if k == 0 {
            return best;
        }
        let query = query.as_slice();
        for (r, &id) in self.ids.iter().enumerate() {
            if Some(id) == exclude {
                continue;
            }
            let nb = Neighbor { id, similarity: explainti_nn::simd::cosine(query, self.row(r)) };
            if best.len() == k && order_neighbors(&nb, &best[k - 1]) != Ordering::Less {
                continue;
            }
            let at = best.partition_point(|b| order_neighbors(b, &nb) == Ordering::Less);
            best.insert(at, nb);
            best.truncate(k);
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(v: Vec<f32>) -> Tensor {
        Tensor::row(v)
    }

    #[test]
    fn set_get_roundtrip() {
        let mut q = EmbeddingStore::new(2);
        q.set(1, &[1.0, 0.0], 7);
        assert!(q.has(1));
        assert!(!q.has(0));
        assert_eq!(q.get(1), Some(&[1.0, 0.0][..]));
        assert_eq!(q.label(1), Some(7));
        assert_eq!(q.stored(), 1);
    }

    #[test]
    fn top_k_ranks_by_cosine() {
        let mut q = EmbeddingStore::new(2);
        q.set(0, &[1.0, 0.0], 0);
        q.set(1, &[0.0, 1.0], 1);
        q.set(2, &[0.9, 0.1], 0);
        let res = q.top_k(&row(vec![1.0, 0.0]), 2, None);
        assert_eq!(res[0].id, 0);
        assert_eq!(res[1].id, 2);
    }

    #[test]
    fn exclusion_drops_the_query_sample() {
        let mut q = EmbeddingStore::new(2);
        q.set(0, &[1.0, 0.0], 0);
        q.set(1, &[0.99, 0.01], 0);
        let res = q.top_k(&row(vec![1.0, 0.0]), 1, Some(0));
        assert_eq!(res.len(), 1);
        assert_eq!(res[0].id, 1);
    }

    #[test]
    fn set_overwrites_in_place() {
        let mut q = EmbeddingStore::new(2);
        for i in 0..10 {
            q.set(i, &[i as f32, 1.0], i);
        }
        q.set(3, &[5.0, 0.0], 8);
        assert_eq!(q.stored(), 10);
        assert_eq!(q.get(3), Some(&[5.0, 0.0][..]));
        assert_eq!(q.label(3), Some(8));
        let res = q.top_k(&row(vec![1.0, 0.0]), 3, None);
        assert_eq!(res.len(), 3);
        assert_eq!(res[0].id, 3);
        assert_eq!(res[1].id, 9);
    }

    #[test]
    fn empty_store_returns_nothing() {
        let q = EmbeddingStore::new(3);
        assert!(q.top_k(&row(vec![1.0, 0.0, 0.0]), 4, None).is_empty());
    }

    /// splitmix64 — deterministic but unordered-looking fill values.
    fn mix(mut x: u64) -> u64 {
        x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^ (x >> 31)
    }

    /// Stores `n` rows of width `dim`; row `i` repeats the vector of row
    /// `i % distinct`, so `distinct < n` makes equal similarities.
    fn fill(q: &mut EmbeddingStore, n: usize, dim: usize, distinct: usize) {
        for i in 0..n {
            let base = i % distinct;
            let v: Vec<f32> = (0..dim)
                .map(|d| ((mix((base * dim + d) as u64) % 1000) as f32 / 500.0) - 1.0)
                .collect();
            q.set(i, &v, i % 5);
        }
    }

    /// Every probe's answer equals a full sort of all stored
    /// similarities, bit for bit: similarity descending, id ascending.
    /// The cases cover a store past 1,024 rows probed at every row, `k`
    /// larger than the store, an `exclude` id that is not stored, and
    /// repeated rows whose equal similarities must break by id.
    #[test]
    fn top_k_is_byte_identical_to_a_full_sort() {
        let bits = |v: &[Neighbor]| {
            v.iter().map(|nb| (nb.id, nb.similarity.to_bits())).collect::<Vec<_>>()
        };
        fn excluding_self(probes: impl Iterator<Item = usize>) -> Vec<(usize, Option<usize>)> {
            probes.map(|p| (p, Some(p))).collect()
        }
        // (rows, dim, distinct rows, k, [(probe row, exclude)]).
        let cases = [
            (257, 8, 257, 7, excluding_self([0, 31, 100, 256].into_iter())),
            (2_000, 32, 2_000, 10, excluding_self(0..2_000)),
            (5, 8, 5, 9, vec![(0, None), (2, Some(2)), (4, Some(4))]),
            (64, 8, 64, 6, vec![(3, Some(10_000)), (63, Some(64))]),
            (120, 8, 7, 10, vec![(0, Some(0)), (5, None), (119, Some(119)), (60, Some(7))]),
        ];
        for (n, dim, distinct, k, probes) in cases {
            let mut q = EmbeddingStore::new(dim);
            fill(&mut q, n, dim, distinct);
            for (probe, exclude) in probes {
                let query = q.get(probe).unwrap().to_vec();
                let mut want: Vec<Neighbor> = (0..n)
                    .filter(|&id| Some(id) != exclude)
                    .map(|id| Neighbor {
                        id,
                        similarity: explainti_nn::simd::cosine(&query, q.get(id).unwrap()),
                    })
                    .collect();
                want.sort_by(order_neighbors);
                want.truncate(k);
                let got = q.top_k(&row(query), k, exclude);
                assert_eq!(
                    bits(&got),
                    bits(&want),
                    "n={n} probe {probe} exclude {exclude:?} diverged"
                );
                assert!(
                    got.windows(2).all(|w| w[0].similarity > w[1].similarity
                        || (w[0].similarity == w[1].similarity && w[0].id < w[1].id)),
                    "n={n} probe {probe}: not similarity-descending, id-ascending"
                );
            }
        }
    }
}
