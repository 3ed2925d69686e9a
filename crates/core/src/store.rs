//! The embedding store `Q` of Algorithm 2, sharded for scale.
//!
//! Holds the `E_[CLS]` embedding of every *training* sample, refreshed
//! every few epochs during fine-tuning. Top-K influential-sample
//! retrieval is an exact scan: each shard keeps its embeddings in one
//! contiguous `rows × dim` slab and scores every row with the SIMD cosine
//! kernel. The SE module reads neighbour embeddings from the same store.
//!
//! Samples are partitioned across N [`StoreShard`]s by a consistent hash
//! (Lamping–Veach jump hash) of the sample id, with each sample written
//! to `replicas` consecutive shards so a single unavailable shard cannot
//! lose retrieval coverage. Top-K queries fan out over the global thread
//! pool and merge per-shard results deterministically (similarity
//! descending, id ascending, first-wins dedup). Every shard answers
//! exactly, so the merged list is byte-identical between the
//! single-shard and multi-shard layouts at any store size.
//!
//! Algorithm 2 refreshes `Q` wholesale: [`EmbeddingStore::set`] every
//! sample, which overwrites its row in place; the next query sees it.

use explainti_ann::Neighbor;
use explainti_nn::Tensor;
use std::cmp::Ordering;
use std::collections::BTreeMap;

/// One partition of the store: its embeddings as one contiguous slab,
/// with the sample id and label of each row.
pub struct StoreShard {
    dim: usize,
    /// `ids.len() × dim` embeddings; row `r` belongs to sample `ids[r]`.
    slab: Vec<f32>,
    ids: Vec<usize>,
    labels: Vec<usize>,
    /// Sample id → row.
    rows: BTreeMap<usize, usize>,
}

impl StoreShard {
    fn new(dim: usize) -> Self {
        Self { dim, slab: Vec::new(), ids: Vec::new(), labels: Vec::new(), rows: BTreeMap::new() }
    }

    fn set(&mut self, idx: usize, embedding: &[f32], label: usize) {
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

    fn row(&self, r: usize) -> &[f32] {
        &self.slab[r * self.dim..(r + 1) * self.dim]
    }

    fn stored(&self) -> usize {
        self.ids.len()
    }

    /// The `fetch` most similar rows of this shard in [`order_neighbors`]
    /// order: every row is scored, and a sorted buffer of at most `fetch`
    /// keeps the best, so the answer equals a full sort truncated to
    /// `fetch`.
    fn top_k_local(&self, query: &[f32], fetch: usize) -> Vec<Neighbor> {
        let mut best: Vec<Neighbor> = Vec::with_capacity(fetch.min(self.stored()) + 1);
        if fetch == 0 {
            return best;
        }
        for (r, &id) in self.ids.iter().enumerate() {
            let nb = Neighbor { id, similarity: explainti_nn::simd::cosine(query, self.row(r)) };
            if best.len() == fetch && order_neighbors(&nb, &best[fetch - 1]) != Ordering::Less {
                continue;
            }
            let at = best.partition_point(|b| order_neighbors(b, &nb) == Ordering::Less);
            best.insert(at, nb);
            best.truncate(fetch);
        }
        best
    }
}

/// Deterministic neighbour order: similarity descending, id ascending.
fn order_neighbors(a: &Neighbor, b: &Neighbor) -> Ordering {
    b.similarity.partial_cmp(&a.similarity).unwrap_or(Ordering::Equal).then_with(|| a.id.cmp(&b.id))
}

/// Finalizer from splitmix64 — spreads dense sample ids over the key
/// space before the jump hash.
fn mix64(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

/// Lamping–Veach jump consistent hash: maps `key` to a bucket in
/// `0..buckets` such that growing the shard count only moves `1/N` of
/// the keys.
fn jump_hash(mut key: u64, buckets: usize) -> usize {
    debug_assert!(buckets >= 1);
    let mut b: i64 = -1;
    let mut j: i64 = 0;
    while j < buckets as i64 {
        b = j;
        key = key.wrapping_mul(2862933555777941757).wrapping_add(1);
        let r = ((key >> 33).wrapping_add(1)) as f64;
        j = ((b.wrapping_add(1)) as f64 * ((1u64 << 31) as f64 / r)) as i64;
    }
    b as usize
}

/// Sharded, replicated embedding store (see module docs).
pub struct EmbeddingStore {
    dim: usize,
    shards: Vec<StoreShard>,
    replicas: usize,
    /// Distinct stored sample count (replicas counted once).
    distinct: usize,
}

impl EmbeddingStore {
    /// Creates a store for embeddings of dimension `dim`, partitioned
    /// over `shards` with each sample written to `replicas` consecutive
    /// shards.
    ///
    /// # Panics
    /// Panics unless `1 <= replicas <= shards`.
    pub fn with_shards(dim: usize, shards: usize, replicas: usize) -> Self {
        assert!(shards >= 1, "store needs at least one shard");
        assert!(
            (1..=shards).contains(&replicas),
            "replicas must be in 1..=shards (got {replicas} over {shards})"
        );
        explainti_obs::set_gauge("store.shards", shards as f64);
        Self {
            dim,
            shards: (0..shards).map(|_| StoreShard::new(dim)).collect(),
            replicas,
            distinct: 0,
        }
    }

    /// Embedding dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Replication factor.
    pub fn replicas(&self) -> usize {
        self.replicas
    }

    /// The shards holding sample `idx`: its primary shard (jump hash)
    /// plus the next `replicas - 1` shards (mod N).
    fn targets(&self, idx: usize) -> impl Iterator<Item = usize> {
        let n = self.shards.len();
        let primary = jump_hash(mix64(idx as u64), n);
        (0..self.replicas).map(move |r| (primary + r) % n)
    }

    /// The first replica shard holding sample `idx`, with its row there.
    fn locate(&self, idx: usize) -> Option<(&StoreShard, usize)> {
        self.targets(idx).find_map(|t| {
            let shard = &self.shards[t];
            shard.rows.get(&idx).map(|&r| (shard, r))
        })
    }

    /// Checks the `store.shard.unavailable` chaos site for one shard
    /// query; a tripped shard contributes nothing to the merge and the
    /// replicas are expected to cover for it.
    fn shard_available(&self, _shard: usize) -> bool {
        if explainti_faults::triggered("store.shard.unavailable") {
            explainti_obs::counter!("store.shard.unavailable", 1);
            false
        } else {
            true
        }
    }

    /// True when any shard currently reports unavailable (admin probe;
    /// consumes one `store.shard.unavailable` trigger per shard).
    pub fn probe_unavailable(&self) -> Option<usize> {
        (0..self.shards.len()).find(|&s| !self.shard_available(s))
    }

    /// Per-shard stored entry counts (replicas included), shard order.
    pub fn shard_sizes(&self) -> Vec<usize> {
        self.shards.iter().map(StoreShard::stored).collect()
    }

    /// Stores (or overwrites in place) the embedding of sample `idx` on
    /// every replica shard.
    ///
    /// # Panics
    /// Panics if the embedding is not `dim` long.
    pub fn set(&mut self, idx: usize, embedding: &[f32], label: usize) {
        assert_eq!(embedding.len(), self.dim, "embedding length mismatch");
        if self.locate(idx).is_none() {
            self.distinct += 1;
        }
        let targets: Vec<usize> = self.targets(idx).collect();
        for t in targets {
            self.shards[t].set(idx, embedding, label);
        }
    }

    /// The stored embedding of sample `idx`, if any.
    pub fn get(&self, idx: usize) -> Option<&[f32]> {
        self.locate(idx).map(|(shard, r)| shard.row(r))
    }

    /// Label recorded with the stored embedding.
    pub fn label(&self, idx: usize) -> Option<usize> {
        self.locate(idx).map(|(shard, r)| shard.labels[r])
    }

    /// Whether sample `idx` has a stored embedding.
    pub fn has(&self, idx: usize) -> bool {
        self.locate(idx).is_some()
    }

    /// Number of distinct stored embeddings (replicas counted once).
    pub fn stored(&self) -> usize {
        self.distinct
    }

    /// Top-`k` most similar stored samples to `query`, optionally
    /// excluding one index (the query sample itself during training).
    ///
    /// Fans the query out over every shard (on the global pool when
    /// sharded) and merges the per-shard lists deterministically:
    /// similarity descending, id ascending, duplicates from replica
    /// shards collapsed first-wins. N=1 routes through the same merge.
    pub fn top_k(&self, query: &Tensor, k: usize, exclude: Option<usize>) -> Vec<Neighbor> {
        if k == 0 || self.distinct == 0 {
            return Vec::new();
        }
        let fetch = k + usize::from(exclude.is_some());
        let n = self.shards.len();
        // Availability is decided on the calling thread so counted
        // failpoint policies (`times(1)`, `every(2)`) stay deterministic
        // under pool fan-out.
        let available: Vec<bool> = (0..n).map(|s| self.shard_available(s)).collect();
        let slices = query.as_slice();
        let per_shard: Vec<Vec<Neighbor>> = if n == 1 {
            vec![if available[0] { self.shards[0].top_k_local(slices, fetch) } else { Vec::new() }]
        } else {
            explainti_pool::global().map(n, |s| {
                if available[s] {
                    self.shards[s].top_k_local(slices, fetch)
                } else {
                    Vec::new()
                }
            })
        };
        let mut merged: Vec<Neighbor> = per_shard.into_iter().flatten().collect();
        merged.sort_by(order_neighbors);
        let mut seen = std::collections::BTreeSet::new();
        merged.retain(|nb| Some(nb.id) != exclude && seen.insert(nb.id));
        merged.truncate(k);
        merged
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
        let mut q = EmbeddingStore::with_shards(2, 1, 1);
        q.set(1, &[1.0, 0.0], 7);
        assert!(q.has(1));
        assert!(!q.has(0));
        assert_eq!(q.get(1), Some(&[1.0, 0.0][..]));
        assert_eq!(q.label(1), Some(7));
        assert_eq!(q.stored(), 1);
    }

    #[test]
    fn top_k_ranks_by_cosine() {
        let mut q = EmbeddingStore::with_shards(2, 1, 1);
        q.set(0, &[1.0, 0.0], 0);
        q.set(1, &[0.0, 1.0], 1);
        q.set(2, &[0.9, 0.1], 0);
        let res = q.top_k(&row(vec![1.0, 0.0]), 2, None);
        assert_eq!(res[0].id, 0);
        assert_eq!(res[1].id, 2);
    }

    #[test]
    fn exclusion_drops_the_query_sample() {
        let mut q = EmbeddingStore::with_shards(2, 1, 1);
        q.set(0, &[1.0, 0.0], 0);
        q.set(1, &[0.99, 0.01], 0);
        let res = q.top_k(&row(vec![1.0, 0.0]), 1, Some(0));
        assert_eq!(res.len(), 1);
        assert_eq!(res[0].id, 1);
    }

    #[test]
    fn set_overwrites_in_place() {
        let mut q = EmbeddingStore::with_shards(2, 4, 2);
        for i in 0..10 {
            q.set(i, &[i as f32, 1.0], i);
        }
        q.set(3, &[5.0, 0.0], 8);
        assert_eq!(q.stored(), 10);
        assert_eq!(q.shard_sizes().iter().sum::<usize>(), 20);
        assert_eq!(q.get(3), Some(&[5.0, 0.0][..]));
        assert_eq!(q.label(3), Some(8));
        let res = q.top_k(&row(vec![1.0, 0.0]), 3, None);
        assert_eq!(res.len(), 3);
        assert_eq!(res[0].id, 3);
        assert_eq!(res[1].id, 9);
    }

    #[test]
    fn empty_store_returns_nothing() {
        let q = EmbeddingStore::with_shards(3, 1, 1);
        assert!(q.top_k(&row(vec![1.0, 0.0, 0.0]), 4, None).is_empty());
    }

    fn fill(q: &mut EmbeddingStore, n: usize, dim: usize) {
        // Deterministic but unordered-looking vectors.
        for i in 0..n {
            let v: Vec<f32> = (0..dim)
                .map(|d| ((mix64((i * dim + d) as u64) % 1000) as f32 / 500.0) - 1.0)
                .collect();
            q.set(i, &v, i % 5);
        }
    }

    /// Every layout answers every probe exactly: each answer equals a
    /// full sort of all stored similarities, bit for bit. The 2,000-row
    /// case puts the single shard past 1,024 rows while each of four
    /// shards stays under it, so any size-dependent switch to an
    /// approximate search shows up as a layout divergence.
    #[test]
    fn sharded_merge_is_byte_identical_to_single_shard() {
        let bits = |v: &[Neighbor]| {
            v.iter().map(|nb| (nb.id, nb.similarity.to_bits())).collect::<Vec<_>>()
        };
        let cases: [(usize, usize, usize, Vec<usize>); 2] =
            [(257, 8, 7, vec![0, 31, 100, 256]), (2_000, 32, 10, (0..2_000).collect())];
        for (n, dim, k, probes) in cases {
            let layouts = [(1, 1), (4, 1), (4, 2)].map(|(shards, replicas)| {
                let mut q = EmbeddingStore::with_shards(dim, shards, replicas);
                fill(&mut q, n, dim);
                q
            });
            let rows: Vec<&[f32]> = (0..n).map(|id| layouts[0].get(id).unwrap()).collect();
            for probe in probes {
                let mut want: Vec<Neighbor> = (0..n)
                    .filter(|&id| id != probe)
                    .map(|id| Neighbor {
                        id,
                        similarity: explainti_nn::simd::cosine(rows[probe], rows[id]),
                    })
                    .collect();
                want.sort_by(order_neighbors);
                want.truncate(k);
                let query = row(rows[probe].to_vec());
                for (layout, q) in ["1-shard", "4-shard", "4x2 replicated"].iter().zip(&layouts) {
                    let got = q.top_k(&query, k, Some(probe));
                    assert_eq!(bits(&got), bits(&want), "{layout} n={n} probe {probe} diverged");
                }
            }
        }
    }

    // Failpoint-driven coverage (shard outage + replica failover) lives
    // in `tests/sharded_store.rs`: the failpoint registry is global, so
    // those tests need their own process.

    #[test]
    fn jump_hash_is_stable_and_spread() {
        // Consistency: growing 4 → 5 buckets moves only ~1/5 of keys.
        let n = 10_000u64;
        let moved = (0..n).filter(|&i| jump_hash(mix64(i), 4) != jump_hash(mix64(i), 5)).count();
        assert!((moved as f64) < 0.3 * n as f64, "jump hash moved {moved}/{n} keys");
        // Spread: no bucket takes more than twice its fair share.
        let mut counts = [0usize; 4];
        for i in 0..n {
            counts[jump_hash(mix64(i), 4)] += 1;
        }
        for c in counts {
            assert!(c < n as usize / 2, "bucket skew: {counts:?}");
        }
    }
}
