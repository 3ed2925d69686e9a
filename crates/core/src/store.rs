//! The embedding store `Q` of Algorithm 2, sharded for scale.
//!
//! Holds the `E_[CLS]` embedding of every *training* sample, refreshed
//! every few epochs during fine-tuning, plus an HNSW index per shard for
//! `O(log N)` top-K influential-sample retrieval. The SE module reads
//! neighbour embeddings from the same store.
//!
//! Samples are partitioned across N [`StoreShard`]s by a consistent hash
//! (Lamping–Veach jump hash) of the sample id, with each sample written
//! to `replicas` consecutive shards so a single unavailable shard cannot
//! lose retrieval coverage. Top-K queries fan out over the global thread
//! pool and merge per-shard results deterministically (similarity
//! descending, id ascending, first-wins dedup), so the merged list is
//! byte-identical between the single-shard and multi-shard layouts
//! whenever every shard answers exactly — which it does below
//! [`EXACT_SCAN_CUTOFF`], where a brute scan both beats graph traversal
//! and removes the approximation. Past the cutoff, HNSW takes over and
//! the equality becomes a recall property.
//!
//! Shards also support *online* maintenance ([`EmbeddingStore::insert_online`],
//! [`EmbeddingStore::remove`]): inserts land incrementally in the live
//! HNSW graph, deletes tombstone it, and a shard compacts itself once
//! tombstones pass [`COMPACT_RATIO`] of its live set.

use explainti_ann::{HnswConfig, HnswIndex, Metric, Neighbor, VectorIndex};
use explainti_nn::Tensor;
use std::collections::BTreeMap;

/// Tombstone fraction of the live set above which a shard compacts its
/// index in place.
const COMPACT_RATIO: f64 = 0.3;
/// Tombstones below this never trigger compaction (avoids thrashing on
/// tiny shards).
const COMPACT_MIN: usize = 8;
/// Shards at or below this many live entries answer queries with an
/// exact scan even when an index is built: at this size the scan is both
/// faster than graph traversal and exact, which is what makes the
/// N=1 vs N>1 merge byte-identical at seed scale.
const EXACT_SCAN_CUTOFF: usize = 1024;

/// One partition of the store: a `BTreeMap` of live embeddings plus an
/// optional incremental HNSW index over them.
pub struct StoreShard {
    entries: BTreeMap<usize, (Tensor, usize)>,
    index: Option<HnswIndex>,
}

impl StoreShard {
    fn new() -> Self {
        Self { entries: BTreeMap::new(), index: None }
    }

    fn set(&mut self, idx: usize, embedding: Tensor, label: usize) {
        self.entries.insert(idx, (embedding, label));
    }

    /// Stores `idx` and inserts it into the live index (if one is built)
    /// without a rebuild; a superseded vector is tombstoned by the index.
    fn insert_online(&mut self, idx: usize, embedding: Tensor, label: usize) {
        if let Some(index) = &mut self.index {
            index.add(idx, embedding.as_slice());
        }
        self.entries.insert(idx, (embedding, label));
        self.maybe_compact();
    }

    fn remove(&mut self, idx: usize) -> bool {
        let hit = self.entries.remove(&idx).is_some();
        if let Some(index) = &mut self.index {
            index.remove(idx);
        }
        if hit {
            self.maybe_compact();
        }
        hit
    }

    /// Compacts the index once tombstones pass [`COMPACT_RATIO`] of the
    /// live set (and at least [`COMPACT_MIN`] have accumulated).
    fn maybe_compact(&mut self) {
        if let Some(index) = &mut self.index {
            let dead = index.tombstones();
            if dead >= COMPACT_MIN && dead as f64 > COMPACT_RATIO * index.len().max(1) as f64 {
                index.compact();
                explainti_obs::counter!("store.compactions", 1);
            }
        }
    }

    fn stored(&self) -> usize {
        self.entries.len()
    }

    fn tombstones(&self) -> usize {
        self.index.as_ref().map_or(0, HnswIndex::tombstones)
    }

    /// Rebuilds this shard's index. Returns false when the
    /// `store.rebuild.partial` chaos site fired mid-loop, leaving an
    /// index that covers only a prefix of the shard.
    fn rebuild(&mut self) -> bool {
        let mut index = HnswIndex::new(Metric::Cosine, HnswConfig::default());
        for (&idx, (embedding, _)) in &self.entries {
            // Chaos site: abandon the rebuild partway, leaving an index
            // that covers only a prefix of the stored embeddings (what a
            // crash mid-rebuild would produce if the index were mmap'd).
            if explainti_faults::triggered("store.rebuild.partial") {
                self.index = Some(index);
                return false;
            }
            index.add(idx, embedding.as_slice());
        }
        self.index = Some(index);
        true
    }

    /// Up to `fetch` most similar entries in this shard, exact below
    /// [`EXACT_SCAN_CUTOFF`] (or with no index), HNSW above it.
    fn top_k_local(&self, query: &[f32], fetch: usize) -> Vec<Neighbor> {
        if fetch == 0 || self.entries.is_empty() {
            return Vec::new();
        }
        if let Some(index) = &self.index {
            if self.entries.len() > EXACT_SCAN_CUTOFF {
                return index.search(query, fetch);
            }
        }
        let metric = Metric::Cosine;
        let mut all: Vec<Neighbor> = self
            .entries
            .iter()
            .map(|(&id, (e, _))| Neighbor {
                id,
                similarity: metric.similarity(query, e.as_slice()),
            })
            .collect();
        all.sort_by(order_neighbors);
        all.truncate(fetch);
        all
    }
}

/// Deterministic neighbour order: similarity descending, id ascending.
fn order_neighbors(a: &Neighbor, b: &Neighbor) -> std::cmp::Ordering {
    b.similarity
        .partial_cmp(&a.similarity)
        .unwrap_or(std::cmp::Ordering::Equal)
        .then_with(|| a.id.cmp(&b.id))
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
    /// Monotonic version, bumped on every rebuild (diagnostics).
    version: u64,
}

impl EmbeddingStore {
    /// Creates a single-shard store for embeddings of dimension `dim`
    /// (the layout every store had before sharding landed).
    pub fn new(_num_samples: usize, dim: usize) -> Self {
        Self::with_shards(dim, 1, 1)
    }

    /// Creates a store partitioned over `shards` with each sample
    /// written to `replicas` consecutive shards.
    ///
    /// # Panics
    /// Panics unless `1 <= replicas <= shards`.
    pub fn with_shards(dim: usize, shards: usize, replicas: usize) -> Self {
        assert!(shards >= 1, "store needs at least one shard");
        assert!(
            (1..=shards).contains(&replicas),
            "replicas must be in 1..=shards (got {replicas} over {shards})"
        );
        Self {
            dim,
            shards: (0..shards).map(|_| StoreShard::new()).collect(),
            replicas,
            distinct: 0,
            version: 0,
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

    /// Primary shard of sample `idx`.
    fn primary(&self, idx: usize) -> usize {
        jump_hash(mix64(idx as u64), self.shards.len())
    }

    /// The shards holding sample `idx`: the primary plus the next
    /// `replicas - 1` shards (mod N).
    fn targets(&self, idx: usize) -> impl Iterator<Item = usize> {
        let n = self.shards.len();
        let primary = self.primary(idx);
        (0..self.replicas).map(move |r| (primary + r) % n)
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

    /// Per-shard `(stored, tombstones)` sizes, shard order.
    pub fn shard_sizes(&self) -> Vec<(usize, usize)> {
        self.shards.iter().map(|s| (s.stored(), s.tombstones())).collect()
    }

    /// Total tombstones across shards.
    pub fn tombstones(&self) -> usize {
        self.shards.iter().map(StoreShard::tombstones).sum()
    }

    /// Stores (or replaces) the embedding of sample `idx` on every
    /// replica shard. Offline path: the indexes pick the write up on the
    /// next [`Self::rebuild_index`].
    ///
    /// # Panics
    /// Panics if the embedding is not a `1 x dim` row.
    pub fn set(&mut self, idx: usize, embedding: Tensor, label: usize) {
        assert_eq!(embedding.shape(), (1, self.dim), "embedding shape mismatch");
        if !self.shards[self.primary(idx)].entries.contains_key(&idx) {
            self.distinct += 1;
        }
        let targets: Vec<usize> = self.targets(idx).collect();
        for t in targets {
            self.shards[t].set(idx, embedding.clone(), label);
        }
    }

    /// Stores sample `idx` and makes it retrievable immediately: every
    /// replica shard inserts it into its live HNSW graph (no rebuild).
    ///
    /// # Panics
    /// Panics if the embedding is not a `1 x dim` row.
    pub fn insert_online(&mut self, idx: usize, embedding: Tensor, label: usize) {
        assert_eq!(embedding.shape(), (1, self.dim), "embedding shape mismatch");
        if !self.shards[self.primary(idx)].entries.contains_key(&idx) {
            self.distinct += 1;
        }
        let targets: Vec<usize> = self.targets(idx).collect();
        for t in targets {
            self.shards[t].insert_online(idx, embedding.clone(), label);
        }
        explainti_obs::set_gauge("store.tombstones", self.tombstones() as f64);
    }

    /// Removes sample `idx` from every replica shard (tombstoning it in
    /// live indexes). Returns false when the sample was not stored.
    pub fn remove(&mut self, idx: usize) -> bool {
        let targets: Vec<usize> = self.targets(idx).collect();
        let mut hit = false;
        for t in targets {
            hit |= self.shards[t].remove(idx);
        }
        if hit {
            self.distinct -= 1;
        }
        explainti_obs::set_gauge("store.tombstones", self.tombstones() as f64);
        hit
    }

    /// The stored embedding of sample `idx`, if any.
    pub fn get(&self, idx: usize) -> Option<&Tensor> {
        let n = self.shards.len();
        let primary = self.primary(idx);
        (0..self.replicas)
            .map(|r| (primary + r) % n)
            .find_map(|t| self.shards[t].entries.get(&idx).map(|(e, _)| e))
    }

    /// Label recorded with the stored embedding.
    pub fn label(&self, idx: usize) -> Option<usize> {
        let n = self.shards.len();
        let primary = self.primary(idx);
        (0..self.replicas)
            .map(|r| (primary + r) % n)
            .find_map(|t| self.shards[t].entries.get(&idx).map(|(_, l)| *l))
    }

    /// Whether sample `idx` has a stored embedding.
    pub fn has(&self, idx: usize) -> bool {
        self.get(idx).is_some()
    }

    /// Number of distinct stored embeddings (replicas counted once).
    pub fn stored(&self) -> usize {
        self.distinct
    }

    /// Rebuild version (increases on every [`Self::rebuild_index`]).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Rebuilds every shard's HNSW index over its stored embeddings.
    /// Call after a refresh pass (every `refresh_epochs` epochs, per the
    /// paper).
    pub fn rebuild_index(&mut self) {
        let _span = explainti_obs::span!("store.rebuild_index");
        for shard in &mut self.shards {
            if !shard.rebuild() {
                break;
            }
        }
        self.version += 1;
        explainti_obs::set_gauge("store.indexed_embeddings", self.stored() as f64);
        explainti_obs::set_gauge("store.shards", self.shards.len() as f64);
        explainti_obs::set_gauge("store.tombstones", self.tombstones() as f64);
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
        let mut q = EmbeddingStore::new(4, 2);
        q.set(1, row(vec![1.0, 0.0]), 7);
        assert!(q.has(1));
        assert!(!q.has(0));
        assert_eq!(q.label(1), Some(7));
        assert_eq!(q.stored(), 1);
    }

    #[test]
    fn top_k_without_index_falls_back_to_scan() {
        let mut q = EmbeddingStore::new(3, 2);
        q.set(0, row(vec![1.0, 0.0]), 0);
        q.set(1, row(vec![0.0, 1.0]), 1);
        q.set(2, row(vec![0.9, 0.1]), 0);
        let res = q.top_k(&row(vec![1.0, 0.0]), 2, None);
        assert_eq!(res[0].id, 0);
        assert_eq!(res[1].id, 2);
    }

    #[test]
    fn exclusion_drops_the_query_sample() {
        let mut q = EmbeddingStore::new(3, 2);
        q.set(0, row(vec![1.0, 0.0]), 0);
        q.set(1, row(vec![0.99, 0.01]), 0);
        q.rebuild_index();
        let res = q.top_k(&row(vec![1.0, 0.0]), 1, Some(0));
        assert_eq!(res.len(), 1);
        assert_eq!(res[0].id, 1);
    }

    #[test]
    fn rebuild_bumps_version_and_indexes_all() {
        let mut q = EmbeddingStore::new(10, 2);
        for i in 0..10 {
            q.set(i, row(vec![i as f32, 1.0]), i);
        }
        assert_eq!(q.version(), 0);
        q.rebuild_index();
        assert_eq!(q.version(), 1);
        let res = q.top_k(&row(vec![9.0, 1.0]), 3, None);
        assert_eq!(res.len(), 3);
        assert_eq!(res[0].id, 9);
    }

    #[test]
    fn empty_store_returns_nothing() {
        let q = EmbeddingStore::new(5, 3);
        assert!(q.top_k(&row(vec![1.0, 0.0, 0.0]), 4, None).is_empty());
    }

    fn fill(q: &mut EmbeddingStore, n: usize, dim: usize) {
        // Deterministic but unordered-looking vectors.
        for i in 0..n {
            let v: Vec<f32> = (0..dim)
                .map(|d| ((mix64((i * dim + d) as u64) % 1000) as f32 / 500.0) - 1.0)
                .collect();
            q.set(i, row(v), i % 5);
        }
    }

    #[test]
    fn sharded_merge_is_byte_identical_to_single_shard() {
        let (n, dim, k) = (257, 8, 7);
        let mut single = EmbeddingStore::with_shards(dim, 1, 1);
        let mut sharded = EmbeddingStore::with_shards(dim, 4, 1);
        let mut replicated = EmbeddingStore::with_shards(dim, 4, 2);
        fill(&mut single, n, dim);
        fill(&mut sharded, n, dim);
        fill(&mut replicated, n, dim);
        single.rebuild_index();
        sharded.rebuild_index();
        replicated.rebuild_index();
        for probe in [0usize, 31, 100, 256] {
            let query = single.get(probe).unwrap().clone();
            let a = single.top_k(&query, k, Some(probe));
            let b = sharded.top_k(&query, k, Some(probe));
            let c = replicated.top_k(&query, k, Some(probe));
            let bits = |v: &Vec<Neighbor>| {
                v.iter().map(|nb| (nb.id, nb.similarity.to_bits())).collect::<Vec<_>>()
            };
            assert_eq!(bits(&a), bits(&b), "1-shard vs 4-shard merge diverged");
            assert_eq!(bits(&a), bits(&c), "replicated merge diverged");
        }
    }

    // Failpoint-driven coverage (shard outage + replica failover) lives
    // in `tests/sharded_store.rs`: the failpoint registry is global, so
    // those tests need their own process.

    #[test]
    fn online_insert_is_retrievable_without_rebuild() {
        let dim = 4;
        let mut q = EmbeddingStore::with_shards(dim, 4, 2);
        fill(&mut q, 32, dim);
        q.rebuild_index();
        let version = q.version();
        q.insert_online(1000, row(vec![1.0, 0.0, 0.0, 0.0]), 3);
        assert_eq!(q.version(), version, "online insert must not rebuild");
        assert_eq!(q.label(1000), Some(3));
        let res = q.top_k(&row(vec![1.0, 0.0, 0.0, 0.0]), 1, None);
        assert_eq!(res[0].id, 1000);

        assert!(q.remove(1000));
        assert!(!q.remove(1000));
        let res = q.top_k(&row(vec![1.0, 0.0, 0.0, 0.0]), 3, None);
        assert!(res.iter().all(|nb| nb.id != 1000), "removed sample still retrieved");
        assert_eq!(q.stored(), 32);
    }

    #[test]
    fn tombstone_buildup_triggers_compaction() {
        let dim = 4;
        let mut q = EmbeddingStore::with_shards(dim, 2, 1);
        fill(&mut q, 60, dim);
        q.rebuild_index();
        for i in 0..40 {
            q.remove(i);
        }
        // COMPACT_RATIO at 0.3 with COMPACT_MIN 8: 40 removals over two
        // shards must have compacted both back under the threshold.
        let total: usize = q.shard_sizes().iter().map(|&(_, t)| t).sum();
        for (stored, tomb) in q.shard_sizes() {
            assert!(
                tomb < COMPACT_MIN || (tomb as f64) <= COMPACT_RATIO * stored.max(1) as f64,
                "shard kept {tomb} tombstones over {stored} live entries (total {total})"
            );
        }
        assert_eq!(q.stored(), 20);
    }

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
