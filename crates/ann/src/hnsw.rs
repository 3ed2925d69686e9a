//! Hierarchical Navigable Small World graphs (Malkov & Yashunin, TPAMI'20).
//!
//! A from-scratch implementation of the index the paper uses through
//! faiss. Layers are sampled geometrically; construction runs a greedy
//! descent through upper layers followed by a beam search
//! (`ef_construction`) on each layer at or below the node's level, linking
//! bidirectionally and pruning to the per-layer degree bound.

use crate::{Metric, Neighbor, VectorIndex};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Similarity-evaluation work (`candidates × dim`) below which a batch
/// stays on the calling thread: a neighbour expansion at `M = 16` over
/// 32-dim vectors is ~1k mul-adds, far too small to ship to the pool,
/// while construction beams over wide embeddings clear this easily.
const PAR_MIN_SIM_WORK: usize = 1 << 14;

/// HNSW construction/search parameters.
#[derive(Debug, Clone)]
pub struct HnswConfig {
    /// Target out-degree per layer (`M` in the paper). Layer 0 allows `2M`.
    pub m: usize,
    /// Beam width during construction.
    pub ef_construction: usize,
    /// Beam width during search (must be ≥ k for good recall).
    pub ef_search: usize,
    /// Seed for level sampling (keeps builds deterministic).
    pub seed: u64,
}

impl Default for HnswConfig {
    fn default() -> Self {
        Self { m: 16, ef_construction: 100, ef_search: 64, seed: 0x5eed }
    }
}

struct HnswNode {
    external_id: usize,
    vector: Vec<f32>,
    /// Neighbour lists, one per layer the node participates in.
    neighbors: Vec<Vec<usize>>,
}

/// Approximate nearest-neighbour index with logarithmic search. Built
/// by inserts only; a changed corpus is indexed by building anew.
pub struct HnswIndex {
    cfg: HnswConfig,
    metric: Metric,
    nodes: Vec<HnswNode>,
    entry: Option<usize>,
    max_level: usize,
    rng: SmallRng,
    /// `1/ln(M)` — the level-sampling temperature.
    level_lambda: f64,
}

/// Max-heap entry ordered by similarity.
#[derive(PartialEq)]
struct Candidate {
    sim: f32,
    node: usize,
}

impl Eq for Candidate {}

impl PartialOrd for Candidate {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Candidate {
    fn cmp(&self, other: &Self) -> Ordering {
        self.sim
            .partial_cmp(&other.sim)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.node.cmp(&self.node))
    }
}

/// Min-heap entry (via reversed ordering) used for the result set.
struct Worst(Candidate);

impl PartialEq for Worst {
    fn eq(&self, other: &Self) -> bool {
        self.0 == other.0
    }
}
impl Eq for Worst {}
impl PartialOrd for Worst {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Worst {
    fn cmp(&self, other: &Self) -> Ordering {
        other.0.cmp(&self.0)
    }
}

impl HnswIndex {
    /// Creates an empty index.
    pub fn new(metric: Metric, cfg: HnswConfig) -> Self {
        assert!(cfg.m >= 2, "HNSW requires M >= 2");
        let level_lambda = 1.0 / (cfg.m as f64).ln();
        Self {
            rng: SmallRng::seed_from_u64(cfg.seed),
            cfg,
            metric,
            nodes: Vec::new(),
            entry: None,
            max_level: 0,
            level_lambda,
        }
    }

    /// Creates an index with default parameters and cosine similarity,
    /// matching the paper's faiss usage.
    pub fn cosine_default() -> Self {
        Self::new(Metric::Cosine, HnswConfig::default())
    }

    fn sample_level(&mut self) -> usize {
        let u: f64 = self.rng.gen_range(f64::EPSILON..1.0);
        (-u.ln() * self.level_lambda).floor() as usize
    }

    fn sim(&self, a: usize, q: &[f32]) -> f32 {
        self.metric.similarity(&self.nodes[a].vector, q)
    }

    /// Evaluates `sim(node, query)` for a batch of nodes, splitting the
    /// batch over the global pool when the work (`candidates × dim`) is
    /// large enough to amortise dispatch. Each similarity is computed
    /// independently and results keep input order, so this is exactly
    /// equivalent to the serial map at every thread count.
    fn sims_batch(&self, nodes: &[usize], query: &[f32]) -> Vec<f32> {
        let work = nodes.len() * query.len().max(1);
        if work < PAR_MIN_SIM_WORK {
            return nodes.iter().map(|&n| self.sim(n, query)).collect();
        }
        let pool = explainti_pool::global();
        if pool.threads() == 1 {
            return nodes.iter().map(|&n| self.sim(n, query)).collect();
        }
        let chunk = nodes.len().div_ceil(pool.threads() * 4).max(8);
        let slices: Vec<&[usize]> = nodes.chunks(chunk).collect();
        pool.map(slices.len(), |i| {
            slices[i].iter().map(|&n| self.sim(n, query)).collect::<Vec<f32>>()
        })
        .into_iter()
        .flatten()
        .collect()
    }

    /// Beam search on one layer starting from `entries`.
    ///
    /// The visited set is a `HashSet` rather than a dense bitmap so the
    /// per-query cost stays proportional to the nodes actually visited,
    /// not to the index size.
    fn search_layer(
        &self,
        query: &[f32],
        entries: &[usize],
        ef: usize,
        layer: usize,
    ) -> Vec<Candidate> {
        let mut visited: std::collections::HashSet<usize> =
            std::collections::HashSet::with_capacity(ef * self.cfg.m);
        let mut frontier: BinaryHeap<Candidate> = BinaryHeap::new();
        let mut results: BinaryHeap<Worst> = BinaryHeap::new();

        for &e in entries {
            if !visited.insert(e) {
                continue;
            }
            let sim = self.sim(e, query);
            frontier.push(Candidate { sim, node: e });
            results.push(Worst(Candidate { sim, node: e }));
        }
        let mut visits = visited.len() as u64;
        while let Some(best) = frontier.pop() {
            let worst_sim = results.peek().map(|w| w.0.sim).unwrap_or(f32::NEG_INFINITY);
            if best.sim < worst_sim && results.len() >= ef {
                break;
            }
            if layer < self.nodes[best.node].neighbors.len() {
                // Collect the unvisited neighbours first (preserving the
                // scalar loop's visited-insertion order), batch their
                // similarity evaluations — possibly across the pool —
                // then replay the heap decisions sequentially in the same
                // order. The sims are heap-independent, so this is
                // behaviour-identical to the interleaved scalar loop.
                let fresh: Vec<usize> = self.nodes[best.node].neighbors[layer]
                    .iter()
                    .copied()
                    .filter(|&nb| visited.insert(nb))
                    .collect();
                visits += fresh.len() as u64;
                let sims = self.sims_batch(&fresh, query);
                for (&nb, &sim) in fresh.iter().zip(&sims) {
                    let worst_sim = results.peek().map(|w| w.0.sim).unwrap_or(f32::NEG_INFINITY);
                    if results.len() < ef || sim > worst_sim {
                        frontier.push(Candidate { sim, node: nb });
                        results.push(Worst(Candidate { sim, node: nb }));
                        if results.len() > ef {
                            results.pop();
                        }
                    }
                }
            }
        }
        explainti_obs::counter!("hnsw.nodes_visited", visits);
        let mut out: Vec<Candidate> = results.into_iter().map(|w| w.0).collect();
        out.sort_by(|a, b| b.cmp(a));
        out
    }

    fn max_degree(&self, layer: usize) -> usize {
        if layer == 0 {
            self.cfg.m * 2
        } else {
            self.cfg.m
        }
    }

    /// Prunes a candidate list to the `limit` most similar nodes.
    /// Scoring goes through [`Self::sims_batch`] so large candidate sets
    /// (construction beams) fan out over the pool; the stable sort keeps
    /// tie order identical to the serial path.
    fn select_neighbors(&self, query: &[f32], candidates: &[usize], limit: usize) -> Vec<usize> {
        let sims = self.sims_batch(candidates, query);
        let mut scored: Vec<(f32, usize)> =
            sims.into_iter().zip(candidates.iter().copied()).collect();
        scored.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(Ordering::Equal));
        scored.truncate(limit);
        scored.into_iter().map(|(_, c)| c).collect()
    }
}

impl VectorIndex for HnswIndex {
    fn add(&mut self, id: usize, vector: &[f32]) {
        let _span = explainti_obs::span!("hnsw.insert");
        // Chaos site: drop this insert on the floor, leaving an index
        // that silently covers only part of the corpus.
        if explainti_faults::triggered("ann.index.partial") {
            return;
        }
        let level = self.sample_level();
        let node_idx = self.nodes.len();
        self.nodes.push(HnswNode {
            external_id: id,
            vector: vector.to_vec(),
            neighbors: vec![Vec::new(); level + 1],
        });

        let Some(mut entry) = self.entry else {
            self.entry = Some(node_idx);
            self.max_level = level;
            return;
        };

        // Greedy descent through layers above the node's level.
        let mut layer = self.max_level;
        while layer > level {
            loop {
                let mut improved = false;
                let entry_sim = self.sim(entry, vector);
                if layer < self.nodes[entry].neighbors.len() {
                    let hood = self.nodes[entry].neighbors[layer].clone();
                    for nb in hood {
                        if self.sim(nb, vector) > entry_sim {
                            entry = nb;
                            improved = true;
                            break;
                        }
                    }
                }
                if !improved {
                    break;
                }
            }
            layer -= 1;
        }

        // Beam search + bidirectional linking on layers min(level, max).
        let mut entries = vec![entry];
        for l in (0..=level.min(self.max_level)).rev() {
            let found = self.search_layer(vector, &entries, self.cfg.ef_construction, l);
            let candidates: Vec<usize> = found.iter().map(|c| c.node).collect();
            let selected = self.select_neighbors(vector, &candidates, self.cfg.m);
            self.nodes[node_idx].neighbors[l] = selected.clone();
            for nb in selected {
                self.nodes[nb].neighbors[l].push(node_idx);
                let cap = self.max_degree(l);
                if self.nodes[nb].neighbors[l].len() > cap {
                    let nb_vec = self.nodes[nb].vector.clone();
                    let hood = self.nodes[nb].neighbors[l].clone();
                    self.nodes[nb].neighbors[l] = self.select_neighbors(&nb_vec, &hood, cap);
                }
            }
            entries = found.into_iter().map(|c| c.node).collect();
            if entries.is_empty() {
                entries = vec![entry];
            }
        }

        if level > self.max_level {
            self.max_level = level;
            self.entry = Some(node_idx);
        }
    }

    fn search(&self, query: &[f32], k: usize) -> Vec<Neighbor> {
        let _span = explainti_obs::span!("hnsw.search");
        // Chaos site: simulate a corrupt/unreadable index — the caller
        // sees an empty result set, which GE turns into `global: []`.
        if explainti_faults::triggered("ann.search.corrupt") {
            return Vec::new();
        }
        let Some(mut entry) = self.entry else {
            return Vec::new();
        };
        // Greedy descent to layer 1.
        for layer in (1..=self.max_level).rev() {
            loop {
                let mut improved = false;
                let entry_sim = self.sim(entry, query);
                if layer < self.nodes[entry].neighbors.len() {
                    let hood = &self.nodes[entry].neighbors[layer];
                    for &nb in hood {
                        if self.sim(nb, query) > entry_sim {
                            entry = nb;
                            improved = true;
                            break;
                        }
                    }
                }
                if !improved {
                    break;
                }
            }
        }
        let ef = self.cfg.ef_search.max(k);
        let found = self.search_layer(query, &[entry], ef, 0);
        found
            .into_iter()
            .take(k)
            .map(|c| Neighbor { id: self.nodes[c.node].external_id, similarity: c.sim })
            .collect()
    }

    fn len(&self) -> usize {
        self.nodes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{recall_at_k, BruteForceIndex};

    fn random_vectors(n: usize, dim: usize, seed: u64) -> Vec<Vec<f32>> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..n).map(|_| (0..dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect()).collect()
    }

    #[test]
    fn empty_index_returns_nothing() {
        let idx = HnswIndex::cosine_default();
        assert!(idx.search(&[1.0, 0.0], 3).is_empty());
        assert!(idx.is_empty());
    }

    #[test]
    fn single_vector_is_found() {
        let mut idx = HnswIndex::cosine_default();
        idx.add(42, &[0.5, 0.5]);
        let res = idx.search(&[0.5, 0.5], 1);
        assert_eq!(res.len(), 1);
        assert_eq!(res[0].id, 42);
        assert!((res[0].similarity - 1.0).abs() < 1e-5);
    }

    #[test]
    fn exact_match_ranks_first() {
        let vectors = random_vectors(200, 8, 3);
        let mut idx = HnswIndex::cosine_default();
        for (i, v) in vectors.iter().enumerate() {
            idx.add(i, v);
        }
        for probe in [0usize, 57, 123, 199] {
            let res = idx.search(&vectors[probe], 1);
            assert_eq!(res[0].id, probe, "self-query must return itself");
        }
    }

    #[test]
    fn recall_against_brute_force_is_high() {
        let vectors = random_vectors(500, 16, 7);
        let mut hnsw = HnswIndex::cosine_default();
        let mut exact = BruteForceIndex::new(Metric::Cosine);
        for (i, v) in vectors.iter().enumerate() {
            hnsw.add(i, v);
            exact.add(i, v);
        }
        let queries = random_vectors(50, 16, 11);
        let recall = recall_at_k(&hnsw, &exact, &queries, 10);
        assert!(recall >= 0.9, "HNSW recall@10 too low: {recall}");
    }

    #[test]
    fn euclidean_metric_works_too() {
        let vectors = random_vectors(200, 4, 5);
        let mut hnsw = HnswIndex::new(Metric::Euclidean, HnswConfig::default());
        let mut exact = BruteForceIndex::new(Metric::Euclidean);
        for (i, v) in vectors.iter().enumerate() {
            hnsw.add(i, v);
            exact.add(i, v);
        }
        let queries = random_vectors(20, 4, 6);
        let recall = recall_at_k(&hnsw, &exact, &queries, 5);
        assert!(recall >= 0.9, "Euclidean recall@5 too low: {recall}");
    }

    #[test]
    fn results_are_sorted_by_similarity() {
        let vectors = random_vectors(100, 8, 9);
        let mut idx = HnswIndex::cosine_default();
        for (i, v) in vectors.iter().enumerate() {
            idx.add(i, v);
        }
        let res = idx.search(&vectors[0], 10);
        for pair in res.windows(2) {
            assert!(pair[0].similarity >= pair[1].similarity);
        }
    }

    #[test]
    fn build_is_identical_across_pool_widths() {
        // Wide vectors + a large beam push sims_batch over its parallel
        // threshold; the built graph and search results must not depend
        // on the pool width.
        let vectors = random_vectors(300, 64, 33);
        let cfg = HnswConfig { ef_construction: 300, ..HnswConfig::default() };
        let build = || {
            let mut idx = HnswIndex::new(Metric::Cosine, cfg.clone());
            for (i, v) in vectors.iter().enumerate() {
                idx.add(i, v);
            }
            idx
        };
        explainti_pool::configure(1);
        let serial = build();
        explainti_pool::configure(4);
        let parallel = build();
        explainti_pool::configure(explainti_pool::Threads::resolve(None).get());
        for (a, b) in serial.nodes.iter().zip(&parallel.nodes) {
            assert_eq!(a.neighbors, b.neighbors, "graph layout diverged across widths");
        }
        for q in [0usize, 99, 250] {
            let ra: Vec<usize> = serial.search(&vectors[q], 8).into_iter().map(|n| n.id).collect();
            let rb: Vec<usize> =
                parallel.search(&vectors[q], 8).into_iter().map(|n| n.id).collect();
            assert_eq!(ra, rb);
        }
    }

    #[test]
    fn build_is_deterministic_for_same_seed() {
        let vectors = random_vectors(120, 8, 21);
        let build = || {
            let mut idx = HnswIndex::new(Metric::Cosine, HnswConfig::default());
            for (i, v) in vectors.iter().enumerate() {
                idx.add(i, v);
            }
            idx
        };
        let a = build();
        let b = build();
        let q = &vectors[17];
        let ra: Vec<usize> = a.search(q, 5).into_iter().map(|n| n.id).collect();
        let rb: Vec<usize> = b.search(q, 5).into_iter().map(|n| n.id).collect();
        assert_eq!(ra, rb);
    }
}
