//! Property-style tests on the core data structures and invariants of
//! the reproduction: each test draws many random cases from a seeded
//! generator and asserts the invariant on every one (deterministic, no
//! external test framework).

use explainti::core::EmbeddingStore;
use explainti::metrics::f1_scores;
use explainti::nn::{kl_divergence, softmax, Tensor};
use explainti::table::{Column, ColumnGraph, Table, TableCollection};
use explainti::tokenizer::{encode_column, Tokenizer, CLS, PAD, SEP};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const CASES: usize = 64;

fn random_word(rng: &mut SmallRng, alphabet: &[u8], len: std::ops::Range<usize>) -> String {
    let n = rng.gen_range(len);
    (0..n).map(|_| alphabet[rng.gen_range(0..alphabet.len())] as char).collect()
}

/// Softmax always yields a probability distribution, whatever the logits.
#[test]
fn softmax_is_distribution() {
    let mut rng = SmallRng::seed_from_u64(1001);
    for _ in 0..CASES {
        let n = rng.gen_range(1..32);
        let xs: Vec<f32> = (0..n).map(|_| rng.gen_range(-50.0f32..50.0)).collect();
        let p = softmax(&xs);
        assert_eq!(p.len(), xs.len());
        assert!(p.iter().all(|&v| (0.0..=1.0001).contains(&v)));
        let sum: f32 = p.iter().sum();
        assert!((sum - 1.0).abs() < 1e-4, "sum {sum}");
    }
}

/// KL divergence is non-negative and zero iff the distributions match.
#[test]
fn kl_is_nonnegative() {
    let mut rng = SmallRng::seed_from_u64(1002);
    for _ in 0..CASES {
        let n = rng.gen_range(2..16);
        let a: Vec<f32> = (0..n).map(|_| rng.gen_range(-5.0f32..5.0)).collect();
        let b: Vec<f32> = (0..n).map(|_| rng.gen_range(-5.0f32..5.0)).collect();
        let p = softmax(&a);
        let q = softmax(&b);
        assert!(kl_divergence(&p, &q) >= 0.0);
        assert!(kl_divergence(&p, &p) < 1e-5);
    }
}

/// (A·B)ᵀ = Bᵀ·Aᵀ for arbitrary small matrices.
#[test]
fn matmul_transpose_identity() {
    let mut rng = SmallRng::seed_from_u64(1003);
    for _ in 0..CASES {
        let (r, k, c) = (rng.gen_range(1..5), rng.gen_range(1..5), rng.gen_range(1..5));
        let a = Tensor::from_vec(r, k, (0..r * k).map(|_| rng.gen_range(-2.0f32..2.0)).collect());
        let b = Tensor::from_vec(k, c, (0..k * c).map(|_| rng.gen_range(-2.0f32..2.0)).collect());
        let left = a.matmul(&b).transpose();
        let right = b.transpose().matmul(&a.transpose());
        for (x, y) in left.as_slice().iter().zip(right.as_slice()) {
            assert!((x - y).abs() < 1e-4);
        }
    }
}

/// Column encoding always fits the budget, starts with [CLS], ends the
/// live region with [SEP], and pads the rest.
#[test]
fn encoding_respects_frame() {
    let mut rng = SmallRng::seed_from_u64(1004);
    for _ in 0..CASES {
        let words = rng.gen_range(1..=4);
        let title = (0..words)
            .map(|_| random_word(&mut rng, b"abcdefghijklmnopqrstuvwxyz", 1..9))
            .collect::<Vec<_>>()
            .join(" ");
        let header = random_word(&mut rng, b"abcdefghijklmnopqrstuvwxyz", 1..11);
        let num_cells = rng.gen_range(0..20);
        let cells: Vec<String> = (0..num_cells)
            .map(|_| random_word(&mut rng, b"abcdefghijklmnopqrstuvwxyz0123456789", 1..13))
            .collect();
        let max_len = rng.gen_range(8..64);

        let tok = Tokenizer::train([title.as_str(), header.as_str()], 512);
        let cell_refs: Vec<&str> = cells.iter().map(String::as_str).collect();
        let e = encode_column(&tok, &title, &header, &cell_refs, max_len);
        assert_eq!(e.ids.len(), max_len);
        assert!(e.len <= max_len);
        assert_eq!(e.ids[0], CLS);
        assert_eq!(e.ids[e.len - 1], SEP);
        assert!(e.ids[e.len..].iter().all(|&i| i == PAD));
    }
}

/// Every stored vector, used as the query, retrieves itself first.
#[test]
fn store_self_query() {
    for seed in 0u64..50 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let vectors: Vec<Vec<f32>> =
            (0..60).map(|_| (0..8).map(|_| rng.gen_range(-1.0f32..1.0)).collect()).collect();
        let mut store = EmbeddingStore::new(8);
        for (i, v) in vectors.iter().enumerate() {
            store.set(i, v, 0);
        }
        for (probe, v) in vectors.iter().enumerate() {
            let res = store.top_k(&Tensor::row(v.clone()), 1, None);
            assert_eq!(res[0].id, probe, "seed {seed}");
        }
    }
}

/// F1 scores are always within [0, 1] and micro equals accuracy.
#[test]
fn f1_bounds() {
    let mut rng = SmallRng::seed_from_u64(1006);
    for _ in 0..CASES {
        let n = rng.gen_range(1..100);
        let pairs: Vec<(usize, usize)> =
            (0..n).map(|_| (rng.gen_range(0..6), rng.gen_range(0..6))).collect();
        let preds: Vec<usize> = pairs.iter().map(|p| p.0).collect();
        let actual: Vec<usize> = pairs.iter().map(|p| p.1).collect();
        let f1 = f1_scores(&preds, &actual, 6);
        for v in [f1.micro, f1.macro_, f1.weighted] {
            assert!((0.0..=1.0).contains(&v));
        }
        let acc = pairs.iter().filter(|(p, a)| p == a).count() as f64 / pairs.len() as f64;
        assert!((f1.micro - acc).abs() < 1e-9);
    }
}

/// Neighbour sampling returns exactly `r` nodes whenever the node has
/// any eligible neighbour, and all returned nodes are real neighbours.
#[test]
fn neighbor_sampling_contract() {
    let mut rng = SmallRng::seed_from_u64(1007);
    for _ in 0..CASES {
        let num_tables = rng.gen_range(2..12);
        let r = rng.gen_range(1..20);
        let tables: Vec<Table> = (0..num_tables)
            .map(|i| {
                Table::new(
                    format!("title {}", i % 3),
                    vec![Column::new(format!("header {}", i % 2), vec!["x".into()], Some(0))],
                )
            })
            .collect();
        let collection =
            TableCollection { tables, type_labels: vec!["t".into()], relation_labels: vec![] };
        let (graph, _) = ColumnGraph::build_type(&collection);
        for node in 0..graph.num_nodes() {
            let sampled = graph.sample_neighbors(node, r, None, &mut rng);
            let hood = graph.neighbors(node);
            if hood.is_empty() {
                assert!(sampled.is_empty());
            } else {
                assert_eq!(sampled.len(), r);
                assert!(sampled.iter().all(|n| hood.contains(n)));
            }
        }
    }
}

/// The store's top-k over the whole store returns every sample, in
/// similarity-descending, then id-ascending order, for any vector set.
#[test]
fn store_top_k_ordering() {
    let mut rng = SmallRng::seed_from_u64(1008);
    for _ in 0..CASES {
        let n = rng.gen_range(1..40);
        let vectors: Vec<Vec<f32>> =
            (0..n).map(|_| (0..4).map(|_| rng.gen_range(-1.0f32..1.0)).collect()).collect();
        let mut store = EmbeddingStore::new(4);
        for (i, v) in vectors.iter().enumerate() {
            store.set(i, v, 0);
        }
        let res = store.top_k(&Tensor::row(vectors[0].clone()), vectors.len(), None);
        assert_eq!(res.len(), n);
        for pair in res.windows(2) {
            assert!(
                pair[0].similarity > pair[1].similarity
                    || (pair[0].similarity == pair[1].similarity && pair[0].id < pair[1].id)
            );
        }
    }
}
