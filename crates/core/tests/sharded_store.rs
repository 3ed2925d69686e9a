//! Sharded-store behaviour that needs its own process: failpoint-driven
//! replica failover (the failpoint registry is process-global, so these
//! drills can't live in the lib's parallel unit tests) and model-level
//! layout equivalence — a model served from a 4-shard replicated store
//! must predict and explain byte-identically to a single-shard one.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::sync::{Mutex, MutexGuard};

use explainti_core::{EmbeddingStore, ExplainTi, ExplainTiConfig};
use explainti_corpus::{generate_wiki, WikiConfig};
use explainti_faults as faults;
use explainti_nn::Tensor;

fn lock() -> MutexGuard<'static, ()> {
    static GUARD: Mutex<()> = Mutex::new(());
    GUARD.lock().unwrap_or_else(|e| e.into_inner())
}

/// splitmix64 — deterministic pseudo-random fill values.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

fn fill(q: &mut EmbeddingStore, n: usize, dim: usize) {
    for i in 0..n {
        let v: Vec<f32> =
            (0..dim).map(|d| ((mix((i * dim + d) as u64) % 1000) as f32 / 500.0) - 1.0).collect();
        q.set(i, &v, i % 5);
    }
}

fn query(dim: usize) -> Tensor {
    Tensor::row((0..dim).map(|d| ((mix(d as u64 + 9999) % 1000) as f32 / 500.0) - 1.0).collect())
}

#[test]
fn replicated_store_answers_identically_with_one_shard_down() {
    let _guard = lock();
    faults::clear_all();
    let (n, dim, k) = (120, 8, 6);
    let mut q = EmbeddingStore::with_shards(dim, 4, 2);
    fill(&mut q, n, dim);

    let baseline = q.top_k(&query(dim), k, None);
    assert_eq!(baseline.len(), k);

    // One shard reports unavailable for one query: with two replicas the
    // remaining shards cover every sample, so the merged top-k is
    // byte-identical, not merely similar.
    faults::configure("store.shard.unavailable", faults::Policy::Times(1));
    let degraded = q.top_k(&query(dim), k, None);
    faults::clear_all();

    assert_eq!(baseline.len(), degraded.len());
    for (b, d) in baseline.iter().zip(&degraded) {
        assert_eq!(b.id, d.id);
        assert_eq!(b.similarity.to_bits(), d.similarity.to_bits(), "similarity drifted");
    }
    let hits = faults::hit_counts();
    assert!(
        hits.iter().any(|(site, n)| site == "store.shard.unavailable" && *n >= 1),
        "failover drill did not trip the failpoint: {hits:?}"
    );
}

#[test]
fn unreplicated_shard_loss_degrades_without_panicking() {
    let _guard = lock();
    faults::clear_all();
    let (n, dim, k) = (120, 8, 6);
    let mut q = EmbeddingStore::with_shards(dim, 4, 1);
    fill(&mut q, n, dim);

    // No replicas: losing a shard loses its samples for this query. The
    // store must still answer cleanly with what the other shards hold.
    faults::configure("store.shard.unavailable", faults::Policy::Times(1));
    let degraded = q.top_k(&query(dim), k, None);
    faults::clear_all();
    assert!(degraded.len() <= k);
    assert!(!degraded.is_empty(), "three healthy shards must still answer");
}

#[test]
fn model_predictions_are_identical_across_store_layouts() {
    let d = generate_wiki(&WikiConfig { num_tables: 16, seed: 77, ..Default::default() });
    let build = |cfg: ExplainTiConfig| {
        let mut m = ExplainTi::new(&d, cfg);
        for t in 0..m.tasks().len() {
            m.refresh_store(t);
        }
        m
    };
    let single = build(ExplainTiConfig::bert_like(2048, 32));
    let sharded = build(ExplainTiConfig::bert_like(2048, 32).with_store_layout(4, 2));

    assert_eq!(single.tasks()[0].q.num_shards(), 1);
    assert_eq!(sharded.tasks()[0].q.num_shards(), 4);
    assert_eq!(single.tasks()[0].q.stored(), sharded.tasks()[0].q.stored());

    // Predictions — label, score, and all three explanation views — must
    // not depend on how the explanation store is partitioned.
    let columns: &[(&str, &str, &[&str])] = &[
        ("1994 world cup", "country", &["costa rica", "morocco", "norway"]),
        ("grand prix", "driver", &["senna", "prost"]),
        ("albums", "year", &["1994", "2001", "1987"]),
    ];
    for (title, header, cells) in columns {
        let a = single.predict_column(title, header, cells);
        let b = sharded.predict_column(title, header, cells);
        assert_eq!(
            format!("{a:?}"),
            format!("{b:?}"),
            "prediction diverged across store layouts for column {header:?}"
        );
    }
}
