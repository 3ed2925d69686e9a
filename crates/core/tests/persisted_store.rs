//! A model booted from a snapshot answers bit for bit as one that
//! re-embeds its store. `load_from_dir` fills the embedding stores from
//! `store.bin` instead of running `refresh_store`, so every `Prediction`
//! of a loaded model — probabilities, confidence and all three views —
//! must keep its bits when `refresh_store` then runs on every task, for
//! type and relation probes in the corpus (`predict`) and for ad-hoc
//! columns (`predict_encoded_batch`, the serving path).

use explainti_core::{ExplainTi, ExplainTiConfig, Prediction, TaskKind};
use explainti_corpus::{generate_wiki, Dataset, WikiConfig};
use std::path::PathBuf;

fn dataset() -> Dataset {
    generate_wiki(&WikiConfig { num_tables: 16, seed: 4242, ..Default::default() })
}

fn test_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("explainti-{name}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Every bit of a prediction.
fn bits(p: &Prediction) -> String {
    let mut s = format!("label {} confidence {:08x} probs", p.label, p.confidence.to_bits());
    for x in &p.probs {
        s += &format!(" {:08x}", x.to_bits());
    }
    for l in &p.explanation.local {
        s += &format!(
            " | LE {} {} {:?} {:08x}",
            l.start,
            l.window,
            l.pair_start,
            l.relevance.to_bits()
        );
    }
    for g in &p.explanation.global {
        s += &format!(" | GE {} {:08x} {}", g.sample, g.influence.to_bits(), g.label);
    }
    for n in &p.explanation.structural {
        s += &format!(" | SE {} {:08x} {}", n.node, n.attention.to_bits(), n.label);
    }
    s
}

/// The probes: training and test samples of both tasks through
/// `predict`, and ad-hoc columns through `predict_encoded_batch`.
fn probe_bits(m: &ExplainTi) -> Vec<String> {
    let mut out = Vec::new();
    for kind in [TaskKind::Type, TaskKind::Relation] {
        let task = m.task_index(kind).expect("the probe corpus registers both tasks");
        let data = &m.tasks()[task].data;
        for &idx in data.train_idx.iter().take(2).chain(data.test_idx.iter().take(3)) {
            out.push(format!("{kind:?} {idx}: {}", bits(&m.predict(kind, idx))));
        }
    }
    let encs = [
        m.encode_ad_hoc_column("world cities", "city", &["london", "paris", "tokyo"]),
        m.encode_ad_hoc_column("1994 world cup", "country", &["costa rica", "norway"]),
    ];
    for p in m.predict_encoded_batch(&encs) {
        out.push(format!("ad hoc: {}", bits(&p)));
    }
    out
}

/// Saves `m`, loads it back, and checks that the loaded model's bits
/// survive a refresh of every store. Returns the loaded model's bits.
fn round_trip(m: &ExplainTi, d: &Dataset, name: &str) -> Vec<String> {
    let dir = test_dir(name);
    m.save_to_dir(&dir, d).unwrap();
    let (mut loaded, _) = ExplainTi::load_from_dir(&dir).unwrap();
    std::fs::remove_dir_all(&dir).ok();
    let booted = probe_bits(&loaded);
    for task in 0..loaded.tasks().len() {
        loaded.refresh_store(task);
    }
    assert_eq!(probe_bits(&loaded), booted, "{name}: a refresh moved the loaded model's bits");
    booted
}

#[test]
fn a_loaded_store_answers_as_a_refreshed_one() {
    let d = dataset();
    let mut cfg = ExplainTiConfig::bert_like(2048, 32);
    cfg.epochs = 1;
    let mut m = ExplainTi::new(&d, cfg);
    m.train();
    let trained = probe_bits(&m);
    assert!(
        trained.iter().any(|p| p.contains("| GE ") && p.contains("| SE ")),
        "some probe must read the store through both GE and SE"
    );

    // `train` ends with a refresh, so the save writes the rows it holds.
    assert_eq!(round_trip(&m, &d, "store-trained"), trained, "loaded vs trained model");

    // Weights changed after the last refresh: the held rows are stale, so
    // the save must embed the rows afresh under the saved weights.
    let moved: Vec<f32> = m.export_all_weights().iter().map(|w| w * 0.9 + 0.01).collect();
    m.import_all_weights(&moved);
    let stale = probe_bits(&m);
    let loaded = round_trip(&m, &d, "store-moved");
    assert_ne!(loaded, stale, "the save wrote rows embedded under other weights");
    for task in 0..m.tasks().len() {
        m.refresh_store(task);
    }
    assert_eq!(loaded, probe_bits(&m), "loaded vs refreshed model after a weight change");
}
