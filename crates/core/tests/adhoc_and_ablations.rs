//! Integration tests for ad-hoc prediction and the design-choice
//! ablation switches.

use explainti_core::{ExplainTi, ExplainTiConfig, LeScoring, SeAggregation, TaskKind};
use explainti_corpus::{generate_wiki, WikiConfig};

fn dataset() -> explainti_corpus::Dataset {
    generate_wiki(&WikiConfig { num_tables: 60, seed: 2001, ..Default::default() })
}

#[test]
fn adhoc_column_prediction_works_without_graph_node() {
    let d = dataset();
    let mut cfg = ExplainTiConfig::bert_like(2048, 32);
    cfg.epochs = 2;
    let mut m = ExplainTi::new(&d, cfg);
    m.train();
    let p = m.predict_column("1994 world cup", "country", &["costa rica", "morocco", "norway"]);
    assert!(p.label < d.collection.type_labels.len());
    assert!((p.probs.iter().sum::<f32>() - 1.0).abs() < 1e-3);
    // LE and GE still produce explanations; SE has no graph node.
    assert!(!p.explanation.local.is_empty());
    assert!(!p.explanation.global.is_empty());
    assert!(p.explanation.structural.is_empty());
}

#[test]
fn adhoc_prediction_is_deterministic() {
    let d = dataset();
    let mut cfg = ExplainTiConfig::bert_like(2048, 32);
    cfg.epochs = 1;
    let mut m = ExplainTi::new(&d, cfg);
    m.train();
    let a = m.predict_column("geography", "city", &["barcelona", "kyoto"]);
    let b = m.predict_column("geography", "city", &["barcelona", "kyoto"]);
    assert_eq!(a.label, b.label);
    assert_eq!(a.probs, b.probs);
}

#[test]
fn mean_pooling_reports_uniform_attention() {
    let d = dataset();
    let mut cfg = ExplainTiConfig::bert_like(2048, 32);
    cfg.se_aggregation = SeAggregation::MeanPooling;
    let mut m = ExplainTi::new(&d, cfg);
    m.refresh_store(0);
    // Find a sample with at least two distinct neighbours.
    for idx in 0..m.tasks()[0].data.samples.len() {
        let p = m.predict(TaskKind::Type, idx);
        if p.explanation.structural.len() >= 2 {
            let a0 = p.explanation.structural[0].attention;
            let total: f32 = p.explanation.structural.iter().map(|n| n.attention).sum();
            assert!((total - 1.0).abs() < 1e-3);
            // Per-draw mass is uniform, so merged duplicates are integer
            // multiples of 1/r.
            let r = m.cfg.sample_r as f32;
            let quantum = 1.0 / r;
            let multiple = a0 / quantum;
            assert!(
                (multiple - multiple.round()).abs() < 1e-3,
                "attention {a0} is not a multiple of 1/r"
            );
            return;
        }
    }
    panic!("no sample with >= 2 structural neighbours");
}

#[test]
fn logit_drop_scoring_still_normalises() {
    let d = dataset();
    let mut cfg = ExplainTiConfig::bert_like(2048, 32);
    cfg.le_scoring = LeScoring::LogitDrop;
    let mut m = ExplainTi::new(&d, cfg);
    m.refresh_store(0);
    let p = m.predict(TaskKind::Type, 0);
    let total: f32 = p.explanation.local.iter().map(|s| s.relevance).sum();
    assert!((total - 1.0).abs() < 1e-3, "RS sum {total}");
}
