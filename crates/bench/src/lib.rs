//! # explainti-bench
//!
//! The reproduction harness: one binary per table/figure of the paper
//! (`table2`–`table5`, `fig3`, `fig5`, `fig6`, `fig7`, `online_sim`), the
//! `ablation` bin, and four measurement bins: `kernels` (matmul, GELU,
//! batched embedding and GE retrieval timings with bitwise checks),
//! `loadgen` (socket-level load against the server), `swapdrill` (hot
//! swaps under traffic) and `obs_snapshot` (per-stage telemetry of one
//! train + evaluate cycle).
//!
//! Every binary reads `EXPLAINTI_SCALE` (default 1.0) to grow or shrink
//! the corpora and training budget consistently; results print in the
//! paper's table layout and are also written as JSON under
//! `bench-results/`.

#![warn(missing_docs)]

use explainti_core::{build_tokenizer, ExplainTiConfig, TaskData};
use explainti_corpus::{generate_git, generate_wiki, scaled, Dataset, GitConfig, WikiConfig};
use explainti_encoder::mlm::{pretrain_mlm, PretrainConfig};
use explainti_encoder::{EncoderConfig, TransformerEncoder, Variant};
use explainti_nn::ParamStore;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Maximum sequence length used by every model in the harness.
pub const MAX_SEQ: usize = 32;
/// Tokenizer vocabulary cap.
pub const VOCAB_CAP: usize = 2048;

/// Reads the experiment scale from `EXPLAINTI_SCALE`.
pub fn scale() -> f64 {
    explainti_corpus::scale_from_env()
}

/// The Wiki-like benchmark at a given scale (≈900 tables at scale 1).
pub fn wiki_dataset(scale: f64) -> Dataset {
    generate_wiki(&WikiConfig {
        num_tables: scaled(900, scale),
        titles_per_topic: scaled(18, scale.sqrt()),
        ..Default::default()
    })
}

/// The Git-like benchmark at a given scale (≈320 tables at scale 1).
pub fn git_dataset(scale: f64) -> Dataset {
    generate_git(&GitConfig { num_tables: scaled(320, scale), ..Default::default() })
}

/// Paper-default ExplainTI configuration for a dataset at a scale.
pub fn explainti_config(variant: Variant, scale: f64) -> ExplainTiConfig {
    let mut cfg = match variant {
        Variant::BertLike => ExplainTiConfig::bert_like(VOCAB_CAP, MAX_SEQ),
        Variant::RobertaLike => ExplainTiConfig::roberta_like(VOCAB_CAP, MAX_SEQ),
    };
    cfg.epochs = scaled(8, scale.min(1.25)).max(2);
    cfg
}

/// Pre-trains one encoder checkpoint for a dataset/variant pair. The
/// checkpoint is shared by every transformer model of that variant in a
/// run — the analogue of all baselines starting from the same published
/// BERT/RoBERTa weights.
pub fn pretrained_checkpoint(dataset: &Dataset, variant: Variant) -> Vec<f32> {
    let tokenizer = build_tokenizer(dataset, VOCAB_CAP);
    let mut cfg = match variant {
        Variant::BertLike => EncoderConfig::bert_like(tokenizer.vocab_size(), MAX_SEQ),
        Variant::RobertaLike => EncoderConfig::roberta_like(tokenizer.vocab_size(), MAX_SEQ),
    };
    cfg.vocab_size = tokenizer.vocab_size();
    let mut rng = SmallRng::seed_from_u64(0x9e7a);
    let mut store = ParamStore::new();
    let encoder = TransformerEncoder::new(&mut store, cfg, &mut rng);

    let mut seqs = Vec::new();
    let type_data = TaskData::prepare_type(dataset, &tokenizer, MAX_SEQ, false);
    for &i in &type_data.train_idx {
        seqs.push(type_data.samples[i].encoded.clone());
    }
    if !dataset.collection.annotated_pairs().is_empty() {
        let rel_data = TaskData::prepare_relation(dataset, &tokenizer, MAX_SEQ, false);
        for &i in &rel_data.train_idx {
            seqs.push(rel_data.samples[i].encoded.clone());
        }
    }
    pretrain_mlm(&encoder, &mut store, &seqs, &PretrainConfig::default(), &mut rng);
    encoder.export_weights(&store)
}

/// Writes a JSON report next to the printed table.
pub fn write_json(name: &str, value: &serde_json::Value) {
    let dir = std::path::Path::new("bench-results");
    if std::fs::create_dir_all(dir).is_ok() {
        let path = dir.join(format!("{name}.json"));
        if let Ok(s) = serde_json::to_string_pretty(value) {
            let _ = std::fs::write(&path, s);
            eprintln!("[saved {path:?}]");
        }
    }
}

/// Formats an F1 triple as three table cells.
pub fn f1_cells(f1: explainti_metrics::F1Scores) -> [String; 3] {
    [format!("{:.3}", f1.micro), format!("{:.3}", f1.macro_), format!("{:.3}", f1.weighted)]
}

/// Dash cells for unsupported tasks.
pub fn dash_cells() -> [String; 3] {
    ["-".into(), "-".into(), "-".into()]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_datasets_shrink() {
        let small = wiki_dataset(0.05);
        assert!(small.collection.tables.len() < 60);
        let git = git_dataset(0.05);
        assert!(git.collection.tables.len() < 30);
    }

    #[test]
    fn checkpoint_is_reusable_across_models() {
        let d = wiki_dataset(0.03);
        let ckpt = pretrained_checkpoint(&d, Variant::BertLike);
        assert!(!ckpt.is_empty());
        // Importing into an ExplainTI model must succeed (layout match).
        let mut m = explainti_core::ExplainTi::new(&d, explainti_config(Variant::BertLike, 0.03));
        m.load_encoder(&ckpt);
    }
}
