//! ExplainTI hyper-parameters and ablation switches.

use explainti_encoder::{EncoderConfig, Variant};
use serde::{Deserialize, Serialize};

/// Which table-interpretation task a dataset/graph/heads bundle serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TaskKind {
    /// Column type prediction.
    Type,
    /// Column relation prediction.
    Relation,
}

impl std::fmt::Display for TaskKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TaskKind::Type => write!(f, "type"),
            TaskKind::Relation => write!(f, "relation"),
        }
    }
}

/// How the local-explanations module enumerates explainable concepts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LeMode {
    /// Fixed-size sliding windows (the paper's choice for tables).
    #[default]
    SlidingWindow,
    /// Marker-delimited segments — the closest analogue of SelfExplain's
    /// constituent spans, used to reproduce the SelfExplain baseline
    /// (tables lack syntax, so constituent parsing degenerates to coarse
    /// field segments; cf. Section III-F).
    Segments,
}

/// How SE aggregates sampled neighbour embeddings (ablation of DESIGN.md
/// §5: the paper argues attention beats plain pooling because neighbours
/// contribute unequally).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SeAggregation {
    /// Dot-product graph attention (Eq. 5, the paper's choice).
    #[default]
    Attention,
    /// Uniform mean pooling over the sampled neighbours.
    MeanPooling,
}

/// How LE scores a window's relevance (ablation of DESIGN.md §5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LeScoring {
    /// KL divergence between window and full distributions (Eq. 3).
    #[default]
    KlDivergence,
    /// Probability drop on the predicted class.
    LogitDrop,
}

/// Full configuration of an ExplainTI model.
///
/// Defaults mirror the paper's Section IV-A settings scaled to a single
/// CPU core: `α`/`β` regularisers, window size `k`, top-`K` influential
/// samples, SE sampling size `r`, and the embedding-store refresh period.
#[derive(Debug, Clone)]
pub struct ExplainTiConfig {
    /// Encoder architecture (BERT-like or RoBERTa-like).
    pub encoder: EncoderConfig,
    /// Weight of the local-explanations loss (`α` in Eq. 11).
    pub alpha: f32,
    /// Weight of the global-explanations loss (`β` in Eq. 11).
    pub beta: f32,
    /// LE sliding-window size (`k`; paper uses 8 at seq-len 64, we default
    /// to 4 at seq-len 32 — the same fraction).
    pub window: usize,
    /// LE concept enumeration mode (sliding windows vs segments).
    pub le_mode: LeMode,
    /// LE relevance scoring function.
    pub le_scoring: LeScoring,
    /// SE neighbour aggregation.
    pub se_aggregation: SeAggregation,
    /// Stride between pairwise windows in the relation task (the paper
    /// enumerates every pair; a stride bounds the quadratic blow-up).
    pub pair_stride: usize,
    /// Number of influential samples retrieved by GE (`K`).
    pub top_k: usize,
    /// SE neighbour sampling size (`r`).
    pub sample_r: usize,
    /// Fine-tuning epochs (per task; the trainer alternates tasks).
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Peak learning rate with linear decay (paper: 5e-5 for BERT-base;
    /// the small encoder wants a larger rate).
    pub lr: f32,
    /// Refresh the embedding store `Q` every this many epochs (paper: 5).
    pub refresh_epochs: usize,
    /// Enable the local-explanations module (ablation `w/o LE`).
    pub use_le: bool,
    /// Enable the global-explanations module (ablation `w/o GE`).
    pub use_ge: bool,
    /// Enable the structural-explanations module (ablation `w/o SE`).
    pub use_se: bool,
    /// Enable the PP pre-processing step (deduplicate cell values).
    pub use_pp: bool,
    /// RNG seed for initialisation, dropout, sampling.
    pub seed: u64,
}

impl ExplainTiConfig {
    /// Paper-default configuration on a BERT-like encoder.
    pub fn bert_like(vocab_size: usize, max_seq: usize) -> Self {
        Self::with_encoder(EncoderConfig::bert_like(vocab_size, max_seq))
    }

    /// Paper-default configuration on a RoBERTa-like encoder.
    pub fn roberta_like(vocab_size: usize, max_seq: usize) -> Self {
        Self::with_encoder(EncoderConfig::roberta_like(vocab_size, max_seq))
    }

    /// Wraps an explicit encoder configuration with paper defaults.
    pub fn with_encoder(encoder: EncoderConfig) -> Self {
        Self {
            encoder,
            alpha: 0.10,
            beta: 0.10,
            window: 4,
            le_mode: LeMode::SlidingWindow,
            le_scoring: LeScoring::KlDivergence,
            se_aggregation: SeAggregation::Attention,
            pair_stride: 2,
            top_k: 10,
            sample_r: 16,
            epochs: 8,
            batch_size: 16,
            lr: 2e-3,
            refresh_epochs: 1,
            use_le: true,
            use_ge: true,
            use_se: true,
            use_pp: false,
            seed: 0xe271,
        }
    }

    /// Ablation helper: disables a module by Table III row name
    /// (`"le"`, `"ge"`, `"se"`).
    pub fn without(mut self, module: &str) -> Self {
        match module {
            "le" => self.use_le = false,
            "ge" => self.use_ge = false,
            "se" => self.use_se = false,
            other => panic!("unknown ablation module {other:?}"),
        }
        self
    }

    /// The encoder variant name used in report rows.
    pub fn variant_name(&self) -> &'static str {
        match self.encoder.variant {
            Variant::BertLike => "BERT",
            Variant::RobertaLike => "RoBERTa",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ablations_flip_flags() {
        let cfg = ExplainTiConfig::bert_like(100, 32);
        assert!(cfg.use_le && cfg.use_ge && cfg.use_se);
        let no_se = cfg.clone().without("se");
        assert!(!no_se.use_se && no_se.use_le);
    }

    #[test]
    #[should_panic(expected = "unknown ablation")]
    fn bad_ablation_panics() {
        let _ = ExplainTiConfig::bert_like(100, 32).without("xx");
    }

    #[test]
    fn variant_names() {
        assert_eq!(ExplainTiConfig::bert_like(10, 16).variant_name(), "BERT");
        assert_eq!(ExplainTiConfig::roberta_like(10, 16).variant_name(), "RoBERTa");
    }
}
