//! # ExplainTI — explainable table interpretation in Rust
//!
//! A from-scratch reproduction of *"Towards Explainable Table
//! Interpretation Using Multi-view Explanations"* (Gao et al., ICDE
//! 2023): column type and column relation prediction with **local**,
//! **global**, and **structural** explanations for every prediction.
//!
//! This facade crate re-exports the whole workspace:
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`core`] | `explainti-core` | the ExplainTI model, LE/GE/SE, exact-scan embedding store, trainer |
//! | [`nn`] | `explainti-nn` | tensor, tape autograd, layers, optimizers |
//! | [`encoder`] | `explainti-encoder` | pre-trainable transformer encoder |
//! | [`tokenizer`] | `explainti-tokenizer` | vocab + table serialisation |
//! | [`table`] | `explainti-table` | table model + column graphs |
//! | [`corpus`] | `explainti-corpus` | synthetic Wiki/Git benchmarks |
//! | [`metrics`] | `explainti-metrics` | F1 triplet, timing, reports |
//! | [`baselines`] | `explainti-baselines` | Sherlock…TCN, SelfExplain, post-hoc |
//! | [`xeval`] | `explainti-xeval` | sufficiency, judges, online simulation |
//! | [`api`] | `explainti-api` | typed request/response DTOs + error codes |
//! | [`serve`] | `explainti-serve` | event-driven HTTP inference server |
//!
//! ## Quickstart
//!
//! ```no_run
//! use explainti::prelude::*;
//!
//! let dataset = generate_wiki(&WikiConfig::default());
//! let mut model = ExplainTi::new(&dataset, ExplainTiConfig::bert_like(2048, 32));
//! model.train();
//! let f1 = model.evaluate(TaskKind::Type, Split::Test);
//! let prediction = model.predict(TaskKind::Type, 0);
//! println!("test F1 {f1}; top window: {:?}", prediction.explanation.top_local(1));
//! ```
//!
//! See `examples/` for runnable end-to-end scenarios and `crates/bench`
//! for the per-table/figure reproduction binaries.

#![warn(missing_docs)]

pub use explainti_api as api;
pub use explainti_baselines as baselines;
pub use explainti_core as core;
pub use explainti_corpus as corpus;
pub use explainti_encoder as encoder;
pub use explainti_faults as faults;
pub use explainti_metrics as metrics;
pub use explainti_nn as nn;
pub use explainti_pool as pool;
pub use explainti_serve as serve;
pub use explainti_table as table;
pub use explainti_tokenizer as tokenizer;
pub use explainti_xeval as xeval;

/// Common imports for applications.
pub mod prelude {
    pub use explainti_core::{
        ExplainTi, ExplainTiConfig, Explanation, LeMode, Prediction, TaskKind,
    };
    pub use explainti_corpus::{
        generate_git, generate_wiki, Dataset, GitConfig, Split, WikiConfig,
    };
    pub use explainti_encoder::Variant;
    pub use explainti_metrics::F1Scores;
    pub use explainti_table::{Column, Table, TableCollection};
}
