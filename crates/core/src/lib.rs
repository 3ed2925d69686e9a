//! # explainti-core
//!
//! The ExplainTI framework (ICDE 2023): explainable table interpretation
//! with multi-view explanations.
//!
//! Pipeline: tables are serialised to sequences and column graphs
//! (`explainti-table`), a pre-trained transformer encoder
//! (`explainti-encoder`) is fine-tuned multi-task (Algorithm 5), and every
//! prediction carries three explanation views —
//!
//! * **local** (Algorithm 1): relevance-scored sliding windows,
//! * **global** (Algorithm 2): top-K influential training samples by an
//!   exact scan of the embedding store,
//! * **structural** (Algorithm 4): graph-attention over column-graph
//!   neighbours, which also feeds the final classifier (Eq. 9).
//!
//! ## Quickstart
//!
//! ```no_run
//! use explainti_core::{ExplainTi, ExplainTiConfig, TaskKind};
//! use explainti_corpus::{generate_wiki, Split, WikiConfig};
//!
//! let dataset = generate_wiki(&WikiConfig::default());
//! let cfg = ExplainTiConfig::bert_like(2048, 32);
//! let mut model = ExplainTi::new(&dataset, cfg);
//! model.train();
//! let f1 = model.evaluate(TaskKind::Type, Split::Test);
//! let prediction = model.predict(TaskKind::Type, 0);
//! println!("{f1} — top local explanation: {:?}", prediction.explanation.top_local(1));
//! ```

#![warn(missing_docs)]

pub mod config;
pub mod data;
pub mod explain;
pub mod generation;
pub mod model;
pub mod persist;
pub mod store;
pub mod train;

pub use config::{ExplainTiConfig, LeMode, LeScoring, SeAggregation, TaskKind};
pub use data::{build_tokenizer, Sample, TaskData};
pub use explain::{Explanation, GlobalInfluence, LocalSpan, Prediction, StructuralNeighbor};
pub use generation::{Generation, GenerationHandle};
pub use model::{ExplainTi, TaskState};
pub use persist::{
    decode_weights, encode_weights, fnv1a64, Manifest, ManifestFile, PersistError, MANIFEST_NAME,
    SNAPSHOT_FORMAT_VERSION,
};
pub use store::EmbeddingStore;
pub use train::{EpochLog, TrainReport};
