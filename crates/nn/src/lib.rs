//! # explainti-nn
//!
//! From-scratch neural-network substrate for the ExplainTI (ICDE 2023)
//! reproduction: a dense 2-D [`Tensor`], tape-based reverse-mode autograd
//! ([`Graph`]), layer modules (linear, embedding, layer-norm, multi-head
//! attention, feed-forward, dropout), the cross-entropy loss and the
//! AdamW optimizer with a linear-decay schedule.
//!
//! The paper fine-tunes BERT/RoBERTa; no mature Rust stack supports that
//! end-to-end, so this crate provides the encoder-agnostic machinery on
//! which `explainti-encoder` builds a small pre-trainable transformer.
//! Every backward rule is checked against central finite differences
//! (`tests/gradcheck.rs`).
//!
//! ## Example
//!
//! ```
//! use explainti_nn::{Graph, ParamStore, Tensor, AdamW, LinearSchedule};
//!
//! let mut store = ParamStore::new();
//! let w = store.add("w", Tensor::row(vec![0.0]));
//! let mut opt = AdamW::new(LinearSchedule::constant(0.05));
//! for _ in 0..100 {
//!     let mut g = Graph::new();
//!     let wn = g.param(&store, w);
//!     let t = g.input(Tensor::row(vec![1.0]));
//!     let d = g.sub(wn, t);
//!     let loss = g.mul(d, d);
//!     g.backward(loss);
//!     g.flush_grads(&mut store);
//!     opt.step(&mut store);
//! }
//! assert!((store.value(w).as_slice()[0] - 1.0).abs() < 0.1);
//! ```

#![warn(missing_docs)]

pub mod graph;
pub mod layers;
pub mod optim;
pub mod params;
pub mod simd;
pub mod tensor;

pub use graph::{Graph, NodeId};
pub use layers::{Dropout, Embedding, FeedForward, LayerNorm, Linear, MultiHeadAttention};
pub use optim::{AdamW, LinearSchedule};
pub use params::{Grads, ParamId, ParamStore};
pub use simd::SimdTier;
pub use tensor::{kl_divergence, softmax, softmax_into, Tensor};
