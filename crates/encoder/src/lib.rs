//! # explainti-encoder
//!
//! A from-scratch pre-trainable transformer encoder standing in for the
//! paper's BERT/RoBERTa base models (see DESIGN.md §2 for the substitution
//! rationale). The encoder maps a fixed-length token sequence to one
//! embedding per position; `E_[CLS]` (row 0) feeds every ExplainTI head.
//!
//! Two [`Variant`]s mirror the paper's two base models: `BertLike` uses
//! static masking during pre-training, `RobertaLike` re-samples masks every
//! epoch (dynamic masking) — the distinguishing training dynamic of
//! RoBERTa that survives miniaturisation.

#![warn(missing_docs)]

pub mod infer;
pub mod mlm;

pub use infer::{InferenceEncoder, Scratch};

use explainti_nn::{
    Dropout, Embedding, FeedForward, Graph, LayerNorm, MultiHeadAttention, NodeId, ParamStore,
    Tensor,
};
use explainti_tokenizer::Encoded;
use rand::rngs::SmallRng;

/// Base-model flavour (affects pre-training dynamics, not architecture).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// BERT-style: masks are sampled once per sequence (static masking).
    BertLike,
    /// RoBERTa-style: masks are re-sampled every epoch (dynamic masking).
    RobertaLike,
}

/// Architecture and regularisation hyper-parameters.
#[derive(Debug, Clone)]
pub struct EncoderConfig {
    /// Vocabulary size (from the tokenizer).
    pub vocab_size: usize,
    /// Maximum sequence length (the paper uses 64; we default to 32).
    pub max_seq: usize,
    /// Model width `d`.
    pub d_model: usize,
    /// Number of encoder layers.
    pub n_layers: usize,
    /// Attention heads per layer.
    pub n_heads: usize,
    /// Feed-forward hidden width.
    pub d_ff: usize,
    /// Dropout probability applied to embeddings and sub-layer outputs.
    pub dropout: f32,
    /// Base-model flavour.
    pub variant: Variant,
}

impl EncoderConfig {
    /// Laptop-scale configuration mirroring BERT-base's role.
    pub fn bert_like(vocab_size: usize, max_seq: usize) -> Self {
        Self {
            vocab_size,
            max_seq,
            d_model: 32,
            n_layers: 2,
            n_heads: 2,
            d_ff: 64,
            dropout: 0.1,
            variant: Variant::BertLike,
        }
    }

    /// Laptop-scale configuration mirroring RoBERTa-base's role.
    pub fn roberta_like(vocab_size: usize, max_seq: usize) -> Self {
        Self { variant: Variant::RobertaLike, ..Self::bert_like(vocab_size, max_seq) }
    }
}

struct EncoderLayer {
    mha: MultiHeadAttention,
    ln1: LayerNorm,
    ff: FeedForward,
    ln2: LayerNorm,
}

/// The transformer encoder: token + position embeddings, `n_layers`
/// post-LN attention blocks.
pub struct TransformerEncoder {
    cfg: EncoderConfig,
    tok_emb: Embedding,
    pos_emb: Embedding,
    emb_ln: LayerNorm,
    layers: Vec<EncoderLayer>,
    dropout: Dropout,
    /// Contiguous parameter index range in the construction store,
    /// used by [`Self::export_weights`] / [`Self::import_weights`].
    param_range: (usize, usize),
}

impl TransformerEncoder {
    /// Registers all encoder parameters in `store`.
    pub fn new(store: &mut ParamStore, cfg: EncoderConfig, rng: &mut SmallRng) -> Self {
        assert!(cfg.d_model.is_multiple_of(cfg.n_heads), "d_model must divide n_heads");
        let start = store.len();
        let tok_emb = Embedding::new(store, "enc.tok_emb", cfg.vocab_size, cfg.d_model, rng);
        let pos_emb = Embedding::new(store, "enc.pos_emb", cfg.max_seq, cfg.d_model, rng);
        let emb_ln = LayerNorm::new(store, "enc.emb_ln", cfg.d_model);
        let mut layers = Vec::with_capacity(cfg.n_layers);
        for l in 0..cfg.n_layers {
            layers.push(EncoderLayer {
                mha: MultiHeadAttention::new(
                    store,
                    &format!("enc.l{l}.mha"),
                    cfg.d_model,
                    cfg.n_heads,
                    rng,
                ),
                ln1: LayerNorm::new(store, &format!("enc.l{l}.ln1"), cfg.d_model),
                ff: FeedForward::new(store, &format!("enc.l{l}.ff"), cfg.d_model, cfg.d_ff, rng),
                ln2: LayerNorm::new(store, &format!("enc.l{l}.ln2"), cfg.d_model),
            });
        }
        let end = store.len();
        Self {
            dropout: Dropout::new(cfg.dropout),
            cfg,
            tok_emb,
            pos_emb,
            emb_ln,
            layers,
            param_range: (start, end),
        }
    }

    /// The configuration this encoder was built with.
    pub fn config(&self) -> &EncoderConfig {
        &self.cfg
    }

    /// Model width `d` (the dimension of `E_[CLS]`).
    pub fn d_model(&self) -> usize {
        self.cfg.d_model
    }

    /// Runs the encoder over an encoded sequence, returning the
    /// `max_seq x d_model` node of all token embeddings (`E` in the paper).
    pub fn forward(
        &self,
        g: &mut Graph,
        store: &ParamStore,
        enc: &Encoded,
        training: bool,
        rng: &mut SmallRng,
    ) -> NodeId {
        self.forward_with_input(g, store, enc, training, rng).0
    }

    /// Like [`Self::forward`] but also returns the pre-layer input
    /// embedding node (token + position sum), which gradient-based
    /// post-hoc explainers (saliency maps) differentiate against.
    pub fn forward_with_input(
        &self,
        g: &mut Graph,
        store: &ParamStore,
        enc: &Encoded,
        training: bool,
        rng: &mut SmallRng,
    ) -> (NodeId, NodeId) {
        let masks = if training { self.draw_dropout_masks(rng) } else { Vec::new() };
        self.forward_masked(g, store, enc, &masks)
    }

    /// Draws every dropout mask one training forward applies, in site
    /// order: the embedding output, then each layer's attention and
    /// feed-forward outputs (`1 + 2·n_layers` masks of
    /// `max_seq x d_model`). Empty when the dropout probability is zero.
    pub fn draw_dropout_masks(&self, rng: &mut SmallRng) -> Vec<Tensor> {
        let (rows, cols) = (self.cfg.max_seq, self.cfg.d_model);
        (0..self.dropout_sites()).filter_map(|_| self.dropout.draw(rows, cols, rng)).collect()
    }

    fn dropout_sites(&self) -> usize {
        1 + 2 * self.layers.len()
    }

    /// The forward under pre-drawn dropout `masks`: the output of
    /// [`Self::draw_dropout_masks`] for a training pass, empty for an
    /// inference pass. Returns the embeddings and the input-sum node, as
    /// [`Self::forward_with_input`] does.
    ///
    /// # Panics
    /// Panics if `masks` is neither empty nor one mask per dropout site.
    pub fn forward_masked(
        &self,
        g: &mut Graph,
        store: &ParamStore,
        enc: &Encoded,
        masks: &[Tensor],
    ) -> (NodeId, NodeId) {
        let _span = explainti_obs::span!("encoder.forward");
        assert_eq!(enc.ids.len(), self.cfg.max_seq, "sequence length mismatch");
        assert!(
            masks.is_empty() || masks.len() == self.dropout_sites(),
            "expected one dropout mask per site, got {}",
            masks.len()
        );
        let mut masks = masks.iter();
        let positions: Vec<usize> = (0..enc.ids.len()).collect();
        let tok = self.tok_emb.forward(g, store, &enc.ids);
        let pos = self.pos_emb.forward(g, store, &positions);
        let sum = g.add(tok, pos);
        let normed = self.emb_ln.forward(g, store, sum);
        let mut x = self.dropout.apply(g, normed, masks.next());
        let mask = enc.pad_mask();
        for layer in &self.layers {
            let attn = layer.mha.forward(g, store, x, Some(&mask));
            let attn = self.dropout.apply(g, attn, masks.next());
            let res1 = g.add(x, attn);
            let h = layer.ln1.forward(g, store, res1);
            let ff = layer.ff.forward(g, store, h);
            let ff = self.dropout.apply(g, ff, masks.next());
            let res2 = g.add(h, ff);
            x = layer.ln2.forward(g, store, res2);
        }
        (x, sum)
    }

    /// Extracts `E_[CLS]` (row 0) from a full-forward output node.
    pub fn cls(&self, g: &mut Graph, embeddings: NodeId) -> NodeId {
        g.rows_range(embeddings, 0, 1)
    }

    /// Convenience inference pass returning the CLS embedding as a
    /// tensor, on the tape-free [`InferenceEncoder`]. Inference consumes
    /// no randomness; `rng` keeps the tape forward's signature.
    pub fn embed_cls(&self, store: &ParamStore, enc: &Encoded, _rng: &mut SmallRng) -> Tensor {
        let _span = explainti_obs::span!("encoder.embed_cls");
        let engine = InferenceEncoder::new(self, store);
        embed_cls_chunk(&engine, std::slice::from_ref(enc)).remove(0)
    }

    /// Batched [`Self::embed_cls`] (the embedding-store refresh): one
    /// engine build for the whole batch, split into contiguous chunks by
    /// [`explainti_pool::map_chunks`]; a panicking chunk re-raises its
    /// own payload here.
    pub fn embed_cls_batch(&self, store: &ParamStore, encs: &[Encoded]) -> Vec<Tensor> {
        let _span = explainti_obs::span!("encoder.embed_cls_batch");
        let engine = InferenceEncoder::new(self, store);
        explainti_obs::set_gauge("encoder.batch.chunks", explainti_pool::chunks(encs).len() as f64);
        // Each chunk runs independent forwards on its own scratch, so the
        // per-sequence results equal the serial path's.
        explainti_pool::map_chunks(encs, |chunk| embed_cls_chunk(&engine, chunk))
    }

    /// Serialises only the encoder's weights (pre-trained checkpoint).
    pub fn export_weights(&self, store: &ParamStore) -> Vec<f32> {
        let mut out = Vec::new();
        for idx in self.param_range.0..self.param_range.1 {
            out.extend_from_slice(store.value(store.param_id_at(idx)).as_slice());
        }
        out
    }

    /// Restores encoder weights exported by [`Self::export_weights`] into a
    /// (possibly different) store where this encoder occupies the same
    /// construction positions.
    ///
    /// # Panics
    /// Panics if the flat buffer does not match the encoder layout.
    pub fn import_weights(&self, store: &mut ParamStore, flat: &[f32]) {
        let mut offset = 0;
        for idx in self.param_range.0..self.param_range.1 {
            let id = store.param_id_at(idx);
            let n = store.value(id).len();
            assert!(offset + n <= flat.len(), "checkpoint too short");
            store.value_mut(id).as_mut_slice().copy_from_slice(&flat[offset..offset + n]);
            offset += n;
        }
        assert_eq!(offset, flat.len(), "checkpoint size mismatch");
    }
}

/// CLS rows of `encs` on one scratch: the per-chunk worker of
/// [`TransformerEncoder::embed_cls_batch`].
fn embed_cls_chunk(engine: &InferenceEncoder<'_>, encs: &[Encoded]) -> Vec<Tensor> {
    let mut scratch = engine.scratch();
    let d = engine.d_model();
    encs.iter().map(|enc| Tensor::row(engine.forward(enc, &mut scratch)[..d].to_vec())).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use explainti_tokenizer::{encode_column, Tokenizer};
    use rand::SeedableRng;

    fn setup() -> (Tokenizer, TransformerEncoder, ParamStore, SmallRng) {
        let tok = Tokenizer::train(["alpha beta gamma delta", "one two three"], 128);
        let mut rng = SmallRng::seed_from_u64(3);
        let mut store = ParamStore::new();
        let cfg = EncoderConfig::bert_like(tok.vocab_size(), 16);
        let enc = TransformerEncoder::new(&mut store, cfg, &mut rng);
        (tok, enc, store, rng)
    }

    #[test]
    fn forward_shape_is_seq_by_d() {
        let (tok, enc, store, mut rng) = setup();
        let e = encode_column(&tok, "alpha", "beta", &["gamma", "delta"], 16);
        let mut g = Graph::new();
        let out = enc.forward(&mut g, &store, &e, false, &mut rng);
        assert_eq!(g.value(out).shape(), (16, enc.d_model()));
    }

    #[test]
    fn cls_embedding_is_row_zero() {
        let (tok, enc, store, mut rng) = setup();
        let e = encode_column(&tok, "alpha", "beta", &["gamma"], 16);
        let mut g = Graph::new();
        let out = enc.forward(&mut g, &store, &e, false, &mut rng);
        let cls = enc.cls(&mut g, out);
        assert_eq!(g.value(cls).shape(), (1, enc.d_model()));
        assert_eq!(g.value(cls).row_slice(0), g.value(out).row_slice(0));
    }

    #[test]
    fn inference_is_deterministic() {
        let (tok, enc, store, mut rng) = setup();
        let e = encode_column(&tok, "alpha", "beta", &["gamma"], 16);
        let a = enc.embed_cls(&store, &e, &mut rng);
        let b = enc.embed_cls(&store, &e, &mut rng);
        assert_eq!(a, b);
    }

    #[test]
    fn different_inputs_embed_differently() {
        let (tok, enc, store, mut rng) = setup();
        let e1 = encode_column(&tok, "alpha", "beta", &["gamma"], 16);
        let e2 = encode_column(&tok, "one", "two", &["three"], 16);
        let a = enc.embed_cls(&store, &e1, &mut rng);
        let b = enc.embed_cls(&store, &e2, &mut rng);
        assert!(a.cosine(&b) < 0.999_9, "distinct inputs should not collide");
    }

    #[test]
    fn batch_forward_matches_single_sequence_forward() {
        let (tok, enc, store, mut rng) = setup();
        let e1 = encode_column(&tok, "alpha", "beta", &["gamma", "delta"], 16);
        let e2 = encode_column(&tok, "one", "two", &["three"], 16);
        let singles = [enc.embed_cls(&store, &e1, &mut rng), enc.embed_cls(&store, &e2, &mut rng)];
        let batch = enc.embed_cls_batch(&store, &[e1, e2]);
        assert_eq!(batch.len(), 2);
        assert_eq!(batch[0], singles[0]);
        assert_eq!(batch[1], singles[1]);
    }

    /// Serialises the tests that set the process-wide width, and
    /// restores the resolved width when dropped.
    struct Width(#[allow(dead_code)] std::sync::MutexGuard<'static, ()>);

    impl Width {
        fn lock() -> Self {
            static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
            Self(LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner()))
        }
    }

    impl Drop for Width {
        fn drop(&mut self) {
            explainti_pool::configure(explainti_pool::Threads::resolve(None).threads());
        }
    }

    #[test]
    fn batch_embed_is_identical_across_pool_widths() {
        let (tok, enc, store, _) = setup();
        let words = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta"];
        let encs: Vec<_> =
            words.iter().map(|w| encode_column(&tok, w, "header", &["cell"], 16)).collect();
        let _width = Width::lock();
        explainti_pool::configure(1);
        let serial = enc.embed_cls_batch(&store, &encs);
        explainti_pool::configure(4);
        let parallel = enc.embed_cls_batch(&store, &encs);
        assert_eq!(serial, parallel, "the width must not change embeddings");
    }

    #[test]
    fn batch_embed_reraises_a_chunk_panic_with_its_payload() {
        let (tok, enc, store, _) = setup();
        let mut encs: Vec<_> = ["alpha", "beta", "gamma", "delta"]
            .iter()
            .map(|w| encode_column(&tok, w, "header", &["cell"], 16))
            .collect();
        // The last sequence lands in the spawned chunk at width 2.
        encs[3].ids[1] = tok.vocab_size();
        let _width = Width::lock();
        explainti_pool::configure(2);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            enc.embed_cls_batch(&store, &encs)
        }));
        let payload = caught.expect_err("an out-of-vocabulary id must panic");
        let msg = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied())
            .unwrap_or_default();
        assert!(
            msg.starts_with("embedding id") && msg.contains("out of range"),
            "the chunk's own payload must reach the caller, got {msg:?}"
        );
    }

    #[test]
    fn export_import_round_trip() {
        let (tok, enc, mut store, mut rng) = setup();
        let e = encode_column(&tok, "alpha", "beta", &["gamma"], 16);
        let before = enc.embed_cls(&store, &e, &mut rng);
        let ckpt = enc.export_weights(&store);

        // Fresh store with identical construction order but different seed.
        let mut rng2 = SmallRng::seed_from_u64(99);
        let mut store2 = ParamStore::new();
        let cfg = EncoderConfig::bert_like(tok.vocab_size(), 16);
        let enc2 = TransformerEncoder::new(&mut store2, cfg, &mut rng2);
        enc2.import_weights(&mut store2, &ckpt);
        let after = enc2.embed_cls(&store2, &e, &mut rng);
        assert_eq!(before, after);

        // And back into the original store (no-op).
        enc.import_weights(&mut store, &ckpt);
    }

    #[test]
    fn padding_does_not_change_cls() {
        // Two encodings identical except for trailing pad-only content must
        // give the same CLS embedding thanks to the attention pad mask.
        let (tok, enc, store, mut rng) = setup();
        let short = encode_column(&tok, "alpha", "beta", &["gamma"], 16);
        let mut longer = short.clone();
        // Corrupt padding region ids; mask must hide them.
        for i in longer.len..16 {
            longer.ids[i] = explainti_tokenizer::UNK;
        }
        let a = enc.embed_cls(&store, &short, &mut rng);
        let b = enc.embed_cls(&store, &longer, &mut rng);
        for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
            assert!((x - y).abs() < 1e-4, "pad contamination: {x} vs {y}");
        }
    }
}
