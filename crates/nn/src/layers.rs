//! Reusable layer modules built on [`Graph`](crate::graph::Graph).
//!
//! Each module registers its parameters in a [`ParamStore`] at construction
//! and replays them onto the tape with `forward`. This mirrors the usual
//! deep-learning module pattern while keeping ownership with the store.

use crate::graph::{Graph, NodeId};
use crate::params::{ParamId, ParamStore};
use crate::tensor::Tensor;
use rand::rngs::SmallRng;
use rand::Rng;

/// Dense affine layer `y = x W + b`.
#[derive(Debug, Clone)]
pub struct Linear {
    w: ParamId,
    b: ParamId,
    in_dim: usize,
    out_dim: usize,
}

impl Linear {
    /// Registers a `in_dim x out_dim` weight (Xavier) and a zero bias.
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        in_dim: usize,
        out_dim: usize,
        rng: &mut SmallRng,
    ) -> Self {
        let w = store.add_xavier(&format!("{name}.w"), in_dim, out_dim, rng);
        let b = store.add_zeros(&format!("{name}.b"), 1, out_dim);
        Self { w, b, in_dim, out_dim }
    }

    /// Input dimension.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output dimension.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// The `in_dim x out_dim` weight's store id.
    pub fn weight(&self) -> ParamId {
        self.w
    }

    /// The `1 x out_dim` bias's store id.
    pub fn bias(&self) -> ParamId {
        self.b
    }

    /// Applies the layer to a `rows x in_dim` node.
    pub fn forward(&self, g: &mut Graph, store: &ParamStore, x: NodeId) -> NodeId {
        let w = g.param(store, self.w);
        let b = g.param(store, self.b);
        let xw = g.matmul(x, w);
        g.add_row(xw, b)
    }
}

/// Token embedding table.
#[derive(Debug, Clone)]
pub struct Embedding {
    table: ParamId,
    vocab: usize,
    dim: usize,
}

impl Embedding {
    /// Registers a `vocab x dim` table initialised with small noise.
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        vocab: usize,
        dim: usize,
        rng: &mut SmallRng,
    ) -> Self {
        let table = store.add_normal(name, vocab, dim, 0.02, rng);
        Self { table, vocab, dim }
    }

    /// Vocabulary size.
    pub fn vocab(&self) -> usize {
        self.vocab
    }

    /// Embedding dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The `vocab x dim` table's store id.
    pub fn table(&self) -> ParamId {
        self.table
    }

    /// Gathers embeddings for `ids`, producing a `ids.len() x dim` node.
    pub fn forward(&self, g: &mut Graph, store: &ParamStore, ids: &[usize]) -> NodeId {
        let table = g.param(store, self.table);
        g.embedding(table, ids)
    }
}

/// Layer normalisation with learned gain and bias.
#[derive(Debug, Clone)]
pub struct LayerNorm {
    gain: ParamId,
    bias: ParamId,
}

impl LayerNorm {
    /// Registers gain (ones) and bias (zeros) rows of width `dim`.
    pub fn new(store: &mut ParamStore, name: &str, dim: usize) -> Self {
        let gain = store.add_ones(&format!("{name}.gain"), 1, dim);
        let bias = store.add_zeros(&format!("{name}.bias"), 1, dim);
        Self { gain, bias }
    }

    /// Store ids of the gain and bias rows.
    pub fn params(&self) -> (ParamId, ParamId) {
        (self.gain, self.bias)
    }

    /// Normalises each row of `x`.
    pub fn forward(&self, g: &mut Graph, store: &ParamStore, x: NodeId) -> NodeId {
        let gain = g.param(store, self.gain);
        let bias = g.param(store, self.bias);
        g.layer_norm(x, gain, bias)
    }
}

/// Inverted-dropout helper owning its keep probability.
#[derive(Debug, Clone)]
pub struct Dropout {
    p: f32,
}

impl Dropout {
    /// Creates a dropout layer that zeroes activations with probability `p`.
    pub fn new(p: f32) -> Self {
        assert!((0.0..1.0).contains(&p), "dropout probability must be in [0,1)");
        Self { p }
    }

    /// Draws a `rows x cols` inverted-dropout mask (entries `0` or
    /// `1/(1-p)`), or `None` when `p` is zero and nothing is dropped.
    pub fn draw(&self, rows: usize, cols: usize, rng: &mut SmallRng) -> Option<Tensor> {
        if self.p == 0.0 {
            return None;
        }
        let keep = 1.0 - self.p;
        let scale = 1.0 / keep;
        let data =
            (0..rows * cols).map(|_| if rng.gen::<f32>() < keep { scale } else { 0.0 }).collect();
        Some(Tensor::from_vec(rows, cols, data))
    }

    /// Applies a mask from [`Self::draw`]; identity for `None` (an
    /// inference pass, or `p` zero).
    pub fn apply(&self, g: &mut Graph, x: NodeId, mask: Option<&Tensor>) -> NodeId {
        match mask {
            Some(mask) => g.dropout(x, mask),
            None => x,
        }
    }
}

/// Two-layer feed-forward block with GELU: `W2(gelu(W1 x))`.
#[derive(Debug, Clone)]
pub struct FeedForward {
    fc1: Linear,
    fc2: Linear,
}

impl FeedForward {
    /// Registers the expansion (`dim -> hidden`) and projection layers.
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        dim: usize,
        hidden: usize,
        rng: &mut SmallRng,
    ) -> Self {
        Self {
            fc1: Linear::new(store, &format!("{name}.fc1"), dim, hidden, rng),
            fc2: Linear::new(store, &format!("{name}.fc2"), hidden, dim, rng),
        }
    }

    /// The expansion and projection layers, in application order.
    pub fn layers(&self) -> (&Linear, &Linear) {
        (&self.fc1, &self.fc2)
    }

    /// Applies the block.
    pub fn forward(&self, g: &mut Graph, store: &ParamStore, x: NodeId) -> NodeId {
        let h = self.fc1.forward(g, store, x);
        let a = g.gelu(h);
        self.fc2.forward(g, store, a)
    }
}

/// Multi-head scaled-dot-product self-attention.
#[derive(Debug, Clone)]
pub struct MultiHeadAttention {
    wq: Linear,
    wk: Linear,
    wv: Linear,
    wo: Linear,
    heads: usize,
    head_dim: usize,
}

impl MultiHeadAttention {
    /// Registers Q/K/V/O projections for `heads` heads over `dim` channels.
    ///
    /// # Panics
    /// Panics if `dim` is not divisible by `heads`.
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        dim: usize,
        heads: usize,
        rng: &mut SmallRng,
    ) -> Self {
        assert_eq!(dim % heads, 0, "dim {dim} must divide into {heads} heads");
        Self {
            wq: Linear::new(store, &format!("{name}.wq"), dim, dim, rng),
            wk: Linear::new(store, &format!("{name}.wk"), dim, dim, rng),
            wv: Linear::new(store, &format!("{name}.wv"), dim, dim, rng),
            wo: Linear::new(store, &format!("{name}.wo"), dim, dim, rng),
            heads,
            head_dim: dim / heads,
        }
    }

    /// The Q, K, V and output projections.
    pub fn projections(&self) -> [&Linear; 4] {
        [&self.wq, &self.wk, &self.wv, &self.wo]
    }

    /// Self-attention over a `seq x dim` node.
    ///
    /// `pad_mask` marks positions to exclude as keys: entry `j` of the mask
    /// is `0.0` for real tokens and a large negative number for padding.
    pub fn forward(
        &self,
        g: &mut Graph,
        store: &ParamStore,
        x: NodeId,
        pad_mask: Option<&[f32]>,
    ) -> NodeId {
        let seq = g.value(x).rows();
        let q = self.wq.forward(g, store, x);
        let k = self.wk.forward(g, store, x);
        let v = self.wv.forward(g, store, x);
        let scale = 1.0 / (self.head_dim as f32).sqrt();

        let mask_node = pad_mask.map(|m| {
            assert_eq!(m.len(), seq, "pad mask length must equal sequence length");
            let mut rowsv = Vec::with_capacity(seq * seq);
            for _ in 0..seq {
                rowsv.extend_from_slice(m);
            }
            g.input(Tensor::from_vec(seq, seq, rowsv))
        });

        let mut head_outputs = Vec::with_capacity(self.heads);
        for h in 0..self.heads {
            let start = h * self.head_dim;
            let qh = g.cols_range(q, start, self.head_dim);
            let kh = g.cols_range(k, start, self.head_dim);
            let vh = g.cols_range(v, start, self.head_dim);
            let scores = g.matmul_nt(qh, kh);
            let scaled = g.scale(scores, scale);
            let masked = match mask_node {
                Some(m) => g.add(scaled, m),
                None => scaled,
            };
            let attn = g.softmax(masked);
            head_outputs.push(g.matmul(attn, vh));
        }
        let mut merged = head_outputs[0];
        for &h in &head_outputs[1..] {
            merged = g.concat_cols(merged, h);
        }
        self.wo.forward(g, store, merged)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(42)
    }

    #[test]
    fn linear_shapes() {
        let mut store = ParamStore::new();
        let mut r = rng();
        let lin = Linear::new(&mut store, "l", 4, 3, &mut r);
        let mut g = Graph::new();
        let x = g.input(Tensor::zeros(2, 4));
        let y = lin.forward(&mut g, &store, x);
        assert_eq!(g.value(y).shape(), (2, 3));
    }

    #[test]
    fn embedding_gathers_rows() {
        let mut store = ParamStore::new();
        let mut r = rng();
        let emb = Embedding::new(&mut store, "e", 10, 4, &mut r);
        let mut g = Graph::new();
        let y = emb.forward(&mut g, &store, &[3, 3, 7]);
        assert_eq!(g.value(y).shape(), (3, 4));
        assert_eq!(g.value(y).row_slice(0), g.value(y).row_slice(1));
    }

    #[test]
    fn attention_output_shape_matches_input() {
        let mut store = ParamStore::new();
        let mut r = rng();
        let mha = MultiHeadAttention::new(&mut store, "a", 8, 2, &mut r);
        let mut g = Graph::new();
        let x = g.input(Tensor::full(5, 8, 0.1));
        let y = mha.forward(&mut g, &store, x, None);
        assert_eq!(g.value(y).shape(), (5, 8));
    }

    #[test]
    fn attention_mask_suppresses_padded_keys() {
        let mut store = ParamStore::new();
        let mut r = rng();
        let mha = MultiHeadAttention::new(&mut store, "a", 4, 1, &mut r);

        // Build an input where position 2 has a wildly different value; with
        // the pad mask active, changing it must not affect output rows 0-1
        // beyond numerical noise.
        let mask = vec![0.0, 0.0, -1e9];
        let mut g1 = Graph::new();
        let x1 = g1.input(Tensor::from_vec(
            3,
            4,
            vec![0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 9.0, 9.0, 9.0, 9.0],
        ));
        let y1 = mha.forward(&mut g1, &store, x1, Some(&mask));

        let mut g2 = Graph::new();
        let x2 = g2.input(Tensor::from_vec(
            3,
            4,
            vec![0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, -5.0, 3.0, -2.0, 1.0],
        ));
        let y2 = mha.forward(&mut g2, &store, x2, Some(&mask));

        for c in 0..4 {
            assert!((g1.value(y1).get(0, c) - g2.value(y2).get(0, c)).abs() < 1e-5);
            assert!((g1.value(y1).get(1, c) - g2.value(y2).get(1, c)).abs() < 1e-5);
        }
    }

    #[test]
    fn dropout_disabled_at_eval() {
        let mut g = Graph::new();
        let x = g.input(Tensor::full(2, 2, 1.0));
        let d = Dropout::new(0.5);
        assert_eq!(d.apply(&mut g, x, None), x, "no mask, no op");
        assert!(Dropout::new(0.0).draw(2, 2, &mut rng()).is_none(), "p = 0 draws nothing");
    }

    #[test]
    fn dropout_preserves_expected_scale() {
        let mut g = Graph::new();
        let x = g.input(Tensor::full(1, 10_000, 1.0));
        let d = Dropout::new(0.3);
        let mask = d.draw(1, 10_000, &mut rng());
        let y = d.apply(&mut g, x, mask.as_ref());
        let mean = g.value(y).mean();
        assert!((mean - 1.0).abs() < 0.05, "inverted dropout mean was {mean}");
    }

    #[test]
    fn feed_forward_round_trip_shape() {
        let mut store = ParamStore::new();
        let mut r = rng();
        let ff = FeedForward::new(&mut store, "ff", 6, 12, &mut r);
        let mut g = Graph::new();
        let x = g.input(Tensor::zeros(3, 6));
        let y = ff.forward(&mut g, &store, x);
        assert_eq!(g.value(y).shape(), (3, 6));
    }
}
