//! Tape-free f32 inference forward of the [`TransformerEncoder`].
//!
//! [`InferenceEncoder`] computes what `TransformerEncoder::forward(..,
//! training = false)` computes, without an autograd tape: no parameter
//! snapshots, no tensor per op and no LayerNorm training state. It calls
//! the row kernels the tape's ops call, in the tape's order, on the same
//! values: the packed products ([`matmul_packed_into`], [`matmul_nt_into`]),
//! [`layer_norm_row`], [`softmax_into`] and [`simd::gelu`]. Its output is
//! therefore bit-identical to the tape's by construction; the engine only
//! orchestrates.
//!
//! An engine is built from `(&TransformerEncoder, &ParamStore)`. Each
//! linear weight is packed (transposed) once per build and every other
//! parameter is borrowed from the store. The borrow keeps the store
//! immutable while the engine lives, so an engine can never run on stale
//! weights. A build transposes every linear weight once (16k floats at
//! the default shape), far less than one forward; callers build one per
//! batched entry point and keep no cache.

use crate::TransformerEncoder;
use explainti_nn::tensor::{layer_norm_row, matmul_nt_into, matmul_packed_into};
use explainti_nn::{simd, softmax_into, LayerNorm, Linear, ParamStore};
use explainti_tokenizer::Encoded;

/// A linear layer `x·W + b` with `W` packed as `Wᵀ` (`n × k`).
struct Packed<'a> {
    wt: Vec<f32>,
    bias: &'a [f32],
    k: usize,
    n: usize,
}

impl<'a> Packed<'a> {
    fn new(lin: &Linear, store: &'a ParamStore) -> Self {
        let w = store.value(lin.weight());
        Self {
            wt: w.transpose().into_vec(),
            bias: store.value(lin.bias()).as_slice(),
            k: w.rows(),
            n: w.cols(),
        }
    }

    /// `out = x·W + b` for `x` of `rows × k`: the tape's `matmul` then
    /// `add_row`.
    fn project(&self, x: &[f32], out: &mut [f32]) {
        matmul_packed_into(x, &self.wt, self.k, self.n, out);
        for row in out.chunks_exact_mut(self.n) {
            for (o, &b) in row.iter_mut().zip(self.bias) {
                *o += b;
            }
        }
    }
}

/// A LayerNorm's borrowed gain and bias rows.
struct Norm<'a> {
    gain: &'a [f32],
    bias: &'a [f32],
}

impl<'a> Norm<'a> {
    fn new(ln: &LayerNorm, store: &'a ParamStore) -> Self {
        let (gain, bias) = ln.params();
        Self { gain: store.value(gain).as_slice(), bias: store.value(bias).as_slice() }
    }

    /// Normalises every `d`-wide row of `x` into `out`.
    fn normalize(&self, x: &[f32], out: &mut [f32]) {
        let d = self.gain.len();
        for (xr, or) in x.chunks_exact(d).zip(out.chunks_exact_mut(d)) {
            layer_norm_row(xr, self.gain, self.bias, or, None);
        }
    }
}

struct Layer<'a> {
    q: Packed<'a>,
    k: Packed<'a>,
    v: Packed<'a>,
    o: Packed<'a>,
    ln1: Norm<'a>,
    fc1: Packed<'a>,
    fc2: Packed<'a>,
    ln2: Norm<'a>,
}

/// The encoder's inference forward without a tape (see the module docs).
pub struct InferenceEncoder<'a> {
    tok_emb: &'a [f32],
    pos_emb: &'a [f32],
    vocab: usize,
    emb_ln: Norm<'a>,
    layers: Vec<Layer<'a>>,
    /// `[max_seq, d_model, head_dim, d_ff]`.
    shape: [usize; 4],
    heads: usize,
}

/// Activation buffers for one forward, made by
/// [`InferenceEncoder::scratch`] and reused across forwards, so the
/// forward itself allocates nothing.
pub struct Scratch {
    shape: [usize; 4],
    // `seq × d`: the hidden state, the residual sum, the post-attention
    // LayerNorm, Q/K/V, the merged heads and a sub-layer output.
    x: Vec<f32>,
    res: Vec<f32>,
    h: Vec<f32>,
    q: Vec<f32>,
    k: Vec<f32>,
    v: Vec<f32>,
    merged: Vec<f32>,
    sub: Vec<f32>,
    // `seq × head_dim` (`vt` is `head_dim × seq`): one head's operands
    // and output.
    qh: Vec<f32>,
    kh: Vec<f32>,
    vt: Vec<f32>,
    head: Vec<f32>,
    // `seq × seq`: one head's scores and attention weights.
    scores: Vec<f32>,
    probs: Vec<f32>,
    // `seq × d_ff`: the feed-forward expansion before and after GELU.
    ff: Vec<f32>,
    act: Vec<f32>,
}

impl<'a> InferenceEncoder<'a> {
    /// Packs `encoder`'s linear weights from `store` and borrows the rest.
    pub fn new(encoder: &TransformerEncoder, store: &'a ParamStore) -> Self {
        let cfg = encoder.config();
        let tok_emb = store.value(encoder.tok_emb.table());
        let layers = encoder
            .layers
            .iter()
            .map(|l| {
                let [q, k, v, o] = l.mha.projections();
                let (fc1, fc2) = l.ff.layers();
                Layer {
                    q: Packed::new(q, store),
                    k: Packed::new(k, store),
                    v: Packed::new(v, store),
                    o: Packed::new(o, store),
                    ln1: Norm::new(&l.ln1, store),
                    fc1: Packed::new(fc1, store),
                    fc2: Packed::new(fc2, store),
                    ln2: Norm::new(&l.ln2, store),
                }
            })
            .collect();
        Self {
            tok_emb: tok_emb.as_slice(),
            pos_emb: store.value(encoder.pos_emb.table()).as_slice(),
            vocab: tok_emb.rows(),
            emb_ln: Norm::new(&encoder.emb_ln, store),
            layers,
            shape: [cfg.max_seq, cfg.d_model, cfg.d_model / cfg.n_heads, cfg.d_ff],
            heads: cfg.n_heads,
        }
    }

    /// Model width `d`: the output holds `max_seq` rows of this width.
    pub fn d_model(&self) -> usize {
        self.shape[1]
    }

    /// Fresh buffers sized for this engine's forward.
    pub fn scratch(&self) -> Scratch {
        let [seq, d, hd, d_ff] = self.shape;
        let buf = |n: usize| vec![0.0f32; n];
        Scratch {
            shape: self.shape,
            x: buf(seq * d),
            res: buf(seq * d),
            h: buf(seq * d),
            q: buf(seq * d),
            k: buf(seq * d),
            v: buf(seq * d),
            merged: buf(seq * d),
            sub: buf(seq * d),
            qh: buf(seq * hd),
            kh: buf(seq * hd),
            vt: buf(seq * hd),
            head: buf(seq * hd),
            scores: buf(seq * seq),
            probs: buf(seq * seq),
            ff: buf(seq * d_ff),
            act: buf(seq * d_ff),
        }
    }

    /// Encodes one sequence, returning the `max_seq × d_model` token
    /// embeddings (row-major, inside `s`): bit for bit what the tape
    /// forward's output node holds.
    ///
    /// # Panics
    /// Panics if `enc` is not `max_seq` long, holds an id outside the
    /// vocabulary, or `s` was made by an engine of another shape.
    pub fn forward<'s>(&self, enc: &Encoded, s: &'s mut Scratch) -> &'s [f32] {
        let _span = explainti_obs::span!("encoder.forward");
        let [seq, d, hd, _] = self.shape;
        assert_eq!(enc.ids.len(), seq, "sequence length mismatch");
        assert_eq!(s.shape, self.shape, "scratch made for another encoder shape");
        for (r, (&id, sum)) in enc.ids.iter().zip(s.res.chunks_exact_mut(d)).enumerate() {
            assert!(id < self.vocab, "embedding id {id} out of range {}", self.vocab);
            let tok = &self.tok_emb[id * d..(id + 1) * d];
            let pos = &self.pos_emb[r * d..(r + 1) * d];
            for ((o, &t), &p) in sum.iter_mut().zip(tok).zip(pos) {
                *o = t + p;
            }
        }
        self.emb_ln.normalize(&s.res, &mut s.x);
        let scale = 1.0 / (hd as f32).sqrt();
        for layer in &self.layers {
            layer.q.project(&s.x, &mut s.q);
            layer.k.project(&s.x, &mut s.k);
            layer.v.project(&s.x, &mut s.v);
            for head in 0..self.heads {
                let c0 = head * hd;
                for r in 0..seq {
                    let src = r * d + c0;
                    s.qh[r * hd..(r + 1) * hd].copy_from_slice(&s.q[src..src + hd]);
                    s.kh[r * hd..(r + 1) * hd].copy_from_slice(&s.k[src..src + hd]);
                    for c in 0..hd {
                        s.vt[c * seq + r] = s.v[src + c];
                    }
                }
                matmul_nt_into(&s.qh, &s.kh, hd, seq, &mut s.scores);
                for (row, out) in s.scores.chunks_exact_mut(seq).zip(s.probs.chunks_exact_mut(seq))
                {
                    for (j, v) in row.iter_mut().enumerate() {
                        *v = *v * scale + enc.pad_mask_at(j);
                    }
                    softmax_into(row, out);
                }
                matmul_packed_into(&s.probs, &s.vt, seq, hd, &mut s.head);
                for r in 0..seq {
                    s.merged[r * d + c0..r * d + c0 + hd]
                        .copy_from_slice(&s.head[r * hd..(r + 1) * hd]);
                }
            }
            layer.o.project(&s.merged, &mut s.sub);
            for ((o, &x), &a) in s.res.iter_mut().zip(&s.x).zip(&s.sub) {
                *o = x + a;
            }
            layer.ln1.normalize(&s.res, &mut s.h);
            layer.fc1.project(&s.h, &mut s.ff);
            simd::gelu(&s.ff, &mut s.act);
            layer.fc2.project(&s.act, &mut s.sub);
            for ((o, &h), &f) in s.res.iter_mut().zip(&s.h).zip(&s.sub) {
                *o = h + f;
            }
            layer.ln2.normalize(&s.res, &mut s.x);
        }
        &s.x
    }
}
