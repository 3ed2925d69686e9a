//! Tape-based reverse-mode automatic differentiation.
//!
//! A [`Graph`] records every operation of one forward pass; node ids are
//! handed back to the caller and are topologically ordered by construction,
//! so [`Graph::backward`] is a single reverse sweep. Parameters enter the
//! graph via [`Graph::param`], which snapshots the current value from a
//! [`ParamStore`](crate::params::ParamStore) and remembers the parameter id
//! so gradients can be flushed back after the sweep.
//!
//! The op set is exactly what the ExplainTI reproduction needs: dense
//! matmuls (plain and `A·Bᵀ`), broadcast adds, row/column slicing,
//! softmax, layer-norm, GELU-family activations, embedding gather, mean
//! pooling, concatenation, dropout, and the two classification losses.
//! Every backward rule is validated against finite differences in
//! `tests/gradcheck.rs`.

use crate::params::{Grads, ParamId, ParamStore};
use crate::tensor::Tensor;

/// Handle to a node in the computation graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeId(pub(crate) usize);

#[derive(Debug)]
enum Op {
    /// Leaf holding caller-provided data (inputs, masks, constants).
    Input,
    /// Leaf snapshotting a trainable parameter.
    Param(ParamId),
    /// `C = A · B`
    MatMul(NodeId, NodeId),
    /// `C = A · Bᵀ`
    MatMulNT(NodeId, NodeId),
    /// Element-wise `A + B` (identical shapes).
    Add(NodeId, NodeId),
    /// `A + b` where `b` is a `1 x cols` row broadcast over rows of `A`.
    AddRow(NodeId, NodeId),
    /// Element-wise `A - B`.
    Sub(NodeId, NodeId),
    /// Element-wise `A ⊙ B`.
    Mul(NodeId, NodeId),
    /// `s · A`.
    Scale(NodeId, f32),
    /// Row-wise softmax.
    Softmax(NodeId),
    /// Row-wise layer normalisation with learned gain and bias rows.
    LayerNorm {
        x: NodeId,
        gain: NodeId,
        bias: NodeId,
        /// Saved normalised activations for the backward pass.
        xhat: Tensor,
        /// Saved per-row `1/σ`.
        inv_std: Vec<f32>,
    },
    /// GELU (tanh approximation).
    Gelu(NodeId),
    /// ReLU.
    Relu(NodeId),
    /// Gather rows `ids` from a parameter matrix.
    Embedding { weight: NodeId, ids: Vec<usize> },
    /// Column-wise mean producing a single row.
    MeanRows(NodeId),
    /// Horizontal concatenation `[A | B]`.
    ConcatCols(NodeId, NodeId),
    /// Column slice `A[:, start..start+n]`.
    ColsRange { x: NodeId, start: usize, n: usize },
    /// Row slice `A[start..start+n, :]`.
    RowsRange { x: NodeId, start: usize, n: usize },
    /// Inverted dropout with a caller-supplied mask (already scaled).
    Dropout { x: NodeId, mask: Tensor },
    /// Mean cross-entropy from logits against class indices.
    CrossEntropy { logits: NodeId, targets: Vec<usize>, probs: Tensor },
}

struct Node {
    value: Tensor,
    grad: Option<Tensor>,
    op: Op,
    /// Keep this interior node's gradient after `backward` has
    /// propagated it ([`Graph::keep_grad`]).
    keep_grad: bool,
    /// `backward` propagated this node's gradient and then freed it.
    grad_freed: bool,
}

/// A single forward pass's computation tape.
#[derive(Default)]
pub struct Graph {
    nodes: Vec<Node>,
    /// Parameter snapshots already on the tape, so repeated uses of the
    /// same weight (LE's per-window head, batched forwards) share one
    /// node instead of re-cloning the tensor. Gradients from every use
    /// accumulate into the shared node, which is exactly the sum the
    /// per-use nodes would have flushed individually.
    param_memo: std::collections::HashMap<ParamId, NodeId>,
}

impl Graph {
    /// Creates an empty tape.
    pub fn new() -> Self {
        Self { nodes: Vec::with_capacity(128), param_memo: std::collections::HashMap::new() }
    }

    fn push(&mut self, value: Tensor, op: Op) -> NodeId {
        self.nodes.push(Node { value, grad: None, op, keep_grad: false, grad_freed: false });
        NodeId(self.nodes.len() - 1)
    }

    /// Value of a node.
    pub fn value(&self, id: NodeId) -> &Tensor {
        &self.nodes[id.0].value
    }

    /// Gradient of a node (zeros if it never received one).
    ///
    /// # Panics
    /// Panics for an interior node whose gradient [`Graph::backward`]
    /// freed; ask for it with [`Graph::keep_grad`] before the sweep.
    pub fn grad(&self, id: NodeId) -> Tensor {
        assert!(
            !self.nodes[id.0].grad_freed,
            "backward freed the gradient of interior node {}; call Graph::keep_grad before backward",
            id.0
        );
        match &self.nodes[id.0].grad {
            Some(g) => g.clone(),
            None => {
                let (r, c) = self.nodes[id.0].value.shape();
                Tensor::zeros(r, c)
            }
        }
    }

    /// Makes [`Graph::backward`] keep the gradient of the interior node
    /// `id`. Leaves (inputs and parameters) always keep theirs; an
    /// interior node's gradient is freed once the sweep has propagated
    /// it, so a tape holds at most the gradients still to be propagated.
    pub fn keep_grad(&mut self, id: NodeId) {
        self.nodes[id.0].keep_grad = true;
    }

    /// Number of nodes on the tape.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the tape is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Inserts a data leaf (input, mask, constant).
    pub fn input(&mut self, value: Tensor) -> NodeId {
        self.push(value, Op::Input)
    }

    /// Snapshots a trainable parameter onto the tape. Repeated calls for
    /// the same parameter within one tape return the same node (store
    /// values only change between tapes, never mid-forward).
    pub fn param(&mut self, store: &ParamStore, id: ParamId) -> NodeId {
        if let Some(&node) = self.param_memo.get(&id) {
            return node;
        }
        let node = self.push(store.value(id).clone(), Op::Param(id));
        self.param_memo.insert(id, node);
        node
    }

    /// `A · B`.
    pub fn matmul(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let v = self.nodes[a.0].value.matmul(&self.nodes[b.0].value);
        self.push(v, Op::MatMul(a, b))
    }

    /// `A · Bᵀ` (used for attention scores).
    pub fn matmul_nt(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let v = self.nodes[a.0].value.matmul_nt(&self.nodes[b.0].value);
        self.push(v, Op::MatMulNT(a, b))
    }

    /// Element-wise addition of same-shape nodes.
    pub fn add(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let (va, vb) = (&self.nodes[a.0].value, &self.nodes[b.0].value);
        assert_eq!(va.shape(), vb.shape(), "add shape mismatch");
        let mut v = va.clone();
        v.add_assign(vb);
        self.push(v, Op::Add(a, b))
    }

    /// Adds a `1 x cols` row `b` to every row of `a`.
    pub fn add_row(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let (va, vb) = (&self.nodes[a.0].value, &self.nodes[b.0].value);
        assert_eq!(vb.rows(), 1, "add_row rhs must be a single row");
        assert_eq!(va.cols(), vb.cols(), "add_row column mismatch");
        let mut v = va.clone();
        for r in 0..v.rows() {
            let row = v.row_slice_mut(r);
            for (x, &y) in row.iter_mut().zip(vb.as_slice()) {
                *x += y;
            }
        }
        self.push(v, Op::AddRow(a, b))
    }

    /// Element-wise subtraction.
    pub fn sub(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let (va, vb) = (&self.nodes[a.0].value, &self.nodes[b.0].value);
        assert_eq!(va.shape(), vb.shape(), "sub shape mismatch");
        let data = va.as_slice().iter().zip(vb.as_slice()).map(|(&x, &y)| x - y).collect();
        let v = Tensor::from_vec(va.rows(), va.cols(), data);
        self.push(v, Op::Sub(a, b))
    }

    /// Element-wise product.
    pub fn mul(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let (va, vb) = (&self.nodes[a.0].value, &self.nodes[b.0].value);
        assert_eq!(va.shape(), vb.shape(), "mul shape mismatch");
        let data = va.as_slice().iter().zip(vb.as_slice()).map(|(&x, &y)| x * y).collect();
        let v = Tensor::from_vec(va.rows(), va.cols(), data);
        self.push(v, Op::Mul(a, b))
    }

    /// Scalar scaling.
    pub fn scale(&mut self, a: NodeId, s: f32) -> NodeId {
        let mut v = self.nodes[a.0].value.clone();
        v.scale_assign(s);
        self.push(v, Op::Scale(a, s))
    }

    /// Row-wise softmax.
    pub fn softmax(&mut self, a: NodeId) -> NodeId {
        let va = &self.nodes[a.0].value;
        let mut v = Tensor::zeros(va.rows(), va.cols());
        for r in 0..va.rows() {
            crate::tensor::softmax_into(va.row_slice(r), v.row_slice_mut(r));
        }
        self.push(v, Op::Softmax(a))
    }

    /// Row-wise layer normalisation. `gain` and `bias` are `1 x cols` rows.
    pub fn layer_norm(&mut self, x: NodeId, gain: NodeId, bias: NodeId) -> NodeId {
        let vx = &self.nodes[x.0].value;
        let vg = &self.nodes[gain.0].value;
        let vb = &self.nodes[bias.0].value;
        assert_eq!(vg.shape(), (1, vx.cols()), "layer_norm gain shape");
        assert_eq!(vb.shape(), (1, vx.cols()), "layer_norm bias shape");
        let (rows, cols) = vx.shape();
        let mut xhat = Tensor::zeros(rows, cols);
        let mut out = Tensor::zeros(rows, cols);
        let inv_std = (0..rows)
            .map(|r| {
                crate::tensor::layer_norm_row(
                    vx.row_slice(r),
                    vg.as_slice(),
                    vb.as_slice(),
                    out.row_slice_mut(r),
                    Some(xhat.row_slice_mut(r)),
                )
            })
            .collect();
        self.push(out, Op::LayerNorm { x, gain, bias, xhat, inv_std })
    }

    /// GELU activation (tanh approximation, as in BERT), on the
    /// [`crate::simd::gelu`] kernel.
    pub fn gelu(&mut self, a: NodeId) -> NodeId {
        let va = &self.nodes[a.0].value;
        let mut v = Tensor::zeros(va.rows(), va.cols());
        crate::simd::gelu(va.as_slice(), v.as_mut_slice());
        self.push(v, Op::Gelu(a))
    }

    /// ReLU activation.
    pub fn relu(&mut self, a: NodeId) -> NodeId {
        let va = &self.nodes[a.0].value;
        let data = va.as_slice().iter().map(|&x| x.max(0.0)).collect();
        let v = Tensor::from_vec(va.rows(), va.cols(), data);
        self.push(v, Op::Relu(a))
    }

    /// Gathers rows `ids` from the (parameter) matrix node `weight`.
    pub fn embedding(&mut self, weight: NodeId, ids: &[usize]) -> NodeId {
        let w = &self.nodes[weight.0].value;
        let cols = w.cols();
        let mut v = Tensor::zeros(ids.len(), cols);
        for (r, &id) in ids.iter().enumerate() {
            assert!(id < w.rows(), "embedding id {id} out of range {}", w.rows());
            v.row_slice_mut(r).copy_from_slice(w.row_slice(id));
        }
        self.push(v, Op::Embedding { weight, ids: ids.to_vec() })
    }

    /// Column-wise mean producing a `1 x cols` row.
    pub fn mean_rows(&mut self, a: NodeId) -> NodeId {
        let v = self.nodes[a.0].value.mean_rows();
        self.push(v, Op::MeanRows(a))
    }

    /// Horizontal concatenation `[A | B]`.
    pub fn concat_cols(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let v = self.nodes[a.0].value.concat_cols(&self.nodes[b.0].value);
        self.push(v, Op::ConcatCols(a, b))
    }

    /// Column slice `A[:, start..start+n]`.
    pub fn cols_range(&mut self, x: NodeId, start: usize, n: usize) -> NodeId {
        let vx = &self.nodes[x.0].value;
        assert!(start + n <= vx.cols(), "cols_range out of bounds");
        let mut v = Tensor::zeros(vx.rows(), n);
        for r in 0..vx.rows() {
            v.row_slice_mut(r).copy_from_slice(&vx.row_slice(r)[start..start + n]);
        }
        self.push(v, Op::ColsRange { x, start, n })
    }

    /// Row slice `A[start..start+n, :]`.
    pub fn rows_range(&mut self, x: NodeId, start: usize, n: usize) -> NodeId {
        let v = self.nodes[x.0].value.rows_range(start, n);
        self.push(v, Op::RowsRange { x, start, n })
    }

    /// Inverted dropout. `mask` entries must be `0` or `1/(1-p)`.
    pub fn dropout(&mut self, x: NodeId, mask: &Tensor) -> NodeId {
        let vx = &self.nodes[x.0].value;
        assert_eq!(vx.shape(), mask.shape(), "dropout mask shape mismatch");
        let data = vx.as_slice().iter().zip(mask.as_slice()).map(|(&a, &m)| a * m).collect();
        let v = Tensor::from_vec(vx.rows(), vx.cols(), data);
        self.push(v, Op::Dropout { x, mask: mask.clone() })
    }

    /// Mean cross-entropy over the batch from raw logits.
    pub fn cross_entropy(&mut self, logits: NodeId, targets: &[usize]) -> NodeId {
        let vl = &self.nodes[logits.0].value;
        assert_eq!(vl.rows(), targets.len(), "cross_entropy batch mismatch");
        let mut probs = Tensor::zeros(vl.rows(), vl.cols());
        let mut loss = 0.0;
        for (r, &t) in targets.iter().enumerate() {
            crate::tensor::softmax_into(vl.row_slice(r), probs.row_slice_mut(r));
            assert!(t < vl.cols(), "target class {t} out of range {}", vl.cols());
            loss -= probs.get(r, t).max(1e-9).ln();
        }
        loss /= vl.rows().max(1) as f32;
        let v = Tensor::from_vec(1, 1, vec![loss]);
        self.push(v, Op::CrossEntropy { logits, targets: targets.to_vec(), probs })
    }

    fn accumulate(&mut self, id: NodeId, delta: Tensor) {
        let node = &mut self.nodes[id.0];
        match &mut node.grad {
            Some(g) => g.add_assign(&delta),
            None => node.grad = Some(delta),
        }
    }

    /// Runs the reverse sweep from `root`, seeding its gradient with ones.
    ///
    /// `root` is usually the `1 x 1` loss node; seeding with ones makes the
    /// sweep compute plain derivatives of the loss.
    pub fn backward(&mut self, root: NodeId) {
        let _span = explainti_obs::span!("nn.backward");
        let (r, c) = self.nodes[root.0].value.shape();
        self.nodes[root.0].grad = Some(Tensor::full(r, c, 1.0));

        for i in (0..=root.0).rev() {
            let grad = match self.nodes[i].grad.take() {
                Some(g) => g,
                None => continue,
            };
            // Each arm computes parent deltas from `grad` and the saved
            // forward context; they are applied after the borrow of the op
            // ends.
            let mut deltas: Vec<(NodeId, Tensor)> = Vec::new();
            match &self.nodes[i].op {
                Op::Input | Op::Param(_) => {}
                Op::MatMul(a, b) => {
                    let da = grad.matmul_nt(&self.nodes[b.0].value);
                    let db = self.nodes[a.0].value.matmul_tn(&grad);
                    deltas.push((*a, da));
                    deltas.push((*b, db));
                }
                Op::MatMulNT(a, b) => {
                    // C = A Btr => dA = dC B ; dB = dCtr A
                    let da = grad.matmul(&self.nodes[b.0].value);
                    let db = grad.matmul_tn(&self.nodes[a.0].value);
                    deltas.push((*a, da));
                    deltas.push((*b, db));
                }
                Op::Add(a, b) => {
                    deltas.push((*a, grad.clone()));
                    deltas.push((*b, grad.clone()));
                }
                Op::AddRow(a, b) => {
                    let mut db = Tensor::zeros(1, grad.cols());
                    for r in 0..grad.rows() {
                        let row = grad.row_slice(r);
                        for (o, &v) in db.as_mut_slice().iter_mut().zip(row) {
                            *o += v;
                        }
                    }
                    deltas.push((*a, grad.clone()));
                    deltas.push((*b, db));
                }
                Op::Sub(a, b) => {
                    let mut neg = grad.clone();
                    neg.scale_assign(-1.0);
                    deltas.push((*a, grad.clone()));
                    deltas.push((*b, neg));
                }
                Op::Mul(a, b) => {
                    let vb = &self.nodes[b.0].value;
                    let da_data =
                        grad.as_slice().iter().zip(vb.as_slice()).map(|(&g, &v)| g * v).collect();
                    let va = &self.nodes[a.0].value;
                    let db_data =
                        grad.as_slice().iter().zip(va.as_slice()).map(|(&g, &v)| g * v).collect();
                    deltas.push((*a, Tensor::from_vec(grad.rows(), grad.cols(), da_data)));
                    deltas.push((*b, Tensor::from_vec(grad.rows(), grad.cols(), db_data)));
                }
                Op::Scale(a, s) => {
                    let mut da = grad.clone();
                    da.scale_assign(*s);
                    deltas.push((*a, da));
                }
                Op::Softmax(a) => {
                    let p = &self.nodes[i].value;
                    let mut da = Tensor::zeros(p.rows(), p.cols());
                    for r in 0..p.rows() {
                        let pr = p.row_slice(r);
                        let gr = grad.row_slice(r);
                        let dot: f32 = pr.iter().zip(gr).map(|(&pi, &gi)| pi * gi).sum();
                        let dr = da.row_slice_mut(r);
                        for c in 0..pr.len() {
                            dr[c] = pr[c] * (gr[c] - dot);
                        }
                    }
                    deltas.push((*a, da));
                }
                Op::LayerNorm { x, gain, bias, xhat, inv_std } => {
                    let vg = &self.nodes[gain.0].value;
                    let (rows, cols) = grad.shape();
                    let mut dx = Tensor::zeros(rows, cols);
                    let mut dgain = Tensor::zeros(1, cols);
                    let mut dbias = Tensor::zeros(1, cols);
                    for (r, &istd) in inv_std.iter().enumerate().take(rows) {
                        let gr = grad.row_slice(r);
                        let xh = xhat.row_slice(r);
                        for c in 0..cols {
                            dgain.as_mut_slice()[c] += gr[c] * xh[c];
                            dbias.as_mut_slice()[c] += gr[c];
                        }
                        // dx = (g*gamma - mean(g*gamma) - xhat * mean(g*gamma*xhat)) / sigma
                        let gy: Vec<f32> = (0..cols).map(|c| gr[c] * vg.as_slice()[c]).collect();
                        let m1 = gy.iter().sum::<f32>() / cols as f32;
                        let m2 = gy.iter().zip(xh).map(|(&g, &h)| g * h).sum::<f32>() / cols as f32;
                        let dr = dx.row_slice_mut(r);
                        for c in 0..cols {
                            dr[c] = (gy[c] - m1 - xh[c] * m2) * istd;
                        }
                    }
                    deltas.push((*x, dx));
                    deltas.push((*gain, dgain));
                    deltas.push((*bias, dbias));
                }
                Op::Gelu(a) => {
                    let vx = &self.nodes[a.0].value;
                    let mut da = Tensor::zeros(grad.rows(), grad.cols());
                    crate::simd::gelu_backward(vx.as_slice(), grad.as_slice(), da.as_mut_slice());
                    deltas.push((*a, da));
                }
                Op::Relu(a) => {
                    let vx = &self.nodes[a.0].value;
                    let data = grad
                        .as_slice()
                        .iter()
                        .zip(vx.as_slice())
                        .map(|(&g, &x)| if x > 0.0 { g } else { 0.0 })
                        .collect();
                    deltas.push((*a, Tensor::from_vec(grad.rows(), grad.cols(), data)));
                }
                Op::Embedding { weight, ids } => {
                    let w = &self.nodes[weight.0].value;
                    let mut dw = Tensor::zeros(w.rows(), w.cols());
                    for (r, &id) in ids.iter().enumerate() {
                        let src = grad.row_slice(r);
                        let dst = dw.row_slice_mut(id);
                        for (d, &s) in dst.iter_mut().zip(src) {
                            *d += s;
                        }
                    }
                    deltas.push((*weight, dw));
                }
                Op::MeanRows(a) => {
                    let rows = self.nodes[a.0].value.rows();
                    let inv = 1.0 / rows.max(1) as f32;
                    let mut da = Tensor::zeros(rows, grad.cols());
                    for r in 0..rows {
                        let dst = da.row_slice_mut(r);
                        for (d, &g) in dst.iter_mut().zip(grad.as_slice()) {
                            *d = g * inv;
                        }
                    }
                    deltas.push((*a, da));
                }
                Op::ConcatCols(a, b) => {
                    let ca = self.nodes[a.0].value.cols();
                    let cb = self.nodes[b.0].value.cols();
                    let rows = grad.rows();
                    let mut da = Tensor::zeros(rows, ca);
                    let mut db = Tensor::zeros(rows, cb);
                    for r in 0..rows {
                        let g = grad.row_slice(r);
                        da.row_slice_mut(r).copy_from_slice(&g[..ca]);
                        db.row_slice_mut(r).copy_from_slice(&g[ca..]);
                    }
                    deltas.push((*a, da));
                    deltas.push((*b, db));
                }
                Op::ColsRange { x, start, n } => {
                    let vx = &self.nodes[x.0].value;
                    let mut dx = Tensor::zeros(vx.rows(), vx.cols());
                    for r in 0..grad.rows() {
                        let g = grad.row_slice(r);
                        dx.row_slice_mut(r)[*start..*start + *n].copy_from_slice(g);
                    }
                    deltas.push((*x, dx));
                }
                Op::RowsRange { x, start, n } => {
                    let vx = &self.nodes[x.0].value;
                    let mut dx = Tensor::zeros(vx.rows(), vx.cols());
                    for r in 0..*n {
                        dx.row_slice_mut(*start + r).copy_from_slice(grad.row_slice(r));
                    }
                    deltas.push((*x, dx));
                }
                Op::Dropout { x, mask } => {
                    let data =
                        grad.as_slice().iter().zip(mask.as_slice()).map(|(&g, &m)| g * m).collect();
                    deltas.push((*x, Tensor::from_vec(grad.rows(), grad.cols(), data)));
                }
                Op::CrossEntropy { logits, targets, probs } => {
                    let g = grad.as_slice()[0];
                    let batch = probs.rows().max(1) as f32;
                    let mut dl = probs.clone();
                    for (r, &t) in targets.iter().enumerate() {
                        let v = dl.get(r, t);
                        dl.set(r, t, v - 1.0);
                    }
                    dl.scale_assign(g / batch);
                    deltas.push((*logits, dl));
                }
            }
            for (id, d) in deltas {
                self.accumulate(id, d);
            }
            let node = &mut self.nodes[i];
            if node.keep_grad || matches!(node.op, Op::Input | Op::Param(_)) {
                node.grad = Some(grad);
            } else {
                node.grad_freed = true;
            }
        }
    }

    /// Every parameter node's gradient, with its parameter.
    fn param_grads(&self) -> impl Iterator<Item = (ParamId, &Tensor)> {
        self.nodes.iter().filter_map(|node| match (&node.op, &node.grad) {
            (Op::Param(pid), Some(g)) => Some((*pid, g)),
            _ => None,
        })
    }

    /// Adds every parameter node's gradient into the store.
    ///
    /// Call once after [`Graph::backward`]; the optimizer then steps on the
    /// accumulated store gradients.
    pub fn flush_grads(&self, store: &mut ParamStore) {
        for (pid, g) in self.param_grads() {
            store.grad_mut(pid).add_assign(g);
        }
    }

    /// Like [`Graph::flush_grads`], into gradients moved out of the store
    /// by [`ParamStore::take_grads`].
    pub fn flush_grads_into(&self, grads: &mut Grads) {
        for (pid, g) in self.param_grads() {
            grads.0[pid.0].add_assign(g);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::ParamStore;

    #[test]
    fn forward_matmul_chain() {
        let mut g = Graph::new();
        let a = g.input(Tensor::from_vec(1, 2, vec![1.0, 2.0]));
        let b = g.input(Tensor::from_vec(2, 2, vec![1.0, 0.0, 0.0, 1.0]));
        let c = g.matmul(a, b);
        assert_eq!(g.value(c).as_slice(), &[1.0, 2.0]);
    }

    #[test]
    fn backward_through_scale_and_add() {
        let mut g = Graph::new();
        let a = g.input(Tensor::row(vec![2.0]));
        let b = g.input(Tensor::row(vec![3.0]));
        let s = g.scale(a, 4.0);
        let out = g.add(s, b);
        g.backward(out);
        assert_eq!(g.grad(a).as_slice(), &[4.0]);
        assert_eq!(g.grad(b).as_slice(), &[1.0]);
    }

    #[test]
    fn cross_entropy_gradient_is_probs_minus_onehot() {
        let mut g = Graph::new();
        let logits = g.input(Tensor::from_vec(1, 3, vec![0.0, 0.0, 0.0]));
        let loss = g.cross_entropy(logits, &[1]);
        g.backward(loss);
        let dl = g.grad(logits);
        let third = 1.0 / 3.0;
        assert!((dl.as_slice()[0] - third).abs() < 1e-6);
        assert!((dl.as_slice()[1] - (third - 1.0)).abs() < 1e-6);
        assert!((dl.as_slice()[2] - third).abs() < 1e-6);
    }

    #[test]
    fn embedding_gathers_and_scatters() {
        let mut store = ParamStore::new();
        let w = store.add("emb", Tensor::from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]));
        let mut g = Graph::new();
        let wn = g.param(&store, w);
        let e = g.embedding(wn, &[2, 0, 2]);
        assert_eq!(g.value(e).as_slice(), &[5.0, 6.0, 1.0, 2.0, 5.0, 6.0]);
        let s = g.mean_rows(e);
        let l = g.scale(s, 3.0);
        g.backward(l);
        g.flush_grads(&mut store);
        // Row 2 gathered twice, row 0 once, row 1 never.
        let grad = store.grad(w);
        assert!(grad.get(2, 0) > grad.get(0, 0));
        assert_eq!(grad.get(1, 0), 0.0);
    }

    #[test]
    fn backward_frees_interior_gradients_unless_kept() {
        let mut g = Graph::new();
        let a = g.input(Tensor::row(vec![2.0]));
        let freed = g.scale(a, 3.0);
        let kept = g.scale(freed, 2.0);
        let out = g.scale(kept, 1.0);
        g.keep_grad(kept);
        g.backward(out);
        assert_eq!(g.grad(kept).as_slice(), &[1.0]);
        assert_eq!(g.grad(a).as_slice(), &[6.0], "leaves keep their gradients");
        let read = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| g.grad(freed)));
        assert!(read.is_err(), "a freed gradient must not read as zeros");
    }

    #[test]
    fn flush_into_taken_grads_adds_to_the_store_gradients() {
        let mut store = ParamStore::new();
        let w = store.add("w", Tensor::row(vec![1.0, -2.0]));
        let mut g = Graph::new();
        let wn = g.param(&store, w);
        let sq = g.mul(wn, wn);
        g.backward(sq);
        g.flush_grads(&mut store);
        assert_eq!(store.grad(w).as_slice(), &[2.0, -4.0]);
        let mut taken = store.take_grads();
        g.flush_grads_into(&mut taken);
        store.restore_grads(taken);
        assert_eq!(store.grad(w).as_slice(), &[4.0, -8.0]);
    }

    #[test]
    fn dropout_mask_is_applied_in_both_directions() {
        let mut g = Graph::new();
        let x = g.input(Tensor::row(vec![1.0, 1.0]));
        let mask = Tensor::row(vec![0.0, 2.0]);
        let y = g.dropout(x, &mask);
        assert_eq!(g.value(y).as_slice(), &[0.0, 2.0]);
        g.backward(y);
        assert_eq!(g.grad(x).as_slice(), &[0.0, 2.0]);
    }

    #[test]
    fn softmax_rows_are_distributions() {
        let mut g = Graph::new();
        let x = g.input(Tensor::from_vec(2, 3, vec![1.0, 2.0, 3.0, 0.0, 0.0, 0.0]));
        let p = g.softmax(x);
        let v = g.value(p);
        for r in 0..2 {
            let s: f32 = v.row_slice(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn layer_norm_output_is_normalised() {
        let mut g = Graph::new();
        let x = g.input(Tensor::from_vec(1, 4, vec![1.0, 2.0, 3.0, 4.0]));
        let gain = g.input(Tensor::row(vec![1.0; 4]));
        let bias = g.input(Tensor::row(vec![0.0; 4]));
        let y = g.layer_norm(x, gain, bias);
        let v = g.value(y);
        let mean: f32 = v.as_slice().iter().sum::<f32>() / 4.0;
        let var: f32 = v.as_slice().iter().map(|&a| (a - mean) * (a - mean)).sum::<f32>() / 4.0;
        assert!(mean.abs() < 1e-5);
        assert!((var - 1.0).abs() < 1e-2);
    }
}
