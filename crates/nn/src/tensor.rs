//! Dense row-major 2-D tensor used throughout the reproduction.
//!
//! All ExplainTI computations operate on matrices whose rows are either
//! batch samples or sequence positions, so a rank-2 tensor (with rank-1
//! treated as a single row) keeps the autograd implementation small and
//! auditable. Shapes are checked eagerly; dimension mismatches panic with
//! the offending shapes, which turns silent numerical bugs into loud ones.
//!
//! ## Matmul kernels
//!
//! The three products (`A·B`, `Aᵀ·B`, `A·Bᵀ`) are blocked kernels: the
//! non-contiguous operand is packed into a transposed panel once, each
//! output row is then a run of contiguous fixed-order dot products or
//! axpy sweeps (now executed by the runtime-dispatched SIMD kernels in
//! [`crate::simd`], whose AVX2 and scalar arms are bitwise equivalent),
//! and row blocks are distributed over the shared [`explainti_pool`]
//! when the product is large enough to amortise dispatch. Every output
//! element is computed by exactly one task with an accumulation order
//! that depends only on the shapes — **results are byte-identical for
//! every thread count and every dispatch tier**, which the serve
//! integration tests, `tests/simd_kernels.rs`, and the `kernels` bench
//! binary all assert. Below `PACK_MIN` rows (columns for `Aᵀ·B`) the
//! single-threaded loops `matmul_naive`/`matmul_tn_naive` run instead:
//! they are live small-shape fallbacks as well as the references the
//! property tests compare against. `A·Bᵀ` has no fallback; its naive
//! reference lives in `tests/matmul_kernels.rs`.
//!
//! [`matmul_packed_into`] and [`matmul_nt_into`] expose the `A·B` and
//! `A·Bᵀ` kernels on slices, `A·B` from a pre-packed `Bᵀ`, so the
//! tape-free inference encoder packs each weight once per build and
//! still gets the tape's bits.

use explainti_pool::ThreadPool;
use std::fmt;

/// Mul-adds below which a product is never parallelised: dispatching a
/// pool job costs a few microseconds, so the encoder's tiny per-token
/// products (32×32×32 ≈ 33k mul-adds) stay inline while batch-scale
/// products (≥ 64×64×64) fan out.
const PAR_MIN_FLOPS: usize = 1 << 18;

/// Output rows per pool task. Fixed — never derived from the thread
/// count — so how a product is split can never change what it computes.
const ROW_BLOCK: usize = 32;

/// Minimum output rows (for `matmul`) or columns (for `matmul_tn`)
/// before packing a transposed panel pays for itself; below it the
/// naive streaming kernels are both faster and allocation-free.
const PACK_MIN: usize = 8;

/// Records which kernel arm ran for one dispatched product. Called once
/// per packed-kernel invocation (after the naive-path early returns) so
/// the counters reflect actual SIMD-eligible work.
fn note_dispatch() {
    match crate::simd::tier() {
        crate::simd::SimdTier::Avx2 => explainti_obs::counter!("nn.kernel.dispatch.avx2", 1),
        crate::simd::SimdTier::Neon => explainti_obs::counter!("nn.kernel.dispatch.neon", 1),
        crate::simd::SimdTier::Scalar => explainti_obs::counter!("nn.kernel.dispatch.scalar", 1),
    }
}

/// Walks a block of output rows two at a time (odd leftover handled by
/// `one`), so the paired kernel can stream the shared packed panel once
/// per output-row pair. `bi` is the row index within the block.
fn paired_rows(
    rows_out: &mut [f32],
    n: usize,
    mut one: impl FnMut(usize, &mut [f32]),
    mut two: impl FnMut(usize, &mut [f32], &mut [f32]),
) {
    let mut chunks = rows_out.chunks_mut(n);
    let mut bi = 0;
    while let Some(out0) = chunks.next() {
        match chunks.next() {
            Some(out1) => {
                two(bi, out0, out1);
                bi += 2;
            }
            None => {
                one(bi, out0);
                bi += 1;
            }
        }
    }
}

/// A `*mut f32` that may cross threads.
///
/// # Safety contract (callers in this module)
/// Each pool task derives a slice from a **disjoint** row range of the
/// output buffer, and the pool's scope blocks until every task is done,
/// so no aliasing or dangling access is possible.
struct SendMut(*mut f32);
// SAFETY: every task writes only its own disjoint row range and the
// pool scope joins before the buffer is touched again (contract above).
unsafe impl Send for SendMut {}
// SAFETY: shared access is read-only pointer arithmetic; writes through
// the derived slices never overlap across tasks (contract above).
unsafe impl Sync for SendMut {}

impl SendMut {
    /// Method (not field) access so closures capture the `SendMut`
    /// wrapper itself rather than disjointly capturing the raw pointer.
    fn get(&self) -> *mut f32 {
        self.0
    }
}

/// Runs `body(row_start, row_end, out_rows)` over `[0, rows)` split
/// into fixed [`ROW_BLOCK`] chunks, in parallel when the product is
/// big enough, inline otherwise. `out` is the full `rows * cols`
/// output buffer; each invocation receives only its own rows.
fn for_row_blocks<F>(rows: usize, cols: usize, flops: usize, out: &mut [f32], body: F)
where
    F: Fn(usize, usize, &mut [f32]) + Sync,
{
    debug_assert_eq!(out.len(), rows * cols);
    if flops < PAR_MIN_FLOPS || rows <= ROW_BLOCK {
        body(0, rows, out);
        return;
    }
    let pool = explainti_pool::global();
    if pool.threads() == 1 {
        body(0, rows, out);
        return;
    }
    for_row_blocks_in(&pool, rows, cols, out, body);
}

/// The parallel split itself, on an explicit pool (tests drive this
/// directly to compare widths).
fn for_row_blocks_in<F>(pool: &ThreadPool, rows: usize, cols: usize, out: &mut [f32], body: F)
where
    F: Fn(usize, usize, &mut [f32]) + Sync,
{
    let blocks = rows.div_ceil(ROW_BLOCK);
    if blocks <= 1 {
        body(0, rows, out);
        return;
    }
    let _span = explainti_obs::span!("nn.kernel.par");
    let base = SendMut(out.as_mut_ptr());
    pool.scope(blocks, |b| {
        let start = b * ROW_BLOCK;
        let end = (start + ROW_BLOCK).min(rows);
        // SAFETY: blocks index disjoint row ranges of `out`, and
        // `scope` joins every task before `out`'s borrow ends.
        let rows_out = unsafe {
            std::slice::from_raw_parts_mut(base.get().add(start * cols), (end - start) * cols)
        };
        body(start, end, rows_out);
    });
}

/// The packed kernel behind every blocked product: `out[i][j] =
/// dot(a_i, b_j)` over row-major `a` (`rows × k`) and `b` (`n × k`),
/// output rows paired over the shared panel and row blocks split over
/// `pool` (or the global pool when the product is large enough).
fn nt_rows(a: &[f32], b: &[f32], k: usize, n: usize, pool: Option<&ThreadPool>, out: &mut [f32]) {
    note_dispatch();
    let rows = out.len() / n;
    let body = |start: usize, _end: usize, rows_out: &mut [f32]| {
        let a_row = |i: usize| &a[(start + i) * k..(start + i + 1) * k];
        paired_rows(
            rows_out,
            n,
            |bi, out_row| crate::simd::row_times_rows(a_row(bi), b, k, out_row),
            |bi, out0, out1| {
                crate::simd::rows2_times_rows(a_row(bi), a_row(bi + 1), b, k, out0, out1)
            },
        );
    };
    match pool {
        Some(p) => for_row_blocks_in(p, rows, n, out, body),
        None => for_row_blocks(rows, n, rows * k * n, out, body),
    }
}

/// Checks `a` (`rows × k`), `b` (`n × k`) and `out` (`rows × n`) agree
/// and returns `rows`.
fn product_rows(a: &[f32], b: &[f32], k: usize, n: usize, out: &[f32]) -> usize {
    let rows = out.len().checked_div(n).or(a.len().checked_div(k)).unwrap_or(0);
    assert!(
        a.len() == rows * k && b.len() == n * k && out.len() == rows * n,
        "packed product shape mismatch: a {} b {} out {} for k {k} n {n}",
        a.len(),
        b.len(),
        out.len()
    );
    rows
}

/// `out = A·Bᵀ` for row-major `a` (`rows × k`) and `b` (`n × k`): the
/// kernel [`Tensor::matmul_nt`] runs, on slices, so a tape-free caller
/// gets the same bits.
pub fn matmul_nt_into(a: &[f32], b: &[f32], k: usize, n: usize, out: &mut [f32]) {
    product_rows(a, b, k, n, out);
    if n > 0 {
        nt_rows(a, b, k, n, None, out);
    }
}

/// `out = A·B` for row-major `a` (`rows × k`) from a pre-packed `bt =
/// Bᵀ` (`n × k`): the kernel [`Tensor::matmul`] runs once it has packed
/// `Bᵀ`, so a caller that packs a weight once gets the same bits on
/// every product. Below `PACK_MIN` rows it runs [`Tensor::matmul_naive`]'s
/// loop: each element accumulates `a[i][k]·b[k][j]` from `0.0` in
/// ascending `k`, skipping zero `a` entries, read here from `Bᵀ`.
pub fn matmul_packed_into(a: &[f32], bt: &[f32], k: usize, n: usize, out: &mut [f32]) {
    let rows = product_rows(a, bt, k, n, out);
    if n == 0 {
        return;
    }
    if rows >= PACK_MIN {
        nt_rows(a, bt, k, n, None, out);
        return;
    }
    for (i, out_row) in out.chunks_exact_mut(n).enumerate() {
        let a_row = &a[i * k..(i + 1) * k];
        for (j, out_v) in out_row.iter_mut().enumerate() {
            let mut acc = 0.0;
            for (&x, &y) in a_row.iter().zip(&bt[j * k..(j + 1) * k]) {
                if x != 0.0 {
                    acc += x * y;
                }
            }
            *out_v = acc;
        }
    }
}

/// A dense, row-major `rows x cols` matrix of `f32`.
#[derive(Clone, PartialEq)]
pub struct Tensor {
    data: Vec<f32>,
    rows: usize,
    cols: usize,
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor[{}x{}]", self.rows, self.cols)?;
        if self.data.len() <= 8 {
            write!(f, " {:?}", self.data)?;
        }
        Ok(())
    }
}

impl Tensor {
    /// Creates a tensor from a flat row-major buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "tensor data length {} does not match shape {}x{}",
            data.len(),
            rows,
            cols
        );
        Self { data, rows, cols }
    }

    /// Creates a zero-filled tensor.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self { data: vec![0.0; rows * cols], rows, cols }
    }

    /// Creates a tensor filled with `value`.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        Self { data: vec![value; rows * cols], rows, cols }
    }

    /// Creates a 1 x n row vector.
    pub fn row(data: Vec<f32>) -> Self {
        let cols = data.len();
        Self::from_vec(1, cols, data)
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the tensor holds no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the flat row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the flat row-major buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor, returning the flat buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Element mutator.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Borrow one row as a slice.
    #[inline]
    pub fn row_slice(&self, r: usize) -> &[f32] {
        let start = r * self.cols;
        &self.data[start..start + self.cols]
    }

    /// Mutably borrow one row as a slice.
    #[inline]
    pub fn row_slice_mut(&mut self, r: usize) -> &mut [f32] {
        let start = r * self.cols;
        &mut self.data[start..start + self.cols]
    }

    /// Matrix product `self (r x k) * other (k x c) -> (r x c)`.
    ///
    /// Blocked kernel: packs `otherᵀ` once so every output element is a
    /// contiguous fixed-order [`dot`], then splits output row blocks over
    /// the global pool when the product is large enough. Small products
    /// fall back to [`Tensor::matmul_naive`].
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        self.matmul_dispatch(other, None)
    }

    /// [`Tensor::matmul`] on an explicit pool, bypassing the size gate.
    /// Exists so the kernel property tests can compare pool widths; the
    /// result is byte-identical to `matmul` whenever shapes agree on the
    /// packing decision.
    pub fn matmul_in(&self, other: &Tensor, pool: &ThreadPool) -> Tensor {
        self.matmul_dispatch(other, Some(pool))
    }

    fn matmul_dispatch(&self, other: &Tensor, pool: Option<&ThreadPool>) -> Tensor {
        assert_eq!(
            self.cols, other.rows,
            "matmul shape mismatch: {}x{} * {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        if self.rows < PACK_MIN || other.cols == 0 {
            return self.matmul_naive(other);
        }
        let bt = other.transpose();
        let mut out = Tensor::zeros(self.rows, other.cols);
        nt_rows(&self.data, &bt.data, self.cols, other.cols, pool, &mut out.data);
        out
    }

    /// Reference `A·B` kernel: the original single-threaded i-k-j axpy
    /// loop. Kept as the ground truth the blocked kernel is tested
    /// against, and as the fast path for small products.
    pub fn matmul_naive(&self, other: &Tensor) -> Tensor {
        assert_eq!(
            self.cols, other.rows,
            "matmul shape mismatch: {}x{} * {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut out = Tensor::zeros(self.rows, other.cols);
        let n = other.cols;
        for i in 0..self.rows {
            let a_row = self.row_slice(i);
            let out_row = out.row_slice_mut(i);
            for (k, &a) in a_row.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                let b_row = &other.data[k * n..k * n + n];
                for j in 0..n {
                    out_row[j] += a * b_row[j];
                }
            }
        }
        out
    }

    /// `self^T * other`, without materialising the transpose of the
    /// product. Packs `selfᵀ` once so each output row streams `other`
    /// with a fixed k-order axpy sweep; row blocks split over the pool.
    pub fn matmul_tn(&self, other: &Tensor) -> Tensor {
        self.matmul_tn_dispatch(other, None)
    }

    /// [`Tensor::matmul_tn`] on an explicit pool (see [`Tensor::matmul_in`]).
    pub fn matmul_tn_in(&self, other: &Tensor, pool: &ThreadPool) -> Tensor {
        self.matmul_tn_dispatch(other, Some(pool))
    }

    fn matmul_tn_dispatch(&self, other: &Tensor, pool: Option<&ThreadPool>) -> Tensor {
        assert_eq!(
            self.rows, other.rows,
            "matmul_tn shape mismatch: {}x{} ^T * {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        if other.cols < PACK_MIN {
            return self.matmul_tn_naive(other);
        }
        note_dispatch();
        let at = self.transpose();
        let n = other.cols;
        let mut out = Tensor::zeros(self.cols, n);
        let flops = self.rows * self.cols * n;
        let body = |start: usize, _end: usize, rows_out: &mut [f32]| {
            for (bi, out_row) in rows_out.chunks_mut(n).enumerate() {
                let at_row = at.row_slice(start + bi);
                for (k, &a) in at_row.iter().enumerate() {
                    if a == 0.0 {
                        continue;
                    }
                    crate::simd::axpy(a, other.row_slice(k), out_row);
                }
            }
        };
        match pool {
            Some(p) => for_row_blocks_in(p, self.cols, n, &mut out.data, body),
            None => for_row_blocks(self.cols, n, flops, &mut out.data, body),
        }
        out
    }

    /// Reference `Aᵀ·B` kernel: the original single-threaded k-outer
    /// axpy loop (ground truth + small-product fast path).
    pub fn matmul_tn_naive(&self, other: &Tensor) -> Tensor {
        assert_eq!(
            self.rows, other.rows,
            "matmul_tn shape mismatch: {}x{} ^T * {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut out = Tensor::zeros(self.cols, other.cols);
        let n = other.cols;
        for k in 0..self.rows {
            let a_row = self.row_slice(k);
            let b_row = other.row_slice(k);
            for (i, &a) in a_row.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                let out_row = &mut out.data[i * n..i * n + n];
                for j in 0..n {
                    out_row[j] += a * b_row[j];
                }
            }
        }
        out
    }

    /// `self * other^T`, without materialising the transpose. Both
    /// operands are already row-major along the reduction axis, so no
    /// packing is needed: every output element is a fixed-order [`dot`]
    /// of two contiguous rows, with row blocks split over the pool.
    pub fn matmul_nt(&self, other: &Tensor) -> Tensor {
        self.matmul_nt_dispatch(other, None)
    }

    /// [`Tensor::matmul_nt`] on an explicit pool (see [`Tensor::matmul_in`]).
    pub fn matmul_nt_in(&self, other: &Tensor, pool: &ThreadPool) -> Tensor {
        self.matmul_nt_dispatch(other, Some(pool))
    }

    fn matmul_nt_dispatch(&self, other: &Tensor, pool: Option<&ThreadPool>) -> Tensor {
        assert_eq!(
            self.cols, other.cols,
            "matmul_nt shape mismatch: {}x{} * {}x{} ^T",
            self.rows, self.cols, other.rows, other.cols
        );
        let n = other.rows;
        let mut out = Tensor::zeros(self.rows, n);
        if n == 0 {
            return out;
        }
        nt_rows(&self.data, &other.data, self.cols, n, pool, &mut out.data);
        out
    }

    /// Returns the transpose.
    pub fn transpose(&self) -> Tensor {
        let mut out = Tensor::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Element-wise in-place addition.
    pub fn add_assign(&mut self, other: &Tensor) {
        assert_eq!(self.shape(), other.shape(), "add_assign shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// Element-wise in-place scaling.
    pub fn scale_assign(&mut self, s: f32) {
        for a in &mut self.data {
            *a *= s;
        }
    }

    /// Mean over every element.
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            return 0.0;
        }
        self.data.iter().sum::<f32>() / self.data.len() as f32
    }

    /// Column-wise mean, producing a `1 x cols` row.
    pub fn mean_rows(&self) -> Tensor {
        let mut out = Tensor::zeros(1, self.cols);
        if self.rows == 0 {
            return out;
        }
        for r in 0..self.rows {
            let row = self.row_slice(r);
            for (o, &v) in out.data.iter_mut().zip(row) {
                *o += v;
            }
        }
        let inv = 1.0 / self.rows as f32;
        out.scale_assign(inv);
        out
    }

    /// L2 norm of the whole tensor.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum::<f32>().sqrt()
    }

    /// Cosine similarity between two flat tensors of identical length.
    /// Runs on the dispatched SIMD kernel ([`crate::simd::cosine`]);
    /// every arm is bitwise equal to the 8-lane scalar reference.
    pub fn cosine(&self, other: &Tensor) -> f32 {
        assert_eq!(self.len(), other.len(), "cosine length mismatch");
        crate::simd::cosine(&self.data, &other.data)
    }

    /// Extracts rows `[start, start + n)` into a new tensor.
    pub fn rows_range(&self, start: usize, n: usize) -> Tensor {
        assert!(
            start + n <= self.rows,
            "rows_range [{start}, {}) out of bounds for {} rows",
            start + n,
            self.rows
        );
        let begin = start * self.cols;
        let end = (start + n) * self.cols;
        Tensor::from_vec(n, self.cols, self.data[begin..end].to_vec())
    }

    /// Horizontal concatenation: `[self | other]`.
    pub fn concat_cols(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.rows, other.rows, "concat_cols row mismatch");
        let cols = self.cols + other.cols;
        let mut out = Tensor::zeros(self.rows, cols);
        for r in 0..self.rows {
            out.row_slice_mut(r)[..self.cols].copy_from_slice(self.row_slice(r));
            out.row_slice_mut(r)[self.cols..].copy_from_slice(other.row_slice(r));
        }
        out
    }

    /// Index of the largest element in a given row.
    pub fn argmax_row(&self, r: usize) -> usize {
        let row = self.row_slice(r);
        let mut best = 0;
        let mut best_v = f32::NEG_INFINITY;
        for (i, &v) in row.iter().enumerate() {
            if v > best_v {
                best_v = v;
                best = i;
            }
        }
        best
    }
}

/// Layer-normalises one row: `out[c] = gain[c]·x̂[c] + bias[c]` with
/// `x̂ = (x − mean)/√(var + 1e-5)`. Writes `x̂` into `xhat` when given
/// (the tape keeps it for backward) and returns `1/√(var + 1e-5)`.
/// [`crate::Graph::layer_norm`] and the tape-free inference encoder
/// both normalise through this function.
pub fn layer_norm_row(
    x: &[f32],
    gain: &[f32],
    bias: &[f32],
    out: &mut [f32],
    mut xhat: Option<&mut [f32]>,
) -> f32 {
    const EPS: f32 = 1e-5;
    let cols = x.len();
    assert!(
        gain.len() == cols && bias.len() == cols && out.len() == cols,
        "layer_norm_row width mismatch"
    );
    let mean = x.iter().sum::<f32>() / cols as f32;
    let var = x.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / cols as f32;
    let istd = 1.0 / (var + EPS).sqrt();
    for c in 0..cols {
        let h = (x[c] - mean) * istd;
        if let Some(xh) = xhat.as_deref_mut() {
            xh[c] = h;
        }
        out[c] = gain[c] * h + bias[c];
    }
    istd
}

/// Numerically stable softmax of a slice, written into `out`.
pub fn softmax_into(xs: &[f32], out: &mut [f32]) {
    debug_assert_eq!(xs.len(), out.len());
    let max = xs.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let mut sum = 0.0;
    for (o, &x) in out.iter_mut().zip(xs) {
        let e = (x - max).exp();
        *o = e;
        sum += e;
    }
    if sum > 0.0 {
        let inv = 1.0 / sum;
        for o in out.iter_mut() {
            *o *= inv;
        }
    }
}

/// Numerically stable softmax of a slice, returning a new vector.
pub fn softmax(xs: &[f32]) -> Vec<f32> {
    let mut out = vec![0.0; xs.len()];
    softmax_into(xs, &mut out);
    out
}

/// Kullback-Leibler divergence `KL(p || q)` between two distributions.
///
/// Both inputs must already be probability distributions; entries of `p`
/// that are zero contribute nothing, and `q` is floored at a small epsilon
/// for numerical safety (matching the paper's use of KL over softmax
/// outputs in Eq. 3).
pub fn kl_divergence(p: &[f32], q: &[f32]) -> f32 {
    debug_assert_eq!(p.len(), q.len());
    const EPS: f32 = 1e-8;
    let mut kl = 0.0;
    for (&pi, &qi) in p.iter().zip(q) {
        if pi > 0.0 {
            kl += pi * (pi / qi.max(EPS)).ln();
        }
    }
    kl.max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_matches_hand_computation() {
        let a = Tensor::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Tensor::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), (2, 2));
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_tn_equals_explicit_transpose() {
        let a = Tensor::from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Tensor::from_vec(3, 2, vec![1.0, 0.5, -1.0, 2.0, 0.0, 3.0]);
        let got = a.matmul_tn(&b);
        let want = a.transpose().matmul(&b);
        assert_eq!(got, want);
    }

    #[test]
    fn matmul_nt_equals_explicit_transpose() {
        let a = Tensor::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Tensor::from_vec(4, 3, (0..12).map(|v| v as f32).collect());
        let got = a.matmul_nt(&b);
        let want = a.matmul(&b.transpose());
        assert_eq!(got, want);
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn matmul_rejects_bad_shapes() {
        let a = Tensor::zeros(2, 3);
        let b = Tensor::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn softmax_sums_to_one_and_orders() {
        let p = softmax(&[1.0, 2.0, 3.0]);
        let sum: f32 = p.iter().sum();
        assert!((sum - 1.0).abs() < 1e-6);
        assert!(p[2] > p[1] && p[1] > p[0]);
    }

    #[test]
    fn softmax_is_stable_for_large_inputs() {
        let p = softmax(&[1000.0, 1001.0]);
        assert!(p.iter().all(|v| v.is_finite()));
        assert!((p.iter().sum::<f32>() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn kl_of_identical_distributions_is_zero() {
        let p = softmax(&[0.3, 1.5, -0.2]);
        assert!(kl_divergence(&p, &p).abs() < 1e-6);
    }

    #[test]
    fn kl_is_positive_for_different_distributions() {
        let p = softmax(&[3.0, 0.0, 0.0]);
        let q = softmax(&[0.0, 0.0, 3.0]);
        assert!(kl_divergence(&p, &q) > 0.1);
    }

    #[test]
    fn cosine_of_parallel_vectors_is_one() {
        let a = Tensor::row(vec![1.0, 2.0, 3.0]);
        let b = Tensor::row(vec![2.0, 4.0, 6.0]);
        assert!((a.cosine(&b) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn cosine_of_zero_vector_is_zero() {
        let a = Tensor::row(vec![0.0, 0.0]);
        let b = Tensor::row(vec![1.0, 1.0]);
        assert_eq!(a.cosine(&b), 0.0);
    }

    #[test]
    fn mean_rows_averages_columns() {
        let a = Tensor::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let m = a.mean_rows();
        assert_eq!(m.as_slice(), &[2.0, 3.0]);
    }

    #[test]
    fn concat_cols_places_halves() {
        let a = Tensor::from_vec(2, 1, vec![1.0, 2.0]);
        let b = Tensor::from_vec(2, 2, vec![3.0, 4.0, 5.0, 6.0]);
        let c = a.concat_cols(&b);
        assert_eq!(c.shape(), (2, 3));
        assert_eq!(c.as_slice(), &[1.0, 3.0, 4.0, 2.0, 5.0, 6.0]);
    }

    #[test]
    fn rows_range_extracts_middle() {
        let a = Tensor::from_vec(3, 2, vec![0.0, 1.0, 2.0, 3.0, 4.0, 5.0]);
        let b = a.rows_range(1, 1);
        assert_eq!(b.as_slice(), &[2.0, 3.0]);
    }

    #[test]
    fn argmax_row_finds_peak() {
        let a = Tensor::from_vec(1, 4, vec![0.1, 0.9, 0.3, 0.2]);
        assert_eq!(a.argmax_row(0), 1);
    }
}
