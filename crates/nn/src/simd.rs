//! Explicit SIMD kernels with runtime dispatch.
//!
//! Every kernel in this module comes in (at least) two arms: a portable
//! 8-lane-unrolled scalar fallback and an x86_64 AVX2 arm built on
//! `std::arch` intrinsics; every other target (aarch64 included) runs
//! the scalar arm. The arms are
//! **bitwise equivalent** for f32 inputs: the AVX2 code uses separate
//! multiply + add (never FMA, which fuses the rounding step) and reduces
//! its 8 lane accumulators in exactly the same tree order as the scalar
//! fallback (`half[l] = acc[l] + acc[l+4]`, then
//! `(half0+half1) + (half2+half3)`, then `+ tail`).
//!
//! Dispatch is decided once per process by [`tier`] (runtime
//! `is_x86_feature_detected!`, overridable via the `EXPLAINTI_NO_SIMD`
//! environment variable or [`force_tier`] in tests/benches) and cached in
//! an atomic. Under miri the scalar arm is always selected because miri
//! does not model vendor intrinsics.

use std::sync::atomic::{AtomicU8, Ordering};

/// Which kernel arm runtime dispatch selected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdTier {
    /// x86_64 AVX2 256-bit arm (8 × f32 lanes).
    Avx2,
    /// Portable 8-lane-unrolled scalar fallback.
    Scalar,
}

impl SimdTier {
    /// Stable lower-case name for metrics / bench JSON.
    pub fn name(self) -> &'static str {
        match self {
            SimdTier::Avx2 => "avx2",
            SimdTier::Scalar => "scalar",
        }
    }
}

const TIER_UNSET: u8 = 0;
const TIER_AVX2: u8 = 1;
const TIER_SCALAR: u8 = 2;

static TIER: AtomicU8 = AtomicU8::new(TIER_UNSET);

fn detect() -> u8 {
    if cfg!(miri) {
        // Miri cannot interpret vendor intrinsics; always take the
        // portable arm so the unsafe-free fallback is what gets checked.
        return TIER_SCALAR;
    }
    if std::env::var("EXPLAINTI_NO_SIMD").is_ok_and(|v| v == "1") {
        return TIER_SCALAR;
    }
    #[cfg(target_arch = "x86_64")]
    {
        if is_x86_feature_detected!("avx2") {
            return TIER_AVX2;
        }
    }
    TIER_SCALAR
}

/// Returns the kernel arm in effect for this process (cached after the
/// first call). Honors `EXPLAINTI_NO_SIMD=1` and [`force_tier`].
pub fn tier() -> SimdTier {
    // ORDERING: Relaxed — the cached tier is a pure function of the
    // environment; racing initialisers compute the same value, so the
    // cell needs atomicity only.
    let mut t = TIER.load(Ordering::Relaxed);
    if t == TIER_UNSET {
        t = detect();
        TIER.store(t, Ordering::Relaxed); // ORDERING: Relaxed — as above
    }
    match t {
        TIER_AVX2 => SimdTier::Avx2,
        _ => SimdTier::Scalar,
    }
}

/// Overrides the dispatch tier for the rest of the process. Intended for
/// differential tests and benches; forcing a tier the host cannot execute
/// (e.g. Avx2 on a non-AVX2 machine) is a programmer error and will fault
/// at the first kernel call.
pub fn force_tier(t: SimdTier) {
    let v = match t {
        SimdTier::Avx2 => TIER_AVX2,
        SimdTier::Scalar => TIER_SCALAR,
    };
    // ORDERING: Relaxed — see `tier`; the forced value is self-contained.
    TIER.store(v, Ordering::Relaxed);
}

/// Clears any cached/forced tier so the next [`tier`] call re-detects.
pub fn reset_tier() {
    // ORDERING: Relaxed — see `tier`.
    TIER.store(TIER_UNSET, Ordering::Relaxed);
}

// ---------------------------------------------------------------------------
// f32 dot product: 8-accumulator block with fixed reduction order.
// ---------------------------------------------------------------------------

/// Portable reference dot product: 8 independent lane accumulators over
/// `chunks_exact(8)`, a scalar tail, and the fixed reduction tree
/// `((h0+h1)+(h2+h3)) + tail` where `h[l] = acc[l] + acc[l+4]`.
pub fn dot_scalar(a: &[f32], b: &[f32]) -> f32 {
    let mut acc = [0.0f32; 8];
    let mut ca = a.chunks_exact(8);
    let mut cb = b.chunks_exact(8);
    for (x, y) in (&mut ca).zip(&mut cb) {
        for l in 0..8 {
            acc[l] += x[l] * y[l];
        }
    }
    let mut tail = 0.0f32;
    for (x, y) in ca.remainder().iter().zip(cb.remainder()) {
        tail += x * y;
    }
    let half = [acc[0] + acc[4], acc[1] + acc[5], acc[2] + acc[6], acc[3] + acc[7]];
    ((half[0] + half[1]) + (half[2] + half[3])) + tail
}

/// Dot product on the currently dispatched arm. Bitwise equal to
/// [`dot_scalar`] on every arm.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    match tier() {
        #[cfg(target_arch = "x86_64")]
        SimdTier::Avx2 => {
            // SAFETY: tier() only returns Avx2 when is_x86_feature_detected!
            // confirmed AVX2 support at runtime (or a test forced it on an
            // AVX2-capable host).
            unsafe { dot_avx2(a, b) }
        }
        _ => dot_scalar(a, b),
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
// SAFETY: caller must ensure AVX2 is available (dispatch via tier()).
unsafe fn dot_avx2(a: &[f32], b: &[f32]) -> f32 {
    use std::arch::x86_64::*;
    let n = a.len().min(b.len());
    let chunks = n / 8;
    let ap = a.as_ptr();
    let bp = b.as_ptr();
    // One 8-lane vector accumulator == the scalar arm's acc[0..8].
    // Separate mul + add (no FMA) keeps each lane's rounding identical to
    // the scalar `acc[l] += x[l] * y[l]`.
    let mut vacc = _mm256_setzero_ps();
    for c in 0..chunks {
        // SAFETY: c < chunks so c*8 + 7 < n <= len of both slices; reads
        // are 32-byte unaligned loads fully inside the slices.
        let vx = unsafe { _mm256_loadu_ps(ap.add(c * 8)) };
        // SAFETY: same bounds argument as vx for slice b.
        let vy = unsafe { _mm256_loadu_ps(bp.add(c * 8)) };
        vacc = _mm256_add_ps(vacc, _mm256_mul_ps(vx, vy));
    }
    // Reduce in the exact scalar tree order:
    //   half[l] = acc[l] + acc[l+4]  -> add low/high 128-bit halves
    let lo = _mm256_castps256_ps128(vacc);
    let hi = _mm256_extractf128_ps::<1>(vacc);
    let h = _mm_add_ps(lo, hi);
    //   (h0+h1, h2+h3, h0+h1, h2+h3) then (h0+h1)+(h2+h3) in lane 0.
    let p = _mm_hadd_ps(h, h);
    let s = _mm_hadd_ps(p, p);
    let mut sum = _mm_cvtss_f32(s);
    let mut tail = 0.0f32;
    for i in chunks * 8..n {
        // SAFETY: i < n <= len of both slices.
        tail += unsafe { *ap.add(i) * *bp.add(i) };
    }
    sum += tail;
    sum
}

// ---------------------------------------------------------------------------
// Row-block kernel: one A row against NR packed B^T rows at a time.
// ---------------------------------------------------------------------------

/// Computes `out[j] = dot(a_row, bt_rows(j))` for `j in 0..nj`, where
/// `bt` is the packed B^T matrix with rows of length `k` (row `j` starts
/// at `bt[j*k]`). Each output element's value is bitwise equal to
/// [`dot_scalar`] on every arm; the AVX2 arm blocks 4 output columns per
/// pass so the A row is loaded once per chunk (register-level reuse).
pub fn row_times_rows(a_row: &[f32], bt: &[f32], k: usize, out: &mut [f32]) {
    debug_assert_eq!(a_row.len(), k);
    debug_assert_eq!(bt.len(), k * out.len());
    match tier() {
        #[cfg(target_arch = "x86_64")]
        SimdTier::Avx2 => {
            // SAFETY: tier() returned Avx2 only after runtime detection of
            // AVX2 (or a forced tier on a capable host).
            unsafe { row_times_rows_avx2(a_row, bt, k, out) }
        }
        _ => {
            for (j, out_v) in out.iter_mut().enumerate() {
                *out_v = dot_scalar(a_row, &bt[j * k..j * k + k]);
            }
        }
    }
}

/// Two A-rows against the same packed panel in one pass: the panel
/// streams through cache once for two output rows. Every (row, column)
/// accumulation chain is identical to [`row_times_rows`]'s — pairing
/// changes memory traffic, never bits.
pub fn rows2_times_rows(
    a0: &[f32],
    a1: &[f32],
    bt: &[f32],
    k: usize,
    out0: &mut [f32],
    out1: &mut [f32],
) {
    debug_assert_eq!(a0.len(), k);
    debug_assert_eq!(a1.len(), k);
    debug_assert_eq!(out0.len(), out1.len());
    match tier() {
        #[cfg(target_arch = "x86_64")]
        SimdTier::Avx2 => {
            // SAFETY: tier() returned Avx2 only after runtime detection of
            // AVX2 (or a forced tier on a capable host).
            unsafe { rows2_times_rows_avx2(a0, a1, bt, k, out0, out1) }
        }
        _ => {
            row_times_rows(a0, bt, k, out0);
            row_times_rows(a1, bt, k, out1);
        }
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
// SAFETY: caller must ensure AVX2 is available and bt holds out0.len() rows of k elements.
unsafe fn rows2_times_rows_avx2(
    a0: &[f32],
    a1: &[f32],
    bt: &[f32],
    k: usize,
    out0: &mut [f32],
    out1: &mut [f32],
) {
    use std::arch::x86_64::*;
    let nj = out0.len();
    let chunks = k / 8;
    let a0p = a0.as_ptr();
    let a1p = a1.as_ptr();
    let btp = bt.as_ptr();
    let mut j = 0;
    // 2-row × 4-column register blocking: each B chunk is loaded once and
    // feeds both rows' accumulators (8 accs + 2 A vectors + 1 B temp fit
    // the 16 ymm registers). Per-(row, column) chains match dot_avx2, so
    // the bits equal the unpaired kernel's.
    while j + 4 <= nj {
        let bases =
            [btp.add(j * k), btp.add((j + 1) * k), btp.add((j + 2) * k), btp.add((j + 3) * k)];
        let mut acc0 = [_mm256_setzero_ps(); 4];
        let mut acc1 = [_mm256_setzero_ps(); 4];
        for c in 0..chunks {
            let off = c * 8;
            // SAFETY: off + 7 < k (c < chunks = k/8); a0/a1 have len k.
            let va0 = unsafe { _mm256_loadu_ps(a0p.add(off)) };
            // SAFETY: as above.
            let va1 = unsafe { _mm256_loadu_ps(a1p.add(off)) };
            for (l, &base) in bases.iter().enumerate() {
                // SAFETY: rows j..j+4 exist (j+4 <= nj) and each has k
                // elements in bt, so every load stays inside bt.
                let w = unsafe { _mm256_loadu_ps(base.add(off)) };
                acc0[l] = _mm256_add_ps(acc0[l], _mm256_mul_ps(va0, w));
                acc1[l] = _mm256_add_ps(acc1[l], _mm256_mul_ps(va1, w));
            }
        }
        let tail_start = chunks * 8;
        for (l, &base) in bases.iter().enumerate() {
            // SAFETY: reduction + scalar tail reads stay inside a0/a1
            // (len k) and row j+l of bt as argued above.
            out0[j + l] = unsafe { finish_avx2(acc0[l], a0p, base, tail_start, k) };
            // SAFETY: as above.
            out1[j + l] = unsafe { finish_avx2(acc1[l], a1p, base, tail_start, k) };
        }
        j += 4;
    }
    while j < nj {
        // SAFETY: row j exists and has k elements; AVX2 is enabled in
        // this target_feature context.
        let b_row = unsafe { std::slice::from_raw_parts(btp.add(j * k), k) };
        // SAFETY: as above.
        out0[j] = unsafe { dot_avx2(a0, b_row) };
        // SAFETY: as above.
        out1[j] = unsafe { dot_avx2(a1, b_row) };
        j += 1;
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
// SAFETY: caller must ensure AVX2 is available and bt holds out.len() rows of k elements.
unsafe fn row_times_rows_avx2(a_row: &[f32], bt: &[f32], k: usize, out: &mut [f32]) {
    use std::arch::x86_64::*;
    let nj = out.len();
    let chunks = k / 8;
    let ap = a_row.as_ptr();
    let btp = bt.as_ptr();
    let mut j = 0;
    // 8-then-4-column register blocking: independent vector accumulators
    // per column, the A-row chunk loaded once and reused. Each column's
    // accumulation chain is element-for-element the same as dot_avx2 /
    // dot_scalar, so blocking changes speed, not bits. Eight parallel
    // chains fully hide the vaddps latency; 8 accs + va + a temp stay
    // within the 16 ymm registers.
    while j + 8 <= nj {
        let bases = [
            btp.add(j * k),
            btp.add((j + 1) * k),
            btp.add((j + 2) * k),
            btp.add((j + 3) * k),
            btp.add((j + 4) * k),
            btp.add((j + 5) * k),
            btp.add((j + 6) * k),
            btp.add((j + 7) * k),
        ];
        let mut acc = [_mm256_setzero_ps(); 8];
        for c in 0..chunks {
            let off = c * 8;
            // SAFETY: off + 7 < k (c < chunks = k/8); a_row has len k.
            let va = unsafe { _mm256_loadu_ps(ap.add(off)) };
            for (l, &base) in bases.iter().enumerate() {
                // SAFETY: rows j..j+8 exist (j+8 <= nj) and each has k
                // elements in bt, so every load stays inside bt.
                let w = unsafe { _mm256_loadu_ps(base.add(off)) };
                acc[l] = _mm256_add_ps(acc[l], _mm256_mul_ps(va, w));
            }
        }
        let tail_start = chunks * 8;
        for (l, &base) in bases.iter().enumerate() {
            // SAFETY: reduction + scalar tail reads stay inside a_row
            // (len k) and row j+l of bt as argued above.
            out[j + l] = unsafe { finish_avx2(acc[l], ap, base, tail_start, k) };
        }
        j += 8;
    }
    while j + 4 <= nj {
        let b0 = btp.add(j * k);
        let b1 = btp.add((j + 1) * k);
        let b2 = btp.add((j + 2) * k);
        let b3 = btp.add((j + 3) * k);
        let mut v0 = _mm256_setzero_ps();
        let mut v1 = _mm256_setzero_ps();
        let mut v2 = _mm256_setzero_ps();
        let mut v3 = _mm256_setzero_ps();
        for c in 0..chunks {
            let off = c * 8;
            // SAFETY: off + 7 < k (c < chunks = k/8); a_row has len k.
            let va = unsafe { _mm256_loadu_ps(ap.add(off)) };
            // SAFETY: rows j..j+4 exist (j+4 <= nj) and each has k
            // elements in bt, so every load below is inside bt.
            let w0 = unsafe { _mm256_loadu_ps(b0.add(off)) };
            // SAFETY: as above.
            let w1 = unsafe { _mm256_loadu_ps(b1.add(off)) };
            // SAFETY: as above.
            let w2 = unsafe { _mm256_loadu_ps(b2.add(off)) };
            // SAFETY: as above.
            let w3 = unsafe { _mm256_loadu_ps(b3.add(off)) };
            v0 = _mm256_add_ps(v0, _mm256_mul_ps(va, w0));
            v1 = _mm256_add_ps(v1, _mm256_mul_ps(va, w1));
            v2 = _mm256_add_ps(v2, _mm256_mul_ps(va, w2));
            v3 = _mm256_add_ps(v3, _mm256_mul_ps(va, w3));
        }
        let tail_start = chunks * 8;
        // SAFETY: reduction + scalar tail reads stay inside a_row (len
        // k) and row j of bt as argued above.
        out[j] = unsafe { finish_avx2(v0, ap, b0, tail_start, k) };
        // SAFETY: as above, for row j+1.
        out[j + 1] = unsafe { finish_avx2(v1, ap, b1, tail_start, k) };
        // SAFETY: as above, for row j+2.
        out[j + 2] = unsafe { finish_avx2(v2, ap, b2, tail_start, k) };
        // SAFETY: as above, for row j+3.
        out[j + 3] = unsafe { finish_avx2(v3, ap, b3, tail_start, k) };
        j += 4;
    }
    while j < nj {
        // SAFETY: row j exists and has k elements; AVX2 is enabled in this
        // target_feature context.
        out[j] = unsafe { dot_avx2(a_row, std::slice::from_raw_parts(btp.add(j * k), k)) };
        j += 1;
    }
}

/// Reduces one accumulator vector in scalar tree order and adds the
/// scalar tail `sum(a[i]*b[i] for i in tail_start..k)`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
// SAFETY: caller must ensure AVX2 is available and ap/bp point to k readable f32s.
unsafe fn finish_avx2(
    vacc: std::arch::x86_64::__m256,
    ap: *const f32,
    bp: *const f32,
    tail_start: usize,
    k: usize,
) -> f32 {
    use std::arch::x86_64::*;
    let lo = _mm256_castps256_ps128(vacc);
    let hi = _mm256_extractf128_ps::<1>(vacc);
    let h = _mm_add_ps(lo, hi);
    let p = _mm_hadd_ps(h, h);
    let s = _mm_hadd_ps(p, p);
    let mut sum = _mm_cvtss_f32(s);
    let mut tail = 0.0f32;
    for i in tail_start..k {
        // SAFETY: caller guarantees ap and bp point to buffers with at
        // least k readable f32 elements.
        tail += unsafe { *ap.add(i) * *bp.add(i) };
    }
    sum += tail;
    sum
}

// ---------------------------------------------------------------------------
// axpy sweep: out[j] += a * row[j]  (matmul_tn inner loop)
// ---------------------------------------------------------------------------

/// `out[j] += a * row[j]` for all j. Each `out[j]` has an independent
/// chain across successive calls, so the vector arm is lanewise bitwise
/// equal to the scalar one (separate mul + add, no FMA).
#[inline]
pub fn axpy(a: f32, row: &[f32], out: &mut [f32]) {
    debug_assert_eq!(row.len(), out.len());
    match tier() {
        #[cfg(target_arch = "x86_64")]
        SimdTier::Avx2 => {
            // SAFETY: tier() returned Avx2 only after runtime detection.
            unsafe { axpy_avx2(a, row, out) }
        }
        _ => axpy_scalar(a, row, out),
    }
}

/// Portable reference arm for [`axpy`].
pub fn axpy_scalar(a: f32, row: &[f32], out: &mut [f32]) {
    for (o, r) in out.iter_mut().zip(row) {
        *o += a * r;
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
// SAFETY: caller must ensure AVX2 is available (dispatch via tier()).
unsafe fn axpy_avx2(a: f32, row: &[f32], out: &mut [f32]) {
    use std::arch::x86_64::*;
    let n = row.len().min(out.len());
    let chunks = n / 8;
    let rp = row.as_ptr();
    let op = out.as_mut_ptr();
    let va = _mm256_set1_ps(a);
    for c in 0..chunks {
        let off = c * 8;
        // SAFETY: off + 7 < n <= lengths of row and out; loads/stores are
        // unaligned and fully in bounds; rp and op never alias (&/&mut).
        unsafe {
            let vr = _mm256_loadu_ps(rp.add(off));
            let vo = _mm256_loadu_ps(op.add(off));
            _mm256_storeu_ps(op.add(off), _mm256_add_ps(vo, _mm256_mul_ps(va, vr)));
        }
    }
    for i in chunks * 8..n {
        // SAFETY: i < n <= lengths of row and out.
        unsafe { *op.add(i) += a * *rp.add(i) };
    }
}

// ---------------------------------------------------------------------------
// Cosine similarity (GE scoring hot path).
// ---------------------------------------------------------------------------

/// Portable reference arm for [`cosine`]: three parallel 8-lane
/// accumulator sets (dot, |a|², |b|²) reduced in the fixed tree order,
/// then `dot / (sqrt(na)*sqrt(nb))` with a zero-denominator guard.
pub fn cosine_scalar(a: &[f32], b: &[f32]) -> f32 {
    let mut dacc = [0.0f32; 8];
    let mut aacc = [0.0f32; 8];
    let mut bacc = [0.0f32; 8];
    let mut ca = a.chunks_exact(8);
    let mut cb = b.chunks_exact(8);
    for (x, y) in (&mut ca).zip(&mut cb) {
        for l in 0..8 {
            dacc[l] += x[l] * y[l];
            aacc[l] += x[l] * x[l];
            bacc[l] += y[l] * y[l];
        }
    }
    let (mut dt, mut at, mut bt) = (0.0f32, 0.0f32, 0.0f32);
    for (x, y) in ca.remainder().iter().zip(cb.remainder()) {
        dt += x * y;
        at += x * x;
        bt += y * y;
    }
    let dot = fold8(&dacc) + dt;
    let na = fold8(&aacc) + at;
    let nb = fold8(&bacc) + bt;
    let denom = na.sqrt() * nb.sqrt();
    if denom <= f32::EPSILON {
        0.0
    } else {
        dot / denom
    }
}

fn fold8(acc: &[f32; 8]) -> f32 {
    let half = [acc[0] + acc[4], acc[1] + acc[5], acc[2] + acc[6], acc[3] + acc[7]];
    (half[0] + half[1]) + (half[2] + half[3])
}

/// Cosine similarity on the dispatched arm; bitwise equal to
/// [`cosine_scalar`] on every arm.
#[inline]
pub fn cosine(a: &[f32], b: &[f32]) -> f32 {
    match tier() {
        #[cfg(target_arch = "x86_64")]
        SimdTier::Avx2 => {
            // SAFETY: tier() returned Avx2 only after runtime detection.
            unsafe { cosine_avx2(a, b) }
        }
        _ => cosine_scalar(a, b),
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
// SAFETY: caller must ensure AVX2 is available (dispatch via tier()).
unsafe fn cosine_avx2(a: &[f32], b: &[f32]) -> f32 {
    use std::arch::x86_64::*;
    let n = a.len().min(b.len());
    let chunks = n / 8;
    let ap = a.as_ptr();
    let bp = b.as_ptr();
    let mut vd = _mm256_setzero_ps();
    let mut vna = _mm256_setzero_ps();
    let mut vnb = _mm256_setzero_ps();
    for c in 0..chunks {
        // SAFETY: c*8 + 7 < n <= len of both slices.
        let vx = unsafe { _mm256_loadu_ps(ap.add(c * 8)) };
        // SAFETY: as above for b.
        let vy = unsafe { _mm256_loadu_ps(bp.add(c * 8)) };
        vd = _mm256_add_ps(vd, _mm256_mul_ps(vx, vy));
        vna = _mm256_add_ps(vna, _mm256_mul_ps(vx, vx));
        vnb = _mm256_add_ps(vnb, _mm256_mul_ps(vy, vy));
    }
    // Tail sums are accumulated separately and added once, matching the
    // scalar arm's `fold8(acc) + tail` order exactly.
    let (mut dt, mut at, mut bt) = (0.0f32, 0.0f32, 0.0f32);
    for i in chunks * 8..n {
        // SAFETY: i < n <= len of both slices.
        let (x, y) = unsafe { (*ap.add(i), *bp.add(i)) };
        dt += x * y;
        at += x * x;
        bt += y * y;
    }
    // SAFETY: pure register reduction, no memory access.
    let dot = unsafe { reduce8_avx2(vd) } + dt;
    // SAFETY: pure register reduction, no memory access.
    let na = unsafe { reduce8_avx2(vna) } + at;
    // SAFETY: pure register reduction, no memory access.
    let nb = unsafe { reduce8_avx2(vnb) } + bt;
    let denom = na.sqrt() * nb.sqrt();
    if denom <= f32::EPSILON {
        0.0
    } else {
        dot / denom
    }
}

/// Scalar-tree-order horizontal reduction of one 8-lane accumulator.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
// SAFETY: caller must ensure AVX2 is available; pure register math.
unsafe fn reduce8_avx2(vacc: std::arch::x86_64::__m256) -> f32 {
    use std::arch::x86_64::*;
    let lo = _mm256_castps256_ps128(vacc);
    let hi = _mm256_extractf128_ps::<1>(vacc);
    let h = _mm_add_ps(lo, hi);
    let p = _mm_hadd_ps(h, h);
    let s = _mm_hadd_ps(p, p);
    _mm_cvtss_f32(s)
}

// ---------------------------------------------------------------------------
// GELU (tanh form) on a rational tanh: no libm, bitwise across arms.
// ---------------------------------------------------------------------------

/// `sqrt(2/π)`, GELU's tanh-form input scale.
const GELU_C: f32 = 0.797_884_6;
/// GELU's tanh-form cubic coefficient.
const GELU_A: f32 = 0.044_715;
/// `3·GELU_A`, the cubic term's derivative coefficient.
const GELU_3A: f32 = 3.0 * GELU_A;
/// The rational tanh below reaches exactly ±1.0 here when evaluated
/// without FMA, so clamping the input keeps the output in [-1, 1].
const TANH_CLAMP: f32 = 7.905_311;
/// Odd numerator `x·P(x²)` of Eigen's float rational tanh, highest
/// power first (Horner order).
const TANH_P: [f32; 7] = [
    -2.760_768_5e-16,
    2.000_188e-13,
    -8.604_672e-11,
    5.122_297e-8,
    1.485_722_4e-5,
    6.372_619_3e-4,
    4.893_524_6e-3,
];
/// Even denominator `Q(x²)`, highest power first.
const TANH_Q: [f32; 4] = [1.198_258_4e-6, 1.185_347_1e-4, 2.268_434_6e-3, 4.893_525e-3];

/// `tanh(x)` as `x·P(x²)/Q(x²)` on `x` clamped to ±[`TANH_CLAMP`]; max
/// abs error 4.7e-7 against f64 `tanh` over every float in [-12, 12].
/// The clamp selects are written as `minps`/`maxps` compute them
/// (`a < b ? a : b`), so NaN propagates and ±0 keeps its sign exactly
/// as in [`gelu_tanh_avx2`].
#[inline]
fn tanh_rational(x: f32) -> f32 {
    let x = if TANH_CLAMP < x { TANH_CLAMP } else { x };
    let x = if -TANH_CLAMP > x { -TANH_CLAMP } else { x };
    let x2 = x * x;
    let mut p = TANH_P[0];
    for &c in &TANH_P[1..] {
        p = p * x2 + c;
    }
    let mut q = TANH_Q[0];
    for &c in &TANH_Q[1..] {
        q = q * x2 + c;
    }
    (x * p) / q
}

/// `tanh(√(2/π)·(x + 0.044715·x³))`, the inner term of GELU.
#[inline]
fn gelu_tanh(x: f32) -> f32 {
    tanh_rational(GELU_C * (x + GELU_A * x * x * x))
}

#[inline]
fn gelu_one(x: f32) -> f32 {
    0.5 * x * (1.0 + gelu_tanh(x))
}

#[inline]
fn gelu_grad_one(x: f32, g: f32) -> f32 {
    let t = gelu_tanh(x);
    g * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * GELU_C * (1.0 + GELU_3A * x * x))
}

/// GELU (tanh form) of every element, `out[i] = gelu(x[i])`, on the
/// dispatched arm. Bitwise equal to [`gelu_scalar`] on every arm.
pub fn gelu(x: &[f32], out: &mut [f32]) {
    assert_eq!(x.len(), out.len(), "gelu length mismatch");
    match tier() {
        #[cfg(target_arch = "x86_64")]
        SimdTier::Avx2 => {
            // SAFETY: tier() returned Avx2 only after runtime detection.
            unsafe { gelu_avx2(x, out) }
        }
        _ => gelu_scalar(x, out),
    }
}

/// Portable reference arm for [`gelu`].
pub fn gelu_scalar(x: &[f32], out: &mut [f32]) {
    for (o, &v) in out.iter_mut().zip(x) {
        *o = gelu_one(v);
    }
}

/// GELU's backward rule, `out[i] = g[i]·gelu'(x[i])`, on the dispatched
/// arm. Bitwise equal to [`gelu_backward_scalar`] on every arm.
pub fn gelu_backward(x: &[f32], g: &[f32], out: &mut [f32]) {
    assert!(x.len() == g.len() && x.len() == out.len(), "gelu_backward length mismatch");
    match tier() {
        #[cfg(target_arch = "x86_64")]
        SimdTier::Avx2 => {
            // SAFETY: tier() returned Avx2 only after runtime detection.
            unsafe { gelu_backward_avx2(x, g, out) }
        }
        _ => gelu_backward_scalar(x, g, out),
    }
}

/// Portable reference arm for [`gelu_backward`].
pub fn gelu_backward_scalar(x: &[f32], g: &[f32], out: &mut [f32]) {
    for ((o, &v), &gv) in out.iter_mut().zip(x).zip(g) {
        *o = gelu_grad_one(v, gv);
    }
}

/// Eight lanes of [`gelu_tanh`]: the same operations in the same order,
/// separate multiply and add (no FMA), and `minps`/`maxps` with the
/// clamp as first operand so a NaN lane stays NaN.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
// SAFETY: caller must ensure AVX2 is available; pure register math.
unsafe fn gelu_tanh_avx2(x: std::arch::x86_64::__m256) -> std::arch::x86_64::__m256 {
    use std::arch::x86_64::*;
    let x3 = _mm256_mul_ps(_mm256_mul_ps(_mm256_mul_ps(_mm256_set1_ps(GELU_A), x), x), x);
    let u = _mm256_mul_ps(_mm256_set1_ps(GELU_C), _mm256_add_ps(x, x3));
    let u = _mm256_min_ps(_mm256_set1_ps(TANH_CLAMP), u);
    let u = _mm256_max_ps(_mm256_set1_ps(-TANH_CLAMP), u);
    let u2 = _mm256_mul_ps(u, u);
    let mut p = _mm256_set1_ps(TANH_P[0]);
    for &c in &TANH_P[1..] {
        p = _mm256_add_ps(_mm256_mul_ps(p, u2), _mm256_set1_ps(c));
    }
    let mut q = _mm256_set1_ps(TANH_Q[0]);
    for &c in &TANH_Q[1..] {
        q = _mm256_add_ps(_mm256_mul_ps(q, u2), _mm256_set1_ps(c));
    }
    _mm256_div_ps(_mm256_mul_ps(u, p), q)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
// SAFETY: caller must ensure AVX2 is available and x.len() == out.len().
unsafe fn gelu_avx2(x: &[f32], out: &mut [f32]) {
    use std::arch::x86_64::*;
    let chunks = x.len() / 8;
    let xp = x.as_ptr();
    let op = out.as_mut_ptr();
    let half = _mm256_set1_ps(0.5);
    let one = _mm256_set1_ps(1.0);
    for c in 0..chunks {
        let off = c * 8;
        // SAFETY: AVX2 is enabled in this context; off + 7 < chunks * 8
        // <= len of x and out (equal), so the unaligned loads/stores
        // are fully in bounds; x and out never alias.
        unsafe {
            let v = _mm256_loadu_ps(xp.add(off));
            let t = gelu_tanh_avx2(v);
            let y = _mm256_mul_ps(_mm256_mul_ps(half, v), _mm256_add_ps(one, t));
            _mm256_storeu_ps(op.add(off), y);
        }
    }
    gelu_scalar(&x[chunks * 8..], &mut out[chunks * 8..]);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
// SAFETY: caller must ensure AVX2 is available and x, g, out have equal lengths.
unsafe fn gelu_backward_avx2(x: &[f32], g: &[f32], out: &mut [f32]) {
    use std::arch::x86_64::*;
    let chunks = x.len() / 8;
    let xp = x.as_ptr();
    let gp = g.as_ptr();
    let op = out.as_mut_ptr();
    let half = _mm256_set1_ps(0.5);
    let one = _mm256_set1_ps(1.0);
    for c in 0..chunks {
        let off = c * 8;
        // SAFETY: AVX2 is enabled in this context; off + 7 < chunks * 8
        // <= len of x, g and out (all equal), so the unaligned
        // loads/stores are fully in bounds; out aliases neither input.
        unsafe {
            let v = _mm256_loadu_ps(xp.add(off));
            let gv = _mm256_loadu_ps(gp.add(off));
            let t = gelu_tanh_avx2(v);
            let lhs = _mm256_mul_ps(half, _mm256_add_ps(one, t));
            let sech2 = _mm256_sub_ps(one, _mm256_mul_ps(t, t));
            let cubic =
                _mm256_add_ps(one, _mm256_mul_ps(_mm256_mul_ps(_mm256_set1_ps(GELU_3A), v), v));
            let rhs = _mm256_mul_ps(
                _mm256_mul_ps(_mm256_mul_ps(_mm256_mul_ps(half, v), sech2), _mm256_set1_ps(GELU_C)),
                cubic,
            );
            _mm256_storeu_ps(op.add(off), _mm256_mul_ps(gv, _mm256_add_ps(lhs, rhs)));
        }
    }
    let tail = chunks * 8;
    gelu_backward_scalar(&x[tail..], &g[tail..], &mut out[tail..]);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vecs(n: usize) -> (Vec<f32>, Vec<f32>) {
        let a: Vec<f32> = (0..n).map(|i| ((i * 37 % 19) as f32 - 9.0) * 0.37).collect();
        let b: Vec<f32> = (0..n).map(|i| ((i * 53 % 23) as f32 - 11.0) * 0.21).collect();
        (a, b)
    }

    #[test]
    fn dispatched_dot_matches_scalar_bitwise() {
        for n in [0, 1, 7, 8, 9, 15, 16, 17, 31, 64, 97] {
            let (a, b) = vecs(n);
            assert_eq!(dot(&a, &b).to_bits(), dot_scalar(&a, &b).to_bits(), "n={n}");
        }
    }

    #[test]
    fn dispatched_cosine_matches_scalar_bitwise() {
        for n in [0, 1, 7, 8, 13, 32, 100] {
            let (a, b) = vecs(n);
            assert_eq!(cosine(&a, &b).to_bits(), cosine_scalar(&a, &b).to_bits(), "n={n}");
        }
    }

    #[test]
    fn dispatched_axpy_matches_scalar_bitwise() {
        for n in [0, 1, 7, 8, 9, 33] {
            let (r, _) = vecs(n);
            let mut o1 = vec![0.5f32; n];
            let mut o2 = o1.clone();
            axpy(1.7, &r, &mut o1);
            axpy_scalar(1.7, &r, &mut o2);
            for (x, y) in o1.iter().zip(&o2) {
                assert_eq!(x.to_bits(), y.to_bits(), "n={n}");
            }
        }
    }

    /// Bitwise equality, except that Miri picks NaN payloads freely, so
    /// under Miri two NaNs count as equal.
    fn same_bits(a: f32, b: f32) -> bool {
        a.to_bits() == b.to_bits() || (cfg!(miri) && a.is_nan() && b.is_nan())
    }

    /// `x` where GELU's tanh argument reaches the clamp, by bisection.
    fn clamp_edge() -> f32 {
        let (mut lo, mut hi) = (0.0f32, 8.0f32);
        for _ in 0..64 {
            let mid = 0.5 * (lo + hi);
            if GELU_C * (mid + GELU_A * mid * mid * mid) < TANH_CLAMP {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        hi
    }

    /// Special values, subnormals, ±64 ulps around both clamp edges and
    /// a dense sweep of [-20, 20] (coarser under Miri). The length is
    /// odd, so the AVX2 arm's scalar tail runs too.
    fn gelu_inputs() -> Vec<f32> {
        let mut xs = vec![
            0.0,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            -f32::NAN,
            f32::from_bits(1),
            -f32::from_bits(1),
            f32::MIN_POSITIVE / 2.0,
            -f32::MIN_POSITIVE / 2.0,
            f32::MAX,
            f32::MIN,
        ];
        let edge = clamp_edge();
        for e in [edge, -edge] {
            for d in -64i32..=64 {
                xs.push(f32::from_bits(e.to_bits().wrapping_add_signed(d)));
            }
        }
        let step = if cfg!(miri) { 0.37 } else { 1e-3 };
        let mut x = -20.0f32;
        while x <= 20.0 {
            xs.push(x);
            x += step;
        }
        if xs.len() % 2 == 0 {
            xs.push(1.5);
        }
        xs
    }

    #[test]
    fn rational_tanh_is_exactly_one_at_the_clamp() {
        assert_eq!(tanh_rational(TANH_CLAMP), 1.0);
        assert_eq!(tanh_rational(-TANH_CLAMP), -1.0);
        assert_eq!(tanh_rational(f32::INFINITY), 1.0);
        assert!(tanh_rational(-0.0).is_sign_negative());
    }

    #[test]
    fn dispatched_gelu_matches_scalar_bitwise() {
        let xs = gelu_inputs();
        let gs: Vec<f32> = (0..xs.len()).map(|i| ((i * 37 % 19) as f32 - 9.0) * 0.37).collect();
        let (mut fast, mut slow) = (vec![0.0f32; xs.len()], vec![0.0f32; xs.len()]);
        gelu(&xs, &mut fast);
        gelu_scalar(&xs, &mut slow);
        for ((x, a), b) in xs.iter().zip(&fast).zip(&slow) {
            assert!(same_bits(*a, *b), "gelu({x:e}): {a:e} vs {b:e}");
        }
        gelu_backward(&xs, &gs, &mut fast);
        gelu_backward_scalar(&xs, &gs, &mut slow);
        for ((x, a), b) in xs.iter().zip(&fast).zip(&slow) {
            assert!(same_bits(*a, *b), "gelu'({x:e}): {a:e} vs {b:e}");
        }
    }

    /// The stated accuracy: |Δ| ≤ 1.5e-6 for GELU and ≤ 6e-6 for its
    /// derivative against the same tanh form in f64, over [-20, 20].
    /// The errors peak (≈1.1e-6 and ≈4.5e-6) with the tanh argument
    /// between 6 and 7.2; beyond the clamp tanh is exactly ±1.
    #[test]
    fn simd_gelu_error_against_f64_is_bounded() {
        let c = (2.0f64 / std::f64::consts::PI).sqrt();
        let tanh_arg = |x: f64| c * (x + 0.044_715 * x * x * x);
        for x in gelu_inputs().into_iter().filter(|x| x.abs() <= 20.0) {
            let xd = x as f64;
            let t = tanh_arg(xd).tanh();
            let want = 0.5 * xd * (1.0 + t);
            let want_grad =
                0.5 * (1.0 + t) + 0.5 * xd * (1.0 - t * t) * c * (1.0 + 0.134_145 * xd * xd);
            let (mut y, mut dy) = ([0.0f32], [0.0f32]);
            gelu(&[x], &mut y);
            gelu_backward(&[x], &[1.0], &mut dy);
            assert!((y[0] as f64 - want).abs() <= 1.5e-6, "gelu({x}) = {} vs {want}", y[0]);
            assert!(
                (dy[0] as f64 - want_grad).abs() <= 6e-6,
                "gelu'({x}) = {} vs {want_grad}",
                dy[0]
            );
        }
    }

    #[test]
    fn row_times_rows_matches_scalar_bitwise() {
        for (k, nj) in [(1, 1), (7, 3), (8, 4), (13, 5), (32, 9), (67, 11)] {
            let (a, _) = vecs(k);
            let bt: Vec<f32> = (0..k * nj).map(|i| ((i * 41 % 29) as f32 - 14.0) * 0.13).collect();
            let mut out = vec![0.0f32; nj];
            row_times_rows(&a, &bt, k, &mut out);
            for j in 0..nj {
                let want = dot_scalar(&a, &bt[j * k..j * k + k]);
                assert_eq!(out[j].to_bits(), want.to_bits(), "k={k} j={j}");
            }
        }
    }
}
