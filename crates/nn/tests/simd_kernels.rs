//! Differential battery for the runtime-dispatched SIMD kernels.
//!
//! The contract under test (DESIGN.md §16): every dispatch arm of the f32
//! kernels — AVX2 and the 8-lane-unrolled scalar fallback — is
//! **bitwise equivalent**, so forcing the fallback on a SIMD host must
//! reproduce the exact same bytes, on shapes chosen to stress the
//! remainder handling (primes, degenerate rows, and lengths that are not
//! a multiple of the 8-wide vector).
//!
//! Tier forcing is process-global, so every test serialises on one mutex
//! and restores detection before releasing it.

use explainti_nn::simd::{self, SimdTier};
use explainti_nn::Tensor;
use std::sync::{Mutex, MutexGuard};

/// Serialises tier-mutating tests; the guard re-detects on drop so a
/// panicking test cannot leak a forced tier into the next one.
static TIER_LOCK: Mutex<()> = Mutex::new(());

struct TierGuard(#[allow(dead_code)] MutexGuard<'static, ()>);

impl TierGuard {
    fn lock() -> Self {
        let guard = TIER_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        simd::reset_tier();
        Self(guard)
    }
}

impl Drop for TierGuard {
    fn drop(&mut self) {
        simd::reset_tier();
    }
}

/// Deterministic pseudo-random f32 in roughly [-1, 1): splitmix over the
/// flat index, so every shape gets a fixed but unstructured matrix.
fn val(seed: u64, i: usize) -> f32 {
    let mut z = seed.wrapping_add(i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    ((z >> 40) as f32 / 8_388_608.0) - 1.0
}

fn tensor(seed: u64, rows: usize, cols: usize) -> Tensor {
    Tensor::from_vec(rows, cols, (0..rows * cols).map(|i| val(seed, i)).collect())
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// Shapes `(m, k, n)` covering the dispatch seams: degenerate (1×1×1,
/// empty-n), below the packing cutoff, prime everything, exact multiples
/// of 8, and just-off multiples that force every tail path.
const SHAPES: &[(usize, usize, usize)] = &[
    (1, 1, 1),
    (2, 3, 5),
    (7, 13, 11),
    (8, 8, 8),
    (8, 16, 0),
    (16, 31, 7),
    (17, 96, 29),
    (32, 64, 33),
    (61, 127, 37),
];

/// The SIMD tier the host would pick with no overrides. On a machine
/// without AVX2 this is `Scalar` and the battery degenerates to a
/// self-comparison, which is still a valid (if weak) run.
fn detected() -> SimdTier {
    simd::reset_tier();
    simd::tier()
}

fn with_tier<R>(t: SimdTier, f: impl FnOnce() -> R) -> R {
    simd::force_tier(t);
    let r = f();
    simd::reset_tier();
    r
}

#[test]
fn matmul_simd_is_bitwise_equal_to_forced_scalar() {
    let _guard = TierGuard::lock();
    let native = detected();
    for &(m, k, n) in SHAPES {
        let a = tensor(11, m, k);
        let b = tensor(23, k, n);
        let fast = with_tier(native, || a.matmul(&b));
        let slow = with_tier(SimdTier::Scalar, || a.matmul(&b));
        assert_eq!(bits(&fast), bits(&slow), "matmul({m}x{k} · {k}x{n}) differs across tiers");
    }
}

#[test]
fn matmul_tn_simd_is_bitwise_equal_to_forced_scalar() {
    let _guard = TierGuard::lock();
    let native = detected();
    for &(m, k, n) in SHAPES {
        // tn computes selfᵀ·other: self is k×m, other k×n.
        let a = tensor(31, k, m);
        let b = tensor(43, k, n);
        let fast = with_tier(native, || a.matmul_tn(&b));
        let slow = with_tier(SimdTier::Scalar, || a.matmul_tn(&b));
        assert_eq!(bits(&fast), bits(&slow), "matmul_tn({k}x{m} ᵀ· {k}x{n}) differs across tiers");
    }
}

#[test]
fn matmul_nt_simd_is_bitwise_equal_to_forced_scalar() {
    let _guard = TierGuard::lock();
    let native = detected();
    for &(m, k, n) in SHAPES {
        // nt computes self·otherᵀ: self is m×k, other n×k.
        let a = tensor(53, m, k);
        let b = tensor(67, n, k);
        let fast = with_tier(native, || a.matmul_nt(&b));
        let slow = with_tier(SimdTier::Scalar, || a.matmul_nt(&b));
        assert_eq!(bits(&fast), bits(&slow), "matmul_nt({m}x{k} ·ᵀ {n}x{k}) differs across tiers");
    }
}

#[test]
fn large_kernels_are_bitwise_stable_across_tiers() {
    let _guard = TierGuard::lock();
    let native = detected();
    // Large enough that every kernel runs its packed, paired-row path
    // over many SIMD blocks.
    let (m, k, n) = (96, 80, 72);
    let a = tensor(71, m, k);
    let b = tensor(73, k, n);
    let bt = tensor(73, n, k);
    let at = tensor(71, k, m);
    let run = |tier| {
        with_tier(tier, || (bits(&a.matmul(&b)), bits(&at.matmul_tn(&b)), bits(&a.matmul_nt(&bt))))
    };
    assert_eq!(run(native), run(SimdTier::Scalar), "kernel bytes changed at tier {native:?}");
}

#[test]
fn cosine_simd_is_bitwise_equal_to_forced_scalar() {
    let _guard = TierGuard::lock();
    let native = detected();
    for len in [1usize, 3, 7, 8, 9, 16, 31, 64, 127] {
        let a = tensor(83, 1, len);
        let b = tensor(97, 1, len);
        let fast = with_tier(native, || a.cosine(&b));
        let slow = with_tier(SimdTier::Scalar, || a.cosine(&b));
        assert_eq!(fast.to_bits(), slow.to_bits(), "cosine(len {len}) differs across tiers");
    }
}

#[test]
fn forced_fallback_arm_matches_packed_scalar_reference() {
    // The forced-fallback dispatch arm (`EXPLAINTI_NO_SIMD=1` routes here
    // too) must agree with the direct scalar kernels — i.e. forcing the
    // tier changes *which code runs*, never *what it computes*.
    let _guard = TierGuard::lock();
    let (m, k, n) = (17, 41, 13);
    let a = tensor(101, m, k);
    let b = tensor(103, k, n);
    let bt = tensor(103, n, k);
    let forced = with_tier(SimdTier::Scalar, || (a.matmul(&b), a.matmul_nt(&bt)));
    // Element-by-element reference straight off `dot_scalar`, the same
    // packed-panel order the kernels use.
    for i in 0..m {
        let a_row = &a.as_slice()[i * k..(i + 1) * k];
        for j in 0..n {
            let col: Vec<f32> = (0..k).map(|x| b.as_slice()[x * n + j]).collect();
            let want = simd::dot_scalar(a_row, &col);
            assert_eq!(
                forced.0.as_slice()[i * n + j].to_bits(),
                want.to_bits(),
                "forced-scalar matmul[{i},{j}] disagrees with dot_scalar"
            );
            let bt_row = &bt.as_slice()[j * k..(j + 1) * k];
            let want_nt = simd::dot_scalar(a_row, bt_row);
            assert_eq!(
                forced.1.as_slice()[i * n + j].to_bits(),
                want_nt.to_bits(),
                "forced-scalar matmul_nt[{i},{j}] disagrees with dot_scalar"
            );
        }
    }
}
