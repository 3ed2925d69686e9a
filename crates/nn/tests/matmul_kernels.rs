//! Property tests for the blocked/parallel matmul kernels.
//!
//! Strategy: fill operands with values of the form `m / 64.0` where `m`
//! is an integer in `[-64, 64]`. Every product is then a multiple of
//! 2⁻¹² with magnitude ≤ 1, and every accumulated sum here (≤ 128
//! terms) is exactly representable in f32 — so the blocked kernels, the
//! naive references, and every pool width must produce *exactly* equal
//! results, and the 1e-6 tolerance the issue asks for is trivially met.

use explainti_nn::Tensor;
use explainti_pool::ThreadPool;

/// Deterministic exactly-representable fill (see module docs).
fn fill(rows: usize, cols: usize, seed: u64) -> Tensor {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
    let mut next = || {
        // xorshift64*: cheap, dependency-free, good enough for fills.
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        let m = (state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 57) as i64 - 64;
        m.clamp(-64, 64) as f32 / 64.0
    };
    let data: Vec<f32> = (0..rows * cols).map(|_| next()).collect();
    Tensor::from_vec(rows, cols, data)
}

fn assert_exact_eq(a: &Tensor, b: &Tensor, what: &str) {
    assert_eq!(a.shape(), b.shape(), "{what}: shape mismatch");
    for (i, (x, y)) in a.as_slice().iter().zip(b.as_slice()).enumerate() {
        assert!(x.to_bits() == y.to_bits(), "{what}: element {i} differs: {x} vs {y}");
    }
}

/// Reference `A·Bᵀ`: the single-threaded one-accumulator dot loop the
/// blocked kernel replaced (its only use is as this test's ground truth).
fn matmul_nt_naive(a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(a.cols(), b.cols(), "matmul_nt_naive shape mismatch");
    let mut out = Tensor::zeros(a.rows(), b.rows());
    for i in 0..a.rows() {
        for j in 0..b.rows() {
            let mut acc = 0.0;
            for (x, y) in a.row_slice(i).iter().zip(b.row_slice(j)) {
                acc += x * y;
            }
            out.set(i, j, acc);
        }
    }
    out
}

fn assert_close(a: &Tensor, b: &Tensor, tol: f32, what: &str) {
    assert_eq!(a.shape(), b.shape(), "{what}: shape mismatch");
    for (i, (x, y)) in a.as_slice().iter().zip(b.as_slice()).enumerate() {
        assert!((x - y).abs() <= tol, "{what}: element {i}: {x} vs {y}");
    }
}

/// Shapes chosen to stress every code path: the 1×1 degenerate case,
/// prime dimensions that never divide the row block evenly, tall-skinny
/// (rows ≫ cols), wide-flat (cols ≫ rows), the packing gate boundary
/// (8 rows), and a block-boundary straddler (33 > ROW_BLOCK = 32).
const SHAPES: &[(usize, usize, usize)] = &[
    (1, 1, 1),
    (7, 11, 13),
    (97, 3, 101),
    (3, 97, 5),
    (129, 2, 2),
    (2, 2, 129),
    (8, 8, 8),
    (33, 17, 29),
    (64, 64, 64),
];

#[test]
fn blocked_matmul_matches_naive_reference() {
    for &(r, k, n) in SHAPES {
        let a = fill(r, k, 1);
        let b = fill(k, n, 2);
        assert_exact_eq(&a.matmul(&b), &a.matmul_naive(&b), &format!("matmul {r}x{k}x{n}"));
        // The issue's stated bound, in addition to the exact check.
        assert_close(&a.matmul(&b), &a.matmul_naive(&b), 1e-6, &format!("matmul tol {r}x{k}x{n}"));
    }
}

#[test]
fn blocked_matmul_tn_matches_naive_reference() {
    for &(r, k, n) in SHAPES {
        // A is (k x r) so Aᵀ·B is (r x k)ᵀ-shaped like the others.
        let a = fill(k, r, 3);
        let b = fill(k, n, 4);
        assert_exact_eq(
            &a.matmul_tn(&b),
            &a.matmul_tn_naive(&b),
            &format!("matmul_tn {k}x{r}x{n}"),
        );
    }
}

#[test]
fn blocked_matmul_nt_matches_naive_reference() {
    for &(r, k, n) in SHAPES {
        let a = fill(r, k, 5);
        let b = fill(n, k, 6);
        assert_exact_eq(
            &a.matmul_nt(&b),
            &matmul_nt_naive(&a, &b),
            &format!("matmul_nt {r}x{k}x{n}"),
        );
    }
}

#[test]
fn pool_width_never_changes_results() {
    let one = ThreadPool::new(1);
    let four = ThreadPool::new(4);
    for &(r, k, n) in SHAPES {
        let a = fill(r, k, 7);
        let b = fill(k, n, 8);
        assert_exact_eq(
            &a.matmul_in(&b, &one),
            &a.matmul_in(&b, &four),
            &format!("matmul width {r}x{k}x{n}"),
        );
        let bt = fill(n, k, 9);
        assert_exact_eq(
            &a.matmul_nt_in(&bt, &one),
            &a.matmul_nt_in(&bt, &four),
            &format!("matmul_nt width {r}x{k}x{n}"),
        );
        let at = fill(k, r, 10);
        let b2 = fill(k, n, 11);
        assert_exact_eq(
            &at.matmul_tn_in(&b2, &one),
            &at.matmul_tn_in(&b2, &four),
            &format!("matmul_tn width {k}x{r}x{n}"),
        );
    }
}

#[test]
fn explicit_pool_matches_implicit_global_path() {
    // Big enough to clear the parallel-dispatch flop gate (1 << 18),
    // so the implicit path actually exercises the global pool.
    let four = ThreadPool::new(4);
    let a = fill(128, 64, 12);
    let b = fill(64, 64, 13);
    assert_exact_eq(&a.matmul(&b), &a.matmul_in(&b, &four), "global vs explicit");
}

#[test]
fn pool_scope_propagates_panics_instead_of_deadlocking() {
    let pool = ThreadPool::new(4);
    let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        pool.scope(16, |i| {
            if i == 11 {
                panic!("boom from task {i}");
            }
        });
    }));
    let err = caught.expect_err("scope should re-raise the task panic");
    let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
    assert!(msg.contains("boom"), "unexpected payload: {msg:?}");
    // The pool must stay usable after a propagated panic.
    let sum: usize = pool.map(8, |i| i).into_iter().sum();
    assert_eq!(sum, 28);
}
