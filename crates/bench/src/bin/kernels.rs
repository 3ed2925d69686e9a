//! Kernel microbench — times three matmul arms per shape (naive,
//! forced-scalar packed, runtime-dispatched SIMD), the GELU kernel over
//! one feed-forward block (libm-`tanh` reference, dispatched, forced
//! scalar), the batched CLS-embedding path (the store refresh, one of
//! the `--threads` fan-outs) at 1 thread vs N threads and GE retrieval
//! (the embedding store's exact top-k scan), writes `BENCH_kernels.json`,
//! and **exits non-zero** when
//!
//! - the N-thread `embed_cls_batch` diverges bytewise from the
//!   1-thread one,
//! - the SIMD arm's bytes differ from the forced-scalar fallback's
//!   (they are designed bitwise-equal — divergence is a kernel bug), for
//!   a matmul or for GELU,
//! - the store's top-k differs in bits from a full sort of every
//!   similarity, or
//! - the host dispatches AVX2 but the median `simd_speedup`
//!   (forced-scalar time over SIMD time) lands under 1.2× on the two
//!   largest shapes.
//!
//! Every arm runs once in each of [`ROUNDS`] interleaved rounds (every
//! arm of round r before any arm of round r + 1), so a slow spell on a
//! shared host spreads over all arms instead of landing on one. Each
//! timing and speedup is recorded as `{median, q1, q3}` over the rounds,
//! and the bitwise checks run in every round. The quartiles come from
//! rounds inside one process, so they say nothing about how fast the
//! host is from one run to the next: comparing two commits on
//! `BENCH_kernels.json` needs alternating runs of both binaries, as
//! e2ebench's pairs do.
//!
//! The first three matmul shapes are the encoder's own products (seq 32,
//! d 32, d_ff 64) and carry no speedup floor; GELU records its max
//! |Δ| to the libm reference. Retrieval records each round's per-query
//! p50, with no speed floor.
//!
//! The JSON records which dispatch tier (`avx2`/`scalar`)
//! actually ran, so a flat speedup on a scalar-only container is
//! interpretable from the artifact alone rather than alarming. When the
//! machine has fewer cores than N, the embedding arm's thread-scaling
//! fields (`speedup`, `thread_efficiency`) are recorded as `"skipped"`:
//! an oversubscribed split measures contention, not scaling. Its
//! bitwise N-thread == 1-thread check runs regardless and is recorded
//! as `embed_cls_batch.matches_serial`; `all_checks_passed` is false
//! when any of the checks above failed.

use explainti_bench::{write_json, MAX_SEQ, VOCAB_CAP};
use explainti_core::{build_tokenizer, EmbeddingStore, Neighbor, TaskData};
use explainti_corpus::{generate_wiki, WikiConfig};
use explainti_encoder::{EncoderConfig, TransformerEncoder};
use explainti_nn::simd::{self, SimdTier};
use explainti_nn::{ParamStore, Tensor};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde_json::{json, Value};
use std::time::Instant;

/// The forced-scalar / SIMD speedup floor enforced on AVX2 hosts, on
/// the gate shapes (the two largest), against the median over rounds.
const SIMD_SPEEDUP_FLOOR: f64 = 1.2;

/// Interleaved rounds per arm; every recorded figure is a median with
/// its quartiles over these.
const ROUNDS: usize = 5;

/// `(m, k, n)` matmul shapes: the encoder's own products (Q/K/V/O,
/// FF expansion, FF projection at seq 32), then three larger shapes.
const SHAPES: [(usize, usize, usize); 6] =
    [(32, 32, 32), (32, 32, 64), (32, 64, 32), (96, 128, 96), (192, 256, 192), (384, 256, 384)];
/// The last `GATE_SHAPES` entries of [`SHAPES`] carry the AVX2 speedup
/// floor.
const GATE_SHAPES: usize = 2;
/// The GELU block: one sequence's feed-forward expansion (seq × d_ff).
const GELU_BLOCK: (usize, usize) = (32, 64);
/// GE retrieval store sizes: the served type store (1,209 training
/// samples), then a store well past it.
const RETRIEVAL_SIZES: [usize; 2] = [1_209, 20_000];
/// GE retrieval: embedding width (the encoder's d), top-k and queries.
const RETRIEVAL_DIM: usize = 32;
const RETRIEVAL_K: usize = 10;
const RETRIEVAL_QUERIES: usize = 200;

/// Best-of-`reps` wall time in milliseconds.
fn time_ms<R>(reps: usize, mut f: impl FnMut() -> R) -> (f64, R) {
    let mut best = f64::INFINITY;
    let mut last = None;
    for _ in 0..reps {
        let t = Instant::now();
        last = Some(f());
        best = best.min(t.elapsed().as_secs_f64() * 1e3);
    }
    (best, last.expect("reps >= 1"))
}

fn random_tensor(rows: usize, cols: usize, rng: &mut SmallRng) -> Tensor {
    Tensor::from_vec(rows, cols, (0..rows * cols).map(|_| rng.gen_range(-1.0f32..1.0)).collect())
}

fn bits_equal(a: &Tensor, b: &Tensor) -> bool {
    a.as_slice().iter().zip(b.as_slice()).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// The `p`-quantile of `values` (nearest rank).
fn quantile(values: &[f64], p: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v[((v.len() - 1) as f64 * p).round() as usize]
}

/// `{median, q1, q3}` of one figure's per-round values.
fn spread(values: &[f64]) -> Value {
    json!({
        "median": quantile(values, 0.5),
        "q1": quantile(values, 0.25),
        "q3": quantile(values, 0.75),
    })
}

/// Element-wise `a / b` of two per-round series.
fn ratios(a: &[f64], b: &[f64]) -> Vec<f64> {
    a.iter().zip(b).map(|(x, y)| x / y).collect()
}

/// The full-sort reference for the store's top-k: every similarity,
/// ordered similarity descending, then id ascending, truncated to `k`.
fn full_sort(vectors: &[Vec<f32>], query: &[f32], k: usize) -> Vec<(usize, u32)> {
    let mut all: Vec<Neighbor> = vectors
        .iter()
        .enumerate()
        .map(|(id, v)| Neighbor { id, similarity: simd::cosine(query, v) })
        .collect();
    all.sort_by(|a, b| {
        b.similarity
            .partial_cmp(&a.similarity)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.id.cmp(&b.id))
    });
    all.truncate(k);
    bits(&all)
}

/// Each neighbour's id and similarity bits, for bitwise comparison.
fn bits(v: &[Neighbor]) -> Vec<(usize, u32)> {
    v.iter().map(|nb| (nb.id, nb.similarity.to_bits())).collect()
}

/// One matmul shape: its inputs and per-round best-of-`reps` times.
struct MatmulArm {
    shape: (usize, usize, usize),
    a: Tensor,
    b: Tensor,
    reps: usize,
    naive_ms: Vec<f64>,
    scalar_ms: Vec<f64>,
    simd_ms: Vec<f64>,
}

/// One retrieval store size: the store, its queries, each query's
/// full-sort answer and the per-round per-query p50s.
struct RetrievalArm {
    n: usize,
    store: EmbeddingStore,
    queries: Vec<Tensor>,
    want: Vec<Vec<(usize, u32)>>,
    p50_us: Vec<f64>,
    exact: bool,
}

fn main() {
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    // Run the width CI cares about even on narrower machines, so the
    // bitwise parallel == serial check always sees a multi-thread split;
    // the scaling numbers are only reported when the cores exist.
    let par_threads = cores.max(4);
    let scaling = |x: Value| if cores >= par_threads { x } else { json!("skipped") };
    simd::reset_tier();
    let tier = simd::tier();
    println!(
        "kernel microbench — dispatch tier {} — 1 thread vs {par_threads} ({cores} cores), \
         {ROUNDS} rounds",
        tier.name()
    );

    let mut rng = SmallRng::seed_from_u64(0xbe9c);
    let mut failed = false;
    let mut embed_matches_serial = true;

    // -- Inputs, drawn once and shared by every round -----------------------
    // Several matmul shapes so a flat speedup is diagnosable from the
    // artifact alone: ns/flop separates "kernel got slower" from "problem
    // too small to amortise dispatch".
    let mut matmul: Vec<MatmulArm> = SHAPES
        .iter()
        .map(|&(m, k, n)| MatmulArm {
            shape: (m, k, n),
            a: random_tensor(m, k, &mut rng),
            b: random_tensor(k, n, &mut rng),
            // Small products repeat more so best-of stays above timer noise.
            reps: (50_000_000 / (m * k * n)).clamp(5, 2000),
            naive_ms: Vec::new(),
            scalar_ms: Vec::new(),
            simd_ms: Vec::new(),
        })
        .collect();

    let (gr, gc) = GELU_BLOCK;
    let mut x4 = random_tensor(gr, gc, &mut rng);
    x4.scale_assign(4.0);
    let xs = x4.as_slice();
    let values = xs.len();
    let mut out = vec![0.0f32; values];
    // Per-round ms: libm reference, forced scalar, dispatched.
    let mut gelu_ms: [Vec<f64>; 3] = Default::default();
    let mut gelu_bitwise = true;
    let mut gelu_max_diff = 0.0f32;

    let dataset = generate_wiki(&WikiConfig { num_tables: 60, seed: 777, ..Default::default() });
    let tokenizer = build_tokenizer(&dataset, VOCAB_CAP);
    let cfg = EncoderConfig::bert_like(tokenizer.vocab_size(), MAX_SEQ);
    let mut store = ParamStore::new();
    let encoder = TransformerEncoder::new(&mut store, cfg, &mut rng);
    let type_data = TaskData::prepare_type(&dataset, &tokenizer, MAX_SEQ, false);
    let encs: Vec<_> = type_data.samples.iter().take(48).map(|s| s.encoded.clone()).collect();
    let batch = encs.len();
    // Per-round ms: 1 thread, N threads.
    let mut embed_ms: [Vec<f64>; 2] = Default::default();

    let mut retrieval: Vec<RetrievalArm> = RETRIEVAL_SIZES
        .iter()
        .map(|&n| {
            let mut vector = || -> Vec<f32> {
                (0..RETRIEVAL_DIM).map(|_| rng.gen_range(-1.0f32..1.0)).collect()
            };
            let vectors: Vec<Vec<f32>> = (0..n).map(|_| vector()).collect();
            let queries: Vec<Vec<f32>> = (0..RETRIEVAL_QUERIES).map(|_| vector()).collect();
            let mut store = EmbeddingStore::new(RETRIEVAL_DIM);
            for (id, v) in vectors.iter().enumerate() {
                store.set(id, v, 0);
            }
            let want = queries.iter().map(|q| full_sort(&vectors, q, RETRIEVAL_K)).collect();
            let queries = queries.into_iter().map(Tensor::row).collect();
            RetrievalArm { n, store, queries, want, p50_us: Vec::new(), exact: true }
        })
        .collect();

    for round in 1..=ROUNDS {
        // -- Matmul arms --------------------------------------------------
        for arm in &mut matmul {
            let (m, k, n) = arm.shape;
            let (a, b) = (&arm.a, &arm.b);
            let (naive_ms, reference) = time_ms(arm.reps, || a.matmul_naive(b));
            simd::force_tier(SimdTier::Scalar);
            let (scalar_ms, scalar_out) = time_ms(arm.reps, || a.matmul(b));
            simd::force_tier(tier);
            let (simd_ms, simd_out) = time_ms(arm.reps, || a.matmul(b));
            simd::reset_tier();

            if !bits_equal(&simd_out, &scalar_out) {
                eprintln!(
                    "FAIL: round {round}: {} matmul {m}x{k}x{n} is not bitwise-equal to the \
                     scalar fallback",
                    tier.name()
                );
                failed = true;
            }
            let worst_err = simd_out
                .as_slice()
                .iter()
                .zip(reference.as_slice())
                .map(|(x, y)| (x - y).abs())
                .fold(0.0f32, f32::max);
            if worst_err > 1e-3 {
                eprintln!("FAIL: packed matmul drifts from the naive reference by {worst_err}");
                failed = true;
            }
            arm.naive_ms.push(naive_ms);
            arm.scalar_ms.push(scalar_ms);
            arm.simd_ms.push(simd_ms);
        }

        // -- GELU over one feed-forward block -------------------------------
        let (libm_ms, reference) = time_ms(2000, || {
            xs.iter()
                .map(|&v| 0.5 * v * (1.0 + (0.797_884_6f32 * (v + 0.044_715 * v * v * v)).tanh()))
                .collect::<Vec<f32>>()
        });
        simd::force_tier(SimdTier::Scalar);
        let (scalar_ms, gelu_scalar) = time_ms(2000, || {
            simd::gelu(xs, &mut out);
            out.clone()
        });
        simd::force_tier(tier);
        let (simd_ms, gelu_simd) = time_ms(2000, || {
            simd::gelu(xs, &mut out);
            out.clone()
        });
        simd::reset_tier();
        if !gelu_simd.iter().zip(&gelu_scalar).all(|(a, b)| a.to_bits() == b.to_bits()) {
            eprintln!(
                "FAIL: round {round}: {} gelu is not bitwise-equal to the scalar fallback",
                tier.name()
            );
            gelu_bitwise = false;
            failed = true;
        }
        gelu_max_diff = gelu_simd
            .iter()
            .zip(&reference)
            .map(|(a, b)| (a - b).abs())
            .fold(gelu_max_diff, f32::max);
        for (series, ms) in gelu_ms.iter_mut().zip([libm_ms, scalar_ms, simd_ms]) {
            series.push(ms);
        }

        // -- Batched CLS embedding (the store refresh) ----------------------
        explainti_pool::configure(1);
        let (serial_ms, embeds_serial) = time_ms(3, || encoder.embed_cls_batch(&store, &encs));
        explainti_pool::configure(par_threads);
        let (parallel_ms, embeds_parallel) = time_ms(3, || encoder.embed_cls_batch(&store, &encs));
        explainti_pool::configure(explainti_pool::Threads::resolve(None).threads());
        if embeds_serial != embeds_parallel {
            eprintln!("FAIL: round {round}: parallel embed_cls_batch diverges from serial");
            embed_matches_serial = false;
            failed = true;
        }
        embed_ms[0].push(serial_ms);
        embed_ms[1].push(parallel_ms);

        // -- GE retrieval: the store's exact scan ---------------------------
        for arm in &mut retrieval {
            let mut secs = Vec::with_capacity(arm.queries.len());
            let mut exact = true;
            for (query, want) in arm.queries.iter().zip(&arm.want) {
                let t = Instant::now();
                let got = std::hint::black_box(arm.store.top_k(query, RETRIEVAL_K, None));
                secs.push(t.elapsed().as_secs_f64());
                exact &= bits(&got) == *want;
            }
            if !exact {
                eprintln!(
                    "FAIL: round {round}: store top_k at n={} differs in bits from a full sort",
                    arm.n
                );
                arm.exact = false;
                failed = true;
            }
            arm.p50_us.push(quantile(&secs, 0.5) * 1e6);
        }
    }

    // -- Summaries over the rounds ------------------------------------------
    let median = |v: &[f64]| quantile(v, 0.5);
    let mut matmul_shapes = Vec::new();
    for (which, arm) in matmul.iter().enumerate() {
        let (m, k, n) = arm.shape;
        let flops = 2.0 * m as f64 * k as f64 * n as f64;
        let simd_speedup = ratios(&arm.scalar_ms, &arm.simd_ms);
        let naive_speedup = ratios(&arm.naive_ms, &arm.simd_ms);
        let gated = which + GATE_SHAPES >= SHAPES.len();
        if gated && tier == SimdTier::Avx2 && median(&simd_speedup) < SIMD_SPEEDUP_FLOOR {
            eprintln!(
                "FAIL: avx2 median simd_speedup {:.2}x < {SIMD_SPEEDUP_FLOOR}x \
                 on gate shape {m}x{k}x{n}",
                median(&simd_speedup)
            );
            failed = true;
        }
        let us = |v: &[f64]| median(v) * 1e3;
        println!(
            "matmul {m}x{k}x{n}:  naive {:.1} µs | scalar {:.1} µs | {} {:.1} µs | \
             simd {:.2}x | vs-naive {:.2}x",
            us(&arm.naive_ms),
            us(&arm.scalar_ms),
            tier.name(),
            us(&arm.simd_ms),
            median(&simd_speedup),
            median(&naive_speedup),
        );
        let ns_per_flop = |v: &[f64]| median(v) * 1e6 / flops;
        matmul_shapes.push(json!({
            "shape": json!([m, k, n]),
            "flops": flops,
            "dispatch_tier": tier.name(),
            "naive_ms": spread(&arm.naive_ms),
            "scalar_serial_ms": spread(&arm.scalar_ms),
            "simd_serial_ms": spread(&arm.simd_ms),
            "ns_per_flop_naive": ns_per_flop(&arm.naive_ms),
            "ns_per_flop_scalar": ns_per_flop(&arm.scalar_ms),
            "ns_per_flop_simd": ns_per_flop(&arm.simd_ms),
            "simd_speedup": spread(&simd_speedup),
            "simd_speedup_vs_naive": spread(&naive_speedup),
            "speedup_gated": gated,
        }));
    }

    let ns_per_value: Vec<Vec<f64>> = gelu_ms
        .iter()
        .map(|series| series.iter().map(|ms| ms * 1e6 / values as f64).collect())
        .collect();
    println!(
        "gelu {gr}x{gc} on [-4, 4):  libm tanh {:.2} ns/value | scalar {:.2} | {} {:.2} | \
         max |Δ| vs libm {gelu_max_diff:.2e}",
        median(&ns_per_value[0]),
        median(&ns_per_value[1]),
        tier.name(),
        median(&ns_per_value[2])
    );

    let embed_speedup = ratios(&embed_ms[0], &embed_ms[1]);
    let embed_efficiency: Vec<f64> = embed_speedup.iter().map(|s| s / par_threads as f64).collect();
    println!(
        "embed_cls_batch x{batch}:  1 thread {:.2} ms | {par_threads} threads {:.2} ms | \
         speedup {:.2}x",
        median(&embed_ms[0]),
        median(&embed_ms[1]),
        median(&embed_speedup)
    );

    let retrieval: Vec<Value> = retrieval
        .iter()
        .map(|arm| {
            println!(
                "retrieval n={} d={RETRIEVAL_DIM} k={RETRIEVAL_K}:  p50 {:.1} µs \
                 [{:.1}–{:.1}] | full-sort bits {}",
                arm.n,
                median(&arm.p50_us),
                quantile(&arm.p50_us, 0.25),
                quantile(&arm.p50_us, 0.75),
                if arm.exact { "equal" } else { "DIFFER" }
            );
            json!({
                "n": arm.n,
                "dim": RETRIEVAL_DIM,
                "k": RETRIEVAL_K,
                "queries": RETRIEVAL_QUERIES,
                "us_p50": spread(&arm.p50_us),
                "matches_full_sort": arm.exact,
            })
        })
        .collect();

    let summary = json!({
        "available_parallelism": cores,
        "threads_parallel": par_threads,
        "dispatch_tier": tier.name(),
        "rounds": ROUNDS,
        "simd_speedup_floor": SIMD_SPEEDUP_FLOOR,
        "matmul": json!(matmul_shapes),
        "gelu": json!({
            "block": [gr, gc],
            "input_range": [-4.0, 4.0],
            "libm_ns_per_value": spread(&ns_per_value[0]),
            "scalar_ns_per_value": spread(&ns_per_value[1]),
            "simd_ns_per_value": spread(&ns_per_value[2]),
            "max_abs_diff_vs_libm": gelu_max_diff,
            "bitwise_equal_to_scalar": gelu_bitwise,
        }),
        "embed_cls_batch": json!({
            "batch": batch,
            "max_seq": MAX_SEQ,
            "serial_ms": spread(&embed_ms[0]),
            "parallel_ms": spread(&embed_ms[1]),
            "speedup": scaling(spread(&embed_speedup)),
            "thread_efficiency": scaling(spread(&embed_efficiency)),
            "matches_serial": embed_matches_serial,
        }),
        "retrieval": json!(retrieval),
        "all_checks_passed": !failed,
    });
    write_json("BENCH_kernels", &summary);

    if failed {
        std::process::exit(1);
    }
}
