//! Kernel microbench — times four matmul arms per shape (naive,
//! forced-scalar packed, runtime-dispatched SIMD at 1 thread and at N
//! threads), the GELU kernel over one feed-forward block (libm-`tanh`
//! reference, dispatched, forced scalar), the batched CLS-embedding
//! path at 1 thread vs N threads and GE retrieval (the store's flat
//! exact scan vs an HNSW index), writes `BENCH_kernels.json`, and
//! **exits non-zero** when
//!
//! - the parallel results diverge bytewise from the serial ones,
//! - the SIMD arm's bytes differ from the forced-scalar fallback's
//!   (they are designed bitwise-equal — divergence is a kernel bug), for
//!   a matmul or for GELU,
//! - the store's top-k differs in bits from a full sort of every
//!   similarity, or
//! - the host dispatches AVX2 but `simd_speedup` (forced-scalar time
//!   over SIMD time, serial) lands under 1.2× on the two largest shapes.
//!
//! The first three matmul shapes are the encoder's own products (seq 32,
//! d 32, d_ff 64) and carry no speedup floor; GELU records its max
//! |Δ| to the libm reference. Retrieval records query p50s, the HNSW
//! build time and its recall@k, with no speed floor.
//!
//! The JSON records which dispatch tier (`avx2`/`neon`/`scalar`)
//! actually ran, so a flat speedup on a scalar-only container is
//! interpretable from the artifact alone rather than alarming. When the
//! machine has fewer cores than the N-thread pool, the thread-scaling
//! fields (`parallel_speedup`, `thread_efficiency`, `speedup`) are
//! recorded as `"skipped"`: an oversubscribed pool measures contention,
//! not scaling. The bitwise parallel == serial checks run regardless.

use explainti_ann::{
    recall_at_k, BruteForceIndex, HnswConfig, HnswIndex, Metric, Neighbor, VectorIndex,
};
use explainti_bench::{write_json, MAX_SEQ, VOCAB_CAP};
use explainti_core::{build_tokenizer, EmbeddingStore, TaskData};
use explainti_corpus::{generate_wiki, WikiConfig};
use explainti_encoder::{EncoderConfig, TransformerEncoder};
use explainti_nn::simd::{self, SimdTier};
use explainti_nn::{ParamStore, Tensor};
use explainti_pool::ThreadPool;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde_json::json;
use std::time::Instant;

/// The forced-scalar / SIMD speedup floor enforced on AVX2 hosts, on
/// the gate shapes (the two largest).
const SIMD_SPEEDUP_FLOOR: f64 = 1.2;

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

/// Median of per-query timings, in microseconds.
fn p50_us(mut secs: Vec<f64>) -> f64 {
    secs.sort_by(f64::total_cmp);
    secs[secs.len() / 2] * 1e6
}

fn main() {
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    // Run the width CI cares about even on narrower machines, so the
    // bitwise parallel == serial checks always see a multi-thread pool;
    // the scaling numbers are only reported when the cores exist.
    let par_threads = cores.max(4);
    let scaling = |x: f64| if cores >= par_threads { json!(x) } else { json!("skipped") };
    simd::reset_tier();
    let tier = simd::tier();
    println!(
        "kernel microbench — dispatch tier {} — 1 thread vs {par_threads} ({cores} cores)",
        tier.name()
    );

    let pool1 = ThreadPool::new(1);
    let pool_n = ThreadPool::new(par_threads);
    let mut rng = SmallRng::seed_from_u64(0xbe9c);
    let mut failed = false;

    // -- Matmul arms ------------------------------------------------------
    // Several shapes so a flat speedup is diagnosable from the artifact
    // alone: ns/flop separates "kernel got slower" from "problem too
    // small to amortise fan-out".
    let mut matmul_shapes = Vec::new();
    for (which, &(m, k, n)) in SHAPES.iter().enumerate() {
        let a = random_tensor(m, k, &mut rng);
        let b = random_tensor(k, n, &mut rng);
        // Small products repeat more so best-of stays above timer noise.
        let reps = (50_000_000 / (m * k * n)).clamp(5, 2000);

        let (naive_ms, reference) = time_ms(reps, || a.matmul_naive(&b));
        simd::force_tier(SimdTier::Scalar);
        let (scalar_ms, scalar_out) = time_ms(reps, || a.matmul_in(&b, &pool1));
        simd::force_tier(tier);
        let (simd_ms, serial) = time_ms(reps, || a.matmul_in(&b, &pool1));
        let (parallel_ms, parallel) = time_ms(reps, || a.matmul_in(&b, &pool_n));
        simd::reset_tier();

        if !bits_equal(&serial, &parallel) {
            eprintln!("FAIL: parallel matmul {m}x{k}x{n} diverges from serial");
            failed = true;
        }
        if !bits_equal(&serial, &scalar_out) {
            eprintln!(
                "FAIL: {} matmul {m}x{k}x{n} is not bitwise-equal to the scalar fallback",
                tier.name()
            );
            failed = true;
        }
        let worst_err = serial
            .as_slice()
            .iter()
            .zip(reference.as_slice())
            .map(|(x, y)| (x - y).abs())
            .fold(0.0f32, f32::max);
        if worst_err > 1e-3 {
            eprintln!("FAIL: packed matmul drifts from the naive reference by {worst_err}");
            failed = true;
        }

        let flops = 2.0 * m as f64 * k as f64 * n as f64;
        let simd_speedup = scalar_ms / simd_ms;
        let naive_speedup = naive_ms / simd_ms;
        let par_speedup = simd_ms / parallel_ms;
        let gated = which + GATE_SHAPES >= SHAPES.len();
        if gated && tier == SimdTier::Avx2 && simd_speedup < SIMD_SPEEDUP_FLOOR {
            eprintln!(
                "FAIL: avx2 simd_speedup {simd_speedup:.2}x < {SIMD_SPEEDUP_FLOOR}x \
                 on gate shape {m}x{k}x{n}"
            );
            failed = true;
        }
        let us = |ms: f64| ms * 1e3;
        println!(
            "matmul {m}x{k}x{n}:  naive {:.1} µs | scalar@1 {:.1} µs | {}@1 {:.1} µs | \
             {}@{par_threads} {:.1} µs | simd {simd_speedup:.2}x | vs-naive {naive_speedup:.2}x",
            us(naive_ms),
            us(scalar_ms),
            tier.name(),
            us(simd_ms),
            tier.name(),
            us(parallel_ms)
        );
        matmul_shapes.push(json!({
            "shape": json!([m, k, n]),
            "flops": flops,
            "dispatch_tier": tier.name(),
            "naive_ms": naive_ms,
            "scalar_serial_ms": scalar_ms,
            "simd_serial_ms": simd_ms,
            "simd_parallel_ms": parallel_ms,
            "ns_per_flop_naive": naive_ms * 1e6 / flops,
            "ns_per_flop_scalar": scalar_ms * 1e6 / flops,
            "ns_per_flop_simd": simd_ms * 1e6 / flops,
            "simd_speedup": simd_speedup,
            "simd_speedup_vs_naive": naive_speedup,
            "parallel_speedup": scaling(par_speedup),
            "thread_efficiency": scaling(par_speedup / par_threads as f64),
            "speedup_gated": gated,
        }));
    }

    // -- GELU over one feed-forward block ----------------------------------
    let (gr, gc) = GELU_BLOCK;
    let x = random_tensor(gr, gc, &mut rng);
    let mut x4 = x.clone();
    x4.scale_assign(4.0);
    let xs = x4.as_slice();
    let values = xs.len();
    let mut out = vec![0.0f32; values];
    let (libm_ms, reference) = time_ms(2000, || {
        xs.iter()
            .map(|&v| 0.5 * v * (1.0 + (0.797_884_6f32 * (v + 0.044_715 * v * v * v)).tanh()))
            .collect::<Vec<f32>>()
    });
    simd::force_tier(SimdTier::Scalar);
    let (gelu_scalar_ms, gelu_scalar) = time_ms(2000, || {
        simd::gelu(xs, &mut out);
        out.clone()
    });
    simd::force_tier(tier);
    let (gelu_simd_ms, gelu_simd) = time_ms(2000, || {
        simd::gelu(xs, &mut out);
        out.clone()
    });
    simd::reset_tier();
    let gelu_bitwise = gelu_simd.iter().zip(&gelu_scalar).all(|(a, b)| a.to_bits() == b.to_bits());
    if !gelu_bitwise {
        eprintln!("FAIL: {} gelu is not bitwise-equal to the scalar fallback", tier.name());
        failed = true;
    }
    let gelu_max_diff =
        gelu_simd.iter().zip(&reference).map(|(a, b)| (a - b).abs()).fold(0.0f32, f32::max);
    let ns_per_value = |ms: f64| ms * 1e6 / values as f64;
    println!(
        "gelu {gr}x{gc} on [-4, 4):  libm tanh {:.2} ns/value | scalar {:.2} | {} {:.2} | \
         max |Δ| vs libm {gelu_max_diff:.2e}",
        ns_per_value(libm_ms),
        ns_per_value(gelu_scalar_ms),
        tier.name(),
        ns_per_value(gelu_simd_ms)
    );

    // -- Batched CLS embedding (the serving hot path) ---------------------
    let dataset = generate_wiki(&WikiConfig { num_tables: 60, seed: 777, ..Default::default() });
    let tokenizer = build_tokenizer(&dataset, VOCAB_CAP);
    let cfg = EncoderConfig::bert_like(tokenizer.vocab_size(), MAX_SEQ);
    let mut store = ParamStore::new();
    let encoder = TransformerEncoder::new(&mut store, cfg, &mut rng);
    let type_data = TaskData::prepare_type(&dataset, &tokenizer, MAX_SEQ, false);
    let encs: Vec<_> = type_data.samples.iter().take(48).map(|s| s.encoded.clone()).collect();
    let batch = encs.len();

    explainti_pool::configure(1);
    let (embed_serial_ms, embeds_serial) = time_ms(3, || encoder.embed_cls_batch(&store, &encs));
    explainti_pool::configure(par_threads);
    let (embed_parallel_ms, embeds_parallel) =
        time_ms(3, || encoder.embed_cls_batch(&store, &encs));
    explainti_pool::configure(explainti_pool::Threads::resolve(None).get());
    if embeds_serial != embeds_parallel {
        eprintln!("FAIL: parallel embed_cls_batch diverges from serial");
        failed = true;
    }
    let embed_speedup = embed_serial_ms / embed_parallel_ms;
    println!(
        "embed_cls_batch x{batch}:  1 thread {embed_serial_ms:.2} ms | \
         {par_threads} threads {embed_parallel_ms:.2} ms | speedup {embed_speedup:.2}x"
    );

    // -- GE retrieval: flat store scan vs HNSW ------------------------------
    // The oracle is a full sort: every similarity, ordered (similarity
    // descending, id ascending) and truncated to k.
    let bits =
        |v: &[Neighbor]| v.iter().map(|nb| (nb.id, nb.similarity.to_bits())).collect::<Vec<_>>();
    let mut retrieval = Vec::new();
    for n in RETRIEVAL_SIZES {
        let mut vector =
            || -> Vec<f32> { (0..RETRIEVAL_DIM).map(|_| rng.gen_range(-1.0f32..1.0)).collect() };
        let vectors: Vec<Vec<f32>> = (0..n).map(|_| vector()).collect();
        let queries: Vec<Vec<f32>> = (0..RETRIEVAL_QUERIES).map(|_| vector()).collect();
        let mut store = EmbeddingStore::new(RETRIEVAL_DIM);
        let mut oracle = BruteForceIndex::new(Metric::Cosine);
        for (id, v) in vectors.iter().enumerate() {
            store.set(id, v, 0);
            oracle.add(id, v);
        }
        let t = Instant::now();
        let mut hnsw = HnswIndex::new(Metric::Cosine, HnswConfig::default());
        for (id, v) in vectors.iter().enumerate() {
            hnsw.add(id, v);
        }
        let build_ms = t.elapsed().as_secs_f64() * 1e3;

        let (mut flat_s, mut hnsw_s) = (Vec::new(), Vec::new());
        let mut flat_exact = true;
        for q in &queries {
            let query = Tensor::row(q.clone());
            let t = Instant::now();
            let flat = std::hint::black_box(store.top_k(&query, RETRIEVAL_K, None));
            flat_s.push(t.elapsed().as_secs_f64());
            let t = Instant::now();
            std::hint::black_box(hnsw.search(q, RETRIEVAL_K));
            hnsw_s.push(t.elapsed().as_secs_f64());
            flat_exact &= bits(&flat) == bits(&oracle.search(q, RETRIEVAL_K));
        }
        if !flat_exact {
            eprintln!("FAIL: store top_k at n={n} differs in bits from a full sort");
            failed = true;
        }
        let recall = recall_at_k(&hnsw, &oracle, &queries, RETRIEVAL_K);
        let (flat_us, hnsw_us) = (p50_us(flat_s), p50_us(hnsw_s));
        println!(
            "retrieval n={n} d={RETRIEVAL_DIM} k={RETRIEVAL_K}:  flat p50 {flat_us:.1} µs | \
             hnsw p50 {hnsw_us:.1} µs | hnsw build {build_ms:.1} ms | \
             hnsw recall@{RETRIEVAL_K} {recall:.3}"
        );
        retrieval.push(json!({
            "n": n,
            "dim": RETRIEVAL_DIM,
            "k": RETRIEVAL_K,
            "queries": RETRIEVAL_QUERIES,
            "flat_us_p50": flat_us,
            "hnsw_us_p50": hnsw_us,
            "hnsw_build_ms": build_ms,
            "hnsw_recall_at_k": recall,
            "flat_matches_full_sort": flat_exact,
        }));
    }

    let summary = json!({
        "available_parallelism": cores,
        "threads_parallel": par_threads,
        "dispatch_tier": tier.name(),
        "simd_speedup_floor": SIMD_SPEEDUP_FLOOR,
        "matmul": json!(matmul_shapes),
        "gelu": json!({
            "block": [gr, gc],
            "input_range": [-4.0, 4.0],
            "libm_ns_per_value": ns_per_value(libm_ms),
            "scalar_ns_per_value": ns_per_value(gelu_scalar_ms),
            "simd_ns_per_value": ns_per_value(gelu_simd_ms),
            "max_abs_diff_vs_libm": gelu_max_diff,
            "bitwise_equal_to_scalar": gelu_bitwise,
        }),
        "embed_cls_batch": json!({
            "batch": batch,
            "max_seq": MAX_SEQ,
            "serial_ms": embed_serial_ms,
            "parallel_ms": embed_parallel_ms,
            "speedup": scaling(embed_speedup),
            "thread_efficiency": scaling(embed_speedup / par_threads as f64),
        }),
        "retrieval": json!(retrieval),
        "parallel_matches_serial": !failed,
    });
    write_json("BENCH_kernels", &summary);

    if failed {
        std::process::exit(1);
    }
}
