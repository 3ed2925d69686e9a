//! Finite-difference validation of every autograd backward rule.
//!
//! Each test builds a scalar loss through one or more ops, computes the
//! analytic parameter gradient via `Graph::backward`, and compares it to a
//! central finite difference. f32 arithmetic limits achievable precision,
//! so tolerances are relative with a small absolute floor.

use explainti_nn::{Graph, ParamStore, Tensor};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Builds a loss twice per weight (±eps) and compares the slope with the
/// analytic gradient flushed into the store.
fn check_grads<F>(store: &mut ParamStore, build: F, eps: f32, tol: f32)
where
    F: Fn(&mut Graph, &ParamStore) -> explainti_nn::NodeId,
{
    // Analytic gradients.
    store.zero_grads();
    let mut g = Graph::new();
    let loss = build(&mut g, store);
    assert_eq!(g.value(loss).shape(), (1, 1), "loss must be scalar");
    g.backward(loss);
    g.flush_grads(store);

    let ids: Vec<_> = store.ids().collect();
    for id in ids {
        let n = store.value(id).len();
        for i in 0..n {
            let analytic = store.grad(id).as_slice()[i];
            let orig = store.value(id).as_slice()[i];

            store.value_mut(id).as_mut_slice()[i] = orig + eps;
            let mut gp = Graph::new();
            let lp = build(&mut gp, store);
            let fp = gp.value(lp).as_slice()[0];

            store.value_mut(id).as_mut_slice()[i] = orig - eps;
            let mut gm = Graph::new();
            let lm = build(&mut gm, store);
            let fm = gm.value(lm).as_slice()[0];

            store.value_mut(id).as_mut_slice()[i] = orig;

            let numeric = (fp - fm) / (2.0 * eps);
            let diff = (numeric - analytic).abs();
            let scale = 1e-2 + tol * numeric.abs().max(analytic.abs());
            assert!(
                diff <= scale,
                "param {} [{i}]: numeric {numeric:.5} vs analytic {analytic:.5} (diff {diff:.5})",
                store.name(id),
            );
        }
    }
}

fn rng() -> SmallRng {
    SmallRng::seed_from_u64(20230417)
}

fn rand_tensor(r: usize, c: usize, rng: &mut SmallRng) -> Tensor {
    Tensor::from_vec(r, c, (0..r * c).map(|_| rng.gen_range(-0.9f32..0.9)).collect())
}

#[test]
fn gradcheck_linear_cross_entropy() {
    let mut r = rng();
    let mut store = ParamStore::new();
    let w = store.add("w", rand_tensor(4, 3, &mut r));
    let b = store.add("b", rand_tensor(1, 3, &mut r));
    let x = rand_tensor(2, 4, &mut r);
    check_grads(
        &mut store,
        |g, s| {
            let xn = g.input(x.clone());
            let wn = g.param(s, w);
            let bn = g.param(s, b);
            let h = g.matmul(xn, wn);
            let o = g.add_row(h, bn);
            g.cross_entropy(o, &[1, 2])
        },
        5e-3,
        0.05,
    );
}

#[test]
fn gradcheck_softmax_mul_path() {
    let mut r = rng();
    let mut store = ParamStore::new();
    let w = store.add("w", rand_tensor(2, 3, &mut r));
    let scale = rand_tensor(2, 3, &mut r);
    check_grads(
        &mut store,
        |g, s| {
            let wn = g.param(s, w);
            let p = g.softmax(wn);
            let sn = g.input(scale.clone());
            let m = g.mul(p, sn);
            let row = g.mean_rows(m);
            // Reduce to a scalar with a second mean via matmul against ones.
            let ones = g.input(Tensor::from_vec(3, 1, vec![1.0; 3]));
            g.matmul(row, ones)
        },
        5e-3,
        0.05,
    );
}

#[test]
fn gradcheck_layer_norm() {
    let mut r = rng();
    let mut store = ParamStore::new();
    let x = store.add("x", rand_tensor(2, 4, &mut r));
    let gain = store.add("gain", rand_tensor(1, 4, &mut r));
    let bias = store.add("bias", rand_tensor(1, 4, &mut r));
    let sel = rand_tensor(2, 4, &mut r);
    check_grads(
        &mut store,
        |g, s| {
            let xn = g.param(s, x);
            let gn = g.param(s, gain);
            let bn = g.param(s, bias);
            let y = g.layer_norm(xn, gn, bn);
            let seln = g.input(sel.clone());
            let m = g.mul(y, seln);
            let row = g.mean_rows(m);
            let ones = g.input(Tensor::from_vec(4, 1, vec![1.0; 4]));
            g.matmul(row, ones)
        },
        1e-2,
        0.08,
    );
}

#[test]
fn gradcheck_gelu_relu() {
    let mut r = rng();
    let mut store = ParamStore::new();
    let w = store.add("w", rand_tensor(1, 6, &mut r));
    check_grads(
        &mut store,
        |g, s| {
            let wn = g.param(s, w);
            let a = g.gelu(wn);
            let b = g.relu(a);
            let ones = g.input(Tensor::from_vec(6, 1, vec![1.0; 6]));
            g.matmul(b, ones)
        },
        5e-3,
        0.05,
    );
}

#[test]
fn gradcheck_embedding_mean_pool() {
    let mut r = rng();
    let mut store = ParamStore::new();
    let table = store.add("emb", rand_tensor(5, 3, &mut r));
    let cls = store.add("cls", rand_tensor(3, 2, &mut r));
    check_grads(
        &mut store,
        |g, s| {
            let tn = g.param(s, table);
            let e = g.embedding(tn, &[0, 2, 2, 4]);
            let pooled = g.mean_rows(e);
            let wn = g.param(s, cls);
            let logits = g.matmul(pooled, wn);
            g.cross_entropy(logits, &[1])
        },
        5e-3,
        0.05,
    );
}

#[test]
fn gradcheck_matmul_nt_and_concat() {
    let mut r = rng();
    let mut store = ParamStore::new();
    let a = store.add("a", rand_tensor(2, 3, &mut r));
    let b = store.add("b", rand_tensor(2, 3, &mut r));
    check_grads(
        &mut store,
        |g, s| {
            let an = g.param(s, a);
            let bn = g.param(s, b);
            let nt = g.matmul_nt(an, bn); // 2x2
            let cat = g.concat_cols(nt, an); // 2x5
            let row = g.mean_rows(cat);
            let ones = g.input(Tensor::from_vec(5, 1, vec![1.0; 5]));
            g.matmul(row, ones)
        },
        5e-3,
        0.05,
    );
}

#[test]
fn gradcheck_rows_cols_slices() {
    let mut r = rng();
    let mut store = ParamStore::new();
    let a = store.add("a", rand_tensor(4, 6, &mut r));
    check_grads(
        &mut store,
        |g, s| {
            let an = g.param(s, a);
            let rowsl = g.rows_range(an, 1, 2); // 2x6
            let colsl = g.cols_range(rowsl, 2, 3); // 2x3
            let sm = g.softmax(colsl);
            let row = g.mean_rows(sm);
            let weights = g.input(Tensor::from_vec(3, 1, vec![0.2, -0.7, 1.3]));
            g.matmul(row, weights)
        },
        5e-3,
        0.05,
    );
}

#[test]
fn gradcheck_full_attention_block() {
    use explainti_nn::MultiHeadAttention;
    let mut r = rng();
    let mut store = ParamStore::new();
    let mha = MultiHeadAttention::new(&mut store, "attn", 4, 2, &mut r);
    let x = rand_tensor(3, 4, &mut r);
    check_grads(
        &mut store,
        |g, s| {
            let xn = g.input(x.clone());
            let y = mha.forward(g, s, xn, None);
            let cls = g.rows_range(y, 0, 1);
            g.cross_entropy(cls, &[2])
        },
        1e-2,
        0.10,
    );
}

#[test]
fn gradcheck_sub_scale_add_row() {
    let mut r = rng();
    let mut store = ParamStore::new();
    let a = store.add("a", rand_tensor(2, 3, &mut r));
    let b = store.add("b", rand_tensor(1, 3, &mut r));
    check_grads(
        &mut store,
        |g, s| {
            let an = g.param(s, a);
            let bn = g.param(s, b);
            let sum = g.add_row(an, bn);
            let scaled = g.scale(sum, 1.7);
            let diff = g.sub(scaled, an);
            let sm = g.softmax(diff);
            let row = g.mean_rows(sm);
            let w = g.input(Tensor::from_vec(3, 1, vec![1.0, -2.0, 0.5]));
            g.matmul(row, w)
        },
        5e-3,
        0.05,
    );
}
