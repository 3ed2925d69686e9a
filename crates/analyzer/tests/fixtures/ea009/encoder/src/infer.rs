//! EA009 fixture engine: `forward` is an entry; the allocation sits two
//! calls below it. `scratch` builds buffers off the hot path and is not
//! an entry.

pub fn forward(x: &[f32], out: &mut [f32]) {
    attend(x, out);
}

fn attend(x: &[f32], out: &mut [f32]) {
    let keys = gather(x);
    for (o, k) in out.iter_mut().zip(&keys) {
        *o = *k;
    }
}

pub fn scratch(n: usize) -> Vec<f32> {
    vec![0.0; n]
}
