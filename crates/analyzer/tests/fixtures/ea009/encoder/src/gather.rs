//! EA009 fixture helper, two calls below the engine entry.

pub fn gather(x: &[f32]) -> Vec<f32> {
    x.to_vec()
}
