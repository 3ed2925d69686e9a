//! Optimizers and learning-rate schedules.
//!
//! The paper fine-tunes with AdamW at 5e-5 under a linearly decreasing
//! schedule; both are implemented here.

use crate::params::ParamStore;

/// Linearly decaying learning-rate schedule with optional warmup.
#[derive(Debug, Clone)]
pub struct LinearSchedule {
    base_lr: f32,
    warmup_steps: usize,
    total_steps: usize,
}

impl LinearSchedule {
    /// Creates a schedule that warms up for `warmup_steps` then decays
    /// linearly to zero at `total_steps`.
    pub fn new(base_lr: f32, warmup_steps: usize, total_steps: usize) -> Self {
        assert!(total_steps > 0, "total_steps must be positive");
        Self { base_lr, warmup_steps, total_steps }
    }

    /// Constant schedule (no warmup, no decay).
    pub fn constant(lr: f32) -> Self {
        Self { base_lr: lr, warmup_steps: 0, total_steps: usize::MAX }
    }

    /// Learning rate at a given step.
    pub fn lr_at(&self, step: usize) -> f32 {
        if step < self.warmup_steps {
            return self.base_lr * (step + 1) as f32 / self.warmup_steps.max(1) as f32;
        }
        if self.total_steps == usize::MAX {
            return self.base_lr;
        }
        let remaining = self.total_steps.saturating_sub(step) as f32;
        let span = self.total_steps.saturating_sub(self.warmup_steps).max(1) as f32;
        self.base_lr * (remaining / span).clamp(0.0, 1.0)
    }
}

/// Global gradient norm AdamW clips to (the paper's fine-tuning default).
const ADAMW_CLIP_NORM: f32 = 1.0;

/// Rescales the accumulated gradients so their global norm is at most
/// `clip`.
fn clip_grads(store: &mut ParamStore, clip: f32) {
    let norm = store.grad_norm();
    if norm > clip {
        store.scale_grads(clip / norm);
    }
}

/// AdamW with decoupled weight decay and global-norm gradient clipping.
#[derive(Debug, Clone)]
pub struct AdamW {
    schedule: LinearSchedule,
    beta1: f32,
    beta2: f32,
    eps: f32,
    weight_decay: f32,
    step: usize,
}

impl AdamW {
    /// Creates an AdamW optimizer with the paper's defaults
    /// (β₁=0.9, β₂=0.999, ε=1e-8, decay=0.01, clip=1.0).
    pub fn new(schedule: LinearSchedule) -> Self {
        Self { schedule, beta1: 0.9, beta2: 0.999, eps: 1e-8, weight_decay: 0.01, step: 0 }
    }

    /// Overrides the weight decay coefficient.
    pub fn with_weight_decay(mut self, wd: f32) -> Self {
        self.weight_decay = wd;
        self
    }

    /// Applies one update from the gradients accumulated in `store`,
    /// then zeroes them.
    pub fn step(&mut self, store: &mut ParamStore) {
        let _span = explainti_obs::span!("optim.step");
        clip_grads(store, ADAMW_CLIP_NORM);
        let lr = self.schedule.lr_at(self.step);
        self.step += 1;
        let t = self.step as i32;
        let bc1 = 1.0 - self.beta1.powi(t);
        let bc2 = 1.0 - self.beta2.powi(t);
        for id in store.ids().collect::<Vec<_>>() {
            let (value, m, v, grad, decay) = store.adam_state_mut(id);
            let wd = if decay { self.weight_decay } else { 0.0 };
            for i in 0..value.len() {
                let g = grad.as_slice()[i];
                let mi = self.beta1 * m.as_slice()[i] + (1.0 - self.beta1) * g;
                let vi = self.beta2 * v.as_slice()[i] + (1.0 - self.beta2) * g * g;
                m.as_mut_slice()[i] = mi;
                v.as_mut_slice()[i] = vi;
                let mhat = mi / bc1;
                let vhat = vi / bc2;
                let w = value.as_slice()[i];
                value.as_mut_slice()[i] = w - lr * (mhat / (vhat.sqrt() + self.eps) + wd * w);
            }
        }
        store.zero_grads();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;
    use crate::tensor::Tensor;

    #[test]
    fn linear_schedule_decays_to_zero() {
        let s = LinearSchedule::new(1.0, 0, 10);
        assert!((s.lr_at(0) - 1.0).abs() < 1e-6);
        assert!(s.lr_at(5) < s.lr_at(1));
        assert!(s.lr_at(10) <= 1e-6);
    }

    #[test]
    fn warmup_ramps_up() {
        let s = LinearSchedule::new(1.0, 4, 100);
        assert!(s.lr_at(0) < s.lr_at(3));
        assert!((s.lr_at(3) - 1.0).abs() < 0.3);
    }

    /// A single quadratic-bowl parameter must converge to the target under
    /// AdamW: minimise (w - 3)^2 expressed through the graph.
    #[test]
    fn adamw_minimises_quadratic() {
        let mut store = ParamStore::new();
        let w = store.add("w", Tensor::row(vec![0.0]));
        let mut opt = AdamW::new(LinearSchedule::constant(0.1)).with_weight_decay(0.0);
        for _ in 0..300 {
            let mut g = Graph::new();
            let wn = g.param(&store, w);
            let target = g.input(Tensor::row(vec![3.0]));
            let diff = g.sub(wn, target);
            let sq = g.mul(diff, diff);
            g.backward(sq);
            g.flush_grads(&mut store);
            opt.step(&mut store);
        }
        assert!((store.value(w).as_slice()[0] - 3.0).abs() < 0.05);
    }

    #[test]
    fn clipping_limits_update_magnitude() {
        let mut store = ParamStore::new();
        let w = store.add("w", Tensor::row(vec![0.0]));
        store.grad_mut(w).as_mut_slice()[0] = 1000.0;
        let mut opt = AdamW::new(LinearSchedule::constant(0.01));
        opt.step(&mut store);
        // With clip at 1.0 the Adam update is bounded near lr.
        assert!(store.value(w).as_slice()[0].abs() < 0.05);
    }
}
