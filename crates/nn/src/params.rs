//! Trainable-parameter storage shared by every model in the reproduction.
//!
//! A [`ParamStore`] owns the values, accumulated gradients, and optimizer
//! state (Adam moments) of a model. Graphs snapshot values at forward time
//! and flush gradients back after the reverse sweep, so the store is the
//! single source of truth for training.

use crate::tensor::Tensor;
use rand::rngs::SmallRng;
use rand::Rng;

/// Handle to one parameter inside a [`ParamStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ParamId(pub(crate) usize);

struct Param {
    name: String,
    value: Tensor,
    grad: Tensor,
    /// First Adam moment.
    m: Tensor,
    /// Second Adam moment.
    v: Tensor,
    /// Parameters such as layer-norm gains and biases skip weight decay.
    decay: bool,
}

/// Owns every trainable tensor of a model.
#[derive(Default)]
pub struct ParamStore {
    params: Vec<Param>,
}

/// Gradient tensors moved out of a [`ParamStore`] by
/// [`ParamStore::take_grads`], one per parameter in registration order.
/// Tapes flush into them ([`crate::Graph::flush_grads_into`]) while the
/// store's values stay shared read-only.
pub struct Grads(pub(crate) Vec<Tensor>);

impl ParamStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a parameter with weight decay enabled.
    pub fn add(&mut self, name: &str, value: Tensor) -> ParamId {
        self.add_with_decay(name, value, true)
    }

    /// Registers a parameter, controlling weight-decay participation.
    pub fn add_with_decay(&mut self, name: &str, value: Tensor, decay: bool) -> ParamId {
        let (r, c) = value.shape();
        self.params.push(Param {
            name: name.to_string(),
            value,
            grad: Tensor::zeros(r, c),
            m: Tensor::zeros(r, c),
            v: Tensor::zeros(r, c),
            decay,
        });
        ParamId(self.params.len() - 1)
    }

    /// Registers a matrix initialised with Xavier/Glorot uniform noise.
    pub fn add_xavier(
        &mut self,
        name: &str,
        rows: usize,
        cols: usize,
        rng: &mut SmallRng,
    ) -> ParamId {
        let bound = (6.0 / (rows + cols) as f32).sqrt();
        let data = (0..rows * cols).map(|_| rng.gen_range(-bound..bound)).collect();
        self.add(name, Tensor::from_vec(rows, cols, data))
    }

    /// Registers a matrix initialised with small Gaussian-ish noise
    /// (uniform approximation, std ≈ `std`), as BERT does for embeddings.
    pub fn add_normal(
        &mut self,
        name: &str,
        rows: usize,
        cols: usize,
        std: f32,
        rng: &mut SmallRng,
    ) -> ParamId {
        // Irwin-Hall sum of 4 uniforms approximates a Gaussian well enough
        // for initialisation while keeping `rand`'s core API.
        let data = (0..rows * cols)
            .map(|_| {
                let s: f32 = (0..4).map(|_| rng.gen_range(-1.0f32..1.0)).sum();
                s * 0.5 * std * 1.732
            })
            .collect();
        self.add(name, Tensor::from_vec(rows, cols, data))
    }

    /// Registers a zero-initialised row (bias).
    pub fn add_zeros(&mut self, name: &str, rows: usize, cols: usize) -> ParamId {
        self.add_with_decay(name, Tensor::zeros(rows, cols), false)
    }

    /// Registers a ones-initialised row (layer-norm gain).
    pub fn add_ones(&mut self, name: &str, rows: usize, cols: usize) -> ParamId {
        self.add_with_decay(name, Tensor::full(rows, cols, 1.0), false)
    }

    /// Number of registered parameters.
    pub fn len(&self) -> usize {
        self.params.len()
    }

    /// True when no parameters are registered.
    pub fn is_empty(&self) -> bool {
        self.params.is_empty()
    }

    /// Total number of scalar weights.
    pub fn num_weights(&self) -> usize {
        self.params.iter().map(|p| p.value.len()).sum()
    }

    /// Parameter name (for debugging and serialisation).
    pub fn name(&self, id: ParamId) -> &str {
        &self.params[id.0].name
    }

    /// Current value.
    pub fn value(&self, id: ParamId) -> &Tensor {
        &self.params[id.0].value
    }

    /// Mutable value (used by weight loading).
    pub fn value_mut(&mut self, id: ParamId) -> &mut Tensor {
        &mut self.params[id.0].value
    }

    /// Accumulated gradient.
    pub fn grad(&self, id: ParamId) -> &Tensor {
        &self.params[id.0].grad
    }

    /// Mutable accumulated gradient (graphs flush into this).
    pub fn grad_mut(&mut self, id: ParamId) -> &mut Tensor {
        &mut self.params[id.0].grad
    }

    /// Moves every accumulated gradient out of the store, leaving empty
    /// placeholders until [`Self::restore_grads`] puts them back.
    pub fn take_grads(&mut self) -> Grads {
        Grads(
            self.params
                .iter_mut()
                .map(|p| std::mem::replace(&mut p.grad, Tensor::zeros(0, 0)))
                .collect(),
        )
    }

    /// Puts back the gradients [`Self::take_grads`] moved out.
    ///
    /// # Panics
    /// Panics if `grads` does not match the store's layout.
    pub fn restore_grads(&mut self, grads: Grads) {
        assert_eq!(grads.0.len(), self.params.len(), "gradient count mismatch");
        for (p, g) in self.params.iter_mut().zip(grads.0) {
            assert_eq!(p.value.shape(), g.shape(), "gradient shape mismatch for {}", p.name);
            p.grad = g;
        }
    }

    /// Whether the parameter participates in weight decay.
    pub fn decays(&self, id: ParamId) -> bool {
        self.params[id.0].decay
    }

    /// Zeroes every accumulated gradient.
    pub fn zero_grads(&mut self) {
        for p in &mut self.params {
            p.grad.as_mut_slice().fill(0.0);
        }
    }

    /// Global L2 norm of all gradients (for clipping).
    pub fn grad_norm(&self) -> f32 {
        self.params
            .iter()
            .map(|p| p.grad.as_slice().iter().map(|g| g * g).sum::<f32>())
            .sum::<f32>()
            .sqrt()
    }

    /// Scales every gradient in place.
    pub fn scale_grads(&mut self, s: f32) {
        for p in &mut self.params {
            p.grad.scale_assign(s);
        }
    }

    pub(crate) fn adam_state_mut(
        &mut self,
        id: ParamId,
    ) -> (&mut Tensor, &mut Tensor, &mut Tensor, &Tensor, bool) {
        let p = &mut self.params[id.0];
        (&mut p.value, &mut p.m, &mut p.v, &p.grad, p.decay)
    }

    /// Iterator over all parameter ids.
    pub fn ids(&self) -> impl Iterator<Item = ParamId> {
        (0..self.params.len()).map(ParamId)
    }

    /// Handle for the parameter registered at position `idx`.
    ///
    /// Modules register their parameters contiguously, so a `(start, end)`
    /// index range identifies a module's weights across stores built with
    /// the same construction order (used to transfer pre-trained encoder
    /// weights into fine-tuning stores).
    pub fn param_id_at(&self, idx: usize) -> ParamId {
        assert!(idx < self.params.len(), "param index {idx} out of range");
        ParamId(idx)
    }

    /// Serialises all weights into a flat buffer (checkpointing).
    pub fn to_flat(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.num_weights());
        for p in &self.params {
            out.extend_from_slice(p.value.as_slice());
        }
        out
    }

    /// Restores all weights from a flat buffer produced by [`Self::to_flat`].
    ///
    /// # Panics
    /// Panics if the buffer length does not match the current layout.
    pub fn load_flat(&mut self, flat: &[f32]) {
        assert_eq!(flat.len(), self.num_weights(), "checkpoint size mismatch");
        let mut offset = 0;
        for p in &mut self.params {
            let n = p.value.len();
            p.value.as_mut_slice().copy_from_slice(&flat[offset..offset + n]);
            offset += n;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn add_and_lookup_roundtrip() {
        let mut s = ParamStore::new();
        let id = s.add("w", Tensor::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]));
        assert_eq!(s.value(id).get(1, 1), 4.0);
        assert_eq!(s.name(id), "w");
        assert_eq!(s.num_weights(), 4);
    }

    #[test]
    fn xavier_bound_is_respected() {
        let mut rng = SmallRng::seed_from_u64(7);
        let mut s = ParamStore::new();
        let id = s.add_xavier("w", 10, 10, &mut rng);
        let bound = (6.0f32 / 20.0).sqrt();
        assert!(s.value(id).as_slice().iter().all(|v| v.abs() <= bound));
    }

    #[test]
    fn zero_grads_clears_accumulation() {
        let mut s = ParamStore::new();
        let id = s.add("w", Tensor::zeros(1, 3));
        s.grad_mut(id).as_mut_slice()[0] = 5.0;
        assert_eq!(s.grad_norm(), 5.0);
        s.zero_grads();
        assert_eq!(s.grad_norm(), 0.0);
    }

    #[test]
    fn flat_roundtrip_restores_weights() {
        let mut rng = SmallRng::seed_from_u64(1);
        let mut s = ParamStore::new();
        s.add_xavier("a", 3, 4, &mut rng);
        s.add_xavier("b", 2, 2, &mut rng);
        let snapshot = s.to_flat();
        let before = s.to_flat();
        for id in s.ids().collect::<Vec<_>>() {
            s.value_mut(id).scale_assign(0.0);
        }
        s.load_flat(&snapshot);
        assert_eq!(s.to_flat(), before);
    }

    #[test]
    fn bias_params_skip_decay() {
        let mut s = ParamStore::new();
        let b = s.add_zeros("b", 1, 4);
        assert!(!s.decays(b));
        let w = s.add("w", Tensor::zeros(2, 2));
        assert!(s.decays(w));
    }
}
