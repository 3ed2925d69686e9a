//! Post-hoc explanation baselines: Saliency Map and Influence Functions.
//!
//! Both operate on an already-trained [`SeqClassifier`]. They do not alter
//! model accuracy (which is why Table III omits them), but their extracted
//! explanations enter the sufficiency evaluation of Table IV.
//!
//! * **Saliency Map** (Simonyan et al.): `|∇x ⊙ x|` per input position,
//!   differentiating the predicted-class logit against the input
//!   embedding (token + position sum).
//! * **Influence Functions** (Han et al.): the practical gradient-product
//!   approximation restricted to the classification head — the influence
//!   of training sample `z` on test sample `x` is `∇_W L(z) · ∇_W L(x)`,
//!   where `∇_W L = clsᵀ(p − y)` in closed form.

use crate::seqmodels::SeqClassifier;
use explainti_core::TaskKind;
use explainti_corpus::Split;
use explainti_nn::{softmax, Graph, Tensor};

/// A scored token position from a saliency map.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SalientToken {
    /// Position in the encoded sequence.
    pub position: usize,
    /// Saliency score (|grad ⊙ input| summed over channels).
    pub score: f32,
}

impl SeqClassifier {
    /// Gradient×input saliency for one sample, sorted descending.
    pub fn saliency(&mut self, kind: TaskKind, sample_idx: usize) -> Vec<SalientToken> {
        let (enc, len) = {
            let (_, _, _, samples, _) = self.task(kind);
            (samples[sample_idx].0.clone(), samples[sample_idx].0.len)
        };
        let head = {
            let (_, _, head, _, _) = self.task(kind);
            head.clone()
        };
        let (encoder, store, rng) = self.parts_mut();
        let mut g = Graph::new();
        let (emb, input) = encoder.forward_with_input(&mut g, store, &enc, false, rng);
        let cls = encoder.cls(&mut g, emb);
        let logits = head.forward(&mut g, store, cls);
        let predicted = g.value(logits).argmax_row(0);
        // Select the predicted-class logit as the scalar to differentiate.
        let c = g.value(logits).cols();
        let mut sel = Tensor::zeros(c, 1);
        sel.set(predicted, 0, 1.0);
        let sel_n = g.input(sel);
        let scalar = g.matmul(logits, sel_n);
        g.keep_grad(input);
        g.backward(scalar);
        let grad = g.grad(input);
        let x = g.value(input);
        let mut scores: Vec<SalientToken> = (0..len)
            .map(|pos| {
                let gr = grad.row_slice(pos);
                let xr = x.row_slice(pos);
                let score: f32 = gr.iter().zip(xr).map(|(&a, &b)| (a * b).abs()).sum();
                SalientToken { position: pos, score }
            })
            .collect();
        scores.sort_by(|a, b| b.score.partial_cmp(&a.score).unwrap_or(std::cmp::Ordering::Equal));
        scores
    }

    /// Closed-form head-gradient feature `clsᵀ(p − e_y)` flattened to
    /// `d·c` values. `label` defaults to the prediction when `None`.
    pub fn head_grad_feature(
        &mut self,
        kind: TaskKind,
        sample_idx: usize,
        label: Option<usize>,
    ) -> Vec<f32> {
        let enc = {
            let (_, _, _, samples, _) = self.task(kind);
            samples[sample_idx].0.clone()
        };
        let head = {
            let (_, _, head, _, _) = self.task(kind);
            head.clone()
        };
        let (encoder, store, rng) = self.parts_mut();
        let mut g = Graph::new();
        let emb = encoder.forward(&mut g, store, &enc, false, rng);
        let cls = encoder.cls(&mut g, emb);
        let logits = head.forward(&mut g, store, cls);
        let p = softmax(g.value(logits).as_slice());
        let y = label.unwrap_or_else(|| g.value(logits).argmax_row(0));
        let cls_v = g.value(cls).as_slice().to_vec();
        let mut out = Vec::with_capacity(cls_v.len() * p.len());
        for &cv in &cls_v {
            for (j, &pj) in p.iter().enumerate() {
                let err = pj - if j == y { 1.0 } else { 0.0 };
                out.push(cv * err);
            }
        }
        out
    }
}

/// Precomputed training-set gradient features for influence retrieval.
pub struct InfluenceExplainer {
    kind: TaskKind,
    train_features: Vec<(usize, Vec<f32>)>,
}

impl InfluenceExplainer {
    /// Computes head-gradient features of every training sample (with its
    /// gold label, as in the influence-function formulation).
    pub fn new(model: &mut SeqClassifier, kind: TaskKind) -> Self {
        let train: Vec<(usize, usize)> = {
            let (_, _, _, samples, _) = model.task(kind);
            samples
                .iter()
                .enumerate()
                .filter(|(_, (_, _, split))| *split == Split::Train)
                .map(|(i, (_, label, _))| (i, *label))
                .collect()
        };
        let train_features = train
            .into_iter()
            .map(|(i, label)| (i, model.head_grad_feature(kind, i, Some(label))))
            .collect();
        Self { kind, train_features }
    }

    /// Top-`k` most influential training samples for a test sample
    /// (largest |gradient dot product|), most influential first.
    pub fn top_k(&self, model: &mut SeqClassifier, test_idx: usize, k: usize) -> Vec<(usize, f32)> {
        let test_feat = model.head_grad_feature(self.kind, test_idx, None);
        let mut scored: Vec<(usize, f32)> = self
            .train_features
            .iter()
            .map(|(i, f)| {
                let dot: f32 = f.iter().zip(&test_feat).map(|(&a, &b)| a * b).sum();
                (*i, dot.abs())
            })
            .collect();
        scored.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        scored.truncate(k);
        scored
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seqmodels::ContextStrategy;
    use explainti_core::build_tokenizer;
    use explainti_corpus::{generate_wiki, WikiConfig};
    use explainti_encoder::EncoderConfig;

    fn trained_model() -> SeqClassifier {
        let d = generate_wiki(&WikiConfig { num_tables: 40, seed: 71, ..Default::default() });
        let tok = build_tokenizer(&d, 2048);
        let cfg = EncoderConfig::bert_like(tok.vocab_size(), 24);
        let mut m = SeqClassifier::new(&d, &tok, cfg, ContextStrategy::PerColumn, 1);
        m.epochs = 1;
        m.train();
        m
    }

    #[test]
    fn saliency_scores_cover_real_positions_only() {
        let mut m = trained_model();
        let sal = m.saliency(TaskKind::Type, 0);
        assert!(!sal.is_empty());
        assert!(sal.iter().all(|t| t.score >= 0.0));
        for pair in sal.windows(2) {
            assert!(pair[0].score >= pair[1].score);
        }
    }

    #[test]
    fn influence_returns_training_samples() {
        let mut m = trained_model();
        let inf = InfluenceExplainer::new(&mut m, TaskKind::Type);
        let test_idx = {
            let (_, _, _, samples, _) = m.task(TaskKind::Type);
            samples.iter().position(|(_, _, s)| *s == Split::Test).expect("a test sample exists")
        };
        let top = inf.top_k(&mut m, test_idx, 3);
        assert_eq!(top.len(), 3);
        for pair in top.windows(2) {
            assert!(pair[0].1 >= pair[1].1);
        }
    }

    #[test]
    fn head_grad_feature_has_d_times_c_entries() {
        let mut m = trained_model();
        let f = m.head_grad_feature(TaskKind::Type, 0, Some(0));
        let (_, _, _, _, c) = m.task(TaskKind::Type);
        assert_eq!(f.len(), 32 * c);
    }
}
