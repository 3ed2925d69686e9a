//! # explainti-metrics
//!
//! Classification metrics (F1-micro / -macro / -weighted, the triplet
//! reported in every table of the paper), confusion counting, the
//! duration format of the efficiency analysis (Table V), and plain-text
//! table rendering used by the bench binaries.

#![warn(missing_docs)]

pub mod report;

use serde::{Deserialize, Serialize};
use std::time::Duration;

/// The F1 triplet reported throughout the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct F1Scores {
    /// Micro-averaged F1 (equals accuracy for single-label prediction).
    pub micro: f64,
    /// Macro-averaged F1 (unweighted mean over classes).
    pub macro_: f64,
    /// Support-weighted mean F1.
    pub weighted: f64,
}

impl F1Scores {
    /// Mean of the three scores (the paper's "average F1" summary).
    pub fn mean(&self) -> f64 {
        (self.micro + self.macro_ + self.weighted) / 3.0
    }
}

impl std::fmt::Display for F1Scores {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.3} / {:.3} / {:.3}", self.micro, self.macro_, self.weighted)
    }
}

/// Per-class confusion counts for single-label classification.
#[derive(Debug, Clone)]
pub struct Confusion {
    num_classes: usize,
    tp: Vec<usize>,
    fp: Vec<usize>,
    fn_: Vec<usize>,
    support: Vec<usize>,
    total: usize,
    correct: usize,
}

impl Confusion {
    /// Creates an empty confusion accumulator over `num_classes` labels.
    pub fn new(num_classes: usize) -> Self {
        Self {
            num_classes,
            tp: vec![0; num_classes],
            fp: vec![0; num_classes],
            fn_: vec![0; num_classes],
            support: vec![0; num_classes],
            total: 0,
            correct: 0,
        }
    }

    /// Records one prediction.
    ///
    /// # Panics
    /// Panics when either label is out of range.
    pub fn record(&mut self, predicted: usize, actual: usize) {
        assert!(predicted < self.num_classes, "predicted {predicted} out of range");
        assert!(actual < self.num_classes, "actual {actual} out of range");
        self.total += 1;
        self.support[actual] += 1;
        if predicted == actual {
            self.correct += 1;
            self.tp[actual] += 1;
        } else {
            self.fp[predicted] += 1;
            self.fn_[actual] += 1;
        }
    }

    /// Records a batch of `(predicted, actual)` pairs.
    pub fn record_all(&mut self, pairs: impl IntoIterator<Item = (usize, usize)>) {
        for (p, a) in pairs {
            self.record(p, a);
        }
    }

    /// Number of recorded predictions.
    pub fn total(&self) -> usize {
        self.total
    }

    /// Plain accuracy.
    pub fn accuracy(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        self.correct as f64 / self.total as f64
    }

    /// Per-class F1 (0 when the class has no predictions and no support).
    pub fn f1_per_class(&self) -> Vec<f64> {
        (0..self.num_classes)
            .map(|c| {
                let tp = self.tp[c] as f64;
                let denom = 2.0 * tp + self.fp[c] as f64 + self.fn_[c] as f64;
                if denom == 0.0 {
                    0.0
                } else {
                    2.0 * tp / denom
                }
            })
            .collect()
    }

    /// The paper's F1 triplet.
    ///
    /// F1-micro is computed from global TP/FP/FN (equal to accuracy for
    /// single-label tasks); F1-macro averages per-class F1 over classes
    /// with support; F1-weighted weights per-class F1 by support.
    ///
    /// Note: scikit-learn's `average="macro"` averages over the union of
    /// gold and *predicted* labels, so it additionally counts zero-F1
    /// classes that were predicted but never occur in the gold labels;
    /// this implementation's macro can therefore read slightly higher
    /// than sklearn's on the same predictions.
    pub fn f1(&self) -> F1Scores {
        let per_class = self.f1_per_class();
        let with_support: Vec<usize> =
            (0..self.num_classes).filter(|&c| self.support[c] > 0).collect();
        let macro_ = if with_support.is_empty() {
            0.0
        } else {
            with_support.iter().map(|&c| per_class[c]).sum::<f64>() / with_support.len() as f64
        };
        let weighted = if self.total == 0 {
            0.0
        } else {
            (0..self.num_classes).map(|c| per_class[c] * self.support[c] as f64).sum::<f64>()
                / self.total as f64
        };
        F1Scores { micro: self.accuracy(), macro_, weighted }
    }
}

/// Computes the F1 triplet directly from prediction/label slices.
///
/// # Panics
/// Panics if the slices differ in length.
pub fn f1_scores(predicted: &[usize], actual: &[usize], num_classes: usize) -> F1Scores {
    assert_eq!(predicted.len(), actual.len(), "prediction/label length mismatch");
    let mut c = Confusion::new(num_classes);
    c.record_all(predicted.iter().copied().zip(actual.iter().copied()));
    c.f1()
}

/// Formats a duration like the paper's Table V ("354.2m" / "9.5s").
pub fn fmt_duration(d: Duration) -> String {
    let secs = d.as_secs_f64();
    if secs >= 60.0 {
        format!("{:.1}m", secs / 60.0)
    } else if secs >= 1.0 {
        format!("{secs:.1}s")
    } else {
        format!("{:.0}ms", secs * 1e3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_prediction_scores_one() {
        let f1 = f1_scores(&[0, 1, 2], &[0, 1, 2], 3);
        assert_eq!(f1.micro, 1.0);
        assert_eq!(f1.macro_, 1.0);
        assert_eq!(f1.weighted, 1.0);
    }

    #[test]
    fn all_wrong_scores_zero() {
        let f1 = f1_scores(&[1, 2, 0], &[0, 1, 2], 3);
        assert_eq!(f1.micro, 0.0);
        assert_eq!(f1.macro_, 0.0);
        assert_eq!(f1.weighted, 0.0);
    }

    #[test]
    fn micro_equals_accuracy() {
        let preds = [0, 0, 1, 1, 2];
        let actual = [0, 1, 1, 1, 0];
        let f1 = f1_scores(&preds, &actual, 3);
        assert!((f1.micro - 3.0 / 5.0).abs() < 1e-12);
    }

    #[test]
    fn macro_is_hurt_by_rare_class_errors() {
        // Class 1 is rare and always wrong; class 0 is common and right.
        let preds = [0, 0, 0, 0, 0, 0, 0, 0, 0, 0];
        let actual = [0, 0, 0, 0, 0, 0, 0, 0, 0, 1];
        let f1 = f1_scores(&preds, &actual, 2);
        assert!(f1.micro > 0.85);
        assert!(f1.macro_ < 0.55, "macro {}", f1.macro_);
        assert!(f1.weighted > f1.macro_);
    }

    #[test]
    fn macro_ignores_unsupported_classes() {
        // 5 classes but only 2 appear in the data.
        let f1 = f1_scores(&[0, 1], &[0, 1], 5);
        assert_eq!(f1.macro_, 1.0);
    }

    #[test]
    fn known_sklearn_example_matches() {
        // sklearn: y_true = [0,1,2,0,1,2], y_pred = [0,2,1,0,0,1]
        // micro = 1/3, macro = 0.2667, weighted = 0.2667
        let f1 = f1_scores(&[0, 2, 1, 0, 0, 1], &[0, 1, 2, 0, 1, 2], 3);
        assert!((f1.micro - 1.0 / 3.0).abs() < 1e-9);
        assert!((f1.macro_ - 0.26666667).abs() < 1e-6);
        assert!((f1.weighted - 0.26666667).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn length_mismatch_panics() {
        let _ = f1_scores(&[0], &[0, 1], 2);
    }

    #[test]
    fn duration_formatting() {
        assert_eq!(fmt_duration(Duration::from_secs(90)), "1.5m");
        assert_eq!(fmt_duration(Duration::from_millis(2500)), "2.5s");
        assert_eq!(fmt_duration(Duration::from_millis(5)), "5ms");
    }
}
