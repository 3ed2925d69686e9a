//! Multi-task, multi-view fine-tuning (Algorithm 5).
//!
//! Per epoch the trainer alternates over the registered tasks (type, then
//! relation), handling their imbalanced sizes naturally, exactly as the
//! paper describes. Per mini-batch sample it assembles the joint loss of
//! Eq. 11 — `L = L_S + α·L_L + β·L_G` — back-propagates, and steps AdamW
//! under a linearly decaying schedule. The embedding store `Q` is
//! initialised before the first epoch and refreshed every
//! `refresh_epochs` epochs. The epoch with the best validation
//! F1-weighted is restored at the end (the paper's model selection).
//!
//! A mini-batch's samples train on `min(width, batch)` threads (the
//! `--threads` width, [`explainti_pool::fold_in_order`]), and the trained
//! weights are the same bits at every width: the caller draws each
//! sample's randomness from the model RNG in sample order before the
//! fan-out, and the per-sample gradients and losses are added in sample
//! order.

use crate::config::TaskKind;
use crate::model::ExplainTi;
use explainti_corpus::Split;
use explainti_metrics::F1Scores;
use explainti_nn::{AdamW, Graph, LinearSchedule};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use serde::{Deserialize, Serialize};
use std::time::{Duration, Instant};

/// Per-epoch, per-task training log entry.
///
/// Serialises with durations as fractional seconds, so `--report-out`
/// files are plain JSON numbers.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EpochLog {
    /// Epoch number (0-based).
    pub epoch: usize,
    /// The task trained in this entry.
    pub task: TaskKind,
    /// Mean training loss over the epoch.
    pub train_loss: f32,
    /// Validation F1 after the epoch.
    pub valid_f1: F1Scores,
    /// Wall-clock time spent training this task this epoch.
    pub elapsed: Duration,
}

/// Outcome of [`ExplainTi::train`].
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct TrainReport {
    /// Per-epoch logs (one entry per task per epoch).
    pub epochs: Vec<EpochLog>,
    /// Total wall-clock training time (includes store refreshes).
    pub total_time: Duration,
    /// Epoch whose weights were kept (best mean validation F1-weighted).
    pub best_epoch: usize,
}

impl ExplainTi {
    /// Fine-tunes the model per Algorithm 5 and restores the best epoch.
    pub fn train(&mut self) -> TrainReport {
        // The span feeds telemetry; the `Instant` stays because
        // `TrainReport` is a functional output and must carry timings
        // even when telemetry is off.
        let _train_span = explainti_obs::span!("train.total");
        let t0 = Instant::now();
        let mut report = TrainReport::default();

        let needs_store = self.cfg.use_ge || self.cfg.use_se;
        let num_tasks = self.tasks.len();
        if needs_store {
            for task in 0..num_tasks {
                self.refresh_store(task);
            }
        }

        let total_steps: usize = self
            .tasks
            .iter()
            .map(|t| (t.data.train_idx.len() / self.cfg.batch_size.max(1) + 1) * self.cfg.epochs)
            .sum();
        let warmup = total_steps / 20 + 1;
        let mut opt = AdamW::new(LinearSchedule::new(self.cfg.lr, warmup, total_steps));

        let mut best_score = f64::NEG_INFINITY;
        let mut best_weights: Option<Vec<f32>> = None;
        let mut best_epoch = 0usize;

        for epoch in 0..self.cfg.epochs {
            let _epoch_span = explainti_obs::span!("train.epoch");
            if needs_store && epoch > 0 && epoch % self.cfg.refresh_epochs == 0 {
                for task in 0..num_tasks {
                    self.refresh_store(task);
                }
            }

            let mut epoch_score = 0.0f64;
            for task in 0..num_tasks {
                let _task_span = explainti_obs::span!("train.task");
                let t_task = Instant::now();
                let mut order = self.tasks[task].data.train_idx.clone();
                order.shuffle(&mut self.rng);
                let mut loss_sum = 0.0f32;
                for batch in order.chunks(self.cfg.batch_size.max(1)) {
                    // Each sample's RNG start state, drawn past in sample
                    // order exactly as a serial loop would consume it.
                    let mut rng = self.rng.clone();
                    let starts: Vec<SmallRng> = batch
                        .iter()
                        .map(|&idx| {
                            let start = rng.clone();
                            self.draw_sample(task, idx, &mut rng);
                            start
                        })
                        .collect();
                    self.rng = rng;
                    let mut grads = self.store.take_grads();
                    let this = &*self;
                    explainti_pool::fold_in_order(
                        batch.len(),
                        &mut (&mut grads, &mut loss_sum),
                        |j| this.train_step(task, batch[j], starts[j].clone()),
                        |(grads, loss_sum), (tape, loss)| {
                            tape.flush_grads_into(grads);
                            **loss_sum += loss;
                        },
                    );
                    self.store.restore_grads(grads);
                    opt.step(&mut self.store);
                }
                let loss_count = order.len();
                let kind = self.tasks[task].data.kind;
                let valid_f1 = self.evaluate(kind, Split::Valid);
                epoch_score += valid_f1.weighted;
                report.epochs.push(EpochLog {
                    epoch,
                    task: kind,
                    train_loss: loss_sum / loss_count.max(1) as f32,
                    valid_f1,
                    elapsed: t_task.elapsed(),
                });
            }

            epoch_score /= num_tasks as f64;
            if epoch_score > best_score {
                best_score = epoch_score;
                best_weights = Some(self.store.to_flat());
                best_epoch = epoch;
            }
        }

        if let Some(w) = best_weights {
            self.store.load_flat(&w);
            // Stores were computed under the final-epoch weights; refresh
            // them so GE/SE retrievals match the restored encoder.
            if needs_store {
                for task in 0..num_tasks {
                    self.refresh_store(task);
                }
            }
        }
        report.best_epoch = best_epoch;
        report.total_time = t0.elapsed();
        report
    }

    /// One sample's forward and backward pass, with its randomness drawn
    /// from `rng` (the sample's start state); returns the swept tape and
    /// the joint loss value.
    fn train_step(&self, task: usize, idx: usize, mut rng: SmallRng) -> (Graph, f32) {
        let _span = explainti_obs::span!("train.step");
        let label = self.tasks[task].data.samples[idx].label;
        let draws = self.draw_sample(task, idx, &mut rng);
        let fwd = self.forward_drawn(task, idx, Some(&draws));
        let mut g = fwd.graph;
        // L_S (Eq. 10 — or Eq. 1's base loss when SE is ablated).
        let l_s = g.cross_entropy(fwd.final_logits, &[label]);
        let mut total = l_s;
        if let Some(ll) = fwd.l_l {
            // α · L_L (Eq. 7).
            let ce = g.cross_entropy(ll, &[label]);
            let scaled = g.scale(ce, self.cfg.alpha);
            total = g.add(total, scaled);
        }
        if let Some(lg) = fwd.l_g {
            // β · L_G (Eq. 8).
            let ce = g.cross_entropy(lg, &[label]);
            let scaled = g.scale(ce, self.cfg.beta);
            total = g.add(total, scaled);
        }
        let loss = g.value(total).as_slice()[0];
        g.backward(total);
        (g, loss)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ExplainTiConfig;
    use explainti_corpus::{generate_wiki, WikiConfig};

    /// End-to-end smoke test: a tiny model on a tiny corpus must beat the
    /// majority-class baseline on the *training* split after training.
    #[test]
    fn training_learns_above_chance() {
        let d = generate_wiki(&WikiConfig { num_tables: 60, seed: 31, ..Default::default() });
        let mut cfg = ExplainTiConfig::bert_like(2048, 24);
        cfg.epochs = 2;
        cfg.top_k = 4;
        cfg.sample_r = 4;
        cfg.window = 3;
        let mut m = ExplainTi::new(&d, cfg);
        let report = m.train();
        assert_eq!(report.epochs.len(), 2 * 2); // two tasks, two epochs
        let f1 = m.evaluate(TaskKind::Type, explainti_corpus::Split::Train);
        assert!(f1.micro > 0.20, "train micro-F1 too low: {}", f1.micro);
        assert!(report.epochs.iter().all(|e| e.train_loss.is_finite()));
    }

    /// Serialises the tests that set the process-wide width, and
    /// restores the resolved width when dropped.
    struct Width(#[allow(dead_code)] std::sync::MutexGuard<'static, ()>);

    impl Width {
        fn lock() -> Self {
            static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
            Self(LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner()))
        }
    }

    impl Drop for Width {
        fn drop(&mut self) {
            explainti_pool::configure(explainti_pool::Threads::resolve(None).threads());
        }
    }

    /// A small two-task model whose mini-batches span several samples.
    fn tiny_model(epochs: usize) -> ExplainTi {
        let d = generate_wiki(&WikiConfig { num_tables: 10, seed: 35, ..Default::default() });
        let mut cfg = ExplainTiConfig::bert_like(2048, 24);
        cfg.epochs = epochs;
        cfg.top_k = 4;
        cfg.sample_r = 4;
        cfg.window = 3;
        ExplainTi::new(&d, cfg)
    }

    #[test]
    fn trained_bits_do_not_depend_on_the_width() {
        let _width = Width::lock();
        let train_at = |threads: usize| {
            explainti_pool::configure(threads);
            let mut m = tiny_model(2);
            let report = m.train();
            let weights: Vec<u32> = m.export_all_weights().iter().map(|w| w.to_bits()).collect();
            let losses: Vec<u32> = report.epochs.iter().map(|e| e.train_loss.to_bits()).collect();
            (weights, losses)
        };
        let serial = train_at(1);
        assert_eq!(serial.1.len(), 4, "two tasks, two epochs");
        for threads in [2, 4] {
            assert!(train_at(threads) == serial, "width {threads} moved the trained bits");
        }
    }

    #[test]
    fn a_panicking_sample_reraises_on_the_caller_without_hanging() {
        let _width = Width::lock();
        explainti_pool::configure(2);
        let mut m = tiny_model(1);
        let data = &mut m.tasks[0].data;
        let bad = data.train_idx[data.train_idx.len() / 2];
        data.samples[bad].label = data.num_classes;
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| m.train()));
            let payload = caught.err().map(|p| {
                p.downcast_ref::<String>()
                    .cloned()
                    .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_default()
            });
            let _ = tx.send(payload);
        });
        let payload = rx
            .recv_timeout(std::time::Duration::from_secs(120))
            .expect("train hung after a sample panicked")
            .expect("an out-of-range label must panic");
        assert!(
            payload.starts_with("target class") && payload.contains("out of range"),
            "the sample's own payload must reach the caller, got {payload:?}"
        );
    }

    #[test]
    fn loss_decreases_across_epochs() {
        let d = generate_wiki(&WikiConfig { num_tables: 50, seed: 33, ..Default::default() });
        let mut cfg = ExplainTiConfig::bert_like(2048, 24);
        cfg.epochs = 3;
        cfg.use_ge = false;
        cfg.use_se = false;
        cfg.use_le = false;
        let mut m = ExplainTi::new(&d, cfg);
        let report = m.train();
        let type_losses: Vec<f32> = report
            .epochs
            .iter()
            .filter(|e| e.task == TaskKind::Type)
            .map(|e| e.train_loss)
            .collect();
        assert!(
            type_losses.last().unwrap() < type_losses.first().unwrap(),
            "loss did not decrease: {type_losses:?}"
        );
    }
}
