//! The served model: trained by this build's trainer from the seeded
//! corpus, saved with `save_to_dir`, and cached under the build's
//! identity so one build trains each seed at most once. A directory is
//! never booted by a build other than the one that wrote it.

use std::path::{Path, PathBuf};
use std::time::Instant;

use explainti_core::{ExplainTi, ExplainTiConfig, TaskKind, TrainReport, MANIFEST_NAME};
use explainti_corpus::{Dataset, Split};

use crate::inputs::{self, EPOCHS, TRAIN_TABLES};
use crate::sys;

/// One pass of the `explainti train` path, with its stages timed.
pub struct Cycle {
    pub parse_ns: u64,
    pub new_ns: u64,
    pub train_ns: u64,
    pub eval_ns: u64,
    pub save_ns: u64,
    pub report: TrainReport,
    pub f1_micro: f64,
    /// Training samples over all tasks (one epoch's worth of steps).
    pub samples: usize,
}

impl Cycle {
    /// What `explainti train` pays before its first step.
    pub fn setup_ns(&self) -> u64 {
        self.parse_ns + self.new_ns
    }

    /// train + evaluate + save.
    pub fn timed_ns(&self) -> u64 {
        self.train_ns + self.eval_ns + self.save_ns
    }
}

fn ns(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// Corpus JSON → `ExplainTi::new` → `train` → `evaluate` → `save_to_dir`,
/// as `explainti train` runs it, with the CLI's model configuration.
pub fn train_cycle(corpus_json: &str, out: &Path) -> Result<Cycle, String> {
    let t = Instant::now();
    let dataset: Dataset =
        serde_json::from_str(corpus_json).map_err(|e| format!("parse corpus: {e}"))?;
    let parse_ns = ns(t);
    let t = Instant::now();
    let mut cfg = ExplainTiConfig::bert_like(2048, 32);
    cfg.epochs = EPOCHS;
    let mut model = ExplainTi::new(&dataset, cfg);
    let new_ns = ns(t);
    let samples = model.tasks().iter().map(|t| t.data.train_idx.len()).sum();
    let t = Instant::now();
    let report = model.train();
    let train_ns = ns(t);
    let t = Instant::now();
    let f1_micro = model.evaluate(TaskKind::Type, Split::Test).micro;
    if model.task_index(TaskKind::Relation).is_some() {
        std::hint::black_box(model.evaluate(TaskKind::Relation, Split::Test));
    }
    let eval_ns = ns(t);
    let t = Instant::now();
    model.save_to_dir(out, &dataset).map_err(|e| format!("save_to_dir {out:?}: {e}"))?;
    let save_ns = ns(t);
    Ok(Cycle { parse_ns, new_ns, train_ns, eval_ns, save_ns, report, f1_micro, samples })
}

fn models_dir() -> PathBuf {
    sys::work_dir().join("models")
}

fn build_tag() -> String {
    format!("{:016x}", sys::exe_fnv64())
}

/// Where this build keeps the model for `seed`.
pub fn cached_dir(seed: u64) -> PathBuf {
    models_dir().join(format!("{}-s{seed}-t{TRAIN_TABLES}-e{EPOCHS}", build_tag()))
}

/// Moves a freshly saved model into the cache (keeping an existing
/// entry, which this build's deterministic trainer wrote identically).
pub fn publish(saved: &Path, seed: u64) -> Result<PathBuf, String> {
    let dir = cached_dir(seed);
    let tag = build_tag();
    if let Ok(entries) = std::fs::read_dir(models_dir()) {
        for e in entries.flatten() {
            if !e.file_name().to_string_lossy().starts_with(&tag) {
                let _ = std::fs::remove_dir_all(e.path());
            }
        }
    }
    if dir.join(MANIFEST_NAME).exists() {
        let _ = std::fs::remove_dir_all(saved);
    } else {
        std::fs::create_dir_all(models_dir()).map_err(|e| e.to_string())?;
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::rename(saved, &dir).map_err(|e| format!("publish model: {e}"))?;
    }
    Ok(dir)
}

/// The model directory for `seed`, training it first when this build
/// has not, or when `force` asks for a fresh training run to time.
pub fn ensure(seed: u64, force: bool) -> Result<(PathBuf, Option<Cycle>), String> {
    let dir = cached_dir(seed);
    if !force && dir.join(MANIFEST_NAME).exists() {
        return Ok((dir, None));
    }
    let json = serde_json::to_string(&inputs::training_corpus(seed)).map_err(|e| format!("{e}"))?;
    let tmp = sys::work_dir().join(format!("train-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&tmp);
    let cycle = train_cycle(&json, &tmp)?;
    let dir = publish(&tmp, seed)?;
    Ok((dir, Some(cycle)))
}
