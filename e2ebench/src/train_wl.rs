//! `train`: the offline `explainti train` path in this process — corpus
//! JSON → `ExplainTi::new` → `train` for a fixed number of epochs →
//! `evaluate` → `save_to_dir` — repeated until the run's seconds are
//! spent. The saved directory is the model the serve workloads boot.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use explainti_core::{ExplainTi, TaskKind, TrainReport};
use explainti_corpus::Split;
use serde_json::json;

use crate::inputs::{self, EPOCHS};
use crate::model::{self, Cycle};
use crate::report::{Metric, Outcome};
use crate::serve_wl::{self, Kind};
use crate::stats::median;
use crate::sys;

/// Median wall time of one epoch (all tasks), from the trainer's report.
pub fn epoch_s(report: &TrainReport) -> Metric {
    let mut per_epoch: BTreeMap<usize, f64> = BTreeMap::new();
    for e in &report.epochs {
        *per_epoch.entry(e.epoch).or_default() += e.elapsed.as_secs_f64();
    }
    let v: Vec<f64> = per_epoch.into_values().collect();
    Metric::new("core.train.epoch_s", median(&v), "s", v.len() as u64)
}

pub fn run(seed: u64, seconds: u64, trace: bool, out: &mut Outcome) -> Result<(), String> {
    let json = serde_json::to_string(&inputs::training_corpus(seed)).map_err(|e| format!("{e}"))?;
    let saved = sys::work_dir().join(format!("train-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&saved);
    // The peak that follows excludes generating the corpus.
    out.note("hwm_reset", json!(sys::reset_hwm()));

    let start = Instant::now();
    let mut cycles: Vec<Cycle> = Vec::new();
    loop {
        out.attempted += 1;
        match model::train_cycle(&json, &saved) {
            Ok(c) => cycles.push(c),
            Err(e) => {
                out.failed += 1;
                return Err(e);
            }
        }
        if trace || start.elapsed() >= Duration::from_secs(seconds) {
            break;
        }
    }
    let hwm_kb = sys::vm_hwm_kb("self");

    let first = &cycles[0];
    for c in &cycles {
        let finite = c.report.epochs.iter().all(|e| e.train_loss.is_finite());
        out.check(finite, "a training loss is not finite");
        out.check(
            c.f1_micro == first.f1_micro,
            format!("test F1 differs between cycles: {} vs {}", c.f1_micro, first.f1_micro),
        );
    }
    let (reloaded, _) =
        ExplainTi::load_from_dir(&saved).map_err(|e| format!("reload {saved:?}: {e}"))?;
    let f1_reloaded = reloaded.evaluate(TaskKind::Type, Split::Test).micro;
    drop(reloaded);
    out.check(
        f1_reloaded == first.f1_micro,
        format!("reloaded test F1 {f1_reloaded} != trained {}", first.f1_micro),
    );
    let dir = model::publish(&saved, seed)?;
    out.note(
        "cycles",
        json!(cycles
            .iter()
            .map(|c| json!({"setup_ns": c.setup_ns(), "train_ns": c.train_ns, "eval_ns": c.eval_ns, "save_ns": c.save_ns, "best_epoch": c.report.best_epoch}))
            .collect::<Vec<_>>()),
    );

    if trace {
        // The per-layer replays and a short cold serving probe run on the
        // model this run trained; the probe is what booting it costs.
        let spans = sys::work_dir().join("spans-train.jsonl");
        serve_wl::run(Kind::TableCold, seed, (seconds / 2).max(3), Some(&spans), &dir, out)?;
        out.metrics.push(epoch_s(&first.report));
        return Ok(());
    }
    let n = cycles.len() as u64;
    let setup: Vec<f64> = cycles.iter().map(|c| c.setup_ns() as f64 / 1e9).collect();
    let rate: Vec<f64> =
        cycles.iter().map(|c| (c.samples * EPOCHS) as f64 / (c.timed_ns() as f64 / 1e9)).collect();
    // An offline job's latency is how long its user waits for the model:
    // one whole `explainti train` pass, set-up included.
    let mut wall: Vec<u64> = cycles.iter().map(|c| c.setup_ns() + c.timed_ns()).collect();
    let p50 = median(&wall.iter().map(|&w| w as f64 / 1e3).collect::<Vec<_>>());
    let p99 = crate::stats::quantile_u64(&mut wall, 0.99).map(|v| v as f64 / 1e3);
    out.metrics = vec![
        Metric::new("setup_s", median(&setup), "s", n),
        Metric::new("throughput_per_s", median(&rate), "1/s", n),
        Metric::new("latency_p50_us", p50, "us", n).with_note("one whole train pass"),
        Metric::new("latency_p99_us", p99, "us", n)
            .with_note("one whole train pass; fewer than 1000 samples"),
        Metric::new("peak_rss_mb", hwm_kb.map(|k| k as f64 / 1024.0), "MB", 1),
        Metric::new("f1_micro", Some(first.f1_micro), "ratio", 1),
    ];
    Ok(())
}
