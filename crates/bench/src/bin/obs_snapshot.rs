//! Telemetry snapshot — runs one instrumented train + evaluate cycle and
//! writes `bench-results/BENCH_obs.json`, a per-stage latency summary
//! (count, p50, p90, p99, max, total) straight from the `explainti-obs`
//! histograms.
//!
//! It measures the stages *in situ*, with their real call frequencies
//! inside Algorithm 5, so the JSON is the machine-readable counterpart
//! of the stderr table every CLI run prints (and of DESIGN.md §8's
//! span-to-Table-V mapping).

use explainti_bench::{explainti_config, scale, wiki_dataset, write_json};
use explainti_core::{ExplainTi, TaskKind};
use explainti_corpus::Split;
use explainti_encoder::Variant;

fn main() {
    // Force telemetry on regardless of the environment: the whole point
    // of this binary is to capture the histograms.
    explainti_obs::set_level(explainti_obs::Level::Info);
    explainti_obs::registry().reset();

    let s = scale() * 0.25; // one cycle, small corpus: quantiles not rows
    println!("obs snapshot — instrumented train/evaluate cycle  [scale {s}]");
    let dataset = wiki_dataset(s);
    let mut cfg = explainti_config(Variant::BertLike, s);
    cfg.epochs = cfg.epochs.min(3);
    let mut model = ExplainTi::new(&dataset, cfg);
    let report = model.train();
    for kind in [TaskKind::Type, TaskKind::Relation] {
        if model.task_index(kind).is_some() {
            let f1 = model.evaluate(kind, Split::Test);
            println!("{kind:9} test F1: {f1}");
        }
    }
    println!("trained {} epochs in {:?}", report.epochs.len(), report.total_time);
    eprintln!("{}", explainti_obs::report());

    let summary = explainti_obs::summary();
    write_json("BENCH_obs", &summary);
}
