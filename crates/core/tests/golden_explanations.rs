//! Golden regression test pinning *explanation semantics* — LE window
//! relevance (KL-derived) scores and GE top-K neighbour ids — for a
//! fixed-seed tiny corpus, so kernel rewrites and refactors can't
//! silently change what the model explains (PR 3's golden-JSON pattern,
//! extended from wire bytes to explanation content).
//!
//! A second golden (`golden/trained.json`) pins what one epoch of
//! training produces on the same corpus: the hash of the trained
//! weights, each epoch's training loss and each validation F1. Training
//! runs at the process's `--threads` width, so this also checks that
//! the trained bits never depend on the width.
//!
//! Floats are pinned via `to_bits` hex, so the comparison is
//! bitwise: the PR 3 kernels are byte-identical across thread counts by
//! construction, and this test keeps them that way end-to-end.
//!
//! To re-bless after an *intentional* semantic change:
//!
//! ```text
//! EXPLAINTI_BLESS=1 cargo test -p explainti-core --test golden_explanations
//! git diff crates/core/tests/golden/  # review!
//! ```

use explainti_core::{ExplainTi, ExplainTiConfig, TaskKind};
use explainti_corpus::{generate_wiki, WikiConfig};
use serde::Serialize;
use std::path::PathBuf;

/// One probe sample's pinned explanation facts.
#[derive(Serialize)]
struct GoldenSample {
    sample: usize,
    label: usize,
    /// `f32::to_bits` of every class probability, as hex.
    prob_bits: Vec<String>,
    /// LE: (window start, relevance bits) in ranked order.
    local: Vec<(usize, String)>,
    /// GE: (training-sample id, influence bits) in ranked order.
    global: Vec<(usize, String)>,
    /// SE: (neighbour node, attention bits) in ranked order.
    structural: Vec<(usize, String)>,
}

#[derive(Serialize)]
struct Golden {
    corpus_seed: u64,
    num_tables: usize,
    samples: Vec<GoldenSample>,
}

fn bits(x: f32) -> String {
    format!("{:08x}", x.to_bits())
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(name)
}

const SEED: u64 = 4242;
const TABLES: usize = 16;

fn model(epochs: usize) -> ExplainTi {
    let d = generate_wiki(&WikiConfig { num_tables: TABLES, seed: SEED, ..Default::default() });
    let mut cfg = ExplainTiConfig::bert_like(2048, 32);
    cfg.epochs = epochs;
    ExplainTi::new(&d, cfg)
}

/// Compares `got` with the golden file `name`, or rewrites it under
/// `EXPLAINTI_BLESS`.
fn check_golden(name: &str, got: &impl Serialize) {
    let got = serde_json::to_string_pretty(got).unwrap() + "\n";
    let path = golden_path(name);
    if std::env::var("EXPLAINTI_BLESS").is_ok() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &got).unwrap();
        eprintln!("blessed {}", path.display());
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run with EXPLAINTI_BLESS=1 to create it",
            path.display()
        )
    });
    assert_eq!(
        got,
        want,
        "output drifted from {}; if the change is intentional, re-bless with \
         EXPLAINTI_BLESS=1 and review the diff",
        path.display()
    );
}

fn current() -> Golden {
    let mut model = model(1);
    for task in 0..model.tasks().len() {
        model.refresh_store(task);
    }
    let task = model.task_index(TaskKind::Type).expect("type task registered");
    let probes = &model.tasks()[task].data.train_idx;
    let probes: Vec<usize> = probes.iter().copied().take(3).collect();
    let mut samples = Vec::new();
    for idx in probes {
        let pred = model.predict(TaskKind::Type, idx);
        samples.push(GoldenSample {
            sample: idx,
            label: pred.label,
            prob_bits: pred.probs.iter().map(|&p| bits(p)).collect(),
            local: pred.explanation.local.iter().map(|s| (s.start, bits(s.relevance))).collect(),
            global: pred.explanation.global.iter().map(|g| (g.sample, bits(g.influence))).collect(),
            structural: pred
                .explanation
                .structural
                .iter()
                .map(|n| (n.node, bits(n.attention)))
                .collect(),
        });
    }
    Golden { corpus_seed: SEED, num_tables: TABLES, samples }
}

#[test]
fn explanations_match_golden() {
    check_golden("explanations.json", &current());
}

/// One epoch-and-task entry of the training report, as bits.
#[derive(Serialize)]
struct GoldenEpoch {
    epoch: usize,
    task: String,
    train_loss_bits: String,
    /// `f64::to_bits` of the validation micro, macro and weighted F1.
    valid_f1_bits: [String; 3],
}

#[derive(Serialize)]
struct GoldenTrained {
    corpus_seed: u64,
    num_tables: usize,
    epochs: usize,
    /// FNV-1a 64 of the trained weights' little-endian bytes.
    weights_fnv1a64: String,
    report: Vec<GoldenEpoch>,
}

#[test]
fn trained_weights_match_golden() {
    const EPOCHS: usize = 1;
    let mut model = model(EPOCHS);
    let report = model.train();
    let bytes: Vec<u8> =
        model.export_all_weights().iter().flat_map(|w| w.to_bits().to_le_bytes()).collect();
    let f64_bits = |x: f64| format!("{:016x}", x.to_bits());
    let got = GoldenTrained {
        corpus_seed: SEED,
        num_tables: TABLES,
        epochs: EPOCHS,
        weights_fnv1a64: format!("{:016x}", explainti_core::fnv1a64(&bytes)),
        report: report
            .epochs
            .iter()
            .map(|e| GoldenEpoch {
                epoch: e.epoch,
                task: format!("{:?}", e.task),
                train_loss_bits: bits(e.train_loss),
                valid_f1_bits: [
                    f64_bits(e.valid_f1.micro),
                    f64_bits(e.valid_f1.macro_),
                    f64_bits(e.valid_f1.weighted),
                ],
            })
            .collect(),
    };
    assert_eq!(got.report.len(), 2 * EPOCHS, "both tasks train");
    check_golden("trained.json", &got);
}

#[test]
fn golden_probes_have_all_three_views() {
    // Guard against the golden silently pinning empty vectors (which
    // would let a broken LE/GE/SE pass the bitwise comparison above).
    let g = current();
    assert_eq!(g.samples.len(), 3);
    for s in &g.samples {
        assert!(!s.prob_bits.is_empty(), "sample {}: no probabilities", s.sample);
        assert!(!s.local.is_empty(), "sample {}: LE produced no windows", s.sample);
        assert!(!s.global.is_empty(), "sample {}: GE produced no neighbours", s.sample);
    }
    // Isolated graph nodes legitimately report an empty structural view,
    // but the probe set as a whole must exercise SE.
    assert!(
        g.samples.iter().any(|s| !s.structural.is_empty()),
        "no probe sample produced a structural view"
    );
}
