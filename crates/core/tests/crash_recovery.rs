//! Crash-recovery matrix for the snapshot protocol (DESIGN.md §11).
//!
//! For every persist failpoint site, the invariant under test is:
//! a save that dies at that site leaves a directory from which
//! `load_from_dir` either (a) loads one of the two *complete* snapshots
//! that ever existed (the old one, or — when the crash lands after the
//! manifest rename — the new one), or (b) refuses with a typed
//! [`PersistError`]. It must never produce a silently mixed model.
//!
//! The failpoint registry is process-global, so every test here
//! serialises on one mutex (cargo runs `#[test]` fns of one binary on
//! parallel threads).

use explainti_core::{fnv1a64, ExplainTi, ExplainTiConfig, Manifest, PersistError, MANIFEST_NAME};
use explainti_corpus::{generate_wiki, Dataset, WikiConfig};
use explainti_faults as faults;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard};

fn lock() -> MutexGuard<'static, ()> {
    static GUARD: Mutex<()> = Mutex::new(());
    GUARD.lock().unwrap_or_else(|e| e.into_inner())
}

fn tiny_dataset() -> Dataset {
    generate_wiki(&WikiConfig { num_tables: 16, seed: 4242, ..Default::default() })
}

/// Builds a model with the fixed model-directory convention config
/// (`load_from_dir` always reconstructs with `bert_like(2048, 32)`).
fn build_model(d: &Dataset) -> ExplainTi {
    ExplainTi::new(d, ExplainTiConfig::bert_like(2048, 32))
}

/// A deterministic probe prediction: the full probability vector over an
/// ad-hoc column (the inference path is `&self` and RNG-free, so equal
/// weights ⇒ bitwise-equal probs).
fn fingerprint(m: &ExplainTi) -> Vec<f32> {
    m.predict_column("world cities", "city", &["london", "paris", "tokyo"]).probs
}

fn test_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("explainti-{name}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Every failpoint site inside `save_to_dir`, in write order.
const SAVE_SITES: [&str; 15] = [
    "persist.before_write.corpus",
    "persist.after_write.corpus",
    "persist.after_rename.corpus",
    "persist.before_write.variant",
    "persist.after_write.variant",
    "persist.after_rename.variant",
    "persist.before_write.weights",
    "persist.after_write.weights",
    "persist.after_rename.weights",
    "persist.before_write.store",
    "persist.after_write.store",
    "persist.after_rename.store",
    "persist.before_write.manifest",
    "persist.after_write.manifest",
    "persist.after_rename.manifest",
];

#[test]
fn crash_matrix_previous_snapshot_or_typed_error() {
    let _g = lock();
    faults::clear_all();
    let d = tiny_dataset();
    let model_a = build_model(&d);
    let fp_a = fingerprint(&model_a);

    // Model B: same layout, visibly different weights, so a loaded
    // fingerprint tells us exactly which snapshot generation we got.
    let mut model_b = build_model(&d);
    let perturbed: Vec<f32> = model_b.export_all_weights().iter().map(|w| w + 0.25).collect();
    model_b.import_all_weights(&perturbed);
    let fp_b = fingerprint(&model_b);
    assert_ne!(fp_a, fp_b, "probe prediction must distinguish the snapshots");

    let dir = test_dir("crash-matrix");
    let mut saw_old = 0;
    let mut saw_new = 0;
    let mut saw_error = 0;
    for site in SAVE_SITES {
        // Fresh, complete snapshot A before every interleaving, so each
        // site is tested independently.
        faults::clear_all();
        model_a.save_to_dir(&dir, &d).expect("clean save of snapshot A");

        faults::configure(site, faults::Policy::Always);
        let saved = model_b.save_to_dir(&dir, &d);
        faults::clear_all();
        assert!(saved.is_err(), "site {site}: injected fault must surface as an error");
        assert!(faults::hit_count(site) > 0, "site {site} never tripped");

        match ExplainTi::load_from_dir(&dir) {
            Ok((m, _)) => {
                let fp = fingerprint(&m);
                if fp == fp_a {
                    saw_old += 1;
                } else if fp == fp_b {
                    // Only a crash *after* the manifest rename commits the
                    // new snapshot; anywhere earlier, loading B would mean
                    // the old manifest vouched for new bytes.
                    assert_eq!(
                        site, "persist.after_rename.manifest",
                        "site {site}: new snapshot visible before the manifest committed"
                    );
                    saw_new += 1;
                } else {
                    panic!("site {site}: loaded a model matching neither snapshot");
                }
            }
            Err(PersistError::TornSnapshot { .. } | PersistError::Corrupt { .. }) => {
                saw_error += 1;
            }
            Err(PersistError::Io(e)) => panic!("site {site}: unexpected io error: {e}"),
        }
    }
    // The matrix must exercise all three legitimate outcomes: rollback
    // to A, detectably-torn, and (manifest-committed) roll-forward to B.
    assert!(saw_old > 0, "no site rolled back to the previous snapshot");
    assert!(saw_error > 0, "no site produced a typed torn/corrupt error");
    assert_eq!(saw_new, 1, "exactly the post-manifest site commits the new snapshot");
    assert_eq!(saw_old + saw_new + saw_error, SAVE_SITES.len());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn clean_roundtrip_preserves_predictions_exactly() {
    let _g = lock();
    faults::clear_all();
    let d = tiny_dataset();
    let model = build_model(&d);
    let before = fingerprint(&model);

    let dir = test_dir("clean-roundtrip");
    model.save_to_dir(&dir, &d).unwrap();
    let (loaded, _) = ExplainTi::load_from_dir(&dir).unwrap();
    assert!(!loaded.is_degraded());
    assert_eq!(before, fingerprint(&loaded), "round-trip must be bit-exact");

    // Saving the loaded model again reproduces identical artifact bytes.
    let dir2 = test_dir("clean-roundtrip-2");
    loaded.save_to_dir(&dir2, &d).unwrap();
    for name in ["corpus.json", "variant.txt", "weights.bin", "store.bin", MANIFEST_NAME] {
        assert_eq!(
            std::fs::read(dir.join(name)).unwrap(),
            std::fs::read(dir2.join(name)).unwrap(),
            "{name} must be byte-identical across a save/load/save cycle"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&dir2).ok();
}

#[test]
fn corrupt_read_failpoints_are_detected() {
    let _g = lock();
    faults::clear_all();
    let d = tiny_dataset();
    let model = build_model(&d);
    let dir = test_dir("corrupt-read");
    model.save_to_dir(&dir, &d).unwrap();

    // (The manifest itself is not in the loop: it is verified by parsing,
    // covered in `real_on_disk_damage_is_detected_without_failpoints`.)
    for short in ["corpus", "variant", "weights", "store"] {
        faults::configure(&format!("persist.load.corrupt.{short}"), faults::Policy::Always);
        let res = ExplainTi::load_from_dir(&dir);
        faults::clear_all();
        match res {
            Err(PersistError::Corrupt { file, .. }) => {
                assert!(
                    file.to_lowercase().starts_with(&short.to_lowercase()),
                    "corrupting {short} blamed {file}"
                );
            }
            Err(e) => panic!("corrupting {short}: wrong error kind: {e}"),
            Ok(_) => panic!("corrupting {short} went undetected"),
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn real_on_disk_damage_is_detected_without_failpoints() {
    let _g = lock();
    faults::clear_all();
    let d = tiny_dataset();
    let model = build_model(&d);
    let dir = test_dir("disk-damage");

    // Truncated weights file → checksum/size mismatch.
    model.save_to_dir(&dir, &d).unwrap();
    let weights_path = dir.join("weights.bin");
    let bytes = std::fs::read(&weights_path).unwrap();
    std::fs::write(&weights_path, &bytes[..bytes.len() / 2]).unwrap();
    assert!(matches!(ExplainTi::load_from_dir(&dir), Err(PersistError::Corrupt { .. })));

    // Missing artifact → torn snapshot.
    model.save_to_dir(&dir, &d).unwrap();
    std::fs::remove_file(&weights_path).unwrap();
    assert!(matches!(ExplainTi::load_from_dir(&dir), Err(PersistError::TornSnapshot { .. })));

    // Unparsable manifest → corrupt manifest.
    model.save_to_dir(&dir, &d).unwrap();
    std::fs::write(dir.join(MANIFEST_NAME), b"{not json").unwrap();
    assert!(matches!(ExplainTi::load_from_dir(&dir), Err(PersistError::Corrupt { .. })));

    // A single flipped bit in the weights → corrupt, not a wrong model.
    model.save_to_dir(&dir, &d).unwrap();
    let mut bytes = std::fs::read(&weights_path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(&weights_path, &bytes).unwrap();
    assert!(matches!(ExplainTi::load_from_dir(&dir), Err(PersistError::Corrupt { .. })));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn ge_store_failure_degrades_instead_of_failing() {
    let _g = lock();
    faults::clear_all();
    let d = tiny_dataset();
    let model = build_model(&d);
    let dir = test_dir("degraded-load");
    model.save_to_dir(&dir, &d).unwrap();

    faults::configure("persist.load.ge", faults::Policy::Always);
    let loaded = ExplainTi::load_from_dir(&dir);
    faults::clear_all();
    let (m, _) = loaded.expect("a GE-store failure must not fail the whole load");
    assert!(m.is_degraded(), "degraded flag must be set");
    let pred = m.predict_column("world cities", "city", &["london", "paris"]);
    assert!(
        pred.explanation.global.is_empty(),
        "degraded mode serves predictions with empty global explanations"
    );
    assert!(!pred.probs.is_empty(), "the prediction itself still works");
    std::fs::remove_dir_all(&dir).ok();
}

/// Replaces `name` in the snapshot at `dir` with `bytes` and re-lists it
/// in the manifest with their true size and checksum, so only the
/// loader's content checks stand between the bytes and a model.
fn rewrite_listed(dir: &Path, name: &str, bytes: &[u8]) {
    std::fs::write(dir.join(name), bytes).unwrap();
    let path = dir.join(MANIFEST_NAME);
    let mut manifest: Manifest =
        serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
    let entry = manifest.files.iter_mut().find(|f| f.name == name).expect("listed artifact");
    entry.bytes = bytes.len() as u64;
    entry.fnv1a64 = format!("{:016x}", fnv1a64(bytes));
    std::fs::write(&path, serde_json::to_string_pretty(&manifest).unwrap()).unwrap();
}

/// A `store.bin` that passes its checksum but disagrees with the corpus
/// or with `weights.bin` is refused as `Corrupt { file: "store.bin" }`,
/// without a panic. Header offsets: stamp 8..16, dim 16..20, task count
/// 20..24, then one u64 row count per task.
#[test]
fn store_bin_disagreeing_with_weights_or_corpus_is_corrupt() {
    let _g = lock();
    faults::clear_all();
    let d = tiny_dataset();
    let model = build_model(&d);
    let tasks = model.tasks().len() as u32;
    assert_eq!(tasks, 2, "the probe corpus registers both tasks");
    let dir = test_dir("store-mismatch");
    model.save_to_dir(&dir, &d).unwrap();
    let good = std::fs::read(dir.join("store.bin")).unwrap();
    let field = |at: usize, value: &[u8]| {
        let mut b = good.clone();
        b[at..at + value.len()].copy_from_slice(value);
        b
    };
    let dim = u32::from_le_bytes(good[16..20].try_into().unwrap());
    let stamp = u64::from_le_bytes(good[8..16].try_into().unwrap());
    let header = 24 + 8 * tasks as usize;
    let mut cases: Vec<(String, Vec<u8>)> = vec![
        ("a truncated row".into(), good[..good.len() - 2].to_vec()),
        ("an extra row".into(), [&good[..], &good[header..header + 4 * dim as usize]].concat()),
        ("a wrong task count".into(), field(20, &(tasks - 1).to_le_bytes())),
        ("too many tasks".into(), field(20, &u32::MAX.to_le_bytes())),
        ("a wrong width".into(), field(16, &(dim + 1).to_le_bytes())),
        ("a foreign stamp".into(), field(8, &(stamp ^ 1).to_le_bytes())),
        ("a wrong row count".into(), field(24, &u64::MAX.to_le_bytes())),
        ("a bad magic".into(), field(0, b"EXPLTI01")),
    ];
    for cut in [0, 7, 8, 23, 24, header - 1, header] {
        cases.push((format!("a file cut at byte {cut}"), good[..cut].to_vec()));
    }
    for (what, bytes) in cases {
        model.save_to_dir(&dir, &d).unwrap();
        rewrite_listed(&dir, "store.bin", &bytes);
        match ExplainTi::load_from_dir(&dir) {
            Err(PersistError::Corrupt { file, .. }) => {
                assert_eq!(file, "store.bin", "{what} blamed {file}")
            }
            Err(e) => panic!("{what}: wrong error kind: {e}"),
            Ok(_) => panic!("{what} loaded"),
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A version-1 snapshot (no `store.bin`) is refused with a typed error
/// that names the manifest and says how to get a current snapshot.
#[test]
fn a_version_1_snapshot_is_a_typed_format_error() {
    let _g = lock();
    faults::clear_all();
    let d = tiny_dataset();
    let model = build_model(&d);
    let dir = test_dir("format-v1");
    model.save_to_dir(&dir, &d).unwrap();
    let path = dir.join(MANIFEST_NAME);
    let mut manifest: Manifest =
        serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
    manifest.format_version = 1;
    manifest.files.retain(|f| f.name != "store.bin");
    std::fs::remove_file(dir.join("store.bin")).unwrap();
    std::fs::write(&path, serde_json::to_string_pretty(&manifest).unwrap()).unwrap();
    match ExplainTi::load_from_dir(&dir) {
        Err(PersistError::Corrupt { file, detail }) => {
            assert_eq!(file, MANIFEST_NAME);
            assert!(detail.contains("format_version 1") && detail.contains("re-run `train`"));
        }
        Err(e) => panic!("wrong error kind: {e}"),
        Ok(_) => panic!("a version-1 snapshot loaded"),
    }
    std::fs::remove_dir_all(&dir).ok();
}
