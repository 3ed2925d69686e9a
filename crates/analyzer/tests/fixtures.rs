//! Fixture tests: one deliberately-violating file per error code, with
//! exact code + line/col assertions, both directions of registry drift
//! (EA003/EA004), wire-freeze drift with and without a schema bump
//! (EA005), allowlist suppression and self-hygiene (EA000) — plus a
//! smoke test that the real workspace is clean through the actual
//! binary.

use std::path::PathBuf;

use analyzer::{run, Config};

fn fixtures_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// A fixture-mode config: scan `paths` under the fixtures dir with
/// every path-scoped check forced on and no registries wired up.
fn fixture_cfg(paths: &[&str]) -> Config {
    Config {
        root: fixtures_root(),
        paths: paths.iter().map(PathBuf::from).collect(),
        allowlist: None,
        failpoints_catalog: None,
        metrics_registry: None,
        wire_fingerprint: None,
        api_file: None,
        locks_registry: None,
        all_scopes: true,
        bless: false,
    }
}

/// `(code, path, line, col)` of every diagnostic, in report order.
fn positions(report: &analyzer::Report) -> Vec<(&'static str, String, u32, u32)> {
    report.diags.iter().map(|d| (d.code, d.path.clone(), d.line, d.col)).collect()
}

#[test]
fn ea001_flags_every_nondeterminism_site() {
    let report = run(&fixture_cfg(&["ea001.rs"])).unwrap();
    let p = "ea001.rs".to_string();
    assert_eq!(
        positions(&report),
        vec![
            ("EA001", p.clone(), 4, 25),  // Instant::now
            ("EA001", p.clone(), 5, 28),  // SystemTime
            ("EA001", p.clone(), 6, 41),  // from_entropy
            ("EA001", p.clone(), 8, 18),  // map.iter()
            ("EA001", p.clone(), 10, 14), // for x in set
        ]
    );
    assert!(report.diags[0].message.contains("Instant::now"));
    assert!(report.diags[4].message.contains("for … in set"));
}

#[test]
fn ea001_scope_gate_ignores_out_of_scope_files() {
    let mut cfg = fixture_cfg(&["ea001.rs"]);
    cfg.all_scopes = false; // "ea001.rs" is not under crates/core/src/ etc.
    let report = run(&cfg).unwrap();
    assert!(report.diags.is_empty(), "out-of-scope file must not be checked: {:?}", report.diags);
}

#[test]
fn ea002_flags_undocumented_unsafe_and_inventories_all_sites() {
    let report = run(&fixture_cfg(&["ea002.rs"])).unwrap();
    let p = "ea002.rs".to_string();
    assert_eq!(
        positions(&report),
        vec![
            ("EA002", p.clone(), 7, 1),   // unsafe fn undocumented
            ("EA002", p.clone(), 14, 16), // unsafe block
        ]
    );
    assert!(report.diags[0].message.contains("`unsafe` fn"));
    assert!(report.diags[1].message.contains("`unsafe` block"));
    // All four sites are inventoried, documented or not.
    assert_eq!(report.unsafe_sites.len(), 4);
    assert_eq!(report.unsafe_sites.iter().filter(|u| u.documented).count(), 2);
}

#[test]
fn ea003_catalogue_drift_is_caught_in_both_directions() {
    let mut cfg = fixture_cfg(&["ea003.rs"]);
    cfg.failpoints_catalog = Some(fixtures_root().join("ea003.catalog"));
    let report = run(&cfg).unwrap();
    assert_eq!(
        positions(&report),
        vec![
            ("EA003", "ea003.catalog".to_string(), 3, 1), // stale entry
            ("EA003", "ea003.rs".to_string(), 8, 36),     // uncatalogued site
        ]
    );
    assert!(report.diags[0].message.contains("fixture.stale"));
    assert!(report.diags[0].message.contains("stale entry"));
    assert!(report.diags[1].message.contains("fixture.uncatalogued"));
}

#[test]
fn ea003_missing_catalogue_is_an_error() {
    let mut cfg = fixture_cfg(&["ea003.rs"]);
    cfg.failpoints_catalog = Some(fixtures_root().join("no-such.catalog"));
    let report = run(&cfg).unwrap();
    assert_eq!(report.diags.len(), 1);
    assert_eq!(report.diags[0].code, "EA003");
    assert!(report.diags[0].message.contains("missing"));
}

#[test]
fn ea004_flags_malformed_undeclared_mismatched_and_stale() {
    let mut cfg = fixture_cfg(&["ea004.rs"]);
    cfg.metrics_registry = Some(fixtures_root().join("ea004.registry"));
    let report = run(&cfg).unwrap();
    assert_eq!(
        positions(&report),
        vec![
            ("EA004", "ea004.registry".to_string(), 4, 1), // stale row
            ("EA004", "ea004.rs".to_string(), 5, 29),      // malformed name
            ("EA004", "ea004.rs".to_string(), 5, 29),      // …which is also undeclared
            ("EA004", "ea004.rs".to_string(), 6, 29),      // undeclared
            ("EA004", "ea004.rs".to_string(), 7, 30),      // kind mismatch
        ]
    );
    assert!(report.diags[0].message.contains("fixture.stale"));
    let line5: Vec<&str> = report.diags[1..3].iter().map(|d| d.message.as_str()).collect();
    assert!(line5.iter().any(|m| m.contains("not a lowercase dotted identifier")));
    assert!(line5.iter().any(|m| m.contains("not declared")));
    assert!(report.diags[4].message.contains("used as a gauge but registered as a counter"));
}

#[test]
fn ea005_shape_drift_without_version_bump_is_an_error() {
    let mut cfg = fixture_cfg(&["ea005_api.rs"]);
    cfg.api_file = Some(fixtures_root().join("ea005_api.rs"));
    cfg.wire_fingerprint = Some(fixtures_root().join("ea005.drift.fingerprint"));
    let report = run(&cfg).unwrap();
    assert_eq!(report.diags.len(), 1);
    let d = &report.diags[0];
    assert_eq!((d.code, d.path.as_str(), d.line, d.col), ("EA005", "ea005_api.rs", 1, 1));
    assert!(d.message.contains("without a SCHEMA_VERSION bump"));
}

#[test]
fn ea005_version_bump_demands_a_rebless() {
    let mut cfg = fixture_cfg(&["ea005_api.rs"]);
    cfg.api_file = Some(fixtures_root().join("ea005_api.rs"));
    cfg.wire_fingerprint = Some(fixtures_root().join("ea005.stale.fingerprint"));
    let report = run(&cfg).unwrap();
    assert_eq!(report.diags.len(), 1);
    let d = &report.diags[0];
    assert_eq!((d.code, d.path.as_str()), ("EA005", "ea005.stale.fingerprint"));
    assert!(d.message.contains("stale"));
}

#[test]
fn ea005_bless_round_trips_to_a_clean_check() {
    let fp = std::env::temp_dir().join("explainti-analyzer-ea005-bless.fingerprint");
    let _ = std::fs::remove_file(&fp);
    let mut cfg = fixture_cfg(&["ea005_api.rs"]);
    cfg.api_file = Some(fixtures_root().join("ea005_api.rs"));
    cfg.wire_fingerprint = Some(fp.clone());
    cfg.bless = true;
    let report = run(&cfg).unwrap();
    assert!(report.diags.is_empty());
    // The freshly blessed fingerprint must verify clean.
    cfg.bless = false;
    let report = run(&cfg).unwrap();
    assert!(report.diags.is_empty(), "blessed fingerprint failed to verify: {:?}", report.diags);
    let text = std::fs::read_to_string(&fp).unwrap();
    assert!(text.contains("schema_version=1"));
    assert!(text.contains("struct Wire { a, b }"));
    let _ = std::fs::remove_file(&fp);
}

#[test]
fn ea006_flags_every_panicking_shortcut() {
    let report = run(&fixture_cfg(&["ea006.rs"])).unwrap();
    let p = "ea006.rs".to_string();
    assert_eq!(
        positions(&report),
        vec![
            ("EA006", p.clone(), 4, 19), // .unwrap()
            ("EA006", p.clone(), 5, 32), // .expect(…)
            ("EA006", p.clone(), 7, 9),  // panic!
            ("EA006", p.clone(), 9, 22), // parts[0]
        ]
    );
    assert!(report.diags[3].message.contains("indexing by integer literal"));
}

#[test]
fn allowlist_suppresses_and_counts() {
    let mut cfg = fixture_cfg(&["ea006.rs"]);
    cfg.allowlist = Some(fixtures_root().join("ea006.allow"));
    let report = run(&cfg).unwrap();
    assert!(report.diags.is_empty(), "allowlisted findings resurfaced: {:?}", report.diags);
    assert_eq!(report.suppressed, 4);
}

#[test]
fn ea000_unused_allowlist_entry_is_an_error() {
    let mut cfg = fixture_cfg(&["clean.rs"]);
    cfg.allowlist = Some(fixtures_root().join("ea000.allow"));
    let report = run(&cfg).unwrap();
    assert_eq!(report.diags.len(), 1);
    let d = &report.diags[0];
    assert_eq!((d.code, d.path.as_str(), d.line), ("EA000", "ea000.allow", 3));
    assert!(d.message.contains("unused allowlist entry"));
}

#[test]
fn ea007_flags_inversion_unregistered_and_stale_registry_row() {
    let mut cfg = fixture_cfg(&["ea007.rs"]);
    cfg.locks_registry = Some(fixtures_root().join("ea007.locks"));
    let report = run(&cfg).unwrap();
    assert_eq!(
        positions(&report),
        vec![
            ("EA007", "ea007.locks".to_string(), 4, 1), // stale row
            ("EA007", "ea007.rs".to_string(), 8, 16),   // direct inversion
            ("EA007", "ea007.rs".to_string(), 14, 16),  // unregistered lock
            ("EA007", "ea007.rs".to_string(), 20, 5),   // held across call
        ]
    );
    assert!(report.diags[0].message.contains("stale entry"));
    assert!(report.diags[1].message.contains("while holding `fixture.b`"));
    assert!(report.diags[2].message.contains("unregistered lock"));
    assert!(report.diags[3].message.contains("held across a call to `helper`"));
    // The two live classes are inventoried with their ranks.
    let classes: Vec<(&str, u16)> =
        report.lock_sites.iter().map(|l| (l.class.as_str(), l.rank)).collect();
    assert!(classes.contains(&("fixture.a", 10)));
    assert!(classes.contains(&("fixture.b", 20)));
}

#[test]
fn ea007_missing_registry_is_an_error() {
    let mut cfg = fixture_cfg(&["ea007.rs"]);
    cfg.locks_registry = Some(fixtures_root().join("no-such.locks"));
    let report = run(&cfg).unwrap();
    assert_eq!(report.diags.len(), 1);
    assert_eq!(report.diags[0].code, "EA007");
    assert!(report.diags[0].message.contains("missing"));
}

#[test]
fn ea008_flags_blocking_two_hops_deep_and_non_reactor_locks() {
    let mut cfg = fixture_cfg(&["ea008/event_loop.rs", "ea008/backlog.rs"]);
    cfg.locks_registry = Some(fixtures_root().join("ea008.locks"));
    let report = run(&cfg).unwrap();
    assert_eq!(
        positions(&report),
        vec![
            ("EA008", "ea008/backlog.rs".to_string(), 10, 18), // sleep, two hops deep
            ("EA008", "ea008/backlog.rs".to_string(), 11, 18), // fs::read
            ("EA008", "ea008/event_loop.rs".to_string(), 20, 28), // non-reactor class
        ]
    );
    // The chain names every hop from the reactor entry.
    assert!(report.diags[0].message.contains("`tick` → `drain_backlog` → `persist`"));
    assert!(report.diags[1].message.contains("blocking file I/O"));
    assert!(report.diags[2].message.contains("non-reactor lock class `fixture.state`"));
    // The reactor-flagged `dirty` acquisition is sanctioned: no EA008
    // diag points at it, but it still appears in the lock inventory.
    assert!(report.lock_sites.iter().any(|l| l.class == "fixture.dirty"));
}

#[test]
fn ea009_flags_transitive_allocation_but_not_constructors() {
    let report = run(&fixture_cfg(&["ea009/nn/src/simd.rs", "ea009/nn/src/util.rs"])).unwrap();
    assert_eq!(positions(&report), vec![("EA009", "ea009/nn/src/util.rs".to_string(), 5, 5)]);
    // The allocation is reported against the helper, with the kernel
    // entry chain; the `from_*` constructor's `.to_vec()` is exempt.
    assert!(report.diags[0].message.contains("`dot` → `scratch`"));
}

#[test]
fn ea009_flags_allocation_two_calls_below_the_inference_engine() {
    let report =
        run(&fixture_cfg(&["ea009/encoder/src/infer.rs", "ea009/encoder/src/gather.rs"])).unwrap();
    assert_eq!(
        positions(&report),
        vec![("EA009", "ea009/encoder/src/gather.rs".to_string(), 4, 7)]
    );
    // Reported against the helper with the chain from the engine entry;
    // the non-entry `scratch` constructor's `vec!` is not reported.
    assert!(report.diags[0].message.contains("`forward` → `attend` → `gather`"));
}

#[test]
fn ea010_flags_undocumented_weak_orderings_and_inventories_all_sites() {
    let report = run(&fixture_cfg(&["ea010.rs"])).unwrap();
    assert_eq!(positions(&report), vec![("EA010", "ea010.rs".to_string(), 9, 20)]);
    assert!(report.diags[0].message.contains("Ordering::Relaxed"));
    // All three sites inventoried: the undocumented Relaxed, the
    // documented Relaxed, and the exempt SeqCst.
    assert_eq!(report.ordering_sites.len(), 3);
    assert_eq!(report.ordering_sites.iter().filter(|o| o.documented).count(), 1);
    assert!(report.ordering_sites.iter().any(|o| o.ordering == "SeqCst"));
}

#[test]
fn clean_file_stays_clean_under_all_scopes() {
    let report = run(&fixture_cfg(&["clean.rs"])).unwrap();
    assert!(report.diags.is_empty());
    assert_eq!(report.files_scanned, 1);
}

#[test]
fn workspace_is_clean() {
    let report = run(&Config::workspace(&workspace_root())).unwrap();
    let rendered: Vec<String> = report.diags.iter().map(|d| d.render()).collect();
    assert!(rendered.is_empty(), "workspace has analyzer findings:\n{}", rendered.join("\n"));
    // The audit surface stays intentional: growing it means new unsafe
    // code, which must come with SAFETY comments and a test plan.
    assert!(report.unsafe_sites.iter().all(|u| u.documented));
}

#[test]
fn binary_exits_nonzero_on_fixtures_and_emits_json() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_analyzer"))
        .args(["--root"])
        .arg(fixtures_root())
        .args(["--all-scopes", "--format", "json", "ea006.rs"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "expected exit 1 on a violating fixture");
    let json = String::from_utf8(out.stdout).unwrap();
    assert!(json.contains("\"code\": \"EA006\""));
    assert!(json.contains("\"error_count\": 4"));
}

#[test]
fn binary_exits_zero_on_the_workspace() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_analyzer"))
        .args(["--root"])
        .arg(workspace_root())
        .args(["--workspace"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "workspace lint failed:\n{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn binary_rejects_unknown_flags_with_usage_exit() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_analyzer"))
        .args(["--no-such-flag"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
}
