//! The CLI driver behind both entry points: the standalone `analyzer`
//! binary (`cargo run -p analyzer -- …`) and the root CLI's `analyze`
//! subcommand (`explainti analyze …`).
//!
//! ```text
//! cargo run -p analyzer -- --workspace                 # lint the repo, exit 1 on findings
//! cargo run -p analyzer -- --workspace --format json   # CI artifact output
//! cargo run -p analyzer -- --workspace --bless         # re-freeze crates/api/wire.fingerprint
//! cargo run -p analyzer -- --emit-metrics-md           # README metrics table from the registry
//! cargo run -p analyzer -- --all-scopes path/to/file.rs  # fixture mode
//! ```
//!
//! Exit codes: 0 clean, 1 findings, 2 usage or I/O error.

use std::path::PathBuf;
use std::process::ExitCode;

use crate::{checks, Config};

const USAGE: &str = "\
usage: analyzer [--workspace | PATH…] [options]

options:
  --workspace              lint the whole repo (src/ + crates/*/src/) with default registries
  --root DIR               workspace root (default: current directory)
  --format text|json       output format (default text)
  --allowlist FILE         suppression file (workspace default: analyzer.allow)
  --failpoints-catalog F   EA003 catalogue (workspace default: crates/faults/FAILPOINTS.catalog)
  --metrics-registry F     EA004 registry (workspace default: crates/obs/METRICS.registry)
  --wire-fingerprint F     EA005 fingerprint (workspace default: crates/api/wire.fingerprint)
  --api-file F             EA005 DTO source (workspace default: crates/api/src/lib.rs)
  --unsafe-inventory F     also write the EA002 unsafe-site inventory JSON to F
  --locks-registry F       EA007 lock classes (workspace default: crates/sync/LOCKS.registry)
  --lock-inventory F       also write the EA007 lock-site + EA010 ordering inventories JSON to F
  --emit-metrics-md        print the README metrics table from the registry and exit
  --all-scopes             treat every scanned file as in scope for EA001/EA006 (fixture mode)
  --bless                  regenerate crates/api/wire.fingerprint from the current DTO shape
";

fn fail(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    eprintln!("{USAGE}");
    ExitCode::from(2)
}

/// Parses `argv` (without the program/subcommand name) and runs the
/// analysis, returning the process exit code.
pub fn main_with_args(argv: &[String]) -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut workspace = false;
    let mut paths: Vec<PathBuf> = Vec::new();
    let mut format = "text".to_string();
    let mut allowlist: Option<PathBuf> = None;
    let mut catalog: Option<PathBuf> = None;
    let mut registry: Option<PathBuf> = None;
    let mut fingerprint: Option<PathBuf> = None;
    let mut api_file: Option<PathBuf> = None;
    let mut inventory_out: Option<PathBuf> = None;
    let mut locks_registry: Option<PathBuf> = None;
    let mut lock_inventory_out: Option<PathBuf> = None;
    let mut emit_metrics_md = false;
    let mut all_scopes = false;
    let mut bless = false;

    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value_for = |flag: &str| -> Result<PathBuf, String> {
            it.next().map(PathBuf::from).ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--workspace" => workspace = true,
            "--root" => match value_for("--root") {
                Ok(v) => root = v,
                Err(e) => return fail(&e),
            },
            "--format" => match it.next() {
                Some(v) if v == "text" || v == "json" => format = v.clone(),
                _ => return fail("--format must be text or json"),
            },
            "--allowlist" => match value_for("--allowlist") {
                Ok(v) => allowlist = Some(v),
                Err(e) => return fail(&e),
            },
            "--failpoints-catalog" => match value_for("--failpoints-catalog") {
                Ok(v) => catalog = Some(v),
                Err(e) => return fail(&e),
            },
            "--metrics-registry" => match value_for("--metrics-registry") {
                Ok(v) => registry = Some(v),
                Err(e) => return fail(&e),
            },
            "--wire-fingerprint" => match value_for("--wire-fingerprint") {
                Ok(v) => fingerprint = Some(v),
                Err(e) => return fail(&e),
            },
            "--api-file" => match value_for("--api-file") {
                Ok(v) => api_file = Some(v),
                Err(e) => return fail(&e),
            },
            "--unsafe-inventory" => match value_for("--unsafe-inventory") {
                Ok(v) => inventory_out = Some(v),
                Err(e) => return fail(&e),
            },
            "--locks-registry" => match value_for("--locks-registry") {
                Ok(v) => locks_registry = Some(v),
                Err(e) => return fail(&e),
            },
            "--lock-inventory" => match value_for("--lock-inventory") {
                Ok(v) => lock_inventory_out = Some(v),
                Err(e) => return fail(&e),
            },
            "--emit-metrics-md" => emit_metrics_md = true,
            "--all-scopes" => all_scopes = true,
            "--bless" => bless = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            flag if flag.starts_with("--") => return fail(&format!("unknown flag {flag}")),
            path => paths.push(PathBuf::from(path)),
        }
    }

    if emit_metrics_md {
        let reg = registry.unwrap_or_else(|| root.join("crates/obs/METRICS.registry"));
        let text = match std::fs::read_to_string(&reg) {
            Ok(t) => t,
            Err(e) => return fail(&format!("read {}: {e}", reg.display())),
        };
        let mut diags = Vec::new();
        let entries = checks::parse_metrics_registry(&reg.to_string_lossy(), &text, &mut diags);
        for d in &diags {
            eprintln!("{}", d.render());
        }
        print!("{}", checks::metrics_markdown(&entries));
        return if diags.is_empty() { ExitCode::SUCCESS } else { ExitCode::FAILURE };
    }

    if !workspace && paths.is_empty() {
        return fail("nothing to do: pass --workspace or explicit paths");
    }

    let mut cfg = if workspace {
        Config::workspace(&root)
    } else {
        Config {
            root: root.clone(),
            paths: Vec::new(),
            allowlist: None,
            failpoints_catalog: None,
            metrics_registry: None,
            wire_fingerprint: None,
            api_file: None,
            locks_registry: None,
            all_scopes: false,
            bless: false,
        }
    };
    cfg.paths = paths;
    cfg.all_scopes = all_scopes;
    cfg.bless = bless;
    if let Some(v) = allowlist {
        cfg.allowlist = Some(v);
    }
    if let Some(v) = catalog {
        cfg.failpoints_catalog = Some(v);
    }
    if let Some(v) = registry {
        cfg.metrics_registry = Some(v);
    }
    if let Some(v) = fingerprint {
        cfg.wire_fingerprint = Some(v);
    }
    if let Some(v) = api_file {
        cfg.api_file = Some(v);
    }
    if let Some(v) = locks_registry {
        cfg.locks_registry = Some(v);
    }
    if cfg.bless && cfg.wire_fingerprint.is_none() {
        cfg.wire_fingerprint = Some(root.join("crates/api/wire.fingerprint"));
        cfg.api_file = Some(root.join("crates/api/src/lib.rs"));
    }

    let report = match crate::run(&cfg) {
        Ok(r) => r,
        Err(e) => return fail(&format!("analysis failed: {e}")),
    };

    if let Some(out) = inventory_out {
        let mut s = String::from("[\n");
        for (i, u) in report.unsafe_sites.iter().enumerate() {
            s.push_str(&format!(
                "  {{\"path\": \"{}\", \"line\": {}, \"col\": {}, \"kind\": \"{}\", \"documented\": {}}}{}\n",
                crate::json_escape(&u.path),
                u.line,
                u.col,
                u.kind,
                u.documented,
                if i + 1 < report.unsafe_sites.len() { "," } else { "" }
            ));
        }
        s.push_str("]\n");
        if let Err(e) = std::fs::write(&out, s) {
            return fail(&format!("write {}: {e}", out.display()));
        }
    }

    if let Some(out) = lock_inventory_out {
        let mut s = String::from("{\n  \"lock_inventory\": [\n");
        for (i, l) in report.lock_sites.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"path\": \"{}\", \"line\": {}, \"col\": {}, \"class\": \"{}\", \"rank\": {}, \"receiver\": \"{}\"}}{}\n",
                crate::json_escape(&l.path),
                l.line,
                l.col,
                crate::json_escape(&l.class),
                l.rank,
                crate::json_escape(&l.receiver),
                if i + 1 < report.lock_sites.len() { "," } else { "" }
            ));
        }
        s.push_str("  ],\n  \"ordering_inventory\": [\n");
        for (i, o) in report.ordering_sites.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"path\": \"{}\", \"line\": {}, \"col\": {}, \"ordering\": \"{}\", \"documented\": {}}}{}\n",
                crate::json_escape(&o.path),
                o.line,
                o.col,
                o.ordering,
                o.documented,
                if i + 1 < report.ordering_sites.len() { "," } else { "" }
            ));
        }
        s.push_str("  ]\n}\n");
        if let Err(e) = std::fs::write(&out, s) {
            return fail(&format!("write {}: {e}", out.display()));
        }
    }

    match format.as_str() {
        "json" => print!("{}", report.to_json()),
        _ => {
            for d in &report.diags {
                println!("{}", d.render());
            }
            let counts = report.counts_by_code();
            let breakdown: Vec<String> = counts.iter().map(|(c, n)| format!("{n}x {c}")).collect();
            eprintln!(
                "analyzer: {} file(s) scanned, {} unsafe site(s) inventoried, {} finding(s){}{}",
                report.files_scanned,
                report.unsafe_sites.len(),
                report.diags.len(),
                if breakdown.is_empty() {
                    String::new()
                } else {
                    format!(" ({})", breakdown.join(", "))
                },
                if report.suppressed > 0 {
                    format!(", {} suppressed by allowlist", report.suppressed)
                } else {
                    String::new()
                }
            );
        }
    }
    if report.diags.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
