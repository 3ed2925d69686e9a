//! # analyzer — repo-specific invariant lints for the ExplainTI workspace
//!
//! A dependency-free static-analysis pass that turns this repository's
//! conventions into CI-gated errors. It scans the workspace's Rust
//! sources with a hand-rolled token scanner ([`lexer`]) and enforces
//! ten invariants, each with a stable error code:
//!
//! | code  | invariant |
//! |-------|-----------|
//! | EA001 | determinism: no wall clocks, entropy RNGs, or hash-order iteration in inference/explanation crates |
//! | EA002 | every `unsafe` site carries a `// SAFETY:` comment (plus a machine-readable inventory) |
//! | EA003 | every failpoint site literal appears exactly once in `crates/faults/FAILPOINTS.catalog`, and vice versa |
//! | EA004 | every metric name literal is declared (with the right kind) in `crates/obs/METRICS.registry`, and vice versa |
//! | EA005 | the `crates/api` DTO shape matches the committed `crates/api/wire.fingerprint` unless `SCHEMA_VERSION` was bumped |
//! | EA006 | no `unwrap`/`expect`/`panic!`-family macros or indexing-by-literal in the `crates/serve` request path |
//! | EA007 | every lock acquisition maps to a class in `crates/sync/LOCKS.registry`, and no path through the [call graph](callgraph) inverts the declared rank order |
//! | EA008 | the epoll reactor thread never blocks: no sleeps/joins/receives, no file I/O, no non-`reactor` lock classes in its transitive reach |
//! | EA009 | the SIMD kernel paths and the inference encoder's `forward` never heap-allocate transitively — scratch comes from callers |
//! | EA010 | every weakened atomic `Ordering::…` site carries a `// ORDERING:` justification (plus a machine-readable inventory) |
//!
//! EA007–EA009 run on the whole-workspace [call graph](callgraph) —
//! a conservative, intra-crate approximation whose soundness limits
//! are documented in DESIGN.md §17. The runtime shadow-lock verifier
//! in `explainti-sync` is the dynamic complement for what the static
//! pass cannot see.
//!
//! Findings can be suppressed via a committed allowlist (`analyzer.allow`);
//! unused allowlist entries are themselves an error (EA000), so the file
//! can only shrink, never rot. See DESIGN.md §12 for the rationale that
//! maps each invariant back to a guarantee the paper's evaluation
//! depends on.

#![warn(missing_docs)]

pub mod callgraph;
pub mod checks;
pub mod cli;
pub mod lexer;
pub mod locks;

use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};

use lexer::{lex, Tok};

/// Stable diagnostic codes. `EA000` is reserved for analyzer
/// self-hygiene (unused suppressions, malformed registry files).
pub const CODES: [&str; 11] = [
    "EA000", "EA001", "EA002", "EA003", "EA004", "EA005", "EA006", "EA007", "EA008", "EA009",
    "EA010",
];

/// One finding, pointing at a source position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diag {
    /// Stable error code (`EA001`…).
    pub code: &'static str,
    /// Path relative to the workspace root (or the registry file).
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Human-readable description of the violation.
    pub message: String,
}

impl Diag {
    /// rustc-style rendering: `path:line:col: error[EAnnn]: message`.
    pub fn render(&self) -> String {
        format!("{}:{}:{}: error[{}]: {}", self.path, self.line, self.col, self.code, self.message)
    }
}

/// One `unsafe` occurrence, for the EA002 inventory artifact.
#[derive(Debug, Clone)]
pub struct UnsafeSite {
    /// Path relative to the workspace root.
    pub path: String,
    /// 1-based line of the `unsafe` keyword.
    pub line: u32,
    /// 1-based column of the `unsafe` keyword.
    pub col: u32,
    /// `impl`, `fn`, `block`, `extern`, or `trait`.
    pub kind: &'static str,
    /// Whether a `SAFETY:` comment was found.
    pub documented: bool,
}

/// One registered lock-acquisition site, for the EA007 inventory
/// artifact.
#[derive(Debug, Clone)]
pub struct LockSite {
    /// Path relative to the workspace root.
    pub path: String,
    /// 1-based line of the `lock`/`read`/`write` identifier.
    pub line: u32,
    /// 1-based column of the `lock`/`read`/`write` identifier.
    pub col: u32,
    /// The `LOCKS.registry` class this site maps to.
    pub class: String,
    /// The class's rank in the declared acquisition order.
    pub rank: u16,
    /// The receiver identifier at the site.
    pub receiver: String,
}

/// One atomic memory-ordering site, for the EA010 inventory artifact.
#[derive(Debug, Clone)]
pub struct OrderingSite {
    /// Path relative to the workspace root.
    pub path: String,
    /// 1-based line of the `Ordering` token.
    pub line: u32,
    /// 1-based column of the `Ordering` token.
    pub col: u32,
    /// `Relaxed`, `Acquire`, `Release`, `AcqRel`, or `SeqCst`.
    pub ordering: String,
    /// Whether an `ORDERING:` comment was found (always true for the
    /// sites that pass; `SeqCst` needs none).
    pub documented: bool,
}

/// A lexed source file plus the derived views the checks need.
pub struct SourceFile {
    /// Path relative to the workspace root, with `/` separators.
    pub rel_path: String,
    /// Raw source lines (for comment-adjacency heuristics).
    pub lines: Vec<String>,
    /// All tokens, comments included.
    pub toks: Vec<Tok>,
    /// `mask[i]` is true when token `i` sits inside a `#[cfg(test)]`
    /// item (those tokens are invisible to every check).
    pub test_mask: Vec<bool>,
    /// Indices into `toks` of non-comment tokens outside test code —
    /// the view every check walks.
    pub code: Vec<usize>,
}

impl SourceFile {
    /// Lexes `text` and computes the test mask and code view.
    pub fn parse(rel_path: &str, text: &str) -> Self {
        let toks = lex(text);
        let test_mask = compute_test_mask(&toks);
        let code = toks
            .iter()
            .enumerate()
            .filter(|(i, t)| !t.is_comment() && !test_mask[*i])
            .map(|(i, _)| i)
            .collect();
        Self {
            rel_path: rel_path.to_string(),
            lines: text.lines().map(str::to_string).collect(),
            toks,
            test_mask,
            code,
        }
    }

    /// The token for code-view index `ci`.
    pub fn tok(&self, ci: usize) -> &Tok {
        &self.toks[self.code[ci]]
    }
}

/// Marks every token belonging to a `#[cfg(test)]`-gated item.
///
/// Heuristic, not a full parser: after a `#[cfg(…)]` attribute whose
/// argument tokens include the ident `test`, the following item is
/// masked — up to the matching `}` of its first `{`, or to the first
/// top-level `;` for brace-less items (`use`, type aliases).
fn compute_test_mask(toks: &[Tok]) -> Vec<bool> {
    let mut mask = vec![false; toks.len()];
    let code: Vec<usize> =
        toks.iter().enumerate().filter(|(_, t)| !t.is_comment()).map(|(i, _)| i).collect();
    let mut ci = 0usize;
    while ci + 4 < code.len() {
        let is_cfg_test = toks[code[ci]].is_punct('#')
            && toks[code[ci + 1]].is_punct('[')
            && toks[code[ci + 2]].is_ident("cfg")
            && toks[code[ci + 3]].is_punct('(');
        if !is_cfg_test {
            ci += 1;
            continue;
        }
        // Scan the attribute argument for the ident `test`.
        let mut j = ci + 4;
        let mut depth = 1i32;
        let mut has_test = false;
        while j < code.len() && depth > 0 {
            let t = &toks[code[j]];
            if t.is_punct('(') {
                depth += 1;
            } else if t.is_punct(')') {
                depth -= 1;
            } else if t.is_ident("test") {
                has_test = true;
            }
            j += 1;
        }
        if !has_test || j >= code.len() || !toks[code[j]].is_punct(']') {
            ci += 1;
            continue;
        }
        let attr_start = ci;
        let mut k = j + 1; // first token of the gated item (or next attr)
        let mut brace_depth = 0i32;
        let mut entered = false;
        while k < code.len() {
            let t = &toks[code[k]];
            if t.is_punct('{') {
                brace_depth += 1;
                entered = true;
            } else if t.is_punct('}') {
                brace_depth -= 1;
                if entered && brace_depth == 0 {
                    break;
                }
            } else if t.is_punct(';') && !entered {
                break;
            }
            k += 1;
        }
        let start_tok = code[attr_start];
        let end_tok = if k < code.len() { code[k] } else { *code.last().unwrap_or(&0) };
        for (i, m) in mask.iter_mut().enumerate() {
            if i >= start_tok && i <= end_tok {
                *m = true;
            }
        }
        ci = k + 1;
    }
    // Comments inside masked regions inherit the mask (any comment
    // between two masked tokens).
    mask
}

// ---- Allowlist --------------------------------------------------------

/// One suppression entry: `CODE path [reason…]`. A path ending in `/`
/// suppresses the whole subtree.
pub struct AllowEntry {
    /// The suppressed code (`EA001`…).
    pub code: String,
    /// Workspace-relative path or directory prefix.
    pub path: String,
    /// Line in the allowlist file (for unused-entry diagnostics).
    pub line: u32,
    /// How many findings this entry suppressed in the current run.
    pub used: u32,
}

/// Parsed `analyzer.allow` file.
pub struct Allowlist {
    /// Workspace-relative path of the allowlist file itself.
    pub path: String,
    /// Entries in file order.
    pub entries: Vec<AllowEntry>,
}

impl Allowlist {
    /// Parses the suppression file. Unknown codes are an immediate
    /// EA000 (pushed into `diags`).
    pub fn parse(path: &str, text: &str, diags: &mut Vec<Diag>) -> Self {
        let mut entries = Vec::new();
        for (idx, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let mut fields = line.split_whitespace();
            let (Some(code), Some(p)) = (fields.next(), fields.next()) else {
                diags.push(Diag {
                    code: "EA000",
                    path: path.to_string(),
                    line: idx as u32 + 1,
                    col: 1,
                    message: format!("malformed allowlist entry {line:?}: expected `CODE path`"),
                });
                continue;
            };
            if !CODES.contains(&code) {
                diags.push(Diag {
                    code: "EA000",
                    path: path.to_string(),
                    line: idx as u32 + 1,
                    col: 1,
                    message: format!("unknown code {code:?} in allowlist entry"),
                });
                continue;
            }
            let code =
                CODES.iter().find(|c| **c == code).map(|c| c.to_string()).unwrap_or_default();
            entries.push(AllowEntry { code, path: p.to_string(), line: idx as u32 + 1, used: 0 });
        }
        Self { path: path.to_string(), entries }
    }

    fn suppresses(&mut self, d: &Diag) -> bool {
        for e in &mut self.entries {
            let hit = e.code == d.code
                && (e.path == d.path || (e.path.ends_with('/') && d.path.starts_with(&e.path)));
            if hit {
                e.used += 1;
                return true;
            }
        }
        false
    }
}

// ---- Configuration and driver -----------------------------------------

/// What to scan and which baseline files to reconcile against.
pub struct Config {
    /// Workspace root; every reported path is relative to it.
    pub root: PathBuf,
    /// Explicit files/directories to scan. Empty means the default
    /// workspace set: `src/` and every `crates/*/src/`.
    pub paths: Vec<PathBuf>,
    /// Suppression file (default `analyzer.allow` when present).
    pub allowlist: Option<PathBuf>,
    /// Failpoint catalogue for EA003 (`None` skips the check).
    pub failpoints_catalog: Option<PathBuf>,
    /// Metric-name registry for EA004 (`None` skips the check).
    pub metrics_registry: Option<PathBuf>,
    /// Committed wire fingerprint for EA005 (`None` skips the check).
    pub wire_fingerprint: Option<PathBuf>,
    /// The DTO source file EA005 fingerprints.
    pub api_file: Option<PathBuf>,
    /// Lock-class registry for EA007/EA008 (`None` skips both checks).
    pub locks_registry: Option<PathBuf>,
    /// Treat every scanned file as in scope for the path-scoped checks
    /// (EA001, EA006) — used by fixture tests.
    pub all_scopes: bool,
    /// Re-bless the wire fingerprint instead of checking it.
    pub bless: bool,
}

impl Config {
    /// Workspace-mode configuration rooted at `root`, with all default
    /// registry locations.
    pub fn workspace(root: &Path) -> Self {
        Self {
            root: root.to_path_buf(),
            paths: Vec::new(),
            allowlist: Some(root.join("analyzer.allow")),
            failpoints_catalog: Some(root.join("crates/faults/FAILPOINTS.catalog")),
            metrics_registry: Some(root.join("crates/obs/METRICS.registry")),
            wire_fingerprint: Some(root.join("crates/api/wire.fingerprint")),
            api_file: Some(root.join("crates/api/src/lib.rs")),
            locks_registry: Some(root.join("crates/sync/LOCKS.registry")),
            all_scopes: false,
            bless: false,
        }
    }
}

/// Everything one run produced.
pub struct Report {
    /// Findings that survived the allowlist, sorted by position.
    pub diags: Vec<Diag>,
    /// How many findings the allowlist suppressed.
    pub suppressed: usize,
    /// Every `unsafe` site encountered (EA002 inventory).
    pub unsafe_sites: Vec<UnsafeSite>,
    /// Every registered lock-acquisition site (EA007 inventory).
    pub lock_sites: Vec<LockSite>,
    /// Every atomic memory-ordering site (EA010 inventory).
    pub ordering_sites: Vec<OrderingSite>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
}

/// Directories never scanned: build output, vendored stand-in crates
/// (third-party API surface, not ours), and the analyzer's own violation
/// fixtures.
const SKIP_DIRS: [&str; 4] = ["target", "vendor", "fixtures", ".git"];

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> =
        std::fs::read_dir(dir)?.filter_map(|e| e.ok().map(|e| e.path())).collect();
    entries.sort();
    for path in entries {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            if SKIP_DIRS.contains(&name) || name == "tests" || name == "benches" {
                continue;
            }
            collect_rs_files(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// The default workspace scan set: the root binary's `src/` and every
/// workspace crate's `src/` (integration `tests/` directories and
/// `vendor/` are exercised by the compiler and Miri, not by this pass).
pub fn workspace_files(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    let src = root.join("src");
    if src.is_dir() {
        collect_rs_files(&src, &mut files)?;
    }
    let crates = root.join("crates");
    if crates.is_dir() {
        let mut members: Vec<PathBuf> =
            std::fs::read_dir(&crates)?.filter_map(|e| e.ok().map(|e| e.path())).collect();
        members.sort();
        for member in members {
            let msrc = member.join("src");
            if msrc.is_dir() {
                collect_rs_files(&msrc, &mut files)?;
            }
        }
    }
    Ok(files)
}

fn rel_path(root: &Path, path: &Path) -> String {
    path.strip_prefix(root).unwrap_or(path).to_string_lossy().replace('\\', "/")
}

/// Runs every configured check over the configured scan set.
pub fn run(cfg: &Config) -> io::Result<Report> {
    let mut files = Vec::new();
    let list = if cfg.paths.is_empty() {
        workspace_files(&cfg.root)?
    } else {
        let mut out = Vec::new();
        for p in &cfg.paths {
            let p = if p.is_absolute() { p.clone() } else { cfg.root.join(p) };
            if p.is_dir() {
                collect_rs_files(&p, &mut out)?;
            } else {
                out.push(p);
            }
        }
        out
    };
    for path in &list {
        let text = std::fs::read_to_string(path)?;
        files.push(SourceFile::parse(&rel_path(&cfg.root, path), &text));
    }

    let mut diags: Vec<Diag> = Vec::new();
    let mut unsafe_sites: Vec<UnsafeSite> = Vec::new();
    let mut lock_sites: Vec<LockSite> = Vec::new();
    let mut ordering_sites: Vec<OrderingSite> = Vec::new();

    for f in &files {
        checks::ea001_determinism(f, cfg, &mut diags);
        checks::ea002_unsafe_audit(f, &mut diags, &mut unsafe_sites);
        checks::ea006_panic_paths(f, cfg, &mut diags);
    }
    if let Some(cat) = &cfg.failpoints_catalog {
        checks::ea003_failpoints(&files, &cfg.root, cat, &mut diags)?;
    }
    if let Some(reg) = &cfg.metrics_registry {
        checks::ea004_metrics(&files, &cfg.root, reg, &mut diags)?;
    }
    if let (Some(fp), Some(api)) = (&cfg.wire_fingerprint, &cfg.api_file) {
        checks::ea005_wire_freeze(&files, &cfg.root, fp, api, cfg.bless, &mut diags)?;
    }

    // The call-graph-backed concurrency checks (EA007–EA010).
    let cg = callgraph::CallGraph::build(&files);
    if let Some(reg_path) = &cfg.locks_registry {
        if let Some(mut reg) = locks::load_registry(&cfg.root, reg_path, &mut diags)? {
            locks::ea007_lock_order(&cg, &mut reg, &mut diags, &mut lock_sites);
            locks::ea008_reactor_purity(&files, &cg, &reg, &mut diags);
        }
    }
    locks::ea009_hot_alloc(&files, &cg, &mut diags);
    locks::ea010_ordering_audit(&files, &mut diags, &mut ordering_sites);

    // Apply the allowlist, then flag entries that suppressed nothing.
    let mut suppressed = 0usize;
    if let Some(allow_path) = &cfg.allowlist {
        if allow_path.is_file() {
            let text = std::fs::read_to_string(allow_path)?;
            let rel = rel_path(&cfg.root, allow_path);
            let mut pre = Vec::new();
            let mut allow = Allowlist::parse(&rel, &text, &mut pre);
            diags.retain(|d| {
                let s = allow.suppresses(d);
                suppressed += s as usize;
                !s
            });
            diags.extend(pre);
            for e in &allow.entries {
                if e.used == 0 {
                    diags.push(Diag {
                        code: "EA000",
                        path: allow.path.clone(),
                        line: e.line,
                        col: 1,
                        message: format!(
                            "unused allowlist entry `{} {}` — delete it (suppressions must never outlive their finding)",
                            e.code, e.path
                        ),
                    });
                }
            }
        }
    }

    diags.sort_by(|a, b| {
        (a.path.as_str(), a.line, a.col, a.code).cmp(&(b.path.as_str(), b.line, b.col, b.code))
    });
    unsafe_sites.sort_by(|a, b| (a.path.as_str(), a.line).cmp(&(b.path.as_str(), b.line)));
    lock_sites
        .sort_by(|a, b| (a.path.as_str(), a.line, a.col).cmp(&(b.path.as_str(), b.line, b.col)));
    ordering_sites
        .sort_by(|a, b| (a.path.as_str(), a.line, a.col).cmp(&(b.path.as_str(), b.line, b.col)));
    Ok(Report {
        diags,
        suppressed,
        unsafe_sites,
        lock_sites,
        ordering_sites,
        files_scanned: files.len(),
    })
}

// ---- Output rendering -------------------------------------------------

/// Escapes a string for inclusion in a JSON document.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

impl Report {
    /// The run as a JSON document (diagnostics + unsafe inventory),
    /// suitable as a CI artifact.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n  \"diagnostics\": [\n");
        for (i, d) in self.diags.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"code\": \"{}\", \"path\": \"{}\", \"line\": {}, \"col\": {}, \"message\": \"{}\"}}{}\n",
                d.code,
                json_escape(&d.path),
                d.line,
                d.col,
                json_escape(&d.message),
                if i + 1 < self.diags.len() { "," } else { "" }
            ));
        }
        s.push_str("  ],\n  \"unsafe_inventory\": [\n");
        for (i, u) in self.unsafe_sites.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"path\": \"{}\", \"line\": {}, \"col\": {}, \"kind\": \"{}\", \"documented\": {}}}{}\n",
                json_escape(&u.path),
                u.line,
                u.col,
                u.kind,
                u.documented,
                if i + 1 < self.unsafe_sites.len() { "," } else { "" }
            ));
        }
        s.push_str("  ],\n  \"lock_inventory\": [\n");
        for (i, l) in self.lock_sites.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"path\": \"{}\", \"line\": {}, \"col\": {}, \"class\": \"{}\", \"rank\": {}, \"receiver\": \"{}\"}}{}\n",
                json_escape(&l.path),
                l.line,
                l.col,
                json_escape(&l.class),
                l.rank,
                json_escape(&l.receiver),
                if i + 1 < self.lock_sites.len() { "," } else { "" }
            ));
        }
        s.push_str("  ],\n  \"ordering_inventory\": [\n");
        for (i, o) in self.ordering_sites.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"path\": \"{}\", \"line\": {}, \"col\": {}, \"ordering\": \"{}\", \"documented\": {}}}{}\n",
                json_escape(&o.path),
                o.line,
                o.col,
                o.ordering,
                o.documented,
                if i + 1 < self.ordering_sites.len() { "," } else { "" }
            ));
        }
        s.push_str(&format!(
            "  ],\n  \"files_scanned\": {},\n  \"suppressed\": {},\n  \"error_count\": {}\n}}\n",
            self.files_scanned,
            self.suppressed,
            self.diags.len()
        ));
        s
    }

    /// Summarises counts per code, for the text footer.
    pub fn counts_by_code(&self) -> BTreeMap<&'static str, usize> {
        let mut m = BTreeMap::new();
        for d in &self.diags {
            *m.entry(d.code).or_insert(0) += 1;
        }
        m
    }
}

/// FNV-1a 64 over `bytes` (same constants as `explainti-core`'s
/// snapshot checksums — one hash family across the repo's integrity
/// checks).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x100000001b3);
    }
    hash
}
