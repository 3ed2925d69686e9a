//! The six invariant checks (EA001–EA006).
//!
//! Every check walks the comment-free, test-free code view of a
//! [`SourceFile`] (`file.code`), so nothing inside `#[cfg(test)]`
//! modules or comments can trigger or mask a finding. Checks that
//! reconcile code against a committed registry (EA003, EA004, EA005)
//! run over the whole scan set at once.

use std::collections::BTreeMap;
use std::io;
use std::path::Path;

use crate::lexer::TokKind;
use crate::{fnv1a64, Config, Diag, SourceFile, UnsafeSite};

/// Crates whose `src/` is the deterministic inference/explanation path:
/// LE/GE/SE scores and golden responses must be bit-stable, so wall
/// clocks, entropy, and hash-order iteration are banned here (EA001).
const DETERMINISM_SCOPE: [&str; 4] =
    ["crates/core/src/", "crates/nn/src/", "crates/encoder/src/", "crates/tokenizer/src/"];

/// The serving request path (EA006): every failure must map to a typed
/// `ApiError` response, so panicking shortcuts are banned.
const PANIC_SCOPE: [&str; 1] = ["crates/serve/src/"];

fn in_scope(path: &str, scope: &[&str], all: bool) -> bool {
    all || scope.iter().any(|p| path.starts_with(p))
}

fn diag(code: &'static str, f: &SourceFile, ci: usize, message: String) -> Diag {
    let t = f.tok(ci);
    Diag { code, path: f.rel_path.clone(), line: t.line, col: t.col, message }
}

/// Finds the first string literal among the arguments of a call whose
/// opening paren is at code index `open` (handles literals nested in
/// `&format!(…)`). Returns the code index of the literal.
fn first_str_arg(f: &SourceFile, open: usize) -> Option<usize> {
    debug_assert!(f.tok(open).is_punct('('));
    let mut depth = 0i32;
    for ci in open..f.code.len() {
        let t = f.tok(ci);
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
            depth -= 1;
            if depth == 0 {
                return None;
            }
        } else if t.kind == TokKind::Str {
            return Some(ci);
        }
    }
    None
}

// ---- EA001: determinism ----------------------------------------------

/// Identifiers whose presence means "this code reads process entropy".
const ENTROPY_IDENTS: [&str; 4] = ["from_entropy", "thread_rng", "OsRng", "getrandom"];

/// Iteration methods whose order depends on the hasher when called on a
/// `HashMap`/`HashSet`.
const HASH_ITER_METHODS: [&str; 9] = [
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "into_keys",
    "values",
    "values_mut",
    "into_values",
    "drain",
];

/// EA001: forbid wall clocks (`Instant::now`, `SystemTime`), entropy
/// RNG construction, and `HashMap`/`HashSet` iteration inside the
/// inference/explanation crates.
///
/// Hash-iteration detection is a local-type heuristic: a name counts as
/// a hash container when it is *declared in the same file* with an
/// explicit `HashMap`/`HashSet` annotation (let binding, field, or
/// parameter). That covers this codebase's style — annotations are
/// mandatory for containers here precisely so this check stays sound.
pub fn ea001_determinism(f: &SourceFile, cfg: &Config, diags: &mut Vec<Diag>) {
    if !in_scope(&f.rel_path, &DETERMINISM_SCOPE, cfg.all_scopes) {
        return;
    }
    // Pass 1: names declared with a hash-container type.
    let mut hash_names: Vec<String> = Vec::new();
    for ci in 0..f.code.len().saturating_sub(1) {
        let t = f.tok(ci);
        if t.kind != TokKind::Ident || !f.tok(ci + 1).is_punct(':') {
            continue;
        }
        // `name :` — scan the type until the annotation plausibly ends.
        let mut angle = 0i32;
        for cj in ci + 2..(ci + 40).min(f.code.len()) {
            let u = f.tok(cj);
            if u.is_punct('<') {
                angle += 1;
            } else if u.is_punct('>') {
                angle -= 1;
            } else if angle <= 0
                && (u.is_punct('=')
                    || u.is_punct(';')
                    || u.is_punct('{')
                    || u.is_punct(',')
                    || u.is_punct(')'))
            {
                break;
            } else if u.is_ident("HashMap") || u.is_ident("HashSet") {
                hash_names.push(t.text.clone());
                break;
            }
        }
    }
    hash_names.sort();
    hash_names.dedup();

    // Pass 2: violations.
    for ci in 0..f.code.len() {
        let t = f.tok(ci);
        if t.kind != TokKind::Ident {
            continue;
        }
        // Wall clocks.
        if t.text == "Instant"
            && ci + 3 < f.code.len()
            && f.tok(ci + 1).is_punct(':')
            && f.tok(ci + 2).is_punct(':')
            && f.tok(ci + 3).is_ident("now")
        {
            diags.push(diag(
                "EA001",
                f,
                ci,
                "wall-clock read (`Instant::now`) in a deterministic inference/explanation crate"
                    .into(),
            ));
        }
        if t.text == "SystemTime" {
            diags.push(diag(
                "EA001",
                f,
                ci,
                "wall-clock type (`SystemTime`) in a deterministic inference/explanation crate"
                    .into(),
            ));
        }
        // Entropy.
        if ENTROPY_IDENTS.contains(&t.text.as_str()) {
            diags.push(diag(
                "EA001",
                f,
                ci,
                format!(
                    "process-entropy RNG (`{}`) in a deterministic crate — seed explicitly from config",
                    t.text
                ),
            ));
        }
        // Hash-order iteration: `name.iter()` / `name.keys()` / …
        if HASH_ITER_METHODS.contains(&t.text.as_str())
            && ci >= 2
            && f.tok(ci - 1).is_punct('.')
            && f.tok(ci - 2).kind == TokKind::Ident
            && hash_names.iter().any(|n| f.tok(ci - 2).text == *n)
        {
            diags.push(diag(
                "EA001",
                f,
                ci,
                format!(
                    "hash-order iteration (`{}.{}`) — iteration order is nondeterministic; use a BTreeMap/BTreeSet or sort with a total tie-break first",
                    f.tok(ci - 2).text,
                    t.text
                ),
            ));
        }
        // `for x in &name` over a hash container.
        if t.text == "for" {
            for cj in ci + 1..(ci + 12).min(f.code.len()) {
                let u = f.tok(cj);
                if u.is_ident("in") {
                    let mut ck = cj + 1;
                    while ck < f.code.len()
                        && (f.tok(ck).is_punct('&') || f.tok(ck).is_ident("mut"))
                    {
                        ck += 1;
                    }
                    if ck < f.code.len()
                        && f.tok(ck).kind == TokKind::Ident
                        && hash_names.contains(&f.tok(ck).text)
                        && ck + 1 < f.code.len()
                        && (f.tok(ck + 1).is_punct('{') || f.tok(ck + 1).is_punct('.'))
                    {
                        diags.push(diag(
                            "EA001",
                            f,
                            ck,
                            format!(
                                "hash-order iteration (`for … in {}`) — use a BTree container or sort deterministically",
                                f.tok(ck).text
                            ),
                        ));
                    }
                    break;
                }
                if u.is_punct('{') || u.is_punct(';') {
                    break;
                }
            }
        }
    }
}

// ---- EA002: unsafe audit ---------------------------------------------

/// True when the lines directly above `line` (1-based) form a comment
/// block containing a safety justification, or the line itself carries
/// one. Attribute lines between the comment and the item are skipped.
fn has_safety_comment(f: &SourceFile, line: u32) -> bool {
    let idx = line as usize - 1;
    if f.lines.get(idx).is_some_and(|l| l.contains("SAFETY")) {
        return true;
    }
    let mut k = idx;
    while k > 0 {
        k -= 1;
        let t = f.lines[k].trim_start();
        let is_comment = t.starts_with("//") || t.starts_with("/*") || t.starts_with('*');
        let is_attr = t.starts_with("#[") || t.starts_with("#![");
        if is_comment {
            if t.contains("SAFETY") || t.contains("# Safety") {
                return true;
            }
        } else if !is_attr {
            return false;
        }
    }
    false
}

/// EA002: every `unsafe` keyword must be preceded by (or share a line
/// with) a `SAFETY:` comment. All sites are recorded in the inventory,
/// documented or not, so CI artifacts always carry the full audit
/// surface.
pub fn ea002_unsafe_audit(f: &SourceFile, diags: &mut Vec<Diag>, inventory: &mut Vec<UnsafeSite>) {
    for ci in 0..f.code.len() {
        let t = f.tok(ci);
        if !t.is_ident("unsafe") {
            continue;
        }
        let kind = match f.code.get(ci + 1).map(|_| f.tok(ci + 1)) {
            Some(n) if n.is_ident("impl") => "impl",
            Some(n) if n.is_ident("fn") => "fn",
            Some(n) if n.is_ident("trait") => "trait",
            Some(n) if n.is_ident("extern") => "extern",
            Some(n) if n.is_punct('{') => "block",
            _ => "block",
        };
        let documented = has_safety_comment(f, t.line);
        inventory.push(UnsafeSite {
            path: f.rel_path.clone(),
            line: t.line,
            col: t.col,
            kind,
            documented,
        });
        if !documented {
            diags.push(diag(
                "EA002",
                f,
                ci,
                format!("`unsafe` {kind} without a `// SAFETY:` comment directly above it"),
            ));
        }
    }
}

// ---- EA003: failpoint registry ---------------------------------------

/// Function names whose first string argument names a failpoint site.
const FAILPOINT_FNS: [&str; 3] = ["triggered", "panic_if_triggered", "failpoint"];

/// `persist.before_write.{short}` and `persist.before_write.{artifact}`
/// both normalize to `persist.before_write.{}` — format parameters are
/// positional wildcards, their names are documentation.
fn normalize_site(site: &str) -> String {
    let mut out = String::with_capacity(site.len());
    let mut in_brace = false;
    for c in site.chars() {
        match c {
            '{' => {
                in_brace = true;
                out.push_str("{}");
            }
            '}' => in_brace = false,
            _ if !in_brace => out.push(c),
            _ => {}
        }
    }
    out
}

struct SiteUse {
    path: String,
    line: u32,
    col: u32,
    literal: String,
}

fn collect_failpoint_sites(files: &[SourceFile]) -> Vec<SiteUse> {
    let mut out = Vec::new();
    for f in files {
        for ci in 0..f.code.len().saturating_sub(1) {
            let t = f.tok(ci);
            if t.kind != TokKind::Ident
                || !FAILPOINT_FNS.contains(&t.text.as_str())
                || !f.tok(ci + 1).is_punct('(')
            {
                continue;
            }
            // Skip the definitions themselves (`pub fn triggered(…)`).
            if ci > 0 && f.tok(ci - 1).is_ident("fn") {
                continue;
            }
            if let Some(s) = first_str_arg(f, ci + 1) {
                let lit = f.tok(s);
                out.push(SiteUse {
                    path: f.rel_path.clone(),
                    line: lit.line,
                    col: lit.col,
                    literal: lit.text.clone(),
                });
            }
        }
    }
    out
}

/// EA003: every failpoint site literal in the workspace must appear
/// exactly once in the catalogue, and every catalogue entry must match
/// at least one site — the DESIGN.md §11 failure contract can't drift
/// silently in either direction.
pub fn ea003_failpoints(
    files: &[SourceFile],
    root: &Path,
    catalog: &Path,
    diags: &mut Vec<Diag>,
) -> io::Result<()> {
    let rel = catalog.strip_prefix(root).unwrap_or(catalog).to_string_lossy().replace('\\', "/");
    if !catalog.is_file() {
        diags.push(Diag {
            code: "EA003",
            path: rel,
            line: 1,
            col: 1,
            message: "failpoint catalogue file is missing".into(),
        });
        return Ok(());
    }
    let text = std::fs::read_to_string(catalog)?;
    // entry normalized name -> (line, matched)
    let mut entries: BTreeMap<String, (u32, bool, String)> = BTreeMap::new();
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let site = line.split_whitespace().next().unwrap_or("");
        let norm = normalize_site(site);
        if let Some((first_line, _, _)) = entries.get(&norm) {
            diags.push(Diag {
                code: "EA003",
                path: rel.clone(),
                line: idx as u32 + 1,
                col: 1,
                message: format!(
                    "duplicate catalogue entry `{site}` (first declared on line {first_line}) — each site must appear exactly once"
                ),
            });
            continue;
        }
        entries.insert(norm, (idx as u32 + 1, false, site.to_string()));
    }
    for site in collect_failpoint_sites(files) {
        let norm = normalize_site(&site.literal);
        match entries.get_mut(&norm) {
            Some(e) => e.1 = true,
            None => diags.push(Diag {
                code: "EA003",
                path: site.path,
                line: site.line,
                col: site.col,
                message: format!(
                    "failpoint site `{}` is not declared in {rel} — add it to the catalogue (and to DESIGN.md §11) or remove the site",
                    site.literal
                ),
            }),
        }
    }
    for (line, matched, site) in entries.values() {
        if !matched {
            diags.push(Diag {
                code: "EA003",
                path: rel.clone(),
                line: *line,
                col: 1,
                message: format!(
                    "catalogue entry `{site}` matches no `faults::triggered` site in the workspace — stale entry"
                ),
            });
        }
    }
    Ok(())
}

// ---- EA004: metric-name registry -------------------------------------

/// `(callee ident, needs `!`, inferred kind)` for metric-name call
/// shapes. Method forms (`.counter("…")`) additionally require a
/// leading `.` and a direct literal argument.
const METRIC_FNS: [(&str, bool, &str); 4] = [
    ("add_counter", false, "counter"),
    ("set_gauge", false, "gauge"),
    ("counter", true, "counter"),
    ("span", true, "histogram"),
];
const METRIC_METHODS: [(&str, &str); 4] = [
    ("counter", "counter"),
    ("gauge", "gauge"),
    ("histogram", "histogram"),
    ("count_histogram", "histogram"),
];

fn metric_name_wellformed(name: &str) -> bool {
    if name.is_empty() {
        return false;
    }
    let norm = normalize_site(name); // strips {param} to {}
    norm.replace("{}", "x")
        .chars()
        .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_' || c == '.')
}

struct MetricUse {
    path: String,
    line: u32,
    col: u32,
    name: String,
    kind: &'static str,
}

fn collect_metric_names(files: &[SourceFile]) -> Vec<MetricUse> {
    let mut out = Vec::new();
    for f in files {
        for ci in 0..f.code.len().saturating_sub(2) {
            let t = f.tok(ci);
            if t.kind != TokKind::Ident {
                continue;
            }
            // Macro / free-fn forms.
            for (name, is_macro, kind) in METRIC_FNS {
                if t.text != name {
                    continue;
                }
                let open = if is_macro {
                    if !f.tok(ci + 1).is_punct('!') || !f.tok(ci + 2).is_punct('(') {
                        continue;
                    }
                    ci + 2
                } else {
                    if !f.tok(ci + 1).is_punct('(') {
                        continue;
                    }
                    ci + 1
                };
                if ci > 0 && (f.tok(ci - 1).is_ident("fn") || f.tok(ci - 1).is_punct('.')) {
                    continue; // definition or method form (handled below)
                }
                if let Some(s) = first_str_arg(f, open) {
                    let lit = f.tok(s);
                    out.push(MetricUse {
                        path: f.rel_path.clone(),
                        line: lit.line,
                        col: lit.col,
                        name: lit.text.clone(),
                        kind,
                    });
                }
            }
            // Method forms: `.histogram("…")` with a direct literal.
            for (name, kind) in METRIC_METHODS {
                if t.text == name
                    && ci > 0
                    && f.tok(ci - 1).is_punct('.')
                    && f.tok(ci + 1).is_punct('(')
                    && ci + 2 < f.code.len()
                    && f.tok(ci + 2).kind == TokKind::Str
                {
                    let lit = f.tok(ci + 2);
                    out.push(MetricUse {
                        path: f.rel_path.clone(),
                        line: lit.line,
                        col: lit.col,
                        name: lit.text.clone(),
                        kind,
                    });
                }
            }
        }
    }
    out
}

/// One parsed registry row.
pub struct MetricEntry {
    /// Metric name, possibly with `{param}` wildcard segments.
    pub name: String,
    /// `counter`, `gauge`, or `histogram`.
    pub kind: String,
    /// Free-text description (feeds the README table).
    pub description: String,
    /// Line in the registry file.
    pub line: u32,
}

/// Parses `crates/obs/METRICS.registry`: `name kind description…` rows,
/// `#` comments. Malformed rows become EA004 diagnostics.
pub fn parse_metrics_registry(rel: &str, text: &str, diags: &mut Vec<Diag>) -> Vec<MetricEntry> {
    let mut out = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut fields = line.split_whitespace();
        let (name, kind) = (fields.next().unwrap_or(""), fields.next().unwrap_or(""));
        let description = fields.collect::<Vec<_>>().join(" ");
        if name.is_empty() || !["counter", "gauge", "histogram"].contains(&kind) {
            diags.push(Diag {
                code: "EA004",
                path: rel.to_string(),
                line: idx as u32 + 1,
                col: 1,
                message: format!(
                    "malformed registry row {line:?}: expected `name counter|gauge|histogram description`"
                ),
            });
            continue;
        }
        out.push(MetricEntry {
            name: name.to_string(),
            kind: kind.to_string(),
            description,
            line: idx as u32 + 1,
        });
    }
    out
}

/// EA004: metric-name literals must be lowercase dotted identifiers and
/// must be declared — with a matching kind — in the registry; registry
/// rows must correspond to a live call site.
pub fn ea004_metrics(
    files: &[SourceFile],
    root: &Path,
    registry: &Path,
    diags: &mut Vec<Diag>,
) -> io::Result<()> {
    let rel = registry.strip_prefix(root).unwrap_or(registry).to_string_lossy().replace('\\', "/");
    if !registry.is_file() {
        diags.push(Diag {
            code: "EA004",
            path: rel,
            line: 1,
            col: 1,
            message: "metric-name registry file is missing".into(),
        });
        return Ok(());
    }
    let text = std::fs::read_to_string(registry)?;
    let entries = parse_metrics_registry(&rel, &text, diags);
    let mut by_norm: BTreeMap<String, (usize, bool)> = BTreeMap::new();
    for (i, e) in entries.iter().enumerate() {
        let norm = normalize_site(&e.name);
        if let Some((first, _)) = by_norm.get(&norm) {
            diags.push(Diag {
                code: "EA004",
                path: rel.clone(),
                line: e.line,
                col: 1,
                message: format!(
                    "duplicate registry row `{}` (first declared on line {})",
                    e.name, entries[*first].line
                ),
            });
            continue;
        }
        by_norm.insert(norm, (i, false));
    }
    for m in collect_metric_names(files) {
        if !metric_name_wellformed(&m.name) {
            diags.push(Diag {
                code: "EA004",
                path: m.path.clone(),
                line: m.line,
                col: m.col,
                message: format!(
                    "metric name `{}` is not a lowercase dotted identifier ([a-z0-9_.]+)",
                    m.name
                ),
            });
        }
        match by_norm.get_mut(&normalize_site(&m.name)) {
            Some((i, used)) => {
                *used = true;
                let e = &entries[*i];
                if e.kind != m.kind {
                    diags.push(Diag {
                        code: "EA004",
                        path: m.path,
                        line: m.line,
                        col: m.col,
                        message: format!(
                            "metric `{}` is used as a {} but registered as a {} in {rel}",
                            m.name, m.kind, e.kind
                        ),
                    });
                }
            }
            None => diags.push(Diag {
                code: "EA004",
                path: m.path,
                line: m.line,
                col: m.col,
                message: format!(
                    "metric `{}` is not declared in {rel} — add a `name kind description` row",
                    m.name
                ),
            }),
        }
    }
    for (i, used) in by_norm.values() {
        if !used {
            diags.push(Diag {
                code: "EA004",
                path: rel.clone(),
                line: entries[*i].line,
                col: 1,
                message: format!(
                    "registry row `{}` matches no metric call site — stale entry",
                    entries[*i].name
                ),
            });
        }
    }
    Ok(())
}

// ---- EA005: wire freeze ----------------------------------------------

/// Extracts the canonical structural dump of the DTO file: every
/// struct/enum with its field/variant names in declaration order, plus
/// the `SCHEMA_VERSION` value.
pub fn wire_shape(f: &SourceFile) -> (String, Option<String>) {
    let mut lines = Vec::new();
    let mut schema_version = None;
    let mut ci = 0usize;
    while ci < f.code.len() {
        let t = f.tok(ci);
        if t.is_ident("SCHEMA_VERSION") && schema_version.is_none() {
            // `const SCHEMA_VERSION: u32 = 1;`
            for cj in ci + 1..(ci + 8).min(f.code.len()) {
                if f.tok(cj).is_punct('=') {
                    if cj + 1 < f.code.len() && f.tok(cj + 1).kind == TokKind::Num {
                        schema_version = Some(f.tok(cj + 1).text.clone());
                    }
                    break;
                }
            }
        }
        let is_type = t.is_ident("struct") || t.is_ident("enum");
        if !is_type || ci + 1 >= f.code.len() || f.tok(ci + 1).kind != TokKind::Ident {
            ci += 1;
            continue;
        }
        let type_kw = t.text.clone();
        let name = f.tok(ci + 1).text.clone();
        // Find the opening brace (skip generics / where clauses; tuple
        // structs and unit structs record an empty member list).
        let mut cj = ci + 2;
        let mut members: Vec<String> = Vec::new();
        let mut angle = 0i32;
        while cj < f.code.len() {
            let u = f.tok(cj);
            if u.is_punct('<') {
                angle += 1;
            } else if u.is_punct('>') {
                angle -= 1;
            } else if u.is_punct(';') && angle <= 0 {
                break; // unit / tuple struct
            } else if u.is_punct('{') && angle <= 0 {
                // Walk the body at depth 1.
                let mut depth = 1i32;
                let mut ck = cj + 1;
                while ck < f.code.len() && depth > 0 {
                    let v = f.tok(ck);
                    if v.is_punct('{') || v.is_punct('(') || v.is_punct('[') {
                        depth += 1;
                    } else if v.is_punct('}') || v.is_punct(')') || v.is_punct(']') {
                        depth -= 1;
                    } else if depth == 1 && v.kind == TokKind::Ident && ck + 1 < f.code.len() {
                        let next = f.tok(ck + 1);
                        let prev = if ck > 0 { f.tok(ck - 1) } else { v };
                        if type_kw == "struct" {
                            // Field: `name :` not preceded by `:` (paths).
                            if next.is_punct(':') && !prev.is_punct(':') && !v.is_ident("pub") {
                                members.push(v.text.clone());
                            }
                        } else {
                            // Variant: ident directly after `{`, `,`, or
                            // an attribute's `]`.
                            if (prev.is_punct('{') || prev.is_punct(',') || prev.is_punct(']'))
                                && (next.is_punct(',')
                                    || next.is_punct('(')
                                    || next.is_punct('{')
                                    || next.is_punct('=')
                                    || next.is_punct('}'))
                            {
                                members.push(v.text.clone());
                            }
                        }
                    }
                    ck += 1;
                }
                cj = ck;
                break;
            }
            cj += 1;
        }
        lines.push(format!("{type_kw} {name} {{ {} }}", members.join(", ")));
        ci = cj.max(ci + 1);
    }
    if let Some(v) = &schema_version {
        lines.push(format!("const SCHEMA_VERSION = {v}"));
    }
    (lines.join("\n"), schema_version)
}

/// Renders the fingerprint file contents for the current shape.
pub fn render_fingerprint(shape: &str, schema_version: &str) -> String {
    let mut s = String::from(
        "# Wire-format fingerprint for crates/api (EA005).\n\
         # Any change to DTO struct/field names or order changes the fingerprint;\n\
         # bump SCHEMA_VERSION in crates/api/src/lib.rs, then regenerate with:\n\
         #   cargo run -p analyzer -- --workspace --bless\n",
    );
    s.push_str(&format!("schema_version={schema_version}\n"));
    s.push_str(&format!("fingerprint={:016x}\n", fnv1a64(shape.as_bytes())));
    s.push_str("# Frozen shape (informative):\n");
    for line in shape.lines() {
        s.push_str(&format!("#   {line}\n"));
    }
    s
}

/// EA005: the structural fingerprint of the API DTOs must match the
/// committed fingerprint file; drift without a `SCHEMA_VERSION` bump is
/// an error, drift with a bump demands a `--bless` to re-freeze.
pub fn ea005_wire_freeze(
    files: &[SourceFile],
    root: &Path,
    fingerprint: &Path,
    api_file: &Path,
    bless: bool,
    diags: &mut Vec<Diag>,
) -> io::Result<()> {
    let api_rel =
        api_file.strip_prefix(root).unwrap_or(api_file).to_string_lossy().replace('\\', "/");
    let Some(f) = files.iter().find(|f| f.rel_path == api_rel) else {
        return Ok(()); // api file not in this scan set (fixture runs)
    };
    let (shape, schema_version) = wire_shape(f);
    let Some(code_sv) = schema_version else {
        diags.push(Diag {
            code: "EA005",
            path: api_rel,
            line: 1,
            col: 1,
            message: "could not find `SCHEMA_VERSION` in the DTO file".into(),
        });
        return Ok(());
    };
    let code_fp = format!("{:016x}", fnv1a64(shape.as_bytes()));
    if bless {
        std::fs::write(fingerprint, render_fingerprint(&shape, &code_sv))?;
        return Ok(());
    }
    let fp_rel =
        fingerprint.strip_prefix(root).unwrap_or(fingerprint).to_string_lossy().replace('\\', "/");
    if !fingerprint.is_file() {
        diags.push(Diag {
            code: "EA005",
            path: fp_rel,
            line: 1,
            col: 1,
            message: "wire fingerprint file is missing — run `cargo run -p analyzer -- --workspace --bless`"
                .into(),
        });
        return Ok(());
    }
    let text = std::fs::read_to_string(fingerprint)?;
    let mut file_sv = None;
    let mut file_fp = None;
    for line in text.lines() {
        if let Some(v) = line.strip_prefix("schema_version=") {
            file_sv = Some(v.trim().to_string());
        } else if let Some(v) = line.strip_prefix("fingerprint=") {
            file_fp = Some(v.trim().to_string());
        }
    }
    let (Some(file_sv), Some(file_fp)) = (file_sv, file_fp) else {
        diags.push(Diag {
            code: "EA005",
            path: fp_rel,
            line: 1,
            col: 1,
            message: "malformed fingerprint file (missing schema_version= or fingerprint=)".into(),
        });
        return Ok(());
    };
    if code_fp == file_fp && code_sv == file_sv {
        return Ok(());
    }
    if code_fp != file_fp && code_sv == file_sv {
        diags.push(Diag {
            code: "EA005",
            path: api_rel,
            line: 1,
            col: 1,
            message: format!(
                "wire DTO shape drifted (fingerprint {code_fp} != frozen {file_fp}) without a SCHEMA_VERSION bump — \
                 clients deserialize these bytes; bump SCHEMA_VERSION and re-bless, or revert the shape change"
            ),
        });
    } else {
        diags.push(Diag {
            code: "EA005",
            path: fp_rel,
            line: 1,
            col: 1,
            message: format!(
                "fingerprint file is stale (code schema_version={code_sv}, frozen={file_sv}) — \
                 run `cargo run -p analyzer -- --workspace --bless` and commit the result"
            ),
        });
    }
    Ok(())
}

// ---- EA006: panic paths ----------------------------------------------

const PANIC_MACROS: [&str; 4] = ["panic", "unreachable", "todo", "unimplemented"];

/// EA006: the serve request path must answer typed `ApiError`s, never
/// panic. Forbidden: `.unwrap()`, `.expect(…)`, the panic macro family,
/// and indexing with an integer literal (`xs[0]`).
pub fn ea006_panic_paths(f: &SourceFile, cfg: &Config, diags: &mut Vec<Diag>) {
    if !in_scope(&f.rel_path, &PANIC_SCOPE, cfg.all_scopes) {
        return;
    }
    for ci in 0..f.code.len() {
        let t = f.tok(ci);
        if t.kind == TokKind::Ident
            && (t.text == "unwrap" || t.text == "expect")
            && ci > 0
            && f.tok(ci - 1).is_punct('.')
            && ci + 1 < f.code.len()
            && f.tok(ci + 1).is_punct('(')
        {
            diags.push(diag(
                "EA006",
                f,
                ci,
                format!(
                    "`.{}(…)` in the serve request path — convert the failure into a typed ApiError response",
                    t.text
                ),
            ));
        }
        if t.kind == TokKind::Ident
            && PANIC_MACROS.contains(&t.text.as_str())
            && ci + 1 < f.code.len()
            && f.tok(ci + 1).is_punct('!')
        {
            diags.push(diag(
                "EA006",
                f,
                ci,
                format!("`{}!` in the serve request path — a panicking handler tears down the worker; answer a typed error", t.text),
            ));
        }
        // Indexing by literal: `recv[0]` — previous token ends an
        // expression, next is an integer literal, then `]`.
        if t.is_punct('[')
            && ci > 0
            && ci + 2 < f.code.len()
            && (f.tok(ci - 1).kind == TokKind::Ident
                || f.tok(ci - 1).is_punct(')')
                || f.tok(ci - 1).is_punct(']'))
            && f.tok(ci + 1).kind == TokKind::Num
            && f.tok(ci + 2).is_punct(']')
        {
            diags.push(diag(
                "EA006",
                f,
                ci,
                "indexing by integer literal in the serve request path — use `.get(…)` or destructuring and answer a typed error".into(),
            ));
        }
    }
}

// ---- Metrics table generation -----------------------------------------

/// Renders the README metrics table from the registry (the registry is
/// the single source of truth; the README section is generated).
pub fn metrics_markdown(entries: &[MetricEntry]) -> String {
    let mut s = String::from("| metric | kind | meaning |\n|---|---|---|\n");
    for e in entries {
        s.push_str(&format!("| `{}` | {} | {} |\n", e.name, e.kind, e.description));
    }
    s
}
