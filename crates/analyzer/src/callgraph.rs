//! Lightweight intra-crate call graph over the token stream.
//!
//! The concurrency checks (EA007, EA009) need more than per-line token
//! lints: whether a hot path can *reach* an allocation two hops away,
//! or whether a lock is held *across* a call that may take another
//! lock. This module recovers just enough structure from the
//! [`SourceFile`] token stream to answer those questions:
//!
//! * **function boundaries** — every `fn name …` with a body, located
//!   by tracking paren/angle depth from the name to the opening brace;
//! * **per-function events** — in body order: block opens/closes,
//!   statement ends, `drop(guard)` releases, lock acquisitions
//!   (`recv.lock()` / `.read()` / `.write()` with zero arguments), and
//!   calls (`name(…)`, method or free);
//! * **call edges** — resolved by *simple name within the same crate*
//!   (the first two path components of the file, e.g. `crates/serve`).
//!
//! The approximation is deliberately conservative in what it claims:
//! cross-crate calls, function-pointer/closure invocations, and macro
//! expansions produce **no** edges (documented false negatives — the
//! runtime shadow-lock verifier in `explainti-sync` is the dynamic
//! complement). Method names so generic they would connect unrelated
//! code (`push`, `get`, `clone`, …) are stop-listed out of the edge
//! set. See DESIGN.md §17 for the full soundness discussion.

use std::collections::BTreeMap;

use crate::lexer::TokKind;
use crate::SourceFile;

/// Call names that never become intra-crate edges: they are ubiquitous
/// std/container methods, and a same-named local function is far more
/// likely to be a coincidence than a real call target.
pub const STOP_METHODS: [&str; 23] = [
    "push", "pop", "insert", "get", "remove", "clear", "len", "is_empty", "contains", "take",
    "read", "write", "lock", "next", "clone", "drop", "fmt", "eq", "hash", "new", "add", "sub",
    "record",
];

/// One recovered function definition.
pub struct Func {
    /// Function name (the identifier after `fn`).
    pub name: String,
    /// Index into the scanned file list.
    pub file: usize,
    /// Workspace-relative path of the defining file.
    pub rel_path: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Code-view index range of the body: `[open `{`, close `}`]`.
    pub body: (usize, usize),
    /// Body events in source order (nested `fn` bodies excluded).
    pub events: Vec<Event>,
}

/// One lock-acquisition site: `receiver.lock()` / `.read()` / `.write()`
/// with an empty argument list.
#[derive(Clone)]
pub struct AcquireSite {
    /// The identifier the guard method is called on, walking back over
    /// index/call groups (`slots[i].lock()` → `slots`,
    /// `registry().lock()` → `registry`, `self.io.out.lock()` → `out`).
    pub receiver: String,
    /// `lock`, `read`, or `write`.
    pub method: String,
    /// 1-based line of the method identifier.
    pub line: u32,
    /// 1-based column of the method identifier.
    pub col: u32,
    /// Guard binding when the statement is `let [mut] name = …` or a
    /// plain `name = …` re-binding; `None` for temporaries.
    pub binding: Option<String>,
}

/// One call site that may become an intra-crate edge.
#[derive(Clone)]
pub struct CallSite {
    /// Simple callee name (method or last path segment).
    pub name: String,
    /// Receiver identifier for method calls (`self.ep.wait(…)` → `ep`).
    pub receiver: Option<String>,
    /// 1-based line of the callee identifier.
    pub line: u32,
    /// 1-based column of the callee identifier.
    pub col: u32,
}

/// A body event, in source order.
pub enum Event {
    /// `{` — a nested block opens.
    Open,
    /// `}` — the innermost block closes.
    Close,
    /// `;` or `,` — statement/argument boundary (temporary guards die).
    Semi,
    /// `drop(name)` — an explicit guard release.
    Drop(String),
    /// A lock acquisition.
    Acquire(AcquireSite),
    /// A call (macros excluded, stop-listed names excluded).
    Call(CallSite),
}

/// The recovered functions plus a (crate, name) resolution index.
pub struct CallGraph {
    /// Every function with a body, in scan order.
    pub funcs: Vec<Func>,
    index: BTreeMap<(String, String), Vec<usize>>,
}

/// The resolution domain for `rel_path`: the first two components for
/// `crates/<name>/…`, otherwise the first component (`src`, or a
/// fixture directory). Calls only resolve to functions with the same
/// key.
pub fn crate_key(rel_path: &str) -> String {
    let mut parts = rel_path.split('/');
    match (parts.next(), parts.next()) {
        (Some("crates"), Some(member)) => format!("crates/{member}"),
        (Some(first), _) => first.to_string(),
        _ => String::new(),
    }
}

impl CallGraph {
    /// Recovers every function in `files` and indexes them by
    /// `(crate_key, name)`.
    pub fn build(files: &[SourceFile]) -> Self {
        let mut funcs = Vec::new();
        for (fi, f) in files.iter().enumerate() {
            collect_funcs(f, fi, &mut funcs);
        }
        // Nested-function body ranges, per file, so a parent's event
        // walk can skip them.
        for i in 0..funcs.len() {
            let (file, body) = (funcs[i].file, funcs[i].body);
            let nested: Vec<(usize, usize)> = funcs
                .iter()
                .filter(|g| g.file == file && g.body.0 > body.0 && g.body.1 < body.1)
                .map(|g| {
                    // Exclude the nested head too (`fn name (…)` tokens
                    // before its `{` would otherwise read as a call).
                    (g.body.0, g.body.1)
                })
                .collect();
            funcs[i].events = body_events(&files[funcs[i].file], body, &nested);
        }
        let mut index: BTreeMap<(String, String), Vec<usize>> = BTreeMap::new();
        for (i, func) in funcs.iter().enumerate() {
            index.entry((crate_key(&func.rel_path), func.name.clone())).or_default().push(i);
        }
        Self { funcs, index }
    }

    /// Function indices named `name` in crate `key` (empty when the
    /// call does not resolve inside the crate).
    pub fn resolve(&self, key: &str, name: &str) -> &[usize] {
        self.index.get(&(key.to_string(), name.to_string())).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Code-view indices of function `fi`'s own body tokens, with
    /// nested `fn` bodies excluded — for checks that need raw token
    /// shapes rather than the event stream.
    pub fn own_body_indices(&self, fi: usize) -> Vec<usize> {
        let func = &self.funcs[fi];
        let nested: Vec<(usize, usize)> = self
            .funcs
            .iter()
            .filter(|g| g.file == func.file && g.body.0 > func.body.0 && g.body.1 < func.body.1)
            .map(|g| g.body)
            .collect();
        let mut out = Vec::new();
        let mut ci = func.body.0 + 1;
        'walk: while ci < func.body.1 {
            for &(ns, ne) in &nested {
                if ci >= ns && ci <= ne {
                    ci = ne + 1;
                    continue 'walk;
                }
            }
            out.push(ci);
            ci += 1;
        }
        out
    }
}

/// Scans `f` for `fn` items (including nested ones) and appends them.
fn collect_funcs(f: &SourceFile, fi: usize, out: &mut Vec<Func>) {
    let n = f.code.len();
    let mut ci = 0usize;
    while ci + 1 < n {
        if !(f.tok(ci).is_ident("fn") && f.tok(ci + 1).kind == TokKind::Ident) {
            ci += 1;
            continue;
        }
        let name = f.tok(ci + 1).text.clone();
        let line = f.tok(ci).line;
        // Walk the signature to the body `{` (or `;` for bodiless trait
        // methods). `->` must not count as closing an angle bracket.
        let mut j = ci + 2;
        let mut paren = 0i32;
        let mut angle = 0i32;
        let mut open = None;
        while j < n {
            let t = f.tok(j);
            if t.is_punct('(') || t.is_punct('[') {
                paren += 1;
            } else if t.is_punct(')') || t.is_punct(']') {
                paren -= 1;
            } else if t.is_punct('<') {
                angle += 1;
            } else if t.is_punct('>') {
                if !(j > 0 && f.tok(j - 1).is_punct('-')) {
                    angle -= 1;
                }
            } else if paren == 0 && angle <= 0 && t.is_punct('{') {
                open = Some(j);
                break;
            } else if paren == 0 && angle <= 0 && t.is_punct(';') {
                break;
            }
            j += 1;
        }
        let Some(open) = open else {
            ci += 2;
            continue;
        };
        // Match the body braces.
        let mut depth = 0i32;
        let mut close = open;
        for k in open..n {
            if f.tok(k).is_punct('{') {
                depth += 1;
            } else if f.tok(k).is_punct('}') {
                depth -= 1;
                if depth == 0 {
                    close = k;
                    break;
                }
            }
        }
        out.push(Func {
            name,
            file: fi,
            rel_path: f.rel_path.clone(),
            line,
            body: (open, close),
            events: Vec::new(),
        });
        // Keep scanning *inside* the body so nested fns are found too.
        ci += 2;
    }
}

/// From the token *before* a `.`/group at code index `ci`, walks back
/// over balanced `(…)` / `[…]` groups to the receiver identifier.
fn receiver_at(f: &SourceFile, mut ci: usize) -> Option<String> {
    loop {
        let t = f.tok(ci);
        if t.is_punct(')') || t.is_punct(']') {
            let (open, close) = if t.is_punct(')') { ('(', ')') } else { ('[', ']') };
            let mut depth = 0i32;
            while ci > 0 {
                let u = f.tok(ci);
                if u.is_punct(close) {
                    depth += 1;
                } else if u.is_punct(open) {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                ci -= 1;
            }
            if ci == 0 {
                return None;
            }
            ci -= 1;
            continue;
        }
        if t.kind == TokKind::Ident {
            return Some(t.text.clone());
        }
        return None;
    }
}

/// Finds the guard binding for an acquisition whose method ident is at
/// code index `ci`: walks back (bounded) to the statement boundary and
/// matches `let [mut] name =` or a plain `name =` re-binding.
fn binding_at(f: &SourceFile, ci: usize) -> Option<String> {
    let mut k = ci;
    let mut steps = 0;
    while k > 0 && steps < 60 {
        k -= 1;
        steps += 1;
        let t = f.tok(k);
        if t.is_punct(';') || t.is_punct('{') || t.is_punct('}') {
            k += 1;
            break;
        }
        if k == 0 {
            break;
        }
    }
    if f.tok(k).is_ident("let") {
        let mut m = k + 1;
        if m < f.code.len() && f.tok(m).is_ident("mut") {
            m += 1;
        }
        if m + 1 < f.code.len() && f.tok(m).kind == TokKind::Ident && f.tok(m + 1).is_punct('=') {
            return Some(f.tok(m).text.clone());
        }
        return None;
    }
    // `name = … .lock();` re-binding (assignment, not `==`).
    if f.tok(k).kind == TokKind::Ident
        && k + 2 < f.code.len()
        && f.tok(k + 1).is_punct('=')
        && !f.tok(k + 2).is_punct('=')
        && k + 2 <= ci
    {
        return Some(f.tok(k).text.clone());
    }
    None
}

/// Extracts the event stream of one body, skipping `nested` sub-ranges.
fn body_events(f: &SourceFile, body: (usize, usize), nested: &[(usize, usize)]) -> Vec<Event> {
    let mut events = Vec::new();
    let mut ci = body.0 + 1;
    'walk: while ci < body.1 {
        for &(ns, ne) in nested {
            if ci >= ns && ci <= ne {
                ci = ne + 1;
                continue 'walk;
            }
        }
        let t = f.tok(ci);
        if t.is_punct('{') {
            events.push(Event::Open);
        } else if t.is_punct('}') {
            events.push(Event::Close);
        } else if t.is_punct(';') || t.is_punct(',') {
            events.push(Event::Semi);
        } else if t.kind == TokKind::Ident {
            let followed_by_paren = ci + 1 < body.1 && f.tok(ci + 1).is_punct('(');
            let after_dot = ci > 0 && f.tok(ci - 1).is_punct('.');
            let after_fn = ci > 0 && f.tok(ci - 1).is_ident("fn");
            // `drop(guard)` — explicit release.
            if t.text == "drop"
                && !after_dot
                && followed_by_paren
                && ci + 3 < body.1
                && f.tok(ci + 2).kind == TokKind::Ident
                && f.tok(ci + 3).is_punct(')')
            {
                events.push(Event::Drop(f.tok(ci + 2).text.clone()));
                ci += 4;
                continue;
            }
            // `recv.lock()` / `.read()` / `.write()` with no arguments.
            if after_dot
                && followed_by_paren
                && matches!(t.text.as_str(), "lock" | "read" | "write")
                && ci + 2 < body.1
                && f.tok(ci + 2).is_punct(')')
            {
                if let Some(receiver) = receiver_at(f, ci - 2) {
                    events.push(Event::Acquire(AcquireSite {
                        receiver,
                        method: t.text.clone(),
                        line: t.line,
                        col: t.col,
                        binding: binding_at(f, ci),
                    }));
                    ci += 3;
                    continue;
                }
            }
            // A call: `name(…)` that is not a definition head and not a
            // stop-listed name. Macros never match (`name!` has `!`
            // before the paren).
            if followed_by_paren && !after_fn && !STOP_METHODS.contains(&t.text.as_str()) {
                let receiver = if after_dot && ci >= 2 { receiver_at(f, ci - 2) } else { None };
                events.push(Event::Call(CallSite {
                    name: t.text.clone(),
                    receiver,
                    line: t.line,
                    col: t.col,
                }));
            }
        }
        ci += 1;
    }
    events
}
