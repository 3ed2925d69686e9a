//! The concurrency checks (EA007–EA010).
//!
//! * **EA007** — lock-order analysis: every zero-argument `.lock()` /
//!   `.read()` / `.write()` site must map to a class declared in
//!   `crates/sync/LOCKS.registry`, and no execution modelled by the
//!   [call graph](crate::callgraph) may acquire a class whose rank is
//!   ≤ a class already held (directly, or transitively across a call).
//!   The registry reconciles bidirectionally: unregistered sites and
//!   stale rows are both errors.
//! * **EA008** — reactor purity: functions defined in `event_loop.rs`
//!   files and everything they transitively call (intra-crate) must not
//!   block — no sleeps/joins/receives/waits, no `fs::`/`File::` I/O,
//!   and no lock classes that are not `reactor`-flagged in the
//!   registry. The epoll readiness wait itself (receiver `ep`/`epoll`)
//!   is the one sanctioned block point.
//! * **EA009** — hot-path allocation: the SIMD kernels
//!   (`nn/src/simd.rs`) and the tape-free inference encoder's `forward`
//!   (`encoder/src/infer.rs`) must not heap-allocate, transitively —
//!   scratch comes from the caller.
//! * **EA010** — atomic-ordering audit: every non-`SeqCst`
//!   `Ordering::…` site needs an adjacent `// ORDERING:` justification,
//!   and every site is inventoried (the EA002 pattern, for memory
//!   orderings).
//!
//! Known false negatives (by design; see DESIGN.md §17): cross-crate
//! calls, function-pointer/closure invocations, macro expansions, and
//! guard-returning helpers (the caller's hold extent is not modelled).
//! The runtime shadow-lock verifier in `explainti-sync` covers the
//! dynamic side of the same contract.

use std::collections::{BTreeMap, BTreeSet};
use std::io;
use std::path::Path;

use crate::callgraph::{crate_key, AcquireSite, CallGraph, Event};
use crate::lexer::TokKind;
use crate::{Diag, LockSite, OrderingSite, SourceFile};

/// Receivers whose `.lock()` is a std I/O handle lock, not a mutex.
const IO_HANDLE_RECEIVERS: [&str; 3] = ["stdin", "stdout", "stderr"];

/// Files whose acquisition sites are the shadow-lock layer itself (its
/// internal `std::sync` primitives are below the class system).
fn is_sync_crate(rel_path: &str) -> bool {
    rel_path.starts_with("crates/sync/src/")
}

// ---- LOCKS.registry ---------------------------------------------------

/// One parsed registry row.
pub struct LockRow {
    /// Dotted class name (`serve.conn.out`).
    pub class: String,
    /// Position in the global acquisition order.
    pub rank: u16,
    /// Whether the epoll reactor may acquire this class (EA008).
    pub reactor: bool,
    /// File whose acquisition sites map to this class.
    pub path: String,
    /// Receiver identifier at the acquisition site.
    pub receiver: String,
    /// Line in the registry file.
    pub line: u32,
    /// Whether any acquisition site matched this row in this run.
    pub used: bool,
}

/// Parsed `LOCKS.registry`.
pub struct LockRegistry {
    /// Workspace-relative path of the registry file.
    pub rel: String,
    /// Rows in file order.
    pub rows: Vec<LockRow>,
}

impl LockRegistry {
    /// Parses the registry text. Malformed rows, rank re-declarations,
    /// and duplicate `(path, receiver)` keys become EA007 diagnostics.
    pub fn parse(rel: &str, text: &str, diags: &mut Vec<Diag>) -> Self {
        let mut rows: Vec<LockRow> = Vec::new();
        let mut rank_of: BTreeMap<String, (u16, u32)> = BTreeMap::new();
        let mut keys: BTreeMap<(String, String), u32> = BTreeMap::new();
        for (idx, raw) in text.lines().enumerate() {
            let line_no = idx as u32 + 1;
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let fields: Vec<&str> = line.split_whitespace().collect();
            let parsed = match fields.as_slice() {
                [class, rank, flags, path, receiver] => {
                    rank.parse::<u16>().ok().filter(|_| matches!(*flags, "reactor" | "-")).map(
                        |rank| (class.to_string(), rank, *flags == "reactor", *path, *receiver),
                    )
                }
                _ => None,
            };
            let Some((class, rank, reactor, path, receiver)) = parsed else {
                diags.push(Diag {
                    code: "EA007",
                    path: rel.to_string(),
                    line: line_no,
                    col: 1,
                    message: format!(
                        "malformed registry row {line:?}: expected `class rank reactor|- path receiver`"
                    ),
                });
                continue;
            };
            if let Some((first_rank, first_line)) = rank_of.get(&class) {
                if *first_rank != rank {
                    diags.push(Diag {
                        code: "EA007",
                        path: rel.to_string(),
                        line: line_no,
                        col: 1,
                        message: format!(
                            "class `{class}` re-declared with rank {rank} (rank {first_rank} on line {first_line}) — a class has one rank"
                        ),
                    });
                    continue;
                }
            } else {
                rank_of.insert(class.clone(), (rank, line_no));
            }
            let key = (path.to_string(), receiver.to_string());
            if let Some(first) = keys.get(&key) {
                diags.push(Diag {
                    code: "EA007",
                    path: rel.to_string(),
                    line: line_no,
                    col: 1,
                    message: format!(
                        "duplicate registry row for ({path}, {receiver}) (first on line {first}) — each acquisition site maps to exactly one class"
                    ),
                });
                continue;
            }
            keys.insert(key, line_no);
            rows.push(LockRow {
                class,
                rank,
                reactor,
                path: path.to_string(),
                receiver: receiver.to_string(),
                line: line_no,
                used: false,
            });
        }
        Self { rel: rel.to_string(), rows }
    }

    /// The row matching an acquisition at (`rel_path`, `receiver`).
    pub fn lookup(&self, rel_path: &str, receiver: &str) -> Option<usize> {
        self.rows.iter().position(|r| r.path == rel_path && r.receiver == receiver)
    }
}

/// Loads and parses the registry at `path`. A missing file is an EA007
/// diagnostic and returns `None` (EA007/EA008 are then skipped).
pub fn load_registry(
    root: &Path,
    path: &Path,
    diags: &mut Vec<Diag>,
) -> io::Result<Option<LockRegistry>> {
    let rel = path.strip_prefix(root).unwrap_or(path).to_string_lossy().replace('\\', "/");
    if !path.is_file() {
        diags.push(Diag {
            code: "EA007",
            path: rel,
            line: 1,
            col: 1,
            message: "lock registry file is missing".into(),
        });
        return Ok(None);
    }
    let text = std::fs::read_to_string(path)?;
    Ok(Some(LockRegistry::parse(&rel, &text, diags)))
}

// ---- EA007: lock-order analysis ---------------------------------------

/// A currently-held guard during the per-function simulation.
struct Held {
    class: String,
    rank: u16,
    line: u32,
    col: u32,
    /// `Some(name)` for let-bound/re-bound guards, `None` for
    /// temporaries (released at the next `;`/`,`/`{`/`}`).
    binding: Option<String>,
    /// Block depth at acquisition; let-bound guards die when their
    /// block closes.
    depth: i32,
}

/// A call made while at least one guard was held.
struct HeldCall {
    crate_key: String,
    callee: String,
    path: String,
    line: u32,
    col: u32,
    held: Vec<(String, u16)>,
}

/// EA007: registry reconciliation plus direct and transitive
/// lock-order verification over the call graph.
pub fn ea007_lock_order(
    cg: &CallGraph,
    reg: &mut LockRegistry,
    diags: &mut Vec<Diag>,
    lock_sites: &mut Vec<LockSite>,
) {
    // Class id space for the may-acquire sets.
    let mut classes: Vec<(String, u16)> = Vec::new();
    let mut class_id: BTreeMap<String, usize> = BTreeMap::new();
    for row in &reg.rows {
        class_id.entry(row.class.clone()).or_insert_with(|| {
            classes.push((row.class.clone(), row.rank));
            classes.len() - 1
        });
    }

    let mut direct: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); cg.funcs.len()];
    let mut held_calls: Vec<HeldCall> = Vec::new();

    for (fi, func) in cg.funcs.iter().enumerate() {
        if is_sync_crate(&func.rel_path) {
            continue;
        }
        let key = crate_key(&func.rel_path);
        let mut held: Vec<Held> = Vec::new();
        let mut depth = 0i32;
        for ev in &func.events {
            match ev {
                Event::Open => {
                    held.retain(|h| h.binding.is_some());
                    depth += 1;
                }
                Event::Close => {
                    depth -= 1;
                    let d = depth;
                    held.retain(|h| h.binding.is_some() && h.depth <= d);
                }
                Event::Semi => held.retain(|h| h.binding.is_some()),
                Event::Drop(name) => held.retain(|h| h.binding.as_deref() != Some(name)),
                Event::Acquire(a) => {
                    if IO_HANDLE_RECEIVERS.contains(&a.receiver.as_str()) {
                        continue;
                    }
                    let Some(row_idx) = reg.lookup(&func.rel_path, &a.receiver) else {
                        diags.push(site_diag(func, a, format!(
                            "unregistered lock: `{}.{}()` matches no LOCKS.registry row for {} — declare a class (with a rank and receiver) or rename the receiver",
                            a.receiver, a.method, func.rel_path
                        )));
                        continue;
                    };
                    reg.rows[row_idx].used = true;
                    let (class, rank) = (reg.rows[row_idx].class.clone(), reg.rows[row_idx].rank);
                    lock_sites.push(LockSite {
                        path: func.rel_path.clone(),
                        line: a.line,
                        col: a.col,
                        class: class.clone(),
                        rank,
                        receiver: a.receiver.clone(),
                    });
                    for h in &held {
                        if h.rank >= rank {
                            diags.push(site_diag(func, a, format!(
                                "lock-order inversion: acquiring `{class}` (rank {rank}) while holding `{}` (rank {}, acquired at {}:{}) — the declared order requires rank(held) < rank(acquired)",
                                h.class, h.rank, h.line, h.col
                            )));
                        }
                    }
                    direct[fi].insert(class_id[&class]);
                    held.push(Held {
                        class,
                        rank,
                        line: a.line,
                        col: a.col,
                        binding: a.binding.clone(),
                        depth,
                    });
                }
                Event::Call(c) => {
                    if !held.is_empty() && !cg.resolve(&key, &c.name).is_empty() {
                        held_calls.push(HeldCall {
                            crate_key: key.clone(),
                            callee: c.name.clone(),
                            path: func.rel_path.clone(),
                            line: c.line,
                            col: c.col,
                            held: held.iter().map(|h| (h.class.clone(), h.rank)).collect(),
                        });
                    }
                }
            }
        }
    }

    // may_acquire fixpoint over intra-crate edges.
    let mut edges: Vec<Vec<usize>> = vec![Vec::new(); cg.funcs.len()];
    for (fi, func) in cg.funcs.iter().enumerate() {
        if is_sync_crate(&func.rel_path) {
            continue;
        }
        let key = crate_key(&func.rel_path);
        for ev in &func.events {
            if let Event::Call(c) = ev {
                edges[fi].extend_from_slice(cg.resolve(&key, &c.name));
            }
        }
    }
    let mut may = direct;
    loop {
        let mut changed = false;
        for fi in 0..cg.funcs.len() {
            for &callee in &edges[fi] {
                if callee == fi {
                    continue;
                }
                let add: Vec<usize> =
                    may[callee].iter().filter(|c| !may[fi].contains(c)).copied().collect();
                if !add.is_empty() {
                    may[fi].extend(add);
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }

    // Transitive inversions: a guard held across a call whose callee
    // may acquire a rank ≤ the held rank.
    let mut seen: BTreeSet<(String, u32, u32, String, String)> = BTreeSet::new();
    for hc in &held_calls {
        for &callee in cg.resolve(&hc.crate_key, &hc.callee) {
            for &cid in &may[callee] {
                let (ref class, rank) = classes[cid];
                for (held_class, held_rank) in &hc.held {
                    if *held_rank >= rank
                        && seen.insert((
                            hc.path.clone(),
                            hc.line,
                            hc.col,
                            held_class.clone(),
                            class.clone(),
                        ))
                    {
                        diags.push(Diag {
                            code: "EA007",
                            path: hc.path.clone(),
                            line: hc.line,
                            col: hc.col,
                            message: format!(
                                "potential lock-order inversion: `{held_class}` (rank {held_rank}) is held across a call to `{}`, which may acquire `{class}` (rank {rank})",
                                hc.callee
                            ),
                        });
                    }
                }
            }
        }
    }

    // Staleness: every row must have matched at least one site.
    for row in &reg.rows {
        if !row.used {
            diags.push(Diag {
                code: "EA007",
                path: reg.rel.clone(),
                line: row.line,
                col: 1,
                message: format!(
                    "registry row `{}` ({}, {}) matches no acquisition site in the scan — stale entry",
                    row.class, row.path, row.receiver
                ),
            });
        }
    }
}

fn site_diag(func: &crate::callgraph::Func, a: &AcquireSite, message: String) -> Diag {
    Diag { code: "EA007", path: func.rel_path.clone(), line: a.line, col: a.col, message }
}

// ---- EA008: reactor purity --------------------------------------------

/// Call names that block (or may block) the calling thread.
const DENY_CALLS: [&str; 14] = [
    "sleep",
    "join",
    "recv",
    "recv_timeout",
    "recv_deadline",
    "wait",
    "wait_timeout",
    "wait_while",
    "park",
    "park_timeout",
    "pop_wait",
    "read_to_end",
    "read_to_string",
    "connect",
];

/// Receivers for which a `.wait(…)` call is the reactor's own epoll
/// readiness wait — the single sanctioned block point.
const REACTOR_WAIT_RECEIVERS: [&str; 2] = ["ep", "epoll"];

/// Path roots whose `::` calls do blocking file I/O.
const DENY_PATH_ROOTS: [&str; 2] = ["fs", "File"];

/// EA008: nothing reachable (intra-crate) from a function defined in an
/// `event_loop.rs` file may block or take a non-reactor lock class.
pub fn ea008_reactor_purity(
    files: &[SourceFile],
    cg: &CallGraph,
    reg: &LockRegistry,
    diags: &mut Vec<Diag>,
) {
    let mut queue: Vec<usize> = Vec::new();
    let mut origin: BTreeMap<usize, usize> = BTreeMap::new(); // fn -> parent fn
    for (fi, func) in cg.funcs.iter().enumerate() {
        if func.rel_path.ends_with("event_loop.rs") {
            queue.push(fi);
        }
    }
    let mut visited: BTreeSet<usize> = queue.iter().copied().collect();
    let mut qi = 0usize;
    while qi < queue.len() {
        let fi = queue[qi];
        qi += 1;
        let func = &cg.funcs[fi];
        if is_sync_crate(&func.rel_path) {
            continue;
        }
        let key = crate_key(&func.rel_path);
        let chain = chain_of(cg, &origin, fi);
        for ev in &func.events {
            match ev {
                Event::Call(c) => {
                    let sanctioned_wait = c.name == "wait"
                        && c.receiver
                            .as_deref()
                            .is_some_and(|r| REACTOR_WAIT_RECEIVERS.contains(&r));
                    if DENY_CALLS.contains(&c.name.as_str()) && !sanctioned_wait {
                        diags.push(Diag {
                            code: "EA008",
                            path: func.rel_path.clone(),
                            line: c.line,
                            col: c.col,
                            message: format!(
                                "blocking call `{}` on the reactor thread ({chain}) — the event loop must never block",
                                c.name
                            ),
                        });
                    }
                    for &callee in cg.resolve(&key, &c.name) {
                        if visited.insert(callee) {
                            origin.insert(callee, fi);
                            queue.push(callee);
                        }
                    }
                }
                Event::Acquire(a) => {
                    if IO_HANDLE_RECEIVERS.contains(&a.receiver.as_str()) {
                        continue;
                    }
                    // Unregistered sites are EA007's finding, not ours.
                    if let Some(row) = reg.lookup(&func.rel_path, &a.receiver) {
                        if !reg.rows[row].reactor {
                            diags.push(Diag {
                                code: "EA008",
                                path: func.rel_path.clone(),
                                line: a.line,
                                col: a.col,
                                message: format!(
                                    "reactor thread acquires non-reactor lock class `{}` ({chain}) — only `reactor`-flagged classes may be taken on the event loop",
                                    reg.rows[row].class
                                ),
                            });
                        }
                    }
                }
                _ => {}
            }
        }
        // `fs::…(…)` / `File::…(…)` blocking file I/O, via raw tokens.
        let f = &files[func.file];
        for ci in cg.own_body_indices(fi) {
            let t = f.tok(ci);
            if t.kind == TokKind::Ident
                && DENY_PATH_ROOTS.contains(&t.text.as_str())
                && ci + 2 < f.code.len()
                && f.tok(ci + 1).is_punct(':')
                && f.tok(ci + 2).is_punct(':')
            {
                diags.push(Diag {
                    code: "EA008",
                    path: func.rel_path.clone(),
                    line: t.line,
                    col: t.col,
                    message: format!(
                        "blocking file I/O (`{}::…`) on the reactor thread ({chain})",
                        t.text
                    ),
                });
            }
        }
    }
}

/// `reachable from reactor entry `run`` or `… via `a` → `b``.
fn chain_of(cg: &CallGraph, origin: &BTreeMap<usize, usize>, fi: usize) -> String {
    let mut names = vec![cg.funcs[fi].name.clone()];
    let mut cur = fi;
    while let Some(&p) = origin.get(&cur) {
        names.push(cg.funcs[p].name.clone());
        cur = p;
    }
    names.reverse();
    let entry = names.first().cloned().unwrap_or_default();
    if names.len() == 1 {
        format!("reachable from reactor entry `{entry}`")
    } else {
        let via: Vec<String> = names.iter().map(|n| format!("`{n}`")).collect();
        format!("reachable from reactor entry {}", via.join(" → "))
    }
}

// ---- EA009: hot-path allocation ---------------------------------------

/// Macro names that heap-allocate.
const ALLOC_MACROS: [&str; 2] = ["vec", "format"];
/// `Type::ctor` pairs that heap-allocate.
const ALLOC_TYPES: [&str; 3] = ["Vec", "Box", "String"];
const ALLOC_CTORS: [&str; 3] = ["new", "from", "with_capacity"];
/// Methods that allocate or may grow their receiver.
const ALLOC_METHODS: [&str; 11] = [
    "to_vec",
    "to_string",
    "to_owned",
    "collect",
    "push",
    "push_str",
    "extend",
    "insert",
    "append",
    "reserve",
    "repeat",
];

/// Entry predicate: which functions anchor the hot-kernel reachability
/// scan — every SIMD kernel, and the tape-free inference encoder's
/// `forward`, which runs on caller-made scratch. Constructors (`from_*`)
/// are excluded — they build state once, off the per-request path.
fn ea009_entry(func: &crate::callgraph::Func) -> bool {
    (func.rel_path.ends_with("nn/src/simd.rs") && !func.name.starts_with("from_"))
        || (func.rel_path.ends_with("encoder/src/infer.rs") && func.name == "forward")
}

/// EA009: no transitive heap allocation on the SIMD kernel paths.
pub fn ea009_hot_alloc(files: &[SourceFile], cg: &CallGraph, diags: &mut Vec<Diag>) {
    let mut queue: Vec<usize> = Vec::new();
    let mut origin: BTreeMap<usize, usize> = BTreeMap::new();
    for (fi, func) in cg.funcs.iter().enumerate() {
        if ea009_entry(func) {
            queue.push(fi);
        }
    }
    let mut visited: BTreeSet<usize> = queue.iter().copied().collect();
    let mut qi = 0usize;
    while qi < queue.len() {
        let fi = queue[qi];
        qi += 1;
        let func = &cg.funcs[fi];
        let key = crate_key(&func.rel_path);
        let chain = chain_of_alloc(cg, &origin, fi);
        let f = &files[func.file];
        for ci in cg.own_body_indices(fi) {
            let t = f.tok(ci);
            if t.kind != TokKind::Ident {
                continue;
            }
            let next_is =
                |off: usize, c: char| ci + off < f.code.len() && f.tok(ci + off).is_punct(c);
            if ALLOC_MACROS.contains(&t.text.as_str()) && next_is(1, '!') {
                diags.push(alloc_diag(func, t.line, t.col, format!("`{}!`", t.text), &chain));
            }
            if ALLOC_TYPES.contains(&t.text.as_str())
                && next_is(1, ':')
                && next_is(2, ':')
                && ci + 3 < f.code.len()
                && ALLOC_CTORS.contains(&f.tok(ci + 3).text.as_str())
            {
                diags.push(alloc_diag(
                    func,
                    t.line,
                    t.col,
                    format!("`{}::{}`", t.text, f.tok(ci + 3).text),
                    &chain,
                ));
            }
            if ALLOC_METHODS.contains(&t.text.as_str())
                && ci > 0
                && f.tok(ci - 1).is_punct('.')
                && next_is(1, '(')
            {
                diags.push(alloc_diag(func, t.line, t.col, format!("`.{}(…)`", t.text), &chain));
            }
        }
        for ev in &func.events {
            if let Event::Call(c) = ev {
                for &callee in cg.resolve(&key, &c.name) {
                    if visited.insert(callee) {
                        origin.insert(callee, fi);
                        queue.push(callee);
                    }
                }
            }
        }
    }
}

fn chain_of_alloc(cg: &CallGraph, origin: &BTreeMap<usize, usize>, fi: usize) -> String {
    let mut names = vec![cg.funcs[fi].name.clone()];
    let mut cur = fi;
    while let Some(&p) = origin.get(&cur) {
        names.push(cg.funcs[p].name.clone());
        cur = p;
    }
    names.reverse();
    if names.len() == 1 {
        format!("hot kernel entry `{}`", names[0])
    } else {
        let via: Vec<String> = names.iter().map(|n| format!("`{n}`")).collect();
        format!("reachable from hot kernel entry {}", via.join(" → "))
    }
}

fn alloc_diag(
    func: &crate::callgraph::Func,
    line: u32,
    col: u32,
    what: String,
    chain: &str,
) -> Diag {
    Diag {
        code: "EA009",
        path: func.rel_path.clone(),
        line,
        col,
        message: format!(
            "heap allocation ({what}) on the hot kernel path ({chain}) — use caller-provided scratch"
        ),
    }
}

// ---- EA010: atomic-ordering audit -------------------------------------

/// The orderings that demand a justification. `SeqCst` is the safe
/// default and exempt (the audit exists to justify *weakening*).
const WEAK_ORDERINGS: [&str; 4] = ["Relaxed", "Acquire", "Release", "AcqRel"];

/// True when `line` carries (or the comment block directly above it
/// carries) an `ORDERING` justification. Mirrors EA002's
/// `has_safety_comment` exactly — the uppercase match cannot collide
/// with the `Ordering` type name.
fn has_ordering_comment(f: &SourceFile, line: u32) -> bool {
    let idx = line as usize - 1;
    if f.lines.get(idx).is_some_and(|l| l.contains("ORDERING")) {
        return true;
    }
    let mut k = idx;
    while k > 0 {
        k -= 1;
        let t = f.lines[k].trim_start();
        let is_comment = t.starts_with("//") || t.starts_with("/*") || t.starts_with('*');
        let is_attr = t.starts_with("#[") || t.starts_with("#![");
        if is_comment {
            if t.contains("ORDERING") {
                return true;
            }
        } else if !is_attr {
            return false;
        }
    }
    false
}

/// True when the `Ordering` token at code index `ci` sits inside a
/// `use` declaration (imports need no justification).
fn in_use_decl(f: &SourceFile, ci: usize) -> bool {
    let mut k = ci;
    let mut steps = 0;
    while k > 0 && steps < 40 {
        k -= 1;
        steps += 1;
        let t = f.tok(k);
        if t.is_punct(';') || t.is_punct('{') || t.is_punct('}') {
            return false;
        }
        if t.is_ident("use") {
            return true;
        }
    }
    false
}

/// EA010: every non-`SeqCst` memory-ordering site needs an adjacent
/// `// ORDERING:` comment; all sites are inventoried.
pub fn ea010_ordering_audit(
    files: &[SourceFile],
    diags: &mut Vec<Diag>,
    inventory: &mut Vec<OrderingSite>,
) {
    for f in files {
        for ci in 0..f.code.len().saturating_sub(3) {
            let t = f.tok(ci);
            if !t.is_ident("Ordering")
                || !f.tok(ci + 1).is_punct(':')
                || !f.tok(ci + 2).is_punct(':')
            {
                continue;
            }
            let variant = f.tok(ci + 3);
            let weak = WEAK_ORDERINGS.contains(&variant.text.as_str());
            if !weak && variant.text != "SeqCst" {
                continue;
            }
            if in_use_decl(f, ci) {
                continue;
            }
            let documented = has_ordering_comment(f, t.line);
            inventory.push(OrderingSite {
                path: f.rel_path.clone(),
                line: t.line,
                col: t.col,
                ordering: variant.text.clone(),
                documented,
            });
            if weak && !documented {
                diags.push(Diag {
                    code: "EA010",
                    path: f.rel_path.clone(),
                    line: t.line,
                    col: t.col,
                    message: format!(
                        "`Ordering::{}` without an adjacent `// ORDERING:` justification (same line or comment block above) — weakened memory orderings must say why they are safe",
                        variant.text
                    ),
                });
            }
        }
    }
}
