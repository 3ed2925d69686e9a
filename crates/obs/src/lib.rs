//! Telemetry for the ExplainTI reproduction.
//!
//! Everything the pipeline reports about itself flows through this
//! crate: counters, gauges, and log-linear latency histograms in a
//! global thread-safe [registry](Registry); RAII [`span!`] guards that
//! time nested stages and feed their histograms; an optional JSONL
//! trace sink (`--trace-out`); and an end-of-run [`report`] rendered
//! with the same `TextTable` the bench binaries use.
//!
//! The runtime cost model is explicit:
//! - `EXPLAINTI_LOG=off` reduces every instrumentation point to a
//!   single relaxed atomic load — no clock reads, no formatting, no
//!   allocation.
//! - `info` (the default) records spans and counters into lock-free
//!   atomics; the only lock is the registry map, hit once per call
//!   site thanks to per-site `OnceLock` caching in [`span!`].
//! - `debug` additionally prints each span close to stderr.
//!
//! Span names are dotted paths (`encoder.forward`, `explain.le`) so the
//! report groups the paper's Table V stages naturally.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use explainti_sync::{classes, OrderedMutex};
use std::time::Instant;

use explainti_metrics::report::TextTable;
use serde_json::{json, Value};

pub mod histogram;
pub mod prom;
pub mod slo;
pub mod trace;

pub use histogram::{Histogram, Unit};
pub use prom::prometheus;
pub use slo::{SloSnapshot, SloWindow};
pub use trace::{next_trace_id, set_trace_seed, RequestTrace, SpanCapture, TraceId, STAGES};

// ---- Level filter -----------------------------------------------------

/// Verbosity, from `EXPLAINTI_LOG` (`off` | `info` | `debug`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Level {
    /// Telemetry fully disabled; instrumentation points cost one atomic load.
    Off = 0,
    /// Spans and counters recorded (the default).
    Info = 1,
    /// `Info` plus a stderr line per span close.
    Debug = 2,
}

/// 255 = not yet initialised from the environment.
static LEVEL: AtomicU8 = AtomicU8::new(255);

fn level_from_env() -> Level {
    match std::env::var("EXPLAINTI_LOG").as_deref() {
        Ok("off") | Ok("0") | Ok("false") | Ok("none") => Level::Off,
        Ok("debug") | Ok("trace") => Level::Debug,
        _ => Level::Info,
    }
}

/// The active level (reads `EXPLAINTI_LOG` on first call).
pub fn level() -> Level {
    // ORDERING: Relaxed — the level is an independent flag with no
    // associated payload to synchronise; stale reads only delay a level
    // change by one observation.
    match LEVEL.load(Ordering::Relaxed) {
        0 => Level::Off,
        1 => Level::Info,
        2 => Level::Debug,
        _ => {
            let l = level_from_env();
            // A concurrent set_level wins; env init is best-effort.
            // ORDERING: Relaxed — same flag-only contract as the load
            // above; no other memory is published by the level.
            let _ = LEVEL.compare_exchange(255, l as u8, Ordering::Relaxed, Ordering::Relaxed);
            level()
        }
    }
}

/// Overrides the level (tests, CLI flags). Takes precedence over the env.
pub fn set_level(l: Level) {
    // ORDERING: Relaxed — flag-only store, see `level`.
    LEVEL.store(l as u8, Ordering::Relaxed);
}

/// Whether any telemetry is recorded. This is the hot-path check: a
/// single relaxed atomic load once the level is initialised.
#[inline]
pub fn enabled() -> bool {
    // ORDERING: Relaxed — hot-path flag load, see `level`.
    match LEVEL.load(Ordering::Relaxed) {
        0 => false,
        255 => level() != Level::Off,
        _ => true,
    }
}

// ---- Registry ---------------------------------------------------------

/// Global store of named counters, gauges, and histograms.
///
/// Metric handles are `Arc`s: call sites cache them (see [`span!`]) and
/// keep recording lock-free. [`Registry::reset`] therefore zeroes
/// metrics in place instead of dropping them, so cached handles stay
/// live across test runs.
pub struct Registry {
    counters: OrderedMutex<BTreeMap<String, Arc<AtomicU64>>>,
    gauges: OrderedMutex<BTreeMap<String, Arc<AtomicU64>>>, // f64 bits
    histograms: OrderedMutex<BTreeMap<String, Arc<Histogram>>>,
}

impl Default for Registry {
    fn default() -> Self {
        Self {
            counters: OrderedMutex::new(&classes::OBS_COUNTERS, BTreeMap::new()),
            gauges: OrderedMutex::new(&classes::OBS_GAUGES, BTreeMap::new()),
            histograms: OrderedMutex::new(&classes::OBS_HISTOGRAMS, BTreeMap::new()),
        }
    }
}

impl Registry {
    /// The named counter, created on first use.
    pub fn counter(&self, name: &str) -> Arc<AtomicU64> {
        let mut map = self.counters.lock();
        map.entry(name.to_string()).or_default().clone()
    }

    /// The named gauge (an `f64` stored as bits), created on first use.
    pub fn gauge(&self, name: &str) -> Arc<AtomicU64> {
        let mut map = self.gauges.lock();
        map.entry(name.to_string()).or_default().clone()
    }

    /// The named histogram of nanosecond durations, created on first use.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        self.histogram_in(name, Unit::Nanos)
    }

    /// The named histogram of plain counts, created on first use.
    pub fn count_histogram(&self, name: &str) -> Arc<Histogram> {
        self.histogram_in(name, Unit::Count)
    }

    /// The named histogram; `unit` applies only if this call creates it.
    fn histogram_in(&self, name: &str, unit: Unit) -> Arc<Histogram> {
        let mut map = self.histograms.lock();
        map.entry(name.to_string()).or_insert_with(|| Arc::new(Histogram::with_unit(unit))).clone()
    }

    /// Zeroes every metric in place (handles cached by call sites keep
    /// working). Intended for tests and multi-run binaries.
    pub fn reset(&self) {
        // ORDERING: Relaxed — metric cells are independent monotonic
        // scalars; readers tolerate torn-in-time snapshots by design.
        for c in self.counters.lock().values() {
            c.store(0, Ordering::Relaxed); // ORDERING: Relaxed — as above
        }
        // ORDERING: Relaxed — same independent-scalar contract.
        for g in self.gauges.lock().values() {
            g.store(0f64.to_bits(), Ordering::Relaxed); // ORDERING: Relaxed — as above
        }
        for h in self.histograms.lock().values() {
            h.reset();
        }
    }

    pub(crate) fn snapshot(&self) -> Snapshot {
        // ORDERING: Relaxed — snapshots are advisory; each cell is an
        // independent scalar and no cross-metric consistency is promised.
        let counters = self
            .counters
            .lock()
            .iter()
            .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed))) // ORDERING: Relaxed — as above
            .collect();
        // ORDERING: Relaxed — same advisory-snapshot contract.
        let gauges = self
            .gauges
            .lock()
            .iter()
            .map(|(k, v)| (k.clone(), f64::from_bits(v.load(Ordering::Relaxed)))) // ORDERING: Relaxed — as above
            .collect();
        let histograms =
            self.histograms.lock().iter().map(|(k, v)| (k.clone(), v.clone())).collect();
        Snapshot { counters, gauges, histograms }
    }
}

pub(crate) struct Snapshot {
    pub(crate) counters: BTreeMap<String, u64>,
    pub(crate) gauges: BTreeMap<String, f64>,
    pub(crate) histograms: BTreeMap<String, Arc<Histogram>>,
}

/// The process-wide registry.
pub fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::default)
}

/// Adds `n` to the named counter (no-op when disabled).
pub fn add_counter(name: &str, n: u64) {
    if enabled() {
        // ORDERING: Relaxed — counters are independent monotonic cells;
        // only totals matter, never cross-thread ordering.
        registry().counter(name).fetch_add(n, Ordering::Relaxed);
    }
}

/// Sets the named gauge (no-op when disabled).
pub fn set_gauge(name: &str, v: f64) {
    if enabled() {
        // ORDERING: Relaxed — last-writer-wins advisory value.
        registry().gauge(name).store(v.to_bits(), Ordering::Relaxed);
    }
}

// ---- Spans ------------------------------------------------------------

thread_local! {
    /// Names of the spans currently open on this thread, outermost first.
    static SPAN_STACK: std::cell::RefCell<Vec<&'static str>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// Monotonic origin for trace timestamps.
pub(crate) fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Whole seconds since the trace epoch (the [`SloWindow`] clock).
pub(crate) fn epoch_secs() -> u64 {
    epoch().elapsed().as_secs()
}

/// RAII timer: created by [`span!`], records its wall-clock duration
/// into the span's histogram (and the trace sink, if any) on drop.
pub struct SpanGuard {
    inner: Option<SpanInner>,
}

struct SpanInner {
    name: &'static str,
    hist: Arc<Histogram>,
    start: Instant,
    depth: usize,
}

impl SpanGuard {
    /// An inert guard: dropping it does nothing. Used when telemetry is off.
    #[inline]
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    /// Opens a span feeding `hist`. Prefer the [`span!`] macro, which
    /// caches the histogram handle per call site.
    pub fn enter(name: &'static str, hist: Arc<Histogram>) -> Self {
        epoch(); // pin the trace origin before the first measurement
        let depth = SPAN_STACK.with(|s| {
            let mut s = s.borrow_mut();
            s.push(name);
            s.len() - 1
        });
        Self { inner: Some(SpanInner { name, hist, start: Instant::now(), depth }) }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(inner) = self.inner.take() else { return };
        let dur = inner.start.elapsed();
        let ns = dur.as_nanos().min(u64::MAX as u128) as u64;
        inner.hist.record(ns);
        trace::note_span(inner.name, ns);
        SPAN_STACK.with(|s| {
            s.borrow_mut().pop();
        });
        // The event is built only for an attached sink: building it
        // costs more than the rest of the drop.
        if sink_attached() {
            trace_event(json!({
                "type": "span",
                "name": inner.name,
                "dur_ns": ns,
                "depth": inner.depth,
                "ts_ns": (inner.start - epoch()).as_nanos().min(u64::MAX as u128) as u64,
            }));
        }
        if level() == Level::Debug {
            eprintln!(
                "[obs] {:indent$}{} {:.3} ms",
                "",
                inner.name,
                ns as f64 / 1e6,
                indent = inner.depth * 2
            );
        }
    }
}

/// Current span nesting depth on this thread (0 = no open span).
pub fn span_depth() -> usize {
    SPAN_STACK.with(|s| s.borrow().len())
}

/// Times the enclosing scope under a static span name.
///
/// Expands to a [`SpanGuard`] binding; the span closes when the guard
/// drops. When telemetry is off this is one atomic load.
///
/// ```
/// let _span = explainti_obs::span!("encoder.forward");
/// ```
#[macro_export]
macro_rules! span {
    ($name:literal) => {{
        if $crate::enabled() {
            static HIST: ::std::sync::OnceLock<::std::sync::Arc<$crate::Histogram>> =
                ::std::sync::OnceLock::new();
            $crate::SpanGuard::enter(
                $name,
                HIST.get_or_init(|| $crate::registry().histogram($name)).clone(),
            )
        } else {
            $crate::SpanGuard::disabled()
        }
    }};
}

/// Adds to a named counter (cached handle per call site; one atomic
/// load when telemetry is off).
#[macro_export]
macro_rules! counter {
    ($name:literal, $n:expr) => {{
        if $crate::enabled() {
            static CTR: ::std::sync::OnceLock<::std::sync::Arc<::std::sync::atomic::AtomicU64>> =
                ::std::sync::OnceLock::new();
            CTR.get_or_init(|| $crate::registry().counter($name))
                // ORDERING: Relaxed — counters are independent advisory
                // scalars; no cross-metric consistency is promised.
                .fetch_add($n as u64, ::std::sync::atomic::Ordering::Relaxed);
        }
    }};
}

// ---- Trace sink -------------------------------------------------------

/// Where JSONL trace events go; `None` (the default) drops them.
static SINK: OrderedMutex<Option<Box<dyn Write + Send>>> =
    OrderedMutex::new(&classes::OBS_SINK, None);
/// Cheap "is a sink attached" check so untraced runs skip serialisation.
static SINK_ATTACHED: AtomicUsize = AtomicUsize::new(0);

/// Routes trace events to a JSONL file (the `--trace-out` flag).
pub fn set_trace_file(path: &std::path::Path) -> std::io::Result<()> {
    let file = std::fs::File::create(path)?;
    set_trace_writer(Box::new(std::io::BufWriter::new(file)));
    Ok(())
}

/// Routes trace events to an arbitrary writer (tests use an in-memory one).
pub fn set_trace_writer(w: Box<dyn Write + Send>) {
    *SINK.lock() = Some(w);
    // ORDERING: Release — pairs with the Acquire loads in
    // `sink_attached`/`trace_event` so a thread that observes 1 also
    // observes the sink installed above (the mutex would synchronise
    // too, but the flag is read without it).
    SINK_ATTACHED.store(1, Ordering::Release);
}

/// Detaches and flushes the current trace sink, if any.
pub fn close_trace() {
    // ORDERING: Release — orders the detach before the take/flush below
    // for threads that skip the lock after loading 0 (see `trace_event`).
    SINK_ATTACHED.store(0, Ordering::Release);
    if let Some(mut w) = SINK.lock().take() {
        let _ = w.flush();
    }
}

/// Whether a JSONL sink is currently attached (one atomic load).
pub(crate) fn sink_attached() -> bool {
    // ORDERING: Acquire — pairs with the Release store in
    // `set_trace_writer`; observing 1 implies the sink is installed.
    SINK_ATTACHED.load(Ordering::Acquire) != 0
}

pub(crate) fn trace_event(event: Value) {
    // ORDERING: Acquire — pairs with `set_trace_writer`'s Release store;
    // a 1 here guarantees the boxed writer below is visible.
    if SINK_ATTACHED.load(Ordering::Acquire) == 0 {
        return;
    }
    if let Some(w) = SINK.lock().as_mut() {
        let line = serde_json::to_string(&event).unwrap_or_default();
        let _ = writeln!(w, "{line}");
    }
}

/// Emits a free-form event to the trace sink (no-op when untraced or off).
pub fn emit(event: Value) {
    if enabled() {
        trace_event(event);
    }
}

// ---- Reporting --------------------------------------------------------

fn fmt_ms(ns: u64) -> String {
    format!("{:.3}", ns as f64 / 1e6)
}

/// Human-readable end-of-run summary of every recorded metric. Time
/// histograms print in milliseconds under `spans`; count histograms
/// ([`Unit::Count`]) print their plain values in a table of their own.
pub fn report() -> String {
    let snap = registry().snapshot();
    let mut out = String::new();

    let mut spans =
        TextTable::new(["span", "count", "p50 ms", "p90 ms", "p99 ms", "max ms", "total ms"]);
    let mut counts = TextTable::new(["histogram", "count", "p50", "p90", "p99", "max", "sum"]);
    for (name, h) in &snap.histograms {
        if h.count() == 0 {
            continue;
        }
        let (table, fmt): (&mut TextTable, fn(u64) -> String) = match h.unit() {
            Unit::Nanos => (&mut spans, fmt_ms),
            Unit::Count => (&mut counts, |v| v.to_string()),
        };
        table.row([
            name.clone(),
            h.count().to_string(),
            fmt(h.quantile(0.50)),
            fmt(h.quantile(0.90)),
            fmt(h.quantile(0.99)),
            fmt(h.max()),
            fmt(h.sum()),
        ]);
    }
    for (title, table) in [("spans", &spans), ("count histograms", &counts)] {
        if !table.is_empty() {
            if !out.is_empty() {
                out.push('\n');
            }
            out.push_str(title);
            out.push('\n');
            out.push_str(&table.render());
        }
    }

    let mut scalars = TextTable::new(["metric", "value"]);
    for (name, v) in &snap.counters {
        if *v != 0 {
            scalars.row([name.clone(), v.to_string()]);
        }
    }
    for (name, v) in &snap.gauges {
        scalars.row([name.clone(), format!("{v}")]);
    }
    if !scalars.is_empty() {
        if !out.is_empty() {
            out.push('\n');
        }
        out.push_str("counters & gauges\n");
        out.push_str(&scalars.render());
    }

    if out.is_empty() {
        out.push_str("no telemetry recorded\n");
    }
    out
}

/// Machine-readable snapshot of every recorded metric (BENCH files,
/// trace footers).
pub fn summary() -> Value {
    let snap = registry().snapshot();
    let mut histograms = BTreeMap::new();
    for (name, h) in &snap.histograms {
        if h.count() == 0 {
            continue;
        }
        histograms.insert(
            name.clone(),
            json!({
                "count": h.count(),
                "p50_ns": h.quantile(0.50),
                "p90_ns": h.quantile(0.90),
                "p99_ns": h.quantile(0.99),
                "min_ns": h.min(),
                "max_ns": h.max(),
                "sum_ns": h.sum(),
                "mean_ns": h.mean(),
            }),
        );
    }
    json!({
        "histograms": histograms,
        "counters": snap.counters,
        "gauges": snap.gauges,
    })
}
