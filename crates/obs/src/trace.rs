//! Request-scoped tracing: trace ids, span capture, and wide events.
//!
//! Three cooperating pieces turn the per-span JSONL stream into
//! *per-request* observability:
//!
//! - [`TraceId`] — a deterministic 64-bit id minted per request from a
//!   seeded SplitMix64 sequence (`EXPLAINTI_TRACE_SEED` /
//!   [`set_trace_seed`]), so test runs produce reproducible ids and the
//!   sequence never collides (SplitMix64 is a bijection).
//! - [`SpanCapture`] — a shareable accumulator of span durations. While
//!   installed on a thread (RAII guard), every closing [`span!`](crate::span!)
//!   adds its duration under its name. A serve worker installs one around
//!   a request's forward, which runs on that worker, so its spans
//!   (`explain.le`, `model.forward`, …) attribute to that request.
//! - [`RequestTrace`] — the wide-event builder: one JSONL record per
//!   request carrying the trace id, status, and a canonical per-stage
//!   duration map ([`STAGES`]) that mirrors the paper's Table V
//!   stage breakdown.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use explainti_sync::{classes, OrderedMutex};
use std::time::Instant;

use serde_json::{json, Value};

// ---- Trace ids --------------------------------------------------------

/// The canonical wide-event stage names, in pipeline order. Each maps
/// onto a column of the paper's Table V latency breakdown (parse and
/// serialize are the HTTP framing the paper folds into "overhead";
/// `predict` is the encoder forward net of the three explanation views).
pub const STAGES: [&str; 9] = [
    "parse",
    "queue_wait",
    "batch_assembly",
    "encode",
    "predict",
    "explain_le",
    "explain_ge",
    "explain_se",
    "serialize",
];

/// Default id-sequence seed when `EXPLAINTI_TRACE_SEED` is unset.
const DEFAULT_TRACE_SEED: u64 = 0x7ab1_e5ee_d000_0001;

/// A per-request trace identifier, rendered as 16 lowercase hex digits
/// (the `X-Trace-Id` header / `trace_id` JSONL field).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceId(u64);

impl TraceId {
    /// The raw 64-bit id.
    pub fn as_u64(self) -> u64 {
        self.0
    }
}

impl fmt::Display for TraceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// SplitMix64 finaliser: a bijection on u64, so distinct counter values
/// yield distinct ids for any seed.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn seed_cell() -> &'static AtomicU64 {
    static CELL: OnceLock<AtomicU64> = OnceLock::new();
    CELL.get_or_init(|| {
        let seed = std::env::var("EXPLAINTI_TRACE_SEED")
            .ok()
            .and_then(|s| s.trim().parse().ok())
            .unwrap_or(DEFAULT_TRACE_SEED);
        AtomicU64::new(seed)
    })
}

static TRACE_COUNTER: AtomicU64 = AtomicU64::new(0);

/// Overrides the trace-id seed and restarts the sequence (tests; the
/// `EXPLAINTI_TRACE_SEED` env var covers whole processes).
pub fn set_trace_seed(seed: u64) {
    // ORDERING: Relaxed — seed and counter are test-sequencing state;
    // callers serialise reseeding externally, so no edge is needed.
    seed_cell().store(seed, Ordering::Relaxed);
    // ORDERING: Relaxed — same external-serialisation contract.
    TRACE_COUNTER.store(0, Ordering::Relaxed);
}

/// Mints the next trace id: deterministic for a fixed seed, unique for
/// the life of the process (the counter never repeats).
pub fn next_trace_id() -> TraceId {
    // ORDERING: Relaxed — uniqueness needs only atomicity of the
    // increment; ids carry no payload to synchronise.
    let n = TRACE_COUNTER.fetch_add(1, Ordering::Relaxed);
    // ORDERING: Relaxed — see set_trace_seed; reseeds are externally
    // serialised.
    let seed = seed_cell().load(Ordering::Relaxed);
    TraceId(splitmix64(seed.wrapping_add(n.wrapping_mul(0x9e37_79b9_7f4a_7c15))))
}

// ---- Span capture -----------------------------------------------------

type StageSums = BTreeMap<&'static str, u64>;

/// A shareable accumulator of closed-span durations, keyed by span name.
///
/// Install it on a thread with [`SpanCapture::install`]; while the
/// returned guard lives, every span closing on that thread adds its
/// duration here. Clones share the same accumulator, so a clone
/// installed on another thread feeds it too.
#[derive(Clone)]
pub struct SpanCapture {
    sums: Arc<OrderedMutex<StageSums>>,
}

impl Default for SpanCapture {
    fn default() -> Self {
        Self { sums: Arc::new(OrderedMutex::new(&classes::OBS_TRACE_SUMS, StageSums::new())) }
    }
}

impl SpanCapture {
    /// An empty capture.
    pub fn new() -> Self {
        Self::default()
    }

    /// Installs this capture as the thread's active one until the guard
    /// drops (the previous capture, if any, is restored — captures nest).
    pub fn install(&self) -> CaptureGuard {
        let prev = ACTIVE_CAPTURE.with(|c| c.borrow_mut().replace(self.clone()));
        CaptureGuard { prev }
    }

    /// Snapshot of the accumulated `span name → total ns` map.
    pub fn sums(&self) -> StageSums {
        self.sums.lock().clone()
    }

    /// Total nanoseconds accumulated under `name` (0 when unseen).
    pub fn get(&self, name: &str) -> u64 {
        self.sums.lock().get(name).copied().unwrap_or(0)
    }
}

/// Restores the previously active capture when dropped.
pub struct CaptureGuard {
    prev: Option<SpanCapture>,
}

impl Drop for CaptureGuard {
    fn drop(&mut self) {
        let prev = self.prev.take();
        ACTIVE_CAPTURE.with(|c| *c.borrow_mut() = prev);
    }
}

thread_local! {
    /// The capture currently receiving this thread's span closes.
    static ACTIVE_CAPTURE: RefCell<Option<SpanCapture>> = const { RefCell::new(None) };
}

/// Feeds one closed span into the active capture (called by
/// `SpanGuard::drop`; a no-op when no capture is installed).
pub(crate) fn note_span(name: &'static str, ns: u64) {
    ACTIVE_CAPTURE.with(|c| {
        if let Some(cap) = c.borrow().as_ref() {
            *cap.sums.lock().entry(name).or_insert(0) += ns;
        }
    });
}

// ---- Wide events ------------------------------------------------------

/// Builder for one request's wide event: a single JSONL record carrying
/// the trace id, endpoint, status, and the canonical [`STAGES`] duration
/// map. Create it when the connection is accepted, feed it as the
/// request moves through the pipeline, and [`finish`](Self::finish) it
/// after the response is written.
pub struct RequestTrace {
    id: TraceId,
    start: Instant,
    endpoint: &'static str,
    status: u16,
    cache_hits: u64,
    columns: u64,
    batch_size_max: u64,
    stages: StageSums,
}

impl RequestTrace {
    /// Starts the request clock under `id`.
    pub fn new(id: TraceId) -> Self {
        Self::starting_at(id, Instant::now())
    }

    /// Starts the request clock under `id` at `start`, e.g. when the
    /// request's first byte arrived, so stages timed from then on fall
    /// inside the request's total.
    pub fn starting_at(id: TraceId, start: Instant) -> Self {
        crate::epoch(); // pin the trace origin before the first measurement
        Self {
            id,
            start,
            endpoint: "",
            status: 0,
            cache_hits: 0,
            columns: 0,
            batch_size_max: 0,
            stages: StageSums::new(),
        }
    }

    /// This request's trace id.
    pub fn id(&self) -> TraceId {
        self.id
    }

    /// Names the logical endpoint (`interpret`, `healthz`, …).
    pub fn set_endpoint(&mut self, endpoint: &'static str) {
        self.endpoint = endpoint;
    }

    /// Records the HTTP status the response carried.
    pub fn set_status(&mut self, status: u16) {
        self.status = status;
    }

    /// Adds `ns` under `stage` (accumulates across calls, so split
    /// measurements — e.g. header read + body parse — merge into one
    /// stage field).
    pub fn add_stage(&mut self, stage: &'static str, ns: u64) {
        debug_assert!(STAGES.contains(&stage), "unknown wide-event stage {stage}");
        *self.stages.entry(stage).or_insert(0) += ns;
    }

    /// Counts one response served from the LRU cache.
    pub fn note_cache_hit(&mut self) {
        self.cache_hits += 1;
    }

    /// Counts one column submitted for this request.
    pub fn note_column(&mut self) {
        self.columns += 1;
    }

    /// Records how many columns a forward of this request ran (the wide
    /// event's `batch_size_max` keeps the largest).
    pub fn note_batch(&mut self, size: u64) {
        self.batch_size_max = self.batch_size_max.max(size);
    }

    /// Nanoseconds since the request clock started.
    pub fn elapsed_ns(&self) -> u64 {
        self.start.elapsed().as_nanos().min(u64::MAX as u128) as u64
    }

    /// Emits the wide event to the trace sink (all [`STAGES`] keys
    /// present, unmeasured ones zero) and returns the request's total
    /// nanoseconds. Counts `trace.emitted` / `trace.dropped` so sink
    /// health is visible in `/v1/metrics`.
    pub fn finish(self) -> u64 {
        let total_ns = self.elapsed_ns();
        if !crate::enabled() {
            return total_ns;
        }
        if crate::sink_attached() {
            let mut stages = BTreeMap::new();
            for stage in STAGES {
                let ns = self.stages.get(stage).copied().unwrap_or(0);
                stages.insert(stage.to_string(), json!(ns));
            }
            crate::trace_event(json!({
                "type": "wide",
                "trace_id": self.id.to_string(),
                "endpoint": self.endpoint,
                "status": self.status,
                "total_ns": total_ns,
                "cache_hits": self.cache_hits,
                "columns": self.columns,
                "batch_size_max": self.batch_size_max,
                "stages": Value::Object(stages),
            }));
            crate::add_counter("trace.emitted", 1);
        } else {
            crate::add_counter("trace.dropped", 1);
        }
        total_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_ids_are_deterministic_per_seed() {
        set_trace_seed(42);
        let a: Vec<u64> = (0..8).map(|_| next_trace_id().as_u64()).collect();
        set_trace_seed(42);
        let b: Vec<u64> = (0..8).map(|_| next_trace_id().as_u64()).collect();
        assert_eq!(a, b);
        set_trace_seed(43);
        let c: Vec<u64> = (0..8).map(|_| next_trace_id().as_u64()).collect();
        assert_ne!(a, c);
    }

    #[test]
    fn trace_ids_are_unique_and_hex_formatted() {
        set_trace_seed(7);
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..10_000 {
            let id = next_trace_id();
            assert!(seen.insert(id.as_u64()), "duplicate id {id}");
        }
        let rendered = next_trace_id().to_string();
        assert_eq!(rendered.len(), 16);
        assert!(rendered.chars().all(|c| c.is_ascii_hexdigit()));
    }

    #[test]
    fn capture_accumulates_only_while_installed() {
        let cap = SpanCapture::new();
        note_span("outside", 5);
        {
            let _g = cap.install();
            note_span("stage.a", 10);
            note_span("stage.a", 7);
            note_span("stage.b", 3);
        }
        note_span("stage.a", 100);
        assert_eq!(cap.get("stage.a"), 17);
        assert_eq!(cap.get("stage.b"), 3);
        assert_eq!(cap.get("outside"), 0);
    }

    #[test]
    fn captures_nest_and_restore() {
        let outer = SpanCapture::new();
        let inner = SpanCapture::new();
        let _a = outer.install();
        {
            let _b = inner.install();
            note_span("x", 1);
        }
        note_span("x", 2);
        assert_eq!(inner.get("x"), 1);
        assert_eq!(outer.get("x"), 2);
    }

    #[test]
    fn capture_clones_share_one_accumulator_across_threads() {
        let cap = SpanCapture::new();
        let clone = cap.clone();
        let t = std::thread::spawn(move || {
            let _g = clone.install();
            note_span("cross", 11);
        });
        t.join().expect("capture thread");
        assert_eq!(cap.get("cross"), 11);
    }
}
