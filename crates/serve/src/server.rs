//! The micro-batching inference server behind the epoll front-end.
//!
//! Three thread tiers. The **event loop** ([`crate::event_loop`]) owns
//! every socket: it accepts, enforces the connection limit (typed 429)
//! and read deadlines (typed 408), parses requests incrementally, and
//! flushes response bytes. Parsed requests become [`DispatchJob`]s on a
//! bounded dispatch queue drained by the **dispatcher pool**, which runs
//! the route handlers — including blocking waits on prediction replies —
//! and writes rendered bytes back through [`crate::conn::ResponseSink`].
//! Cache misses land as [`Job`]s on the prediction [`BatchQueue`],
//! drained in micro-batches by the **worker pool** running
//! [`ExplainTi::predict_encoded_batch`] over one shared tape.
//!
//! The prediction queue remains the backpressure point (full queue →
//! 503), every job carries a deadline so abandoned requests are dropped
//! rather than computed, and table responses stream per-column as
//! chunked transfer-encoding instead of materialising the full JSON.
//!
//! Routing is a declarative table ([`ROUTES`]): one `Route` per
//! endpoint, from which both the 405 `Allow` set and the known-path
//! list derive.

use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};

use explainti_sync::{classes, OrderedMutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use explainti_api::{
    ApiError, ColumnPrediction, ConfigResponse, ErrorCode, InterpretTableRequest, ModelInfo,
    PredictRequest, PredictResponse, ShardStatus, StoreStatusResponse, SwapRequest, SwapResponse,
    SCHEMA_VERSION,
};
use explainti_core::{ExplainTi, Generation, GenerationHandle};
use serde::Deserialize;
use serde_json::{json, Value};

use crate::cache::LruCache;
use crate::conn::{ConnIo, ResponseSink, Waker};
use crate::event_loop::{self, LoopCfg};
use crate::http;
use crate::queue::{BatchQueue, PushError};

/// How the server is sized; every knob has a CLI flag.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address, e.g. `127.0.0.1:8080` (`:0` for an ephemeral port).
    pub addr: String,
    /// Worker threads draining the queue. `0` is allowed for tests that
    /// need the queue to fill deterministically.
    pub workers: usize,
    /// Bounded queue capacity; pushes beyond it answer 503.
    pub queue_cap: usize,
    /// Maximum jobs a worker drains per wake-up.
    pub max_batch: usize,
    /// LRU cache capacity (cached full responses, explanations included).
    pub cache_cap: usize,
    /// Per-request deadline; exceeded requests answer 504.
    pub deadline_ms: u64,
    /// Explanations per view in each response.
    pub top_k: usize,
    /// Kernel compute threads (the shared pool's width). Distinct from
    /// `workers`: workers bound how many requests are *in flight*, while
    /// threads bound how much CPU each micro-batch forward uses. `0`
    /// inherits the process-wide pool as already configured (CLI flag,
    /// `EXPLAINTI_THREADS`, or available parallelism).
    pub threads: usize,
    /// Sliding SLO window length in seconds: rolling p50/p99/p999 and
    /// error rate over the trailing window, published as `serve.slo.*`
    /// gauges at metrics-scrape time.
    pub slo_window_s: u64,
    /// Hard cap on concurrently open connections; excess connects are
    /// answered with a typed 429 + `Retry-After` and closed.
    pub max_conns: usize,
    /// A connection that has started but not completed a request within
    /// this window answers a typed 408 and closes (slow-loris defence).
    pub read_timeout_ms: u64,
    /// Keep-alive connections idle longer than this are closed.
    pub idle_timeout_ms: u64,
    /// Dispatcher threads running route handlers. `0` derives a default
    /// from `workers` (handlers block on worker replies, so there must
    /// be more dispatchers than workers for batching to form).
    pub dispatchers: usize,
    /// Store shards per task (consistent-hash buckets); swapped-in
    /// generations are loaded with the same layout. `1` = unsharded.
    pub shards: usize,
    /// Replicas per stored embedding; must satisfy `1 ≤ replicas ≤ shards`.
    pub replicas: usize,
    /// Smoke-verify a swap candidate with one prediction before commit.
    pub swap_verify: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            queue_cap: 64,
            max_batch: 8,
            cache_cap: 256,
            deadline_ms: 30_000,
            top_k: explainti_api::DEFAULT_TOP_K,
            threads: 0,
            slo_window_s: 60,
            max_conns: 1024,
            read_timeout_ms: 10_000,
            idle_timeout_ms: 60_000,
            dispatchers: 0,
            shards: 1,
            replicas: 1,
            swap_verify: true,
        }
    }
}

/// Hard cap on columns per `/v1/interpret` table request: a pathological
/// 10k-column row must answer a clean 400, not exhaust the queue.
const MAX_TABLE_COLUMNS: usize = 512;

/// How many times a job may be attempted in total (1 initial + retries).
/// A worker panic re-enqueues the batch's jobs once; a second panic
/// answers a typed 500 instead of retrying forever.
const MAX_ATTEMPTS: u32 = 2;

/// Base backoff before a panicked batch is re-enqueued; doubles per
/// attempt already made.
const RETRY_BACKOFF_MS: u64 = 10;

/// Stage timings a worker reports back with each response so the
/// dispatcher can fold them into the request's wide event. `queue_wait`
/// is per job; the remaining fields describe the micro-batch the job
/// rode in (per-request events record their batch's cost — the critical
/// path the request actually waited on — not an amortised share).
struct JobStages {
    queue_wait_ns: u64,
    batch_assembly_ns: u64,
    /// Forward + head time net of the three explanation views.
    predict_ns: u64,
    le_ns: u64,
    ge_ns: u64,
    se_ns: u64,
    batch_size: u64,
}

impl JobStages {
    /// Total worker-side chain: the sequential enqueue → reply interval.
    fn chain_ns(&self) -> u64 {
        self.queue_wait_ns
            .saturating_add(self.batch_assembly_ns)
            .saturating_add(self.predict_ns)
            .saturating_add(self.le_ns)
            .saturating_add(self.ge_ns)
            .saturating_add(self.se_ns)
    }
}

/// What a worker (or the cache path) sends back per job: the response
/// plus stage timings (`None` for cache hits — nothing was computed).
type JobReply = Result<(Arc<PredictResponse>, Option<JobStages>), ApiError>;

/// Saturating nanoseconds from `earlier` to `later` (0 if out of order).
fn ns_since(earlier: Instant, later: Instant) -> u64 {
    later.saturating_duration_since(earlier).as_nanos().min(u64::MAX as u128) as u64
}

/// One queued column prediction.
struct Job {
    /// The generation the request was dispatched against: the job runs
    /// on this model even if a swap commits while it waits in the queue.
    gen: Arc<Generation>,
    encoded: explainti_tokenizer::Encoded,
    key: u64,
    resp_tx: mpsc::Sender<JobReply>,
    deadline: Instant,
    /// When the job entered the queue (wide-event `queue_wait`).
    enqueued_at: Instant,
    /// Times this job has been handed to a worker (retry bookkeeping).
    attempts: u32,
}

/// One parsed request handed from the event loop to a dispatcher.
pub(crate) struct DispatchJob {
    /// Event-loop connection id (the epoll token).
    pub(crate) conn_id: u64,
    /// The parsed request.
    pub(crate) request: http::Request,
    /// The connection's outbound state, for the response.
    pub(crate) io: Arc<ConnIo>,
    /// Wakes the event loop after each enqueue.
    pub(crate) waker: Waker,
}

pub(crate) struct Shared {
    /// The live model generation; requests snapshot it once at dispatch.
    generations: GenerationHandle,
    queue: BatchQueue<Job>,
    /// Parsed requests awaiting a dispatcher (one in flight per conn).
    pub(crate) dispatch: BatchQueue<DispatchJob>,
    cache: OrderedMutex<LruCache<u64, Arc<PredictResponse>>>,
    pub(crate) shutdown: Arc<AtomicBool>,
    top_k: usize,
    max_batch: usize,
    deadline: Duration,
    /// Rolling latency/error window behind the `serve.slo.*` gauges.
    slo: explainti_obs::SloWindow,
    /// Held (CAS) for the duration of an admin swap; a second concurrent
    /// swap answers a typed 409 instead of queueing.
    swap_lock: AtomicBool,
    /// Store layout swapped-in generations are loaded with.
    shards: usize,
    replicas: usize,
    swap_verify: bool,
    /// Effective knobs, frozen at startup for `/v1/config`; the `model`
    /// block is refreshed per request from the live generation.
    config: ConfigResponse,
}

/// The response cache guard (the `OrderedMutex` recovers poisoned
/// guards internally, so a handler never panics on a poisoned cache —
/// EA006).
fn lock_cache(
    shared: &Shared,
) -> explainti_sync::OrderedMutexGuard<'_, LruCache<u64, Arc<PredictResponse>>> {
    shared.cache.lock()
}

/// Hash of the request content a cached response is keyed by. The
/// generation id participates so a response computed by one model can
/// never answer a request dispatched against another.
fn cache_key(generation: u64, title: &str, header: &str, cells: &[String]) -> u64 {
    let mut h = DefaultHasher::new();
    generation.hash(&mut h);
    title.hash(&mut h);
    header.hash(&mut h);
    cells.hash(&mut h);
    h.finish()
}

// ---- Worker pool ------------------------------------------------------

fn worker_loop(shared: &Shared) {
    while let Some(batch) = shared.queue.pop_batch(shared.max_batch) {
        let drained_at = Instant::now();
        let depth = shared.queue.len();
        explainti_obs::set_gauge("serve.queue.depth", depth as f64);
        if explainti_obs::enabled() {
            // Depth sampled at every drain: a distribution (not just the
            // latest gauge value), so load tests can plot queue pressure.
            explainti_obs::registry().histogram("serve.queue.depth.sampled").record(depth as u64);
        }
        let (live, expired): (Vec<Job>, Vec<Job>) =
            batch.into_iter().partition(|j| j.deadline > drained_at);
        if !expired.is_empty() {
            // The waiting handler already gave up; don't burn a forward.
            explainti_obs::counter!("serve.jobs.expired", expired.len() as u64);
        }
        if live.is_empty() {
            continue;
        }
        // A swap mid-flight can leave jobs from two generations in one
        // drain: group by generation id so each forward runs on the
        // model its requests were dispatched against.
        let mut groups: BTreeMap<u64, Vec<Job>> = BTreeMap::new();
        for job in live {
            groups.entry(job.gen.id).or_default().push(job);
        }
        for jobs in groups.into_values() {
            run_batch(shared, jobs, drained_at);
        }
    }
}

/// Runs one same-generation micro-batch: forward, respond, retry.
fn run_batch(shared: &Shared, live: Vec<Job>, drained_at: Instant) {
    let Some(first) = live.first() else { return };
    let gen = Arc::clone(&first.gen);
    if explainti_obs::enabled() {
        explainti_obs::registry().histogram("serve.batch.size").record(live.len() as u64);
    }
    let _span = explainti_obs::span!("serve.batch.predict");
    // Chaos site: a slow batch (GC pause / noisy neighbour stand-in)
    // to exercise the deadline path without a real stall.
    if explainti_faults::triggered("serve.batch.slow") {
        std::thread::sleep(Duration::from_millis(50));
    }
    let encs: Vec<explainti_tokenizer::Encoded> = live.iter().map(|j| j.encoded.clone()).collect();
    let forward_at = Instant::now();
    let batch_assembly_ns = ns_since(drained_at, forward_at);
    // Capture every span the forward closes — including those on
    // kernel-pool threads, which re-install this capture around each
    // task — so per-request wide events can attribute predict/LE/GE/SE.
    let capture = explainti_obs::SpanCapture::new();
    // A panicking forward (injected via `serve.worker.panic` or real)
    // must not kill the worker: recover, re-enqueue each job within
    // its retry budget, and answer a typed 500 past it.
    let outcome = {
        let _ctx = capture.install();
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            explainti_faults::panic_if_triggered("serve.worker.panic");
            gen.model.predict_encoded_batch(&encs)
        }))
    };
    match outcome {
        Ok(preds) => {
            let le_ns = capture.get("explain.le");
            let ge_ns = capture.get("explain.ge");
            let se_ns = capture.get("explain.se");
            // Disjoint stages: predict is the batch forward net of
            // the three explanation views, so the stage fields sum
            // to (at most) the observed span total.
            let predict_ns = capture
                .get("model.predict_batch")
                .saturating_sub(le_ns.saturating_add(ge_ns).saturating_add(se_ns));
            let batch_size = live.len() as u64;
            for (job, pred) in live.into_iter().zip(preds) {
                let resp =
                    Arc::new(PredictResponse::from_prediction(&pred, &gen.labels, shared.top_k));
                lock_cache(shared).insert(job.key, Arc::clone(&resp));
                let stages = JobStages {
                    queue_wait_ns: ns_since(job.enqueued_at, drained_at),
                    batch_assembly_ns,
                    predict_ns,
                    le_ns,
                    ge_ns,
                    se_ns,
                    batch_size,
                };
                // A closed receiver means the handler timed out.
                let _ = job.resp_tx.send(Ok((resp, Some(stages))));
            }
        }
        Err(_) => {
            explainti_obs::counter!("serve.worker.panics", 1);
            for mut job in live {
                if job.attempts + 1 >= MAX_ATTEMPTS {
                    explainti_obs::counter!("serve.jobs.retry_exhausted", 1);
                    let _ = job.resp_tx.send(Err(ApiError::internal(
                        "prediction worker panicked and the retry budget is exhausted",
                    )));
                    continue;
                }
                std::thread::sleep(Duration::from_millis(RETRY_BACKOFF_MS << job.attempts));
                job.attempts += 1;
                explainti_obs::counter!("serve.jobs.retried", 1);
                let tx = job.resp_tx.clone();
                if shared.queue.try_push(job).is_err() {
                    // Queue full or closed mid-retry: fail loudly
                    // rather than letting the handler hit 504.
                    explainti_obs::counter!("serve.jobs.retry_dropped", 1);
                    let _ = tx
                        .send(Err(ApiError::internal("prediction retry could not be re-enqueued")));
                }
            }
        }
    }
}

// ---- Request handling -------------------------------------------------

/// Looks the column up in the cache or enqueues it, returning a receiver
/// for the (possibly already-delivered) response.
fn submit_column(
    shared: &Shared,
    gen: &Arc<Generation>,
    req: &PredictRequest,
    deadline: Instant,
    rtrace: &mut explainti_obs::RequestTrace,
) -> Result<mpsc::Receiver<JobReply>, ApiError> {
    if req.header.is_empty() && req.cells.is_empty() {
        return Err(ApiError::bad_request("column has neither header nor cells"));
    }
    rtrace.note_column();
    let key = cache_key(gen.id, &req.title, &req.header, &req.cells);
    let (tx, rx) = mpsc::channel();
    if let Some(hit) = lock_cache(shared).get(&key) {
        explainti_obs::counter!("serve.cache.hit", 1);
        rtrace.note_cache_hit();
        let _ = tx.send(Ok((Arc::clone(hit), None)));
        return Ok(rx);
    }
    explainti_obs::counter!("serve.cache.miss", 1);
    // Chaos site: backpressure without actually filling the queue.
    if explainti_faults::triggered("serve.queue.full") {
        return Err(ApiError::new(
            ErrorCode::QueueFull,
            format!("request queue at capacity ({})", shared.queue.capacity()),
        ));
    }
    let cells: Vec<&str> = req.cells.iter().map(String::as_str).collect();
    let encode_start = Instant::now();
    let encoded = gen.model.encode_ad_hoc_column(&req.title, &req.header, &cells);
    rtrace.add_stage("encode", ns_since(encode_start, Instant::now()));
    let job = Job {
        gen: Arc::clone(gen),
        encoded,
        key,
        resp_tx: tx,
        deadline,
        enqueued_at: Instant::now(),
        attempts: 0,
    };
    match shared.queue.try_push(job) {
        Ok(()) => {
            explainti_obs::set_gauge("serve.queue.depth", shared.queue.len() as f64);
            Ok(rx)
        }
        Err(PushError::Full) => Err(ApiError::new(
            ErrorCode::QueueFull,
            format!("request queue at capacity ({})", shared.queue.capacity()),
        )),
        Err(PushError::Closed) => {
            Err(ApiError::new(ErrorCode::ShuttingDown, "server is shutting down"))
        }
    }
}

fn await_response(
    rx: &mpsc::Receiver<JobReply>,
    deadline: Instant,
) -> Result<(Arc<PredictResponse>, Option<JobStages>), ApiError> {
    let remaining = deadline.saturating_duration_since(Instant::now());
    rx.recv_timeout(remaining)
        .map_err(|_| ApiError::new(ErrorCode::DeadlineExceeded, "prediction missed its deadline"))?
}

/// Folds one job's worker-side stage timings into the request's wide
/// event. Multi-column requests keep the *longest* single chain rather
/// than summing across columns: chains of different columns overlap in
/// real time, and the wide-event invariant is that stage durations are
/// sequential pieces of the request's own lifetime (sum ≤ total).
fn fold_worker_stages(best: &mut Option<JobStages>, stages: Option<JobStages>) {
    if let Some(st) = stages {
        let better = best.as_ref().is_none_or(|b| st.chain_ns() > b.chain_ns());
        if better {
            *best = Some(st);
        }
    }
}

/// Writes the chosen worker chain into the wide event's stage fields.
fn apply_worker_stages(rtrace: &mut explainti_obs::RequestTrace, best: Option<JobStages>) {
    if let Some(st) = best {
        rtrace.add_stage("queue_wait", st.queue_wait_ns);
        rtrace.add_stage("batch_assembly", st.batch_assembly_ns);
        rtrace.add_stage("predict", st.predict_ns);
        rtrace.add_stage("explain_le", st.le_ns);
        rtrace.add_stage("explain_ge", st.ge_ns);
        rtrace.add_stage("explain_se", st.se_ns);
        rtrace.note_batch(st.batch_size);
    }
}

/// Streams a table response: the chunked head goes out with the first
/// finished column, each subsequent column ships as its own chunk, and
/// the tail closes the JSON. Field order (`columns`, `schema_version`,
/// `title`) matches the vendored serde's sorted-key serialization, so
/// the streamed bytes are identical to `serde_json::to_string` of an
/// [`explainti_api::InterpretTableResponse`].
fn stream_table(
    shared: &Shared,
    gen: &Arc<Generation>,
    req: InterpretTableRequest,
    deadline: Instant,
    rtrace: &mut explainti_obs::RequestTrace,
    sink: &mut ResponseSink,
) -> Result<(), ApiError> {
    // Enqueue every column before waiting on any, so one connection's
    // table still forms a micro-batch for the workers.
    let mut pending = Vec::with_capacity(req.columns.len());
    for idx in 0..req.columns.len() {
        let col = req.column_request(idx);
        pending.push((col.header.clone(), submit_column(shared, gen, &col, deadline, rtrace)?));
    }
    let mut best = None;
    let mut ser_ns = 0u64;
    for (idx, (header, rx)) in pending.into_iter().enumerate() {
        // Past the first chunk the head is already on the wire: a column
        // failure can only abort the stream (handled by the caller).
        let (resp, stages) = await_response(&rx, deadline)?;
        fold_worker_stages(&mut best, stages);
        let ser_start = Instant::now();
        let col = ColumnPrediction { header, prediction: (*resp).clone() };
        let mut piece = String::new();
        if idx == 0 {
            piece.push_str("{\"columns\":[");
        } else {
            piece.push(',');
        }
        piece.push_str(&serde_json::to_string(&col).unwrap_or_default());
        ser_ns = ser_ns.saturating_add(ns_since(ser_start, Instant::now()));
        if idx == 0 {
            sink.begin_stream(200, "application/json");
        }
        sink.stream_chunk(piece.as_bytes());
    }
    let tail = format!(
        "],\"schema_version\":{SCHEMA_VERSION},\"title\":{}}}",
        serde_json::to_string(&req.title).unwrap_or_default()
    );
    sink.stream_chunk(tail.as_bytes());
    sink.end_stream();
    apply_worker_stages(rtrace, best);
    rtrace.add_stage("serialize", ser_ns);
    Ok(())
}

fn handle_interpret(
    shared: &Shared,
    gen: &Arc<Generation>,
    request: &http::Request,
    rtrace: &mut explainti_obs::RequestTrace,
    sink: &mut ResponseSink,
) -> Result<(), ApiError> {
    let _span = explainti_obs::span!("serve.request.interpret");
    if shared.shutdown.load(Ordering::SeqCst) {
        return Err(ApiError::new(ErrorCode::ShuttingDown, "server is shutting down"));
    }
    let parse_start = Instant::now();
    let parsed: Result<Value, ApiError> = std::str::from_utf8(&request.body)
        .map_err(|_| ApiError::bad_request("body is not valid UTF-8"))
        .and_then(|text| {
            serde_json::from_str(text).map_err(|e| ApiError::bad_request(format!("bad JSON: {e}")))
        });
    rtrace.add_stage("parse", ns_since(parse_start, Instant::now()));
    let value = parsed?;
    let deadline = Instant::now() + shared.deadline;

    // A body with a "columns" key is a whole table; otherwise a single
    // column. (The vendored serde has no untagged enums, so the dispatch
    // is a one-key sniff on the parsed tree.)
    if value.get("columns").is_some() {
        let req = InterpretTableRequest::from_value(&value)
            .map_err(|e| ApiError::bad_request(format!("bad table request: {e}")))?;
        if req.columns.is_empty() {
            return Err(ApiError::bad_request("table has no columns"));
        }
        if req.columns.len() > MAX_TABLE_COLUMNS {
            return Err(ApiError::bad_request(format!(
                "table has {} columns; the per-request limit is {MAX_TABLE_COLUMNS} — \
                 split the table across requests",
                req.columns.len()
            )));
        }
        stream_table(shared, gen, req, deadline, rtrace, sink)
    } else {
        let req = PredictRequest::from_value(&value)
            .map_err(|e| ApiError::bad_request(format!("bad predict request: {e}")))?;
        let rx = submit_column(shared, gen, &req, deadline, rtrace)?;
        let (resp, stages) = await_response(&rx, deadline)?;
        apply_worker_stages(rtrace, stages);
        let ser_start = Instant::now();
        let body = serde_json::to_string(&*resp).unwrap_or_default();
        rtrace.add_stage("serialize", ns_since(ser_start, Instant::now()));
        sink.send_json(200, &body);
        Ok(())
    }
}

/// Publishes the rolling SLO view as `serve.slo.*` gauges — called at
/// metrics-scrape time so both the JSON snapshot and the Prometheus
/// rendering carry fresh values.
fn publish_slo_gauges(shared: &Shared) {
    let snap = shared.slo.snapshot();
    explainti_obs::set_gauge("serve.slo.window_s", snap.window_s as f64);
    explainti_obs::set_gauge("serve.slo.requests", snap.count as f64);
    explainti_obs::set_gauge("serve.slo.error_rate", snap.error_rate);
    explainti_obs::set_gauge("serve.slo.p50_ms", snap.p50_ns as f64 / 1e6);
    explainti_obs::set_gauge("serve.slo.p99_ms", snap.p99_ns as f64 / 1e6);
    explainti_obs::set_gauge("serve.slo.p999_ms", snap.p999_ns as f64 / 1e6);
}

fn handle_metrics(
    shared: &Shared,
    gen: &Arc<Generation>,
    request: &http::Request,
    _rtrace: &mut explainti_obs::RequestTrace,
    sink: &mut ResponseSink,
) -> Result<(), ApiError> {
    let _span = explainti_obs::span!("serve.request.metrics");
    publish_slo_gauges(shared);
    if request.query.split('&').any(|kv| kv == "format=prometheus") {
        sink.send_text(200, &explainti_obs::prometheus());
        return Ok(());
    }
    let mut summary = explainti_obs::summary();
    if let Value::Object(map) = &mut summary {
        map.insert("schema_version".to_string(), json!(SCHEMA_VERSION));
        map.insert("degraded".to_string(), json!(gen.model.is_degraded()));
        // Failpoint trip counts (empty object when no chaos drill
        // has run), so operators and the chaos-smoke CI job can
        // scrape what actually fired.
        let mut hits = std::collections::BTreeMap::new();
        for (site, n) in explainti_faults::hit_counts() {
            hits.insert(site, json!(n));
        }
        map.insert("failpoints".to_string(), Value::Object(hits));
    }
    sink.send_json(200, &serde_json::to_string(&summary).unwrap_or_default());
    Ok(())
}

fn handle_healthz(
    _shared: &Shared,
    gen: &Arc<Generation>,
    _request: &http::Request,
    _rtrace: &mut explainti_obs::RequestTrace,
    sink: &mut ResponseSink,
) -> Result<(), ApiError> {
    let _span = explainti_obs::span!("serve.request.healthz");
    let degraded = gen.model.is_degraded();
    sink.send_json(
        200,
        &serde_json::to_string(&json!({"degraded": degraded, "status": "ok"})).unwrap_or_default(),
    );
    Ok(())
}

/// Facts about one generation's model, for `/v1/config` and swap logs.
fn model_info(gen: &Generation) -> ModelInfo {
    let enc = &gen.model.cfg.encoder;
    ModelInfo {
        d_model: enc.d_model,
        layers: enc.n_layers,
        max_seq: enc.max_seq,
        vocab_size: gen.model.tokenizer.vocab_size(),
        num_labels: gen.labels.len(),
        num_weights: gen.model.num_weights(),
        generation: gen.id,
    }
}

fn handle_config(
    shared: &Shared,
    gen: &Arc<Generation>,
    _request: &http::Request,
    _rtrace: &mut explainti_obs::RequestTrace,
    sink: &mut ResponseSink,
) -> Result<(), ApiError> {
    let _span = explainti_obs::span!("serve.request.config");
    // Knobs are frozen at startup; the model block follows the live
    // generation so `/v1/config` reflects what is actually serving.
    let mut config = shared.config.clone();
    config.model = model_info(gen);
    sink.send_json(200, &serde_json::to_string(&config).unwrap_or_default());
    Ok(())
}

fn handle_shutdown(
    shared: &Shared,
    _gen: &Arc<Generation>,
    _request: &http::Request,
    _rtrace: &mut explainti_obs::RequestTrace,
    sink: &mut ResponseSink,
) -> Result<(), ApiError> {
    shared.shutdown.store(true, Ordering::SeqCst);
    sink.send_json(
        200,
        &serde_json::to_string(&json!({"status": "shutting down"})).unwrap_or_default(),
    );
    Ok(())
}

// ---- Admin: swap + store ----------------------------------------------

/// Releases the swap lock however the swap handler exits.
struct SwapGuard<'a>(&'a AtomicBool);

impl Drop for SwapGuard<'_> {
    fn drop(&mut self) {
        self.0.store(false, Ordering::SeqCst);
    }
}

/// The load → verify → commit pipeline of one swap, run under the swap
/// lock. Returns `(previous_id, new_id, verified)`.
fn run_swap(shared: &Shared, model_dir: &str) -> Result<(u64, u64, bool), ApiError> {
    // LOAD — entirely off to the side; serving continues on the old
    // generation while the snapshot is read and verified (crash-safe
    // MANIFEST machinery: torn or tampered snapshots fail here).
    let (model, dataset) = {
        let _span = explainti_obs::span!("serve.swap.load");
        if explainti_faults::triggered("serve.swap.load") {
            return Err(ApiError::bad_request("injected swap load failure"));
        }
        ExplainTi::load_from_dir_with(Path::new(model_dir), shared.shards, shared.replicas)
            .map_err(|e| ApiError::bad_request(format!("load {model_dir}: {e}")))?
    };
    let labels = dataset.collection.type_labels.clone();
    let model = Arc::new(model);
    // VERIFY — one smoke prediction through the candidate before any
    // request can reach it; a panic (or injected failure) rejects it.
    let verified = if shared.swap_verify {
        let _span = explainti_obs::span!("serve.swap.verify");
        if explainti_faults::triggered("serve.swap.verify") {
            return Err(ApiError::bad_request("swap candidate failed verification (injected)"));
        }
        let smoke = Arc::clone(&model);
        let ok = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
            let enc = smoke.encode_ad_hoc_column("swap", "verify", &["smoke"]);
            smoke.predict_encoded_batch(&[enc]).len() == 1
        }));
        if !matches!(ok, Ok(true)) {
            return Err(ApiError::bad_request("swap candidate failed smoke verification"));
        }
        true
    } else {
        false
    };
    // COMMIT — the only mutating step. An injected failure here proves
    // rollback: the handle is untouched and the old generation keeps
    // serving as if the swap never happened.
    if explainti_faults::triggered("serve.swap.commit") {
        return Err(ApiError::internal("swap commit failed; previous generation still serving"));
    }
    let (previous, id) = shared.generations.swap(model, labels);
    // Cache keys carry the generation id, so stale cross-generation
    // hits are impossible; the reset just drops the old generation's
    // responses promptly instead of waiting for LRU churn.
    *lock_cache(shared) = LruCache::new(shared.config.cache_cap);
    Ok((previous, id, verified))
}

/// `POST /v1/admin/swap`: load a new model generation from a snapshot
/// directory and atomically install it. In-flight requests finish on
/// the generation they started on; the next request sees the new one.
///
/// Failure matrix (DESIGN.md §15): load and verify failures answer 400
/// with the old generation untouched; a commit failure answers 500 and
/// rolls back the same way; a concurrent swap answers a typed 409 with
/// `retry_after_s`.
fn handle_swap(
    shared: &Shared,
    _gen: &Arc<Generation>,
    request: &http::Request,
    _rtrace: &mut explainti_obs::RequestTrace,
    sink: &mut ResponseSink,
) -> Result<(), ApiError> {
    let _span = explainti_obs::span!("serve.request.swap");
    if shared.shutdown.load(Ordering::SeqCst) {
        return Err(ApiError::new(ErrorCode::ShuttingDown, "server is shutting down"));
    }
    let req: SwapRequest = std::str::from_utf8(&request.body)
        .map_err(|_| ApiError::bad_request("body is not valid UTF-8"))
        .and_then(|text| {
            serde_json::from_str(text)
                .map_err(|e| ApiError::bad_request(format!("bad swap request: {e}")))
        })?;
    if shared.swap_lock.compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst).is_err() {
        return Err(ApiError::swap_in_progress("a swap is already in flight", 2));
    }
    let _guard = SwapGuard(&shared.swap_lock);
    explainti_obs::counter!("serve.swap.attempts", 1);
    match run_swap(shared, &req.model_dir) {
        Ok((previous_generation, generation, verified)) => {
            explainti_obs::counter!("serve.swap.committed", 1);
            explainti_obs::set_gauge("serve.swap.generation", generation as f64);
            let resp = SwapResponse {
                schema_version: SCHEMA_VERSION,
                generation,
                previous_generation,
                verified,
            };
            sink.send_json(200, &serde_json::to_string(&resp).unwrap_or_default());
            Ok(())
        }
        Err(err) => {
            explainti_obs::counter!("serve.swap.failed", 1);
            Err(err)
        }
    }
}

/// `GET /v1/admin/store`: the live generation's explanation store,
/// shard by shard. While the `store.shard.unavailable` failpoint holds
/// a shard down this answers a typed 503 with `retry_after_s`, the same
/// signal `/v1/interpret` degrades around via replica failover.
fn handle_store(
    shared: &Shared,
    gen: &Arc<Generation>,
    _request: &http::Request,
    _rtrace: &mut explainti_obs::RequestTrace,
    sink: &mut ResponseSink,
) -> Result<(), ApiError> {
    let _span = explainti_obs::span!("serve.request.store");
    let Some(task) = gen.model.tasks().first() else {
        return Err(ApiError::internal("model has no tasks"));
    };
    let store = &task.q;
    if let Some(shard) = store.probe_unavailable() {
        return Err(ApiError::shard_unavailable(format!("shard {shard} is unavailable"), 1));
    }
    let shards = store
        .shard_sizes()
        .into_iter()
        .enumerate()
        .map(|(shard, (stored, tombstones))| ShardStatus { shard, stored, tombstones })
        .collect();
    let resp = StoreStatusResponse {
        schema_version: SCHEMA_VERSION,
        generation: gen.id,
        shards,
        stored: store.stored(),
        tombstones: store.tombstones(),
        swap_in_progress: shared.swap_lock.load(Ordering::SeqCst),
    };
    sink.send_json(200, &serde_json::to_string(&resp).unwrap_or_default());
    Ok(())
}

// ---- Routing ----------------------------------------------------------

/// A route handler: answers exactly one request through the sink. An
/// `Err` return before the sink responded becomes a typed error body;
/// after the head went out it aborts the stream.
type Handler = fn(
    &Shared,
    &Arc<Generation>,
    &http::Request,
    &mut explainti_obs::RequestTrace,
    &mut ResponseSink,
) -> Result<(), ApiError>;

/// One endpoint in the declarative route table.
struct Route {
    method: &'static str,
    path: &'static str,
    /// Wide-event endpoint label.
    name: &'static str,
    handler: Handler,
}

/// The single source of truth for routing: the dispatcher derives both
/// the 405 `Allow` header set and the known-path list from this table.
#[rustfmt::skip]
const ROUTES: &[Route] = &[
    Route { method: "POST", path: "/v1/interpret", name: "interpret", handler: handle_interpret },
    Route { method: "GET", path: "/v1/healthz", name: "healthz", handler: handle_healthz },
    Route { method: "GET", path: "/v1/metrics", name: "metrics", handler: handle_metrics },
    Route { method: "GET", path: "/v1/config", name: "config", handler: handle_config },
    Route { method: "POST", path: "/v1/admin/swap", name: "swap", handler: handle_swap },
    Route { method: "GET", path: "/v1/admin/store", name: "store", handler: handle_store },
    Route { method: "POST", path: "/v1/admin/shutdown", name: "shutdown", handler: handle_shutdown },
];

enum RouteMatch {
    Found(&'static Route),
    /// Known path, wrong method; the derived `Allow` header value.
    WrongMethod(String),
    Unknown,
}

fn route(method: &str, path: &str) -> RouteMatch {
    let mut allow: Vec<&str> = Vec::new();
    for r in ROUTES {
        if r.path == path {
            if r.method == method {
                return RouteMatch::Found(r);
            }
            if !allow.contains(&r.method) {
                allow.push(r.method);
            }
        }
    }
    if allow.is_empty() {
        RouteMatch::Unknown
    } else {
        RouteMatch::WrongMethod(allow.join(", "))
    }
}

// ---- Dispatcher pool --------------------------------------------------

fn dispatch_loop(shared: &Shared) {
    // Depth 1: each pop is one request; fairness across connections
    // comes from the queue order the event loop fills.
    while let Some(batch) = shared.dispatch.pop_batch(1) {
        for job in batch {
            handle_request(shared, job);
        }
    }
}

/// Runs one request end to end on a dispatcher thread: route, handle,
/// record the wide event, and feed the SLO window.
fn handle_request(shared: &Shared, job: DispatchJob) {
    let trace_id = explainti_obs::next_trace_id();
    let tid = trace_id.to_string();
    let mut rtrace = explainti_obs::RequestTrace::new(trace_id);
    rtrace.add_stage("parse", job.request.parse_ns);
    explainti_obs::counter!("serve.requests", 1);
    let request = job.request;
    let mut sink =
        ResponseSink::new(job.io, job.waker, job.conn_id, tid, request.keep_alive, request.http11);
    // One generation snapshot per request: every byte of this response —
    // prediction, labels, config block, `X-Model-Generation` header —
    // comes from the same generation even if a swap commits mid-request.
    let gen = shared.generations.current();
    sink.set_generation(gen.id);
    let mut is_interpret = false;
    let result: Result<(), ApiError> = match route(&request.method, &request.path) {
        RouteMatch::Found(r) => {
            rtrace.set_endpoint(r.name);
            if r.name == "interpret" {
                is_interpret = true;
            }
            (r.handler)(shared, &gen, &request, &mut rtrace, &mut sink)
        }
        RouteMatch::WrongMethod(allow) => {
            let err = ApiError::new(ErrorCode::MethodNotAllowed, "wrong method for this endpoint");
            sink.send_error(&err, Some(&allow));
            rtrace.set_status(err.status());
            rtrace.finish();
            return;
        }
        RouteMatch::Unknown => {
            let err =
                ApiError::new(ErrorCode::NotFound, format!("no such endpoint: {}", request.path));
            sink.send_error(&err, None);
            rtrace.set_status(err.status());
            rtrace.finish();
            return;
        }
    };
    let status = match &result {
        Ok(()) => sink.status(),
        Err(err) => err.status(),
    };
    if let Err(err) = result {
        if sink.responded() {
            sink.abort_stream(&err);
        } else {
            sink.send_error(&err, None);
        }
    }
    rtrace.set_status(status);
    if is_interpret {
        // The SLO window tracks the paper-relevant endpoint only; 5xx
        // count as errors, client errors (4xx) do not.
        shared.slo.record(rtrace.elapsed_ns(), status >= 500);
    }
    rtrace.finish();
}

// ---- Server lifecycle -------------------------------------------------

/// A running server; dropping the handle does **not** stop it — call
/// [`ServerHandle::shutdown`] (or POST `/v1/admin/shutdown`) then
/// [`ServerHandle::join`].
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    event_thread: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (resolves `:0` to the actual ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests a graceful shutdown: stop accepting, drain in-flight
    /// connections and queued jobs, stop the dispatchers and workers.
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }

    /// The shutdown flag, for wiring to an external signal (the CLI
    /// registers this so Ctrl-C triggers the same graceful drain).
    pub fn shutdown_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.shutdown)
    }

    /// Blocks until the event loop, every dispatcher, and every worker
    /// have exited. Idempotent.
    pub fn join(&mut self) {
        if let Some(t) = self.event_thread.take() {
            let _ = t.join();
        }
    }
}

/// Binds the listener and spawns the event loop, dispatcher pool, and
/// worker pool.
///
/// `labels` are the human-readable names responses resolve label indices
/// against (typically the corpus's `type_labels`).
pub fn start(
    model: Arc<ExplainTi>,
    labels: Vec<String>,
    cfg: ServeConfig,
) -> io::Result<ServerHandle> {
    let shards = cfg.shards.max(1);
    let replicas = cfg.replicas.max(1);
    if replicas > shards {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("replicas ({replicas}) must not exceed shards ({shards})"),
        ));
    }
    let listener = TcpListener::bind(&cfg.addr)?;
    let addr = listener.local_addr()?;

    // Mirror every failpoint trip into the obs counters so chaos drills
    // show up in `/v1/metrics` alongside ordinary serving telemetry.
    explainti_faults::set_observer(|site| {
        explainti_obs::add_counter(&format!("faults.hit.{site}"), 1);
    });

    // `--threads` resizes the process-wide kernel pool; 0 leaves
    // whatever the process already configured (CLI / env / default).
    if cfg.threads > 0 {
        explainti_pool::configure(cfg.threads);
    }
    let threads = explainti_pool::global().threads();

    let max_conns = cfg.max_conns.max(1);
    // Handlers block on worker replies, so micro-batches only form when
    // more dispatchers than workers run concurrently.
    let dispatchers =
        if cfg.dispatchers > 0 { cfg.dispatchers } else { (cfg.workers.max(1) * 4).clamp(4, 64) };

    let generations = GenerationHandle::new(model, labels);
    let boot = generations.current();
    explainti_obs::set_gauge("serve.swap.generation", boot.id as f64);
    let config = ConfigResponse {
        schema_version: SCHEMA_VERSION,
        workers: cfg.workers,
        threads,
        queue_cap: cfg.queue_cap,
        max_batch: cfg.max_batch.max(1),
        cache_cap: cfg.cache_cap,
        deadline_ms: cfg.deadline_ms.max(1),
        top_k: cfg.top_k.max(1),
        max_conns,
        dispatchers,
        read_timeout_ms: cfg.read_timeout_ms.max(1),
        idle_timeout_ms: cfg.idle_timeout_ms.max(1),
        shards,
        replicas,
        swap_verify: cfg.swap_verify,
        model: model_info(&boot),
    };
    drop(boot);

    let shutdown = Arc::new(AtomicBool::new(false));
    let shared = Arc::new(Shared {
        generations,
        queue: BatchQueue::new(cfg.queue_cap),
        // One in-flight request per connection bounds the dispatch
        // queue, so size it to the connection limit.
        dispatch: BatchQueue::new(max_conns + 16),
        cache: OrderedMutex::new(&classes::SERVE_CACHE, LruCache::new(cfg.cache_cap)),
        shutdown: Arc::clone(&shutdown),
        top_k: cfg.top_k.max(1),
        max_batch: cfg.max_batch.max(1),
        deadline: Duration::from_millis(cfg.deadline_ms.max(1)),
        slo: explainti_obs::SloWindow::new(cfg.slo_window_s.max(1)),
        swap_lock: AtomicBool::new(false),
        shards,
        replicas,
        swap_verify: cfg.swap_verify,
        config,
    });

    let workers: Vec<JoinHandle<()>> = (0..cfg.workers)
        .map(|i| {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(format!("serve-worker-{i}"))
                .spawn(move || worker_loop(&shared))
        })
        .collect::<io::Result<_>>()?;

    let dispatcher_threads: Vec<JoinHandle<()>> = (0..dispatchers)
        .map(|i| {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(format!("serve-dispatch-{i}"))
                .spawn(move || dispatch_loop(&shared))
        })
        .collect::<io::Result<_>>()?;

    let loop_cfg = LoopCfg {
        max_conns,
        read_timeout: Duration::from_millis(cfg.read_timeout_ms.max(1)),
        idle_timeout: Duration::from_millis(cfg.idle_timeout_ms.max(1)),
    };
    let (run_loop, _waker) = event_loop::prepare(listener, Arc::clone(&shared), loop_cfg)?;

    let event_shared = Arc::clone(&shared);
    let event_thread =
        std::thread::Builder::new().name("serve-eventloop".to_string()).spawn(move || {
            run_loop();
            // The loop drained every connection (or hit the grace
            // bound): stop the dispatchers, then let the workers drain
            // what is already queued and exit.
            event_shared.dispatch.close();
            for d in dispatcher_threads {
                let _ = d.join();
            }
            event_shared.queue.close();
            for w in workers {
                let _ = w.join();
            }
        })?;

    Ok(ServerHandle { addr, shutdown, event_thread: Some(event_thread) })
}
