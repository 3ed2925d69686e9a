//! The inference server: routes, handlers and the server's lifecycle.
//!
//! One thread per connection (`crate::conn`) reads each request, calls
//! `answer` — route, handler, response — and writes the bytes back,
//! so a request is read, answered and written on one thread. An
//! interpret request's cache misses run through one
//! [`ExplainTi::predict_encoded_batch`] on the generation it snapshotted
//! when its answer began, under one of `workers` forward permits (a
//! counting semaphore); a request that needs no forward (a cache hit, a
//! GET, an error) never waits for one. A forward runs once: a panic in
//! it answers a typed 500. `POST /v1/admin/swap` runs on its own
//! connection's thread under the swap lock, so a model load holds
//! neither a permit nor any other connection.
//!
//! Every interpret request carries a deadline, checked when its answer
//! begins, after its permit wait and after the forward (typed 504), and
//! a table's response streams per column as chunked transfer-encoding
//! once its forward is done.
//!
//! Routing is a declarative table ([`ROUTES`]): one `Route` per
//! endpoint, from which both the 405 `Allow` set and the known-path
//! list derive.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, OnceLock};

use explainti_sync::{classes, OrderedMutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use explainti_api::{
    ApiError, ColumnData, ColumnPrediction, ConfigResponse, ErrorCode, InterpretTableRequest,
    ModelInfo, PredictRequest, PredictResponse, StoreStatusResponse, SwapRequest, SwapResponse,
    DEFAULT_TOP_K, SCHEMA_VERSION,
};
use explainti_core::{ExplainTi, Generation, GenerationHandle, Prediction};
use explainti_tokenizer::Encoded;
use serde::Deserialize;
use serde_json::{json, Value};

use crate::cache::LruCache;
use crate::conn::{self, ResponseSink, TICK};
use crate::http;

/// How the server is sized; every knob has a CLI flag.
///
/// Each connection gets its own thread, and each forward runs on the
/// thread of the connection that asked for it under one of `workers`
/// permits, so `workers` bounds the serving path's model parallelism.
/// Boot and every swap read the embedding store from the snapshot, so
/// nothing the server runs fans out. Every swap runs a smoke prediction
/// on the candidate before it commits.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address, e.g. `127.0.0.1:8080` (`:0` for an ephemeral port).
    pub addr: String,
    /// How many forwards may run at once (the size of the permit pool);
    /// cache hits, GETs and errors never wait for a permit.
    pub workers: usize,
    /// LRU cache capacity (cached full responses, explanations included).
    pub cache_cap: usize,
    /// Per-request deadline; exceeded requests answer 504.
    pub deadline_ms: u64,
    /// Hard cap on concurrently open connections (one thread each);
    /// excess connects are answered with a typed 429 + `Retry-After`
    /// and closed.
    pub max_conns: usize,
    /// A connection that has started but not completed a request within
    /// this window answers a typed 408 and closes (slow-loris defence).
    pub read_timeout_ms: u64,
    /// Keep-alive connections idle longer than this are closed.
    pub idle_timeout_ms: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            cache_cap: 256,
            deadline_ms: 30_000,
            max_conns: 1024,
            read_timeout_ms: 10_000,
            idle_timeout_ms: 60_000,
        }
    }
}

/// Hard cap on columns per `/v1/interpret` table request: a pathological
/// 10k-column row must answer a clean 400, not monopolise a permit.
const MAX_TABLE_COLUMNS: usize = 512;

/// Sliding SLO window length in seconds: rolling p50/p99/p999 and error
/// rate over the trailing window, published as `serve.slo.*` gauges at
/// metrics-scrape time.
const SLO_WINDOW_S: u64 = 60;

/// Saturating nanoseconds from `earlier` to `later` (0 if out of order).
fn ns_since(earlier: Instant, later: Instant) -> u64 {
    later.saturating_duration_since(earlier).as_nanos().min(u64::MAX as u128) as u64
}

/// One request being answered, carrying everything needed to answer it.
struct Job {
    request: http::Request,
    sink: ResponseSink,
    /// Started when the request's first byte arrived, so its HTTP parse
    /// counts toward the request's total.
    rtrace: explainti_obs::RequestTrace,
}

impl Job {
    fn new(request: http::Request) -> Self {
        let trace_id = explainti_obs::next_trace_id();
        let start = request.received_at.unwrap_or_else(Instant::now);
        let mut rtrace = explainti_obs::RequestTrace::starting_at(trace_id, start);
        rtrace.add_stage("parse", request.parse_ns);
        explainti_obs::counter!("serve.requests", 1);
        let sink = ResponseSink::new(trace_id.to_string(), request.keep_alive, request.http11);
        Self { request, sink, rtrace }
    }
}

/// Answers `result`'s typed error if the request failed, records the
/// wide event — and, for `/v1/interpret` (`slo`), the SLO sample — and
/// returns the response bytes.
fn finish(shared: &Shared, mut job: Job, result: Result<(), ApiError>, slo: bool) -> Vec<u8> {
    let status = match result {
        Ok(()) => job.sink.status(),
        Err(err) => {
            job.sink.send_error(&err, None);
            err.status()
        }
    };
    job.rtrace.set_status(status);
    if slo {
        // The SLO window tracks the paper-relevant endpoint only; 5xx
        // count as errors, client errors (4xx) do not.
        shared.slo.record(job.rtrace.elapsed_ns(), status >= 500);
    }
    job.rtrace.finish();
    job.sink.into_bytes()
}

pub(crate) struct Shared {
    /// The live model generation; a request snapshots it once.
    generations: GenerationHandle,
    /// The forward permits, `workers` of them.
    permits: Permits,
    cache: OrderedMutex<LruCache<u64, Arc<PredictResponse>>>,
    pub(crate) shutdown: Arc<AtomicBool>,
    /// Set by the first connection thread to see the shutdown flag: when
    /// the drain force-closes what is left.
    pub(crate) drain_deadline: OnceLock<Instant>,
    /// Connections currently open, each with its own thread.
    pub(crate) open_conns: AtomicUsize,
    /// Connection threads waiting for their next connection.
    pub(crate) parked: OrderedMutex<conn::Parked>,
    /// Wakes a parked thread when a connection is handed to it.
    pub(crate) parked_ready: Condvar,
    /// Hard cap on `open_conns` (typed 429 beyond).
    pub(crate) max_conns: usize,
    /// Incomplete-request deadline (typed 408 beyond).
    pub(crate) read_timeout: Duration,
    /// Idle keep-alive connections older than this are closed.
    pub(crate) idle_timeout: Duration,
    deadline: Duration,
    /// Rolling latency/error window behind the `serve.slo.*` gauges.
    slo: explainti_obs::SloWindow,
    /// Held (CAS) while a swap runs; a second concurrent swap answers a
    /// typed 409 instead of queueing.
    swap_lock: AtomicBool,
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

/// Answers one request on its connection's thread: routes it, runs its
/// handler (an interpret request's forward included) and returns the
/// response bytes.
pub(crate) fn answer(shared: &Shared, request: http::Request) -> Vec<u8> {
    let mut job = Job::new(request);
    // One generation snapshot per request: every byte of this response —
    // prediction, labels, config block, `X-Model-Generation` header —
    // comes from the same generation even if a swap commits mid-request.
    let gen = shared.generations.current();
    job.sink.set_generation(gen.id);
    let r = match route(&job.request.method, &job.request.path) {
        RouteMatch::Found(r) => r,
        RouteMatch::WrongMethod(allow) => {
            let err = ApiError::new(ErrorCode::MethodNotAllowed, "wrong method for this endpoint");
            job.sink.send_error(&err, Some(&allow));
            return finish(shared, job, Ok(()), false);
        }
        RouteMatch::Unknown => {
            let err = ApiError::new(
                ErrorCode::NotFound,
                format!("no such endpoint: {}", job.request.path),
            );
            return finish(shared, job, Err(err), false);
        }
    };
    job.rtrace.set_endpoint(r.name);
    match r.handler {
        Handler::Direct(handler) => {
            let result = handler(shared, &gen, &job.request, &mut job.sink);
            finish(shared, job, result, false)
        }
        Handler::Interpret => {
            let result = interpret(shared, &gen, &mut job);
            finish(shared, job, result, true)
        }
    }
}

/// The `workers` forward permits, a counting semaphore: the free permits
/// and the forwards waiting for one sit under one lock.
struct Permits {
    count: OrderedMutex<PermitCount>,
    /// Signalled each time a permit is returned.
    returned: Condvar,
}

struct PermitCount {
    /// Permits no forward holds.
    free: usize,
    /// Forwards blocked until a permit is returned.
    waiting: usize,
}

impl Permits {
    fn new(permits: usize) -> Self {
        let count = PermitCount { free: permits, waiting: 0 };
        Self { count: OrderedMutex::new(&classes::SERVE_PERMITS, count), returned: Condvar::new() }
    }

    /// Blocks until a permit is free and takes it; also returns how many
    /// forwards are still waiting once this one has it.
    fn take(&self) -> (Permit<'_>, usize) {
        let mut count = self.count.lock();
        count.waiting += 1;
        while count.free == 0 {
            count = count.wait(&self.returned);
        }
        count.free -= 1;
        count.waiting -= 1;
        (Permit(self), count.waiting)
    }
}

/// One of the `workers` forward permits, returned on drop.
struct Permit<'a>(&'a Permits);

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        self.0.count.lock().free += 1;
        self.0.returned.notify_one();
    }
}

/// Waits for a forward permit, sampling how many other forwards are
/// still waiting once this one has it (`serve.queue.depth`).
fn take_permit(shared: &Shared) -> Permit<'_> {
    let (permit, depth) = shared.permits.take();
    explainti_obs::set_gauge("serve.queue.depth", depth as f64);
    if explainti_obs::enabled() {
        // A distribution, not just the latest gauge value, so load
        // tests can plot permit pressure.
        explainti_obs::registry().count_histogram("serve.queue.depth.sampled").record(depth as u64);
    }
    permit
}

// ---- Interpret --------------------------------------------------------

/// An interpret request after parsing and cache lookup.
struct Interpret {
    /// Per-column answers in request order; misses stay `None` until the
    /// forward fills them.
    answers: Vec<Option<Arc<PredictResponse>>>,
    /// Per-column cache keys, parallel to `answers`.
    keys: Vec<u64>,
    /// The encoded miss columns, in request order.
    encoded: Vec<Encoded>,
    /// Title and headers of a table request; `None` for one column.
    table: Option<(String, Vec<String>)>,
}

/// The typed 504 for a request past its deadline.
fn expire() -> ApiError {
    explainti_obs::counter!("serve.jobs.expired", 1);
    ApiError::new(ErrorCode::DeadlineExceeded, "prediction missed its deadline")
}

fn past_deadline(shared: &Shared, job: &Job) -> bool {
    Duration::from_nanos(job.rtrace.elapsed_ns()) >= shared.deadline
}

/// Parses an interpret body and looks every column up in the cache,
/// encoding the misses for the forward.
fn prepare_interpret(
    shared: &Shared,
    gen: &Generation,
    job: &mut Job,
) -> Result<Interpret, ApiError> {
    let _span = explainti_obs::span!("serve.request.interpret");
    if shared.shutdown.load(Ordering::SeqCst) {
        return Err(ApiError::new(ErrorCode::ShuttingDown, "server is shutting down"));
    }
    if past_deadline(shared, job) {
        return Err(expire());
    }
    let parse_start = Instant::now();
    let parsed: Result<Value, ApiError> = std::str::from_utf8(&job.request.body)
        .map_err(|_| ApiError::bad_request("body is not valid UTF-8"))
        .and_then(|text| {
            serde_json::from_str(text).map_err(|e| ApiError::bad_request(format!("bad JSON: {e}")))
        });
    job.rtrace.add_stage("parse", ns_since(parse_start, Instant::now()));
    let value = parsed?;

    // A body with a "columns" key is a whole table; otherwise a single
    // column. (The vendored serde has no untagged enums, so the dispatch
    // is a one-key sniff on the parsed tree.)
    let is_table = value.get("columns").is_some();
    let (title, columns) = if is_table {
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
        (req.title, req.columns)
    } else {
        let req = PredictRequest::from_value(&value)
            .map_err(|e| ApiError::bad_request(format!("bad predict request: {e}")))?;
        (req.title, vec![ColumnData { header: req.header, cells: req.cells }])
    };
    if columns.iter().any(|c| c.header.is_empty() && c.cells.is_empty()) {
        return Err(ApiError::bad_request("column has neither header nor cells"));
    }

    let keys: Vec<u64> =
        columns.iter().map(|c| cache_key(gen.id, &title, &c.header, &c.cells)).collect();
    let answers: Vec<Option<Arc<PredictResponse>>> = {
        let mut cache = lock_cache(shared);
        keys.iter().map(|k| cache.get(k).cloned()).collect()
    };
    let mut hits = 0;
    for answer in &answers {
        job.rtrace.note_column();
        if answer.is_some() {
            job.rtrace.note_cache_hit();
            hits += 1;
        }
    }
    if hits > 0 {
        explainti_obs::counter!("serve.cache.hit", hits as u64);
    }
    let mut encoded = Vec::new();
    if hits < columns.len() {
        explainti_obs::counter!("serve.cache.miss", (columns.len() - hits) as u64);
        let encode_start = Instant::now();
        for (col, answer) in columns.iter().zip(&answers) {
            if answer.is_none() {
                let cells: Vec<&str> = col.cells.iter().map(String::as_str).collect();
                encoded.push(gen.model.encode_ad_hoc_column(&title, &col.header, &cells));
            }
        }
        job.rtrace.add_stage("encode", ns_since(encode_start, Instant::now()));
    }
    let table = is_table.then(|| (title, columns.into_iter().map(|c| c.header).collect()));
    Ok(Interpret { answers, keys, encoded, table })
}

/// `/v1/interpret`: parse and cache lookup, one forward over the
/// request's misses, then the response.
fn interpret(shared: &Shared, gen: &Generation, job: &mut Job) -> Result<(), ApiError> {
    let mut work = prepare_interpret(shared, gen, job)?;
    if !work.encoded.is_empty() {
        let preds = forward(shared, gen, job, &work.encoded)?;
        let resps: Vec<Arc<PredictResponse>> = preds
            .iter()
            .map(|pred| {
                Arc::new(PredictResponse::from_prediction(pred, &gen.labels, DEFAULT_TOP_K))
            })
            .collect();
        {
            let mut cache = lock_cache(shared);
            let misses = work.answers.iter_mut().zip(&work.keys).filter(|(a, _)| a.is_none());
            for ((slot, &key), resp) in misses.zip(resps) {
                cache.insert(key, Arc::clone(&resp));
                *slot = Some(resp);
            }
        }
        if past_deadline(shared, job) {
            return Err(expire());
        }
    }
    respond(job, work)
}

/// Runs a request's encoded cache misses through one forward on this
/// thread, under a forward permit, and charges the wide event's permit
/// wait (`queue_wait`), assembly, predict and view stages. The forward
/// runs once: a panic in it (injected via `serve.worker.panic` or real)
/// must not kill the connection, and answers a typed 500.
fn forward(
    shared: &Shared,
    gen: &Generation,
    job: &mut Job,
    encs: &[Encoded],
) -> Result<Vec<Prediction>, ApiError> {
    let wait_at = Instant::now();
    let _permit = take_permit(shared);
    let ready_at = Instant::now();
    job.rtrace.add_stage("queue_wait", ns_since(wait_at, ready_at));
    if past_deadline(shared, job) {
        return Err(expire());
    }
    if explainti_obs::enabled() {
        explainti_obs::registry().count_histogram("serve.batch.size").record(encs.len() as u64);
    }
    let _span = explainti_obs::span!("serve.batch.predict");
    // Chaos site: a slow forward (GC pause / noisy neighbour stand-in)
    // to exercise the deadline path without a real stall.
    if explainti_faults::triggered("serve.batch.slow") {
        std::thread::sleep(Duration::from_millis(50));
    }
    let forward_at = Instant::now();
    // Capture every span the forward closes on this thread, so the wide
    // event can attribute predict/LE/GE/SE.
    let capture = explainti_obs::SpanCapture::new();
    let outcome = {
        let _ctx = capture.install();
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            explainti_faults::panic_if_triggered("serve.worker.panic");
            gen.model.predict_encoded_batch(encs)
        }))
    };
    let Ok(preds) = outcome else {
        explainti_obs::counter!("serve.worker.panics", 1);
        return Err(ApiError::internal("the prediction forward panicked"));
    };
    let (predict_ns, [le_ns, ge_ns, se_ns]) = forward_stages(
        capture.get("model.predict_batch"),
        ["explain.le", "explain.ge", "explain.se"].map(|view| capture.get(view)),
    );
    let trace = &mut job.rtrace;
    trace.add_stage("batch_assembly", ns_since(ready_at, forward_at));
    trace.add_stage("predict", predict_ns);
    trace.add_stage("explain_le", le_ns);
    trace.add_stage("explain_ge", ge_ns);
    trace.add_stage("explain_se", se_ns);
    trace.note_batch(encs.len() as u64);
    Ok(preds)
}

/// Splits a forward's wall time `wall_ns` between `predict` and the
/// three explanation views (LE, GE, SE). The forward runs on this
/// thread, so each view's captured span sum is wall time inside it: the
/// views are charged as measured and `predict` keeps the rest.
fn forward_stages(wall_ns: u64, views_ns: [u64; 3]) -> (u64, [u64; 3]) {
    (wall_ns.saturating_sub(views_ns.iter().sum()), views_ns)
}

/// Answers an interpret request whose columns are all resolved: one JSON
/// body for a column; for a table, a chunked stream whose head goes out
/// with the first column, one chunk per column, and a tail that closes
/// the JSON. Field order (`columns`, `schema_version`, `title`) matches
/// the vendored serde's sorted-key serialization, so the streamed bytes
/// are identical to `serde_json::to_string` of an
/// [`explainti_api::InterpretTableResponse`].
fn respond(job: &mut Job, work: Interpret) -> Result<(), ApiError> {
    let answers: Vec<Arc<PredictResponse>> = work
        .answers
        .into_iter()
        .collect::<Option<_>>()
        .ok_or_else(|| ApiError::internal("the forward returned too few predictions"))?;
    let Some((title, headers)) = work.table else {
        let ser_start = Instant::now();
        let body =
            answers.first().and_then(|r| serde_json::to_string(&**r).ok()).unwrap_or_default();
        job.rtrace.add_stage("serialize", ns_since(ser_start, Instant::now()));
        job.sink.send_json(200, &body);
        return Ok(());
    };
    let mut ser_ns = 0u64;
    for (idx, (header, resp)) in headers.into_iter().zip(&answers).enumerate() {
        let ser_start = Instant::now();
        let col = ColumnPrediction { header, prediction: (**resp).clone() };
        let mut piece = String::from(if idx == 0 { "{\"columns\":[" } else { "," });
        piece.push_str(&serde_json::to_string(&col).unwrap_or_default());
        ser_ns = ser_ns.saturating_add(ns_since(ser_start, Instant::now()));
        if idx == 0 {
            job.sink.begin_stream(200, "application/json");
        }
        job.sink.stream_chunk(piece.as_bytes());
    }
    let tail = format!(
        "],\"schema_version\":{SCHEMA_VERSION},\"title\":{}}}",
        serde_json::to_string(&title).unwrap_or_default()
    );
    job.sink.stream_chunk(tail.as_bytes());
    job.sink.end_stream();
    job.rtrace.add_stage("serialize", ser_ns);
    Ok(())
}

// ---- Direct handlers --------------------------------------------------

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
    _gen: &Arc<Generation>,
    request: &http::Request,
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
    _gen: &Arc<Generation>,
    _request: &http::Request,
    sink: &mut ResponseSink,
) -> Result<(), ApiError> {
    let _span = explainti_obs::span!("serve.request.healthz");
    sink.send_json(200, r#"{"status":"ok"}"#);
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
    sink: &mut ResponseSink,
) -> Result<(), ApiError> {
    shared.shutdown.store(true, Ordering::SeqCst);
    sink.send_json(
        200,
        &serde_json::to_string(&json!({"status": "shutting down"})).unwrap_or_default(),
    );
    Ok(())
}

/// `GET /v1/admin/store`: the live generation's explanation store.
fn handle_store(
    shared: &Shared,
    gen: &Arc<Generation>,
    _request: &http::Request,
    sink: &mut ResponseSink,
) -> Result<(), ApiError> {
    let _span = explainti_obs::span!("serve.request.store");
    let Some(task) = gen.model.tasks().first() else {
        return Err(ApiError::internal("model has no tasks"));
    };
    let resp = StoreStatusResponse {
        schema_version: SCHEMA_VERSION,
        generation: gen.id,
        stored: task.q.stored(),
        swap_in_progress: shared.swap_lock.load(Ordering::SeqCst),
    };
    sink.send_json(200, &serde_json::to_string(&resp).unwrap_or_default());
    Ok(())
}

// ---- Admin: swap ------------------------------------------------------

/// Releases the swap lock however the swap exits.
struct SwapGuard<'a>(&'a AtomicBool);

impl Drop for SwapGuard<'_> {
    fn drop(&mut self) {
        self.0.store(false, Ordering::SeqCst);
    }
}

/// The load → verify → commit pipeline of one swap, run under the swap
/// lock. Returns `(previous_id, new_id)`.
fn run_swap(shared: &Shared, model_dir: &str) -> Result<(u64, u64), ApiError> {
    // LOAD — entirely off to the side; serving continues on the old
    // generation while the snapshot is read and verified (crash-safe
    // MANIFEST machinery: torn or tampered snapshots fail here).
    let (model, dataset) = {
        let _span = explainti_obs::span!("serve.swap.load");
        if explainti_faults::triggered("serve.swap.load") {
            return Err(ApiError::bad_request("injected swap load failure"));
        }
        ExplainTi::load_from_dir(Path::new(model_dir))
            .map_err(|e| ApiError::bad_request(format!("load {model_dir}: {e}")))?
    };
    let labels = dataset.collection.type_labels.clone();
    let model = Arc::new(model);
    // VERIFY — one smoke prediction through the candidate before any
    // request can reach it; a panic (or injected failure) rejects it.
    {
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
    }
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
    Ok((previous, id))
}

/// `POST /v1/admin/swap`, run on its connection's thread: load a new
/// model generation from a snapshot directory and atomically install it.
/// A concurrent swap answers a typed 409 with `retry_after_s`. In-flight
/// requests finish on the generation they started on; the next request
/// sees the new one.
///
/// Failure matrix (DESIGN.md §15): load and verify failures answer 400
/// with the old generation untouched; a commit failure answers 500 and
/// rolls back the same way.
fn handle_swap(
    shared: &Shared,
    _gen: &Arc<Generation>,
    request: &http::Request,
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
        Ok((previous_generation, generation)) => {
            explainti_obs::counter!("serve.swap.committed", 1);
            explainti_obs::set_gauge("serve.swap.generation", generation as f64);
            let resp =
                SwapResponse { schema_version: SCHEMA_VERSION, generation, previous_generation };
            sink.send_json(200, &serde_json::to_string(&resp).unwrap_or_default());
            Ok(())
        }
        Err(err) => {
            explainti_obs::counter!("serve.swap.failed", 1);
            Err(err)
        }
    }
}

// ---- Routing ----------------------------------------------------------

/// How a route is answered.
enum Handler {
    /// At once, with no forward. An `Err` return becomes a typed error
    /// body.
    Direct(
        fn(&Shared, &Arc<Generation>, &http::Request, &mut ResponseSink) -> Result<(), ApiError>,
    ),
    /// `/v1/interpret`: the request's cache misses run through one
    /// forward first.
    Interpret,
}

/// One endpoint in the declarative route table.
struct Route {
    method: &'static str,
    path: &'static str,
    /// Wide-event endpoint label.
    name: &'static str,
    handler: Handler,
}

/// The single source of truth for routing: both the 405 `Allow` header
/// set and the known-path list derive from this table.
#[rustfmt::skip]
const ROUTES: &[Route] = &[
    Route { method: "POST", path: "/v1/interpret", name: "interpret", handler: Handler::Interpret },
    Route { method: "GET", path: "/v1/healthz", name: "healthz", handler: Handler::Direct(handle_healthz) },
    Route { method: "GET", path: "/v1/metrics", name: "metrics", handler: Handler::Direct(handle_metrics) },
    Route { method: "GET", path: "/v1/config", name: "config", handler: Handler::Direct(handle_config) },
    Route { method: "POST", path: "/v1/admin/swap", name: "swap", handler: Handler::Direct(handle_swap) },
    Route { method: "GET", path: "/v1/admin/store", name: "store", handler: Handler::Direct(handle_store) },
    Route { method: "POST", path: "/v1/admin/shutdown", name: "shutdown", handler: Handler::Direct(handle_shutdown) },
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

// ---- Server lifecycle -------------------------------------------------

/// A running server; dropping the handle does **not** stop it — call
/// [`ServerHandle::shutdown`] (or POST `/v1/admin/shutdown`) then
/// [`ServerHandle::join`].
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    supervisor: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (resolves `:0` to the actual ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests a graceful shutdown: stop accepting, close idle
    /// connections, and let in-flight requests finish.
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }

    /// The shutdown flag, for wiring to an external signal (the CLI
    /// registers this so Ctrl-C triggers the same graceful drain).
    /// Storing it alone is enough: the server notices within one tick.
    pub fn shutdown_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.shutdown)
    }

    /// Blocks until the server has stopped accepting and every
    /// connection thread has exited. Idempotent.
    pub fn join(&mut self) {
        if let Some(t) = self.supervisor.take() {
            let _ = t.join();
        }
    }
}

/// Wakes a blocked `accept` by connecting to the listener (an
/// unspecified bind address is reached over loopback).
fn wake_accept(addr: SocketAddr) {
    let mut target = addr;
    if target.ip().is_unspecified() {
        target.set_ip(match addr {
            SocketAddr::V4(_) => std::net::Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => std::net::Ipv6Addr::LOCALHOST.into(),
        });
    }
    let _ = TcpStream::connect_timeout(&target, Duration::from_secs(1));
}

/// The drain: waits for the shutdown flag, unblocks and joins the accept
/// thread (which drops the listener), then joins every connection
/// thread; each closes once idle, or at the drain's grace bound.
fn supervise(shared: &Shared, addr: SocketAddr, accept: JoinHandle<Vec<JoinHandle<()>>>) {
    while !shared.shutdown.load(Ordering::SeqCst) {
        std::thread::sleep(TICK);
    }
    wake_accept(addr);
    for conn in accept.join().unwrap_or_default() {
        let _ = conn.join();
    }
}

/// Binds the listener and spawns the accept thread and the supervisor
/// that runs the drain; connection threads are spawned per accept.
///
/// `labels` are the human-readable names responses resolve label indices
/// against (typically the corpus's `type_labels`).
pub fn start(
    model: Arc<ExplainTi>,
    labels: Vec<String>,
    cfg: ServeConfig,
) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(&cfg.addr)?;
    let addr = listener.local_addr()?;

    // Mirror every failpoint trip into the obs counters so chaos drills
    // show up in `/v1/metrics` alongside ordinary serving telemetry.
    explainti_faults::set_observer(|site| {
        explainti_obs::add_counter(&format!("faults.hit.{site}"), 1);
    });

    let max_conns = cfg.max_conns.max(1);
    let generations = GenerationHandle::new(model, labels);
    let boot = generations.current();
    explainti_obs::set_gauge("serve.swap.generation", boot.id as f64);
    let config = ConfigResponse {
        schema_version: SCHEMA_VERSION,
        workers: cfg.workers,
        cache_cap: cfg.cache_cap,
        deadline_ms: cfg.deadline_ms.max(1),
        top_k: DEFAULT_TOP_K,
        max_conns,
        read_timeout_ms: cfg.read_timeout_ms.max(1),
        idle_timeout_ms: cfg.idle_timeout_ms.max(1),
        model: model_info(&boot),
    };
    drop(boot);

    let shutdown = Arc::new(AtomicBool::new(false));
    let shared = Arc::new(Shared {
        generations,
        permits: Permits::new(cfg.workers.max(1)),
        cache: OrderedMutex::new(&classes::SERVE_CACHE, LruCache::new(cfg.cache_cap)),
        shutdown: Arc::clone(&shutdown),
        drain_deadline: OnceLock::new(),
        open_conns: AtomicUsize::new(0),
        parked: OrderedMutex::new(&classes::SERVE_CONN_PARKED, conn::Parked::default()),
        parked_ready: Condvar::new(),
        max_conns,
        read_timeout: Duration::from_millis(cfg.read_timeout_ms.max(1)),
        idle_timeout: Duration::from_millis(cfg.idle_timeout_ms.max(1)),
        deadline: Duration::from_millis(cfg.deadline_ms.max(1)),
        slo: explainti_obs::SloWindow::new(SLO_WINDOW_S),
        swap_lock: AtomicBool::new(false),
        config,
    });

    let accept = {
        let shared = Arc::clone(&shared);
        std::thread::Builder::new()
            .name("serve-accept".to_string())
            .spawn(move || conn::accept_loop(&shared, &listener))?
    };
    let supervisor = std::thread::Builder::new()
        .name("serve-supervisor".to_string())
        .spawn(move || supervise(&shared, addr, accept))
        .inspect_err(|_| {
            // The accept thread cannot be joined now; stop it anyway.
            shutdown.store(true, Ordering::SeqCst);
            wake_accept(addr);
        })?;

    Ok(ServerHandle { addr, shutdown, supervisor: Some(supervisor) })
}

#[cfg(test)]
mod tests {
    use super::{forward_stages, Permits};
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn forward_stages_charge_views_as_measured() {
        let (predict, views) = forward_stages(1_000, [300, 400, 200]);
        assert_eq!(views, [300, 400, 200]);
        assert_eq!(predict, 100);
        // No forward captured: the wall is all predict.
        assert_eq!(forward_stages(500, [0; 3]), (500, [0; 3]));
    }

    #[test]
    fn a_permit_pool_bounds_concurrent_holders() {
        const PERMITS: usize = 2;
        let pool = Permits::new(PERMITS);
        let holding = AtomicUsize::new(0);
        let most = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..6 {
                s.spawn(|| {
                    for _ in 0..20 {
                        let (_permit, _) = pool.take();
                        let now = holding.fetch_add(1, Ordering::SeqCst) + 1;
                        most.fetch_max(now, Ordering::SeqCst);
                        std::thread::yield_now();
                        holding.fetch_sub(1, Ordering::SeqCst);
                    }
                });
            }
        });
        assert!(most.load(Ordering::SeqCst) <= PERMITS, "more holders than permits");
        let count = pool.count.lock();
        assert_eq!((count.free, count.waiting), (PERMITS, 0), "every permit came back");
    }
}
