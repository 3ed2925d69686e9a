//! End-to-end tests for the inference server: raw `TcpStream` clients
//! against a real listener on an ephemeral port.

// Integration tests may panic freely; the crate's unwrap/expect
// lints target the request path (EA006), not test assertions.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, Mutex, MutexGuard};

use explainti_api::{InterpretTableResponse, PredictResponse};
use explainti_core::{ExplainTi, ExplainTiConfig};
use explainti_serve::{start, ServeConfig};
use serde_json::Value;

/// Tests that set the process-wide width hold this, so one cannot
/// change it between another's `configure` and its use.
static POOL: Mutex<()> = Mutex::new(());

fn pool_lock() -> MutexGuard<'static, ()> {
    POOL.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn tiny_model() -> (Arc<ExplainTi>, Vec<String>) {
    let d = explainti_corpus::generate_wiki(&explainti_corpus::WikiConfig {
        num_tables: 40,
        seed: 4242,
        ..Default::default()
    });
    let cfg = ExplainTiConfig::bert_like(2048, 32);
    let mut m = ExplainTi::new(&d, cfg);
    // No training needed — determinism and explanation structure are
    // what's under test. GE needs the embedding store populated.
    for t in 0..m.tasks().len() {
        m.refresh_store(t);
    }
    (Arc::new(m), d.collection.type_labels.clone())
}

/// Splits a raw response into (status, body), de-chunking the body when
/// the head advertises `Transfer-Encoding: chunked` (streamed tables).
fn parse_response(raw: &str) -> (u16, String) {
    let status: u16 = raw
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("unparseable response: {raw:?}"));
    let (head, body) = raw.split_once("\r\n\r\n").unwrap_or((raw, ""));
    let chunked = head
        .lines()
        .any(|l| l.to_ascii_lowercase().trim_start().starts_with("transfer-encoding: chunked"));
    if !chunked {
        return (status, body.to_string());
    }
    let mut out = Vec::new();
    let mut rest = body.as_bytes();
    while let Some(nl) = rest.windows(2).position(|w| w == b"\r\n") {
        let size_line = String::from_utf8_lossy(&rest[..nl]);
        let Ok(size) = usize::from_str_radix(size_line.trim(), 16) else { break };
        if size == 0 {
            break;
        }
        rest = &rest[nl + 2..];
        assert!(rest.len() >= size + 2, "truncated chunk in {raw:?}");
        out.extend_from_slice(&rest[..size]);
        rest = &rest[size + 2..];
    }
    (status, String::from_utf8_lossy(&out).into_owned())
}

/// One HTTP/1.1 exchange over a fresh connection (`Connection: close`,
/// so EOF delimits the response).
fn request(addr: &std::net::SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    parse_response(&request_raw(addr, method, path, body))
}

/// Like [`request`], but returns the unparsed response (headers + body)
/// for assertions on `X-Trace-Id`.
fn request_raw(addr: &std::net::SocketAddr, method: &str, path: &str, body: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let msg = format!(
        "{method} {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(msg.as_bytes()).unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap();
    raw
}

/// Extracts the `X-Trace-Id` header value from a raw response.
fn trace_id_of(raw: &str) -> Option<&str> {
    raw.split("\r\n\r\n").next().and_then(|head| {
        head.lines()
            .filter_map(|l| l.split_once(':'))
            .find(|(k, _)| k.trim().eq_ignore_ascii_case("x-trace-id"))
            .map(|(_, v)| v.trim())
    })
}

#[test]
fn serves_interpret_cache_metrics_errors_and_shutdown() {
    let (model, labels) = tiny_model();
    let cfg = ServeConfig {
        workers: 2,
        max_batch: 4,
        cache_cap: 32,
        deadline_ms: 30_000,
        ..Default::default()
    };
    let mut handle = start(Arc::clone(&model), labels.clone(), cfg).expect("start server");
    let addr = handle.addr();

    // Health check.
    let (status, body) = request(&addr, "GET", "/v1/healthz", "");
    assert_eq!(status, 200);
    assert!(body.contains("ok"), "healthz body: {body}");

    // Cold single-column interpret.
    let col = r#"{"title":"1994 world cup","header":"country","cells":["costa rica","morocco","norway"]}"#;
    let (status, body) = request(&addr, "POST", "/v1/interpret", col);
    assert_eq!(status, 200, "interpret failed: {body}");
    let served: PredictResponse = serde_json::from_str(&body).expect("response deserialises");
    assert!(served.label_id < labels.len());
    assert!(!served.local.is_empty(), "local explanations missing");
    assert!(!served.global.is_empty(), "global explanations missing");

    // The server's answer is byte-identical to the in-process prediction
    // path the CLI `interpret` command uses.
    let direct =
        model.predict_column("1994 world cup", "country", &["costa rica", "morocco", "norway"]);
    let direct_resp =
        PredictResponse::from_prediction(&direct, &labels, explainti_api::DEFAULT_TOP_K);
    assert_eq!(body, serde_json::to_string(&direct_resp).unwrap());

    // Repeat request: identical answer, now a cache hit in /v1/metrics.
    let (status, body2) = request(&addr, "POST", "/v1/interpret", col);
    assert_eq!(status, 200);
    assert_eq!(body2, body);
    let (status, metrics) = request(&addr, "GET", "/v1/metrics", "");
    assert_eq!(status, 200);
    let metrics: Value = serde_json::from_str(&metrics).unwrap();
    let hits = metrics
        .get("counters")
        .and_then(|c| c.get("serve.cache.hit"))
        .and_then(Value::as_u64)
        .unwrap_or(0);
    assert!(hits >= 1, "expected a cache hit, metrics: {metrics:?}");

    // Whole table: per-column answers match the single-column path.
    let table = r#"{"title":"1994 world cup","columns":[
        {"header":"country","cells":["costa rica","morocco","norway"]},
        {"header":"rank","cells":["1","2","3"]}]}"#;
    let (status, body) = request(&addr, "POST", "/v1/interpret", table);
    assert_eq!(status, 200, "table interpret failed: {body}");
    let table_resp: InterpretTableResponse = serde_json::from_str(&body).unwrap();
    assert_eq!(table_resp.columns.len(), 2);
    assert_eq!(table_resp.columns[0].header, "country");
    assert_eq!(table_resp.columns[0].prediction.label, served.label);

    // Error paths.
    let (status, body) = request(&addr, "POST", "/v1/interpret", "{not json");
    assert_eq!(status, 400, "body: {body}");
    assert!(body.contains("BadRequest"));
    let (status, _) = request(&addr, "POST", "/v1/interpret", r#"{"wrong":"shape"}"#);
    assert_eq!(status, 400);
    let raw = request_raw(&addr, "GET", "/v1/nope", "");
    assert!(raw.starts_with("HTTP/1.1 404"), "raw: {raw}");
    let tid = trace_id_of(&raw).expect("404 carries X-Trace-Id");
    assert!(raw.contains(&format!("\"trace_id\":\"{tid}\"")), "404 body echoes id: {raw}");
    let raw = request_raw(&addr, "GET", "/v1/interpret", "");
    assert!(raw.starts_with("HTTP/1.1 405"), "raw: {raw}");
    let tid = trace_id_of(&raw).expect("405 carries X-Trace-Id");
    assert!(raw.contains(&format!("\"trace_id\":\"{tid}\"")), "405 body echoes id: {raw}");

    // Graceful shutdown via the endpoint; join() must return.
    let (status, _) = request(&addr, "POST", "/v1/admin/shutdown", "");
    assert_eq!(status, 200);
    handle.join();
    assert!(
        TcpStream::connect(addr).is_err() || {
            // Some platforms accept briefly during teardown; a request
            // must at least not be served.
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(b"GET /v1/healthz HTTP/1.1\r\n\r\n").ok();
            let mut out = String::new();
            s.read_to_string(&mut out).ok();
            out.is_empty()
        },
        "server still answering after shutdown"
    );
}

#[test]
fn config_endpoint_reports_effective_knobs() {
    let (model, labels) = tiny_model();
    let _pool = pool_lock();
    explainti_pool::configure(2);
    let cfg = ServeConfig {
        workers: 3,
        max_batch: 5,
        cache_cap: 33,
        deadline_ms: 12_345,
        ..Default::default()
    };
    let mut handle = start(Arc::clone(&model), labels.clone(), cfg).expect("start server");
    let addr = handle.addr();

    let (status, body) = request(&addr, "GET", "/v1/config", "");
    assert_eq!(status, 200, "config failed: {body}");
    let config: explainti_api::ConfigResponse = serde_json::from_str(&body).unwrap();
    assert_eq!(config.schema_version, explainti_api::SCHEMA_VERSION);
    assert_eq!(config.workers, 3);
    assert_eq!(config.threads, 2);
    assert_eq!(config.max_batch, 5);
    assert_eq!(config.cache_cap, 33);
    assert_eq!(config.deadline_ms, 12_345);
    assert_eq!(config.model.num_labels, labels.len());
    assert_eq!(config.model.vocab_size, model.tokenizer.vocab_size());
    assert_eq!(config.model.num_weights, model.num_weights());
    assert!(config.model.d_model > 0 && config.model.layers > 0);

    // POST on a GET endpoint is a 405, and /v1/metrics carries the wire
    // version so scrapers can detect format changes.
    let (status, _) = request(&addr, "POST", "/v1/config", "");
    assert_eq!(status, 405);
    let (status, metrics) = request(&addr, "GET", "/v1/metrics", "");
    assert_eq!(status, 200);
    let metrics: Value = serde_json::from_str(&metrics).unwrap();
    assert_eq!(
        metrics.get("schema_version").and_then(Value::as_u64),
        Some(explainti_api::SCHEMA_VERSION as u64)
    );

    // The same endpoint negotiates Prometheus exposition via the query
    // string, including the rolling SLO gauges.
    let raw = request_raw(&addr, "GET", "/v1/metrics?format=prometheus", "");
    assert!(raw.starts_with("HTTP/1.1 200"), "raw: {raw}");
    assert!(raw.contains("text/plain; version=0.0.4"), "raw head: {raw}");
    let prom = raw.split_once("\r\n\r\n").map(|(_, b)| b).unwrap_or_default();
    assert!(prom.contains("# TYPE serve_slo_window_s gauge"), "prometheus body: {prom}");
    assert!(prom.contains("serve_slo_p99_ms"), "prometheus body: {prom}");

    handle.shutdown();
    handle.join();

    // Restore the process-wide width for the other tests in this binary.
    explainti_pool::configure(explainti_pool::Threads::resolve(None).threads());
}

/// The width (`--threads`) sizes only the embedding-store refresh: a
/// model built and refreshed at width 1 and one at width 4 must serve
/// byte-identical response bodies.
#[test]
fn parallel_and_serial_serving_are_byte_identical() {
    let _pool = pool_lock();
    let table = r#"{"title":"1998 world cup","columns":[
        {"header":"country","cells":["france","brazil","croatia"]},
        {"header":"goals","cells":["15","14","11"]},
        {"header":"coach","cells":["jacquet","zagallo","blazevic"]}]}"#;
    let col = r#"{"title":"grand prix","header":"driver","cells":["senna","prost"]}"#;

    let serve_once = |threads: usize| {
        explainti_pool::configure(threads);
        // Built after the width is set, so its refresh feeds the bodies.
        let (model, labels) = tiny_model();
        let cfg = ServeConfig {
            workers: 2,
            // Fresh cache per run: answers must match because the compute
            // matches, not because one run replays the other's cache.
            cache_cap: 4,
            ..Default::default()
        };
        let mut handle = start(model, labels, cfg).expect("start server");
        let addr = handle.addr();
        let (s1, single) = request(&addr, "POST", "/v1/interpret", col);
        let (s2, multi) = request(&addr, "POST", "/v1/interpret", table);
        assert_eq!((s1, s2), (200, 200), "bodies: {single} / {multi}");
        handle.shutdown();
        handle.join();
        (single, multi)
    };

    let serial = serve_once(1);
    let parallel = serve_once(4);
    assert_eq!(serial.0, parallel.0, "single-column response diverged across thread counts");
    assert_eq!(serial.1, parallel.1, "table response diverged across thread counts");

    explainti_pool::configure(explainti_pool::Threads::resolve(None).threads());
}

/// A table is one queue entry, however many columns it has: a table at
/// the per-request column limit answers on an idle default server, with
/// every column in request order.
#[test]
fn table_at_the_column_limit_answers_in_order() {
    let (model, labels) = tiny_model();
    let mut handle = start(model, labels, ServeConfig::default()).expect("start server");
    let addr = handle.addr();

    let cols: Vec<String> =
        (0..512).map(|i| format!(r#"{{"header":"c{i}","cells":["v{i}"]}}"#)).collect();
    let table = format!(r#"{{"title":"wide","columns":[{}]}}"#, cols.join(","));
    let (status, body) = request(&addr, "POST", "/v1/interpret", &table);
    assert_eq!(status, 200, "512-column table failed: {}", &body[..body.len().min(300)]);
    let resp: InterpretTableResponse = serde_json::from_str(&body).unwrap();
    assert_eq!(resp.columns.len(), 512);
    for (i, col) in resp.columns.iter().enumerate() {
        assert_eq!(col.header, format!("c{i}"), "column {i} out of order");
    }

    handle.shutdown();
    handle.join();
}

#[test]
fn concurrent_clients_all_get_answers() {
    let (model, labels) = tiny_model();
    let cfg = ServeConfig { workers: 2, max_batch: 8, deadline_ms: 60_000, ..Default::default() };
    let mut handle = start(model, labels.clone(), cfg).expect("start server");
    let addr = handle.addr();

    let clients: Vec<_> = (0..6)
        .map(|i| {
            std::thread::spawn(move || {
                let body = format!(
                    r#"{{"title":"table {i}","header":"col{i}","cells":["v{i}a","v{i}b"]}}"#
                );
                request(&addr, "POST", "/v1/interpret", &body)
            })
        })
        .collect();
    for c in clients {
        let (status, body) = c.join().unwrap();
        assert_eq!(status, 200, "body: {body}");
        let resp: PredictResponse = serde_json::from_str(&body).unwrap();
        assert!(resp.label_id < labels.len());
    }

    handle.shutdown();
    handle.join();
}
