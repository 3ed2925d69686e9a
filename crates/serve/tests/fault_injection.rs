//! End-to-end chaos drills against a live server: a panicking forward,
//! slow forwards against tight deadlines and beside cache hits, and
//! injected connection faults — the server must stay up through all of
//! it, and `/v1/metrics` must account for every trip.
//!
//! The failpoint registry is process-global, so every test serialises on
//! one mutex and clears the registry before and after its drill.

// Integration tests may panic freely; the crate's unwrap/expect
// lints target the request path (EA006), not test assertions.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use explainti_core::{ExplainTi, ExplainTiConfig};
use explainti_faults as faults;
use explainti_serve::{start, ServeConfig};
use serde_json::Value;

fn lock() -> MutexGuard<'static, ()> {
    static GUARD: Mutex<()> = Mutex::new(());
    GUARD.lock().unwrap_or_else(|e| e.into_inner())
}

fn tiny_model() -> (Arc<ExplainTi>, Vec<String>) {
    let d = explainti_corpus::generate_wiki(&explainti_corpus::WikiConfig {
        num_tables: 16,
        seed: 4242,
        ..Default::default()
    });
    let mut m = ExplainTi::new(&d, ExplainTiConfig::bert_like(2048, 32));
    for t in 0..m.tasks().len() {
        m.refresh_store(t);
    }
    (Arc::new(m), d.collection.type_labels.clone())
}

fn request(addr: &std::net::SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let msg = format!(
        "{method} {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(msg.as_bytes()).unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap();
    let status: u16 = raw
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("unparseable response: {raw:?}"));
    let body = raw.split_once("\r\n\r\n").map(|(_, b)| b.to_string()).unwrap_or_default();
    (status, body)
}

/// Distinct request bodies so no drill hits another drill's cache entry.
fn column_body(tag: &str) -> String {
    format!(r#"{{"title":"chaos {tag}","header":"city {tag}","cells":["london","paris"]}}"#)
}

fn counter(metrics: &Value, name: &str) -> u64 {
    metrics.get("counters").and_then(|c| c.get(name)).and_then(Value::as_u64).unwrap_or(0)
}

fn scrape(addr: &std::net::SocketAddr) -> Value {
    let (status, body) = request(addr, "GET", "/v1/metrics", "");
    assert_eq!(status, 200, "metrics: {body}");
    serde_json::from_str(&body).unwrap()
}

#[test]
fn a_panicked_forward_runs_once_and_answers_a_typed_500() {
    let _g = lock();
    faults::clear_all();
    let (model, labels) = tiny_model();
    let cfg = ServeConfig { workers: 1, deadline_ms: 30_000, ..Default::default() };
    let mut handle = start(model, labels, cfg).expect("start server");
    let addr = handle.addr();

    let before = scrape(&addr);
    let trips = faults::hit_count("serve.worker.panic");
    faults::configure("serve.worker.panic", faults::Policy::Always);
    let (status, body) = request(&addr, "POST", "/v1/interpret", &column_body("panic"));
    faults::clear_all();
    assert_eq!(status, 500, "a panicked forward must answer a typed 500: {body}");
    assert!(body.contains("Internal"), "error must carry the typed code: {body}");

    // The forward ran exactly once: one trip, one recovered panic.
    let tripped = faults::hit_count("serve.worker.panic") - trips;
    assert_eq!(tripped, 1, "the failpoint tripped {tripped} times for one forward");
    let after = scrape(&addr);
    let panics = counter(&after, "serve.worker.panics") - counter(&before, "serve.worker.panics");
    assert_eq!(panics, 1, "serve.worker.panics grew by {panics} for one forward: {after:?}");

    // The same server answers the next request.
    let (status, body) = request(&addr, "POST", "/v1/interpret", &column_body("after"));
    assert_eq!(status, 200, "the server must answer once the fault clears: {body}");

    handle.shutdown();
    handle.join();
}

#[test]
fn slow_batch_against_tight_deadline_times_out_cleanly() {
    let _g = lock();
    faults::clear_all();
    let (model, labels) = tiny_model();
    // Deadline far below the injected 50 ms batch stall.
    let cfg = ServeConfig { workers: 1, deadline_ms: 20, ..Default::default() };
    let mut handle = start(model, labels, cfg).expect("start server");
    let addr = handle.addr();

    faults::configure("serve.batch.slow", faults::Policy::Always);
    let (status, body) = request(&addr, "POST", "/v1/interpret", &column_body("slow"));
    faults::clear_all();
    assert_eq!(status, 504, "a stalled batch must surface as a deadline miss: {body}");
    assert!(body.contains("DeadlineExceeded"), "typed code expected: {body}");

    let (status, health) = request(&addr, "GET", "/v1/healthz", "");
    assert_eq!(status, 200);
    assert!(health.contains("\"degraded\":false"), "healthz carries the flag: {health}");

    handle.shutdown();
    handle.join();
}

#[test]
fn a_cache_hit_does_not_wait_behind_a_forward() {
    let _g = lock();
    faults::clear_all();
    let (model, labels) = tiny_model();
    // One forward permit, held by a stalled cold request.
    let cfg = ServeConfig { workers: 1, deadline_ms: 30_000, ..Default::default() };
    let mut handle = start(model, labels, cfg).expect("start server");
    let addr = handle.addr();

    let (status, body) = request(&addr, "POST", "/v1/interpret", &column_body("warm"));
    assert_eq!(status, 200, "warming the cache: {body}");

    // The cold column's forward stalls 50 ms holding the only permit;
    // once the stall has begun, the warm column follows on a second
    // connection and must not wait for it.
    let trips = faults::hit_count("serve.batch.slow");
    faults::configure("serve.batch.slow", faults::Policy::Times(1));
    let send = |tag: &'static str| {
        std::thread::spawn(move || {
            let (status, body) = request(&addr, "POST", "/v1/interpret", &column_body(tag));
            (status, body, Instant::now())
        })
    };
    let cold_sent = Instant::now();
    let cold = send("cold");
    while faults::hit_count("serve.batch.slow") == trips {
        assert!(cold_sent.elapsed() < Duration::from_secs(10), "the stall never began");
        std::thread::yield_now();
    }
    let warm = send("warm");
    let (cold, warm) = (cold.join().unwrap(), warm.join().unwrap());
    faults::clear_all();
    assert_eq!(cold.0, 200, "cold column: {}", cold.1);
    assert_eq!(warm.0, 200, "warm column: {}", warm.1);
    // The stall starts after the cold request is sent, so a hit queued
    // behind it cannot finish inside this bound.
    let stalled_until = cold_sent + Duration::from_millis(50);
    assert!(warm.2 < stalled_until, "the cache hit waited behind the stalled forward");
    assert!(warm.2 < cold.2, "the cache hit's response arrived after the forward's");

    handle.shutdown();
    handle.join();
}

#[test]
fn injected_accept_rejection_answers_429_and_recovers() {
    let _g = lock();
    faults::clear_all();
    let (model, labels) = tiny_model();
    let cfg = ServeConfig { workers: 1, ..Default::default() };
    let mut handle = start(model, labels, cfg).expect("start server");
    let addr = handle.addr();

    // One forced admission failure: the very next connection is turned
    // away with the same typed 429 a real over-limit connection gets.
    faults::configure("serve.conn.accept", faults::Policy::Times(1));
    let (status, body) = request(&addr, "GET", "/v1/healthz", "");
    faults::clear_all();
    assert_eq!(status, 429, "injected accept failure must answer 429: {body}");
    assert!(body.contains("TooManyConnections"), "typed code expected: {body}");
    assert!(body.contains("\"retry_after_s\":1"), "typed retry hint expected: {body}");
    assert!(faults::hit_count("serve.conn.accept") >= 1, "the failpoint never tripped");

    // The rejection is accounted for and service resumes immediately.
    let (status, metrics) = request(&addr, "GET", "/v1/metrics", "");
    assert_eq!(status, 200, "server must admit connections once the fault clears");
    let metrics: Value = serde_json::from_str(&metrics).unwrap();
    let rejected = metrics
        .get("counters")
        .and_then(|c| c.get("serve.conns.rejected"))
        .and_then(Value::as_u64)
        .unwrap_or(0);
    assert!(rejected >= 1, "rejected-connection count missing: {metrics:?}");

    handle.shutdown();
    handle.join();
}

#[test]
fn injected_read_stall_answers_408_and_recovers() {
    let _g = lock();
    faults::clear_all();
    let (model, labels) = tiny_model();
    // Generous real deadline: only the failpoint can cause the 408.
    let cfg = ServeConfig { workers: 1, read_timeout_ms: 60_000, ..Default::default() };
    let mut handle = start(model, labels, cfg).expect("start server");
    let addr = handle.addr();

    // A connection with a half-sent request: the next deadline sweep
    // that sees the partial read trips the failpoint and forces the
    // slow-loris path without waiting out the real timeout.
    faults::configure("serve.conn.stall", faults::Policy::Times(1));
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(b"POST /v1/interpret HTTP/1.1\r\nContent-Length: 50\r\n\r\npartial").unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap();
    faults::clear_all();
    let status: u16 = raw.split_whitespace().nth(1).and_then(|s| s.parse().ok()).unwrap_or(0);
    assert_eq!(status, 408, "injected stall must answer 408: {raw}");
    assert!(raw.contains("RequestTimeout"), "typed code expected: {raw}");
    assert!(faults::hit_count("serve.conn.stall") >= 1, "the failpoint never tripped");

    let (status, metrics) = request(&addr, "GET", "/v1/metrics", "");
    assert_eq!(status, 200);
    let metrics: Value = serde_json::from_str(&metrics).unwrap();
    let timeouts = metrics
        .get("counters")
        .and_then(|c| c.get("serve.conns.timeout"))
        .and_then(Value::as_u64)
        .unwrap_or(0);
    assert!(timeouts >= 1, "timeout count missing: {metrics:?}");

    handle.shutdown();
    handle.join();
}

#[test]
fn degraded_model_serves_empty_global_and_reports_it() {
    let _g = lock();
    faults::clear_all();
    let (model, labels) = tiny_model();
    model.set_degraded(true);
    let mut handle = start(Arc::clone(&model), labels, ServeConfig::default()).expect("start");
    let addr = handle.addr();

    let (status, health) = request(&addr, "GET", "/v1/healthz", "");
    assert_eq!(status, 200, "degraded is not down");
    assert!(health.contains("\"degraded\":true"), "healthz must flag degraded: {health}");

    let (_, metrics) = request(&addr, "GET", "/v1/metrics", "");
    let metrics: Value = serde_json::from_str(&metrics).unwrap();
    assert_eq!(metrics.get("degraded").and_then(Value::as_bool), Some(true));

    // Predictions still flow (this model's store is intact, so this
    // checks the serving path, not GE emptiness — core's
    // `ge_store_failure_degrades_instead_of_failing` covers that).
    let (status, _) = request(&addr, "POST", "/v1/interpret", &column_body("degraded"));
    assert_eq!(status, 200);

    handle.shutdown();
    handle.join();
}
