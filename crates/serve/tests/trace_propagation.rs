//! End-to-end wide-event tracing tests: a real server on an ephemeral
//! port, a shared in-memory JSONL sink, and raw-socket clients joining
//! responses to trace records via `X-Trace-Id`.

// Integration tests may panic freely; the crate's unwrap/expect
// lints target the request path (EA006), not test assertions.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use explainti_core::{ExplainTi, ExplainTiConfig};
use explainti_serve::{start, ServeConfig};
use serde_json::Value;

fn tiny_model() -> (Arc<ExplainTi>, Vec<String>) {
    let d = explainti_corpus::generate_wiki(&explainti_corpus::WikiConfig {
        num_tables: 40,
        seed: 4242,
        ..Default::default()
    });
    let cfg = ExplainTiConfig::bert_like(2048, 32);
    let mut m = ExplainTi::new(&d, cfg);
    // No training needed — tracing structure is what's under test. GE
    // needs the embedding store populated.
    for t in 0..m.tasks().len() {
        m.refresh_store(t);
    }
    (Arc::new(m), d.collection.type_labels.clone())
}

/// A `Write` the obs sink owns whose bytes the test can still read.
#[derive(Clone)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// One HTTP/1.1 exchange, returning status, headers, and body.
fn request(
    addr: &std::net::SocketAddr,
    method: &str,
    path: &str,
    body: &str,
) -> (u16, Vec<(String, String)>, String) {
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
    let (head, body) = raw.split_once("\r\n\r\n").unwrap_or((raw.as_str(), ""));
    let headers = head
        .lines()
        .skip(1)
        .filter_map(|l| l.split_once(':'))
        .map(|(k, v)| (k.trim().to_ascii_lowercase(), v.trim().to_string()))
        .collect();
    (status, headers, body.to_string())
}

fn header<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
    headers.iter().find(|(k, _)| k == name).map(|(_, v)| v.as_str())
}

/// Polls the sink until the wide event for `trace_id` appears (the
/// event is emitted just after the response is written, so a client
/// can observe the response first).
fn wait_for_wide_event(buf: &SharedBuf, trace_id: &str) -> Value {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        {
            let bytes = buf.0.lock().unwrap();
            let text = String::from_utf8_lossy(&bytes);
            for line in text.lines() {
                let Ok(v) = serde_json::from_str::<Value>(line) else { continue };
                if v.get("type").and_then(Value::as_str) == Some("wide")
                    && v.get("trace_id").and_then(Value::as_str) == Some(trace_id)
                {
                    return v;
                }
            }
        }
        assert!(Instant::now() < deadline, "no wide event for trace {trace_id}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn wide_events_cover_every_stage_and_join_on_trace_ids() {
    explainti_obs::set_level(explainti_obs::Level::Info);
    explainti_obs::set_trace_seed(20_260_808);
    let buf = SharedBuf(Arc::new(Mutex::new(Vec::new())));
    explainti_obs::set_trace_writer(Box::new(buf.clone()));

    let (model, labels) = tiny_model();
    let cfg = ServeConfig {
        workers: 2,
        max_batch: 8,
        cache_cap: 32,
        deadline_ms: 60_000,
        ..Default::default()
    };
    let mut handle = start(model, labels, cfg).expect("start server");
    let addr = handle.addr();

    // --- Single cold request: every stage exactly once, sum ≤ total ---
    let col = r#"{"title":"1994 world cup","header":"country","cells":["costa rica","morocco"]}"#;
    let (status, headers, _body) = request(&addr, "POST", "/v1/interpret", col);
    assert_eq!(status, 200);
    let tid = header(&headers, "x-trace-id").expect("X-Trace-Id header").to_string();
    assert_eq!(tid.len(), 16, "trace id is 16 hex digits: {tid}");
    assert!(tid.chars().all(|c| c.is_ascii_hexdigit()));

    let event = wait_for_wide_event(&buf, &tid);
    assert_eq!(event.get("endpoint").and_then(Value::as_str), Some("interpret"));
    assert_eq!(event.get("status").and_then(Value::as_u64), Some(200));
    let stages = event.get("stages").and_then(Value::as_object).expect("stages object");
    let mut expected: Vec<&str> = explainti_obs::STAGES.to_vec();
    expected.sort_unstable();
    let got: Vec<&str> = stages.keys().map(String::as_str).collect();
    assert_eq!(got, expected, "stage keys must appear exactly once each");
    let total = event.get("total_ns").and_then(Value::as_u64).unwrap();
    let stage_sum: u64 = stages.values().filter_map(Value::as_u64).sum();
    assert!(
        stage_sum <= total,
        "stages must be disjoint pieces of the request: sum {stage_sum} > total {total}"
    );
    // A cold single-column request exercises the full pipeline.
    for key in ["parse", "encode", "serialize", "predict"] {
        let ns = stages.get(key).and_then(Value::as_u64).unwrap();
        assert!(ns > 0, "stage {key} unexpectedly zero in {event:?}");
    }
    // The explanation views ran (captured on the worker).
    let views: u64 = ["explain_le", "explain_ge", "explain_se"]
        .iter()
        .filter_map(|k| stages.get(*k).and_then(Value::as_u64))
        .sum();
    assert!(views > 0, "LE/GE/SE time missing from {event:?}");
    assert_eq!(event.get("columns").and_then(Value::as_u64), Some(1));
    assert!(event.get("batch_size_max").and_then(Value::as_u64).unwrap_or(0) >= 1);

    // --- Cache hit: joined by id, flagged, no worker stages ---
    let (status, headers, _body) = request(&addr, "POST", "/v1/interpret", col);
    assert_eq!(status, 200);
    let hit_tid = header(&headers, "x-trace-id").unwrap().to_string();
    assert_ne!(hit_tid, tid, "every request gets a fresh trace id");
    let hit_event = wait_for_wide_event(&buf, &hit_tid);
    assert_eq!(hit_event.get("cache_hits").and_then(Value::as_u64), Some(1));
    let hit_stages = hit_event.get("stages").and_then(Value::as_object).unwrap();
    assert_eq!(hit_stages.get("predict").and_then(Value::as_u64), Some(0));
    assert_eq!(hit_stages.get("queue_wait").and_then(Value::as_u64), Some(0));

    // --- Errors echo the id in the body and still emit a wide event ---
    let (status, headers, body) = request(&addr, "POST", "/v1/interpret", "{not json");
    assert_eq!(status, 400);
    let err_tid = header(&headers, "x-trace-id").unwrap().to_string();
    assert!(
        body.contains(&format!("\"trace_id\":\"{err_tid}\"")),
        "error body must echo the trace id: {body}"
    );
    let err_event = wait_for_wide_event(&buf, &err_tid);
    assert_eq!(err_event.get("status").and_then(Value::as_u64), Some(400));

    // --- Concurrent batch: ids unique, one wide event each ---
    let clients: Vec<_> = (0..12)
        .map(|i| {
            std::thread::spawn(move || {
                let body = format!(
                    r#"{{"title":"table {i}","header":"col{i}","cells":["v{i}a","v{i}b"]}}"#
                );
                request(&addr, "POST", "/v1/interpret", &body)
            })
        })
        .collect();
    let mut ids = std::collections::BTreeSet::new();
    for c in clients {
        let (status, headers, body) = c.join().unwrap();
        assert_eq!(status, 200, "body: {body}");
        let id = header(&headers, "x-trace-id").unwrap().to_string();
        assert!(ids.insert(id), "duplicate trace id under concurrency");
    }
    for id in &ids {
        let ev = wait_for_wide_event(&buf, id);
        let st = ev.get("stages").and_then(Value::as_object).unwrap();
        let total = ev.get("total_ns").and_then(Value::as_u64).unwrap();
        let sum: u64 = st.values().filter_map(Value::as_u64).sum();
        assert!(sum <= total, "event {id}: stage sum {sum} > total {total}");
        assert!(st.get("predict").and_then(Value::as_u64).unwrap() > 0, "event {id} no predict");
    }

    handle.shutdown();
    handle.join();
    explainti_obs::close_trace();
}
