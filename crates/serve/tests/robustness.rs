//! Hostile-input robustness for `/v1/interpret`: malformed UTF-8,
//! embedded NULs, pathological column counts, deep JSON nesting, huge
//! strings and empty tables must come back as clean 4xx errors — never a
//! panic, a hung worker, a crashed process or a 500.

// Integration tests may panic freely; the crate's unwrap/expect
// lints target the request path (EA006), not test assertions.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use explainti_core::{ExplainTi, ExplainTiConfig};
use explainti_serve::{start, ServeConfig};

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

/// How long a client waits for any response before the test fails.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(30);

/// One HTTP/1.1 exchange with an arbitrary (possibly non-UTF-8) body.
fn exchange(addr: &std::net::SocketAddr, method: &str, path: &str, body: &[u8]) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(CLIENT_TIMEOUT)).unwrap();
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).unwrap();
    stream.write_all(body).unwrap();
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).unwrap();
    let raw = String::from_utf8_lossy(&raw).into_owned();
    let status: u16 = raw
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("unparseable response: {raw:?}"));
    let body = raw.split_once("\r\n\r\n").map(|(_, b)| b.to_string()).unwrap_or_default();
    (status, body)
}

#[test]
fn hostile_inputs_return_400_not_500() {
    let (model, labels) = tiny_model();
    let cfg = ServeConfig { workers: 1, deadline_ms: 30_000, ..Default::default() };
    let mut handle = start(model, labels, cfg).expect("start server");
    let addr = handle.addr();

    // Malformed UTF-8 body.
    let (status, body) = exchange(&addr, "POST", "/v1/interpret", &[0xff, 0xfe, b'{', 0x80]);
    assert_eq!(status, 400, "invalid UTF-8 must answer 400: {body}");
    assert!(body.contains("UTF-8"), "error should say why: {body}");

    // Truncated / malformed JSON.
    let (status, _) = exchange(&addr, "POST", "/v1/interpret", br#"{"title": "x", "header""#);
    assert_eq!(status, 400);

    // Empty table.
    let (status, body) = exchange(&addr, "POST", "/v1/interpret", br#"{"columns": []}"#);
    assert_eq!(status, 400, "empty table must answer 400: {body}");

    // Column with neither header nor cells.
    let (status, _) =
        exchange(&addr, "POST", "/v1/interpret", br#"{"title":"t","header":"","cells":[]}"#);
    assert_eq!(status, 400);

    // A 10k-column row: answered with a clean 400 (over the per-request
    // column limit), not a queue meltdown or a 500.
    let cols: Vec<String> =
        (0..10_000).map(|i| format!(r#"{{"header":"c{i}","cells":["v"]}}"#)).collect();
    let huge = format!(r#"{{"title":"wide","columns":[{}]}}"#, cols.join(","));
    let (status, body) = exchange(&addr, "POST", "/v1/interpret", huge.as_bytes());
    assert_eq!(status, 400, "10k columns must answer 400: {body}");
    assert!(body.contains("limit"), "error should mention the limit: {body}");

    // Embedded NUL bytes and control characters in cells: valid JSON,
    // valid UTF-8 — must be interpreted (200) without panicking.
    let nul = "{\"title\":\"t\",\"header\":\"na\\u0000me\",\"cells\":[\"a\\u0000b\",\"\\u0001\"]}";
    let (status, body) = exchange(&addr, "POST", "/v1/interpret", nul.as_bytes());
    assert_eq!(status, 200, "NUL-laden column should still interpret: {body}");

    // The server survived all of the above: a normal request still works.
    let ok = br#"{"title":"cities","header":"city","cells":["london","paris"]}"#;
    let (status, _) = exchange(&addr, "POST", "/v1/interpret", ok);
    assert_eq!(status, 200, "server must stay healthy after hostile inputs");

    handle.shutdown();
    handle.join();
}

#[test]
fn deep_json_nesting_answers_400_and_server_survives() {
    let (model, labels) = tiny_model();
    let cfg = ServeConfig { workers: 1, ..Default::default() };
    let mut handle = start(model, labels, cfg).expect("start server");
    let addr = handle.addr();

    // 10,000 `[`: an unbounded recursive-descent parse overflows the
    // worker's stack, which aborts the process; the bounded parser
    // must answer a typed 400 instead.
    let (status, body) = exchange(&addr, "POST", "/v1/interpret", &[b'['; 10_000]);
    assert_eq!(status, 400, "deep nesting must answer 400: {body}");
    assert!(body.contains("nesting"), "error should say why: {body}");

    let (status, body) = exchange(&addr, "GET", "/v1/healthz", b"");
    assert_eq!(status, 200, "server must stay up after deep nesting: {body}");

    handle.shutdown();
    handle.join();
}

#[test]
fn body_cap_sized_string_answers_within_the_client_timeout() {
    let (model, labels) = tiny_model();
    let cfg = ServeConfig { workers: 1, ..Default::default() };
    let mut handle = start(model, labels, cfg).expect("start server");
    let addr = handle.addr();

    // One JSON string filling the whole 4 MiB body cap. A parser that
    // rescans the rest of the input per character takes minutes here;
    // a linear one answers (a typed 400: a string is not a request)
    // well inside the client timeout.
    let n = explainti_serve::http::MAX_BODY_BYTES - 2;
    let mut body = Vec::with_capacity(n + 2);
    body.push(b'"');
    body.extend(std::iter::repeat_n(b'x', n));
    body.push(b'"');
    let (status, reply) = exchange(&addr, "POST", "/v1/interpret", &body);
    assert!(status == 200 || status == 400, "4 MiB string answered {status}: {reply}");

    let (status, reply) = exchange(&addr, "GET", "/v1/healthz", b"");
    assert_eq!(status, 200, "server must stay up after a 4 MiB string: {reply}");

    handle.shutdown();
    handle.join();
}
