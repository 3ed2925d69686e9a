//! Connection-layer semantics of the thread-per-connection front-end:
//! HTTP/1.1 keep-alive (two requests, one socket), pipelining (responses
//! in request order), the slow-loris read deadline (typed 408), the hard
//! connection limit (typed 429 + `Retry-After`), chunked streaming of
//! table responses (with the HTTP/1.0 buffered fallback), and a drain
//! started by the shutdown flag alone.

// Integration tests may panic freely; the crate's unwrap/expect
// lints target the request path (EA006), not test assertions.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use explainti_core::{ExplainTi, ExplainTiConfig};
use explainti_serve::{start, ServeConfig};
use serde_json::Value;

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

/// One parsed response off a persistent connection.
struct Response {
    status: u16,
    headers: Vec<(String, String)>,
    body: String,
}

impl Response {
    fn header(&self, name: &str) -> Option<&str> {
        self.headers.iter().find(|(k, _)| k == name).map(|(_, v)| v.as_str())
    }
}

/// A keep-alive client: frames responses by `Content-Length` or chunked
/// encoding instead of reading to EOF, so one socket serves many
/// requests and pipelined responses can be peeled off in order.
struct Client {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Client {
    fn connect(addr: &std::net::SocketAddr) -> Self {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        Self { stream, buf: Vec::new() }
    }

    fn send(&mut self, text: &str) {
        self.stream.write_all(text.as_bytes()).unwrap();
    }

    fn request_text(method: &str, path: &str, body: &str) -> String {
        format!(
            "{method} {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
    }

    /// Reads more bytes; panics on EOF (callers expect a response).
    fn fill(&mut self) {
        let mut scratch = [0u8; 8192];
        let n = self.stream.read(&mut scratch).expect("read");
        assert!(
            n > 0,
            "connection closed mid-response; buffered: {:?}",
            String::from_utf8_lossy(&self.buf)
        );
        self.buf.extend_from_slice(&scratch[..n]);
    }

    fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
        haystack.windows(needle.len()).position(|w| w == needle)
    }

    /// Consumes exactly one response from the stream.
    fn read_response(&mut self) -> Response {
        let head_end = loop {
            if let Some(pos) = Self::find(&self.buf, b"\r\n\r\n") {
                break pos;
            }
            self.fill();
        };
        let head = String::from_utf8_lossy(&self.buf[..head_end]).into_owned();
        self.buf.drain(..head_end + 4);
        let status: u16 = head
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .unwrap_or_else(|| panic!("unparseable head: {head:?}"));
        let headers: Vec<(String, String)> = head
            .lines()
            .skip(1)
            .filter_map(|l| l.split_once(':'))
            .map(|(k, v)| (k.trim().to_ascii_lowercase(), v.trim().to_string()))
            .collect();
        let chunked = headers
            .iter()
            .any(|(k, v)| k == "transfer-encoding" && v.eq_ignore_ascii_case("chunked"));
        let body = if chunked {
            let mut out = Vec::new();
            loop {
                let nl = loop {
                    if let Some(pos) = Self::find(&self.buf, b"\r\n") {
                        break pos;
                    }
                    self.fill();
                };
                let size_line = String::from_utf8_lossy(&self.buf[..nl]).into_owned();
                let size = usize::from_str_radix(size_line.trim(), 16)
                    .unwrap_or_else(|_| panic!("bad chunk size line: {size_line:?}"));
                self.buf.drain(..nl + 2);
                while self.buf.len() < size + 2 {
                    self.fill();
                }
                if size == 0 {
                    self.buf.drain(..2);
                    break;
                }
                out.extend_from_slice(&self.buf[..size]);
                self.buf.drain(..size + 2);
            }
            out
        } else {
            let len: usize = headers
                .iter()
                .find(|(k, _)| k == "content-length")
                .and_then(|(_, v)| v.parse().ok())
                .unwrap_or(0);
            while self.buf.len() < len {
                self.fill();
            }
            let body: Vec<u8> = self.buf.drain(..len).collect();
            body
        };
        Response { status, headers, body: String::from_utf8_lossy(&body).into_owned() }
    }
}

#[test]
fn keep_alive_serves_multiple_requests_on_one_socket() {
    let (model, labels) = tiny_model();
    let cfg = ServeConfig { workers: 1, ..Default::default() };
    let mut handle = start(model, labels, cfg).expect("start server");
    let addr = handle.addr();

    let mut client = Client::connect(&addr);
    let col = r#"{"title":"cities","header":"city","cells":["london","paris"]}"#;
    client.send(&Client::request_text("POST", "/v1/interpret", col));
    let first = client.read_response();
    assert_eq!(first.status, 200, "body: {}", first.body);
    assert_eq!(first.header("connection"), Some("keep-alive"));

    // Same socket, second request: the reuse shows up in /v1/metrics
    // (the counter increments when this very request dispatches).
    client.send(&Client::request_text("GET", "/v1/metrics", ""));
    let second = client.read_response();
    assert_eq!(second.status, 200);
    let metrics: Value = serde_json::from_str(&second.body).unwrap();
    let reused = metrics
        .get("counters")
        .and_then(|c| c.get("serve.keepalive.reused"))
        .and_then(Value::as_u64)
        .unwrap_or(0);
    assert!(reused >= 1, "keep-alive reuse not counted: {metrics:?}");

    // Trace ids stay per-request, not per-connection.
    assert_ne!(first.header("x-trace-id"), second.header("x-trace-id"));

    handle.shutdown();
    handle.join();
}

#[test]
fn pipelined_requests_are_answered_in_order() {
    let (model, labels) = tiny_model();
    let cfg = ServeConfig { workers: 1, ..Default::default() };
    let mut handle = start(model, labels, cfg).expect("start server");
    let addr = handle.addr();

    // Three requests in one write, before reading anything. The replies
    // must come back in request order on the same socket.
    let mut client = Client::connect(&addr);
    let mut batch = String::new();
    batch.push_str(&Client::request_text("GET", "/v1/healthz", ""));
    batch.push_str(&Client::request_text(
        "POST",
        "/v1/interpret",
        r#"{"title":"t","header":"city","cells":["london"]}"#,
    ));
    batch.push_str(&Client::request_text("GET", "/v1/config", ""));
    client.send(&batch);

    let first = client.read_response();
    assert_eq!(first.status, 200);
    assert!(first.body.contains("\"status\":\"ok\""), "healthz first: {}", first.body);
    let second = client.read_response();
    assert_eq!(second.status, 200, "body: {}", second.body);
    assert!(second.body.contains("\"label\""), "interpret second: {}", second.body);
    let third = client.read_response();
    assert_eq!(third.status, 200);
    assert!(third.body.contains("\"max_conns\""), "config third: {}", third.body);

    handle.shutdown();
    handle.join();
}

#[test]
fn slow_loris_read_deadline_answers_typed_408() {
    let (model, labels) = tiny_model();
    let cfg = ServeConfig { workers: 1, read_timeout_ms: 150, ..Default::default() };
    let mut handle = start(model, labels, cfg).expect("start server");
    let addr = handle.addr();

    // Trickle an incomplete request and stall: head promises 100 body
    // bytes that never arrive.
    let mut client = Client::connect(&addr);
    client.send("POST /v1/interpret HTTP/1.1\r\nHost: t\r\nContent-Length: 100\r\n\r\nabc");
    let resp = client.read_response();
    assert_eq!(resp.status, 408, "body: {}", resp.body);
    assert!(resp.body.contains("RequestTimeout"), "typed code expected: {}", resp.body);
    assert!(resp.body.contains("\"retry_after_s\":1"), "typed retry hint: {}", resp.body);
    assert_eq!(resp.header("retry-after"), Some("1"), "Retry-After header");
    assert_eq!(resp.header("connection"), Some("close"));
    // The server closes the connection after the 408.
    let mut rest = Vec::new();
    let _ = client.stream.read_to_end(&mut rest);
    assert!(rest.is_empty(), "unexpected bytes after 408: {rest:?}");

    // A well-behaved client on a fresh socket is unaffected.
    let mut ok = Client::connect(&addr);
    ok.send(&Client::request_text("GET", "/v1/healthz", ""));
    assert_eq!(ok.read_response().status, 200);

    handle.shutdown();
    handle.join();
}

#[test]
fn stalled_connection_gets_exactly_one_408_then_close() {
    let (model, labels) = tiny_model();
    let cfg = ServeConfig { workers: 1, read_timeout_ms: 100, ..Default::default() };
    let mut handle = start(model, labels, cfg).expect("start server");
    let addr = handle.addr();

    // Stall past the deadline WITHOUT reading, across many sweep ticks.
    // A quiesced connection must emit exactly one 408 and close — not
    // re-enqueue a fresh response every 50ms tick.
    let mut client = Client::connect(&addr);
    client.send("POST /v1/interpret HTTP/1.1\r\nHost: t\r\nContent-Length: 100\r\n\r\nabc");
    std::thread::sleep(Duration::from_millis(700));
    let mut raw = Vec::new();
    client.stream.read_to_end(&mut raw).expect("server closes after the 408");
    let text = String::from_utf8_lossy(&raw);
    let count_408 = text.matches("HTTP/1.1 408").count();
    assert_eq!(count_408, 1, "expected exactly one 408, got {count_408}: {text}");

    // Same for a malformed stream: one 400, then close, even if the
    // client keeps writing garbage afterwards.
    let mut bad = Client::connect(&addr);
    bad.send("NOT-HTTP garbage\r\n\r\n");
    std::thread::sleep(Duration::from_millis(300));
    let _ = bad.stream.write_all(b"more garbage\r\n\r\n");
    std::thread::sleep(Duration::from_millis(300));
    let mut raw = Vec::new();
    let _ = bad.stream.read_to_end(&mut raw);
    let text = String::from_utf8_lossy(&raw);
    let count_400 = text.matches("HTTP/1.1 400").count();
    assert_eq!(count_400, 1, "expected exactly one 400, got {count_400}: {text}");

    handle.shutdown();
    handle.join();
}

#[test]
fn connection_limit_answers_typed_429_with_retry_after() {
    let (model, labels) = tiny_model();
    let cfg = ServeConfig { workers: 1, max_conns: 2, ..Default::default() };
    let mut handle = start(model, labels, cfg).expect("start server");
    let addr = handle.addr();

    // Fill the limit with two healthy connections and prove they are
    // admitted (each answers a request, so both are registered).
    let mut first = Client::connect(&addr);
    first.send(&Client::request_text("GET", "/v1/healthz", ""));
    assert_eq!(first.read_response().status, 200);
    let mut second = Client::connect(&addr);
    second.send(&Client::request_text("GET", "/v1/healthz", ""));
    assert_eq!(second.read_response().status, 200);

    // The third connection is over the limit: typed 429, Retry-After,
    // and an immediate close.
    let mut third = Client::connect(&addr);
    let resp = third.read_response();
    assert_eq!(resp.status, 429, "body: {}", resp.body);
    assert!(resp.body.contains("TooManyConnections"), "typed code expected: {}", resp.body);
    assert!(resp.body.contains("\"retry_after_s\":1"), "typed retry hint: {}", resp.body);
    assert_eq!(resp.header("retry-after"), Some("1"), "Retry-After header");
    let mut rest = Vec::new();
    let _ = third.stream.read_to_end(&mut rest);
    assert!(rest.is_empty(), "connection must close after the 429");

    // Freeing a slot restores admission.
    drop(first);
    std::thread::sleep(Duration::from_millis(200));
    let mut fourth = Client::connect(&addr);
    fourth.send(&Client::request_text("GET", "/v1/healthz", ""));
    assert_eq!(fourth.read_response().status, 200, "slot not reclaimed after close");

    handle.shutdown();
    handle.join();
}

#[test]
fn table_responses_stream_chunked_and_match_buffered_http10() {
    let (model, labels) = tiny_model();
    let cfg = ServeConfig { workers: 2, ..Default::default() };
    let mut handle = start(model, labels, cfg).expect("start server");
    let addr = handle.addr();

    let table = r#"{"title":"cup","columns":[
        {"header":"country","cells":["france","brazil"]},
        {"header":"rank","cells":["1","2"]}]}"#;

    // HTTP/1.1: chunked transfer-encoding, no Content-Length.
    let mut client = Client::connect(&addr);
    client.send(&Client::request_text("POST", "/v1/interpret", table));
    let chunked = client.read_response();
    assert_eq!(chunked.status, 200, "body: {}", chunked.body);
    assert_eq!(chunked.header("transfer-encoding"), Some("chunked"));
    assert_eq!(chunked.header("content-length"), None);
    let parsed: explainti_api::InterpretTableResponse =
        serde_json::from_str(&chunked.body).expect("streamed body is one JSON document");
    assert_eq!(parsed.columns.len(), 2);
    assert_eq!(parsed.schema_version, explainti_api::SCHEMA_VERSION);

    // The streamed bytes are identical to the serde serialization of
    // the assembled response (field order and all).
    assert_eq!(chunked.body, serde_json::to_string(&parsed).unwrap());

    // HTTP/1.0 client: buffered fallback with Content-Length, same body.
    let mut stream = TcpStream::connect(addr).unwrap();
    let msg = format!(
        "POST /v1/interpret HTTP/1.0\r\nHost: t\r\nContent-Length: {}\r\n\r\n{table}",
        table.len()
    );
    stream.write_all(msg.as_bytes()).unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap();
    let (head, body10) = raw.split_once("\r\n\r\n").unwrap();
    assert!(head.contains("Content-Length:"), "HTTP/1.0 must get a fixed body: {head}");
    assert!(!head.to_ascii_lowercase().contains("chunked"), "no chunking for HTTP/1.0: {head}");
    assert_eq!(body10, chunked.body, "buffered and streamed bodies must match");

    handle.shutdown();
    handle.join();
}

#[test]
fn shutdown_flag_alone_closes_idle_connections() {
    let (model, labels) = tiny_model();
    let cfg = ServeConfig { workers: 1, ..Default::default() };
    let mut handle = start(model, labels, cfg).expect("start server");
    let addr = handle.addr();

    // One keep-alive connection, left idle after its request.
    let mut client = Client::connect(&addr);
    client.send(&Client::request_text("GET", "/v1/healthz", ""));
    assert_eq!(client.read_response().status, 200);

    // Store the flag the way a signal handler or a stdin watcher does,
    // and send nothing more: no request may be needed to start the drain.
    handle.shutdown_flag().store(true, Ordering::SeqCst);
    let started = Instant::now();
    handle.join();
    let took = started.elapsed();
    assert!(took < Duration::from_secs(1), "join took {took:?} after the flag was stored");

    let mut rest = Vec::new();
    client.stream.read_to_end(&mut rest).expect("the idle connection closes cleanly");
    assert!(rest.is_empty(), "unexpected bytes after the drain: {rest:?}");
}
