//! HTTP/1.1 framing for the event-driven front-end: an **incremental**
//! request parser over in-memory byte buffers (the event loop reads
//! whatever the socket has and asks "is a full request here yet?"),
//! plus response rendering — fixed `Content-Length` bodies and
//! `Transfer-Encoding: chunked` streams — for persistent (keep-alive)
//! connections.
//!
//! Nothing here touches a socket: the parser consumes `&[u8]` and
//! reports how many bytes it used, the renderers return `Vec<u8>`. That
//! keeps the module trivially testable and lets the event loop own all
//! I/O (and its readiness bookkeeping) in one place.

use std::time::Instant;

use explainti_api::{ApiError, ErrorCode};

/// Upper bound on a request body; larger payloads get 413.
pub const MAX_BODY_BYTES: usize = 4 * 1024 * 1024;
/// Upper bound on the request line + header section.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Upper bound on the number of header lines.
const MAX_HEADERS: usize = 100;

/// A parsed inbound request.
#[derive(Debug)]
pub struct Request {
    /// HTTP method, uppercased as received (`GET`, `POST`, …).
    pub method: String,
    /// Request path with any query string removed, e.g. `/v1/interpret`.
    pub path: String,
    /// Raw query string after `?` (empty when absent), undecoded.
    pub query: String,
    /// Raw body bytes (empty when no `Content-Length`).
    pub body: Vec<u8>,
    /// Whether the connection may carry another request after this one
    /// (HTTP/1.1 default unless `Connection: close`; HTTP/1.0 only with
    /// `Connection: keep-alive`).
    pub keep_alive: bool,
    /// Whether the response may use chunked transfer-encoding
    /// (HTTP/1.1 only — 1.0 clients get a buffered body instead).
    pub http11: bool,
    /// Nanoseconds from the request's first byte arriving to the parse
    /// completing — the wide-event `parse` stage, stamped by the event
    /// loop (0 until it does).
    pub parse_ns: u64,
    /// When the request's first byte arrived: the start of its
    /// wide-event clock, stamped by the event loop with `parse_ns`
    /// (`None` until it does).
    pub received_at: Option<Instant>,
}

/// Outcome of a parse attempt over a connection's read buffer.
#[derive(Debug)]
pub enum Parse {
    /// A complete request; `consumed` bytes of the buffer were used.
    Complete {
        /// The parsed request.
        request: Request,
        /// How many buffer bytes the request occupied.
        consumed: usize,
    },
    /// Not enough bytes yet — read more and try again.
    Partial,
    /// The bytes cannot become a valid request; answer the error and
    /// close (resynchronising a corrupt HTTP stream is not worth it).
    Invalid(ApiError),
}

/// Finds the end of the header section: the index just past the blank
/// line. Accepts `\r\n\r\n` and bare `\n\n`.
fn head_end(buf: &[u8]) -> Option<usize> {
    let mut prev_nl = None;
    for (i, &b) in buf.iter().enumerate() {
        if b != b'\n' {
            continue;
        }
        if let Some(p) = prev_nl {
            // Two newlines separated only by an optional '\r'.
            let between = &buf[p + 1..i];
            if between.is_empty() || between == b"\r" {
                return Some(i + 1);
            }
        }
        prev_nl = Some(i);
    }
    None
}

/// Attempts to parse one request from the front of `buf`.
pub fn parse_request(buf: &[u8]) -> Parse {
    let Some(head_len) = head_end(buf) else {
        if buf.len() > MAX_HEAD_BYTES {
            return Parse::Invalid(ApiError::new(
                ErrorCode::PayloadTooLarge,
                format!("request head exceeds {MAX_HEAD_BYTES} bytes"),
            ));
        }
        return Parse::Partial;
    };
    if head_len > MAX_HEAD_BYTES {
        return Parse::Invalid(ApiError::new(
            ErrorCode::PayloadTooLarge,
            format!("request head exceeds {MAX_HEAD_BYTES} bytes"),
        ));
    }
    let head = match std::str::from_utf8(&buf[..head_len]) {
        Ok(h) => h,
        Err(_) => return Parse::Invalid(ApiError::bad_request("header is not valid UTF-8")),
    };
    let mut lines = head.split('\n').map(|l| l.strip_suffix('\r').unwrap_or(l));
    let request_line = lines.next().unwrap_or_default();
    let mut parts = request_line.split_whitespace();
    let method = match parts.next() {
        Some(m) if !m.is_empty() => m.to_ascii_uppercase(),
        _ => return Parse::Invalid(ApiError::bad_request("empty request line")),
    };
    let target = match parts.next() {
        Some(t) => t.to_string(),
        None => return Parse::Invalid(ApiError::bad_request("request line has no path")),
    };
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), q.to_string()),
        None => (target, String::new()),
    };
    let http11 = match parts.next() {
        Some("HTTP/1.1") => true,
        Some("HTTP/1.0") => false,
        _ => return Parse::Invalid(ApiError::bad_request("expected an HTTP/1.x request")),
    };

    let mut content_length: Option<usize> = None;
    // HTTP/1.1 defaults to keep-alive; 1.0 to close.
    let mut keep_alive = http11;
    let mut n_headers = 0usize;
    for line in lines {
        if line.is_empty() {
            continue;
        }
        n_headers += 1;
        if n_headers > MAX_HEADERS {
            return Parse::Invalid(ApiError::bad_request("too many headers"));
        }
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        let name = name.trim();
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            // RFC 9112 §6.1: repeated Content-Length headers (even with
            // identical values) are rejected outright — disagreeing
            // with a fronting proxy over body framing on a keep-alive
            // connection is how request smuggling starts.
            if content_length.is_some() {
                return Parse::Invalid(ApiError::bad_request("duplicate Content-Length header"));
            }
            let parsed: usize = match value.parse() {
                Ok(n) => n,
                Err(_) => return Parse::Invalid(ApiError::bad_request("invalid Content-Length")),
            };
            if parsed > MAX_BODY_BYTES {
                return Parse::Invalid(ApiError::new(
                    ErrorCode::PayloadTooLarge,
                    format!("body exceeds {MAX_BODY_BYTES} bytes"),
                ));
            }
            content_length = Some(parsed);
        } else if name.eq_ignore_ascii_case("connection") {
            // Token list; "close" wins over "keep-alive" if both appear.
            let mut saw_close = false;
            let mut saw_keep = false;
            for tok in value.split(',') {
                let tok = tok.trim();
                if tok.eq_ignore_ascii_case("close") {
                    saw_close = true;
                } else if tok.eq_ignore_ascii_case("keep-alive") {
                    saw_keep = true;
                }
            }
            keep_alive = if saw_close { false } else { saw_keep || http11 };
        } else if name.eq_ignore_ascii_case("transfer-encoding") {
            // Inbound chunked bodies are not supported (the API takes
            // small JSON documents); refuse loudly instead of
            // mis-framing the stream.
            return Parse::Invalid(ApiError::bad_request(
                "chunked request bodies are not supported; send Content-Length",
            ));
        }
    }

    let total = head_len + content_length.unwrap_or(0);
    if buf.len() < total {
        return Parse::Partial;
    }
    let body = buf[head_len..total].to_vec();
    Parse::Complete {
        request: Request {
            method,
            path,
            query,
            body,
            keep_alive,
            http11,
            parse_ns: 0,
            received_at: None,
        },
        consumed: total,
    }
}

// ---- Response rendering ----------------------------------------------

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        409 => "Conflict",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Unknown",
    }
}

/// Optional response headers beyond the framing essentials.
#[derive(Debug, Default, Clone)]
pub struct Extras<'a> {
    /// `X-Trace-Id` value, when the request has a trace.
    pub trace_id: Option<&'a str>,
    /// `Retry-After` seconds (429/503 hints).
    pub retry_after_s: Option<u64>,
    /// `Allow` header value for 405 responses, e.g. `"GET"`.
    pub allow: Option<&'a str>,
    /// `X-Model-Generation` — the model generation that served the request.
    pub generation: Option<u64>,
}

fn head_common(status: u16, content_type: &str, extras: &Extras<'_>, keep_alive: bool) -> String {
    let mut head =
        format!("HTTP/1.1 {} {}\r\nContent-Type: {}\r\n", status, reason(status), content_type);
    if let Some(id) = extras.trace_id {
        head.push_str("X-Trace-Id: ");
        head.push_str(id);
        head.push_str("\r\n");
    }
    if let Some(s) = extras.retry_after_s {
        head.push_str(&format!("Retry-After: {s}\r\n"));
    }
    if let Some(allow) = extras.allow {
        head.push_str("Allow: ");
        head.push_str(allow);
        head.push_str("\r\n");
    }
    if let Some(generation) = extras.generation {
        head.push_str(&format!("X-Model-Generation: {generation}\r\n"));
    }
    head.push_str(if keep_alive { "Connection: keep-alive\r\n" } else { "Connection: close\r\n" });
    head
}

/// Renders a complete response with a fixed `Content-Length` body.
pub fn render_full(
    status: u16,
    content_type: &str,
    body: &str,
    extras: &Extras<'_>,
    keep_alive: bool,
) -> Vec<u8> {
    let mut head = head_common(status, content_type, extras, keep_alive);
    head.push_str(&format!("Content-Length: {}\r\n\r\n", body.len()));
    let mut out = head.into_bytes();
    out.extend_from_slice(body.as_bytes());
    out
}

/// Renders the head of a chunked streaming response; the body follows
/// as [`render_chunk`] frames terminated by [`LAST_CHUNK`].
pub fn render_chunked_head(
    status: u16,
    content_type: &str,
    extras: &Extras<'_>,
    keep_alive: bool,
) -> Vec<u8> {
    let mut head = head_common(status, content_type, extras, keep_alive);
    head.push_str("Transfer-Encoding: chunked\r\n\r\n");
    head.into_bytes()
}

/// Frames one chunk of a chunked response (empty payloads are skipped —
/// an empty chunk would terminate the stream early).
pub fn render_chunk(payload: &[u8]) -> Vec<u8> {
    if payload.is_empty() {
        return Vec::new();
    }
    let mut out = format!("{:x}\r\n", payload.len()).into_bytes();
    out.extend_from_slice(payload);
    out.extend_from_slice(b"\r\n");
    out
}

/// The terminating frame of a chunked response.
pub const LAST_CHUNK: &[u8] = b"0\r\n\r\n";

/// The [`ApiError`] body with a `trace_id` key spliced in.
///
/// The wire schema is frozen (EA005), so the id rides in the serialised
/// JSON at the HTTP layer — inserted into the error's `Value` tree
/// before the one serialization, so the body is the bare `ApiError`
/// shape plus one key — rather than as a new DTO field.
pub fn error_body(err: &ApiError, trace_id: &str) -> String {
    let mut value = serde::Serialize::to_value(err);
    if let serde_json::Value::Object(map) = &mut value {
        map.insert("trace_id".to_string(), serde_json::Value::String(trace_id.to_string()));
    }
    serde_json::to_string(&value).unwrap_or_default()
}

/// Renders a typed error response: status from the code, `trace_id`
/// spliced into the body, `retry_after_s` mirrored as `Retry-After`.
pub fn render_error(
    err: &ApiError,
    trace_id: &str,
    keep_alive: bool,
    allow: Option<&str>,
) -> Vec<u8> {
    let body = error_body(err, trace_id);
    let extras = Extras {
        trace_id: Some(trace_id),
        retry_after_s: err.retry_after_s,
        allow,
        ..Default::default()
    };
    render_full(err.status(), "application/json", &body, &extras, keep_alive)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // tests may panic freely
mod tests {
    use super::*;

    fn complete(buf: &[u8]) -> (Request, usize) {
        match parse_request(buf) {
            Parse::Complete { request, consumed } => (request, consumed),
            other => panic!("expected Complete, got {other:?}"),
        }
    }

    #[test]
    fn parses_request_with_body_and_reports_consumed() {
        let raw =
            b"POST /v1/interpret?x=1 HTTP/1.1\r\nHost: t\r\nContent-Length: 4\r\n\r\nbodyNEXT";
        let (req, consumed) = complete(raw);
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/interpret");
        assert_eq!(req.query, "x=1");
        assert_eq!(req.body, b"body");
        assert!(req.keep_alive && req.http11);
        // The next pipelined request's bytes are not consumed.
        assert_eq!(consumed, raw.len() - 4);
    }

    #[test]
    fn partial_until_body_arrives() {
        let raw = b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\n12345";
        assert!(matches!(parse_request(raw), Parse::Partial));
        assert!(matches!(parse_request(b"GET / HT"), Parse::Partial));
    }

    #[test]
    fn connection_close_and_http10_disable_keep_alive() {
        let (req, _) = complete(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n");
        assert!(!req.keep_alive);
        let (req, _) = complete(b"GET / HTTP/1.0\r\n\r\n");
        assert!(!req.keep_alive && !req.http11);
        let (req, _) = complete(b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n");
        assert!(req.keep_alive && !req.http11);
    }

    #[test]
    fn bare_lf_line_endings_are_tolerated() {
        let (req, consumed) = complete(b"GET /v1/healthz HTTP/1.1\nHost: t\n\n");
        assert_eq!(req.path, "/v1/healthz");
        assert_eq!(consumed, 34);
    }

    #[test]
    fn invalid_requests_are_typed_errors() {
        assert!(matches!(parse_request(b"\r\n\r\n"), Parse::Invalid(_)));
        assert!(matches!(parse_request(b"GET\r\n\r\n"), Parse::Invalid(_)));
        assert!(matches!(parse_request(b"GET / SPDY/3\r\n\r\n"), Parse::Invalid(_)));
        let huge = format!("POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n", MAX_BODY_BYTES + 1);
        match parse_request(huge.as_bytes()) {
            Parse::Invalid(e) => assert_eq!(e.status(), 413),
            other => panic!("expected 413, got {other:?}"),
        }
        match parse_request(b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n") {
            Parse::Invalid(e) => assert_eq!(e.status(), 400),
            other => panic!("expected 400, got {other:?}"),
        }
    }

    #[test]
    fn duplicate_content_length_is_rejected() {
        // Differing values: classic smuggling vector.
        let raw = b"POST / HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: 2\r\n\r\nbody";
        match parse_request(raw) {
            Parse::Invalid(e) => assert_eq!(e.status(), 400),
            other => panic!("expected 400, got {other:?}"),
        }
        // Identical repeats are rejected too (RFC 9112 §6.1).
        let raw = b"POST / HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: 4\r\n\r\nbody";
        assert!(matches!(parse_request(raw), Parse::Invalid(_)));
        // Comma-folded values never parse as a single integer.
        let raw = b"POST / HTTP/1.1\r\nContent-Length: 4, 4\r\n\r\nbody";
        assert!(matches!(parse_request(raw), Parse::Invalid(_)));
    }

    #[test]
    fn oversized_head_is_rejected_even_without_terminator() {
        let raw = vec![b'A'; MAX_HEAD_BYTES + 2];
        match parse_request(&raw) {
            Parse::Invalid(e) => assert_eq!(e.status(), 413),
            other => panic!("expected 413, got {other:?}"),
        }
    }

    #[test]
    fn render_full_and_chunked_frame_correctly() {
        let extras = Extras { trace_id: Some("deadbeef"), ..Default::default() };
        let full = render_full(200, "application/json", "{}", &extras, true);
        let text = String::from_utf8(full).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
        assert!(text.contains("X-Trace-Id: deadbeef\r\n"), "{text}");
        assert!(text.contains("Connection: keep-alive\r\n"), "{text}");
        assert!(text.ends_with("Content-Length: 2\r\n\r\n{}"), "{text}");

        let head = render_chunked_head(200, "application/json", &extras, false);
        let text = String::from_utf8(head).unwrap();
        assert!(text.contains("Transfer-Encoding: chunked\r\n"), "{text}");
        assert!(text.contains("Connection: close\r\n"), "{text}");
        assert_eq!(render_chunk(b"abc"), b"3\r\nabc\r\n");
        assert!(render_chunk(b"").is_empty());
        assert_eq!(LAST_CHUNK, b"0\r\n\r\n");
    }

    #[test]
    fn render_error_carries_retry_after_and_allow() {
        let err = ApiError::too_many_connections("full", 1);
        let text = String::from_utf8(render_error(&err, "beef", false, None)).unwrap();
        assert!(text.starts_with("HTTP/1.1 429 Too Many Requests\r\n"), "{text}");
        assert!(text.contains("Retry-After: 1\r\n"), "{text}");
        assert!(text.contains("\"retry_after_s\":1"), "{text}");
        assert!(text.contains("\"trace_id\":\"beef\""), "{text}");

        let err = ApiError::new(explainti_api::ErrorCode::MethodNotAllowed, "wrong method");
        let text = String::from_utf8(render_error(&err, "beef", true, Some("GET"))).unwrap();
        assert!(text.contains("Allow: GET\r\n"), "{text}");
        assert!(!text.contains("Retry-After"), "{text}");
    }

    #[test]
    fn error_body_splices_trace_id_and_keeps_shape() {
        let err = ApiError::bad_request("nope");
        let body = error_body(&err, "00000000deadbeef");
        let v: serde_json::Value = serde_json::from_str(&body).unwrap();
        assert_eq!(v["trace_id"].as_str().unwrap(), "00000000deadbeef");
        assert_eq!(v["message"].as_str().unwrap(), "nope");
        // The original error keys survive the splice byte-for-byte.
        let plain = serde_json::to_string(&err).unwrap();
        let plain_v: serde_json::Value = serde_json::from_str(&plain).unwrap();
        assert_eq!(v["code"], plain_v["code"]);
        // Exact bytes: keys sorted, `retry_after_s` null unless set.
        assert_eq!(
            body,
            concat!(
                "{\"code\":\"BadRequest\",\"message\":\"nope\",",
                "\"retry_after_s\":null,\"trace_id\":\"00000000deadbeef\"}",
            ),
        );
        let err = ApiError::too_many_connections("connection limit (2) reached", 1);
        assert_eq!(
            error_body(&err, "beef"),
            concat!(
                "{\"code\":\"TooManyConnections\",\"message\":\"connection limit (2) reached\",",
                "\"retry_after_s\":1,\"trace_id\":\"beef\"}",
            ),
        );
    }
}
