//! Connections: the blocking accept loop and one thread per connection.
//!
//! The accept loop blocks in `accept(2)`, turns connections over the
//! `max_conns` limit away with a typed 429 + `Retry-After`, and gives
//! every admitted socket its own thread. That thread reads into a
//! buffer capped at `MAX_CONN_BUF`, pumps the incremental parser, and
//! answers each complete request in order — route, handler, response —
//! writing the bytes before it reads again, so keep-alive and pipelined
//! requests are answered in request order without any hand-off between
//! threads. The socket's read timeout is the thread's 50 ms tick:
//! between reads it enforces the read deadline (slow-loris → one typed
//! 408, then close), the idle timeout and the shutdown drain.
//!
//! Threads are reused across connections, not across requests: when its
//! connection closes, a thread parks for up to one idle timeout and the
//! accept loop hands the next admitted connection to a parked thread
//! before it spawns a new one. Spawning costs tens of microseconds, so
//! a client that opens a socket per request would otherwise pay it on
//! every request. A thread serves one connection at a time, so there
//! are never more connection threads than `max_conns`.
//!
//! [`ResponseSink`] collects exactly one response per request, either a
//! fixed `Content-Length` body ([`ResponseSink::send_json`]) or a
//! chunked stream ([`ResponseSink::begin_stream`] /
//! [`ResponseSink::stream_chunk`] / [`ResponseSink::end_stream`]) for
//! table responses, one chunk per column. A handler only opens a stream
//! once every column is computed, so a stream never has to be cut short
//! by a failure.

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;

use std::time::{Duration, Instant};

use explainti_api::ApiError;

use crate::http;
use crate::server::{self, Shared};

/// Hard cap on a connection's unparsed read buffer: one maximal request
/// head + body plus pipelined slack. Beyond it the peer is flooding.
const MAX_CONN_BUF: usize = http::MAX_HEAD_BYTES + http::MAX_BODY_BYTES + 64 * 1024;

/// Scratch read size per `read(2)` call.
const READ_CHUNK: usize = 16 * 1024;

/// Socket read and write timeout: how often a connection thread that is
/// waiting on its peer re-checks its deadlines and the shutdown flag.
pub(crate) const TICK: Duration = Duration::from_millis(50);

/// How long a drain waits for in-flight connections before force-close.
const DRAIN_GRACE: Duration = Duration::from_secs(5);

/// How long a failed connection's one error response may take to drain
/// (peer not reading) before the socket is closed anyway.
const FAIL_FLUSH_GRACE: Duration = Duration::from_secs(5);

// ---- Accept -----------------------------------------------------------

/// Admitted connections waiting for a parked connection thread.
#[derive(Default)]
pub(crate) struct Parked {
    /// Connections handed over but not yet taken.
    streams: VecDeque<TcpStream>,
    /// Threads parked in [`park`]; never fewer than `streams.len()`, so
    /// every handed-over connection has a thread that will take it.
    threads: usize,
}

/// Accepts until the shutdown flag is seen, giving each admitted
/// connection a parked thread or a new one. Returns the handles of the
/// connection threads still running, for the drain to join.
pub(crate) fn accept_loop(shared: &Arc<Shared>, listener: &TcpListener) -> Vec<JoinHandle<()>> {
    let mut conns: Vec<JoinHandle<()>> = Vec::new();
    loop {
        let accepted = listener.accept();
        if shared.shutdown.load(Ordering::SeqCst) {
            // Shutdown (or its wake-up connect): stop accepting; the
            // listener closes when the caller drops it.
            return conns;
        }
        let stream = match accepted {
            Ok((stream, _addr)) => stream,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => {
                explainti_obs::counter!("serve.accept.errors", 1);
                continue;
            }
        };
        explainti_obs::counter!("serve.conns.accepted", 1);
        conns.retain(|c| !c.is_finished());
        let over_limit = shared.open_conns.load(Ordering::SeqCst) >= shared.max_conns;
        if over_limit || explainti_faults::triggered("serve.conn.accept") {
            explainti_obs::counter!("serve.conns.rejected", 1);
            reject(stream, shared.max_conns);
            continue;
        }
        let open = shared.open_conns.fetch_add(1, Ordering::SeqCst) + 1;
        explainti_obs::set_gauge("serve.conns.active", open as f64);
        let Err(stream) = hand_to_parked(shared, stream) else { continue };
        let conn_shared = Arc::clone(shared);
        let spawned = std::thread::Builder::new()
            .name("serve-conn".to_string())
            .spawn(move || conn_thread(&conn_shared, stream));
        match spawned {
            Ok(handle) => conns.push(handle),
            Err(_) => {
                // The closure (and the socket in it) was dropped unrun.
                shared.open_conns.fetch_sub(1, Ordering::SeqCst);
                explainti_obs::counter!("serve.accept.errors", 1);
            }
        }
    }
}

/// Gives `stream` to a parked connection thread, or hands it back when
/// every parked thread already has one waiting.
fn hand_to_parked(shared: &Shared, stream: TcpStream) -> Result<(), TcpStream> {
    let mut parked = shared.parked.lock();
    if parked.threads <= parked.streams.len() {
        return Err(stream);
    }
    parked.streams.push_back(stream);
    drop(parked);
    shared.parked_ready.notify_one();
    Ok(())
}

/// A connection thread: serves `first`, then every connection the
/// accept loop hands it while parked, until it parks too long.
fn conn_thread(shared: &Shared, first: TcpStream) {
    let mut scratch = [0u8; READ_CHUNK];
    let mut next = Some(first);
    while let Some(stream) = next {
        Conn::run(shared, stream, &mut scratch);
        next = park(shared);
    }
}

/// Closes out a served connection's count and waits, for up to one idle
/// timeout, for the accept loop to hand this thread the next one.
/// `None` means exit: the wait ran out or the server is shutting down.
fn park(shared: &Shared) -> Option<TcpStream> {
    let parked_at = Instant::now();
    let mut parked = shared.parked.lock();
    parked.threads += 1;
    // Counted out under the lock, so the accept loop never spawns a
    // thread while this one is about to park.
    let open = shared.open_conns.fetch_sub(1, Ordering::SeqCst) - 1;
    explainti_obs::set_gauge("serve.conns.active", open as f64);
    loop {
        if let Some(stream) = parked.streams.pop_front() {
            parked.threads -= 1;
            return Some(stream);
        }
        if shared.shutdown.load(Ordering::SeqCst) || parked_at.elapsed() >= shared.idle_timeout {
            parked.threads -= 1;
            return None;
        }
        parked = parked.wait_timeout(&shared.parked_ready, TICK).0;
    }
}

/// Best-effort typed 429 on a connection we will not keep: one
/// nonblocking pass over the bytes, since backpressure on a brand-new
/// socket means the client is not reading.
fn reject(stream: TcpStream, max_conns: usize) {
    let _ = stream.set_nonblocking(true);
    let err = ApiError::too_many_connections(format!("connection limit ({max_conns}) reached"), 1);
    let tid = explainti_obs::next_trace_id().to_string();
    let bytes = http::render_error(&err, &tid, false, None);
    let mut remaining: &[u8] = &bytes;
    while !remaining.is_empty() {
        match (&stream).write(remaining) {
            Ok(0) => break,
            Ok(n) => remaining = remaining.get(n..).unwrap_or_default(),
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => break,
        }
    }
    let _ = stream.shutdown(Shutdown::Both);
}

// ---- One connection ---------------------------------------------------

/// One admitted connection, owned by its thread.
struct Conn {
    stream: TcpStream,
    /// Unparsed inbound bytes.
    buf: Vec<u8>,
    /// Parsed requests not yet answered (pipelining).
    pending: VecDeque<http::Request>,
    /// When the current incomplete request's first byte arrived.
    partial_since: Option<Instant>,
    /// When the connection last finished a read or a response.
    idle_since: Instant,
    /// Requests answered so far (keep-alive reuse = anything past one).
    served: u64,
}

impl Conn {
    /// Serves `stream` until the peer closes, a request asks to close,
    /// the idle timeout or a deadline ends it, or the drain does.
    fn run(shared: &Shared, stream: TcpStream, scratch: &mut [u8]) {
        let _ = stream.set_nodelay(true);
        if stream.set_read_timeout(Some(TICK)).is_err()
            || stream.set_write_timeout(Some(TICK)).is_err()
        {
            return;
        }
        let mut conn = Conn {
            stream,
            buf: Vec::new(),
            pending: VecDeque::new(),
            partial_since: None,
            idle_since: Instant::now(),
            served: 0,
        };
        conn.serve(shared, scratch);
        let _ = conn.stream.shutdown(Shutdown::Both);
    }

    /// Answers every complete request in order, then reads for more.
    fn serve(&mut self, shared: &Shared, scratch: &mut [u8]) {
        loop {
            let invalid = self.parse();
            while let Some(mut request) = self.pending.pop_front() {
                if shared.shutdown.load(Ordering::SeqCst) {
                    // Draining: close after this response.
                    request.keep_alive = false;
                }
                if self.served > 0 {
                    explainti_obs::counter!("serve.keepalive.reused", 1);
                }
                self.served += 1;
                let keep_alive = request.keep_alive;
                let bytes = server::answer(shared, request);
                if !self.write_all(shared, &bytes, None) || !keep_alive {
                    return;
                }
                self.idle_since = Instant::now();
            }
            if let Some(err) = invalid {
                return self.fail(shared, err);
            }
            if !self.read_more(shared, scratch) {
                return;
            }
        }
    }

    /// Moves every complete request in the buffer to `pending`, stamping
    /// its `parse_ns` and `received_at`. Returns the error of an
    /// unparseable stream; the requests before it are still answered.
    fn parse(&mut self) -> Option<ApiError> {
        loop {
            match http::parse_request(&self.buf) {
                http::Parse::Complete { mut request, consumed } => {
                    let now = Instant::now();
                    let started = self.partial_since.take().unwrap_or(now);
                    request.parse_ns =
                        now.saturating_duration_since(started).as_nanos().min(u64::MAX as u128)
                            as u64;
                    request.received_at = Some(started);
                    self.buf.drain(..consumed);
                    if !self.buf.is_empty() {
                        // The next pipelined request is already arriving.
                        self.partial_since = Some(now);
                    }
                    self.pending.push_back(request);
                }
                http::Parse::Partial => return None,
                http::Parse::Invalid(err) => return Some(err),
            }
        }
    }

    /// Blocks until more request bytes arrive, waking every [`TICK`] to
    /// enforce the read deadline, the idle timeout and the drain.
    /// Returns `false` when the connection should close.
    fn read_more(&mut self, shared: &Shared, scratch: &mut [u8]) -> bool {
        loop {
            let now = Instant::now();
            if shared.shutdown.load(Ordering::SeqCst)
                && (self.buf.is_empty() || now >= drain_deadline(shared))
            {
                return false;
            }
            if let Some(since) = self.partial_since {
                if now.saturating_duration_since(since) >= shared.read_timeout
                    || explainti_faults::triggered("serve.conn.stall")
                {
                    explainti_obs::counter!("serve.conns.timeout", 1);
                    let err = ApiError::request_timeout(
                        format!(
                            "request not completed within {} ms",
                            shared.read_timeout.as_millis()
                        ),
                        1,
                    );
                    self.fail(shared, err);
                    return false;
                }
            } else if now.saturating_duration_since(self.idle_since) >= shared.idle_timeout {
                return false;
            }
            match self.stream.read(scratch) {
                Ok(0) => return false,
                Ok(n) => {
                    let now = Instant::now();
                    if self.buf.is_empty() && self.partial_since.is_none() {
                        self.partial_since = Some(now);
                    }
                    self.buf.extend_from_slice(scratch.get(..n).unwrap_or_default());
                    self.idle_since = now;
                    if self.buf.len() > MAX_CONN_BUF {
                        self.fail(
                            shared,
                            ApiError::new(
                                explainti_api::ErrorCode::PayloadTooLarge,
                                format!("connection buffer exceeds {MAX_CONN_BUF} bytes"),
                            ),
                        );
                        return false;
                    }
                    return true;
                }
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return false,
            }
        }
    }

    /// Writes `bytes` in full. Gives up when the socket fails, when the
    /// drain's grace ends, or at `give_up` (a peer not reading).
    fn write_all(&mut self, shared: &Shared, mut bytes: &[u8], give_up: Option<Instant>) -> bool {
        while !bytes.is_empty() {
            match self.stream.write(bytes) {
                Ok(0) => return false,
                Ok(n) => bytes = bytes.get(n..).unwrap_or_default(),
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    let now = Instant::now();
                    let draining =
                        shared.shutdown.load(Ordering::SeqCst) && now >= drain_deadline(shared);
                    if draining || give_up.is_some_and(|t| now >= t) {
                        return false;
                    }
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return false,
            }
        }
        true
    }

    /// Answers a malformed stream (400/413) or a read-deadline expiry
    /// (408) with exactly one typed error; the caller then closes, so
    /// the connection is never read or parsed again.
    fn fail(&mut self, shared: &Shared, err: ApiError) {
        let trace_id = explainti_obs::next_trace_id();
        let mut rtrace = explainti_obs::RequestTrace::new(trace_id);
        rtrace.set_endpoint("conn");
        rtrace.set_status(err.status());
        let bytes = http::render_error(&err, &trace_id.to_string(), false, None);
        rtrace.finish();
        self.write_all(shared, &bytes, Some(Instant::now() + FAIL_FLUSH_GRACE));
    }
}

/// When a drain that has begun force-closes what is left (set by the
/// first connection thread to see the shutdown flag).
fn drain_deadline(shared: &Shared) -> Instant {
    *shared.drain_deadline.get_or_init(|| Instant::now() + DRAIN_GRACE)
}

// ---- Response writer --------------------------------------------------

/// Builds exactly one response for one request; the connection thread
/// writes [`ResponseSink::into_bytes`] once the handler returns.
pub struct ResponseSink {
    out: Vec<u8>,
    trace_id: String,
    keep_alive: bool,
    chunked_ok: bool,
    status: u16,
    /// HTTP/1.0 fallback: chunks accumulate here and ship as one fixed
    /// body on [`ResponseSink::end_stream`].
    buffered: Option<Vec<u8>>,
    generation: Option<u64>,
}

impl ResponseSink {
    /// A sink for one request.
    pub fn new(trace_id: String, keep_alive: bool, chunked_ok: bool) -> Self {
        Self {
            out: Vec::new(),
            trace_id,
            keep_alive,
            chunked_ok,
            status: 0,
            buffered: None,
            generation: None,
        }
    }

    /// Stamps every subsequent response with `X-Model-Generation`.
    pub fn set_generation(&mut self, generation: u64) {
        self.generation = Some(generation);
    }

    /// The committed HTTP status (0 before any response).
    pub fn status(&self) -> u16 {
        self.status
    }

    /// The response bytes, ready for the socket.
    pub fn into_bytes(self) -> Vec<u8> {
        self.out
    }

    fn extras(&self) -> http::Extras<'_> {
        http::Extras {
            trace_id: Some(&self.trace_id),
            generation: self.generation,
            ..Default::default()
        }
    }

    fn commit(&mut self, bytes: Vec<u8>) {
        if self.out.is_empty() {
            self.out = bytes;
        } else {
            self.out.extend_from_slice(&bytes);
        }
    }

    /// Sends a complete JSON response.
    pub fn send_json(&mut self, status: u16, body: &str) {
        self.status = status;
        let bytes =
            http::render_full(status, "application/json", body, &self.extras(), self.keep_alive);
        self.commit(bytes);
    }

    /// Sends a complete plain-text response (Prometheus exposition).
    pub fn send_text(&mut self, status: u16, body: &str) {
        self.status = status;
        let bytes = http::render_full(
            status,
            "text/plain; version=0.0.4",
            body,
            &self.extras(),
            self.keep_alive,
        );
        self.commit(bytes);
    }

    /// Sends a typed error response (`Retry-After` mirrored from the
    /// error, `Allow` attached for 405s).
    pub fn send_error(&mut self, err: &ApiError, allow: Option<&str>) {
        self.status = err.status();
        self.commit(http::render_error(err, &self.trace_id, self.keep_alive, allow));
    }

    /// Opens a streamed response: chunked on HTTP/1.1, buffered into a
    /// single fixed body for HTTP/1.0 clients.
    pub fn begin_stream(&mut self, status: u16, content_type: &str) {
        self.status = status;
        if self.chunked_ok {
            let head =
                http::render_chunked_head(status, content_type, &self.extras(), self.keep_alive);
            self.commit(head);
        } else {
            self.buffered = Some(Vec::new());
        }
    }

    /// Streams one piece of the response body.
    pub fn stream_chunk(&mut self, payload: &[u8]) {
        if let Some(buf) = self.buffered.as_mut() {
            buf.extend_from_slice(payload);
            return;
        }
        self.commit(http::render_chunk(payload));
    }

    /// Terminates a streamed response cleanly.
    pub fn end_stream(&mut self) {
        if let Some(buf) = self.buffered.take() {
            let body = String::from_utf8(buf).unwrap_or_default();
            let bytes = http::render_full(
                self.status,
                "application/json",
                &body,
                &self.extras(),
                self.keep_alive,
            );
            self.commit(bytes);
            return;
        }
        self.commit(http::LAST_CHUNK.to_vec());
    }
}
