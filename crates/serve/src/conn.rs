//! Per-connection state for the event-driven front-end.
//!
//! Each accepted socket gets a [`Conn`], owned by the event loop: a
//! read buffer the incremental parser pumps ([`Conn::on_readable`]), a
//! queue of parsed-but-not-yet-queued pipelined requests, and the shared
//! [`ConnIo`] outbound state that worker threads write responses into
//! from their side of the wall. The connection moves through three
//! logical states — *reading* (accumulating bytes), *in flight* (a
//! request is on the request queue or with a worker), *writing*
//! (response bytes draining to the socket) — and keep-alive loops it
//! back to *reading* instead of closing.
//!
//! [`ResponseSink`] is the worker-side handle: exactly one response per
//! request, either a fixed `Content-Length` body ([`ResponseSink::
//! send_json`]) or a chunked stream ([`ResponseSink::begin_stream`] /
//! [`ResponseSink::stream_chunk`] / [`ResponseSink::end_stream`]) for
//! table responses, one chunk per column. A worker only opens a stream
//! once every column is computed, so a stream never has to be cut short
//! by a failure. Every enqueue nudges the event loop through a [`Waker`].

use std::collections::{BTreeSet, VecDeque};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::os::unix::net::UnixStream;
use std::sync::Arc;

use explainti_sync::{classes, OrderedMutex};
use std::time::Instant;

use explainti_api::ApiError;

use crate::http;

/// Hard cap on a connection's unparsed read buffer: one maximal request
/// head + body plus pipelined slack. Beyond it the peer is flooding.
const MAX_CONN_BUF: usize = http::MAX_HEAD_BYTES + http::MAX_BODY_BYTES + 64 * 1024;

/// Scratch read size per `read(2)` call.
const READ_CHUNK: usize = 16 * 1024;

// ---- Waker ------------------------------------------------------------

/// Wakes the event loop from a worker thread: marks the connection
/// dirty and writes one byte into the loop's wake pipe.
#[derive(Clone)]
pub struct Waker {
    dirty: Arc<OrderedMutex<BTreeSet<u64>>>,
    pipe: Arc<UnixStream>,
}

impl Waker {
    /// A waker writing to `pipe`, sharing the loop's dirty set.
    pub fn new(dirty: Arc<OrderedMutex<BTreeSet<u64>>>, pipe: Arc<UnixStream>) -> Self {
        Self { dirty, pipe }
    }

    /// Marks `conn_id` as needing event-loop attention.
    pub fn wake(&self, conn_id: u64) {
        self.dirty.lock().insert(conn_id);
        // A full pipe already guarantees a pending wake-up; any other
        // failure means the loop is gone and the write is moot.
        let _ = (&*self.pipe).write(&[1u8]);
    }

    /// Drains and returns the dirty set (event-loop side).
    pub fn take_dirty(&self) -> Vec<u64> {
        let mut set = self.dirty.lock();
        let ids: Vec<u64> = set.iter().copied().collect();
        set.clear();
        ids
    }
}

// ---- Outbound state (shared with workers) -----------------------------

/// Outbound bytes and response bookkeeping, written by workers and
/// drained by the event loop.
struct OutState {
    /// Response byte runs, in send order.
    queue: VecDeque<Vec<u8>>,
    /// Bytes of `queue.front()` already written to the socket.
    front_written: usize,
    /// The in-flight request's response has been fully enqueued.
    response_done: bool,
    /// Close the connection once the queue drains.
    close_after: bool,
}

/// The half of a connection worker threads may touch.
pub struct ConnIo {
    out: OrderedMutex<OutState>,
}

impl Default for ConnIo {
    fn default() -> Self {
        Self {
            out: OrderedMutex::new(
                &classes::SERVE_CONN_OUT,
                OutState {
                    queue: VecDeque::new(),
                    front_written: 0,
                    response_done: false,
                    close_after: false,
                },
            ),
        }
    }
}

impl ConnIo {
    /// Appends response bytes to the outbound queue.
    pub fn enqueue(&self, bytes: Vec<u8>) {
        if bytes.is_empty() {
            return;
        }
        self.out.lock().queue.push_back(bytes);
    }

    /// Marks the current response complete; `close` additionally closes
    /// the connection once the bytes drain.
    pub fn finish_response(&self, close: bool) {
        let mut st = self.out.lock();
        st.response_done = true;
        st.close_after |= close;
    }

    /// Whether any bytes are waiting to be written.
    pub fn has_output(&self) -> bool {
        !self.out.lock().queue.is_empty()
    }
}

// ---- Worker-side response writer --------------------------------------

/// Builds exactly one response for one request and feeds it into the
/// connection's outbound queue, waking the event loop per enqueue.
pub struct ResponseSink {
    io: Arc<ConnIo>,
    waker: Waker,
    conn_id: u64,
    trace_id: String,
    keep_alive: bool,
    chunked_ok: bool,
    status: u16,
    streaming: bool,
    /// HTTP/1.0 fallback: chunks accumulate here and ship as one fixed
    /// body on [`ResponseSink::end_stream`].
    buffered: Option<Vec<u8>>,
    buffered_status: u16,
    generation: Option<u64>,
}

impl ResponseSink {
    /// A sink for one request on connection `conn_id`.
    pub fn new(
        io: Arc<ConnIo>,
        waker: Waker,
        conn_id: u64,
        trace_id: String,
        keep_alive: bool,
        chunked_ok: bool,
    ) -> Self {
        Self {
            io,
            waker,
            conn_id,
            trace_id,
            keep_alive,
            chunked_ok,
            status: 0,
            streaming: false,
            buffered: None,
            buffered_status: 0,
            generation: None,
        }
    }

    /// Stamps every subsequent response with `X-Model-Generation`.
    pub fn set_generation(&mut self, generation: u64) {
        self.generation = Some(generation);
    }

    /// The trace id every response from this sink carries.
    pub fn trace_id(&self) -> &str {
        &self.trace_id
    }

    /// The committed HTTP status (0 before any response).
    pub fn status(&self) -> u16 {
        self.status
    }

    fn extras(&self) -> http::Extras<'_> {
        http::Extras {
            trace_id: Some(&self.trace_id),
            generation: self.generation,
            ..Default::default()
        }
    }

    fn commit(&self, bytes: Vec<u8>, done: bool) {
        self.io.enqueue(bytes);
        if done {
            self.io.finish_response(!self.keep_alive);
        }
        self.waker.wake(self.conn_id);
    }

    /// Sends a complete JSON response.
    pub fn send_json(&mut self, status: u16, body: &str) {
        self.status = status;
        self.commit(
            http::render_full(status, "application/json", body, &self.extras(), self.keep_alive),
            true,
        );
    }

    /// Sends a complete plain-text response (Prometheus exposition).
    pub fn send_text(&mut self, status: u16, body: &str) {
        self.status = status;
        self.commit(
            http::render_full(
                status,
                "text/plain; version=0.0.4",
                body,
                &self.extras(),
                self.keep_alive,
            ),
            true,
        );
    }

    /// Sends a typed error response (`Retry-After` mirrored from the
    /// error, `Allow` attached for 405s).
    pub fn send_error(&mut self, err: &ApiError, allow: Option<&str>) {
        self.status = err.status();
        self.commit(http::render_error(err, &self.trace_id, self.keep_alive, allow), true);
    }

    /// Opens a streamed response: chunked on HTTP/1.1, buffered into a
    /// single fixed body for HTTP/1.0 clients.
    pub fn begin_stream(&mut self, status: u16, content_type: &str) {
        self.streaming = true;
        self.status = status;
        if self.chunked_ok {
            self.commit(
                http::render_chunked_head(status, content_type, &self.extras(), self.keep_alive),
                false,
            );
        } else {
            self.buffered = Some(Vec::new());
            self.buffered_status = status;
        }
    }

    /// Streams one piece of the response body.
    pub fn stream_chunk(&mut self, payload: &[u8]) {
        if let Some(buf) = self.buffered.as_mut() {
            buf.extend_from_slice(payload);
            return;
        }
        self.commit(http::render_chunk(payload), false);
    }

    /// Terminates a streamed response cleanly.
    pub fn end_stream(&mut self) {
        if let Some(buf) = self.buffered.take() {
            let body = String::from_utf8(buf).unwrap_or_default();
            self.commit(
                http::render_full(
                    self.buffered_status,
                    "application/json",
                    &body,
                    &self.extras(),
                    self.keep_alive,
                ),
                true,
            );
            return;
        }
        self.commit(http::LAST_CHUNK.to_vec(), true);
    }
}

// ---- Event-loop-side connection ---------------------------------------

/// What [`Conn::on_readable`] concluded.
pub enum ReadOutcome {
    /// Bytes (possibly zero) consumed; connection stays open.
    Ok,
    /// Peer closed its write side and nothing remains to process.
    Closed,
    /// The stream is unparseable; answer this and close.
    Error(ApiError),
}

/// How flushing the outbound queue went.
#[derive(PartialEq, Eq)]
pub enum FlushOutcome {
    /// Queue fully drained.
    Drained,
    /// Socket backpressure — arm `EPOLLOUT` and retry on writability.
    Blocked,
    /// The socket is dead; drop the connection.
    Closed,
}

/// One accepted connection, owned by the event loop.
pub struct Conn {
    /// The nonblocking socket.
    pub stream: TcpStream,
    /// Outbound state shared with workers.
    pub io: Arc<ConnIo>,
    /// Unparsed inbound bytes.
    buf: Vec<u8>,
    /// Parsed requests awaiting the queue (pipelining).
    pub pending: VecDeque<http::Request>,
    /// A request is currently queued or with a worker.
    pub in_flight: bool,
    /// When the current incomplete request's first byte arrived.
    pub partial_since: Option<Instant>,
    /// Last moment the connection did useful work.
    pub idle_since: Instant,
    /// Peer closed its write side (EOF on read).
    pub peer_closed: bool,
    /// `EPOLLOUT` currently armed.
    pub want_write: bool,
    /// Requests fully dispatched on this connection (keep-alive reuse
    /// = anything past the first).
    pub requests_dispatched: u64,
    /// The inbound stream went bad while a response was in flight:
    /// close as soon as that response drains (never interleave an
    /// error body into an in-progress response).
    pub poisoned: bool,
    /// When the connection was failed terminally ([`Conn::quiesce`]):
    /// exactly one error response goes out, inbound bytes are drained
    /// and discarded, and no further parsing or dispatch happens. The
    /// event loop force-closes the socket if the error response cannot
    /// drain within a grace period (peer not reading).
    pub failed_since: Option<Instant>,
}

impl Conn {
    /// Wraps an accepted, already-nonblocking stream.
    pub fn new(stream: TcpStream) -> Self {
        Self {
            stream,
            io: Arc::new(ConnIo::default()),
            buf: Vec::new(),
            pending: VecDeque::new(),
            in_flight: false,
            partial_since: None,
            idle_since: Instant::now(),
            peer_closed: false,
            want_write: false,
            requests_dispatched: 0,
            poisoned: false,
            failed_since: None,
        }
    }

    /// Terminally fails the connection: drops all inbound state so the
    /// deadline sweep cannot re-match it and the buffer cannot grow,
    /// and flips it into drain-and-discard reading. The caller decides
    /// what (single) response, if any, still goes out.
    pub fn quiesce(&mut self) {
        self.failed_since = Some(Instant::now());
        self.partial_since = None;
        self.buf.clear();
        self.pending.clear();
    }

    /// Reads everything the socket has, then pumps the parser: complete
    /// requests land in `pending` with their `parse_ns` stamped.
    pub fn on_readable(&mut self) -> ReadOutcome {
        let mut scratch = [0u8; READ_CHUNK];
        if self.failed_since.is_some() {
            // Terminal: keep level-triggered EPOLLIN quiet by draining
            // the socket, but never buffer, parse, or answer again.
            loop {
                match (&self.stream).read(&mut scratch) {
                    Ok(0) => {
                        self.peer_closed = true;
                        break;
                    }
                    Ok(_) => continue,
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        self.peer_closed = true;
                        break;
                    }
                }
            }
            return ReadOutcome::Ok;
        }
        loop {
            match (&self.stream).read(&mut scratch) {
                Ok(0) => {
                    self.peer_closed = true;
                    break;
                }
                Ok(n) => {
                    if self.buf.is_empty() && self.partial_since.is_none() {
                        self.partial_since = Some(Instant::now());
                    }
                    self.buf.extend_from_slice(scratch.get(..n).unwrap_or_default());
                    self.idle_since = Instant::now();
                    if self.buf.len() > MAX_CONN_BUF {
                        return ReadOutcome::Error(ApiError::new(
                            explainti_api::ErrorCode::PayloadTooLarge,
                            format!("connection buffer exceeds {MAX_CONN_BUF} bytes"),
                        ));
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.peer_closed = true;
                    break;
                }
            }
        }
        loop {
            match http::parse_request(&self.buf) {
                http::Parse::Complete { mut request, consumed } => {
                    let started = self.partial_since.take().unwrap_or_else(Instant::now);
                    request.parse_ns = Instant::now()
                        .saturating_duration_since(started)
                        .as_nanos()
                        .min(u64::MAX as u128) as u64;
                    self.buf.drain(..consumed);
                    if !self.buf.is_empty() {
                        // The next pipelined request is already arriving.
                        self.partial_since = Some(Instant::now());
                    }
                    self.pending.push_back(request);
                }
                http::Parse::Partial => break,
                http::Parse::Invalid(err) => return ReadOutcome::Error(err),
            }
        }
        if self.peer_closed
            && self.buf.is_empty()
            && self.pending.is_empty()
            && !self.in_flight
            && !self.io.has_output()
        {
            return ReadOutcome::Closed;
        }
        ReadOutcome::Ok
    }

    /// Whether a request is sitting half-received past `deadline_ok`.
    pub fn has_stalled_read(&self, started_before: Instant) -> bool {
        self.failed_since.is_none()
            && !self.in_flight
            && self.pending.is_empty()
            && self.partial_since.is_some_and(|t| t < started_before)
    }

    /// Whether the connection has no work in any direction.
    pub fn is_idle(&self) -> bool {
        !self.in_flight && self.pending.is_empty() && self.buf.is_empty() && !self.io.has_output()
    }

    /// Writes queued response bytes until drained or blocked. Returns
    /// whether the current response finished and whether to close.
    pub fn flush(&mut self) -> (FlushOutcome, bool, bool) {
        let mut st = self.io.out.lock();
        let outcome = loop {
            let Some(front) = st.queue.front() else { break FlushOutcome::Drained };
            let remaining = front.get(st.front_written..).unwrap_or_default();
            if remaining.is_empty() {
                st.queue.pop_front();
                st.front_written = 0;
                continue;
            }
            match (&self.stream).write(remaining) {
                Ok(0) => break FlushOutcome::Closed,
                Ok(n) => {
                    st.front_written += n;
                    self.idle_since = Instant::now();
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    break FlushOutcome::Blocked
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => break FlushOutcome::Closed,
            }
        };
        let response_done = st.response_done;
        if response_done {
            st.response_done = false;
        }
        let close_after = st.close_after && st.queue.is_empty();
        (outcome, response_done, close_after)
    }

    /// Directly enqueues a rendered response from the event loop (parse
    /// errors, 408s) and marks the connection to close after it drains.
    pub fn enqueue_direct_close(&self, bytes: Vec<u8>) {
        self.io.enqueue(bytes);
        self.io.finish_response(true);
    }
}
