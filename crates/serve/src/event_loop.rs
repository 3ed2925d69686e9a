//! Dependency-free epoll event loop for the serving front-end.
//!
//! One thread owns every socket: the nonblocking listener, a wake pipe
//! worker threads poke after enqueueing response bytes, and all
//! accepted connections ([`crate::conn::Conn`]). Each complete request
//! goes onto the one request queue the workers drain, at most one per
//! connection at a time so pipelined responses stay in order; the loop
//! never runs a handler itself. Level-triggered epoll with a bounded
//! wait doubles as the deadline sweep tick, enforcing per-connection
//! read deadlines (slow-loris → typed 408) and the hard connection
//! limit (typed 429 + `Retry-After`) without any extra timers.
//!
//! The epoll bindings in [`sys`] are raw syscalls via inline assembly —
//! the workspace vendors no libc, and `std` exposes no epoll — limited
//! to `x86_64`/`aarch64` Linux. Other Unix targets compile but
//! [`sys::Epoll::new`] reports `Unsupported` at startup.

use std::collections::HashMap;
use std::io::Read;
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use explainti_api::ApiError;

use crate::conn::{Conn, FlushOutcome, ReadOutcome, Waker};
use crate::http;
use crate::server::{self, Job, Shared};

/// Raw epoll interface. Syscall numbers and flag values are part of the
/// Linux userspace ABI and are stable by kernel policy.
pub mod sys {
    use std::io;
    use std::os::fd::RawFd;

    /// Readable.
    pub const EPOLLIN: u32 = 0x001;
    /// Writable.
    pub const EPOLLOUT: u32 = 0x004;
    /// Error condition on the fd.
    pub const EPOLLERR: u32 = 0x008;
    /// Hang-up (both halves closed).
    pub const EPOLLHUP: u32 = 0x010;

    const EPOLL_CTL_ADD: i32 = 1;
    const EPOLL_CTL_DEL: i32 = 2;
    const EPOLL_CTL_MOD: i32 = 3;
    const EPOLL_CLOEXEC: usize = 0o2000000;

    /// Mirrors `struct epoll_event`. The kernel ABI packs it on x86_64
    /// (12 bytes) but uses natural alignment elsewhere.
    #[repr(C)]
    #[cfg_attr(target_arch = "x86_64", repr(packed))]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        /// `EPOLL*` readiness bits.
        pub events: u32,
        /// The caller's token (`epoll_data`).
        pub data: u64,
    }

    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    mod raw {
        pub const SYS_CLOSE: usize = 3;
        pub const SYS_EPOLL_CTL: usize = 233;
        pub const SYS_EPOLL_PWAIT: usize = 281;
        pub const SYS_EPOLL_CREATE1: usize = 291;

        /// Six-argument Linux syscall.
        ///
        /// # Safety
        /// The caller must pass a valid syscall number with arguments
        /// matching that syscall's contract (pointers live and sized).
        pub unsafe fn syscall6(
            n: usize,
            a1: usize,
            a2: usize,
            a3: usize,
            a4: usize,
            a5: usize,
            a6: usize,
        ) -> isize {
            let ret: isize;
            // SAFETY: the x86_64 syscall ABI takes the number in rax and
            // arguments in rdi/rsi/rdx/r10/r8/r9; the kernel clobbers
            // rcx and r11, which are declared as outputs.
            unsafe {
                core::arch::asm!(
                    "syscall",
                    inlateout("rax") n => ret,
                    in("rdi") a1,
                    in("rsi") a2,
                    in("rdx") a3,
                    in("r10") a4,
                    in("r8") a5,
                    in("r9") a6,
                    lateout("rcx") _,
                    lateout("r11") _,
                    options(nostack),
                );
            }
            ret
        }
    }

    #[cfg(all(target_os = "linux", target_arch = "aarch64"))]
    mod raw {
        pub const SYS_EPOLL_CREATE1: usize = 20;
        pub const SYS_EPOLL_CTL: usize = 21;
        pub const SYS_EPOLL_PWAIT: usize = 22;
        pub const SYS_CLOSE: usize = 57;

        /// Six-argument Linux syscall.
        ///
        /// # Safety
        /// The caller must pass a valid syscall number with arguments
        /// matching that syscall's contract (pointers live and sized).
        pub unsafe fn syscall6(
            n: usize,
            a1: usize,
            a2: usize,
            a3: usize,
            a4: usize,
            a5: usize,
            a6: usize,
        ) -> isize {
            let ret: isize;
            // SAFETY: the aarch64 syscall ABI takes the number in x8 and
            // arguments in x0-x5; the result returns in x0.
            unsafe {
                core::arch::asm!(
                    "svc #0",
                    in("x8") n,
                    inlateout("x0") a1 => ret,
                    in("x1") a2,
                    in("x2") a3,
                    in("x3") a4,
                    in("x4") a5,
                    in("x5") a6,
                    options(nostack),
                );
            }
            ret
        }
    }

    #[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
    fn check(ret: isize) -> io::Result<usize> {
        if ret < 0 {
            Err(io::Error::from_raw_os_error(-ret as i32))
        } else {
            Ok(ret as usize)
        }
    }

    /// An epoll instance (closed on drop).
    pub struct Epoll {
        fd: RawFd,
    }

    #[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
    impl Epoll {
        /// Creates a close-on-exec epoll instance.
        pub fn new() -> io::Result<Self> {
            let flags = EPOLL_CLOEXEC;
            // SAFETY: epoll_create1 takes a flags word and no pointers.
            let ret = unsafe { raw::syscall6(raw::SYS_EPOLL_CREATE1, flags, 0, 0, 0, 0, 0) };
            check(ret).map(|fd| Self { fd: fd as RawFd })
        }

        fn ctl(&self, op: i32, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
            let ev = EpollEvent { events, data: token };
            // SAFETY: `ev` is a live, correctly laid out epoll_event for
            // the duration of the call; DEL ignores the pointer.
            let ret = unsafe {
                raw::syscall6(
                    raw::SYS_EPOLL_CTL,
                    self.fd as usize,
                    op as usize,
                    fd as usize,
                    core::ptr::addr_of!(ev) as usize,
                    0,
                    0,
                )
            };
            check(ret).map(|_| ())
        }

        /// Registers `fd` for readability (plus writability if asked).
        pub fn add(&self, fd: RawFd, token: u64, want_write: bool) -> io::Result<()> {
            let mut events = EPOLLIN;
            if want_write {
                events |= EPOLLOUT;
            }
            self.ctl(EPOLL_CTL_ADD, fd, events, token)
        }

        /// Updates the interest set for an already registered `fd`.
        pub fn modify(&self, fd: RawFd, token: u64, want_write: bool) -> io::Result<()> {
            let mut events = EPOLLIN;
            if want_write {
                events |= EPOLLOUT;
            }
            self.ctl(EPOLL_CTL_MOD, fd, events, token)
        }

        /// Deregisters `fd`.
        pub fn del(&self, fd: RawFd) -> io::Result<()> {
            self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
        }

        /// Waits up to `timeout_ms` for events, filling `events`.
        pub fn wait(&self, events: &mut [EpollEvent], timeout_ms: i32) -> io::Result<usize> {
            if events.is_empty() {
                return Ok(0);
            }
            loop {
                // SAFETY: the events pointer covers `events.len()`
                // writable epoll_event slots for the duration of the
                // call; a null sigmask makes epoll_pwait behave as
                // epoll_wait (sigsetsize is then ignored, 8 passed for
                // form).
                let ret = unsafe {
                    raw::syscall6(
                        raw::SYS_EPOLL_PWAIT,
                        self.fd as usize,
                        events.as_mut_ptr() as usize,
                        events.len(),
                        timeout_ms as usize,
                        0,
                        8,
                    )
                };
                match check(ret) {
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    other => return other,
                }
            }
        }
    }

    #[cfg(not(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64"))))]
    impl Epoll {
        /// Unsupported target: the server reports this at startup.
        pub fn new() -> io::Result<Self> {
            Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "the event loop requires epoll (Linux x86_64/aarch64)",
            ))
        }

        pub fn add(&self, _fd: RawFd, _token: u64, _want_write: bool) -> io::Result<()> {
            Err(io::ErrorKind::Unsupported.into())
        }

        pub fn modify(&self, _fd: RawFd, _token: u64, _want_write: bool) -> io::Result<()> {
            Err(io::ErrorKind::Unsupported.into())
        }

        pub fn del(&self, _fd: RawFd) -> io::Result<()> {
            Err(io::ErrorKind::Unsupported.into())
        }

        pub fn wait(&self, _events: &mut [EpollEvent], _timeout_ms: i32) -> io::Result<usize> {
            Err(io::ErrorKind::Unsupported.into())
        }
    }

    impl Drop for Epoll {
        fn drop(&mut self) {
            #[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
            {
                // SAFETY: `self.fd` is an epoll fd this struct owns and
                // has not closed before.
                unsafe { raw::syscall6(raw::SYS_CLOSE, self.fd as usize, 0, 0, 0, 0, 0) };
            }
        }
    }
}

/// Token reserved for the listener socket.
const TOKEN_LISTENER: u64 = u64::MAX;
/// Token reserved for the wake pipe.
const TOKEN_WAKER: u64 = u64::MAX - 1;
/// Epoll wait bound; also the deadline-sweep tick.
const TICK_MS: i32 = 50;
/// How long a drain waits for in-flight connections before force-close.
const DRAIN_GRACE: Duration = Duration::from_secs(5);
/// How long a terminally failed connection may sit with its error
/// response undrained (peer not reading) before force-close.
const FAIL_FLUSH_GRACE: Duration = Duration::from_secs(5);
/// Event buffer per wait call.
const EVENT_BATCH: usize = 256;

/// Tunables the server hands the loop (mirrors `ServeConfig`).
pub struct LoopCfg {
    /// Hard cap on concurrently open connections (typed 429 beyond).
    pub max_conns: usize,
    /// Incomplete-request deadline (typed 408 beyond).
    pub read_timeout: Duration,
    /// Idle keep-alive connections older than this are closed.
    pub idle_timeout: Duration,
}

struct EventLoop {
    ep: sys::Epoll,
    listener: Option<TcpListener>,
    waker_rx: UnixStream,
    waker: Waker,
    conns: HashMap<u64, Conn>,
    next_id: u64,
    shared: Arc<Shared>,
    cfg: LoopCfg,
    drain_deadline: Option<Instant>,
}

/// Builds the epoll set (listener + wake pipe) up front so `start()`
/// can fail fast on unsupported targets, then returns the running
/// loop's entry point and the waker workers use.
pub(crate) fn prepare(
    listener: TcpListener,
    shared: Arc<Shared>,
    cfg: LoopCfg,
) -> std::io::Result<(impl FnOnce() + Send + 'static, Waker)> {
    listener.set_nonblocking(true)?;
    let (waker_tx, waker_rx) = UnixStream::pair()?;
    waker_rx.set_nonblocking(true)?;
    // The sender half must be nonblocking too: a full pipe has to fail
    // the worker's wake write (a pending wake-up already exists), not
    // park the worker thread on a blocking socket.
    waker_tx.set_nonblocking(true)?;
    let waker = Waker::new(
        Arc::new(explainti_sync::OrderedMutex::new(
            &explainti_sync::classes::SERVE_WAKER_DIRTY,
            Default::default(),
        )),
        Arc::new(waker_tx),
    );
    let ep = sys::Epoll::new()?;
    ep.add(listener.as_raw_fd(), TOKEN_LISTENER, false)?;
    ep.add(waker_rx.as_raw_fd(), TOKEN_WAKER, false)?;
    let mut el = EventLoop {
        ep,
        listener: Some(listener),
        waker_rx,
        waker: waker.clone(),
        conns: HashMap::new(),
        next_id: 0,
        shared,
        cfg,
        drain_deadline: None,
    };
    Ok((move || el.run(), waker))
}

impl EventLoop {
    fn run(&mut self) {
        let mut events = vec![sys::EpollEvent { events: 0, data: 0 }; EVENT_BATCH];
        loop {
            if self.shared.shutdown.load(Ordering::SeqCst) {
                self.begin_drain();
                // Reap connections as they go idle so join() returns as
                // soon as in-flight work finishes, not at the grace bound.
                let idle: Vec<u64> =
                    self.conns.iter().filter(|(_, c)| c.is_idle()).map(|(id, _)| *id).collect();
                for id in idle {
                    self.remove_conn(id);
                }
                let deadline_passed = self.drain_deadline.is_some_and(|d| Instant::now() >= d);
                if self.conns.is_empty() || deadline_passed {
                    break;
                }
            }
            let n = match self.ep.wait(&mut events, TICK_MS) {
                Ok(n) => n,
                Err(_) => break,
            };
            let fired: Vec<(u64, u32)> = events
                .iter()
                .take(n)
                .map(|ev| {
                    // Copy out of the (packed on x86_64) struct before use.
                    let data = ev.data;
                    let flags = ev.events;
                    (data, flags)
                })
                .collect();
            for (token, flags) in fired {
                match token {
                    TOKEN_LISTENER => self.accept_ready(),
                    TOKEN_WAKER => self.drain_waker_pipe(),
                    id => self.conn_event(id, flags),
                }
            }
            for id in self.waker.take_dirty() {
                self.advance(id);
            }
            self.sweep_deadlines();
        }
        // Teardown: everything (listener, epoll fd, sockets) drops here.
        self.conns.clear();
    }

    /// First shutdown sighting: stop accepting and set the grace bound.
    fn begin_drain(&mut self) {
        if self.drain_deadline.is_some() {
            return;
        }
        self.drain_deadline = Some(Instant::now() + DRAIN_GRACE);
        if let Some(listener) = self.listener.take() {
            let _ = self.ep.del(listener.as_raw_fd());
            // Dropping the listener closes the port so new connects are
            // refused during the drain.
        }
        let idle: Vec<u64> =
            self.conns.iter().filter(|(_, c)| c.is_idle()).map(|(id, _)| *id).collect();
        for id in idle {
            self.remove_conn(id);
        }
    }

    fn accept_ready(&mut self) {
        loop {
            let Some(listener) = self.listener.as_ref() else { return };
            match listener.accept() {
                Ok((stream, _addr)) => self.admit(stream),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    explainti_obs::counter!("serve.accept.errors", 1);
                    return;
                }
            }
        }
    }

    fn admit(&mut self, stream: TcpStream) {
        explainti_obs::counter!("serve.conns.accepted", 1);
        let over_limit = self.conns.len() >= self.cfg.max_conns;
        if over_limit || explainti_faults::triggered("serve.conn.accept") {
            explainti_obs::counter!("serve.conns.rejected", 1);
            self.reject(stream);
            return;
        }
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        let _ = stream.set_nodelay(true);
        let id = self.next_id;
        self.next_id += 1;
        if self.ep.add(stream.as_raw_fd(), id, false).is_err() {
            return;
        }
        self.conns.insert(id, Conn::new(stream));
        explainti_obs::set_gauge("serve.conns.active", self.conns.len() as f64);
    }

    /// Best-effort typed 429 on a connection we will not keep: the
    /// socket is still blocking, but the response is one small write.
    fn reject(&mut self, stream: TcpStream) {
        let _ = stream.set_nonblocking(true);
        let retry_after_s = 1;
        let err = ApiError::too_many_connections(
            format!("connection limit ({}) reached", self.cfg.max_conns),
            retry_after_s,
        );
        let trace_id = explainti_obs::next_trace_id();
        let tid = trace_id.to_string();
        let bytes = http::render_error(&err, &tid, false, None);
        let mut remaining: &[u8] = &bytes;
        // One pass over the buffer; backpressure on a brand-new socket
        // means the client is not reading, so give up rather than park.
        while !remaining.is_empty() {
            match std::io::Write::write(&mut (&stream), remaining) {
                Ok(0) => break,
                Ok(n) => remaining = remaining.get(n..).unwrap_or_default(),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
        let _ = stream.shutdown(std::net::Shutdown::Both);
    }

    fn drain_waker_pipe(&mut self) {
        let mut sink = [0u8; 256];
        loop {
            match (&self.waker_rx).read(&mut sink) {
                Ok(0) => return,
                Ok(_) => continue,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return,
            }
        }
    }

    fn conn_event(&mut self, id: u64, flags: u32) {
        if flags & (sys::EPOLLERR | sys::EPOLLHUP) != 0 {
            // Let a final read observe the error/EOF; advance() reaps.
            if let Some(conn) = self.conns.get_mut(&id) {
                conn.peer_closed = true;
            }
            self.remove_conn(id);
            return;
        }
        if flags & sys::EPOLLIN != 0 {
            self.readable(id);
        }
        if flags & sys::EPOLLOUT != 0 {
            self.advance(id);
        }
    }

    fn readable(&mut self, id: u64) {
        let Some(conn) = self.conns.get_mut(&id) else { return };
        match conn.on_readable() {
            ReadOutcome::Ok => {
                self.dispatch_next(id);
                self.advance(id);
            }
            ReadOutcome::Closed => self.remove_conn(id),
            ReadOutcome::Error(err) => self.fail_conn(id, err),
        }
    }

    /// Terminally fails a connection: quiesces it (no further parsing,
    /// buffering, or deadline re-matching), enqueues exactly one typed
    /// error response, and closes once it drains. Used for malformed
    /// streams and read-deadline (408) expiries.
    fn fail_conn(&mut self, id: u64, err: ApiError) {
        let Some(conn) = self.conns.get_mut(&id) else { return };
        if conn.failed_since.is_some() {
            // Already answered; the single error response is draining.
            return;
        }
        conn.quiesce();
        if conn.in_flight {
            // A response is mid-stream; never interleave an error body.
            conn.poisoned = true;
            return;
        }
        let trace_id = explainti_obs::next_trace_id();
        let tid = trace_id.to_string();
        let mut rtrace = explainti_obs::RequestTrace::new(trace_id);
        rtrace.set_endpoint("conn");
        rtrace.set_status(err.status());
        conn.enqueue_direct_close(http::render_error(&err, &tid, false, None));
        rtrace.finish();
        self.advance(id);
    }

    /// Hands the next pipelined request to the worker pool, keeping at
    /// most one in flight per connection so responses stay ordered.
    fn dispatch_next(&mut self, id: u64) {
        let Some(conn) = self.conns.get_mut(&id) else { return };
        if conn.in_flight {
            return;
        }
        let Some(mut req) = conn.pending.pop_front() else { return };
        if self.drain_deadline.is_some() {
            // Close after the response: the loop is draining.
            req.keep_alive = false;
        }
        if conn.requests_dispatched > 0 {
            explainti_obs::counter!("serve.keepalive.reused", 1);
        }
        conn.requests_dispatched += 1;
        conn.in_flight = true;
        let job = Job::new(id, req, Arc::clone(&conn.io), self.waker.clone());
        if let Err(job) = self.shared.queue.try_push(job) {
            // Queue full: answer inline so ordering holds; the completed
            // response keeps dispatching any remaining pipelined
            // requests. No advance here: both callers (readable,
            // advance's finished-response path) flush right after this.
            let err = ApiError::new(explainti_api::ErrorCode::QueueFull, "request queue is full");
            server::finish(&self.shared, job, Err(err), false);
        }
    }

    /// Flushes outbound bytes, completes finished responses, re-arms
    /// `EPOLLOUT`, dispatches follow-on pipelined requests, and reaps
    /// the connection when it is done.
    fn advance(&mut self, id: u64) {
        let Some(conn) = self.conns.get_mut(&id) else { return };
        let (outcome, response_done, close_after) = conn.flush();
        if outcome == FlushOutcome::Closed {
            self.remove_conn(id);
            return;
        }
        if response_done {
            conn.in_flight = false;
            conn.idle_since = Instant::now();
            if conn.poisoned {
                self.remove_conn(id);
                return;
            }
        }
        let want_write = outcome == FlushOutcome::Blocked;
        if want_write != conn.want_write {
            conn.want_write = want_write;
            let _ = self.ep.modify(conn.stream.as_raw_fd(), id, want_write);
        }
        if close_after && !conn.in_flight {
            self.remove_conn(id);
            return;
        }
        if conn.peer_closed && conn.is_idle() {
            self.remove_conn(id);
            return;
        }
        if response_done {
            self.dispatch_next(id);
            // The follow-on response may already be partially writable.
            let has_output = self.conns.get(&id).is_some_and(|c| c.io.has_output());
            if has_output {
                self.advance(id);
            }
        }
    }

    /// Read-deadline (slow-loris) and idle-timeout sweep; runs every
    /// epoll tick, so deadlines resolve within ~[`TICK_MS`].
    fn sweep_deadlines(&mut self) {
        let now = Instant::now();
        let read_cutoff = now.checked_sub(self.cfg.read_timeout).unwrap_or(now);
        let idle_cutoff = now.checked_sub(self.cfg.idle_timeout).unwrap_or(now);
        let fail_cutoff = now.checked_sub(FAIL_FLUSH_GRACE).unwrap_or(now);
        let mut stalled: Vec<u64> = Vec::new();
        let mut idle: Vec<u64> = Vec::new();
        let mut expired: Vec<u64> = Vec::new();
        for (id, conn) in &self.conns {
            if let Some(failed_at) = conn.failed_since {
                // Terminal: the only question left is whether the peer
                // reads its error response within the grace window.
                if failed_at < fail_cutoff {
                    expired.push(*id);
                }
                continue;
            }
            let deadline_hit = conn.has_stalled_read(read_cutoff);
            let drilled = conn.partial_since.is_some()
                && !conn.in_flight
                && conn.pending.is_empty()
                && explainti_faults::triggered("serve.conn.stall");
            if deadline_hit || drilled {
                stalled.push(*id);
            } else if conn.is_idle() && conn.idle_since < idle_cutoff {
                idle.push(*id);
            }
        }
        for id in expired {
            self.remove_conn(id);
        }
        for id in stalled {
            explainti_obs::counter!("serve.conns.timeout", 1);
            let err = ApiError::request_timeout(
                format!("request not completed within {} ms", self.cfg.read_timeout.as_millis()),
                1,
            );
            self.fail_conn(id, err);
        }
        for id in idle {
            self.remove_conn(id);
        }
    }

    fn remove_conn(&mut self, id: u64) {
        if let Some(conn) = self.conns.remove(&id) {
            let _ = self.ep.del(conn.stream.as_raw_fd());
            let _ = conn.stream.shutdown(std::net::Shutdown::Both);
        }
        explainti_obs::set_gauge("serve.conns.active", self.conns.len() as f64);
    }
}
