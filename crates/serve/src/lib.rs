//! # explainti-serve
//!
//! A dependency-free event-driven HTTP/1.1 inference server for
//! ExplainTI, exposed via `explainti serve`. The moving parts, each its
//! own module:
//!
//! - [`event_loop`] — a raw-syscall epoll loop owning every socket:
//!   nonblocking accept with a hard connection limit (typed 429 +
//!   `Retry-After`), per-connection read deadlines (slow-loris → typed
//!   408), keep-alive with pipelining, and write flushing.
//! - [`conn`] — per-connection state machines (reading → in flight →
//!   writing) plus the worker-side response sink, which streams table
//!   responses as chunked transfer-encoding.
//! - [`http`] — an incremental buffer-based HTTP/1.1 parser and
//!   response renderer; no socket I/O of its own.
//! - [`queue`] — the bounded MPMC request queue (one entry per
//!   request) the workers pop from; the backpressure point (full
//!   queue → HTTP 503).
//! - [`cache`] — an LRU cache of full responses keyed by a hash of
//!   `(title, header, cells)`, so repeat predictions short-circuit the
//!   model *including* their explanations.
//! - [`server`] — the declarative route table, the worker pool (each
//!   worker answers the request it popped, one forward over its cache
//!   misses), the admin thread that runs model swaps, and graceful
//!   shutdown (drain in-flight work, then stop).
//!
//! Endpoints: `POST /v1/interpret` (a whole table or a single column,
//! as [`explainti_api`] DTOs), `GET /v1/healthz`, `GET /v1/metrics`
//! (the `explainti-obs` registry snapshot), `GET /v1/config`, and the
//! admin routes `POST /v1/admin/swap`, `GET /v1/admin/store` (the live
//! generation, its stored-embedding count and whether a swap is in
//! flight) and `POST /v1/admin/shutdown`.

#![warn(missing_docs)]

pub mod cache;
pub mod conn;
pub mod event_loop;
pub mod http;
pub mod queue;
pub mod server;

pub use server::{start, ServeConfig, ServerHandle};
