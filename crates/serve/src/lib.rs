//! # explainti-serve
//!
//! A dependency-free HTTP/1.1 inference server for ExplainTI, exposed
//! via `explainti serve`. One blocking accept thread plus one thread per
//! connection: each request is read, answered and written on its
//! connection's thread. The moving parts, each its own module:
//!
//! - [`conn`] — the accept loop (hard connection limit → typed 429 +
//!   `Retry-After`) and the per-connection thread: a capped read buffer,
//!   read deadlines (slow-loris → typed 408), keep-alive with
//!   pipelining, idle reaping and the shutdown drain; plus the response
//!   sink, which streams table responses as chunked transfer-encoding.
//! - [`http`] — an incremental buffer-based HTTP/1.1 parser and
//!   response renderer; no socket I/O of its own.
//! - [`cache`] — an LRU cache of full responses keyed by a hash of
//!   `(title, header, cells)`, so repeat predictions short-circuit the
//!   model *including* their explanations.
//! - [`server`] — the declarative route table, the handlers (an
//!   interpret request's misses run through one forward under one of
//!   `workers` permits, a counting semaphore, so at most `workers`
//!   forwards run at once; a model swap runs inline under the swap
//!   lock), and the server's lifecycle: start, and the graceful drain
//!   on shutdown.
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
pub mod http;
pub mod server;

pub use server::{start, ServeConfig, ServerHandle};
