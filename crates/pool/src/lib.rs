//! # explainti-pool
//!
//! The process-wide fan-out width. One code path splits work across
//! threads: the embedding-store refresh
//! (`TransformerEncoder::embed_cls_batch`), which runs its batch as
//! `min(width, len)` contiguous chunks on `std::thread::scope` at boot,
//! at every hot swap and in every training epoch. Serve forwards run on
//! their request worker and matmuls on their calling thread, so
//! `--workers` is the serving path's only parallelism.
//!
//! [`Threads`] resolves the width from `--threads` /
//! `EXPLAINTI_THREADS` / available parallelism, [`configure`] installs
//! it, and [`global`] reads it back.

#![warn(missing_docs)]

use std::sync::atomic::{AtomicUsize, Ordering};

/// The resolved fan-out width.
///
/// Precedence: an explicit value (a `--threads` flag), then the
/// `EXPLAINTI_THREADS` environment variable, then
/// [`std::thread::available_parallelism`]. Zero and unparseable values
/// are ignored at every level, so the result is always ≥ 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Threads(usize);

impl Threads {
    /// Resolves the thread count from `explicit` → env → hardware.
    pub fn resolve(explicit: Option<usize>) -> Self {
        let n = explicit
            .filter(|&n| n > 0)
            .or_else(|| {
                std::env::var("EXPLAINTI_THREADS")
                    .ok()
                    .and_then(|s| s.trim().parse().ok())
                    .filter(|&n: &usize| n > 0)
            })
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
        Threads(n)
    }

    /// The resolved width (always ≥ 1).
    pub fn threads(self) -> usize {
        self.0
    }
}

/// The configured width; 0 until [`configure`] or the first [`global`].
static WIDTH: AtomicUsize = AtomicUsize::new(0);

/// The process-wide width. Resolved on first use from
/// [`Threads::resolve`]`(None)`; replaceable via [`configure`].
pub fn global() -> Threads {
    // ORDERING: Relaxed — the width is a standalone setting; no other
    // memory is published with it.
    let width = WIDTH.load(Ordering::Relaxed);
    if width > 0 {
        return Threads(width);
    }
    let resolved = Threads::resolve(None).threads();
    // A `configure` racing this first read wins: only an unset width is
    // filled in. ORDERING: Relaxed, as above.
    match WIDTH.compare_exchange(0, resolved, Ordering::Relaxed, Ordering::Relaxed) {
        Ok(_) => {
            explainti_obs::set_gauge("pool.threads", resolved as f64);
            Threads(resolved)
        }
        Err(current) => Threads(current),
    }
}

/// Sets the process-wide width to `threads` (≥ 1).
pub fn configure(threads: usize) {
    let threads = threads.max(1);
    // ORDERING: Relaxed — see `global`.
    WIDTH.store(threads, Ordering::Relaxed);
    explainti_obs::set_gauge("pool.threads", threads as f64);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threads_resolution_precedence() {
        assert_eq!(Threads::resolve(Some(7)).threads(), 7);
        // Zero explicit values fall through rather than producing a
        // zero width.
        assert!(Threads::resolve(Some(0)).threads() >= 1);
        assert!(Threads::resolve(None).threads() >= 1);
    }

    #[test]
    fn configure_sets_the_global_width() {
        configure(3);
        assert_eq!(global().threads(), 3);
        configure(0);
        assert_eq!(global().threads(), 1, "zero clamps to one");
        configure(Threads::resolve(None).threads());
    }
}
