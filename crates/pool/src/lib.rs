//! # explainti-pool
//!
//! The process-wide fan-out width and the two fan-outs it sizes, both on
//! `std::thread::scope` with the calling thread as one of the workers:
//!
//! * [`map_chunks`] splits a slice into `min(width, len)` contiguous
//!   chunks: the embedding-store refresh
//!   (`TransformerEncoder::embed_cls_batch`, during training; a loaded
//!   model reads its store from the snapshot) and `ExplainTi::evaluate`.
//! * [`fold_in_order`] runs a training mini-batch's per-sample forward
//!   and backward passes on `min(width, batch)` threads and adds their
//!   results in sample order, so the trained weights are the serial
//!   ones at every width.
//!
//! Serve forwards run on their request worker and matmuls on their
//! calling thread, so `--workers` is the serving path's only
//! parallelism.
//!
//! [`Threads`] resolves the width from `--threads` /
//! `EXPLAINTI_THREADS` / available parallelism, [`configure`] installs
//! it, and [`global`] reads it back.

#![warn(missing_docs)]

use explainti_sync::{classes, OrderedMutex};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Condvar;
use std::thread::{self, ScopedJoinHandle};

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

/// `items` as `min(width, len)` contiguous chunks of equal length (the
/// last may be shorter), the split [`map_chunks`] runs.
pub fn chunks<T>(items: &[T]) -> std::slice::Chunks<'_, T> {
    let n = global().threads().min(items.len()).max(1);
    items.chunks(items.len().div_ceil(n).max(1))
}

/// Runs `f` over the [`chunks`] of `items`, the first on the calling
/// thread and each other on a scoped thread, and concatenates the
/// outputs in input order.
///
/// Every spawned thread is joined before this returns. A panic in any
/// chunk re-raises on the caller with that chunk's own payload (the
/// caller's chunk first, then the spawned ones in order).
pub fn map_chunks<T: Sync, R: Send>(items: &[T], f: impl Fn(&[T]) -> Vec<R> + Sync) -> Vec<R> {
    let mut parts = chunks(items);
    let first = parts.next().unwrap_or_default();
    let f = &f;
    thread::scope(|s| {
        let rest: Vec<_> = parts.map(|chunk| s.spawn(move || f(chunk))).collect();
        let mine = catch_unwind(AssertUnwindSafe(|| f(first)));
        join_all(mine, rest).into_iter().flatten().collect()
    })
}

/// Runs `work(i)` for every `i` in `0..n` on `min(width, n)` threads,
/// the calling thread among them, and folds each result into `acc` in
/// index order.
///
/// Each thread claims the next index from a shared counter. A thread
/// that finishes item `i` waits until items `0..i` are folded, calls
/// `fold(acc, &item)`, and drops the item on its own thread after
/// releasing the lock, so at most `width` items are alive at once. The
/// fold order, and with it every floating-point sum the fold makes, is
/// the serial one at every width.
///
/// A panic in `work` or `fold` stops the waiting threads; once every
/// spawned thread is joined, the first payload (the caller's, then the
/// spawned threads' in order) re-raises on the caller.
pub fn fold_in_order<T, A: Send>(
    n: usize,
    acc: &mut A,
    work: impl Fn(usize) -> T + Sync,
    fold: impl Fn(&mut A, &T) + Sync,
) {
    let claim = AtomicUsize::new(0);
    let turns = OrderedMutex::new(&classes::POOL_FOLD, Turns { next: 0, aborted: false, acc });
    let turn = Condvar::new();
    let run = || {
        let outcome =
            catch_unwind(AssertUnwindSafe(|| fold_items(n, &claim, &turns, &turn, &work, &fold)));
        if outcome.is_err() {
            turns.lock().aborted = true;
            turn.notify_all();
        }
        outcome
    };
    let run = &run;
    thread::scope(|s| {
        let spawned: Vec<_> = (1..global().threads().min(n))
            .map(|_| {
                s.spawn(move || {
                    if let Err(payload) = run() {
                        resume_unwind(payload);
                    }
                })
            })
            .collect();
        join_all(run(), spawned);
    });
}

/// The state [`fold_in_order`]'s threads share under the `pool.fold`
/// lock.
struct Turns<'a, A> {
    /// The index whose result is folded next.
    next: usize,
    /// Set when a thread panicked: the waiters give up.
    aborted: bool,
    acc: &'a mut A,
}

/// One [`fold_in_order`] thread: claim, work, wait for the turn, fold.
fn fold_items<T, A>(
    n: usize,
    claim: &AtomicUsize,
    turns: &OrderedMutex<Turns<'_, A>>,
    turn: &Condvar,
    work: &impl Fn(usize) -> T,
    fold: &impl Fn(&mut A, &T),
) {
    loop {
        // ORDERING: Relaxed — the counter only hands out distinct
        // indices; the inputs were published by the scope's spawn and
        // every result passes through the `turns` mutex.
        let i = claim.fetch_add(1, Ordering::Relaxed);
        if i >= n {
            return;
        }
        let item = work(i);
        let mut state = turns.lock();
        while state.next != i && !state.aborted {
            state = state.wait(turn);
        }
        if state.aborted {
            return;
        }
        fold(&mut *state.acc, &item);
        state.next += 1;
        drop(state);
        turn.notify_all();
    }
}

/// Joins every handle, then returns the caller's result followed by the
/// spawned threads' in spawn order, or re-raises the first panic payload
/// (the caller's, then the handles' in order).
fn join_all<R>(mine: thread::Result<R>, handles: Vec<ScopedJoinHandle<'_, R>>) -> Vec<R> {
    let mut panic = None;
    let mut out = Vec::with_capacity(handles.len() + 1);
    for result in std::iter::once(mine).chain(handles.into_iter().map(|h| h.join())) {
        match result {
            Ok(r) => out.push(r),
            Err(payload) => {
                panic.get_or_insert(payload);
            }
        }
    }
    if let Some(payload) = panic {
        resume_unwind(payload);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::{mpsc, Mutex, MutexGuard};

    /// Serialises the tests that set the process-wide width, and
    /// restores the resolved width when dropped.
    struct Width(#[allow(dead_code)] MutexGuard<'static, ()>);

    impl Width {
        fn set(threads: usize) -> Self {
            static LOCK: Mutex<()> = Mutex::new(());
            let guard = LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
            configure(threads);
            Self(guard)
        }
    }

    impl Drop for Width {
        fn drop(&mut self) {
            configure(Threads::resolve(None).threads());
        }
    }

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
        let _width = Width::set(3);
        assert_eq!(global().threads(), 3);
        configure(0);
        assert_eq!(global().threads(), 1, "zero clamps to one");
    }

    #[test]
    fn map_chunks_keeps_input_order_at_every_width() {
        let items: Vec<usize> = (0..10).collect();
        let doubled: Vec<usize> = items.iter().map(|x| 2 * x).collect();
        for threads in [1, 2, 3, 4, 16] {
            let _width = Width::set(threads);
            assert_eq!(chunks(&items).len(), threads.min(items.len()), "width {threads}");
            let out = map_chunks(&items, |chunk| chunk.iter().map(|x| 2 * x).collect());
            assert_eq!(out, doubled, "width {threads}");
        }
        let _width = Width::set(4);
        assert!(map_chunks(&[] as &[usize], |chunk| chunk.to_vec()).is_empty());
    }

    /// Item 1 finishes before item 0 (item 0's work waits for it), yet the
    /// fold sees 0 first; at most `width` items are alive at once.
    #[test]
    fn fold_in_order_folds_in_index_order_at_every_width() {
        for threads in [2, 3, 4] {
            let _width = Width::set(threads);
            let (tx, rx) = mpsc::channel::<()>();
            let (tx, rx) = (Mutex::new(tx), Mutex::new(rx));
            let (live, peak) = (AtomicUsize::new(0), AtomicUsize::new(0));
            struct Item<'a>(usize, &'a AtomicUsize);
            impl Drop for Item<'_> {
                fn drop(&mut self) {
                    self.1.fetch_sub(1, Ordering::SeqCst);
                }
            }
            let mut order = Vec::new();
            fold_in_order(
                12,
                &mut order,
                |i| {
                    match i {
                        0 => rx.lock().unwrap().recv().expect("item 1 signals"),
                        1 => tx.lock().unwrap().send(()).expect("item 0 waits"),
                        _ => {}
                    }
                    peak.fetch_max(live.fetch_add(1, Ordering::SeqCst) + 1, Ordering::SeqCst);
                    Item(i, &live)
                },
                |order, item| order.push(item.0),
            );
            assert_eq!(order, (0..12).collect::<Vec<_>>(), "width {threads}");
            assert!(peak.load(Ordering::SeqCst) <= threads, "width {threads}");
            assert_eq!(live.load(Ordering::SeqCst), 0, "every item dropped");
        }
    }

    #[test]
    fn fold_in_order_reraises_a_panic_without_hanging() {
        let _width = Width::set(2);
        let (tx, rx) = mpsc::channel();
        thread::spawn(move || {
            let caught = catch_unwind(|| {
                fold_in_order(
                    8,
                    &mut 0usize,
                    |i| {
                        assert!(i != 3, "item {i} failed");
                        i
                    },
                    |sum, &i| *sum += i,
                )
            });
            let payload = caught.err().and_then(|p| p.downcast_ref::<String>().cloned());
            let _ = tx.send(payload);
        });
        let payload = rx
            .recv_timeout(std::time::Duration::from_secs(60))
            .expect("fold_in_order hung after a panic");
        assert_eq!(payload.as_deref(), Some("item 3 failed"));
    }
}
