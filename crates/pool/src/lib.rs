//! # explainti-pool
//!
//! A dependency-free, panic-safe scoped thread pool shared by every
//! compute kernel in the reproduction: the blocked matmul kernels in
//! `explainti-nn`, batch splitting in `explainti-encoder` /
//! `explainti-core`, and the inference server's worker threads.
//!
//! Design constraints, in order:
//!
//! 1. **Scoped**: [`ThreadPool::scope`] blocks until every task of the
//!    submitted job has finished, so closures may borrow stack data
//!    (tensor slices, packed panels) without `'static` bounds.
//! 2. **Panic-safe**: a panicking task never deadlocks the pool. The
//!    first panic payload is captured and re-raised on the submitting
//!    thread once the job drains, exactly like `std::thread::scope`.
//! 3. **Deadlock-free under nesting and sharing**: the submitting
//!    thread always participates in its own job, so a job makes
//!    progress even when every worker is busy (or the pool has zero
//!    workers). Nested `scope` calls from inside tasks are therefore
//!    safe, and many threads (e.g. the serve worker pool) can share one
//!    pool concurrently.
//! 4. **One knob**: [`Threads`] resolves the pool width once from
//!    `--threads` / `EXPLAINTI_THREADS` / available parallelism, and
//!    [`configure`] installs it globally; kernels call [`global`].
//!
//! Work distribution is chunked: a job is `tasks` indices claimed from
//! a shared atomic counter, so imbalanced tasks (ragged batch chunks,
//! trailing row blocks) self-balance across workers.

#![warn(missing_docs)]

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, OnceLock};

use explainti_sync::{classes, OrderedMutex, OrderedRwLock};
use std::thread::JoinHandle;

// ---- Threads config ---------------------------------------------------

/// The resolved kernel-parallelism width.
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
    pub fn get(self) -> usize {
        self.0
    }
}

// ---- Job --------------------------------------------------------------

/// Erased-lifetime pointer to the submitting scope's closure.
///
/// Sound because [`ThreadPool::scope`] blocks until `pending == 0`, so
/// the pointee outlives every dereference; `Sync` on the original
/// closure is enforced before erasure.
struct RawTask(*const (dyn Fn(usize) + Sync));

// SAFETY: the pointee is `Sync` (checked at the `scope` call site) and
// outlives the job (the scope blocks until the job fully drains).
unsafe impl Send for RawTask {}
// SAFETY: same contract as `Send` above — the erased closure is `Sync`,
// so concurrent `&RawTask` dereferences from multiple workers are sound.
unsafe impl Sync for RawTask {}

struct Job {
    task: RawTask,
    /// Next unclaimed task index.
    next: AtomicUsize,
    /// Total number of task indices in `0..total`.
    total: usize,
    /// Tasks claimed but not yet finished, plus tasks unclaimed.
    pending: AtomicUsize,
    done: OrderedMutex<bool>,
    done_cv: Condvar,
    /// First captured panic payload, re-raised by the scope owner.
    panic: OrderedMutex<Option<Box<dyn Any + Send + 'static>>>,
    /// Tasks executed by pool workers (vs the submitting thread) —
    /// the numerator of the effective-parallelism telemetry.
    by_workers: AtomicUsize,
    /// Span-capture context of the submitting thread, re-installed
    /// around every task so spans closed on pool workers attribute to
    /// the request that submitted the job (wide-event tracing).
    capture: Option<explainti_obs::SpanCapture>,
}

impl Job {
    fn exhausted(&self) -> bool {
        // ORDERING: Relaxed — `next` is only a work-stealing cursor; the
        // happens-before edge for task effects is `pending` (AcqRel)
        // plus the `done` mutex, never this load.
        self.next.load(Ordering::Relaxed) >= self.total
    }

    /// Claims and runs task indices until the job is exhausted.
    /// Returns how many tasks this thread executed.
    fn run(&self, worker: bool) -> usize {
        // Extend the submitter's span capture over this thread for the
        // duration of the job (a re-install on the submitting thread
        // itself is a harmless self-replacement).
        let _capture = self.capture.as_ref().map(|c| c.install());
        // SAFETY: see `RawTask` — the closure outlives the job.
        let f = unsafe { &*self.task.0 };
        let mut ran = 0;
        loop {
            // ORDERING: Relaxed — claiming an index needs atomicity only;
            // each claimed index is touched by exactly one thread, and
            // completion is published through `pending` below.
            let idx = self.next.fetch_add(1, Ordering::Relaxed);
            if idx >= self.total {
                break;
            }
            ran += 1;
            // Chaos site: injected task panic, recovered by the same
            // catch_unwind path a real task panic takes.
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| {
                if explainti_faults::triggered("pool.task.panic") {
                    panic!("injected failpoint panic: pool.task.panic");
                }
                f(idx)
            })) {
                let mut slot = self.panic.lock();
                if slot.is_none() {
                    *slot = Some(payload);
                }
            }
            // ORDERING: AcqRel — the last decrement must observe every
            // other task's writes (Acquire) before the scope owner reads
            // results, and publish this task's writes (Release) to it.
            if self.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
                *self.done.lock() = true;
                self.done_cv.notify_all();
            }
        }
        if worker && ran > 0 {
            // ORDERING: Relaxed — telemetry counter; read only after the
            // job drains (synchronised by `pending`/`done` above).
            self.by_workers.fetch_add(ran, Ordering::Relaxed);
        }
        ran
    }
}

// ---- Pool -------------------------------------------------------------

struct PoolState {
    jobs: VecDeque<Arc<Job>>,
    closed: bool,
}

struct PoolShared {
    state: OrderedMutex<PoolState>,
    work_cv: Condvar,
}

/// A fixed set of worker threads executing scoped, chunked jobs.
///
/// A pool of width `n` spawns `n - 1` workers; the thread calling
/// [`scope`](Self::scope) is the `n`-th executor. A width-1 pool runs
/// everything inline on the caller.
pub struct ThreadPool {
    shared: Arc<PoolShared>,
    workers: Vec<JoinHandle<()>>,
    threads: usize,
}

fn worker_loop(shared: &PoolShared) {
    loop {
        let job = {
            let mut st = shared.state.lock();
            loop {
                st.jobs.retain(|j| !j.exhausted());
                explainti_obs::set_gauge("pool.queue.depth", st.jobs.len() as f64);
                if let Some(job) = st.jobs.front() {
                    break Arc::clone(job);
                }
                if st.closed {
                    return;
                }
                st = st.wait(&shared.work_cv);
            }
        };
        job.run(true);
    }
}

impl ThreadPool {
    /// A pool of total width `threads` (≥ 1): `threads - 1` spawned
    /// workers plus the submitting thread.
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let shared = Arc::new(PoolShared {
            state: OrderedMutex::new(
                &classes::POOL_STATE,
                PoolState { jobs: VecDeque::new(), closed: false },
            ),
            work_cv: Condvar::new(),
        });
        let workers = (0..threads - 1)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("explainti-pool-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn pool worker")
            })
            .collect();
        Self { shared, workers, threads }
    }

    /// Total width: spawned workers plus the submitting thread.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `f(0)`, `f(1)`, …, `f(tasks - 1)` across the pool and the
    /// calling thread, returning once **all** tasks have finished.
    ///
    /// The closure may borrow non-`'static` data — the scope outlives
    /// every task. If any task panics, the first panic is re-raised
    /// here after the job drains (remaining tasks still run, matching
    /// `std::thread::scope` semantics).
    pub fn scope<F: Fn(usize) + Sync>(&self, tasks: usize, f: F) {
        if tasks == 0 {
            return;
        }
        if tasks == 1 || self.workers.is_empty() {
            // Inline fast path: no erasure, panics propagate natively
            // (including the injected `pool.task.panic` one, so the site
            // behaves the same at every pool width).
            for i in 0..tasks {
                if explainti_faults::triggered("pool.task.panic") {
                    panic!("injected failpoint panic: pool.task.panic");
                }
                f(i);
            }
            return;
        }
        let _scope_span = explainti_obs::span!("pool.scope");
        let local: &(dyn Fn(usize) + Sync) = &f;
        // SAFETY: erases the borrow lifetime; `scope` blocks below until
        // `pending == 0`, so the closure outlives every worker access.
        let erased: &'static (dyn Fn(usize) + Sync) = unsafe { std::mem::transmute(local) };
        let job = Arc::new(Job {
            task: RawTask(erased as *const _),
            next: AtomicUsize::new(0),
            total: tasks,
            pending: AtomicUsize::new(tasks),
            done: OrderedMutex::new(&classes::POOL_JOB_DONE, false),
            done_cv: Condvar::new(),
            panic: OrderedMutex::new(&classes::POOL_JOB_PANIC, None),
            by_workers: AtomicUsize::new(0),
            capture: explainti_obs::trace::current_capture(),
        });
        {
            let mut st = self.shared.state.lock();
            st.jobs.push_back(Arc::clone(&job));
            explainti_obs::set_gauge("pool.queue.depth", st.jobs.len() as f64);
        }
        self.shared.work_cv.notify_all();

        // The caller is an executor too: guarantees progress even when
        // every worker is busy (nested scopes, shared pools).
        let inline = job.run(false);

        let mut done = job.done.lock();
        while !*done {
            done = done.wait(&job.done_cv);
        }
        drop(done);

        explainti_obs::counter!("pool.jobs", 1);
        explainti_obs::counter!("pool.tasks.inline", inline as u64);
        // ORDERING: Relaxed — by_workers is telemetry; the job already
        // drained (done mutex), so the value is final.
        explainti_obs::counter!("pool.tasks.worker", job.by_workers.load(Ordering::Relaxed) as u64);
        let payload = job.panic.lock().take();
        if let Some(payload) = payload {
            resume_unwind(payload);
        }
    }

    /// Like [`scope`](Self::scope), but collects `f(i)` results in
    /// index order.
    pub fn map<R: Send, F: Fn(usize) -> R + Sync>(&self, tasks: usize, f: F) -> Vec<R> {
        let slots: Vec<OrderedMutex<Option<R>>> =
            (0..tasks).map(|_| OrderedMutex::new(&classes::POOL_MAP_SLOT, None)).collect();
        self.scope(tasks, |i| {
            let value = f(i);
            *slots[i].lock() = Some(value);
        });
        slots
            .into_iter()
            .map(|m| m.into_inner().expect("scope returned, so every task completed"))
            .collect()
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock();
            st.closed = true;
        }
        self.shared.work_cv.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

// ---- Global pool ------------------------------------------------------

static GLOBAL: OnceLock<OrderedRwLock<Arc<ThreadPool>>> = OnceLock::new();

fn global_slot() -> &'static OrderedRwLock<Arc<ThreadPool>> {
    GLOBAL.get_or_init(|| {
        let threads = Threads::resolve(None).get();
        explainti_obs::set_gauge("pool.threads", threads as f64);
        OrderedRwLock::new(&classes::POOL_GLOBAL, Arc::new(ThreadPool::new(threads)))
    })
}

/// The process-wide pool every kernel uses. Initialised on first use
/// from [`Threads::resolve`]`(None)`; replaceable via [`configure`].
pub fn global() -> Arc<ThreadPool> {
    Arc::clone(&global_slot().read())
}

/// Replaces the global pool with one of width `threads` (≥ 1).
///
/// In-flight jobs on the previous pool finish normally — callers hold
/// their own `Arc` and the old workers drain before dropping.
pub fn configure(threads: usize) {
    let threads = threads.max(1);
    let current = global();
    if current.threads() == threads {
        return;
    }
    explainti_obs::set_gauge("pool.threads", threads as f64);
    *global_slot().write() = Arc::new(ThreadPool::new(threads));
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn scope_runs_every_task_borrowing_stack_data() {
        let pool = ThreadPool::new(4);
        let data: Vec<u64> = (0..257).collect();
        let sum = AtomicU64::new(0);
        pool.scope(data.len(), |i| {
            sum.fetch_add(data[i], Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 257 * 256 / 2);
    }

    #[test]
    fn map_preserves_index_order() {
        let pool = ThreadPool::new(3);
        let out = pool.map(100, |i| i * i);
        assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn width_one_pool_runs_inline() {
        let pool = ThreadPool::new(1);
        assert!(pool.workers.is_empty());
        let out = pool.map(10, |i| i + 1);
        assert_eq!(out[9], 10);
    }

    #[test]
    fn scope_propagates_panics_instead_of_deadlocking() {
        let pool = ThreadPool::new(4);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.scope(64, |i| {
                if i == 17 {
                    panic!("task 17 exploded");
                }
            });
        }));
        let payload = result.expect_err("panic must propagate to the scope owner");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(msg, "task 17 exploded");
        // The pool must remain fully usable after a panicked job.
        let out = pool.map(32, |i| i);
        assert_eq!(out.len(), 32);
    }

    #[test]
    fn inline_path_propagates_panics_too() {
        let pool = ThreadPool::new(1);
        let result = catch_unwind(AssertUnwindSafe(|| pool.scope(3, |_| panic!("inline"))));
        assert!(result.is_err());
        pool.scope(3, |_| {});
    }

    #[test]
    fn nested_scopes_complete() {
        let pool = ThreadPool::new(3);
        let total = AtomicUsize::new(0);
        pool.scope(4, |_| {
            pool.scope(8, |_| {
                total.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(total.load(Ordering::Relaxed), 32);
    }

    #[test]
    fn concurrent_scopes_from_many_threads() {
        let pool = Arc::new(ThreadPool::new(4));
        let total = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..6)
            .map(|_| {
                let pool = Arc::clone(&pool);
                let total = Arc::clone(&total);
                std::thread::spawn(move || {
                    pool.scope(50, |_| {
                        total.fetch_add(1, Ordering::Relaxed);
                    });
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(total.load(Ordering::Relaxed), 300);
    }

    #[test]
    fn span_capture_extends_across_pool_workers() {
        explainti_obs::set_level(explainti_obs::Level::Info);
        let pool = ThreadPool::new(4);
        let cap = explainti_obs::SpanCapture::new();
        {
            let _g = cap.install();
            pool.scope(64, |_| {
                let _span = explainti_obs::span!("pooltest.task");
                std::hint::black_box(());
            });
        }
        // Every task's span lands in the submitter's capture, no matter
        // which thread ran it (the job re-installs the capture).
        assert!(
            cap.sums().contains_key("pooltest.task"),
            "pool-worker spans must feed the submitting capture"
        );
        // Spans closed after the scope no longer feed the capture.
        let before = cap.get("pooltest.task");
        {
            let _span = explainti_obs::span!("pooltest.task");
        }
        assert_eq!(cap.get("pooltest.task"), before);
    }

    #[test]
    fn threads_resolution_precedence() {
        assert_eq!(Threads::resolve(Some(7)).get(), 7);
        // Zero explicit values fall through rather than producing a
        // zero-width pool.
        assert!(Threads::resolve(Some(0)).get() >= 1);
        assert!(Threads::resolve(None).get() >= 1);
    }

    #[test]
    fn drop_joins_workers() {
        let pool = ThreadPool::new(4);
        pool.scope(16, |_| {});
        drop(pool); // must not hang
    }
}
