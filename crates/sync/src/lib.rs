//! # explainti-sync
//!
//! The workspace's ordered shadow-lock layer: every long-lived mutex or
//! rwlock in the serving stack is wrapped in an [`OrderedMutex`] /
//! [`OrderedRwLock`] tagged with a [`LockClass`] whose **rank** comes
//! from the committed `LOCKS.registry` next to this crate. Two things
//! fall out of that single registration:
//!
//! 1. **Static**: the analyzer's EA007 pass maps every acquisition site
//!    to its class and proves (over an intra-crate call graph) that
//!    classes are only ever acquired in strictly increasing rank order —
//!    a global partial order that makes deadlock by lock-order inversion
//!    impossible.
//! 2. **Dynamic**: when the verifier is armed (debug builds, or
//!    `EXPLAINTI_SHADOW_LOCKS=1` in release), each thread keeps a
//!    shadow stack of held classes and **panics at the acquisition
//!    site** of any rank inversion, naming both classes and both
//!    acquisition locations (`#[track_caller]`). The static pass cannot
//!    see across crate boundaries; the armed verifier can, so the two
//!    cover each other's blind spots.
//!
//! The guards are also **poison-recovering** (`lock().unwrap_or_else(|p|
//! p.into_inner())` internally): every critical section in this
//! workspace leaves its data consistent under panic by construction
//! (plain field updates), and the serving path must not panic on a
//! poisoned mutex (EA006). This replaces the idiom previously copy-pasted
//! across the serve and obs crates, giving EA007 one canonical
//! acquisition-site shape to match.
//!
//! Cost model: disarmed (release default), each acquisition adds one
//! relaxed atomic load over a bare `std::sync` lock. Armed, it adds a
//! thread-local vector push/pop and an O(held) rank scan — held stacks
//! are 1–2 deep in practice.

#![warn(missing_docs)]

use std::cell::RefCell;
use std::panic::Location;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::Duration;

// ---- Lock classes -----------------------------------------------------

/// A named lock class with a declared rank. Acquiring class B while
/// holding class A requires `rank(A) < rank(B)`; the total acquisition
/// order is therefore acyclic and deadlock by inversion is impossible.
///
/// Classes are declared as statics in [`classes`] and mirrored row-for-row
/// by `crates/sync/LOCKS.registry`, which the analyzer (EA007) and a unit
/// test here both reconcile against.
#[derive(Debug)]
pub struct LockClass {
    /// Dotted registry name, e.g. `serve.queue.batch`.
    pub name: &'static str,
    /// Position in the global acquisition order (strictly increasing).
    pub rank: u16,
}

impl LockClass {
    /// A class with the given registry name and rank.
    pub const fn new(name: &'static str, rank: u16) -> Self {
        Self { name, rank }
    }
}

/// Every lock class in the workspace, ranks mirroring `LOCKS.registry`.
///
/// Rank bands: serve front-end 20–40, core 45, pool 50, bench 70–74,
/// faults 80, obs 91–95 (obs is innermost: it is called from inside
/// nearly every other critical section, never the reverse).
pub mod classes {
    use super::LockClass;

    /// Connections handed from the accept loop to parked connection
    /// threads.
    pub static SERVE_CONN_PARKED: LockClass = LockClass::new("serve.conn.parked", 20);
    /// The serve forward-permit pool (`BatchQueue`).
    pub static SERVE_QUEUE_BATCH: LockClass = LockClass::new("serve.queue.batch", 30);
    /// Server-wide LRU response cache.
    pub static SERVE_CACHE: LockClass = LockClass::new("serve.cache", 40);
    /// Live model generation pointer (hot-swap `RwLock`).
    pub static CORE_GENERATION: LockClass = LockClass::new("core.generation", 45);
    /// The turn and accumulator of `explainti_pool::fold_in_order` (a
    /// training mini-batch's in-order gradient sum).
    pub static POOL_FOLD: LockClass = LockClass::new("pool.fold", 50);
    /// Load-generator latency samples.
    pub static BENCH_LOADGEN_LATENCIES: LockClass = LockClass::new("bench.loadgen.latencies", 70);
    /// Load-generator captured error traces.
    pub static BENCH_LOADGEN_ERRORS: LockClass = LockClass::new("bench.loadgen.errors", 71);
    /// Load-generator queue-depth curve samples (one lock, reached
    /// both as the owning binding and as the sampler's `out` parameter).
    pub static BENCH_LOADGEN_QUEUE_CURVE: LockClass =
        LockClass::new("bench.loadgen.queue_curve", 73);
    /// Swap-drill per-generation tallies.
    pub static BENCH_SWAP_TALLIES: LockClass = LockClass::new("bench.swap.tallies", 74);
    /// Failpoint site registry (observer runs under it).
    pub static FAULTS_REGISTRY: LockClass = LockClass::new("faults.registry", 80);
    /// Sliding SLO window slot ring.
    pub static OBS_SLO_WINDOW: LockClass = LockClass::new("obs.slo.window", 91);
    /// Metrics registry: counter map.
    pub static OBS_COUNTERS: LockClass = LockClass::new("obs.counters", 92);
    /// Metrics registry: gauge map.
    pub static OBS_GAUGES: LockClass = LockClass::new("obs.gauges", 93);
    /// Metrics registry: histogram map.
    pub static OBS_HISTOGRAMS: LockClass = LockClass::new("obs.histograms", 94);
    /// JSONL trace sink writer.
    pub static OBS_SINK: LockClass = LockClass::new("obs.sink", 95);
}

// ---- Verifier arming --------------------------------------------------

/// 0 = undecided, 1 = disarmed, 2 = armed.
static ARMED: AtomicU8 = AtomicU8::new(0);

/// Whether the runtime shadow-lock verifier is active. Defaults to on in
/// debug builds, off in release; `EXPLAINTI_SHADOW_LOCKS=1|0` overrides
/// either way (the tsan CI arm sets it on release test binaries).
#[inline]
pub fn armed() -> bool {
    // ORDERING: Relaxed — a boolean mode flag with no associated data;
    // threads may briefly disagree right after init, which only delays
    // (never corrupts) verification.
    match ARMED.load(Ordering::Relaxed) {
        1 => false,
        2 => true,
        _ => init_armed(),
    }
}

#[cold]
fn init_armed() -> bool {
    let on = match std::env::var("EXPLAINTI_SHADOW_LOCKS").as_deref() {
        Ok("1") | Ok("true") | Ok("on") => true,
        Ok("0") | Ok("false") | Ok("off") => false,
        _ => cfg!(debug_assertions),
    };
    // ORDERING: Relaxed — see `armed`; the flag guards no other memory.
    ARMED.store(if on { 2 } else { 1 }, Ordering::Relaxed);
    on
}

/// Forces the verifier on or off, overriding env and build profile.
/// Tests use this so inversion assertions hold under `--release`.
pub fn force_arm(on: bool) {
    // ORDERING: Relaxed — see `armed`.
    ARMED.store(if on { 2 } else { 1 }, Ordering::Relaxed);
}

// ---- Shadow stack -----------------------------------------------------

struct Held {
    class: &'static LockClass,
    at: &'static Location<'static>,
}

thread_local! {
    /// Lock classes this thread currently holds, in acquisition order.
    static HELD: RefCell<Vec<Held>> = const { RefCell::new(Vec::new()) };
}

/// Records an acquisition on the shadow stack, panicking on any rank
/// inversion. Returns whether an entry was pushed (so the guard knows
/// whether to pop — arming may flip mid-process in tests).
#[track_caller]
fn note_acquire(class: &'static LockClass) -> bool {
    if !armed() {
        return false;
    }
    let here = Location::caller();
    HELD.with(|held| {
        let mut held = held.borrow_mut();
        if let Some(worst) = held.iter().rev().find(|h| h.class.rank >= class.rank) {
            let kind = if std::ptr::eq(worst.class, class) {
                "reentrant acquisition of lock class"
            } else {
                "lock-order inversion: acquiring lock class"
            };
            panic!(
                "{kind} `{}` (rank {}) at {}:{}:{} while holding `{}` (rank {}) acquired at \
                 {}:{}:{} — LOCKS.registry requires strictly increasing ranks",
                class.name,
                class.rank,
                here.file(),
                here.line(),
                here.column(),
                worst.class.name,
                worst.class.rank,
                worst.at.file(),
                worst.at.line(),
                worst.at.column(),
            );
        }
        held.push(Held { class, at: here });
        true
    })
}

/// Pops the most recent shadow entry for `class` (guards may release out
/// of acquisition order; a missing entry — arming flipped — is ignored).
fn note_release(class: &'static LockClass) {
    HELD.with(|held| {
        let mut held = held.borrow_mut();
        if let Some(pos) = held.iter().rposition(|h| std::ptr::eq(h.class, class)) {
            held.remove(pos);
        }
    });
}

/// How many lock classes the current thread's shadow stack holds
/// (diagnostics and tests).
pub fn held_depth() -> usize {
    HELD.with(|held| held.borrow().len())
}

// ---- OrderedMutex -----------------------------------------------------

/// A [`Mutex`] tagged with a [`LockClass`]: acquisition order is checked
/// against the shadow stack when armed, and the guard recovers from
/// poisoning instead of panicking.
pub struct OrderedMutex<T> {
    class: &'static LockClass,
    inner: Mutex<T>,
}

impl<T> OrderedMutex<T> {
    /// A mutex of the given class around `value`.
    pub const fn new(class: &'static LockClass, value: T) -> Self {
        Self { class, inner: Mutex::new(value) }
    }

    /// This lock's class.
    pub fn class(&self) -> &'static LockClass {
        self.class
    }

    /// Acquires the lock, recovering from poison. Panics (when armed) if
    /// the calling thread already holds a class of equal or higher rank.
    #[track_caller]
    pub fn lock(&self) -> OrderedMutexGuard<'_, T> {
        let tracked = note_acquire(self.class);
        let guard = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        OrderedMutexGuard { guard: Some(guard), class: self.class, tracked }
    }

    /// Consumes the mutex, returning its value (poison-recovering).
    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(|p| p.into_inner())
    }
}

/// Guard for [`OrderedMutex::lock`]; pops its shadow entry on drop.
pub struct OrderedMutexGuard<'a, T> {
    /// `None` only transiently inside [`Self::wait`] / [`Self::wait_timeout`].
    guard: Option<MutexGuard<'a, T>>,
    class: &'static LockClass,
    tracked: bool,
}

impl<'a, T> OrderedMutexGuard<'a, T> {
    /// Blocks on `cv` (releasing the mutex) until notified, then
    /// reacquires and returns the guard. The shadow entry persists
    /// across the wait: the class is conceptually still held by this
    /// thread's critical section, and the thread is blocked anyway.
    pub fn wait(mut self, cv: &Condvar) -> Self {
        let inner = self.guard.take().expect("guard present outside wait");
        let inner = cv.wait(inner).unwrap_or_else(|p| p.into_inner());
        self.guard = Some(inner);
        self
    }

    /// Like [`Self::wait`] with a timeout; the flag reports expiry.
    pub fn wait_timeout(mut self, cv: &Condvar, dur: Duration) -> (Self, bool) {
        let inner = self.guard.take().expect("guard present outside wait");
        let (inner, res) = cv.wait_timeout(inner, dur).unwrap_or_else(|p| p.into_inner());
        self.guard = Some(inner);
        (self, res.timed_out())
    }
}

impl<T> std::ops::Deref for OrderedMutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.guard.as_ref().expect("guard present outside wait")
    }
}

impl<T> std::ops::DerefMut for OrderedMutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.guard.as_mut().expect("guard present outside wait")
    }
}

impl<T> Drop for OrderedMutexGuard<'_, T> {
    fn drop(&mut self) {
        if self.tracked {
            note_release(self.class);
        }
    }
}

// ---- OrderedRwLock ----------------------------------------------------

/// An [`RwLock`] tagged with a [`LockClass`]; read and write acquisitions
/// both participate in the rank order (read-read reentrancy within one
/// thread is flagged too — it deadlocks once a writer queues between).
pub struct OrderedRwLock<T> {
    class: &'static LockClass,
    inner: RwLock<T>,
}

impl<T> OrderedRwLock<T> {
    /// An rwlock of the given class around `value`.
    pub const fn new(class: &'static LockClass, value: T) -> Self {
        Self { class, inner: RwLock::new(value) }
    }

    /// This lock's class.
    pub fn class(&self) -> &'static LockClass {
        self.class
    }

    /// Acquires a shared read guard (poison-recovering, rank-checked).
    #[track_caller]
    pub fn read(&self) -> OrderedReadGuard<'_, T> {
        let tracked = note_acquire(self.class);
        let guard = self.inner.read().unwrap_or_else(|p| p.into_inner());
        OrderedReadGuard { guard, class: self.class, tracked }
    }

    /// Acquires the exclusive write guard (poison-recovering, rank-checked).
    #[track_caller]
    pub fn write(&self) -> OrderedWriteGuard<'_, T> {
        let tracked = note_acquire(self.class);
        let guard = self.inner.write().unwrap_or_else(|p| p.into_inner());
        OrderedWriteGuard { guard, class: self.class, tracked }
    }
}

/// Shared guard for [`OrderedRwLock::read`].
pub struct OrderedReadGuard<'a, T> {
    guard: RwLockReadGuard<'a, T>,
    class: &'static LockClass,
    tracked: bool,
}

impl<T> std::ops::Deref for OrderedReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T> Drop for OrderedReadGuard<'_, T> {
    fn drop(&mut self) {
        if self.tracked {
            note_release(self.class);
        }
    }
}

/// Exclusive guard for [`OrderedRwLock::write`].
pub struct OrderedWriteGuard<'a, T> {
    guard: RwLockWriteGuard<'a, T>,
    class: &'static LockClass,
    tracked: bool,
}

impl<T> std::ops::Deref for OrderedWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T> std::ops::DerefMut for OrderedWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

impl<T> Drop for OrderedWriteGuard<'_, T> {
    fn drop(&mut self) {
        if self.tracked {
            note_release(self.class);
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // tests may panic freely
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    static LOW: LockClass = LockClass::new("test.low", 1);
    static HIGH: LockClass = LockClass::new("test.high", 2);

    /// Runs `f` on a fresh thread with the verifier force-armed, so the
    /// spawning test's shadow stack and arming state are untouched.
    fn armed_thread<R: Send + 'static>(f: impl FnOnce() -> R + Send + 'static) -> R {
        std::thread::spawn(move || {
            force_arm(true);
            f()
        })
        .join()
        .expect("armed thread")
    }

    #[test]
    fn increasing_rank_order_is_allowed() {
        armed_thread(|| {
            let a = OrderedMutex::new(&LOW, 1);
            let b = OrderedMutex::new(&HIGH, 2);
            let ga = a.lock();
            let gb = b.lock();
            assert_eq!(*ga + *gb, 3);
            assert_eq!(held_depth(), 2);
            drop(gb);
            drop(ga);
            assert_eq!(held_depth(), 0);
        });
    }

    #[test]
    fn inversion_panics_naming_both_sites() {
        let msg = armed_thread(|| {
            let a = OrderedMutex::new(&LOW, ());
            let b = OrderedMutex::new(&HIGH, ());
            let _gb = b.lock();
            let err = catch_unwind(AssertUnwindSafe(|| {
                let _ga = a.lock();
            }))
            .expect_err("inversion must panic");
            *err.downcast::<String>().expect("string payload")
        });
        assert!(msg.contains("lock-order inversion"), "{msg}");
        assert!(msg.contains("test.low") && msg.contains("test.high"), "{msg}");
        // Both acquisition sites are named (this file, twice).
        assert_eq!(msg.matches("lib.rs").count(), 2, "{msg}");
    }

    #[test]
    fn reentrant_same_class_panics() {
        let msg = armed_thread(|| {
            let a = OrderedMutex::new(&LOW, ());
            let other = OrderedMutex::new(&LOW, ());
            let _ga = a.lock();
            let err = catch_unwind(AssertUnwindSafe(|| {
                let _gb = other.lock();
            }))
            .expect_err("same-class nesting must panic");
            *err.downcast::<String>().expect("string payload")
        });
        assert!(msg.contains("reentrant acquisition"), "{msg}");
    }

    #[test]
    fn rwlock_participates_in_the_order() {
        armed_thread(|| {
            let rw = OrderedRwLock::new(&LOW, 7);
            assert_eq!(*rw.read(), 7);
            *rw.write() = 8;
            assert_eq!(*rw.read(), 8);
            let hi = OrderedMutex::new(&HIGH, ());
            let _r = rw.read();
            let err = catch_unwind(AssertUnwindSafe(|| {
                let _g = hi.lock();
                let _again = rw.read(); // rank 1 under rank 2 → inversion
            }));
            assert!(err.is_err());
        });
    }

    #[test]
    fn poisoned_lock_recovers() {
        let val = armed_thread(|| {
            let m = std::sync::Arc::new(OrderedMutex::new(&LOW, 5));
            let m2 = std::sync::Arc::clone(&m);
            let _ = std::thread::spawn(move || {
                force_arm(true);
                let _g = m2.lock();
                panic!("poison the mutex");
            })
            .join();
            let val = *m.lock();
            val
        });
        assert_eq!(val, 5);
    }

    #[test]
    fn condvar_wait_keeps_the_class_held() {
        armed_thread(|| {
            let m = std::sync::Arc::new(OrderedMutex::new(&LOW, false));
            let cv = std::sync::Arc::new(Condvar::new());
            let (m2, cv2) = (std::sync::Arc::clone(&m), std::sync::Arc::clone(&cv));
            let t = std::thread::spawn(move || {
                force_arm(true);
                let mut g = m2.lock();
                while !*g {
                    g = g.wait(&cv2);
                }
                assert_eq!(held_depth(), 1);
            });
            loop {
                let mut g = m.lock();
                *g = true;
                drop(g);
                cv.notify_all();
                if t.is_finished() {
                    break;
                }
                std::thread::yield_now();
            }
            t.join().expect("waiter");
            // Timed wait round-trips too.
            let g = m.lock();
            let (g, timed_out) = g.wait_timeout(&cv, Duration::from_millis(1));
            assert!(timed_out);
            assert!(*g);
        });
    }

    #[test]
    fn disarmed_skips_tracking() {
        std::thread::spawn(|| {
            force_arm(false);
            let a = OrderedMutex::new(&HIGH, ());
            let b = OrderedMutex::new(&LOW, ());
            let _ga = a.lock();
            let _gb = b.lock(); // inversion, but the verifier is off
            assert_eq!(held_depth(), 0);
        })
        .join()
        .expect("disarmed thread");
    }

    /// Every class declared in [`classes`] must appear in LOCKS.registry
    /// with the same rank, and vice versa — the runtime layer and the
    /// analyzer reason about the same order.
    #[test]
    fn classes_mirror_locks_registry() {
        let all: &[&LockClass] = &[
            &classes::SERVE_CONN_PARKED,
            &classes::SERVE_QUEUE_BATCH,
            &classes::SERVE_CACHE,
            &classes::CORE_GENERATION,
            &classes::POOL_FOLD,
            &classes::BENCH_LOADGEN_LATENCIES,
            &classes::BENCH_LOADGEN_ERRORS,
            &classes::BENCH_LOADGEN_QUEUE_CURVE,
            &classes::BENCH_SWAP_TALLIES,
            &classes::FAULTS_REGISTRY,
            &classes::OBS_SLO_WINDOW,
            &classes::OBS_COUNTERS,
            &classes::OBS_GAUGES,
            &classes::OBS_HISTOGRAMS,
            &classes::OBS_SINK,
        ];
        let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/LOCKS.registry"))
            .expect("LOCKS.registry next to crates/sync");
        let mut registry: std::collections::BTreeMap<&str, u16> = std::collections::BTreeMap::new();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut cols = line.split_whitespace();
            let name = cols.next().expect("class column");
            let rank: u16 = cols.next().expect("rank column").parse().expect("numeric rank");
            if let Some(prev) = registry.insert(name, rank) {
                assert_eq!(prev, rank, "class {name} declared with two ranks");
            }
        }
        for class in all {
            assert_eq!(
                registry.get(class.name).copied(),
                Some(class.rank),
                "class {} missing from LOCKS.registry or rank differs",
                class.name
            );
        }
        assert_eq!(registry.len(), all.len(), "LOCKS.registry declares classes with no static");
        // Ranks are unique, so "strictly increasing" is a total order.
        let mut ranks: Vec<u16> = all.iter().map(|c| c.rank).collect();
        ranks.sort_unstable();
        ranks.dedup();
        assert_eq!(ranks.len(), all.len(), "duplicate ranks in classes");
    }
}
