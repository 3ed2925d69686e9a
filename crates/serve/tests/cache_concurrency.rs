//! Property tests for `serve::cache::LruCache` under concurrent access.
//!
//! The serving layer shares one `Mutex<LruCache>` between every
//! connection handler and worker thread; these tests drive that exact
//! arrangement from N scoped threads and check the invariants the
//! server depends on:
//!
//! * **capacity**: `len() <= capacity()` at every observation point;
//! * **no lost updates**: a key that was inserted and never evicted is
//!   retrievable, and a hit always returns a value some thread actually
//!   inserted for that key;
//! * **counter consistency**: hits + misses == lookups performed, and
//!   inserts == evictions + live entries for disjoint key sets.

// Integration tests may panic freely; the crate's unwrap/expect
// lints target the request path (EA006), not test assertions.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use explainti_serve::cache::LruCache;
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// A deterministic per-thread xorshift64* stream (no external rand).
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.max(1))
    }
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }
}

/// Runs `f(0)`, …, `f(n - 1)` on `n` scoped threads; a thread's panic
/// fails the test.
fn on_threads(n: usize, f: impl Fn(usize) + Sync) {
    std::thread::scope(|s| {
        for t in 0..n {
            let f = &f;
            s.spawn(move || f(t));
        }
    });
}

const THREADS: usize = 8;
const OPS_PER_THREAD: usize = 4_000;
const CAPACITY: usize = 32;
const KEY_SPACE: u64 = 96; // 3x capacity → constant eviction pressure

#[test]
fn concurrent_mixed_workload_upholds_invariants() {
    let cache: Mutex<LruCache<u64, u64>> = Mutex::new(LruCache::new(CAPACITY));
    let hits = AtomicU64::new(0);
    let misses = AtomicU64::new(0);
    let inserts = AtomicU64::new(0);
    let evictions = AtomicU64::new(0);

    on_threads(THREADS, |t| {
        let mut rng = Rng::new(0xC0FFEE + t as u64);
        for _ in 0..OPS_PER_THREAD {
            let key = rng.next() % KEY_SPACE;
            let mut c = cache.lock().unwrap();
            if rng.next().is_multiple_of(3) {
                // Values encode their key, so a cross-wired entry (one
                // key returning another key's value) is detectable.
                if c.insert(key, key * 1_000 + t as u64).is_some() {
                    evictions.fetch_add(1, Ordering::Relaxed);
                }
                inserts.fetch_add(1, Ordering::Relaxed);
            } else {
                match c.get(&key) {
                    Some(&v) => {
                        assert_eq!(
                            v / 1_000,
                            key,
                            "hit on {key} returned a value inserted for {}",
                            v / 1_000
                        );
                        assert!((v % 1_000) < THREADS as u64, "value from unknown thread");
                        hits.fetch_add(1, Ordering::Relaxed);
                    }
                    None => {
                        misses.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
            // Capacity invariant at every observation point.
            assert!(c.len() <= c.capacity(), "len {} > cap {}", c.len(), c.capacity());
        }
    });

    let (h, m) = (hits.load(Ordering::Relaxed), misses.load(Ordering::Relaxed));
    let (ins, ev) = (inserts.load(Ordering::Relaxed), evictions.load(Ordering::Relaxed));
    let total = (THREADS * OPS_PER_THREAD) as u64;
    assert_eq!(h + m + ins, total, "every operation is counted exactly once");
    assert!(h > 0 && m > 0 && ev > 0, "workload must exercise hit, miss and evict paths");

    let final_len = cache.lock().unwrap().len() as u64;
    assert!(final_len <= CAPACITY as u64);
    // Distinct keys only ever enter via insert and leave via eviction
    // (replacement of an existing key returns None): live = in - out.
    let replacements = ins - ev - final_len;
    assert!(
        replacements < ins,
        "inserted {ins}, evicted {ev}, live {final_len}: accounting broken"
    );
}

#[test]
fn no_lost_updates_for_disjoint_key_ranges() {
    // Each thread owns a private key range smaller than its fair share
    // of the cache, inserting then immediately reading back. With
    // THREADS * KEYS_EACH <= capacity, nothing is ever evicted, so every
    // update must be observable — a lost update is a hard failure.
    const KEYS_EACH: u64 = 4;
    const N: usize = 8;
    assert!(N as u64 * KEYS_EACH <= 32);
    let cache: Mutex<LruCache<u64, u64>> = Mutex::new(LruCache::new(32));
    let evicted = AtomicU64::new(0);

    on_threads(N, |t| {
        let base = t as u64 * KEYS_EACH;
        for round in 0..500u64 {
            for k in base..base + KEYS_EACH {
                let mut c = cache.lock().unwrap();
                if c.insert(k, round).is_some() {
                    evicted.fetch_add(1, Ordering::Relaxed);
                }
                assert_eq!(c.get(&k), Some(&round), "update to {k} lost in round {round}");
            }
        }
    });

    assert_eq!(evicted.load(Ordering::Relaxed), 0, "working set fits; nothing may be evicted");
    let mut c = cache.lock().unwrap();
    let live: HashSet<u64> = (0..N as u64 * KEYS_EACH).filter(|k| c.get(k).is_some()).collect();
    assert_eq!(live.len(), N * KEYS_EACH as usize, "every owned key survives");
    for k in live {
        assert_eq!(c.get(&k), Some(&499), "final value must be the last round's");
    }
}

#[test]
fn eviction_count_matches_overflow_exactly() {
    // Sequential oracle check runnable under the same harness: insert
    // K distinct keys into a cap-C cache; exactly K - C evictions.
    let cache: Mutex<LruCache<u64, u64>> = Mutex::new(LruCache::new(16));
    let evictions = AtomicU64::new(0);
    on_threads(4, |t| {
        // Disjoint key ranges so "distinct keys" holds across threads.
        for i in 0..64u64 {
            let key = t as u64 * 64 + i;
            if cache.lock().unwrap().insert(key, key).is_some() {
                evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
    });
    let total_inserted = 4 * 64u64;
    assert_eq!(evictions.load(Ordering::Relaxed), total_inserted - 16);
    assert_eq!(cache.lock().unwrap().len(), 16);
}
