//! # explainti-faults
//!
//! A dependency-free, deterministic failpoint registry for chaos and
//! crash-safety testing.
//!
//! Production code declares named **sites** at interesting failure
//! boundaries (`persist.after_write.weights`, `serve.worker.panic`, …)
//! by calling [`triggered`]; what a trip *does* — return an error,
//! panic, sleep — is decided at the call site, so the registry stays a
//! pure trigger mechanism. Tests (or operators running chaos drills)
//! activate sites either through the API ([`configure`],
//! [`configure_from_spec`]) or the `EXPLAINTI_FAILPOINTS` environment
//! variable, read once on first use.
//!
//! ## Spec syntax
//!
//! `EXPLAINTI_FAILPOINTS` (and [`configure_from_spec`]) take a
//! `;`-separated list of `site=policy` entries:
//!
//! ```text
//! EXPLAINTI_FAILPOINTS='persist.after_write.weights=always;serve.worker.panic=times(1)'
//! ```
//!
//! Policies ([`Policy`]):
//!
//! | spec           | behaviour                                          |
//! |----------------|----------------------------------------------------|
//! | `never`        | never trips (site effectively disabled)            |
//! | `always`       | trips on every check                               |
//! | `after(N)`     | passes the first `N` checks, then trips forever    |
//! | `every(N)`     | trips on checks `N`, `2N`, `3N`, … (1-based)       |
//! | `times(N)`     | trips on the first `N` checks, then never again    |
//! | `prob(P)`      | trips with probability `P` (seed 0)                |
//! | `prob(P,SEED)` | seeded-probabilistic: deterministic per-site xorshift |
//!
//! ## Cost model
//!
//! With no sites configured, [`triggered`] is a single relaxed atomic
//! load — safe to leave in hot paths. With any site configured, every
//! check takes the registry lock (fault injection is a testing mode,
//! not a production steady state).
//!
//! ## Determinism & thread safety
//!
//! Per-site check counters live behind one mutex, so a policy like
//! `every(2)` trips on exactly every second check even under concurrent
//! callers; the probabilistic mode advances a per-site xorshift64* RNG
//! from its configured seed, so a given (seed, check-sequence) always
//! trips on the same checks.
//!
//! Trip counts are kept per site (surviving [`clear_all`], so a test or
//! a `/v1/metrics` scrape can read them after the drill) and an
//! optional [observer](set_observer) is invoked on every trip — the CLI
//! and server install one that mirrors trips into `explainti-obs`
//! counters, keeping this crate free of telemetry dependencies (its
//! only workspace dependency is the `explainti-sync` lock layer).

#![warn(missing_docs)]

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

use explainti_sync::{classes, OrderedMutex};

/// When a failpoint site trips, given the site's 1-based check count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Policy {
    /// Never trips.
    Never,
    /// Trips on every check.
    Always,
    /// Passes the first `n` checks, then trips on every later check.
    AfterN(u64),
    /// Trips on every `n`-th check (checks `n`, `2n`, `3n`, …).
    EveryN(u64),
    /// Trips on the first `n` checks, then never again.
    Times(u64),
    /// Trips with probability `p` per check, driven by a per-site
    /// xorshift64* generator seeded with `seed` — deterministic for a
    /// given (seed, check-sequence).
    Prob {
        /// Trip probability in `[0, 1]`.
        p: f64,
        /// Generator seed (0 is mapped to a fixed non-zero constant).
        seed: u64,
    },
}

struct Site {
    policy: Policy,
    /// Checks made against this site so far (1-based at evaluation).
    checks: u64,
    /// xorshift64* state for [`Policy::Prob`].
    rng: u64,
}

impl Site {
    fn new(policy: Policy) -> Self {
        let seed = match policy {
            Policy::Prob { seed, .. } => {
                if seed == 0 {
                    0x9e3779b97f4a7c15
                } else {
                    seed
                }
            }
            _ => 1,
        };
        Self { policy, checks: 0, rng: seed }
    }

    fn evaluate(&mut self) -> bool {
        self.checks += 1;
        match self.policy {
            Policy::Never => false,
            Policy::Always => true,
            Policy::AfterN(n) => self.checks > n,
            Policy::EveryN(n) => n > 0 && self.checks.is_multiple_of(n),
            Policy::Times(n) => self.checks <= n,
            Policy::Prob { p, .. } => {
                // xorshift64* — deterministic, dependency-free.
                let mut x = self.rng;
                x ^= x >> 12;
                x ^= x << 25;
                x ^= x >> 27;
                self.rng = x;
                let draw = x.wrapping_mul(0x2545F4914F6CDD1D);
                (draw as f64 / u64::MAX as f64) < p
            }
        }
    }
}

type Observer = Box<dyn Fn(&str) + Send + Sync>;

#[derive(Default)]
struct RegistryInner {
    sites: HashMap<String, Site>,
    /// Trips per site; survives [`clear_all`] so post-drill inspection
    /// (tests, `/v1/metrics`) still sees what happened.
    hits: BTreeMap<String, u64>,
    observer: Option<Observer>,
}

/// 0 = uninitialised (env not read yet), 1 = no active sites, 2 = active.
static STATE: AtomicU8 = AtomicU8::new(0);

fn registry() -> &'static OrderedMutex<RegistryInner> {
    static REG: OnceLock<OrderedMutex<RegistryInner>> = OnceLock::new();
    REG.get_or_init(|| OrderedMutex::new(&classes::FAULTS_REGISTRY, RegistryInner::default()))
}

fn refresh_state(inner: &RegistryInner) {
    let active = inner.sites.values().any(|s| s.policy != Policy::Never);
    // ORDERING: Release — pairs with the Acquire load in `enabled`: a
    // thread that observes 2 must also observe the site map written
    // before this store (it then takes the registry lock to read it).
    STATE.store(if active { 2 } else { 1 }, Ordering::Release);
}

/// Reads `EXPLAINTI_FAILPOINTS` exactly once; invalid entries are
/// reported on stderr and skipped (a chaos drill must not turn into a
/// silent no-op *and* must not abort the process).
fn ensure_init() {
    static INIT: OnceLock<()> = OnceLock::new();
    INIT.get_or_init(|| {
        let mut inner = registry().lock();
        if let Ok(spec) = std::env::var("EXPLAINTI_FAILPOINTS") {
            for entry in spec.split(';').map(str::trim).filter(|e| !e.is_empty()) {
                match parse_entry(entry) {
                    Ok((site, policy)) => {
                        inner.sites.insert(site, Site::new(policy));
                    }
                    Err(e) => eprintln!("EXPLAINTI_FAILPOINTS: ignoring {entry:?}: {e}"),
                }
            }
        }
        refresh_state(&inner);
    });
}

/// Whether any failpoint site is currently active.
#[inline]
pub fn enabled() -> bool {
    // ORDERING: Acquire — pairs with `refresh_state`'s Release store so
    // an observed 2 implies the configured sites are visible.
    match STATE.load(Ordering::Acquire) {
        0 => {
            ensure_init();
            // ORDERING: Acquire — same pairing as the load above.
            STATE.load(Ordering::Acquire) == 2
        }
        1 => false,
        _ => true,
    }
}

/// Checks the named site, returning `true` when the fault should fire
/// now. The caller decides the effect (error return, panic, delay).
///
/// One relaxed-ish atomic load when no sites are configured.
#[inline]
pub fn triggered(site: &str) -> bool {
    if !enabled() {
        return false;
    }
    let mut inner = registry().lock();
    let Some(state) = inner.sites.get_mut(site) else {
        return false;
    };
    if !state.evaluate() {
        return false;
    }
    *inner.hits.entry(site.to_string()).or_insert(0) += 1;
    if let Some(observer) = &inner.observer {
        observer(site);
    }
    true
}

/// Checks the named site and panics when it trips.
///
/// For sites whose contracted effect *is* a panic (worker-recovery
/// drills like `serve.worker.panic`): keeping the `panic!` here means
/// panic-free production paths stay free of panic machinery — the only way those paths can panic is through an armed
/// failpoint, which the analyzer's EA003 check keeps catalogued.
#[inline]
pub fn panic_if_triggered(site: &str) {
    if triggered(site) {
        panic!("injected failpoint panic: {site}");
    }
}

/// Activates (or replaces) a site with `policy`.
pub fn configure(site: &str, policy: Policy) {
    ensure_init();
    let mut inner = registry().lock();
    inner.sites.insert(site.to_string(), Site::new(policy));
    refresh_state(&inner);
}

/// Parses one `site=policy` entry.
fn parse_entry(entry: &str) -> Result<(String, Policy), String> {
    let (site, policy) = entry.split_once('=').ok_or_else(|| "expected site=policy".to_string())?;
    let site = site.trim();
    if site.is_empty() {
        return Err("empty site name".to_string());
    }
    Ok((site.to_string(), parse_policy(policy.trim())?))
}

/// Parses a policy spec (`always`, `after(3)`, `prob(0.5,42)`, …).
pub fn parse_policy(spec: &str) -> Result<Policy, String> {
    match spec {
        "never" => return Ok(Policy::Never),
        "always" => return Ok(Policy::Always),
        _ => {}
    }
    let (name, rest) = spec.split_once('(').ok_or_else(|| {
        format!(
            "unknown policy {spec:?} (try always/never/after(N)/every(N)/times(N)/prob(P[,SEED]))"
        )
    })?;
    let args = rest
        .strip_suffix(')')
        .ok_or_else(|| format!("policy {spec:?} is missing its closing parenthesis"))?;
    let int = |s: &str| {
        s.trim().parse::<u64>().map_err(|_| format!("policy {spec:?}: {s:?} is not an integer"))
    };
    match name {
        "after" => Ok(Policy::AfterN(int(args)?)),
        "every" => {
            let n = int(args)?;
            if n == 0 {
                return Err(format!("policy {spec:?}: every(0) is meaningless"));
            }
            Ok(Policy::EveryN(n))
        }
        "times" => Ok(Policy::Times(int(args)?)),
        "prob" => {
            let mut parts = args.splitn(2, ',');
            let p: f64 = parts
                .next()
                .unwrap_or("")
                .trim()
                .parse()
                .map_err(|_| format!("policy {spec:?}: bad probability"))?;
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("policy {spec:?}: probability must be in [0, 1]"));
            }
            let seed = match parts.next() {
                Some(s) => int(s)?,
                None => 0,
            };
            Ok(Policy::Prob { p, seed })
        }
        _ => Err(format!("unknown policy {name:?}")),
    }
}

/// Applies a full `site=policy;site=policy` spec (the
/// `EXPLAINTI_FAILPOINTS` / `--failpoints` syntax). Returns how many
/// sites were configured; fails on the first malformed entry.
pub fn configure_from_spec(spec: &str) -> Result<usize, String> {
    ensure_init();
    let mut parsed = Vec::new();
    for entry in spec.split(';').map(str::trim).filter(|e| !e.is_empty()) {
        parsed.push(parse_entry(entry)?);
    }
    let mut inner = registry().lock();
    let n = parsed.len();
    for (site, policy) in parsed {
        inner.sites.insert(site, Site::new(policy));
    }
    refresh_state(&inner);
    Ok(n)
}

/// Deactivates one site (check counters and hit counts are kept).
pub fn clear(site: &str) {
    ensure_init();
    let mut inner = registry().lock();
    inner.sites.remove(site);
    refresh_state(&inner);
}

/// Deactivates every site. Hit counts survive, so tests can still read
/// what tripped; [`reset_hits`] zeroes those too.
pub fn clear_all() {
    ensure_init();
    let mut inner = registry().lock();
    inner.sites.clear();
    refresh_state(&inner);
}

/// Zeroes the per-site trip counts.
pub fn reset_hits() {
    ensure_init();
    registry().lock().hits.clear();
}

/// How many times `site` has tripped so far.
pub fn hit_count(site: &str) -> u64 {
    ensure_init();
    registry().lock().hits.get(site).copied().unwrap_or(0)
}

/// Every site that has tripped, with its trip count, sorted by name.
pub fn hit_counts() -> Vec<(String, u64)> {
    ensure_init();
    registry().lock().hits.iter().map(|(k, v)| (k.clone(), *v)).collect()
}

/// Installs a callback invoked (under the registry lock) on every trip
/// with the site name. The CLI and server use this to mirror trips into
/// `explainti-obs` counters without making this crate depend on it.
pub fn set_observer(f: impl Fn(&str) + Send + Sync + 'static) {
    ensure_init();
    registry().lock().observer = Some(Box::new(f));
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::Arc;

    /// The registry is process-global; tests serialise on this.
    fn lock() -> std::sync::MutexGuard<'static, ()> {
        static GUARD: std::sync::Mutex<()> = std::sync::Mutex::new(());
        GUARD.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn unconfigured_site_never_trips() {
        let _g = lock();
        clear_all();
        assert!(!triggered("nope.not.a.site"));
        assert_eq!(hit_count("nope.not.a.site"), 0);
    }

    #[test]
    fn policy_semantics() {
        let _g = lock();
        clear_all();
        reset_hits();

        configure("t.always", Policy::Always);
        assert!((0..5).all(|_| triggered("t.always")));

        configure("t.never", Policy::Never);
        assert!((0..5).all(|_| !triggered("t.never")));

        configure("t.after", Policy::AfterN(2));
        let seq: Vec<bool> = (0..5).map(|_| triggered("t.after")).collect();
        assert_eq!(seq, [false, false, true, true, true]);

        configure("t.every", Policy::EveryN(3));
        let seq: Vec<bool> = (0..7).map(|_| triggered("t.every")).collect();
        assert_eq!(seq, [false, false, true, false, false, true, false]);

        configure("t.times", Policy::Times(2));
        let seq: Vec<bool> = (0..5).map(|_| triggered("t.times")).collect();
        assert_eq!(seq, [true, true, false, false, false]);

        assert_eq!(hit_count("t.always"), 5);
        assert_eq!(hit_count("t.after"), 3);
        assert_eq!(hit_count("t.every"), 2);
        assert_eq!(hit_count("t.times"), 2);
        clear_all();
    }

    #[test]
    fn probabilistic_mode_is_seed_deterministic() {
        let _g = lock();
        clear_all();
        let run = |seed: u64| -> Vec<bool> {
            configure("t.prob", Policy::Prob { p: 0.5, seed });
            (0..64).map(|_| triggered("t.prob")).collect()
        };
        let a = run(42);
        let b = run(42);
        let c = run(7);
        assert_eq!(a, b, "same seed must reproduce the same trip sequence");
        assert_ne!(a, c, "different seeds should diverge");
        let trips = a.iter().filter(|&&t| t).count();
        assert!((8..=56).contains(&trips), "p=0.5 over 64 draws tripped {trips} times");
        clear_all();
    }

    #[test]
    fn prob_extremes() {
        let _g = lock();
        clear_all();
        configure("t.p0", Policy::Prob { p: 0.0, seed: 1 });
        assert!((0..32).all(|_| !triggered("t.p0")));
        configure("t.p1", Policy::Prob { p: 1.0, seed: 1 });
        assert!((0..32).all(|_| triggered("t.p1")));
        clear_all();
    }

    #[test]
    fn spec_parsing_round_trips() {
        assert_eq!(parse_policy("always"), Ok(Policy::Always));
        assert_eq!(parse_policy("never"), Ok(Policy::Never));
        assert_eq!(parse_policy("after(3)"), Ok(Policy::AfterN(3)));
        assert_eq!(parse_policy("every(2)"), Ok(Policy::EveryN(2)));
        assert_eq!(parse_policy("times(1)"), Ok(Policy::Times(1)));
        assert_eq!(parse_policy("prob(0.25)"), Ok(Policy::Prob { p: 0.25, seed: 0 }));
        assert_eq!(parse_policy("prob(0.25, 99)"), Ok(Policy::Prob { p: 0.25, seed: 99 }));
        assert!(parse_policy("bogus").is_err());
        assert!(parse_policy("after(x)").is_err());
        assert!(parse_policy("after(3").is_err());
        assert!(parse_policy("every(0)").is_err());
        assert!(parse_policy("prob(1.5)").is_err());
    }

    #[test]
    fn configure_from_spec_applies_every_entry() {
        let _g = lock();
        clear_all();
        let n = configure_from_spec("a.site=after(1); b.site=always ;c.site=times(2)").unwrap();
        assert_eq!(n, 3);
        assert!(!triggered("a.site"));
        assert!(triggered("a.site"));
        assert!(triggered("b.site"));
        assert!(triggered("c.site"));
        assert!(configure_from_spec("broken").is_err());
        assert!(configure_from_spec("x=nope(1)").is_err());
        assert_eq!(configure_from_spec("").unwrap(), 0);
        clear_all();
    }

    #[test]
    fn clear_disables_but_keeps_hits() {
        let _g = lock();
        clear_all();
        reset_hits();
        configure("t.clear", Policy::Always);
        assert!(triggered("t.clear"));
        clear("t.clear");
        assert!(!triggered("t.clear"));
        assert_eq!(hit_count("t.clear"), 1, "hits survive clearing");
        assert!(hit_counts().iter().any(|(s, n)| s == "t.clear" && *n == 1));
        reset_hits();
        assert_eq!(hit_count("t.clear"), 0);
    }

    #[test]
    fn every_n_is_exact_under_concurrency() {
        let _g = lock();
        clear_all();
        configure("t.conc", Policy::EveryN(2));
        let trips = Arc::new(AtomicU64::new(0));
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let trips = Arc::clone(&trips);
                std::thread::spawn(move || {
                    for _ in 0..250 {
                        if triggered("t.conc") {
                            trips.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        // 1000 checks at every(2) → exactly 500 trips, no lost or
        // double-counted checks.
        assert_eq!(trips.load(Ordering::Relaxed), 500);
        clear_all();
    }

    #[test]
    fn observer_sees_trips() {
        let _g = lock();
        clear_all();
        let seen = Arc::new(std::sync::Mutex::new(Vec::new()));
        let seen2 = Arc::clone(&seen);
        set_observer(move |site| seen2.lock().unwrap().push(site.to_string()));
        configure("t.obs", Policy::Times(2));
        for _ in 0..4 {
            triggered("t.obs");
        }
        assert_eq!(seen.lock().unwrap().as_slice(), ["t.obs", "t.obs"]);
        // Detach so other tests don't keep pushing into this Vec.
        set_observer(|_| {});
        clear_all();
    }
}
