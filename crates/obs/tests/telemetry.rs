//! Behavioural tests for the telemetry crate.
//!
//! Telemetry state is process-global, so every test that touches the
//! registry, level, or trace sink serialises on one mutex and resets
//! state on entry.

use std::io::Write;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Duration;

use explainti_obs as obs;
use obs::{Histogram, Level};

fn lock() -> MutexGuard<'static, ()> {
    static GATE: OnceLock<Mutex<()>> = OnceLock::new();
    let guard = match GATE.get_or_init(|| Mutex::new(())).lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    };
    obs::registry().reset();
    obs::close_trace();
    obs::set_level(Level::Info);
    guard
}

/// Histogram quantiles agree with a sorted-vector oracle to within the
/// log-linear bucket resolution (~6% relative error).
#[test]
fn histogram_quantiles_match_sorted_oracle() {
    let h = Histogram::new();
    // Mixed magnitudes: small exact values, mid-range, and large tails,
    // generated deterministically.
    let mut samples: Vec<u64> = Vec::new();
    let mut x = 0x2545_f491_4f6c_dd1du64;
    for _ in 0..10_000 {
        // xorshift64* — spread over ~3 orders of magnitude
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        let v = (x.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 40) % 1_000_000;
        samples.push(v);
        h.record(v);
    }
    samples.sort_unstable();
    for q in [0.10, 0.50, 0.90, 0.99] {
        let oracle =
            samples[((q * samples.len() as f64).ceil() as usize - 1).min(samples.len() - 1)];
        let est = h.quantile(q);
        let tolerance = (oracle as f64 * 0.07).max(1.0);
        assert!(
            (est as f64 - oracle as f64).abs() <= tolerance,
            "q{q}: est {est} vs oracle {oracle}"
        );
    }
    assert_eq!(h.count(), 10_000);
    assert_eq!(h.min(), *samples.first().unwrap());
    assert_eq!(h.max(), *samples.last().unwrap());
}

/// Concurrent counter increments from many threads are all observed.
#[test]
fn concurrent_counter_increments_are_lossless() {
    let _gate = lock();
    const THREADS: usize = 8;
    const PER_THREAD: u64 = 10_000;
    let counter = obs::registry().counter("test.concurrent");
    let handles: Vec<_> = (0..THREADS)
        .map(|_| {
            let c = counter.clone();
            std::thread::spawn(move || {
                for _ in 0..PER_THREAD {
                    c.fetch_add(1, Ordering::Relaxed);
                }
            })
        })
        .collect();
    for t in handles {
        t.join().unwrap();
    }
    assert_eq!(counter.load(Ordering::Relaxed), THREADS as u64 * PER_THREAD);
}

/// Concurrent histogram recording loses no samples either.
#[test]
fn concurrent_histogram_records_are_lossless() {
    let h = Arc::new(Histogram::new());
    let handles: Vec<_> = (0..4)
        .map(|t| {
            let h = h.clone();
            std::thread::spawn(move || {
                for i in 0..5_000u64 {
                    h.record(t * 1_000 + i);
                }
            })
        })
        .collect();
    for t in handles {
        t.join().unwrap();
    }
    assert_eq!(h.count(), 20_000);
}

/// Nested spans report correct depth and unwind as guards drop.
#[test]
fn span_nesting_depth_tracks_guards() {
    let _gate = lock();
    assert_eq!(obs::span_depth(), 0);
    {
        let _outer = obs::span!("test.outer");
        assert_eq!(obs::span_depth(), 1);
        {
            let _mid = obs::span!("test.mid");
            assert_eq!(obs::span_depth(), 2);
            let _inner = obs::span!("test.inner");
            assert_eq!(obs::span_depth(), 3);
        }
        assert_eq!(obs::span_depth(), 1);
    }
    assert_eq!(obs::span_depth(), 0);
    for name in ["test.outer", "test.mid", "test.inner"] {
        assert_eq!(obs::registry().histogram(name).count(), 1, "{name}");
    }
}

/// A shared in-memory sink for trace assertions.
#[derive(Clone, Default)]
struct MemSink(Arc<Mutex<Vec<u8>>>);

impl Write for MemSink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Trace events round-trip through the JSONL sink: one valid JSON
/// object per line, carrying span name, duration, and depth.
#[test]
fn jsonl_trace_round_trips() {
    let _gate = lock();
    let sink = MemSink::default();
    obs::set_trace_writer(Box::new(sink.clone()));
    {
        let _outer = obs::span!("test.trace.outer");
        let _inner = obs::span!("test.trace.inner");
        std::thread::sleep(Duration::from_millis(1));
    }
    obs::emit(serde_json::json!({ "type": "note", "detail": "done" }));
    obs::close_trace();

    let bytes = sink.0.lock().unwrap().clone();
    let text = String::from_utf8(bytes).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 3, "trace:\n{text}");
    let events: Vec<serde_json::Value> =
        lines.iter().map(|l| serde_json::from_str(l).unwrap()).collect();

    // Inner span closes first.
    assert_eq!(events[0]["name"].as_str(), Some("test.trace.inner"));
    assert_eq!(events[0]["depth"].as_u64(), Some(1));
    assert_eq!(events[1]["name"].as_str(), Some("test.trace.outer"));
    assert_eq!(events[1]["depth"].as_u64(), Some(0));
    assert!(events[1]["dur_ns"].as_u64().unwrap() >= events[0]["dur_ns"].as_u64().unwrap());
    assert!(events[0]["dur_ns"].as_u64().unwrap() >= 1_000_000, "inner span slept 1ms");
    assert_eq!(events[2]["type"].as_str(), Some("note"));
}

/// With EXPLAINTI_LOG=off semantics, no metrics or trace events are
/// recorded and guards are inert.
#[test]
fn disabled_level_records_nothing() {
    let _gate = lock();
    let sink = MemSink::default();
    obs::set_trace_writer(Box::new(sink.clone()));
    obs::set_level(Level::Off);

    {
        let _span = obs::span!("test.disabled.span");
        obs::counter!("test.disabled.counter", 5);
        obs::add_counter("test.disabled.counter2", 7);
        obs::set_gauge("test.disabled.gauge", 1.5);
        obs::emit(serde_json::json!({ "type": "should-not-appear" }));
        assert_eq!(obs::span_depth(), 0, "disabled spans do not join the stack");
    }

    obs::set_level(Level::Info);
    obs::close_trace();
    assert_eq!(obs::registry().histogram("test.disabled.span").count(), 0);
    assert_eq!(obs::registry().counter("test.disabled.counter").load(Ordering::Relaxed), 0);
    assert_eq!(obs::registry().counter("test.disabled.counter2").load(Ordering::Relaxed), 0);
    assert!(sink.0.lock().unwrap().is_empty(), "no trace lines when off");
}

/// The report renders a table with every recorded span and counter.
#[test]
fn report_lists_recorded_metrics() {
    let _gate = lock();
    {
        let _span = obs::span!("test.report.stage");
    }
    obs::counter!("test.report.visits", 42);
    obs::set_gauge("test.report.size", 128.0);

    let report = obs::report();
    assert!(report.contains("test.report.stage"), "{report}");
    assert!(report.contains("test.report.visits"), "{report}");
    assert!(report.contains("42"), "{report}");
    assert!(report.contains("p50 ms"), "{report}");

    let summary = obs::summary();
    assert_eq!(summary["counters"]["test.report.visits"].as_u64(), Some(42));
    assert_eq!(summary["gauges"]["test.report.size"].as_f64(), Some(128.0));
    assert_eq!(summary["histograms"]["test.report.stage"]["count"].as_u64(), Some(1));
}

/// The report prints a time histogram in milliseconds under `spans` and
/// a count histogram as plain numbers in its own table, never under the
/// `ms` columns.
#[test]
fn report_prints_each_histogram_in_its_unit() {
    let _gate = lock();
    obs::registry().histogram("test.report.time").record(2_500_000);
    obs::registry().count_histogram("test.report.batch").record(7);

    let report = obs::report();
    let (spans, counts) = report.split_once("count histograms").expect("a count table");
    assert!(spans.contains("p50 ms") && spans.contains("test.report.time"), "{report}");
    assert!(!spans.contains("test.report.batch"), "a count printed as a span: {report}");
    let row = counts.lines().find(|l| l.contains("test.report.batch")).expect("the count row");
    let cells: Vec<&str> = row.split_whitespace().collect();
    assert_eq!(cells[1..], ["1", "7", "7", "7", "7", "7"], "{report}");
    assert!(!counts.contains(" ms"), "{report}");
}

/// Reset zeroes metrics while cached handles keep working.
#[test]
fn reset_preserves_cached_handles() {
    let _gate = lock();
    let counter = obs::registry().counter("test.reset.counter");
    counter.fetch_add(3, Ordering::Relaxed);
    let hist = obs::registry().histogram("test.reset.hist");
    hist.record(10);
    obs::registry().reset();
    assert_eq!(counter.load(Ordering::Relaxed), 0);
    assert_eq!(hist.count(), 0);
    // The same handles (and registry names) still record.
    counter.fetch_add(1, Ordering::Relaxed);
    hist.record(20);
    assert_eq!(obs::registry().counter("test.reset.counter").load(Ordering::Relaxed), 1);
    assert_eq!(obs::registry().histogram("test.reset.hist").count(), 1);
}
