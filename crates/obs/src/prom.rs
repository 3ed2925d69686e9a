//! Prometheus text-exposition rendering of the metric registry.
//!
//! `GET /v1/metrics?format=prometheus` serves this next to the JSON
//! snapshot so standard scrapers ingest the same series the JSON
//! carries. Mapping:
//!
//! - counters → `counter`, gauges → `gauge`, verbatim values;
//! - histograms → `summary` with `quantile` labels 0.5/0.9/0.99/0.999
//!   plus `_sum` / `_count`; a time histogram ([`Unit::Nanos`]) carries
//!   a `_ns` suffix, a count histogram ([`Unit::Count`]) none;
//! - dotted metric names sanitise `.` → `_` (registry names are
//!   `[a-z0-9_.]+`, so the result is a valid Prometheus identifier).

use std::fmt::Write as _;

use crate::Unit;

/// `.`-separated registry name → Prometheus-legal identifier.
fn sanitize(name: &str) -> String {
    name.chars().map(|c| if c.is_ascii_alphanumeric() || c == '_' { c } else { '_' }).collect()
}

/// Renders the whole registry in Prometheus text exposition format.
/// Empty histograms are skipped (they would render misleading zeros);
/// counters and gauges always render.
pub fn prometheus() -> String {
    let snap = crate::registry().snapshot();
    let mut out = String::new();
    for (name, v) in &snap.counters {
        let n = sanitize(name);
        let _ = writeln!(out, "# TYPE {n} counter");
        let _ = writeln!(out, "{n} {v}");
    }
    for (name, v) in &snap.gauges {
        let n = sanitize(name);
        let _ = writeln!(out, "# TYPE {n} gauge");
        let _ = writeln!(out, "{n} {v}");
    }
    for (name, h) in &snap.histograms {
        if h.count() == 0 {
            continue;
        }
        let n = match h.unit() {
            Unit::Nanos => format!("{}_ns", sanitize(name)),
            Unit::Count => sanitize(name),
        };
        let _ = writeln!(out, "# TYPE {n} summary");
        for (q, label) in [(0.50, "0.5"), (0.90, "0.9"), (0.99, "0.99"), (0.999, "0.999")] {
            let _ = writeln!(out, "{n}{{quantile=\"{label}\"}} {}", h.quantile(q));
        }
        let _ = writeln!(out, "{n}_sum {}", h.sum());
        let _ = writeln!(out, "{n}_count {}", h.count());
    }
    out
}

#[cfg(test)]
#[allow(clippy::unwrap_used)] // tests may panic freely
mod tests {
    use super::*;

    /// Minimal line-format validator: every line is either a `# TYPE`
    /// comment or `name[{labels}] value` with a legal metric name and a
    /// numeric value.
    fn assert_exposition_parses(text: &str) {
        fn name_ok(name: &str) -> bool {
            !name.is_empty()
                && name
                    .chars()
                    .next()
                    .is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == ':')
                && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
        }
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                let mut parts = rest.split_whitespace();
                let name = parts.next().unwrap_or("");
                let kind = parts.next().unwrap_or("");
                assert!(name_ok(name), "bad TYPE name in {line:?}");
                assert!(
                    matches!(kind, "counter" | "gauge" | "summary" | "histogram" | "untyped"),
                    "bad TYPE kind in {line:?}"
                );
                assert!(parts.next().is_none(), "trailing tokens in {line:?}");
                continue;
            }
            let (series, value) = line.rsplit_once(' ').unwrap_or(("", ""));
            assert!(value.parse::<f64>().is_ok(), "non-numeric value in {line:?}");
            let name = match series.split_once('{') {
                Some((n, labels)) => {
                    assert!(labels.ends_with('}'), "unterminated labels in {line:?}");
                    let body = &labels[..labels.len() - 1];
                    for pair in body.split(',') {
                        let (k, v) = pair.split_once('=').unwrap_or(("", ""));
                        assert!(name_ok(k), "bad label name in {line:?}");
                        assert!(
                            v.starts_with('"') && v.ends_with('"') && v.len() >= 2,
                            "unquoted label value in {line:?}"
                        );
                    }
                    n
                }
                None => series,
            };
            assert!(name_ok(name), "bad series name in {line:?}");
        }
    }

    #[test]
    fn renders_counters_gauges_and_summaries_that_parse() {
        crate::set_level(crate::Level::Info);
        crate::add_counter("promtest.hits", 3);
        crate::set_gauge("promtest.depth", 2.5);
        let h = crate::registry().histogram("promtest.latency");
        for i in 1..=100u64 {
            h.record(i * 1_000);
        }
        let sizes = crate::registry().count_histogram("promtest.batch.size");
        sizes.record(3);
        let text = prometheus();
        assert_exposition_parses(&text);
        assert!(text.contains("# TYPE promtest_hits counter"));
        assert!(text.contains("promtest_hits 3"));
        assert!(text.contains("# TYPE promtest_depth gauge"));
        assert!(text.contains("promtest_depth 2.5"));
        assert!(text.contains("# TYPE promtest_latency_ns summary"));
        assert!(text.contains("promtest_latency_ns{quantile=\"0.999\"}"));
        assert!(text.contains("promtest_latency_ns_count 100"));
        // A count histogram keeps its name: no time suffix.
        assert!(text.contains("# TYPE promtest_batch_size summary"));
        assert!(text.contains("promtest_batch_size_count 1"));
        assert!(!text.contains("promtest_batch_size_ns"));
    }

    #[test]
    fn dotted_names_sanitise_to_legal_identifiers() {
        assert_eq!(sanitize("serve.slo.p99_ms"), "serve_slo_p99_ms");
        assert_eq!(sanitize("faults.hit.serve.batch.slow"), "faults_hit_serve_batch_slow");
    }
}
