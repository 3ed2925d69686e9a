//! The run's output: a human-readable table and a `RECORD` line with the
//! full run record (settings, seeds, sample counts, skipped arms), then
//! the machine-readable result object — always the last line of stdout.

use std::collections::BTreeMap;

use serde_json::{json, Value};

/// One reported figure. `value` is `None` for an arm that means nothing
/// on this machine or workload; `note` then says why.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: Option<f64>,
    pub unit: String,
    pub samples: u64,
    pub note: Option<String>,
}

impl Metric {
    pub fn new(name: &str, value: Option<f64>, unit: &str, samples: u64) -> Self {
        Self { name: name.to_string(), value, unit: unit.to_string(), samples, note: None }
    }

    pub fn skipped(name: &str, unit: &str, why: &str) -> Self {
        Self {
            name: name.to_string(),
            value: None,
            unit: unit.to_string(),
            samples: 0,
            note: Some(why.to_string()),
        }
    }

    pub fn with_note(mut self, note: &str) -> Self {
        self.note = Some(note.to_string());
        self
    }
}

/// What a workload run produced.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Failed checks; any entry makes the run incorrect.
    pub problems: Vec<String>,
    pub metrics: Vec<Metric>,
    pub record: BTreeMap<String, Value>,
}

impl Outcome {
    pub fn check(&mut self, ok: bool, what: impl Into<String>) {
        if !ok {
            self.problems.push(what.into());
        }
    }

    pub fn note(&mut self, key: &str, v: Value) {
        self.record.insert(key.to_string(), v);
    }

    /// Prints the table, the record and the result line.
    pub fn print(&self, workload: &str) {
        println!("workload {workload}: attempted {} failed {}", self.attempted, self.failed);
        for m in &self.metrics {
            match m.value {
                Some(v) => println!("  {:<28} {:>14.4} {:<6} (n={})", m.name, v, m.unit, m.samples),
                None => println!(
                    "  {:<28} {:>14} {:<6} ({})",
                    m.name,
                    "skipped",
                    m.unit,
                    m.note.as_deref().unwrap_or("")
                ),
            }
        }
        for p in &self.problems {
            println!("  CHECK FAILED: {p}");
        }
        let mut record = self.record.clone();
        let table: Vec<Value> = self
            .metrics
            .iter()
            .map(|m| json!({"name": m.name, "value": m.value, "unit": m.unit, "samples": m.samples, "note": m.note}))
            .collect();
        record.insert("metrics".into(), Value::Array(table));
        record.insert("problems".into(), json!(self.problems));
        println!("RECORD {}", serde_json::to_string(&Value::Object(record)).unwrap_or_default());
        let mut metrics = BTreeMap::new();
        for m in &self.metrics {
            let mut entry = BTreeMap::new();
            entry.insert("value".to_string(), json!(m.value));
            entry.insert("unit".to_string(), json!(m.unit));
            if let Some(n) = &m.note {
                if m.value.is_none() {
                    entry.insert("skipped".to_string(), json!(n));
                }
            }
            metrics.insert(m.name.clone(), Value::Object(entry));
        }
        let result = json!({
            "correct": self.problems.is_empty() && self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": Value::Object(metrics),
        });
        println!("{}", serde_json::to_string(&result).unwrap_or_default());
    }
}
