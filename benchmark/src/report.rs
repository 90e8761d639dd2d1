//! What a run reports: named metrics with units and sample counts, the
//! contract's result line, the `BENCHMARK.json` spec, and the host
//! fingerprint that makes a report reproducible.

use crate::server::repo_root;
use crate::workloads::{Workload, CONNECTIONS};
use serde_json::Value;
use std::io;
use std::process::Command;

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: String,
    /// The value as measured, all digits.
    pub value: f64,
    /// Unit.
    pub unit: String,
    /// Samples the value rests on (operations, calls or scrapes).
    pub samples: u64,
}

impl Metric {
    /// A metric named `name`.
    pub fn new(name: impl Into<String>, value: f64, unit: &str, samples: u64) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit: unit.to_string(),
            samples,
        }
    }
}

/// The outcome of one run of one workload.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Workload name.
    pub workload: String,
    /// `--seed`.
    pub seed: u64,
    /// Whether this was the traced run.
    pub trace: bool,
    /// Operations attempted, durability read-backs included.
    pub attempted: u64,
    /// Operations that failed: `Err` replies, wrong or missing values,
    /// server-side protocol errors.
    pub failed: u64,
    /// Every metric measured, applicable to this workload.
    pub metrics: Vec<Metric>,
    /// Design assertions that did not hold (e.g. too few compactions).
    pub violations: Vec<String>,
    /// Free-form facts about the run (flags used, op counts, examples).
    pub details: Vec<(String, Value)>,
}

impl RunResult {
    /// A run is correct when nothing failed and every design assertion held.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.violations.is_empty()
    }

    /// The metric named `name`, if measured.
    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// The full record of this run for the report file.
    pub fn to_json(&self) -> Value {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    obj(vec![
                        ("value", Value::from(m.value)),
                        ("unit", Value::from(m.unit.as_str())),
                        ("samples", Value::from(m.samples)),
                    ]),
                )
            })
            .collect();
        let mut fields = vec![
            ("workload".to_string(), Value::from(self.workload.as_str())),
            ("seed".to_string(), Value::from(self.seed)),
            ("trace".to_string(), Value::from(self.trace)),
            ("correct".to_string(), Value::from(self.correct())),
            ("attempted".to_string(), Value::from(self.attempted)),
            ("failed".to_string(), Value::from(self.failed)),
            ("metrics".to_string(), Value::Object(metrics)),
            ("violations".to_string(), strings(&self.violations)),
        ];
        fields.extend(self.details.iter().cloned());
        Value::Object(fields)
    }

    /// The contract's result line: exactly `correct`, `attempted`, `failed`
    /// and the metrics `spec` lists for this kind of run. A listed metric
    /// that does not apply to this workload (say, `put_p50_us` where
    /// nothing is written) is reported as 0.
    pub fn contract_line(&self, spec: &Spec) -> String {
        let listed = if self.trace {
            &spec.per_layer
        } else {
            &spec.end_to_end
        };
        let metrics = listed
            .iter()
            .map(|s| {
                let value = self.metric(&s.name).map_or(0.0, |m| m.value);
                (
                    s.name.clone(),
                    obj(vec![
                        ("value", Value::from(value)),
                        ("unit", Value::from(s.unit.as_str())),
                    ]),
                )
            })
            .collect();
        let line = obj(vec![
            ("correct", Value::from(self.correct())),
            ("attempted", Value::from(self.attempted.max(1))),
            ("failed", Value::from(self.failed)),
            ("metrics", Value::Object(metrics)),
        ]);
        serde_json::to_string(&line).expect("a JSON tree serializes")
    }

    /// Every metric by name with unit and sample count, one per line.
    pub fn table(&self) -> String {
        let mut out = format!(
            "== {} (seed {}, {}) ==\n",
            self.workload,
            self.seed,
            if self.trace { "traced" } else { "end to end" }
        );
        for m in &self.metrics {
            out.push_str(&format!(
                "{:<44} {:>16.4} {:<10} n={}\n",
                m.name, m.value, m.unit, m.samples
            ));
        }
        for v in &self.violations {
            out.push_str(&format!("VIOLATION: {v}\n"));
        }
        out
    }
}

/// A JSON array of strings.
pub fn strings(items: &[String]) -> Value {
    Value::Array(items.iter().map(|s| Value::from(s.as_str())).collect())
}

/// Builds a JSON object from `(key, value)` pairs.
pub fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// One metric's entry in `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// Whether a higher value is better.
    pub higher_is_better: bool,
    /// Share of the baseline's median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

/// The parts of `BENCHMARK.json` the benchmark itself reads.
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    /// End-to-end metrics, in file order.
    pub end_to_end: Vec<MetricSpec>,
    /// Per-layer metrics, in file order.
    pub per_layer: Vec<MetricSpec>,
}

impl Spec {
    /// Parses the text of `BENCHMARK.json`.
    pub fn parse(text: &str) -> Result<Spec, String> {
        let root: Value = serde_json::from_str(text).map_err(|e| format!("{e:?}"))?;
        let list = |key: &str| -> Result<Vec<MetricSpec>, String> {
            root.get(key)
                .and_then(Value::as_array)
                .ok_or(format!("BENCHMARK.json has no `{key}` list"))?
                .iter()
                .map(|m| {
                    let text = |k: &str| {
                        m.get(k)
                            .and_then(Value::as_str)
                            .map(str::to_string)
                            .ok_or(format!("a `{key}` metric has no `{k}`"))
                    };
                    Ok(MetricSpec {
                        name: text("name")?,
                        unit: text("unit")?,
                        higher_is_better: text("better")? == "higher",
                        bound: m.get("bound").and_then(Value::as_f64),
                    })
                })
                .collect()
        };
        Ok(Spec {
            end_to_end: list("end_to_end")?,
            per_layer: list("per_layer")?,
        })
    }

    /// Loads `BENCHMARK.json` from the repository root.
    pub fn load() -> io::Result<Spec> {
        let path = repo_root().join("BENCHMARK.json");
        let text = std::fs::read_to_string(&path)?;
        Spec::parse(&text).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }

    /// The spec of metric `name`, wherever it is listed.
    pub fn find(&self, name: &str) -> Option<&MetricSpec> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|m| m.name == name)
    }
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .current_dir(repo_root())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Where and how the numbers were taken: enough to tell two reports from
/// different hosts, toolchains or commits apart.
pub fn fingerprint() -> Value {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    obj(vec![
        ("nproc", Value::from(nproc)),
        ("kernel", Value::from(command_line("uname", &["-sr"]))),
        ("rustc", Value::from(command_line("rustc", &["--version"]))),
        ("build_profile", Value::from("release")),
        (
            "git_commit",
            Value::from(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("connections", Value::from(CONNECTIONS)),
        ("load_shape", Value::from("closed loop, singleton frames")),
    ])
}

/// The workload's frozen sizing, echoed into every report.
pub fn sizing(wl: &Workload, measured_ops: u64) -> Value {
    obj(vec![
        ("num_keys", Value::from(wl.num_keys)),
        ("value_size", Value::from(wl.value_size)),
        ("cache_mb", Value::from(wl.cache_mb)),
        ("durable", Value::from(wl.durable)),
        ("ops_per_second_of_budget", Value::from(wl.ops_per_second)),
        ("measured_ops", Value::from(measured_ops)),
        ("warm_ops", Value::from(wl.warm_ops)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: &str = r#"{
        "end_to_end": [
            {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.1},
            {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}
        ],
        "per_layer": [{"name": "put_p50_us", "unit": "us", "better": "lower"}]
    }"#;

    fn result(trace: bool, failed: u64) -> RunResult {
        RunResult {
            workload: "get-hot".into(),
            seed: 1,
            trace,
            attempted: 10,
            failed,
            metrics: vec![
                Metric::new("ops_per_s", 1234.5678, "1/s", 10),
                Metric::new("setup_s", 1.5, "s", 3),
            ],
            violations: vec![],
            details: vec![],
        }
    }

    #[test]
    fn contract_line_lists_exactly_the_spec() {
        let spec = Spec::parse(SPEC).unwrap();
        assert_eq!(spec.find("setup_s").unwrap().bound, Some(0.25));
        assert!(spec.find("ops_per_s").unwrap().higher_is_better);
        let line: Value = serde_json::from_str(&result(false, 0).contract_line(&spec)).unwrap();
        assert_eq!(line.get("correct"), Some(&Value::from(true)));
        let metrics = line.get("metrics").unwrap().as_object().unwrap();
        assert_eq!(metrics.len(), 2);
        assert_eq!(
            metrics[0].1.get("value").and_then(Value::as_f64),
            Some(1234.5678)
        );
        // The traced line lists the per-layer metrics; one that does not
        // apply to the workload reads 0.
        let traced: Value = serde_json::from_str(&result(true, 0).contract_line(&spec)).unwrap();
        let metrics = traced.get("metrics").unwrap().as_object().unwrap();
        assert_eq!(metrics.len(), 1);
        assert_eq!(metrics[0].0, "put_p50_us");
        assert_eq!(metrics[0].1.get("value").and_then(Value::as_f64), Some(0.0));
    }

    #[test]
    fn failures_and_violations_make_a_run_incorrect() {
        assert!(result(false, 0).correct());
        assert!(!result(false, 1).correct());
        let mut r = result(false, 0);
        r.violations.push("only 2 compactions".into());
        assert!(!r.correct());
        assert!(r.table().contains("VIOLATION: only 2 compactions"));
    }
}
