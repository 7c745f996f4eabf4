//! What a run reports: named metrics with units, and the one-line JSON result
//! the contract in `BENCHMARK.json` asks for as the last line of stdout.

use crate::json::Value;

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Self { name, value, unit }
    }
}

#[derive(Debug)]
pub struct RunReport {
    /// No session returned a wrong answer and every invariant held.
    pub correct: bool,
    /// Timed sessions started.
    pub attempted: u64,
    /// Timed sessions that errored or returned a wrong answer.
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl RunReport {
    pub fn to_json(&self) -> Value {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let entry = Value::Obj(vec![
                    ("value".into(), Value::Num(m.value)),
                    ("unit".into(), Value::Str(m.unit.into())),
                ]);
                (m.name.to_string(), entry)
            })
            .collect();
        Value::Obj(vec![
            ("correct".into(), Value::Bool(self.correct)),
            ("attempted".into(), Value::Num(self.attempted as f64)),
            ("failed".into(), Value::Num(self.failed as f64)),
            ("metrics".into(), Value::Obj(metrics)),
        ])
    }
}

/// The metric lists of `BENCHMARK.json`: `(name, unit, better, bound)`, bound
/// being `None` for per-layer metrics.
pub struct Spec {
    pub end_to_end: Vec<SpecMetric>,
    pub per_layer: Vec<SpecMetric>,
    pub run_seconds: f64,
}

pub struct SpecMetric {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    pub bound: Option<f64>,
}

impl Spec {
    /// Read `BENCHMARK.json` from the current directory (the repo root).
    pub fn load() -> Result<Self, String> {
        let text = std::fs::read_to_string("BENCHMARK.json")
            .map_err(|e| format!("BENCHMARK.json (run from the repo root): {e}"))?;
        let doc = crate::json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let list = |key: &str| -> Result<Vec<SpecMetric>, String> {
            doc.get(key)
                .and_then(Value::as_array)
                .ok_or_else(|| format!("BENCHMARK.json: no {key} list"))?
                .iter()
                .map(|entry| {
                    let text =
                        |field: &str| {
                            entry.get(field).and_then(Value::as_str).map(str::to_string).ok_or_else(
                                || format!("BENCHMARK.json: {key} entry without {field}"),
                            )
                        };
                    Ok(SpecMetric {
                        name: text("name")?,
                        unit: text("unit")?,
                        higher_is_better: text("better")? == "higher",
                        bound: entry.get("bound").and_then(Value::as_f64),
                    })
                })
                .collect()
        };
        Ok(Self {
            end_to_end: list("end_to_end")?,
            per_layer: list("per_layer")?,
            run_seconds: doc
                .get("run_seconds")
                .and_then(Value::as_f64)
                .ok_or("BENCHMARK.json: no run_seconds")?,
        })
    }

    /// `--check`: the run must have produced exactly the listed metrics, each
    /// finite and with the listed unit.
    pub fn check(listed: &[SpecMetric], produced: &[Metric]) -> Vec<String> {
        let mut problems = Vec::new();
        for want in listed {
            match produced.iter().find(|m| m.name == want.name) {
                None => problems.push(format!("{}: not reported", want.name)),
                Some(m) if !m.value.is_finite() => {
                    problems.push(format!("{}: value {} is not finite", m.name, m.value))
                }
                Some(m) if m.unit != want.unit => problems.push(format!(
                    "{}: unit {:?}, BENCHMARK.json says {:?}",
                    m.name, m.unit, want.unit
                )),
                Some(_) => {}
            }
        }
        for m in produced {
            if !listed.iter().any(|want| want.name == m.name) {
                problems.push(format!("{}: reported but not in BENCHMARK.json", m.name));
            }
        }
        problems
    }
}
