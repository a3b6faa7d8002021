//! Metrics, the result line the driver reads, and BENCHMARK.json.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::checks::Failure;

/// One measured value. `samples` is how many observations it summarises.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &'static str, samples: usize) -> Self {
        Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
        }
    }
}

/// An end-to-end metric as BENCHMARK.json declares it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
    /// Equal inputs must give exactly equal values.
    pub deterministic: bool,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
    deterministic: bool,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
        deterministic,
    }
}

/// Every workload prints every one of these (README.md says what each
/// means on each workload).
pub const END_TO_END: [EndToEnd; 11] = [
    e2e("setup_s", "s", "lower", 0.25, false),
    e2e("ask_p50_ms", "ms", "lower", 0.25, false),
    e2e("ask_p95_ms", "ms", "lower", 0.25, false),
    e2e("ask_qps", "1/s", "higher", 0.25, false),
    e2e("write_p50_ms", "ms", "lower", 0.25, false),
    e2e("write_mean_ms", "ms", "lower", 0.25, false),
    e2e("restart_s", "s", "lower", 0.25, false),
    e2e("snapshot_bytes_per_doc", "B", "lower", 0.06, true),
    e2e("rss_after_build_mb", "MB", "lower", 0.10, false),
    e2e("mrr", "ratio", "higher", 0.25, true),
    e2e("answered_share", "ratio", "higher", 0.10, true),
];

/// The outcome of one workload run.
#[derive(Debug, Clone)]
pub struct RunResult {
    pub workload: String,
    pub attempted: u64,
    pub failures: Vec<Failure>,
    pub metrics: Vec<Metric>,
    /// Wall time of the whole run, set-up and checks included.
    pub wall_s: f64,
    /// Facts about the run that are not metrics (cache shares, counts).
    pub notes: Vec<String>,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricValue {
    pub value: f64,
    pub unit: String,
}

/// The last line of standard output, in the shape the driver reads.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResultLine {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<String, MetricValue>,
}

impl ResultLine {
    pub fn of(result: &RunResult) -> Self {
        ResultLine {
            correct: result.correct(),
            attempted: result.attempted.max(1),
            failed: result.failures.len() as u64,
            metrics: result
                .metrics
                .iter()
                .map(|m| {
                    (
                        m.name.clone(),
                        MetricValue {
                            value: m.value,
                            unit: m.unit.to_string(),
                        },
                    )
                })
                .collect(),
        }
    }
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SampledValue {
    pub value: f64,
    pub unit: String,
    pub samples: usize,
}

/// One line of the `--out` file: the result line's fields plus the
/// workload, its frozen configuration, the run's wall time and the
/// sample count behind every value.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Record {
    pub workload: String,
    pub configuration: String,
    pub wall_s: f64,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<String, SampledValue>,
}

impl Record {
    pub fn of(result: &RunResult, configuration: &str) -> Self {
        Record {
            workload: result.workload.clone(),
            configuration: configuration.to_string(),
            wall_s: result.wall_s,
            correct: result.correct(),
            attempted: result.attempted,
            failed: result.failures.len() as u64,
            metrics: result
                .metrics
                .iter()
                .map(|m| {
                    (
                        m.name.clone(),
                        SampledValue {
                            value: m.value,
                            unit: m.unit.to_string(),
                            samples: m.samples,
                        },
                    )
                })
                .collect(),
        }
    }
}

/// Print the readable report, then the result line (last).
pub fn print(result: &RunResult, configuration: &str) {
    println!(
        "# workload {}  wall {:.3} s",
        result.workload, result.wall_s
    );
    println!("# {configuration}");
    for note in &result.notes {
        println!("# {note}");
    }
    for m in &result.metrics {
        println!(
            "{:<12} {:<40} {:>16.6} {:<6} samples={}",
            result.workload, m.name, m.value, m.unit, m.samples
        );
    }
    const SHOWN: usize = 10;
    for failure in result.failures.iter().take(SHOWN) {
        println!("FAILED {:?}", failure);
    }
    if result.failures.len() > SHOWN {
        println!("FAILED ... and {} more", result.failures.len() - SHOWN);
    }
    println!(
        "{}",
        serde_json::to_string(&ResultLine::of(result)).expect("result line serializes")
    );
}

#[derive(Debug, Clone, PartialEq, Deserialize)]
pub struct DeclaredWorkload {
    pub name: String,
    pub why: String,
}

#[derive(Debug, Clone, PartialEq, Deserialize)]
pub struct DeclaredEndToEnd {
    pub name: String,
    pub unit: String,
    pub better: String,
    pub bound: f64,
}

#[derive(Debug, Clone, PartialEq, Deserialize)]
pub struct DeclaredLayer {
    pub name: String,
    pub unit: String,
    pub better: String,
}

/// BENCHMARK.json, as far as the harness checks itself against it.
#[derive(Debug, Clone, PartialEq, Deserialize)]
pub struct Declared {
    pub paths: Vec<String>,
    pub run_seconds: u64,
    pub workloads: Vec<DeclaredWorkload>,
    pub end_to_end: Vec<DeclaredEndToEnd>,
    pub per_layer: Vec<DeclaredLayer>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::WORKLOADS;

    fn declared() -> Declared {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        serde_json::from_str(&text).expect("BENCHMARK.json parses")
    }

    fn well_formed(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
            && name.as_bytes()[0].is_ascii_alphanumeric()
    }

    #[test]
    fn benchmark_json_declares_what_the_harness_emits() {
        let declared = declared();
        let names: Vec<&str> = declared.workloads.iter().map(|w| w.name.as_str()).collect();
        assert_eq!(names, WORKLOADS);
        assert_eq!(declared.end_to_end.len(), END_TO_END.len());
        for (d, e) in declared.end_to_end.iter().zip(END_TO_END) {
            assert_eq!(
                (d.name.as_str(), d.unit.as_str(), d.better.as_str()),
                (e.name, e.unit, e.better)
            );
            assert_eq!(d.bound, e.bound, "{}", e.name);
            assert!(d.bound <= 0.25);
        }
        assert_eq!(declared.paths, ["benchmark"]);
        assert!((1..=60).contains(&declared.run_seconds));
    }

    #[test]
    fn declared_names_are_well_formed_and_unique() {
        let declared = declared();
        let mut names: Vec<&str> = declared
            .end_to_end
            .iter()
            .map(|m| m.name.as_str())
            .chain(declared.per_layer.iter().map(|m| m.name.as_str()))
            .chain(declared.workloads.iter().map(|w| w.name.as_str()))
            .collect();
        assert!(names.iter().all(|n| well_formed(n)), "{names:?}");
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        assert!(declared
            .workloads
            .iter()
            .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
    }

    #[test]
    fn result_line_has_exactly_the_drivers_keys() {
        let result = RunResult {
            workload: "ask_cold".into(),
            attempted: 3,
            failures: vec![Failure::Panicked],
            metrics: vec![Metric::new("setup_s", 1.25, "s", 3)],
            wall_s: 2.0,
            notes: vec![],
        };
        let line = serde_json::to_string(&ResultLine::of(&result)).unwrap();
        assert_eq!(
            line,
            "{\"correct\":false,\"attempted\":3,\"failed\":1,\
             \"metrics\":{\"setup_s\":{\"value\":1.25,\"unit\":\"s\"}}}"
        );
        assert_eq!(
            serde_json::from_str::<ResultLine>(&line).unwrap(),
            ResultLine::of(&result)
        );
    }
}
