//! End-to-end smoke of the harness itself: both binaries, all four
//! workloads at `--smoke` scale (300 documents), every check on. It
//! keeps the harness from rotting silently; it compares no timing.

use std::collections::BTreeSet;
use std::process::Command;

use uniask_benchmark::config::WORKLOADS;
use uniask_benchmark::report::{Declared, ResultLine};

fn declared() -> Declared {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    serde_json::from_str(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("parses")
}

/// Run one binary on one workload and return its result line.
fn run(exe: &str, workload: &str, extra: &[&str]) -> ResultLine {
    let output = Command::new(exe)
        .args([
            "--workload",
            workload,
            "--smoke",
            "--seconds",
            "1",
            "--seed",
            "7",
        ])
        .args(extra)
        // The traced run writes its span file under the target directory.
        .env("CARGO_TARGET_DIR", env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "{exe} {workload} exited with {:?}:\n{stdout}\n{}",
        output.status.code(),
        String::from_utf8_lossy(&output.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    serde_json::from_str(last).unwrap_or_else(|e| panic!("result line `{last}`: {e}"))
}

fn names(line: &ResultLine) -> BTreeSet<&str> {
    line.metrics.keys().map(String::as_str).collect()
}

#[test]
fn every_workload_runs_timed_and_traced_with_all_checks_passing() {
    let declared = declared();
    let end_to_end: BTreeSet<&str> = declared
        .end_to_end
        .iter()
        .map(|m| m.name.as_str())
        .collect();
    let per_layer: BTreeSet<&str> = declared.per_layer.iter().map(|m| m.name.as_str()).collect();

    for workload in WORKLOADS {
        let timed = run(env!("CARGO_BIN_EXE_bench"), workload, &[]);
        assert!(timed.correct && timed.failed == 0, "{workload}: {timed:?}");
        assert!(timed.attempted >= 1);
        assert_eq!(names(&timed), end_to_end, "{workload}: end-to-end names");
        for (name, metric) in &timed.metrics {
            let unit = &declared
                .end_to_end
                .iter()
                .find(|m| &m.name == name)
                .unwrap()
                .unit;
            assert_eq!(&metric.unit, unit, "{workload} {name}");
            assert!(
                metric.value.is_finite() && metric.value > 0.0,
                "{workload} {name} = {} (end-to-end metrics are never 0)",
                metric.value
            );
        }

        let traced = run(env!("CARGO_BIN_EXE_trace"), workload, &[]);
        assert!(
            traced.correct && traced.failed == 0,
            "{workload}: {traced:?}"
        );
        assert_eq!(names(&traced), per_layer, "{workload}: per-layer names");
        assert!(traced.metrics.values().all(|m| m.value.is_finite()));
        let spans = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"))
            .join(format!("benchmark/trace_{workload}.json"));
        let spans = std::fs::read_to_string(&spans).expect("the span file was written");
        assert!(spans.starts_with('[') && spans.contains("\"request_id\""));
    }
}

#[test]
fn out_file_carries_samples_and_the_frozen_configuration() {
    let out = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke_out.jsonl");
    let _ = std::fs::remove_file(&out);
    run(
        env!("CARGO_BIN_EXE_bench"),
        "ask_hot",
        &["--out", out.to_str().expect("utf-8 path")],
    );
    let record = std::fs::read_to_string(&out).expect("--out was written");
    for needle in [
        "\"workload\":\"ask_hot\"",
        "\"samples\":",
        "documents=300",
        "\"wall_s\":",
    ] {
        assert!(record.contains(needle), "`{needle}` missing from {record}");
    }
}
