//! The gated benchmark binary: one workload per invocation (the form
//! the driver uses), or `all`, or `--check`.

use std::io::Write;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use uniask_benchmark::cli::{self, Args};
use uniask_benchmark::config::WORKLOADS;
use uniask_benchmark::report::{self, Record, ResultLine, END_TO_END};
use uniask_benchmark::workloads;

fn main() -> ExitCode {
    let args = match cli::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}\n{}", cli::USAGE);
            return ExitCode::from(2);
        }
    };
    let ok = if args.check {
        check(&args)
    } else if args.workload == "all" {
        let started = Instant::now();
        // Every workload runs, whatever the ones before it did.
        let mut ok = true;
        for workload in WORKLOADS {
            ok &= child(&args, workload, args.seed).is_some_and(|line| line.correct);
        }
        println!(
            "# all workloads  wall {:.3} s",
            started.elapsed().as_secs_f64()
        );
        ok
    } else {
        let result = workloads::run(&args.workload, args.seed, args.seconds, &args.scale);
        let configuration = args.scale.describe(args.seed, args.seconds);
        if let Some(path) = &args.out {
            if let Err(e) = append_record(path, &result, &configuration) {
                eprintln!("cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
        report::print(&result, &configuration);
        result.correct()
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Append one JSON line per run to `--out`.
fn append_record(
    path: &str,
    result: &report::RunResult,
    configuration: &str,
) -> std::io::Result<()> {
    let record =
        serde_json::to_string(&Record::of(result, configuration)).expect("the record serializes");
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    writeln!(file, "{record}")
}

/// Run one workload in a process of its own (a fresh address space, so
/// that `rss_after_build_mb` means the same as in a driver run), echo
/// what it prints and return its result line.
fn child(args: &Args, workload: &str, seed: u64) -> Option<ResultLine> {
    let exe = std::env::current_exe().expect("own path");
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload, "--scale", args.scale.name])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .stdout(Stdio::piped());
    if let Some(path) = &args.out {
        command.args(["--out", path]);
    }
    let output = command.output().expect("benchmark child process runs");
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    serde_json::from_str(stdout.lines().last()?).ok()
}

/// `--check`: every workload twice on the same seed and once on the
/// next one. Two runs of the same code must agree within each metric's
/// own bound (exactly, for the deterministic ones), and nothing may
/// fail on either seed.
fn check(args: &Args) -> bool {
    let workloads: Vec<&str> = match args.workload.as_str() {
        "all" => WORKLOADS.to_vec(),
        one => vec![one],
    };
    let mut ok = true;
    let mut table = Vec::new();
    for workload in workloads {
        let runs: Vec<Option<ResultLine>> = [args.seed, args.seed, args.seed + 1]
            .iter()
            .map(|&seed| child(args, workload, seed))
            .collect();
        for (label, run) in ["first", "second", "other seed"].iter().zip(&runs) {
            match run {
                Some(line) if line.correct && line.failed == 0 => {}
                _ => {
                    ok = false;
                    table.push(format!("{workload:<12} {label} run FAILED"));
                }
            }
        }
        let (Some(a), Some(b)) = (&runs[0], &runs[1]) else {
            continue;
        };
        for metric in END_TO_END {
            let (Some(x), Some(y)) = (a.metrics.get(metric.name), b.metrics.get(metric.name))
            else {
                ok = false;
                table.push(format!("{workload:<12} {:<24} MISSING", metric.name));
                continue;
            };
            let spread = (x.value - y.value).abs() / x.value.abs().max(f64::MIN_POSITIVE);
            let within = if metric.deterministic {
                x.value == y.value
            } else {
                spread <= metric.bound
            };
            ok &= within;
            table.push(format!(
                "{workload:<12} {:<24} {:>14.6} {:>14.6} {:<6} spread {:>7.4} bound {:<5} {}",
                metric.name,
                x.value,
                y.value,
                metric.unit,
                spread,
                if metric.deterministic {
                    "exact".to_string()
                } else {
                    metric.bound.to_string()
                },
                if within { "ok" } else { "OUT OF BOUND" }
            ));
        }
    }
    println!(
        "# --check: two runs on seed {}, one on seed {}",
        args.seed,
        args.seed + 1
    );
    for row in table {
        println!("{row}");
    }
    println!("# --check {}", if ok { "passed" } else { "FAILED" });
    ok
}
