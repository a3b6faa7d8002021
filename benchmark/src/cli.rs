//! Command-line arguments shared by the `bench` and `trace` binaries.

use crate::config::{Scale, WORKLOADS};

#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// One of [`WORKLOADS`], or `all`.
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub scale: Scale,
    pub check: bool,
    pub out: Option<String>,
}

pub const USAGE: &str = "usage: benchmark/run.sh [--workload NAME|all] [--seed N] [--seconds S] \
                         [--trace [0|1]] [--smoke | --scale gated|smoke|paper] [--check] [--out FILE]";

/// Parse the arguments after the program name. `--trace` is accepted
/// and ignored here: `run.sh` uses it to choose the binary.
pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        workload: "all".into(),
        seed: 42,
        seconds: 8.0,
        scale: Scale::gated(),
        check: false,
        out: None,
    };
    let mut args = args.into_iter().peekable();
    while let Some(flag) = args.next() {
        let mut value = |name: &str| args.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => parsed.workload = value("--workload")?,
            "--seed" => {
                parsed.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed needs a whole number".to_string())?
            }
            "--seconds" => {
                parsed.seconds = value("--seconds")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds needs a positive number".to_string())?
            }
            "--trace" => {
                if matches!(args.peek().map(String::as_str), Some("0" | "1")) {
                    args.next();
                }
            }
            "--smoke" => parsed.scale = Scale::smoke(),
            "--scale" => {
                parsed.scale = match value("--scale")?.as_str() {
                    "gated" => Scale::gated(),
                    "smoke" => Scale::smoke(),
                    "paper" => Scale::paper(),
                    other => return Err(format!("unknown scale `{other}`")),
                }
            }
            "--check" => parsed.check = true,
            "--out" => parsed.out = Some(value("--out")?),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if parsed.workload != "all" && !WORKLOADS.contains(&parsed.workload.as_str()) {
        return Err(format!(
            "unknown workload `{}` (one of {WORKLOADS:?} or all)",
            parsed.workload
        ));
    }
    Ok(parsed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Result<Args, String> {
        parse(line.split_whitespace().map(String::from))
    }

    #[test]
    fn the_driver_form_parses() {
        let a = args("--workload ask_hot --seed 7 --seconds 8 --trace 0").unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds),
            ("ask_hot", 7, 8.0)
        );
        assert_eq!(a.scale, Scale::gated());
    }

    #[test]
    fn bare_trace_flag_and_smoke_parse() {
        let a = args("--trace --smoke --workload live_update").unwrap();
        assert_eq!(a.scale, Scale::smoke());
        assert_eq!(a.workload, "live_update");
    }

    #[test]
    fn bad_input_is_refused() {
        assert!(args("--workload nope").is_err());
        assert!(args("--seconds 0").is_err());
        assert!(args("--seed").is_err());
        assert!(args("--frobnicate").is_err());
    }
}
