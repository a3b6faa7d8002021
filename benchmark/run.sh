#!/usr/bin/env bash
# The one benchmark command:
#   benchmark/run.sh [--workload NAME|all] [--seed N] [--seconds S] [--trace [0|1]]
#                    [--smoke | --scale gated|smoke|paper] [--check] [--out FILE]
# Builds the benchmark package offline (stand-ins under benchmark/standins
# replace the registry crates) and runs the gated binary, or with
# `--trace 1` the traced one. The last line of standard output is the
# result as one JSON object; the exit code is non-zero when a check failed.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"

# Share the repository's target directory unless the caller chose one,
# so the workspace crates are not compiled twice.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$(dirname "$here")/target}"

bin=bench
previous=""
for arg in "$@"; do
    if [ "$arg" = "--trace" ]; then bin=trace; fi
    if [ "$previous" = "--trace" ] && [ "$arg" = "0" ]; then bin=bench; fi
    previous="$arg"
done

cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" --bin "$bin" >&2
exec "$CARGO_TARGET_DIR/release/$bin" "$@"
