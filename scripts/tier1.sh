#!/usr/bin/env bash
# Tier-1 verification: the gate every PR must pass (see ROADMAP.md).
#
#   ./scripts/tier1.sh
#
# Builds the workspace in release mode, runs the full test suite, smokes
# the repository benchmark and its traced binary on every workload (so a
# signature it depends on cannot change unnoticed), checks the memory floors and lints the whole workspace
# with clippy at -D warnings. Needs no network: every external crate is
# patched to its stand-in and Cargo.lock is complete.

set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release --locked --offline

echo "==> cargo test -q"
cargo test -q --locked --offline

# benchmark/run.sh builds without --locked, so a change to a product
# crate's [dependencies] would silently rewrite the tracked
# benchmark/Cargo.lock during the smoke below. Build every benchmark
# binary locked first, so such a change fails here instead, and so does
# a product API change that breaks the `trace` binary, which the smoke
# does not run.
echo "==> benchmark build (all binaries, --locked against benchmark/Cargo.lock)"
cargo build --release --locked --offline --manifest-path benchmark/Cargo.toml --bins

echo "==> benchmark smoke (builds against the product API, runs its correctness checks)"
bash benchmark/run.sh --smoke

# The traced binary takes one workload at a time. Running it executes
# the staged replays and layer probes (checkpoint, save, recover) that
# the gated smoke above does not, and checks what they return.
for workload in ask_cold ask_hot ingest_bulk live_update; do
    echo "==> traced benchmark smoke ($workload)"
    bash benchmark/run.sh --trace 1 --smoke --workload "$workload"
done

echo "==> memory footprint floors (10k-doc corpus)"
cargo test --release -q --locked --offline --test memory_footprint -- --ignored --nocapture

echo "==> cargo clippy -D warnings (workspace)"
cargo clippy --workspace --all-targets --locked --offline -- -D warnings

echo "tier1: OK"
