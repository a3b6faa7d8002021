#!/usr/bin/env bash
# Dependency hygiene (advisory): supply-chain checks for the workspace.
#
#   ./scripts/deps_hygiene.sh
#
# Uses cargo-deny or cargo-audit when installed; otherwise falls back to
# offline-safe checks built from cargo itself: duplicate dependency
# versions and non-registry (git/path/wildcard) requirements. Always
# exits 0 — CI runs it as a non-blocking advisory job; read the log.

set -uo pipefail
cd "$(dirname "$0")/.."

status=0

if command -v cargo-deny >/dev/null 2>&1; then
    echo "==> cargo deny check"
    cargo deny check || status=$?
elif command -v cargo-audit >/dev/null 2>&1; then
    echo "==> cargo audit"
    cargo audit || status=$?
else
    echo "==> cargo-deny/cargo-audit not installed; offline checks only"

    echo "==> duplicate dependency versions (cargo tree -d)"
    if dupes=$(cargo tree -d --workspace --locked --offline 2>/dev/null); then
        if [ -n "$dupes" ]; then
            echo "$dupes"
            echo "note: duplicated crates above inflate build time and audit surface"
            status=1
        else
            echo "none"
        fi
    else
        echo "cargo tree unavailable (offline resolution failed); skipped"
    fi

    echo "==> wildcard version requirements"
    if grep -rn --include=Cargo.toml -E '^[a-zA-Z0-9_-]+ *= *"\*"' . ; then
        echo "note: wildcard requirements defeat reproducible builds"
        status=1
    else
        echo "none"
    fi

    echo "==> git/path dependencies outside the workspace"
    if grep -rn --include=Cargo.toml -E 'git *= *"' . ; then
        echo "note: git dependencies bypass the registry's audit trail"
        status=1
    else
        echo "none"
    fi
fi

if [ "$status" -ne 0 ]; then
    echo "deps-hygiene: findings above (advisory, not blocking)"
else
    echo "deps-hygiene: OK"
fi
exit 0
