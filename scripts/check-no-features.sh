#!/usr/bin/env bash
# One build (DESIGN.md §8 and §13, EXPERIMENTS.md "One build").
#
# The workspace compiles exactly one way: trace and metrics hooks are
# ordinary calls that no-op through a thread-local `Option` when no sink
# or registry is installed, and the executor is chosen at run time
# (`GAMMA_POOL`, `ExecConfig`). This guard fails if a cargo feature comes
# back — a `cfg(feature = ...)` / `cfg_attr(..., feature ...)` /
# `cfg!(feature ...)` site in the sources, or a `[features]` table or an
# `optional = true` dependency in a workspace manifest — because every
# independent build switch doubles what the tests, gates and benchmark
# must cover.
set -euo pipefail
cd "$(dirname "$0")/.."

fail=0

hits=$(grep -rnE 'cfg(_attr)?!?\(.*feature' crates src tests examples --include='*.rs' || true)
if [ -n "$hits" ]; then
    echo "error: cfg(feature) sites re-introduce a second build:" >&2
    echo "$hits" | sed 's|^|  |' >&2
    fail=1
fi

hits=$(grep -nE '^\[features\]|optional *= *true' Cargo.toml crates/*/Cargo.toml crates/compat/*/Cargo.toml || true)
if [ -n "$hits" ]; then
    echo "error: workspace manifests declare cargo features or optional dependencies:" >&2
    echo "$hits" | sed 's|^|  |' >&2
    fail=1
fi

if [ "$fail" -ne 0 ]; then
    echo >&2
    echo "Make the behaviour unconditional, or select it at run time from" >&2
    echo "something the program can observe (see ExecConfig / GAMMA_POOL)." >&2
    exit 1
fi
echo "one build OK: no cfg(feature) sites, no [features] tables, no optional dependencies"
