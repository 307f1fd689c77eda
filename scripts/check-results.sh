#!/usr/bin/env bash
# The raw outputs under results/ are regenerated, not claimed.
#
# README and EXPERIMENTS.md call `results/figures_full.txt` and
# `results/ablations.txt` "raw regenerated outputs"; this guard makes that
# true by regenerating both (stdout only, full scale, serial executor —
# about a minute) into a temp dir and `cmp`ing them with the committed
# copies. Every row is virtual time from a deterministic engine, so any
# difference is a model change: either fix it or re-record the file in
# the same commit and say in EXPERIMENTS.md which rows moved and why.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --offline -p gamma-bench --bin figures --bin ablations

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

env -u GAMMA_POOL ./target/release/figures --plot all >"$tmp/figures_full.txt" 2>/dev/null
env -u GAMMA_POOL ./target/release/ablations all >"$tmp/ablations.txt" 2>/dev/null

fail=0
for f in figures_full.txt ablations.txt; do
    if ! cmp -s "$tmp/$f" "results/$f"; then
        echo "error: results/$f is stale — regenerated output differs:" >&2
        diff "results/$f" "$tmp/$f" | head -n 20 >&2 || true
        fail=1
    fi
done
[ "$fail" -eq 0 ] || exit 1
echo "results OK: figures_full.txt and ablations.txt regenerate byte-identically"
