#!/usr/bin/env bash
# The raw outputs under results/ are regenerated, not claimed.
#
# README and EXPERIMENTS.md call `results/figures_full.txt`,
# `results/ablations.txt` and the `results/trace-*.txt` critical-path
# summaries "raw regenerated outputs"; this guard makes that true by
# regenerating them (full scale, serial executor — about a minute) into a
# temp dir and `cmp`ing them with the committed copies. Every row is
# virtual time from a deterministic engine, so any difference is a model
# change: either fix it or re-record the file in the same commit and say
# in EXPERIMENTS.md which rows moved and why.
set -euo pipefail
cd "$(dirname "$0")/.."
root=$PWD

cargo build --release --offline -p gamma-bench --bin figures --bin ablations --bin trace

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/results"

env -u GAMMA_POOL ./target/release/figures --plot all >"$tmp/results/figures_full.txt" 2>/dev/null
env -u GAMMA_POOL ./target/release/ablations all >"$tmp/results/ablations.txt" 2>/dev/null
# `trace` writes under ./results, so it runs in the temp dir.
for point in "hybrid 0.5" "grace 0.2" "sort-merge 1.0"; do
    # shellcheck disable=SC2086 # algorithm and ratio are two arguments
    (cd "$tmp" && env -u GAMMA_POOL "$root/target/release/trace" $point >/dev/null)
done

fail=0
for f in figures_full.txt ablations.txt trace-hybrid-r50.txt trace-grace-r20.txt \
         trace-sort-merge-r100.txt; do
    if ! cmp -s "$tmp/results/$f" "results/$f"; then
        echo "error: results/$f is stale — regenerated output differs:" >&2
        diff "results/$f" "$tmp/results/$f" | head -n 20 >&2 || true
        fail=1
    fi
done
[ "$fail" -eq 0 ] || exit 1
echo "results OK: figures_full.txt, ablations.txt and the three trace-*.txt summaries regenerate byte-identically"
