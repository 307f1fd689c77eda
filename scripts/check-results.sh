#!/usr/bin/env bash
# The raw outputs under results/ are regenerated, not claimed.
#
# README and EXPERIMENTS.md call `results/figures_full.txt`,
# `results/ablations.txt` and the `results/trace-*.txt` critical-path
# summaries "raw regenerated outputs"; this guard makes that true by
# regenerating them (full scale, serial executor — about a minute) into a
# temp dir and `cmp`ing them with the committed copies. The same goes for
# `BENCH_joinabprime.json`, regress Gate 1's baseline: `joinabprime`
# writes only deterministic fields, so a fresh full-scale run (seconds)
# must match it byte for byte, where Gate 1 alone would let a point drift
# 1 %. Every row is virtual time from a deterministic engine, so any
# difference is a model change: either fix it or re-record the file in
# the same commit and say in EXPERIMENTS.md which rows moved and why.
set -euo pipefail
cd "$(dirname "$0")/.."
root=$PWD

cargo build --release --offline -p gamma-bench --bin figures --bin ablations --bin trace \
    --bin joinabprime

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
env -u GAMMA_POOL ./target/release/joinabprime --out "$tmp/BENCH_joinabprime.json" >/dev/null

fail=0
for f in results/figures_full.txt results/ablations.txt results/trace-hybrid-r50.txt \
         results/trace-grace-r20.txt results/trace-sort-merge-r100.txt BENCH_joinabprime.json; do
    if ! cmp -s "$tmp/$f" "$f"; then
        echo "error: $f is stale — regenerated output differs:" >&2
        diff "$f" "$tmp/$f" | head -n 20 >&2 || true
        fail=1
    fi
done
[ "$fail" -eq 0 ] || exit 1
echo "results OK: figures_full.txt, ablations.txt, the three trace-*.txt summaries and BENCH_joinabprime.json regenerate byte-identically"
