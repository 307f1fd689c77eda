#!/usr/bin/env bash
# The worker pool is unobservable: every deterministic artifact comes out
# byte-identical at any pool size.
#
# Usage: scripts/pool-invariance.sh   (no arguments; about a minute)
#
# Builds the bench binaries once, writes every serial reference with
# GAMMA_POOL unset, then reruns each invocation at GAMMA_POOL=1, 2 and 8 and
# `cmp`s the result with its reference. GAMMA_POOL=1 is the serial executor,
# so that pass is also the run-twice determinism check. Everything is
# written under a temp dir; the committed results/ are never touched.
#
# Artifacts (serial reference vs each pool size 1, 2, 8):
#   joinabprime --scale 0.05                  the bench JSON
#   serve --a-rows 2000 --queries 12          the serve sweep JSON
#   serve --explain --a-rows 2000 --queries 8 the EXPLAIN report
#   skew --a-rows 2000 --bprime-rows 200      the skew grid JSON
#   prof hybrid 0.5 4000                      every flight-recorder export
#   trace hybrid 0.5 / grace 0.2 / sort-merge 1.0
#                                             Perfetto JSON + summary .txt
#   regress --write --snapshots               metrics-*.{json,prom} and
#                                             prof-*.json snapshots (the
#                                             run also byte-gates the
#                                             committed BENCH_*.json,
#                                             Gates 1, 3 and 4, at each size)
#
# It replaces seven CI jobs; each compare they made is one of the above:
#   trace-determinism           trace hybrid 0.5, two serial runs      -> pool 1
#   parallel-vs-serial          the three traces, serial vs 2          -> pool 2
#   metrics-parallel-vs-serial  regress snapshots, serial vs 2         -> pool 2
#   serve-smoke                 serve, two serial runs and serial vs 2 -> pools 1, 2
#   skew-smoke                  skew, serial vs 2                      -> pool 2
#   prof-smoke                  prof and serve --explain, two serial
#                               runs and serial vs 2                   -> pools 1, 2
#   pool-matrix                 joinabprime, serve, trace hybrid 0.5,
#                               regress snapshots, serial vs 1, 2, 8   -> pools 1, 2, 8
set -euo pipefail
cd "$(dirname "$0")/.."
root=$PWD
bin=$root/target/release

cargo build --release --offline -p gamma-bench \
    --bin joinabprime --bin serve --bin skew --bin prof --bin trace --bin regress

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# Write every artifact into directory $1 at the GAMMA_POOL in force.
artifacts() {
    local out=$1
    mkdir -p "$out/results"
    "$bin/joinabprime" --scale 0.05 --out "$out/bench.json" >/dev/null
    "$bin/serve" --a-rows 2000 --queries 12 --out "$out/serve.json" >/dev/null
    "$bin/serve" --explain --a-rows 2000 --queries 8 --out "$out/explain.txt" >/dev/null
    "$bin/skew" --a-rows 2000 --bprime-rows 200 --out "$out/skew.json" >/dev/null
    "$bin/prof" hybrid 0.5 4000 --out-dir "$out/prof" >/dev/null
    # `trace` writes under ./results, so it runs in the output dir.
    for point in "hybrid 0.5" "grace 0.2" "sort-merge 1.0"; do
        # shellcheck disable=SC2086 # algorithm and ratio are two arguments
        (cd "$out" && "$bin/trace" $point >/dev/null)
    done
    # The alloc ceilings (serial only) go outside the compared tree.
    "$bin/regress" --write --snapshots "$out/snapshots" \
        --alloc-baseline "$tmp/alloc-$(basename "$out").json" >/dev/null
}

unset GAMMA_POOL
artifacts "$tmp/serial"
count=$(find "$tmp/serial" -type f | wc -l)

fail=0
for pool in 1 2 8; do
    export GAMMA_POOL=$pool
    artifacts "$tmp/pool$pool"
    if ! diff -r "$tmp/serial" "$tmp/pool$pool" >"$tmp/diff$pool" 2>&1; then
        echo "error: GAMMA_POOL=$pool changed artifacts:" >&2
        head -n 20 "$tmp/diff$pool" >&2
        fail=1
    fi
done
[ "$fail" -eq 0 ] || exit 1
echo "pool invariance OK: $count artifacts byte-identical to serial at GAMMA_POOL=1, 2 and 8"
