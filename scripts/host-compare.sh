#!/usr/bin/env bash
# Paired host-clock comparison of two revisions (EXPERIMENTS.md "Host
# profile", ROADMAP item 1 step 0): PR 14's hand method as a tool.
#
#   scripts/host-compare.sh REV_A REV_B [WORKLOAD...]
#
# REV_A is the parent, REV_B the change (any commit-ish; `git stash create`
# names an uncommitted tree). Each revision's committed files are exported
# with `git archive` to target/host-compare/<sha>/ — what the benchmark
# driver measures — and that tree's own, unmodified benchmark/ package is
# built there once (a second call reuses the build). Every workload (default:
# all of BENCHMARK.json) then runs PAIRS alternating pairs, the side that
# goes first alternating too, spans off.
#
# Environment: PAIRS (10), SEED (1989), RUN_SECONDS (BENCHMARK.json's
# run_seconds), QUICK=1 (the harness's --quick smoke scale, for CI).
#
# Per end-to-end metric x workload it prints both medians, both quartile
# pairs, the pairs B won, and a verdict by the rule of the choosing-metrics
# guide: `better` needs B to win at least nine tenths of the pairs and the
# medians to differ by more than A's own quartile distance; `WORSE` is a
# median worse than BENCHMARK.json's bound with the runs apart; a
# difference inside the spread is `unresolved`, never "unchanged". Every
# run's value follows the table. Raw result lines land beside the
# checkouts in target/host-compare/ (ignored). Exit status is non-zero
# when an operation failed or a verdict is WORSE.
set -euo pipefail
cd "$(dirname "$0")/.."

[ $# -ge 2 ] || { sed -n '2,6p' "$0" >&2; exit 2; }
rev_a=$1 rev_b=$2
shift 2
pairs=${PAIRS:-10}
seed=${SEED:-1989}
manifest=$PWD/BENCHMARK.json
seconds=${RUN_SECONDS:-$(python3 -c "import json,sys; print(json.load(open(sys.argv[1]))['run_seconds'])" "$manifest")}
workloads=${*:-$(python3 -c "import json,sys; print(' '.join(w['name'] for w in json.load(open(sys.argv[1]))['workloads']))" "$manifest")}
budget=(--seconds "$seconds")
[ -z "${QUICK:-}" ] || budget=(--quick)

out=$PWD/target/host-compare
mkdir -p "$out"
checkout() { # rev -> prints the export directory, built
    local sha dir
    sha=$(git rev-parse --verify --quiet "$1^{commit}") || { echo "unknown revision $1" >&2; exit 2; }
    dir=$out/$sha
    if [ ! -x "$dir/benchmark/target/release/gamma-benchmark" ]; then
        rm -rf "$dir" && mkdir -p "$dir"
        git archive "$sha" | tar -x -C "$dir"
        cargo build --release --offline --quiet --manifest-path "$dir/benchmark/Cargo.toml" >&2
    fi
    echo "$dir"
}
dir_a=$(checkout "$rev_a")
dir_b=$(checkout "$rev_b")

runs=$out/runs-$(basename "$dir_a" | cut -c1-10)-$(basename "$dir_b" | cut -c1-10)-seed$seed.jsonl
: >"$runs"
run() { # side dir workload pair
    local line
    line=$(cd "$2" && ./benchmark/target/release/gamma-benchmark \
        --workload "$3" --seed "$seed" "${budget[@]}" --trace 0 | tail -n 1)
    printf '{"side": "%s", "workload": "%s", "pair": %s, "result": %s}\n' "$1" "$3" "$4" "$line" >>"$runs"
}
for w in $workloads; do
    for pair in $(seq 1 "$pairs"); do
        if [ $((pair % 2)) -eq 1 ]; then
            run a "$dir_a" "$w" "$pair"; run b "$dir_b" "$w" "$pair"
        else
            run b "$dir_b" "$w" "$pair"; run a "$dir_a" "$w" "$pair"
        fi
    done
    echo "$w: $pairs pair(s) done" >&2
done

echo "host-compare: A = $rev_a ($(basename "$dir_a" | cut -c1-10)), B = $rev_b ($(basename "$dir_b" | cut -c1-10)); seed $seed, $pairs alternating pair(s), ${budget[*]}; $(nproc) cpu(s), $(date -u +%F)"
python3 - "$manifest" "$runs" <<'PY'
import json, statistics, sys

manifest = json.load(open(sys.argv[1]))
runs = {}
failed = []
for line in open(sys.argv[2]):
    r = json.loads(line)
    runs.setdefault(r["workload"], {"a": [], "b": []})[r["side"]].append(r["result"])
    if not r["result"]["correct"] or r["result"]["failed"]:
        failed.append(f"{r['workload']} side {r['side']} pair {r['pair']}: "
                      f"{r['result']['failed']} of {r['result']['attempted']} failed")

def quartiles(v):
    if len(v) < 2:
        return v[0], v[0]
    q1, _, q3 = statistics.quantiles(v, n=4)
    return q1, q3

worse_rows, listing = [], []
print(f"{'workload':<14} {'metric':<23} {'median A':>12} {'median B':>12} {'B vs A':>8} "
      f"{'A q1..q3':>23} {'B q1..q3':>23} {'B won':>6} {'bound':>5}  verdict")
for w, sides in runs.items():
    for m in manifest["end_to_end"]:
        name, bound, lower = m["name"], m["bound"], m["better"] == "lower"
        a = [r["metrics"][name]["value"] for r in sides["a"]]
        b = [r["metrics"][name]["value"] for r in sides["b"]]
        ma, mb = statistics.median(a), statistics.median(b)
        (a1, a3), (b1, b3) = quartiles(a), quartiles(b)
        better = lambda x, y: x < y if lower else x > y
        won = sum(better(y, x) for x, y in zip(a, b))
        lost = sum(better(x, y) for x, y in zip(a, b))
        change = (mb - ma) / ma if ma else 0.0
        worse_by = change if lower else -change
        apart = all(better(x, y) for x in a for y in b)  # every A run beats every B run
        if a == b:
            verdict = "equal, run by run"
        elif won * 10 >= 9 * len(a) and abs(mb - ma) > a3 - a1:
            verdict = "better"
        elif worse_by > bound and (apart or abs(mb - ma) > max(a3 - a1, b3 - b1)):
            verdict = "WORSE than the bound"
            worse_rows.append(f"{w} {name}")
        elif lost * 10 >= 9 * len(a) and abs(mb - ma) > a3 - a1:
            verdict = "worse, within the bound"
        else:
            verdict = "unresolved"
        print(f"{w:<14} {name:<23} {ma:>12.6g} {mb:>12.6g} {change:>+8.1%} "
              f"{a1:>11.6g}..{a3:<10.6g} {b1:>11.6g}..{b3:<10.6g} {won:>3}/{len(a):<2} {bound:>5.0%}  {verdict}")
        if a != b or len(set(a)) > 1:
            fmt = lambda v: " ".join(f"{x:.6g}" for x in v)
            listing.append(f"{w} {name}\n  A: {fmt(a)}\n  B: {fmt(b)}")

print("\nevery run, pair by pair (metrics that are equal run by run and pass to pass omitted):")
print("\n".join(listing))
for f in failed:
    print("FAILED: " + f)
if failed or worse_rows:
    print(f"\n{len(failed)} failed run(s); worse than the bound: {', '.join(worse_rows) or 'none'}")
    sys.exit(1)
print("\nno failed operation; no metric resolved worse than its bound")
PY
