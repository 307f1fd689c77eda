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
#
# Host CPU and faults are measured from outside the harness: python3 wraps
# every harness run and reads the run's RUSAGE_CHILDREN. Each pair also
# runs each side at --passes N and at --passes 2N (N = rusage_passes
# below); their difference over N is one pass's user CPU, system CPU and
# minor faults, set-up and warm-up cancelling out. These three columns get
# verdicts by the same rule, with the bounds of host_iter_p50_s (CPU) and
# host_peak_rss_mb (faults); they are diagnostics, so they never set the
# exit status.
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
scale=()
[ -z "${QUICK:-}" ] || { budget=(--quick); scale=(--quick); }
rusage_passes=10

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
measure() { # dir harness-args... -> {"result": last stdout line, "user_s", "sys_s", "minflt"}
    local dir=$1
    shift
    (cd "$dir" && python3 -c '
import json, resource, subprocess, sys
out = subprocess.run(sys.argv[1:], stdout=subprocess.PIPE, check=True).stdout
ru = resource.getrusage(resource.RUSAGE_CHILDREN)
print(json.dumps({"result": json.loads(out.splitlines()[-1]),
                  "user_s": ru.ru_utime, "sys_s": ru.ru_stime, "minflt": ru.ru_minflt}))
' ./benchmark/target/release/gamma-benchmark "$@")
}
run() { # side dir workload pair
    local args=(--workload "$3" --seed "$seed" --trace 0) timed short long
    timed=$(measure "$2" "${args[@]}" "${budget[@]}")
    short=$(measure "$2" "${args[@]}" "${scale[@]}" --passes "$rusage_passes")
    long=$(measure "$2" "${args[@]}" "${scale[@]}" --passes $((2 * rusage_passes)))
    printf '{"side": "%s", "workload": "%s", "pair": %s, "timed": %s, "short": %s, "long": %s}\n' \
        "$1" "$3" "$4" "$timed" "$short" "$long" >>"$runs"
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

echo "host-compare: A = $rev_a ($(basename "$dir_a" | cut -c1-10)), B = $rev_b ($(basename "$dir_b" | cut -c1-10)); seed $seed, $pairs alternating pair(s), ${budget[*]}; rusage from --passes $rusage_passes and $((2 * rusage_passes)); $(nproc) cpu(s), $(date -u +%F)"
python3 - "$manifest" "$runs" "$rusage_passes" <<'PY'
import json, statistics, sys

manifest = json.load(open(sys.argv[1]))
n = int(sys.argv[3])
bounds = {m["name"]: m["bound"] for m in manifest["end_to_end"]}
# (column, rusage field, bound borrowed from an end-to-end metric)
RUSAGE = [("user_s_per_pass", "user_s", bounds["host_iter_p50_s"]),
          ("sys_s_per_pass", "sys_s", bounds["host_iter_p50_s"]),
          ("minflt_per_pass", "minflt", bounds["host_peak_rss_mb"])]
runs = {}
failed = []
for line in open(sys.argv[2]):
    r = json.loads(line)
    values = {k: m["value"] for k, m in r["timed"]["result"]["metrics"].items()}
    for col, field, _ in RUSAGE:
        values[col] = (r["long"][field] - r["short"][field]) / n
    runs.setdefault(r["workload"], {"a": [], "b": []})[r["side"]].append(values)
    for run in ("timed", "short", "long"):
        res = r[run]["result"]
        if not res["correct"] or res["failed"]:
            failed.append(f"{r['workload']} side {r['side']} pair {r['pair']} ({run} run): "
                          f"{res['failed']} of {res['attempted']} failed")

def quartiles(v):
    if len(v) < 2:
        return v[0], v[0]
    q1, _, q3 = statistics.quantiles(v, n=4)
    return q1, q3

worse_rows, listing = [], []
print(f"{'workload':<14} {'metric':<23} {'median A':>12} {'median B':>12} {'B vs A':>8} "
      f"{'A q1..q3':>23} {'B q1..q3':>23} {'B won':>6} {'bound':>5}  verdict")
columns = [(m["name"], m["bound"], m["better"] == "lower", True) for m in manifest["end_to_end"]]
columns += [(col, bound, True, False) for col, _, bound in RUSAGE]
for w, sides in runs.items():
    for name, bound, lower, gated in columns:
        a = [v[name] for v in sides["a"]]
        b = [v[name] for v in sides["b"]]
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
            if gated:
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
