#!/usr/bin/env bash
# A/A check: measure the same commit twice and hold the benchmark to its own
# bounds. Two sets (A, B); each set runs every workload of BENCHMARK.json
# once per seed (spans off). For every end-to-end metric x workload it prints
# the two medians, the spread between seeds (quartile distance / median, as
# Python's statistics.quantiles(n=4) gives it) and the verdict:
#
#   - median(B) may not be worse than median(A) by more than the bound;
#   - the spread of either set may not exceed the bound (setup_s excepted);
#   - virt_*, host_allocs_per_iter and host_alloc_mb_per_iter must agree
#     exactly seed by seed (the serial executor is deterministic; pool2's
#     allocation counts, taken between pooled passes, are held to the bound
#     instead), and no operation may fail.
#
# Usage: benchmark/aa.sh [SEEDS_PER_SET=10] [SECONDS=run_seconds]
# Exit status is non-zero on any violation. The table goes to standard output;
# raw result lines go to benchmark/out/aa-{A,B}.jsonl.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
seeds="${1:-10}"
manifest="$root/BENCHMARK.json"
seconds="${2:-$(python3 -c "import json,sys; print(json.load(open(sys.argv[1]))['run_seconds'])" "$manifest")}"

cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml"
bin="${CARGO_TARGET_DIR:-$here/target}/release/gamma-benchmark"
mkdir -p "$here/out"

workloads="$(python3 -c "import json,sys; print(' '.join(w['name'] for w in json.load(open(sys.argv[1]))['workloads']))" "$manifest")"
for set in A B; do
    : > "$here/out/aa-$set.jsonl"
    for w in $workloads; do
        for seed in $(seq 1 "$seeds"); do
            # Seed 1989 first: the seed every committed artifact uses.
            s=$((seed == 1 ? 1989 : seed))
            line="$("$bin" --workload "$w" --seed "$s" --seconds "$seconds" --trace 0 | tail -n 1)"
            printf '{"workload": "%s", "seed": %s, "result": %s}\n' "$w" "$s" "$line" \
                >> "$here/out/aa-$set.jsonl"
        done
        echo "set $set: $w done" >&2
    done
done

python3 - "$manifest" "$here/out/aa-A.jsonl" "$here/out/aa-B.jsonl" <<'PY'
import json, statistics, sys

manifest = json.load(open(sys.argv[1]))
sets = []
for path in sys.argv[2:4]:
    runs = {}
    for line in open(path):
        r = json.loads(line)
        runs.setdefault(r["workload"], []).append(r)
    sets.append(runs)
a_runs, b_runs = sets

EXACT = ("virt_", "host_allocs_per_iter", "host_alloc_mb_per_iter")

def spread(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)

violations = []
print(f"{'workload':<14} {'metric':<24} {'median A':>14} {'median B':>14} "
      f"{'B worse by':>10} {'spread A':>9} {'spread B':>9} {'bound':>6}  verdict")
for w in (w["name"] for w in manifest["workloads"]):
    for r in a_runs[w] + b_runs[w]:
        res = r["result"]
        if not res["correct"] or res["failed"]:
            violations.append(f"{w} seed {r['seed']}: {res['failed']} of {res['attempted']} failed")
    for m in manifest["end_to_end"]:
        name, bound = m["name"], m["bound"]
        va = [r["result"]["metrics"][name]["value"] for r in a_runs[w]]
        vb = [r["result"]["metrics"][name]["value"] for r in b_runs[w]]
        ma, mb = statistics.median(va), statistics.median(vb)
        worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
        sa, sb = spread(va), spread(vb)
        bad = []
        if worse > bound:
            bad.append("median")
        if name != "setup_s" and max(sa, sb) > bound:
            bad.append("spread")
        if name.startswith(EXACT) and va != vb and not (w == "pool2" and name.startswith("host_alloc")):
            bad.append("not exact")
        verdict = "ok" if not bad else "VIOLATION: " + ", ".join(bad)
        if bad:
            violations.append(f"{w} {name}: {', '.join(bad)}")
        print(f"{w:<14} {name:<24} {ma:>14.6g} {mb:>14.6g} {worse:>+10.2%} "
              f"{sa:>9.2%} {sb:>9.2%} {bound:>6.0%}  {verdict}")

print()
if violations:
    print(f"{len(violations)} violation(s):")
    for v in violations:
        print("  " + v)
    sys.exit(1)
print("A/A holds: every end-to-end metric x workload within its bound, "
      "deterministic metrics exactly equal, no failed operation")
PY
