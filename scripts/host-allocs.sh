#!/usr/bin/env bash
# Allocation-site profile of one benchmark workload (EXPERIMENTS.md "Host
# profile"): which call sites make the events `host_allocs_per_iter` counts.
#
#   scripts/host-allocs.sh WORKLOAD [PASSES=3] [SEED=1989] [report args...]
#
# Builds the unmodified benchmark/ package with frame pointers into its own
# target directory, preloads scripts/allocprof.c (every malloc / calloc /
# realloc / posix_memalign with its size and frame-pointer stack) and prints
# the site tables of scripts/sigprof-report.py: events and bytes per pass,
# by the first function on the stack that is not the standard library's.
# The workload is run twice, over PASSES and 2 × PASSES measured passes, and
# the first profile subtracted from the second, so set-up and warm-up cancel
# and what is left is PASSES passes of the steady state; only events made
# under `workloads::pass` are kept, so the total is the run's
# `host_allocs_per_iter`, printed beside it (the harness is left out, and so
# are the worker threads of `pool2`, whose stacks do not reach the pass). Extra
# arguments go to the report, e.g. `--match hash_table.rs`, or `--under
# on_probe` to keep only the events made under that function as well, or
# `--quick` (the one flag handed to the benchmark instead: smoke scale).
# Everything it writes lands under target/host-allocs/ (ignored).
set -euo pipefail
cd "$(dirname "$0")/.."

workload=${1:?usage: host-allocs.sh WORKLOAD [PASSES] [SEED] [report args...]}
passes=${2:-3}
seed=${3:-1989}
shift $(( $# < 3 ? $# : 3 ))
scale=()
report=()
for a in "$@"; do
    if [ "$a" = --quick ]; then scale=(--quick); else report+=("$a"); fi
done

out=target/host-allocs
mkdir -p "$out"
gcc -O2 -fno-omit-frame-pointer -ftls-model=initial-exec -shared -fPIC -o "$out/allocprof.so" scripts/allocprof.c
RUSTFLAGS="-C force-frame-pointers=yes" cargo build --release --offline --quiet \
    --manifest-path benchmark/Cargo.toml --target-dir "$out/build"
profile() { # passes, dump name
    ALLOCPROF_OUT="$out/$workload.$2" LD_PRELOAD="$PWD/$out/allocprof.so" \
        "$out/build/release/gamma-benchmark" --workload "$workload" --seed "$seed" \
        --passes "$1" --trace 0 "${scale[@]}" | tail -n 1 >"$out/$workload.result"
}
profile "$passes" allocs0
profile $((2 * passes)) allocs
python3 - "$out/$workload.result" <<'PY'
import json, sys
m = json.load(open(sys.argv[1]))["metrics"]
print(f"host_allocs_per_iter {m['host_allocs_per_iter']['value']:.0f}, "
      f"host_alloc_mb_per_iter {m['host_alloc_mb_per_iter']['value']:.2f} MiB (the benchmark's own count)")
PY
python3 scripts/sigprof-report.py "$out/$workload.allocs" --minus "$out/$workload.allocs0" \
    --under workloads::pass --per "$passes" "${report[@]}"
