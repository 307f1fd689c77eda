#!/usr/bin/env bash
# Sampling profile of one benchmark workload on the host clock
# (EXPERIMENTS.md "Host profile"): where the simulator's own time goes.
#
#   scripts/host-profile.sh WORKLOAD [SECONDS=6] [SEED=1989] [report args...]
#
# Builds the unmodified benchmark/ package with frame pointers into its own
# target directory, preloads scripts/sigprof.c (SIGPROF at 1 kHz of process
# CPU time) and prints the self and inclusive tables of
# scripts/sigprof-report.py; extra arguments go to the report, e.g.
# `--match checksum`. Everything it writes lands under
# target/host-profile/ (ignored).
set -euo pipefail
cd "$(dirname "$0")/.."

workload=${1:?usage: host-profile.sh WORKLOAD [SECONDS] [SEED] [report args...]}
seconds=${2:-6}
seed=${3:-1989}
shift $(( $# < 3 ? $# : 3 ))

out=target/host-profile
mkdir -p "$out"
gcc -O2 -shared -fPIC -o "$out/sigprof.so" scripts/sigprof.c
RUSTFLAGS="-C force-frame-pointers=yes" cargo build --release --offline --quiet \
    --manifest-path benchmark/Cargo.toml --target-dir "$out/build"
SIGPROF_OUT="$out/$workload.samples" LD_PRELOAD="$PWD/$out/sigprof.so" \
    "$out/build/release/gamma-benchmark" \
    --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 | tail -n 1 >"$out/$workload.result"
python3 scripts/sigprof-report.py "$out/$workload.samples" "$@"
