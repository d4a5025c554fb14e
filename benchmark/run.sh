#!/usr/bin/env bash
# The benchmark's one command. Builds the package from source (offline),
# then either
#
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       runs one workload in this process and prints the result as the last
#       line of standard output (what BENCHMARK.json's driver calls), or
#
#   benchmark/run.sh [--seed N] [--trace] [--seconds S] [--out DIR]
#       runs every workload, each in a child process of its own, untraced
#       (and traced as well with --trace), writing one JSON record per run
#       under benchmark/out/, or
#
#   benchmark/run.sh compare A/ B/
#       applies BENCHMARK.json's bounds to two directories of records.
#
# Run it from the root of the repository.
set -euo pipefail

here=benchmark
if [[ ! -f "$here/Cargo.toml" ]]; then
    echo "run.sh: run me from the repository root" >&2
    exit 2
fi
target="${CARGO_TARGET_DIR:-$here/target}"
# Diagnostics to stderr: stdout carries the result line only.
CARGO_TARGET_DIR="$target" cargo build --release --offline --quiet \
    --manifest-path "$here/Cargo.toml" >&2
bin="$target/release/benchmark"

if [[ "${1:-}" == "compare" || "${1:-}" == "spec" ]]; then
    exec "$bin" "$@"
fi
for arg in "$@"; do
    if [[ "$arg" == "--workload" ]]; then
        exec "$bin" "$@"
    fi
done

seed=7 seconds=15 traced=0 out="$here/out"
while (($#)); do
    case "$1" in
        --seed) seed="$2"; shift 2 ;;
        --seconds) seconds="$2"; shift 2 ;;
        --out) out="$2"; shift 2 ;;
        --trace) traced=1; shift ;;
        *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
    esac
done
status=0
for workload in des_rack des_fattree des_fattree_s2 des_chaos udp_echo0_pingpong udp_kv_closed; do
    for trace in $(seq 0 "$traced"); do
        "$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" \
            --trace "$trace" --out "$out" || status=1
    done
done
exit "$status"
