#!/usr/bin/env bash
# The benchmark's one command.
#
#   benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#       one run: prints `workload metric value unit` lines and, last, the
#       JSON object BENCHMARK.json's driver reads.
#   benchmark/run.sh [--seed <n>] [--runs <k>]
#       every workload, untraced then traced, k times over (default 1):
#       prints every metric and writes benchmark/out/results.json.
#
# Exits non-zero if the build fails or any answer is wrong.
set -euo pipefail
cd "$(dirname "$0")/.."

# Build into the repository's own target directory unless told otherwise
# (a relative CARGO_TARGET_DIR is relative to the repository root).
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
bin="$CARGO_TARGET_DIR/release/ppr-benchmark"

BENCH_RUSTC="$(rustc --version 2>/dev/null || echo unknown)"
BENCH_GIT_COMMIT="$(git rev-parse HEAD 2>/dev/null || echo unknown)"
export BENCH_RUSTC BENCH_GIT_COMMIT

seed=1
runs=1
case "${1:-}" in
--workload | compare | spec) exec "$bin" "$@" ;;
esac
while [ $# -gt 0 ]; do
    case "$1" in
    --seed) seed="$2" ;;
    --runs) runs="$2" ;;
    *)
        echo "usage: $0 [--seed N] [--runs K] | --workload NAME --seed N --seconds S --trace 0|1 | compare A B" >&2
        exit 2
        ;;
    esac
    shift 2
done

seconds="$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)"
results=benchmark/out/results.json
mkdir -p benchmark/out
rm -f "$results"
status=0
for _ in $(seq "$runs"); do
    for trace in 0 1; do
        for workload in build fresh-inproc fresh-socket hot mixed-openloop; do
            "$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" \
                --trace "$trace" --results "$results" || status=1
        done
    done
done
echo "results: $results" >&2
exit "$status"
