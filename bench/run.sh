#!/usr/bin/env bash
# Build wspeer-bench once (release, offline) and run it.
#
#   bench/run.sh [--seed N] [--seconds S] [--quick]
#       the whole benchmark: 7 workloads, the ladder, 7 traced runs;
#       prints every metric and writes bench/out/result.json
#   bench/run.sh --workload W --seed N --seconds S --trace 0|1
#       one workload in one process; the last line of standard output is
#       {"correct":..,"attempted":..,"failed":..,"metrics":{..}}
#   bench/run.sh compare A.json B.json | selfcheck | ladder | manifest
#
# Runs from the root of the checkout, wherever it is called from, and
# reads and writes nothing outside it.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

# Cargo's own output goes to standard error: standard output belongs to
# the benchmark's metrics.
cargo build --release --offline --manifest-path bench/Cargo.toml 1>&2

bin="${CARGO_TARGET_DIR:-bench/target}/release/wspeer-bench"
if [ -z "${WSPEER_BENCH_COMMIT:-}" ] && command -v git >/dev/null 2>&1; then
  WSPEER_BENCH_COMMIT="$(git rev-parse --short HEAD 2>/dev/null || true)"
fi
export WSPEER_BENCH_COMMIT="${WSPEER_BENCH_COMMIT:-unknown}"

case "${1:-}" in
  compare | selfcheck | ladder | suite | run-one | manifest)
    exec "$bin" "$@"
    ;;
esac
for arg in "$@"; do
  if [ "$arg" = "--workload" ]; then
    exec "$bin" run-one "$@"
  fi
done
exec "$bin" suite "$@"
