#!/usr/bin/env bash
# Run the benches the CI bench-smoke job gates, at their pinned scales, and
# write one kf-bench-v1 document per bench.
#
# Usage: scripts/refresh_baselines.sh [build-dir] [out-dir]
#
# Paths are relative to the repository root unless absolute. out-dir defaults
# to bench/baselines, which regenerates the checked-in baselines; CI writes to
# bench-out/ and gates each baseline against the output of the same name. The
# simulation is deterministic, so a run at these scales reproduces the
# baselines' series and summaries exactly on any machine.
set -euo pipefail

REPO_ROOT="$(cd "$(dirname "$0")/.." && pwd)"
resolve() { case "$1" in /*) echo "$1" ;; *) echo "$REPO_ROOT/$1" ;; esac; }
BUILD_DIR="$(resolve "${1:-build}")"
OUT_DIR="$(resolve "${2:-bench/baselines}")"
mkdir -p "$OUT_DIR"

run() {
  local bench="$1" scale="$2"
  echo "== $bench (scale $scale) =="
  "$BUILD_DIR/bench/$bench" \
    --json "$OUT_DIR/BENCH_${bench#bench_}.json" --scale "$scale" >/dev/null
}

run bench_fig08_fusion_throughput 0.02
run bench_fig14_fission 0.02
run bench_fig18a_tpch_q1 0.05
run bench_server_throughput 0.2
run bench_resilience 0.1
run bench_multi_device 0.1
run bench_adaptive 0.1
run bench_integrity 0.1
run bench_tracing 0.1

echo "baselines written to $OUT_DIR"
