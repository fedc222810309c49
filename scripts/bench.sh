#!/usr/bin/env bash
# Perf benchmark harness: records scaling curves for the parallel hot paths
# (conv forward/backward incl. n=1 serving shapes, executor exact/predictive/
# q16, optimizer profiling), verifies every curve point bit-identical to the
# serial run, and writes BENCH_parallel.json (schema 2) + BENCH_kernels.json.
#
#   ./scripts/bench.sh                 # full shapes, BENCH_parallel.json
#   ./scripts/bench.sh --smoke         # tiny shapes (seconds), same checks
#   ./scripts/bench.sh --scaling       # full 1/2/4/8 thread grid
#   ./scripts/bench.sh --strict        # >=3x at t4 gate (skipped if 1 core)
#   ./scripts/bench.sh --threads 8     # pin the parallel thread count
#   ./scripts/bench.sh --kernels-only  # just BENCH_kernels.json (single-core kernels)
#
# Offline by design, like scripts/check.sh.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release -q -p snapea-bench --bin perfbench --offline
exec target/release/perfbench "$@"
