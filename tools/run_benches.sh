#!/usr/bin/env bash
# Regenerate the perf trajectories at the repo root:
#   BENCH_solver.json  — MCP solver fast-path layers
#   BENCH_stream.json  — streaming pipeline vs batch (throughput + RSS)
#                        and the per-cycle float kernel ablation
#   BENCH_ga.json      — GA training-data pipeline (threads=1 and
#                        hardware threads) vs the src/ref fitness pass
#   BENCH_serve.json   — multi-session serving grid (engine x threads x
#                        sessions, per-chunk wait/compute percentiles)
#   BENCH_control.json — closed-loop droop-mitigation lab Pareto sweep
#   BENCH_uarch.json   — flat timing core vs the src/ref core loop
# Usage: tools/run_benches.sh [--smoke] [extra bench args...]
#
# Environment:
#   BUILD_DIR   build tree to use (default: build)
#   JOBS        parallel compile jobs (default: 4)
#   APOLLO_NATIVE=1 configures the build with -march=native kernels.
#   APOLLO_OBS_OFF_DIR  compiled-out observability tree (default:
#               build-obs-off). Both observability configurations are
#               built every run; the OFF tree runs the solver bench in
#               smoke mode to prove the instrumented hot paths still
#               compile and run with APOLLO_OBS=0.
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR=${BUILD_DIR:-build}
JOBS=${JOBS:-4}

cmake_flags=()
if [[ "${APOLLO_NATIVE:-0}" == "1" ]]; then
    cmake_flags+=(-DAPOLLO_NATIVE=ON)
fi

cmake -B "$BUILD_DIR" -S . "${cmake_flags[@]}"
cmake --build "$BUILD_DIR" -j "$JOBS" --target bench_perf_solver \
    --target bench_stream_infer --target bench_perf_ga \
    --target bench_obs_overhead --target bench_serve \
    --target bench_droop_lab --target bench_perf_uarch

# Full recordings include the paper-scale out-of-core phase (M=500k
# sharded selection: RSS bound + shard/thread identity grid). Smoke
# runs skip it here — `bench_perf_solver --huge --smoke` writes only
# the out-of-core section, and that path is already guarded by the
# perf.solver_huge ctest.
solver_args=(--huge)
for arg in "$@"; do
    if [[ "$arg" == "--smoke" ]]; then
        solver_args=()
    fi
done
"$BUILD_DIR"/bench/bench_perf_solver "${solver_args[@]}" \
    --out=BENCH_solver.json "$@"
echo "BENCH_solver.json updated"

"$BUILD_DIR"/bench/bench_stream_infer --out=BENCH_stream.json "$@"
echo "BENCH_stream.json updated"

"$BUILD_DIR"/bench/bench_perf_ga --out=BENCH_ga.json "$@"
echo "BENCH_ga.json updated"

"$BUILD_DIR"/bench/bench_obs_overhead --out=BENCH_obs_overhead.json "$@"
echo "BENCH_obs_overhead.json updated"

"$BUILD_DIR"/bench/bench_serve --out=BENCH_serve.json "$@"
echo "BENCH_serve.json updated"

"$BUILD_DIR"/bench/bench_droop_lab --out=BENCH_control.json "$@"
echo "BENCH_control.json updated"

"$BUILD_DIR"/bench/bench_perf_uarch --out=BENCH_uarch.json "$@"
echo "BENCH_uarch.json updated"

# Closed-loop droop-lab guard: re-run through ctest so the perf label
# stays green on the same tree (coverage + dominance + thread-count
# determinism gates).
(cd "$BUILD_DIR" && ctest -R 'perf\.droop_lab' --output-on-failure)
echo "perf.droop_lab guard passed"

# Bit-parallel kernel ablation guard: re-run through ctest so the perf
# label stays green on the same tree the benches used (scalar / AVX2 /
# VPOPCNTQ all bit-identical to the default dispatch).
(cd "$BUILD_DIR" && ctest -R 'perf\.stream_bitparallel' --output-on-failure)
echo "perf.stream_bitparallel guard passed"

# Cross-check the compiled-out configuration: the same hot paths must
# build and run with every APOLLO_COUNT/SPAN macro expanded to nothing.
OBS_OFF_DIR=${APOLLO_OBS_OFF_DIR:-build-obs-off}
cmake -B "$OBS_OFF_DIR" -S . "${cmake_flags[@]}" -DAPOLLO_OBS=OFF
cmake --build "$OBS_OFF_DIR" -j "$JOBS" --target bench_perf_solver \
    --target bench_obs_overhead
"$OBS_OFF_DIR"/bench/bench_perf_solver --smoke \
    --out="$OBS_OFF_DIR"/BENCH_solver_obs_off.json
"$OBS_OFF_DIR"/bench/bench_obs_overhead --smoke \
    --out="$OBS_OFF_DIR"/BENCH_obs_overhead_off.json
echo "APOLLO_OBS=OFF configuration builds and runs clean"
