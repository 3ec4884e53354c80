#!/usr/bin/env bash
# Build under a sanitizer and run the test suite (default: the
# streaming + serving suites, which exercise the chunked readers, the
# parallel engine, the multi-session manager, and the Status error
# paths end to end).
#
# Usage: tools/run_sanitize.sh [ctest args...]
#   tools/run_sanitize.sh                 # default suites (ASan: twice,
#                                         # the second time on the
#                                         # portable kernels)
#   tools/run_sanitize.sh -R '.*'         # everything under sanitizers
#   SANITIZER=tsan tools/run_sanitize.sh  # ThreadSanitizer instead
#
# Environment:
#   SANITIZER   asan (default: ASan+UBSan, tree build-asan) or tsan
#               (ThreadSanitizer, tree build-tsan). The tsan run is
#               what validates the serving layer's locking: the
#               multi-session determinism suite drives 8 sessions
#               over pools of 1/2/8 workers under it.
#   BUILD_DIR   sanitizer build tree (default: build-${SANITIZER})
#   JOBS        parallel compile jobs (default: 4; each ASan compiler
#               takes well over 100 MB)
#   APOLLO_OBS=OFF  sanitize the compiled-out observability
#               configuration instead (tree: ${BUILD_DIR}-obs-off),
#               proving the instrumented hot paths are clean in both
#               builds.
set -euo pipefail

cd "$(dirname "$0")/.."
SANITIZER=${SANITIZER:-asan}
case "$SANITIZER" in
    asan) san_flags=(-DAPOLLO_SANITIZE=ON) ;;
    tsan) san_flags=(-DAPOLLO_TSAN=ON) ;;
    *) echo "unknown SANITIZER '$SANITIZER' (want asan or tsan)" >&2
       exit 2 ;;
esac
BUILD_DIR=${BUILD_DIR:-build-${SANITIZER}}
JOBS=${JOBS:-4}

obs_flags=()
if [[ "${APOLLO_OBS:-ON}" == "OFF" ]]; then
    BUILD_DIR="${BUILD_DIR}-obs-off"
    obs_flags+=(-DAPOLLO_OBS=OFF)
fi

cmake -B "$BUILD_DIR" -S . "${san_flags[@]}" "${obs_flags[@]}"
cmake --build "$BUILD_DIR" -j "$JOBS" --target apollo_tests \
    --target apollo_oracle_tests \
    --target fuzz_aptr --target fuzz_vcd --target fuzz_dataset \
    --target fuzz_packed --target fuzz_wire --target fuzz_model

if [[ $# -gt 0 ]]; then
    ctest --test-dir "$BUILD_DIR" --output-on-failure "$@"
elif [[ "$SANITIZER" == "tsan" ]]; then
    # TSan focuses on the threaded paths: the serving layer, the
    # parallel streaming engine, the threaded GA pipeline, the
    # row-blocked toggle-column driver (block workers write disjoint
    # 64-row words of shared columns; ToggleKernels drives it next to
    # each kernel's own generator), the sharded screen/solve (mmap
    # readers fanned over the worker pool), the droop lab's scenario
    # fan-out, and the flat timing core against its reference (GA
    # fitness and the droop lab run it on pool threads), the batched
    # fitness evaluator's row tiles on 1-3 worker pools
    # (gen_fitness_batch), nested and concurrent parallelFor calls
    # (ThreadPool), the packed-bit dots: the kernel oracle and
    # agreement tests, and batched vs single-dot target-Q searches whose
    # gradient passes fan over the global pool (SolverBatchedDots), and
    # the row toggle kernel the lab's pool workers call every cycle
    # (activity_toggle_rows; ControlClosedLoop checks the loop against
    # its per-proxy reference), the label-order power kernel under
    # the dataset label pass's row blocks on the global pool
    # (LabelAccumulator), and the per-cycle weighted-sum kernel that
    # every float serve session's worker calls (WeightedSumKernels).
    ctest --test-dir "$BUILD_DIR" --output-on-failure -R \
        'ServeRegistry|ServeSessions|ServeDeterminism|ServeBackpressure|ServeCancel|ServeWire|ServeLoop|StreamInfer|StreamSinks|GaPipeline|ActivityEngine|ToggleKernels|UarchCore|Determinism|SegmentTable|EmulatorFlow|ShardStoreFormat|ShardedSolver|ShardedSelect|ControlClosedLoop|DroopLab|gen_fitness_batch|ThreadPool|solver_bit_dots|BitKernelAgreement|SolverBatchedDots|activity_toggle_rows|LabelAccumulator|WeightedSumKernels'
else
    # Streaming + serving suites, the flat timing core's ring indexing
    # (UarchCore), plus the differential-oracle layer (label "oracle":
    # every production path vs its reference under ASan+UBSan) and the
    # corpus-replay fuzz drivers (label "fuzz"). The batched fitness
    # oracle (gen_fitness_batch) and the pool re-entry test (ThreadPool)
    # run in both passes, so the portable kernels' multi-run binds are
    # checked too, and so do the packed-bit dot oracle, agreement, band
    # and batched-sweep tests (solver_bit_dots, BitKernel*,
    # SolverBatchedDots), the row toggle kernel oracle
    # (activity_toggle_rows), the closed loop against its per-proxy
    # reference (ControlClosedLoop, inside Control), the label-order
    # power kernel with its leakage floor (LabelAccumulator,
    # PowerOracle), and every per-cycle weighted-sum kernel on outputs
    # sized exactly to their rows (WeightedSumKernels).
    suites='WeightedSumKernels|LabelAccumulator|PowerOracle|ThreadPool|gen_fitness_batch|solver_bit_dots|activity_toggle_rows|BitKernelAgreement|BitKernelBand|SolverBatchedDots|SliceRows|StreamInfer|StreamSinks|ProxyTraceFormat|VcdStreaming|LoaderStatus|PublicApi|EmulatorFlow|ActivityEngine|Determinism|SegmentTable|OracleEdges|OracleRegression|AptrStatus|VcdStatus|DatasetStatus|GaPipeline|GaConfigValidate|GenerateTrainingSet|ToggleKernels|UarchCore|DatasetBuilderAddFrames|MetricRegistry|TraceCollector|ObsEndToEnd|Droop|MultiCycle|Quantize|Control|ServeRegistry|ServeSessions|ServeDeterminism|ServeBackpressure|ServeCancel|ServeWire|ServeLoop|ShardStoreFormat|ShardedSolver|ShardedSelect|ShardCountViewMoments|ShardDatasetStreamWriter'
    ctest --test-dir "$BUILD_DIR" --output-on-failure -R "$suites"
    ctest --test-dir "$BUILD_DIR" --output-on-failure -L 'oracle|fuzz'
    # The same suites on the portable kernels: ASan does not check
    # AVX-512 masked stores, gathers or masked loads, so an overrun
    # inside an AVX-512 kernel stays silent on hosts that dispatch to
    # it.
    APOLLO_NO_AVX512=1 APOLLO_NO_AVX2=1 \
        ctest --test-dir "$BUILD_DIR" --output-on-failure -R "$suites"
fi
echo "sanitizer run clean (${SANITIZER})"
