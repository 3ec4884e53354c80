#!/usr/bin/env bash
# Time-boxed fuzzing of the untrusted-input parsers (APTR proxy
# traces, VCD dumps, dataset streams, packed chunk payloads, serve wire
# request lines, model files, APSH column shards). Each target replays
# the checked in corpus in tests/corpus/<target>/ and then runs seeded
# random mutations until its time budget expires; any crash, sanitizer
# report, or uncaught exception aborts with a FUZZ-BUG line carrying
# the replay seed (docs/INTERNALS.md section 8).
#
# Usage: tools/run_fuzz.sh [seconds-per-target] [target...]
#   tools/run_fuzz.sh              # 60s each: aptr, vcd, dataset,
#                                  # packed, wire, model, shard
#   tools/run_fuzz.sh 300 vcd      # 5 minutes on the VCD parser only
#
# Environment:
#   BUILD_DIR          build tree (default: build-asan, built with
#                      APOLLO_SANITIZE=ON so UB surfaces as a report)
#   APOLLO_FUZZ_SEED   base seed (default: fixed; vary for new paths)
#   JOBS               parallel compile jobs (default: 4)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR=${BUILD_DIR:-build-asan}
SECONDS_PER_TARGET=${1:-60}
JOBS=${JOBS:-4}
shift || true
TARGETS=("$@")
[[ ${#TARGETS[@]} -gt 0 ]] || TARGETS=(aptr vcd dataset packed wire model shard)

cmake -B "$BUILD_DIR" -S . -DAPOLLO_SANITIZE=ON
for t in "${TARGETS[@]}"; do
    cmake --build "$BUILD_DIR" -j "$JOBS" --target "fuzz_$t"
done

for t in "${TARGETS[@]}"; do
    echo "=== fuzz_$t: corpus replay + ${SECONDS_PER_TARGET}s of mutations ==="
    APOLLO_FUZZ_SECONDS="$SECONDS_PER_TARGET" \
        "$BUILD_DIR/tests/fuzz_$t" "tests/corpus/$t"
done
echo "fuzz run clean"
