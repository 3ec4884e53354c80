#!/usr/bin/env bash
# Check that a -march=native build computes the same bits as the
# portable one. The library compiles with -ffp-contract=off, so no
# build fuses a multiply and an add (docs/INTERNALS.md §5); without
# that rule the native build's dataset labels, GA fitness and toggle
# thresholds round differently. The script
#   1. builds `apollo` portable (BUILD_DIR) and native (NATIVE_DIR),
#   2. runs `apollo gen-data --design n1ish --ga 1` and `apollo train`
#      in both trees with the same arguments,
#   3. compares the dataset and model files byte for byte (cmp),
#   4. runs the differential oracles (`ctest -L oracle`) in the native
#      tree.
#
# Usage: tools/run_native_check.sh
#
# Environment:
#   BUILD_DIR   portable build tree (default: build)
#   NATIVE_DIR  native build tree (default: build-native)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR=${BUILD_DIR:-build}
NATIVE_DIR=${NATIVE_DIR:-build-native}
JOBS=${JOBS:-4}

cmake -B "$BUILD_DIR" -S . -DAPOLLO_NATIVE=OFF
cmake --build "$BUILD_DIR" -j "$JOBS" --target apollo_cli
cmake -B "$NATIVE_DIR" -S . -DAPOLLO_NATIVE=ON
cmake --build "$NATIVE_DIR" -j "$JOBS" --target apollo_cli \
    --target apollo_oracle_tests

for tree in "$BUILD_DIR" "$NATIVE_DIR"; do
    work="$tree/native-check"
    mkdir -p "$work"
    "$tree/tools/apollo" gen-data --design n1ish --ga 1 \
        --population 16 --generations 4 --benchmarks 20 --cycles 200 \
        --out "$work/train.apds"
    "$tree/tools/apollo" train --data "$work/train.apds" --q 159 \
        --out "$work/model.txt"
done

cmp "$BUILD_DIR/native-check/train.apds" "$NATIVE_DIR/native-check/train.apds"
cmp "$BUILD_DIR/native-check/model.txt" "$NATIVE_DIR/native-check/model.txt"
echo "dataset and model identical across the portable and native builds"

ctest --test-dir "$NATIVE_DIR" --output-on-failure -L oracle
echo "native check passed"
