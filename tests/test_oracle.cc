/**
 * @file
 * The differential-oracle suite (docs/INTERNALS.md §8): every
 * registered production path runs >= 200 deterministic seeded cases
 * against its src/ref oracle. Failures print one-line replay seeds;
 * re-run a single case with APOLLO_ORACLE_SEED=0x... .
 */

#include <algorithm>
#include <string>

#include <gtest/gtest.h>

#include "harness/differential.hh"

namespace apollo::harness {
namespace {

constexpr size_t kCasesPerPath = 220;

/**
 * Pins the exact oracle coverage. A new production inference, solver,
 * or quantization fast path MUST add a src/ref oracle and register it
 * in tests/harness/oracles.cc — extend this list in the same change.
 */
TEST(OracleRegistry, CoversEveryProductionPath)
{
    const std::vector<std::string> expected = {
        "infer.batch_proxies",   "infer.batch_full",
        "infer.windows_eq9",     "infer.stream_percycle",
        "infer.stream_windows",  "opm.quantize",
        "opm.quantize_roundtrip", "opm.simulate",
        "opm.stream_quantized",  "stream.bitparallel_vs_scalar",
        "solver.cd_bits",        "solver.cd_counts",
        "solver.cd_dense",       "solver.target_q",
        "solver.shard_prefilter", "solver.bit_dots",
        "gen.toggle_columns",    "activity.toggle_rows",
        "gen.fitness_power",
        "gen.fitness_batch",     "gen.ga_pipeline",
        "control.droop_trigger",
        "trace.dataset_build",   "uarch.core_frames",
    };
    std::vector<std::string> actual;
    for (const OracleEntry &e : oracleRegistry())
        actual.push_back(e.path);
    std::vector<std::string> es = expected, as = actual;
    std::sort(es.begin(), es.end());
    std::sort(as.begin(), as.end());
    EXPECT_EQ(es, as) << "oracle registry and pinned path list differ";
    for (const OracleEntry &e : oracleRegistry())
        EXPECT_TRUE(static_cast<bool>(e.runOne))
            << e.path << " has no runner";
}

TEST(OracleRegistry, BaseSeedsAreDistinct)
{
    std::vector<uint64_t> seeds;
    for (const OracleEntry &e : oracleRegistry())
        seeds.push_back(oracleBaseSeed(e.path));
    std::sort(seeds.begin(), seeds.end());
    EXPECT_EQ(std::adjacent_find(seeds.begin(), seeds.end()),
              seeds.end());
}

class DifferentialOracle
    : public ::testing::TestWithParam<std::string>
{};

TEST_P(DifferentialOracle, MatchesReference)
{
    const OracleEntry *entry = findOracle(GetParam());
    ASSERT_NE(entry, nullptr);
    runOracle(*entry, kCasesPerPath);
}

std::vector<std::string>
allPaths()
{
    std::vector<std::string> paths;
    for (const OracleEntry &e : oracleRegistry())
        paths.push_back(e.path);
    return paths;
}

INSTANTIATE_TEST_SUITE_P(
    AllPaths, DifferentialOracle, ::testing::ValuesIn(allPaths()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        std::string name = info.param;
        for (char &ch : name)
            if (ch == '.')
                ch = '_';
        return name;
    });

} // namespace
} // namespace apollo::harness
