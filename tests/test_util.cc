/**
 * @file
 * Unit tests for src/util: RNG determinism, packed bit containers,
 * thread pool, table rendering, running stats, kernel dispatch
 * overrides.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <sstream>
#include <thread>

#include "activity/activity_engine.hh"
#include "activity/toggle_kernels.hh"
#include "power/label_accumulator.hh"
#include "rtl/design_builder.hh"
#include "util/bitvec.hh"
#include "util/bitvec_kernels.hh"
#include "util/kernel_env.hh"
#include "util/logging.hh"
#include "util/popcnt_kernels.hh"
#include "util/rng.hh"
#include "util/stats.hh"
#include "util/table.hh"
#include "util/thread_pool.hh"

namespace apollo {
namespace {

TEST(Rng, HashMixIsDeterministic)
{
    EXPECT_EQ(hashMix(12345), hashMix(12345));
    EXPECT_NE(hashMix(12345), hashMix(12346));
}

TEST(Rng, HashToUnitFloatInRange)
{
    for (uint64_t i = 0; i < 1000; ++i) {
        const float u = hashToUnitFloat(hashMix(i));
        EXPECT_GE(u, 0.0f);
        EXPECT_LT(u, 1.0f);
    }
}

TEST(Rng, XoshiroSequencesRepeatPerSeed)
{
    Xoshiro256StarStar a(42);
    Xoshiro256StarStar b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a(), b());
}

TEST(Rng, NextBoundedStaysInBounds)
{
    Xoshiro256StarStar rng(7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(rng.nextBounded(17), 17u);
}

TEST(Rng, GaussianMomentsRoughlyStandard)
{
    Xoshiro256StarStar rng(11);
    RunningStats stats;
    for (int i = 0; i < 20000; ++i)
        stats.add(rng.nextGaussian());
    EXPECT_NEAR(stats.mean(), 0.0, 0.05);
    EXPECT_NEAR(stats.stddev(), 1.0, 0.05);
}

TEST(BitVector, SetGetPopcount)
{
    BitVector v(130);
    EXPECT_EQ(v.size(), 130u);
    EXPECT_EQ(v.popcount(), 0u);
    v.set(0, true);
    v.set(64, true);
    v.set(129, true);
    EXPECT_TRUE(v.get(0));
    EXPECT_TRUE(v.get(64));
    EXPECT_TRUE(v.get(129));
    EXPECT_FALSE(v.get(1));
    EXPECT_EQ(v.popcount(), 3u);
    v.set(64, false);
    EXPECT_EQ(v.popcount(), 2u);
}

TEST(BitColumnMatrix, RoundTripAndColumnOps)
{
    BitColumnMatrix m(100, 5);
    m.setBit(3, 2);
    m.setBit(64, 2);
    m.setBit(99, 4);
    EXPECT_TRUE(m.get(3, 2));
    EXPECT_TRUE(m.get(64, 2));
    EXPECT_FALSE(m.get(4, 2));
    EXPECT_EQ(m.colPopcount(2), 2u);
    EXPECT_EQ(m.colPopcount(0), 0u);

    std::vector<size_t> rows;
    m.forEachSetBit(2, [&](size_t r) { rows.push_back(r); });
    ASSERT_EQ(rows.size(), 2u);
    EXPECT_EQ(rows[0], 3u);
    EXPECT_EQ(rows[1], 64u);
}

TEST(BitColumnMatrix, DotAndAxpyAgree)
{
    BitColumnMatrix m(64, 1);
    m.setBit(1, 0);
    m.setBit(10, 0);
    std::vector<float> dense(64, 0.0f);
    dense[1] = 2.0f;
    dense[10] = 3.0f;
    EXPECT_DOUBLE_EQ(m.dotColumn(0, dense.data()), 5.0);

    m.axpyColumn(0, 1.5f, dense.data());
    EXPECT_FLOAT_EQ(dense[1], 3.5f);
    EXPECT_FLOAT_EQ(dense[10], 4.5f);
    EXPECT_FLOAT_EQ(dense[0], 0.0f);
}

TEST(BitColumnMatrix, SelectColumnsCopiesExactBits)
{
    BitColumnMatrix m(70, 3);
    m.setBit(5, 0);
    m.setBit(69, 2);
    const BitColumnMatrix sel = m.selectColumns({2, 0});
    EXPECT_EQ(sel.cols(), 2u);
    EXPECT_TRUE(sel.get(69, 0));
    EXPECT_TRUE(sel.get(5, 1));
    EXPECT_FALSE(sel.get(5, 0));
}

TEST(CountColumnMatrix, DotAxpySumSquares)
{
    CountColumnMatrix m(4, 2);
    m.set(0, 1, 3);
    m.set(2, 1, 2);
    std::vector<float> v = {1.f, 1.f, 2.f, 1.f};
    EXPECT_DOUBLE_EQ(m.dotColumn(1, v.data()), 3.0 + 4.0);
    EXPECT_DOUBLE_EQ(m.colSumSquares(1), 9.0 + 4.0);
    m.axpyColumn(1, 0.5f, v.data());
    EXPECT_FLOAT_EQ(v[0], 2.5f);
    EXPECT_FLOAT_EQ(v[2], 3.0f);
}

TEST(ThreadPool, CoversAllIndicesExactlyOnce)
{
    std::vector<std::atomic<int>> hits(1000);
    parallelFor(1000, [&](size_t b, size_t e) {
        for (size_t i = b; i < e; ++i)
            hits[i]++;
    });
    for (auto &h : hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, PropagatesExceptions)
{
    EXPECT_THROW(parallelFor(100,
                             [&](size_t b, size_t) {
                                 if (b == 0)
                                     throw std::runtime_error("boom");
                             }),
                 std::runtime_error);
}

TEST(ThreadPool, HandlesZeroAndOneElement)
{
    int calls = 0;
    parallelFor(0, [&](size_t, size_t) { calls++; });
    EXPECT_EQ(calls, 0);
    parallelFor(1, [&](size_t b, size_t e) {
        EXPECT_EQ(b, 0u);
        EXPECT_EQ(e, 1u);
    });
}

TEST(ThreadPool, NestedAndConcurrentCallsComplete)
{
    // Two outside threads submit to one pool while the main thread
    // does too, and every body opens a nested call on the same pool.
    // Before submitters were serialized and nested calls ran inline,
    // a second task overwrote the first, whose remaining chunks never
    // ran: its submitter waited forever (a ctest TIMEOUT catches that).
    ThreadPool pool(3);
    constexpr int kCalls = 40;
    constexpr size_t kN = 64;
    std::atomic<uint64_t> total{0};
    auto submit = [&] {
        for (int c = 0; c < kCalls; ++c) {
            pool.parallelFor(kN, [&](size_t b, size_t e) {
                for (size_t i = b; i < e; ++i) {
                    pool.parallelFor(4, [&](size_t nb, size_t ne) {
                        total += ne - nb;
                    });
                }
            });
        }
    };
    std::thread a(submit);
    std::thread b(submit);
    submit();
    a.join();
    b.join();
    EXPECT_EQ(total.load(), 3u * kCalls * kN * 4);
}

TEST(Table, RendersAlignedRowsAndCsv)
{
    TablePrinter t({"name", "value"});
    t.addRow({"alpha", TablePrinter::num(1.5, 2)});
    t.addRow({"b", TablePrinter::percent(0.123, 1)});
    std::ostringstream os;
    t.render(os);
    const std::string s = os.str();
    EXPECT_NE(s.find("alpha"), std::string::npos);
    EXPECT_NE(s.find("1.50"), std::string::npos);
    EXPECT_NE(s.find("12.3%"), std::string::npos);

    std::ostringstream csv;
    t.renderCsv(csv);
    EXPECT_NE(csv.str().find("alpha,1.50"), std::string::npos);
}

TEST(Table, RejectsBadRowArity)
{
    TablePrinter t({"a", "b"});
    EXPECT_THROW(t.addRow({"only-one"}), FatalError);
}

TEST(Logging, FatalAndPanicThrowDistinctTypes)
{
    EXPECT_THROW(fatal("bad input ", 3), FatalError);
    EXPECT_THROW(panic("bug"), PanicError);
    EXPECT_THROW(APOLLO_REQUIRE(false, "nope"), FatalError);
    EXPECT_THROW(APOLLO_ASSERT(false, "bug"), PanicError);
}

TEST(RunningStats, MeanVarMinMax)
{
    RunningStats s;
    for (double x : {1.0, 2.0, 3.0, 4.0})
        s.add(x);
    EXPECT_DOUBLE_EQ(s.mean(), 2.5);
    EXPECT_NEAR(s.variance(), 5.0 / 3.0, 1e-12);
    EXPECT_DOUBLE_EQ(s.min(), 1.0);
    EXPECT_DOUBLE_EQ(s.max(), 4.0);
}

TEST(KernelDispatch, OverrideRuleTreatsNonzeroValuesAsSet)
{
    const char *var = "APOLLO_TEST_KERNEL_OVERRIDE";
    unsetenv(var);
    EXPECT_FALSE(kernelOverrideSet(var));
    for (const char *value : {"", "0", "00"}) {
        setenv(var, value, 1);
        EXPECT_FALSE(kernelOverrideSet(var)) << '"' << value << '"';
    }
    for (const char *value : {"1", "yes", "true", "2"}) {
        setenv(var, value, 1);
        EXPECT_TRUE(kernelOverrideSet(var)) << '"' << value << '"';
    }
    unsetenv(var);
}

TEST(KernelDispatch, Avx512OverrideReachesEveryKernelFamily)
{
    // Dispatch resolves once per process, so only a run started with
    // the override set can check it: the dispatch.no_avx512_yes ctest
    // sets APOLLO_NO_AVX512=yes. Without the override there is nothing
    // to check.
    if (!kernelOverrideSet("APOLLO_NO_AVX512"))
        return;
    EXPECT_FALSE(bitkernels::avx512Enabled());
    EXPECT_EQ(bitkernels::weightedSumWords,
              bitkernels::implKernels(bitkernels::Impl::Portable)
                  .weightedSum);
    EXPECT_NE(togglekernels::bestImpl(), togglekernels::Impl::Avx512);
    EXPECT_NE(popkernels::bestImpl(), popkernels::Impl::Avx512);
    EXPECT_NE(LabelAccumulator::bestImpl(),
              LabelAccumulator::Impl::Avx512);
    // The row orientation as the closed loop binds it.
    const Netlist netlist = DesignBuilder::build(DesignConfig::tiny());
    const std::vector<uint32_t> ids = {0, 1, 2};
    EXPECT_NE(togglekernels::RowKernel(ActivityEngine(netlist), ids).impl(),
              togglekernels::Impl::Avx512);
}

} // namespace
} // namespace apollo
