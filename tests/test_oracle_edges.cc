/**
 * @file
 * Edge-case pins riding on the differential-oracle layer (docs/
 * INTERNALS.md §8): degenerate shapes the generated sweeps cross only
 * occasionally are pinned here explicitly — Q=0 selection, tau=1
 * window/per-cycle agreement, minimum-width quantization, empty and
 * single-cycle traces — plus regression pins for the real divergences
 * the oracle layer uncovered, each tagged with the production path
 * that exposed it.
 */

#include <sstream>
#include <vector>

#include <gtest/gtest.h>

#include "apollo.hh"
#include "trace/dataset_io.hh"
#include "ref/reference_kernels.hh"
#include "trace/stream_reader.hh"
#include "trace/vcd.hh"
#include "util/logging.hh"

namespace apollo {
namespace {

ApolloModel
smallModel()
{
    ApolloModel m;
    m.proxyIds = {0, 1, 2};
    m.weights = {0.5f, -1.25f, 2.0f};
    m.intercept = 0.75;
    return m;
}

BitColumnMatrix
checkerboard(size_t rows, size_t cols)
{
    BitColumnMatrix X(rows, cols);
    for (size_t c = 0; c < cols; ++c)
        for (size_t r = 0; r < rows; ++r)
            if ((r + c) % 2 == 0)
                X.setBit(r, c);
    return X;
}

// --- Q = 0 selection -------------------------------------------------

TEST(OracleEdges, TargetQZeroIsRejected)
{
    BitColumnMatrix X = checkerboard(16, 4);
    std::vector<float> y(16, 0.0f);
    for (size_t i = 0; i < 16; ++i)
        y[i] = static_cast<float>(i % 3);
    BitFeatureView view(X);
    CdSolver solver(view, y, CdSolver::Options{.parallel = false});
    CdConfig base;
    base.penalty.kind = PenaltyKind::Lasso;
    EXPECT_THROW(solveForTargetQ(solver, base, 0), FatalError);
}

TEST(OracleEdges, EmptyModelInference)
{
    ApolloModel m;
    m.intercept = 1.5;
    BitColumnMatrix Xq(6, 0);
    const std::vector<float> out = m.predictProxies(Xq);
    ASSERT_EQ(out.size(), 6u);
    for (float v : out)
        EXPECT_EQ(v, 1.5f);
    EXPECT_EQ(out, ref::predictProxies(m, Xq));

    // A zero-proxy OPM is a meaningless piece of hardware: rejected at
    // construction rather than silently emitting the intercept.
    const QuantizedModel qm = quantizeModel(m, 8);
    EXPECT_TRUE(qm.qweights.empty());
    EXPECT_THROW(OpmSimulator(qm, 4), FatalError);
}

// --- tau = 1 windows vs per-cycle ------------------------------------

TEST(OracleEdges, WindowT1MatchesPerCycleExactlyWithZeroIntercept)
{
    ApolloModel m = smallModel();
    m.intercept = 0.0;
    const BitColumnMatrix Xq = checkerboard(33, 3);
    const std::vector<SegmentInfo> segs = {{"all", 0, 33}};
    const MultiCycleModel mc{m, 1};
    // With b = 0 the Eq. (9) window path computes float(double(s_i))
    // for each cycle's float sum s_i, which is s_i exactly.
    EXPECT_EQ(mc.predictWindowsProxies(Xq, 1, segs).value(),
              m.predictProxies(Xq));
}

TEST(OracleEdges, WindowT1TracksPerCycleWithIntercept)
{
    const ApolloModel m = smallModel();
    const BitColumnMatrix Xq = checkerboard(33, 3);
    const std::vector<SegmentInfo> segs = {{"all", 0, 33}};
    const MultiCycleModel mc{m, 1};
    const std::vector<float> windows =
        mc.predictWindowsProxies(Xq, 1, segs).value();
    const std::vector<float> cycles = m.predictProxies(Xq);
    ASSERT_EQ(windows.size(), cycles.size());
    // Different intercept-addition order: agreement to float rounding,
    // not bit-exact (the oracle layer compares each path against its
    // own reference instead).
    for (size_t i = 0; i < windows.size(); ++i)
        EXPECT_NEAR(windows[i], cycles[i],
                    1e-5 * (1.0 + std::abs(cycles[i])));
}

// --- minimum-width quantization --------------------------------------

TEST(OracleEdges, B1QuantizationIsRejected)
{
    const ApolloModel m = smallModel();
    EXPECT_THROW(quantizeModel(m, 1), FatalError);
    EXPECT_THROW(quantizeModel(m, 0), FatalError);
    EXPECT_THROW(quantizeModel(m, 25), FatalError);
}

TEST(OracleEdges, B2QuantizationSaturatesToSignBits)
{
    ApolloModel m;
    m.proxyIds = {0, 1, 2, 3, 4};
    m.weights = {1.0f, -1.0f, 0.25f, -0.25f, 0.6f};
    m.intercept = 0.0;
    const QuantizedModel qm = quantizeModel(m, 2);
    // B = 2: qmax = 1, scale = max|w|; every weight lands in
    // {-1, 0, +1}.
    EXPECT_EQ(qm.scale, 1.0);
    const std::vector<int32_t> expected = {1, -1, 0, 0, 1};
    EXPECT_EQ(qm.qweights, expected);
    const QuantizedModel want = ref::quantizeModel(m, 2);
    EXPECT_EQ(qm.qweights, want.qweights);
    EXPECT_EQ(qm.qintercept, want.qintercept);
}

// --- empty / single-cycle traces -------------------------------------

TEST(OracleEdges, EmptyTraceStreamsZeroSamples)
{
    const ApolloModel m = smallModel();
    BitColumnMatrix empty(0, 3);
    MatrixChunkReader reader(empty);
    VectorSink sink;
    const StreamingInference engine(m);
    auto stats = engine.run(reader, sink);
    ASSERT_TRUE(stats.ok()) << stats.status().toString();
    EXPECT_EQ(stats->cycles, 0u);
    EXPECT_EQ(stats->outputs, 0u);
    EXPECT_TRUE(sink.values().empty());
    EXPECT_TRUE(ref::predictProxies(m, empty).empty());
}

TEST(OracleEdges, SingleCycleTrace)
{
    const ApolloModel m = smallModel();
    BitColumnMatrix Xq(1, 3);
    Xq.setBit(0, 0);
    Xq.setBit(0, 2);
    const std::vector<float> out = m.predictProxies(Xq);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0], static_cast<float>(0.75) + 0.5f + 2.0f);

    const std::vector<SegmentInfo> segs = {{"one", 0, 1}};
    const MultiCycleModel mc{m, 1};
    EXPECT_EQ(mc.predictWindowsProxies(Xq, 1, segs).value(),
              ref::predictWindowsProxies(m, Xq, 1, segs));
}

TEST(OracleEdges, ConstantLabelsLambdaPathIsRejected)
{
    BitColumnMatrix X = checkerboard(12, 3);
    const std::vector<float> y(12, 2.5f);
    BitFeatureView view(X);
    CdSolver solver(view, y, CdSolver::Options{.parallel = false});
    CdConfig base;
    base.penalty.kind = PenaltyKind::Lasso;
    EXPECT_THROW(solveForTargetsQ(solver, base, {1}), FatalError);
}

// --- regression pins for divergences found by the oracle layer -------

/**
 * Found by the opm.simulate oracle ("big-intercept" shape): the §6
 * width formula B + ceil(log Q) + 1 ignores the quantized intercept,
 * so a model whose |intercept| dwarfs max|w| produced cycle sums
 * outside the declared width and the per-cycle assert panicked. The
 * width now covers the exact worst-case bounds including qintercept.
 */
TEST(OracleRegression, OpmWidthCoversLargeIntercept)
{
    ApolloModel m;
    m.proxyIds = {0, 1};
    m.weights = {0.01f, -0.02f};
    m.intercept = 500.0;
    const QuantizedModel qm = quantizeModel(m, 8);
    OpmSimulator sim(qm, 4);

    const ref::CycleSumBounds bounds = ref::opmCycleSumBounds(qm);
    const int64_t limit = int64_t{1} << sim.cycleSumBits();
    EXPECT_GT(bounds.maxSum, int64_t{1} << (qm.bits + 2))
        << "intercept no longer dominates; pick a bigger one";
    EXPECT_LT(bounds.maxSum, limit);
    EXPECT_GT(bounds.minSum, -limit);

    const BitColumnMatrix Xq = checkerboard(8, 2);
    EXPECT_EQ(sim.simulate(Xq), ref::opmSimulate(qm, Xq, 4));
}

/**
 * Found by fuzz_vcd: a forged "#18446744073709551615" timestamp sized
 * the reconstructed toggle matrix before any plausibility check, so
 * both VCD readers attempted a multi-exabyte allocation. Implausible
 * timestamps are now a ParseError before allocation.
 */
TEST(OracleRegression, VcdHugeTimestampIsParseErrorNotAllocation)
{
    const std::string header = "$var wire 1 ! sig_a $end\n"
                               "$enddefinitions $end\n";
    {
        std::istringstream is(header +
                              "#0\n1!\n#18446744073709551615\n0!\n");
        StatusOr<VcdTrace> got = tryParseVcd(is);
        ASSERT_FALSE(got.ok());
        EXPECT_EQ(got.status().code(), StatusCode::ParseError);
    }
    {
        std::istringstream is(header +
                              "#0\n1!\n#18446744073709551615\n0!\n");
        VcdChunkReader reader(is);
        ProxyChunk chunk;
        uint64_t rows = 0;
        for (;;) {
            StatusOr<size_t> got = reader.next(1024, chunk);
            if (!got.ok()) {
                EXPECT_EQ(got.status().code(), StatusCode::ParseError);
                break;
            }
            ASSERT_NE(*got, 0u) << "reader accepted an implausible "
                                   "timestamp";
            rows += *got;
            ASSERT_LT(rows, (uint64_t{1} << 22))
                << "reader is synthesizing unbounded empty rows";
        }
    }
}

/**
 * Found by fuzz_aptr: a forged block header declaring 2^32 - 1 rows
 * was passed straight to BitColumnMatrix::reset before any check
 * against the trace header's cycle count. The reader now validates
 * the declared block size before allocating.
 */
TEST(OracleRegression, AptrForgedBlockRowsIsParseErrorNotAllocation)
{
    BitColumnMatrix Xq(16, 2);
    Xq.setBit(3, 1);
    std::ostringstream os;
    ProxyTraceWriter writer(os, 2);
    ASSERT_TRUE(writer.append(Xq).ok());
    ASSERT_TRUE(writer.finish().ok());
    std::string bytes = os.str();
    const uint32_t forged = 0xffffffffu;
    bytes.replace(20, 4,
                  std::string(reinterpret_cast<const char *>(&forged),
                              4));

    std::istringstream is(bytes);
    ProxyTraceReader reader(is);
    ProxyChunk chunk;
    StatusOr<size_t> got = reader.next(64, chunk);
    ASSERT_FALSE(got.ok());
    EXPECT_EQ(got.status().code(), StatusCode::ParseError);
}

/**
 * Found by fuzz_dataset: rows and cols each below 2^32 passed the
 * dimension check but their product sized a forged multi-gigabyte
 * matrix. The loader now bounds the product before allocating.
 */
TEST(OracleRegression, DatasetForgedDimensionProductIsParseError)
{
    Dataset ds;
    ds.X.reset(4, 2);
    ds.y.assign(4, 1.0f);
    std::ostringstream os;
    saveDataset(os, ds);
    std::string bytes = os.str();
    const uint64_t rows = (uint64_t{1} << 27);
    const uint64_t cols = (uint64_t{1} << 23);
    bytes.replace(8, 8,
                  std::string(reinterpret_cast<const char *>(&rows), 8));
    bytes.replace(16, 8,
                  std::string(reinterpret_cast<const char *>(&cols), 8));

    std::istringstream is(bytes);
    StatusOr<Dataset> got = tryLoadDataset(is);
    ASSERT_FALSE(got.ok());
    EXPECT_EQ(got.status().code(), StatusCode::ParseError);
}

} // namespace
} // namespace apollo
