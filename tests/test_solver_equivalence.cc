/**
 * @file
 * Equivalence and determinism suite for the layered solver fast path
 * (docs/INTERNALS.md §6). The screened + anchored-cache + vectorized
 * solver must reproduce the reference per-bit scalar solver exactly in
 * selected support and within 1e-5 in weights, across penalties
 * (Lasso/MCP), feature views (Bit/Count/Dense), and warm/cold starts;
 * the parallel gradient passes must be run-to-run deterministic; and
 * the packed-bit kernels must agree with the per-bit scalar reference
 * (bit-identically, for axpy).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "core/proxy_selector.hh"
#include "gen/ga_generator.hh"
#include "ml/coordinate_descent.hh"
#include "ml/feature_view.hh"
#include "ml/solver_path.hh"
#include "rtl/design_builder.hh"
#include "trace/toggle_trace.hh"
#include "util/bitvec.hh"
#include "util/bitvec_kernels.hh"
#include "util/rng.hh"
#include "util/thread_pool.hh"

namespace apollo {
namespace {

/**
 * Synthetic binary design shared by the equivalence tests: mixed
 * column densities (including one empty and one all-ones column), a
 * row count that is not a multiple of 64, and labels from a planted
 * sparse linear model plus noise.
 */
struct EquivFixtureData
{
    static constexpr size_t kRows = 400;
    static constexpr size_t kCols = 220;

    BitColumnMatrix bits{kRows, kCols};
    CountColumnMatrix counts{kRows, kCols};
    DenseColumnMatrix dense{kRows, kCols};
    std::vector<float> y;

    EquivFixtureData()
    {
        Xoshiro256StarStar rng(0x5eedbeef);
        for (size_t j = 0; j < kCols; ++j) {
            double density = 0.02 + 0.9 * (j % 17) / 17.0;
            if (j == 5)
                density = 0.0; // dead column: excluded from live_
            if (j == 6)
                density = 1.1; // all-ones column
            for (size_t i = 0; i < kRows; ++i) {
                const bool bit = rng.nextDouble() < density;
                if (bit) {
                    bits.setBit(i, j);
                    counts.set(i, j, 1);
                    dense.set(i, j, 1.0f);
                }
            }
        }
        y.resize(kRows);
        for (size_t i = 0; i < kRows; ++i) {
            double v = 0.4 + 0.05 * rng.nextGaussian();
            for (size_t j = 10; j < kCols; j += 13)
                v += 0.03 * (1.0 + j * 0.01) *
                     (bits.get(i, j % kCols) ? 1.0 : 0.0);
            y[i] = static_cast<float>(v);
        }
    }
};

const EquivFixtureData &
equivFixture()
{
    static EquivFixtureData data;
    return data;
}

CdConfig
makeConfig(PenaltyKind kind, double lambda)
{
    CdConfig cfg;
    cfg.penalty.kind = kind;
    cfg.penalty.lambda = lambda;
    cfg.penalty.gamma = 10.0;
    // Converge both solvers far below the 1e-5 comparison tolerance so
    // path differences (sweep order, screening) cannot show up as
    // spurious weight deltas.
    cfg.tol = 1e-7;
    cfg.maxSweeps = 3000;
    return cfg;
}

/** Reference fit: per-bit scalar view, no screening, no parallelism. */
CdResult
referenceFit(const CdConfig &cfg, const CdResult *warm = nullptr)
{
    const auto &fx = equivFixture();
    ScalarBitFeatureView oracle(fx.bits);
    CdConfig ref_cfg = cfg;
    ref_cfg.screen = false;
    CdSolver solver(oracle, fx.y,
                    CdSolver::Options{.parallel = false, .pool = nullptr});
    return solver.fit(ref_cfg, warm);
}

void
expectEquivalent(const CdResult &got, const CdResult &want)
{
    ASSERT_EQ(got.w.size(), want.w.size());
    EXPECT_EQ(got.support(), want.support());
    for (size_t j = 0; j < got.w.size(); ++j)
        EXPECT_NEAR(got.w[j], want.w[j], 1e-5) << "weight " << j;
    EXPECT_NEAR(got.intercept, want.intercept, 1e-5);
}

class SolverEquivalence : public ::testing::TestWithParam<PenaltyKind>
{
  protected:
    double
    lambdaFor(double frac) const
    {
        const auto &fx = equivFixture();
        ScalarBitFeatureView oracle(fx.bits);
        CdSolver solver(
            oracle, fx.y,
            CdSolver::Options{.parallel = false, .pool = nullptr});
        return frac * solver.lambdaMax();
    }

    /** Cold fit then a warm-started continuation fit, as the lambda
     *  path drivers run them, on the optimized (screened) path. */
    template <typename View>
    void
    checkView(const View &view)
    {
        const auto &fx = equivFixture();
        const PenaltyKind kind = GetParam();
        const double lam1 = lambdaFor(0.4);
        const double lam2 = lambdaFor(0.25);

        CdSolver solver(view, fx.y);
        const CdConfig cold_cfg = makeConfig(kind, lam1);
        const CdResult cold = solver.fit(cold_cfg);
        expectEquivalent(cold, referenceFit(cold_cfg));

        CdConfig warm_cfg = makeConfig(kind, lam2);
        warm_cfg.screenLambdaRef = lam1;
        const CdResult warm = solver.fit(warm_cfg, &cold);
        const CdResult ref_cold = referenceFit(cold_cfg);
        expectEquivalent(warm, referenceFit(warm_cfg, &ref_cold));
    }
};

TEST_P(SolverEquivalence, BitViewMatchesScalarOracle)
{
    checkView(BitFeatureView(equivFixture().bits));
}

TEST_P(SolverEquivalence, CountViewMatchesScalarOracle)
{
    checkView(CountFeatureView(equivFixture().counts, 1.0f));
}

TEST_P(SolverEquivalence, DenseViewMatchesScalarOracle)
{
    checkView(DenseFeatureView(equivFixture().dense));
}

INSTANTIATE_TEST_SUITE_P(Penalties, SolverEquivalence,
                         ::testing::Values(PenaltyKind::Lasso,
                                           PenaltyKind::Mcp),
                         [](const auto &info) {
                             return info.param == PenaltyKind::Lasso
                                        ? "Lasso"
                                        : "Mcp";
                         });

TEST(SolverDeterminism, RepeatedParallelFitsAreByteIdentical)
{
    const auto &fx = equivFixture();
    BitFeatureView view(fx.bits);
    ThreadPool pool(4);
    const CdConfig cfg = makeConfig(PenaltyKind::Mcp, 0.01);

    auto run = [&] {
        CdSolver solver(
            view, fx.y,
            CdSolver::Options{.parallel = true, .pool = &pool});
        return solver.fit(cfg);
    };
    const CdResult a = run();
    const CdResult b = run();
    ASSERT_EQ(a.w.size(), b.w.size());
    EXPECT_EQ(0, std::memcmp(a.w.data(), b.w.data(),
                             a.w.size() * sizeof(float)));
    EXPECT_EQ(a.intercept, b.intercept);
    EXPECT_EQ(a.sweeps, b.sweeps);
    EXPECT_EQ(a.kktDots, b.kktDots);
}

TEST(SolverScreening, TinyDesignSelectionUnchangedByScreening)
{
    // End-to-end exactness on real toggle data: proxy selection on the
    // tiny design must pick identical proxies with the screened fast
    // path and with the reference full-sweep path.
    Netlist netlist = DesignBuilder::build(DesignConfig::tiny());
    DatasetBuilder tb(netlist);
    Xoshiro256StarStar rng(0xc0de);
    for (int i = 0; i < 6; ++i) {
        auto body = GaGenerator::randomBody(rng, 6, 20);
        tb.addProgram(
            Program::makeLoop("t" + std::to_string(i), body, 2000, rng()),
            256);
    }
    const Dataset train = tb.build();
    BitFeatureView view(train.X);

    ProxySelectorConfig cfg;
    cfg.targetQ = 24;
    ProxySelectorConfig ref_cfg = cfg;
    ref_cfg.screen = false;
    ref_cfg.parallel = false;
    const ProxySelection fast = selectProxies(view, train.y, cfg);
    const ProxySelection ref = selectProxies(view, train.y, ref_cfg);
    EXPECT_EQ(fast.proxyIds, ref.proxyIds);
}

/** Random packed words + dense vector for the kernel-agreement tests. */
struct KernelCase
{
    size_t nrows;
    double density;
};

class BitKernelAgreement : public ::testing::TestWithParam<KernelCase>
{};

TEST_P(BitKernelAgreement, DotAndAxpyMatchScalarReference)
{
    const auto [nrows, density] = GetParam();
    BitColumnMatrix m(nrows, 3);
    Xoshiro256StarStar rng(0xfeed + nrows);
    std::vector<float> v(nrows);
    for (size_t i = 0; i < nrows; ++i) {
        v[i] = static_cast<float>(rng.nextGaussian());
        if (rng.nextDouble() < density)
            m.setBit(i, 1);
    }
    for (size_t i = 0; i < nrows; ++i)
        m.setBit(i, 2); // all-ones column; column 0 stays empty

    double norm_v2 = 0.0;
    for (float x : v)
        norm_v2 += static_cast<double>(x) * x;
    const double norm_v = std::sqrt(norm_v2);

    for (size_t col = 0; col < 3; ++col) {
        const double ref = m.dotColumnScalar(col, v.data());
        const double xnorm =
            std::sqrt(static_cast<double>(m.colPopcount(col)));
        const double tol = 1e-9 * (std::abs(ref) + xnorm * norm_v) +
                           1e-12;
        // Exact kernels: double accumulation, any lane split.
        EXPECT_NEAR(bitkernels::implKernels(bitkernels::Impl::Portable)
                        .dot(m.colWords(col), m.wordsPerCol(), nrows,
                             v.data()),
                    ref, tol);
        EXPECT_NEAR(m.dotColumn(col, v.data()), ref, tol);
        // Fast kernel: float accumulation within the documented bound.
        EXPECT_NEAR(bitkernels::dotWordsFast(m.colWords(col),
                                             m.wordsPerCol(), nrows,
                                             v.data()),
                    ref,
                    bitkernels::dotFastRelErr(m.wordsPerCol()) * xnorm *
                            norm_v +
                        1e-12);

        // axpy: every implementation must be bit-identical (exactly
        // one float add per set bit).
        std::vector<float> a = v;
        std::vector<float> b = v;
        m.axpyColumnScalar(col, 0.37f, a.data());
        m.axpyColumn(col, 0.37f, b.data());
        EXPECT_EQ(0, std::memcmp(a.data(), b.data(),
                                 nrows * sizeof(float)));
        std::vector<float> c = v;
        bitkernels::implKernels(bitkernels::Impl::Portable)
            .axpy(m.colWords(col), m.wordsPerCol(), nrows, 0.37f,
                  c.data());
        EXPECT_EQ(0, std::memcmp(a.data(), c.data(),
                                 nrows * sizeof(float)));
    }
}

TEST_P(BitKernelAgreement, PortableAndAvx512SumAlike)
{
    // Each dot has one summation order, implemented once per dispatch
    // path: every implementation must return the same bits, and each
    // slot of a batch dot the single dot's bits.
    const auto [nrows, density] = GetParam();
    BitColumnMatrix m(nrows, 4);
    Xoshiro256StarStar rng(0xbead + nrows);
    std::vector<float> v(nrows);
    for (size_t i = 0; i < nrows; ++i) {
        v[i] = static_cast<float>(rng.nextGaussian() *
                                  std::pow(10.0, rng.nextRange(-3, 3)));
        m.setBit(i, 2); // all-ones column; column 0 stays empty
        if (rng.nextDouble() < density)
            m.setBit(i, 1);
        if (rng.nextDouble() < density * 0.1)
            m.setBit(i, 3);
    }
    using bitkernels::Impl;
    const bitkernels::Kernels &portable =
        bitkernels::implKernels(Impl::Portable);
    const uint64_t *cols[] = {m.colWords(0), m.colWords(1), m.colWords(2),
                              m.colWords(3)};
    double batch[4];
    portable.dotBatch(cols, 4, m.wordsPerCol(), nrows, v.data(), batch);
    for (size_t col = 0; col < 4; ++col) {
        const double dot =
            portable.dot(cols[col], m.wordsPerCol(), nrows, v.data());
        const double fast =
            portable.dotFast(cols[col], m.wordsPerCol(), nrows, v.data());
        EXPECT_EQ(0, std::memcmp(&dot, &batch[col], sizeof(double)));
        EXPECT_EQ(dot, m.dotColumn(col, v.data()));
        if (!bitkernels::implAvailable(Impl::Avx512))
            continue;
        const bitkernels::Kernels &avx = bitkernels::implKernels(Impl::Avx512);
        double avx_batch[4];
        avx.dotBatch(cols, 4, m.wordsPerCol(), nrows, v.data(), avx_batch);
        const double avx_dot =
            avx.dot(cols[col], m.wordsPerCol(), nrows, v.data());
        const double avx_fast =
            avx.dotFast(cols[col], m.wordsPerCol(), nrows, v.data());
        EXPECT_EQ(0, std::memcmp(&dot, &avx_dot, sizeof(double))) << col;
        EXPECT_EQ(0, std::memcmp(&dot, &avx_batch[col], sizeof(double)))
            << col;
        EXPECT_EQ(0, std::memcmp(&fast, &avx_fast, sizeof(double))) << col;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, BitKernelAgreement,
    ::testing::Values(KernelCase{64, 0.1},   // exactly one word
                      KernelCase{130, 0.5},  // partial tail word
                      KernelCase{1000, 0.03},// sparse words
                      KernelCase{1000, 0.7}, // dense words
                      KernelCase{200000, 0.3}),// long: 3,125 words
    [](const auto &info) {
        return "n" + std::to_string(info.param.nrows) + "_d" +
               std::to_string(static_cast<int>(info.param.density * 100));
    });

TEST(BitKernelBand, FastDotBandGrowsWithColumnLength)
{
    // gamma_k = k u / (1 - k u) over k = words + 6 float adds.
    auto gamma = [](double k) {
        return k * 0x1p-24 / (1.0 - k * 0x1p-24);
    };
    EXPECT_EQ(bitkernels::dotFastRelErr(157), bitkernels::kDotFastRelErr);
    EXPECT_EQ(bitkernels::dotFastRelErr(1671), bitkernels::kDotFastRelErr);
    EXPECT_LT(gamma(1671 + 6), bitkernels::kDotFastRelErr);
    EXPECT_GT(bitkernels::dotFastRelErr(1672), bitkernels::kDotFastRelErr);
    EXPECT_EQ(bitkernels::dotFastRelErr(3125), gamma(3125 + 6));
    EXPECT_GT(bitkernels::dotFastRelErr(3125), 1.8e-4);
}

TEST(BitKernelBand, AbsorbingLongColumnStaysInsideDerivedBand)
{
    // 3,125 all-ones words: each float chain starts at 1.0 and then
    // absorbs 3,124 adds of the float just under 2^-24, each of which
    // rounds away, so the fast dot loses 3124 * (2^-24 - 2^-48) of
    // every chain — beyond kDotFastRelErr, inside dotFastRelErr(3125).
    const size_t words = 3125;
    const size_t nrows = words * 64;
    BitColumnMatrix m(nrows, 1);
    for (size_t i = 0; i < nrows; ++i)
        m.setBit(i, 0);
    const float tiny = std::nextafter(0x1p-24f, 0.0f);
    std::vector<float> v(nrows, tiny);
    for (size_t i = 0; i < 64; ++i)
        v[i] = 1.0f;
    const double sum =
        64.0 + 64.0 * static_cast<double>(words - 1) * tiny;
    for (int i = 0; i < bitkernels::kImplCount; ++i) {
        const auto impl = static_cast<bitkernels::Impl>(i);
        if (!bitkernels::implAvailable(impl))
            continue;
        const bitkernels::Kernels &k = bitkernels::implKernels(impl);
        const double exact = k.dot(m.colWords(0), words, nrows, v.data());
        const double fast = k.dotFast(m.colWords(0), words, nrows, v.data());
        EXPECT_NEAR(exact, sum, 1e-12 * sum) << bitkernels::implName(impl);
        EXPECT_EQ(fast, 64.0) << bitkernels::implName(impl);
        const double err = std::abs(fast - exact);
        EXPECT_GT(err, bitkernels::kDotFastRelErr * sum);
        EXPECT_LE(err, bitkernels::dotFastRelErr(words) * sum);
    }
}

/**
 * Forwards every FeatureView call to a BitFeatureView except
 * dotColumns, which stays the FeatureView default (one dot() per
 * column). It is not one of the concrete views fit() dispatches on, so
 * a fit through it takes the generic path and never batches a dot.
 */
class ForwardingView final : public FeatureView
{
  public:
    explicit ForwardingView(const BitFeatureView &inner) : inner_(inner) {}

    size_t rows() const override { return inner_.rows(); }
    size_t cols() const override { return inner_.cols(); }
    double
    dot(size_t col, const float *v) const override
    {
        return inner_.dot(col, v);
    }
    void
    axpy(size_t col, float delta, float *v) const override
    {
        inner_.axpy(col, delta, v);
    }
    void
    dotColumnsFast(std::span<const uint32_t> cols, const float *v,
                   double *out) const override
    {
        inner_.dotColumnsFast(cols, v, out);
    }
    double sumSquares(size_t col) const override
    {
        return inner_.sumSquares(col);
    }
    double sum(size_t col) const override { return inner_.sum(col); }
    double
    value(size_t row, size_t col) const override
    {
        return inner_.value(row, col);
    }

  private:
    const BitFeatureView &inner_;
};

TEST(SolverBatchedDots, UnbatchedGenericFitIsBitIdentical)
{
    // Batched zero-weight sweeps and batched gradient passes must not
    // move a single bit of a target-Q search against the same search
    // through single dots.
    const size_t n = 1500;
    const size_t m = 600;
    BitColumnMatrix X(n, m);
    Xoshiro256StarStar rng(0xba7c4);
    for (size_t j = 0; j < m; ++j) {
        const double density = 0.01 + 0.6 * rng.nextDouble() *
                                          rng.nextDouble();
        for (size_t i = 0; i < n; ++i)
            if (rng.nextDouble() < density)
                X.setBit(i, j);
    }
    std::vector<float> y(n, 3.0f);
    for (size_t k = 0; k < 20; ++k)
        X.axpyColumn(k * (m / 20) + 7,
                     static_cast<float>(0.3 + rng.nextDouble()), y.data());
    for (float &v : y)
        v += static_cast<float>(0.05 * rng.nextGaussian());

    const BitFeatureView bits(X);
    const ForwardingView fwd(bits);
    for (PenaltyKind kind : {PenaltyKind::Lasso, PenaltyKind::Mcp}) {
        CdConfig cfg;
        cfg.penalty.kind = kind;
        CdSolver batched_solver(bits, y);
        CdSolver single_solver(fwd, y);
        TargetQDiagnostics batched_diag;
        TargetQDiagnostics single_diag;
        const CdResult batched =
            solveForTargetQ(batched_solver, cfg, 25, &batched_diag);
        const CdResult single =
            solveForTargetQ(single_solver, cfg, 25, &single_diag);
        SCOPED_TRACE(kind == PenaltyKind::Mcp ? "mcp" : "lasso");
        ASSERT_EQ(batched.w.size(), single.w.size());
        EXPECT_EQ(0, std::memcmp(batched.w.data(), single.w.data(),
                                 batched.w.size() * sizeof(float)));
        EXPECT_EQ(0, std::memcmp(&batched.intercept, &single.intercept,
                                 sizeof(double)));
        EXPECT_EQ(batched.sweeps, single.sweeps);
        EXPECT_EQ(batched.kktPasses, single.kktPasses);
        EXPECT_EQ(batched.kktDots, single.kktDots);
        EXPECT_EQ(batched_diag.pathPoints, single_diag.pathPoints);
        EXPECT_EQ(batched_diag.bisections, single_diag.bisections);
        EXPECT_EQ(batched_diag.totalSweeps, single_diag.totalSweeps);
        EXPECT_EQ(batched_diag.totalKktPasses, single_diag.totalKktPasses);
        EXPECT_EQ(batched_diag.totalKktDots, single_diag.totalKktDots);
        EXPECT_GT(batched_diag.totalKktPasses, 0u);
        EXPECT_EQ(batched.nonzeros(), 25u);
    }
}

} // namespace
} // namespace apollo
