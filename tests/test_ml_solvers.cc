/**
 * @file
 * Tests for the ML solver stack: penalty math (Eqs. 5-7), coordinate
 * descent on synthetic problems with known solutions, lambda paths and
 * target-Q search, metrics, and VIF. Includes parameterized property
 * sweeps over the MCP penalty.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "ml/coordinate_descent.hh"
#include "ml/metrics.hh"
#include "ml/penalty.hh"
#include "ml/solver_path.hh"
#include "util/rng.hh"

namespace apollo {
namespace {

TEST(Penalty, SoftThreshold)
{
    EXPECT_DOUBLE_EQ(softThreshold(3.0, 1.0), 2.0);
    EXPECT_DOUBLE_EQ(softThreshold(-3.0, 1.0), -2.0);
    EXPECT_DOUBLE_EQ(softThreshold(0.5, 1.0), 0.0);
    EXPECT_DOUBLE_EQ(softThreshold(-0.5, 1.0), 0.0);
}

TEST(Penalty, LassoValueMatchesEq5)
{
    PenaltyConfig cfg;
    cfg.kind = PenaltyKind::Lasso;
    cfg.lambda = 2.0;
    EXPECT_DOUBLE_EQ(penaltyValue(3.0, cfg), 6.0);
    EXPECT_DOUBLE_EQ(penaltyValue(-3.0, cfg), 6.0);
    EXPECT_DOUBLE_EQ(penaltyDerivativeMagnitude(0.5, cfg), 2.0);
    EXPECT_DOUBLE_EQ(penaltyDerivativeMagnitude(100.0, cfg), 2.0);
}

/** Property sweep over the MCP penalty (Eqs. 6-7). */
class McpPenaltyProperty
    : public ::testing::TestWithParam<std::tuple<double, double>>
{};

TEST_P(McpPenaltyProperty, ValueAndDerivativeForms)
{
    const auto [lambda, gamma] = GetParam();
    PenaltyConfig cfg;
    cfg.kind = PenaltyKind::Mcp;
    cfg.lambda = lambda;
    cfg.gamma = gamma;

    const double knee = gamma * lambda;
    // Inside the concave region: Eq. (6) first branch.
    for (double w : {0.1 * knee, 0.5 * knee, 0.99 * knee}) {
        EXPECT_NEAR(penaltyValue(w, cfg),
                    lambda * w - w * w / (2.0 * gamma), 1e-12);
        // Eq. (7): derivative magnitude lambda - |w|/gamma.
        EXPECT_NEAR(penaltyDerivativeMagnitude(w, cfg),
                    lambda - w / gamma, 1e-12);
    }
    // Beyond the knee: constant penalty, zero shrinking (Eq. 7).
    for (double w : {1.01 * knee, 2.0 * knee, 50.0 * knee}) {
        EXPECT_NEAR(penaltyValue(w, cfg),
                    0.5 * gamma * lambda * lambda, 1e-12);
        EXPECT_DOUBLE_EQ(penaltyDerivativeMagnitude(w, cfg), 0.0);
    }
    // Continuity at the knee.
    EXPECT_NEAR(penaltyValue(knee - 1e-9, cfg),
                penaltyValue(knee + 1e-9, cfg), 1e-6);
    // Symmetry.
    EXPECT_DOUBLE_EQ(penaltyValue(0.3 * knee, cfg),
                     penaltyValue(-0.3 * knee, cfg));
    // MCP never exceeds Lasso at the same lambda.
    PenaltyConfig lasso = cfg;
    lasso.kind = PenaltyKind::Lasso;
    for (double w = 0.0; w < 3.0 * knee; w += 0.1 * knee + 1e-6)
        EXPECT_LE(penaltyValue(w, cfg), penaltyValue(w, lasso) + 1e-12);
}

INSTANTIATE_TEST_SUITE_P(
    LambdaGammaGrid, McpPenaltyProperty,
    ::testing::Combine(::testing::Values(0.1, 1.0, 3.0),
                       ::testing::Values(2.0, 3.0, 10.0)));

/** Coordinate-update property: the closed form minimizes the scalar
 *  subproblem 0.5*a*w^2 - rho*w + P(|w|). */
class CoordinateUpdateProperty
    : public ::testing::TestWithParam<std::tuple<int, double, double>>
{};

TEST_P(CoordinateUpdateProperty, ClosedFormBeatsGridScan)
{
    const auto [kind_i, rho, a] = GetParam();
    PenaltyConfig cfg;
    cfg.kind = static_cast<PenaltyKind>(kind_i);
    cfg.lambda = 0.5;
    cfg.gamma = 4.0;
    cfg.lambda2 = cfg.kind == PenaltyKind::Ridge ? 0.3 : 0.0;

    const double w_star = coordinateUpdate(rho, a, cfg);
    auto objective = [&](double w) {
        return 0.5 * a * w * w - rho * w + penaltyValue(w, cfg);
    };
    const double f_star = objective(w_star);
    for (double w = -6.0; w <= 6.0; w += 0.001)
        ASSERT_GE(objective(w) + 1e-9, f_star)
            << "grid point " << w << " beats closed form " << w_star;
}

INSTANTIATE_TEST_SUITE_P(
    KindsRhosNorms, CoordinateUpdateProperty,
    ::testing::Combine(
        ::testing::Values(static_cast<int>(PenaltyKind::Ridge),
                          static_cast<int>(PenaltyKind::Lasso),
                          static_cast<int>(PenaltyKind::Mcp)),
        ::testing::Values(-2.0, -0.3, 0.0, 0.3, 2.0),
        ::testing::Values(0.5, 1.0, 2.0)));

TEST(Penalty, NonnegClampsUpdates)
{
    PenaltyConfig cfg;
    cfg.kind = PenaltyKind::Lasso;
    cfg.lambda = 0.1;
    cfg.nonneg = true;
    EXPECT_DOUBLE_EQ(coordinateUpdate(-2.0, 1.0, cfg), 0.0);
    EXPECT_GT(coordinateUpdate(2.0, 1.0, cfg), 0.0);
}

/** Synthetic sparse regression problem over binary features. */
struct SparseProblem
{
    BitColumnMatrix X;
    std::vector<float> y;
    std::vector<float> trueW;
    double intercept = 2.0;
};

SparseProblem
makeProblem(size_t n, size_t m, size_t k, uint64_t seed,
            double noise = 0.05)
{
    SparseProblem prob;
    prob.X.reset(n, m);
    prob.trueW.assign(m, 0.0f);
    Xoshiro256StarStar rng(seed);
    for (size_t c = 0; c < m; ++c) {
        const double rate = 0.05 + 0.3 * rng.nextDouble();
        for (size_t r = 0; r < n; ++r)
            if (rng.nextDouble() < rate)
                prob.X.setBit(r, c);
    }
    for (size_t j = 0; j < k; ++j)
        prob.trueW[j * (m / k)] =
            static_cast<float>(1.0 + 2.0 * rng.nextDouble());
    prob.y.resize(n);
    for (size_t r = 0; r < n; ++r) {
        double acc = prob.intercept;
        for (size_t c = 0; c < m; ++c)
            if (prob.trueW[c] != 0.0f && prob.X.get(r, c))
                acc += prob.trueW[c];
        prob.y[r] =
            static_cast<float>(acc + noise * rng.nextGaussian());
    }
    return prob;
}

TEST(CdSolver, OlsRecoversPlantedModel)
{
    const SparseProblem prob = makeProblem(2000, 30, 5, 11);
    BitFeatureView view(prob.X);
    CdSolver solver(view, prob.y);
    CdConfig cfg;
    cfg.penalty.kind = PenaltyKind::Ridge;
    cfg.penalty.lambda2 = 1e-6;
    cfg.maxSweeps = 500;
    cfg.tol = 1e-7;
    const CdResult fit = solver.fit(cfg);
    EXPECT_TRUE(fit.converged);
    EXPECT_NEAR(fit.intercept, prob.intercept, 0.1);
    for (size_t c = 0; c < 30; ++c)
        EXPECT_NEAR(fit.w[c], prob.trueW[c], 0.08) << "weight " << c;
}

TEST(CdSolver, LassoFindsPlantedSupport)
{
    const SparseProblem prob = makeProblem(3000, 120, 6, 17);
    BitFeatureView view(prob.X);
    CdSolver solver(view, prob.y);
    CdConfig cfg;
    cfg.penalty.kind = PenaltyKind::Lasso;
    const CdResult fit = solveForTargetQ(solver, cfg, 6);
    const auto support = fit.support();
    ASSERT_EQ(support.size(), 6u);
    for (uint32_t j : support)
        EXPECT_GT(prob.trueW[j], 0.0f)
            << "selected a spurious feature " << j;
}

TEST(CdSolver, McpWeightsLessBiasedThanLasso)
{
    // At the same support size, MCP's surviving weights should be
    // closer to the planted values than Lasso's over-shrunk ones
    // (the Fig. 13 effect).
    const SparseProblem prob = makeProblem(3000, 120, 6, 23, 0.02);
    BitFeatureView view(prob.X);
    CdSolver solver(view, prob.y);

    CdConfig lasso;
    lasso.penalty.kind = PenaltyKind::Lasso;
    const CdResult lasso_fit = solveForTargetQ(solver, lasso, 6);

    CdConfig mcp;
    mcp.penalty.kind = PenaltyKind::Mcp;
    mcp.penalty.gamma = 10.0;
    const CdResult mcp_fit = solveForTargetQ(solver, mcp, 6);

    double lasso_sum = 0.0;
    double mcp_sum = 0.0;
    double true_sum = 0.0;
    for (size_t c = 0; c < 120; ++c) {
        lasso_sum += std::abs(lasso_fit.w[c]);
        mcp_sum += std::abs(mcp_fit.w[c]);
        true_sum += std::abs(prob.trueW[c]);
    }
    EXPECT_GT(mcp_sum, lasso_sum)
        << "MCP must leave large weights unshrunk";
    EXPECT_NEAR(mcp_sum, true_sum, 0.15 * true_sum);
}

TEST(CdSolver, LambdaMaxYieldsEmptyModel)
{
    const SparseProblem prob = makeProblem(1500, 60, 4, 31);
    BitFeatureView view(prob.X);
    CdSolver solver(view, prob.y);
    CdConfig cfg;
    cfg.penalty.kind = PenaltyKind::Lasso;
    cfg.penalty.lambda = solver.lambdaMax() * 1.0001;
    const CdResult fit = solver.fit(cfg);
    EXPECT_EQ(fit.nonzeros(), 0u);

    cfg.penalty.lambda = solver.lambdaMax() * 0.8;
    const CdResult fit2 = solver.fit(cfg);
    EXPECT_GT(fit2.nonzeros(), 0u);
}

TEST(CdSolver, WarmStartConvergesFaster)
{
    const SparseProblem prob = makeProblem(3000, 150, 8, 37);
    BitFeatureView view(prob.X);
    CdSolver solver(view, prob.y);
    CdConfig cfg;
    cfg.penalty.kind = PenaltyKind::Lasso;
    cfg.penalty.lambda = solver.lambdaMax() * 0.1;

    const CdResult cold = solver.fit(cfg);
    const CdResult warm = solver.fit(cfg, &cold);
    EXPECT_LE(warm.sweeps, cold.sweeps);
    EXPECT_NEAR(warm.trainMse, cold.trainMse, 1e-6 + 0.01 * cold.trainMse);
}

TEST(SolverPath, MultiTargetMatchesSingleTarget)
{
    const SparseProblem prob = makeProblem(2500, 150, 10, 43);
    BitFeatureView view(prob.X);
    CdSolver solver(view, prob.y);
    CdConfig cfg;
    cfg.penalty.kind = PenaltyKind::Mcp;

    const std::vector<size_t> targets = {5, 12, 25};
    const auto multi = solveForTargetsQ(solver, cfg, targets);
    ASSERT_EQ(multi.size(), 3u);
    for (size_t i = 0; i < targets.size(); ++i)
        EXPECT_EQ(multi[i].nonzeros(), targets[i]) << "target " << i;
}

TEST(Metrics, PerfectAndMeanPredictors)
{
    std::vector<float> y = {1, 2, 3, 4, 5};
    std::vector<float> perfect = y;
    EXPECT_DOUBLE_EQ(r2Score(y, perfect), 1.0);
    EXPECT_DOUBLE_EQ(nrmse(y, perfect), 0.0);
    EXPECT_DOUBLE_EQ(nmae(y, perfect), 0.0);

    std::vector<float> mean_pred(5, 3.0f);
    EXPECT_NEAR(r2Score(y, mean_pred), 0.0, 1e-12);
}

TEST(Metrics, NrmseMatchesHandComputation)
{
    std::vector<float> y = {2, 2, 2, 2};
    std::vector<float> p = {1, 3, 1, 3};
    // RMSE = 1, mean = 2 -> NRMSE = 0.5. NMAE = 4/8 = 0.5.
    EXPECT_DOUBLE_EQ(nrmse(y, p), 0.5);
    EXPECT_DOUBLE_EQ(nmae(y, p), 0.5);
}

TEST(Metrics, PearsonSignsAndScale)
{
    std::vector<float> a = {1, 2, 3, 4};
    std::vector<float> b = {2, 4, 6, 8};
    std::vector<float> c = {8, 6, 4, 2};
    EXPECT_NEAR(pearson(a, b), 1.0, 1e-12);
    EXPECT_NEAR(pearson(a, c), -1.0, 1e-12);
}

TEST(Metrics, VifDetectsCorrelatedColumns)
{
    // Build two near-duplicate columns + independents.
    const size_t n = 2000;
    BitColumnMatrix corr(n, 4);
    BitColumnMatrix indep(n, 4);
    Xoshiro256StarStar rng(3);
    for (size_t r = 0; r < n; ++r) {
        const bool base = rng.nextDouble() < 0.3;
        if (base) {
            corr.setBit(r, 0);
            if (rng.nextDouble() < 0.95)
                corr.setBit(r, 1); // near-duplicate of col 0
        }
        for (size_t c = 2; c < 4; ++c)
            if (rng.nextDouble() < 0.3)
                corr.setBit(r, c);
        for (size_t c = 0; c < 4; ++c)
            if (rng.nextDouble() < 0.3)
                indep.setBit(r, c);
    }
    const double vif_corr = averageVif(corr);
    const double vif_indep = averageVif(indep);
    EXPECT_GT(vif_corr, 2.0 * vif_indep);
    EXPECT_LT(vif_indep, 1.5);
}

} // namespace
} // namespace apollo
