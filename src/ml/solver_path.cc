#include "ml/solver_path.hh"

#include <algorithm>
#include <cmath>

#include "obs/metrics.hh"
#include "util/logging.hh"

namespace apollo {

namespace {

/** Trim a solution's support to the target_q largest scaled weights. */
void
trimSupport(CdResult &result, size_t target_q,
            const std::vector<double> &col_norms)
{
    std::vector<std::pair<double, uint32_t>> ranked;
    for (size_t j = 0; j < result.w.size(); ++j) {
        if (result.w[j] != 0.0f)
            ranked.emplace_back(std::abs(result.w[j]) *
                                    std::sqrt(col_norms[j]),
                                static_cast<uint32_t>(j));
    }
    if (ranked.size() <= target_q)
        return;
    std::nth_element(
        ranked.begin(), ranked.begin() + static_cast<long>(target_q),
        ranked.end(),
        [](const auto &a, const auto &b) { return a.first > b.first; });
    for (size_t k = target_q; k < ranked.size(); ++k)
        result.w[ranked[k].second] = 0.0f;
}

} // namespace

CdResult
solveForTargetQ(CdSolver &solver, CdConfig base, size_t target_q,
                TargetQDiagnostics *diag)
{
    APOLLO_REQUIRE(target_q >= 1, "target Q must be positive");
    return solveForTargetsQ(solver, base, {target_q}, diag).front();
}

std::vector<CdResult>
solveForTargetsQ(CdSolver &solver, CdConfig base,
                 std::vector<size_t> targets, TargetQDiagnostics *diag)
{
    APOLLO_REQUIRE(!targets.empty(), "no targets");
    std::vector<size_t> order(targets.size());
    for (size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        return targets[a] < targets[b];
    });

    const double lambda_max = solver.lambdaMax();
    APOLLO_REQUIRE(lambda_max > 0.0, "labels are constant");
    const double factor = kLambdaPathFactor;
    const double lambda_floor = lambda_max * kLambdaPathMinRatio;

    std::vector<CdResult> results(targets.size());
    size_t next = 0; // index into `order`
    size_t path_points = 0;
    size_t bisections = 0;
    bool trimmed = false;
    double result_lambda = lambda_max;

    double lambda = lambda_max * factor;
    double prev_lambda = lambda_max;
    CdResult warm;
    double warm_lambda = lambda_max;
    bool have_warm = false;

    auto solve_at = [&](double lam) {
        base.penalty.lambda = lam;
        base.screenLambdaRef = warm_lambda;
        CdResult res = solver.fit(base, have_warm ? &warm : nullptr);
        if (diag) {
            diag->totalSweeps += res.sweeps;
            diag->totalKktPasses += res.kktPasses;
            diag->totalKktDots += res.kktDots;
            diag->peakStrongSize =
                std::max(diag->peakStrongSize, size_t{res.strongSize});
        }
        warm = res;
        warm_lambda = lam;
        have_warm = true;
        return res;
    };

    while (next < order.size() && lambda >= lambda_floor) {
        CdResult point = solve_at(lambda);
        const size_t nnz = point.nonzeros();
        path_points++;
        APOLLO_COUNT("apollo.solver.path_points", 1);
        APOLLO_OBSERVE("apollo.solver.lambda_sweeps",
                       static_cast<double>(point.sweeps),
                       ::apollo::obs::countBounds());

        // Resolve every target bracketed by (prev_lambda, lambda].
        while (next < order.size() && nnz >= targets[order[next]]) {
            const size_t target = targets[order[next]];
            if (nnz == target) {
                results[order[next]] = point;
                result_lambda = lambda;
                next++;
                continue;
            }
            // Bisect within (lambda, prev_lambda) for this target; the
            // first point's bracket reaches up to lambdaMax itself.
            double lo = lambda;
            double hi = prev_lambda;
            CdResult best = point;
            size_t best_nnz = nnz;
            double best_lambda = lambda;
            bool exact = false;
            for (int iter = 0; iter < 12; ++iter) {
                bisections++;
                APOLLO_COUNT("apollo.solver.bisections", 1);
                const double mid = std::sqrt(lo * hi); // geometric
                CdResult mid_res = solve_at(mid);
                const size_t mid_nnz = mid_res.nonzeros();
                if (mid_nnz == target) {
                    results[order[next]] = std::move(mid_res);
                    result_lambda = mid;
                    exact = true;
                    break;
                }
                if (mid_nnz > target) {
                    // Track the tightest superset solution for trimming.
                    if (mid_nnz < best_nnz) {
                        best = std::move(mid_res);
                        best_nnz = mid_nnz;
                        best_lambda = mid;
                    }
                    lo = mid;
                } else {
                    hi = mid;
                }
            }
            if (!exact) {
                trimSupport(best, target, solver.columnNorms());
                results[order[next]] = std::move(best);
                result_lambda = best_lambda;
                trimmed = true;
            }
            next++;
            // Re-anchor the warm start on the dense path point so the
            // continuation stays monotone.
            warm = point;
            warm_lambda = lambda;
        }

        prev_lambda = lambda;
        lambda *= factor;
    }

    // Targets the path never reached: return the densest solution
    // available. If no lambda point was ever solved (the loop can be
    // starved by a degenerate lambda range), `warm` would be a
    // default-constructed CdResult with empty weights — solve the path
    // floor explicitly instead of handing that out.
    if (next < order.size() && !have_warm)
        solve_at(lambda_floor);
    APOLLO_ASSERT(next >= order.size() || !warm.w.empty(),
                  "densest-solution fallback produced an empty model");
    if (next < order.size())
        result_lambda = warm_lambda;
    for (; next < order.size(); ++next)
        results[order[next]] = warm;

    if (diag) {
        diag->lambda = result_lambda;
        diag->pathPoints = path_points;
        diag->bisections = bisections;
        diag->trimmed = trimmed;
    }
    return results;
}

} // namespace apollo
