/**
 * @file
 * Target-Q search: a warm-started geometric lambda descent for the
 * L1-family penalties (Lasso, MCP) — APOLLO adjusts the penalty
 * strength lambda to control the number of selected proxies Q (§4.3).
 */

#ifndef APOLLO_ML_SOLVER_PATH_HH
#define APOLLO_ML_SOLVER_PATH_HH

#include <cstdint>
#include <vector>

#include "ml/coordinate_descent.hh"

namespace apollo {

/** Geometric decay between consecutive lambdas of the target-Q walk. */
inline constexpr double kLambdaPathFactor = 0.82;

/** The walk stops below lambdaMax * kLambdaPathMinRatio. */
inline constexpr double kLambdaPathMinRatio = 1e-4;

/** Diagnostics from one target-Q search (over all of its targets). */
struct TargetQDiagnostics
{
    /** Lambda of the solution returned for the largest target. */
    double lambda = 0.0;
    /** Geometric path points solved (bisection fits excluded). */
    size_t pathPoints = 0;
    /** Bisection fits, summed over every target. */
    size_t bisections = 0;
    /** Some target's support was trimmed to hit its Q exactly. */
    bool trimmed = false;
    /** Coordinate sweeps summed over every fit of the search. */
    size_t totalSweeps = 0;
    /** KKT re-admission passes summed over every fit of the search. */
    size_t totalKktPasses = 0;
    /** Exact screening/KKT gradient dots summed over every fit. */
    size_t totalKktDots = 0;
    /**
     * Largest strong set over every fit of the search — the peak
     * working set swept each iteration. For the out-of-core sharded
     * path this is the peak count of columns held hot in RAM while
     * the remaining M - peakStrongSize stream from disk only for KKT
     * certification.
     */
    size_t peakStrongSize = 0;
};

/**
 * Solve for several target supports with ONE warm-started path walk
 * (the Fig. 10/12 sweeps need solutions at many Q): lambda falls from
 * lambdaMax by kLambdaPathFactor per point, down to kLambdaPathMinRatio
 * of it, until nonzeros reach each target, in ascending order, and
 * each overshot bracket (lambda_k, lambda_{k-1}] — lambdaMax itself
 * above the first point — is bisected 12 times geometrically. If no lambda yields exactly a
 * target (support jumps), the smallest support above it is trimmed to
 * the target's largest |w_j|*sqrt(a_j) weights (the downstream
 * relaxation refits anyway). Targets the path never reaches get its
 * densest solution. Returns one CdResult per target, in the order
 * given.
 */
std::vector<CdResult> solveForTargetsQ(CdSolver &solver, CdConfig base,
                                       std::vector<size_t> targets,
                                       TargetQDiagnostics *diag = nullptr);

/** solveForTargetsQ for one target (>= 1): a solution with exactly
 *  @p target_q nonzero weights (§4.3's Q). */
CdResult solveForTargetQ(CdSolver &solver, CdConfig base, size_t target_q,
                         TargetQDiagnostics *diag = nullptr);

} // namespace apollo

#endif // APOLLO_ML_SOLVER_PATH_HH
