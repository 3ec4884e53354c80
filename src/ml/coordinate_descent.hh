/**
 * @file
 * Penalized linear regression by cyclic coordinate descent with
 * residual updates, warm starts, and a glmnet-style working-set
 * strategy (iterate on the active set, then sweep all features to pick
 * up KKT violators). This is the optimizer behind both the MCP proxy
 * selection (§4.3) and every linear baseline.
 *
 * The fit hot path is layered for speed (docs/INTERNALS.md §6):
 *  - sequential strong-rule screening restricts full sweeps to a small
 *    strong set, with a KKT verification pass over rejected columns at
 *    convergence (violators are re-admitted and the fit re-solved, so
 *    screening never changes the selected support);
 *  - both the screening estimate and the KKT pass run off a per-column
 *    anchored gradient cache: |<x_j, r>| can move from the exact dot
 *    recorded at column j's anchor by at most ||x_j|| times the
 *    residual path length accumulated since (Cauchy-Schwarz + triangle
 *    inequality), so most rejected columns are certified without any
 *    dot product, and every exact dot re-anchors its own column;
 *  - the per-column gradient passes (screening refresh, KKT, lambdaMax,
 *    column norms) fan out over the shared thread pool with
 *    deterministic per-column outputs;
 *  - the sweep kernel is instantiated per concrete FeatureView so the
 *    inner dot/axpy calls devirtualize, and in Lasso/MCP fits it dots
 *    runs of zero-weight columns bitkernels::kDotBatch at a time
 *    through FeatureView::dotColumns (bit-identical to single dots).
 */

#ifndef APOLLO_ML_COORDINATE_DESCENT_HH
#define APOLLO_ML_COORDINATE_DESCENT_HH

#include <cstdint>
#include <span>
#include <vector>

#include "ml/feature_view.hh"
#include "ml/penalty.hh"

namespace apollo {

class ThreadPool;

/** Solver configuration. */
struct CdConfig
{
    PenaltyConfig penalty;
    bool fitIntercept = true;
    uint32_t maxSweeps = 300;
    /** Convergence: max scaled weight change below tol * std(y). */
    double tol = 1e-4;
    /**
     * Sequential strong-rule screening (Tibshirani et al.): sweep only
     * columns whose warm-start gradient exceeds 2*lambda - lambdaRef,
     * then verify the KKT conditions of the rejected columns at
     * convergence and re-solve with any violators re-admitted. Exact —
     * only the work changes, never the solution. Applies to the
     * sparsity-inducing penalties (Lasso/MCP) with lambda > 0.
     */
    bool screen = true;
    /**
     * Lambda at which the warm start (or the cold zero solution) is
     * optimal; <= 0 means unknown, in which case the first-point rule
     * anchors at lambdaMax. The path drivers in solver_path.cc set
     * this per point.
     */
    double screenLambdaRef = -1.0;
};

/** Fitted model. */
struct CdResult
{
    std::vector<float> w;
    double intercept = 0.0;
    uint32_t sweeps = 0;
    double trainMse = 0.0;
    bool converged = false;
    /** KKT verification passes run over screened-out columns. */
    uint32_t kktPasses = 0;
    /**
     * Gradient dot products spent on screening/KKT verification:
     * columns the anchored-cache bound could not certify (served by
     * the fast float kernel), plus the one-time cache bootstrap. The
     * remaining columns were certified KKT-satisfying with no dot at
     * all.
     */
    uint32_t kktDots = 0;
    /** Live columns excluded from sweeps by the final strong set. */
    uint32_t screenedOut = 0;
    /** Columns in the final strong set (the working set kept hot in
     *  RAM — the out-of-core path's resident column count). */
    uint32_t strongSize = 0;

    size_t nonzeros() const;
    /** Indices of nonzero weights, ascending. */
    std::vector<uint32_t> support() const;
};

/**
 * Precomputed construction-time statistics for CdSolver, harvested by
 * an external streaming pass (ShardedFeatureView::screen()). Seeding
 * skips the solver's own lambdaMax pass and gradient-cache bootstrap —
 * the two whole-matrix scans that would otherwise fault every cold
 * column back off disk. The values must be EXACTLY what the solver's
 * own passes produce (same kernels, same inputs): gradY[j] is
 * <x_j, y - float(mean(y))> from bitkernels::dotWords — the gradient
 * at the centered cold residual a fit screens at after its first
 * intercept update — and lambdaMax is max_j |<x_j, y - mean(y)>| / N
 * over live columns (the constructor's double-centered recipe). A
 * cold-start fit on a seeded solver is then bit-identical to the
 * unseeded one: the first intercept update reproduces the exact
 * centered residual the seed was computed at, so the seeded anchor
 * state matches the bootstrap's and the first drift accounting sees a
 * zero increment.
 */
struct SolverSeed
{
    /** Exact <x_j, y - float(mean(y))> per column (cols() entries;
     *  dead columns ignored). */
    std::vector<double> gradY;
    /** max_j |<x_j, y - mean(y)>| / N; < 0 means not provided. */
    double lambdaMax = -1.0;
};

/**
 * Coordinate-descent solver bound to one (X, y) pair; reusable across
 * penalty configurations (warm starts make lambda paths cheap).
 * Centered labels and lambdaMax are computed once and cached — every
 * path driver used to recompute them per call.
 */
class CdSolver
{
  public:
    /** Execution options (orthogonal to the math in CdConfig). */
    struct Options
    {
        /** Fan per-column passes over the thread pool. */
        bool parallel = true;
        /** Pool to use; nullptr means ThreadPool::global(). */
        ThreadPool *pool = nullptr;
    };

    CdSolver(const FeatureView &X, std::span<const float> y);
    CdSolver(const FeatureView &X, std::span<const float> y,
             Options options);
    /** Seeded variant (see SolverSeed): adopts the precomputed
     *  lambdaMax and installs gradY as the anchored gradient cache at
     *  the r = y state, as if bootstrapGradCache had just run on a
     *  cold residual. */
    CdSolver(const FeatureView &X, std::span<const float> y,
             Options options, SolverSeed seed);

    /**
     * Fit with @p config. If @p warm_start is non-null it must have
     * cols() entries and seeds the weights.
     */
    CdResult fit(const CdConfig &config,
                 const CdResult *warm_start = nullptr);

    /**
     * Largest lambda with an all-zero solution (for L1-family paths):
     * max_j |<x_j, y - mean(y)>| / N. Cached after the first call.
     */
    double lambdaMax() const;

    /** Column norms a_j = <x_j, x_j>/N (cached). */
    const std::vector<double> &columnNorms() const { return a_; }

    /** y - mean(y), computed once at construction. */
    std::span<const float> centeredLabels() const { return yCentered_; }

    double labelMean() const { return yMean_; }

  private:
    template <typename View>
    CdResult fitImpl(const View &X, const CdConfig &config,
                     const CdResult *warm_start);
    /** One coordinate-descent sweep over @p cols, releasing the
     *  backing pages of each swept chunk on out-of-core views. */
    template <typename View>
    double sweepOver(const View &X, std::span<const uint32_t> cols,
                     const CdConfig &cfg, std::vector<float> &w,
                     std::vector<float> &r);
    void updateIntercept(std::vector<float> &r, double &intercept);
    /**
     * out[k] = <x_cols[k], r> for all k, fanned over the pool when
     * enabled. Deterministic: each output depends only on its column.
     */
    void columnGradients(std::span<const uint32_t> cols, const float *r,
                         double *out) const;
    /** Approximate variant through FeatureView::dotColumnsFast; each
     *  out[k] is within bitkernels::dotFastRelErr(words per column) *
     *  xNorm_[cols[k]] * ||r||. */
    void columnGradientsFast(std::span<const uint32_t> cols,
                             const float *r, double *out) const;
    /** First use: exact dots for every live column at @p r. */
    void bootstrapGradCache(const std::vector<float> &r);
    /**
     * Fold the residual movement since the last accounting event into
     * the running drift totals: d = r - lastResidual_ is split into an
     * all-ones component (intercept updates move the whole residual by
     * a constant; it shifts every gradient by exactly mean * sum(x_j),
     * so it is tracked as a signed exact term in meanAcc_) and an
     * orthogonal remainder whose norm is added to driftAcc_.
     */
    void advanceDriftAccount(const std::vector<float> &r);
    /**
     * Upper bound on |<x_j, r>| at the residual of the last accounting
     * event, from column j's private anchor: the exact dot recorded
     * there, the exact mean shift since, and a Cauchy-Schwarz radius
     * xNorm_[j] * (driftAcc_ - anchorDrift_[j]). Summing per-event perp
     * norms (triangle inequality) is looser than one anchored distance,
     * but lets every exact dot re-anchor its own column for free — the
     * marginal columns re-anchor every KKT pass, so no batched
     * whole-matrix refresh is ever needed.
     */
    double certBound(uint32_t j) const;
    /**
     * Record dots (taken at the last accounting event's residual) as
     * the new anchors of @p cols. @p extraDrift inflates each anchor's
     * radius; passing the approximate kernel's error bound divided by
     * xNorm (constant across columns: dotFastRelErr * ||r||) makes
     * anchors from dotColumnsFast results rigorous.
     */
    void anchorColumns(std::span<const uint32_t> cols, const double *dots,
                       double extraDrift = 0.0);

    const FeatureView &X_;
    std::span<const float> y_;
    std::vector<double> a_;      ///< <x_j,x_j>/N
    std::vector<double> xNorm_;  ///< ||x_j||_2 = sqrt(N * a_j)
    std::vector<double> colSum_; ///< <x_j, 1> (for the drift mean term)
    std::vector<uint32_t> live_; ///< columns with a_j > 0
    double yStd_ = 1.0;
    double yMean_ = 0.0;
    std::vector<float> yCentered_;
    mutable double lambdaMax_ = -1.0; ///< cache; -1 = not yet computed
    bool parallel_ = true;
    ThreadPool *pool_ = nullptr;
    std::vector<double> gradBuf_; ///< scratch for screening/KKT passes
    /** Scratch: borderline columns refetched exactly per KKT pass. */
    std::vector<uint32_t> exact_;

    /**
     * Per-column anchored gradient cache for screening and KKT
     * certification (see certBound()). Self-describing — valid at any
     * lambda or penalty, for any fit on this solver — because the
     * accounting is over actual residuals: cachedDot_[j] is the exact
     * <x_j, r_event> at the accounting event where column j was last
     * anchored, and (anchorMean_[j], anchorDrift_[j]) snapshot the
     * running totals at that event.
     */
    std::vector<double> cachedDot_;    ///< indexed by column
    std::vector<double> anchorMean_;   ///< meanAcc_ at the anchor event
    std::vector<double> anchorDrift_;  ///< driftAcc_ at the anchor event
    std::vector<float> lastResidual_;  ///< residual at the last event
    double meanAcc_ = 0.0;  ///< cumulative signed mean of increments
    double driftAcc_ = 0.0; ///< cumulative perp norm of increments
    /**
     * Bound on the residual movement applied since the last accounting
     * event (sum of ||delta * x_j|| over coordinate/intercept updates).
     * Lets the sweep kernel recycle the exact dots it computes anyway:
     * a column swept mid-sweep is re-anchored with
     * anchorDrift_[j] = driftAcc_ - pendingDrift_, which over-covers
     * the movement between the last event and the moment of the dot.
     * Marginal w = 0 columns in the strong set thus refresh their
     * anchors every sweep at zero extra dot cost, keeping the next
     * fit's screening bounds tight.
     */
    double pendingDrift_ = 0.0;
    bool gradCacheValid_ = false;
};

} // namespace apollo

#endif // APOLLO_ML_COORDINATE_DESCENT_HH
