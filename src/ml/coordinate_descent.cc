#include "ml/coordinate_descent.hh"

#include <algorithm>
#include <cmath>

#include "ml/sharded_view.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "util/bitvec_kernels.hh"
#include "util/logging.hh"
#include "util/thread_pool.hh"

namespace apollo {

namespace {

/** Below this many live columns, screening/parallel overheads exceed
 *  the sweep cost they save. */
constexpr size_t kScreenMinCols = 64;
constexpr size_t kParallelMinCols = 128;
/**
 * Batched gradient passes and coordinate sweeps release the pages of
 * the columns they touch in chunks (FeatureView::releaseColumns), so
 * a pass over an out-of-core view never accumulates the payload in
 * RAM. A chunk is cut when it reaches kReleaseChunkCols columns OR
 * when it spans more than kReleaseSpanBytes of the packed column
 * space — the span bound is what actually caps the transient
 * footprint: a fault on a cached file maps the whole containing
 * page-cache folio (megabytes on large-folio kernels), so the
 * resident spill between releases tracks the span the chunk's columns
 * cover, not their count. Resident views devirtualize releaseColumns
 * to a no-op and see only the loop restructuring.
 */
constexpr size_t kReleaseChunkCols = 2048;
constexpr uint64_t kReleaseSpanBytes = 4 * 1024 * 1024;

/** Packed bytes per column (ceil(rows/64) words of 8 bytes) — the
 *  layout both bit views serve. */
uint64_t
packedBytesPerCol(size_t rows)
{
    return ((rows + 63) / 64) * sizeof(uint64_t);
}

/** End of the adaptive release chunk starting at @p c0 (exclusive
 *  upper bound @p end): bounded in count and in spanned bytes. */
size_t
releaseChunkEnd(std::span<const uint32_t> cols, size_t c0, size_t end,
                uint64_t bytes_per_col)
{
    size_t c1 = c0 + 1;
    while (c1 < end && c1 - c0 < kReleaseChunkCols &&
           static_cast<uint64_t>(cols[c1] - cols[c0]) * bytes_per_col <
               kReleaseSpanBytes)
        ++c1;
    return c1;
}

/**
 * Relative slack applied to the Cauchy-Schwarz certification bound so
 * rounding in the cached gradients / norms can never certify a column
 * that a freshly computed gradient would flag. Orders of magnitude
 * above the actual double rounding error, orders below any useful
 * screening margin.
 */
constexpr double kBoundSlack = 1.0 + 1e-8;

} // namespace

size_t
CdResult::nonzeros() const
{
    size_t n = 0;
    for (float v : w)
        if (v != 0.0f)
            n++;
    return n;
}

std::vector<uint32_t>
CdResult::support() const
{
    std::vector<uint32_t> s;
    for (size_t j = 0; j < w.size(); ++j)
        if (w[j] != 0.0f)
            s.push_back(static_cast<uint32_t>(j));
    return s;
}

CdSolver::CdSolver(const FeatureView &X, std::span<const float> y)
    : CdSolver(X, y, Options())
{}

CdSolver::CdSolver(const FeatureView &X, std::span<const float> y,
                   Options options, SolverSeed seed)
    : CdSolver(X, y, options)
{
    const size_t m = X.cols();
    APOLLO_REQUIRE(seed.gradY.size() == m, "solver seed arity mismatch");
    APOLLO_REQUIRE(seed.lambdaMax >= 0.0,
                   "solver seed lacks lambdaMax");
    lambdaMax_ = seed.lambdaMax;
    // Install the seed as the anchored gradient cache at the centered
    // cold residual r = y - float(mean(y)) — the residual the first
    // fit screens at, now that fitImpl absorbs the mean before the
    // cold bootstrap. Each anchor holds the exact <x_j, r> with zero
    // accumulated mean shift and drift, mirroring the state
    // bootstrapGradCache() leaves behind. The first fit's intercept
    // update reproduces this exact residual (same double mean over the
    // same floats, same float subtraction), so advanceDriftAccount(r)
    // sees r == lastResidual_ and adds exactly zero, and every
    // subsequent certification bound matches the unseeded solver bit
    // for bit. The seed contract assumes fitIntercept (every path
    // driver fits one); a no-intercept fit would screen the raw
    // residual instead.
    cachedDot_ = std::move(seed.gradY);
    anchorMean_.assign(m, 0.0);
    anchorDrift_.assign(m, 0.0);
    meanAcc_ = 0.0;
    driftAcc_ = 0.0;
    pendingDrift_ = 0.0;
    const auto muf = static_cast<float>(yMean_);
    lastResidual_.resize(y.size());
    for (size_t i = 0; i < y.size(); ++i)
        lastResidual_[i] = y[i] - muf;
    gradCacheValid_ = true;
}

CdSolver::CdSolver(const FeatureView &X, std::span<const float> y,
                   Options options)
    : X_(X), y_(y), parallel_(options.parallel),
      pool_(options.pool ? options.pool : &ThreadPool::global())
{
    APOLLO_REQUIRE(X.rows() == y.size(), "rows/labels mismatch");
    APOLLO_REQUIRE(X.rows() > 1, "need at least two samples");
    const size_t n = X.rows();
    const size_t m = X.cols();

    a_.resize(m);
    xNorm_.resize(m);
    colSum_.resize(m);
    auto norms = [&](size_t begin, size_t end) {
        for (size_t j = begin; j < end; ++j) {
            const double ss = X.sumSquares(j);
            a_[j] = ss / static_cast<double>(n);
            xNorm_[j] = std::sqrt(ss);
            colSum_[j] = X.sum(j);
        }
    };
    if (parallel_ && m >= kParallelMinCols)
        pool_->parallelFor(m, norms);
    else
        norms(0, m);

    live_.reserve(m);
    for (size_t j = 0; j < m; ++j)
        if (a_[j] > 0.0)
            live_.push_back(static_cast<uint32_t>(j));

    // Label mean/std (std(y) scales the convergence tolerance) and the
    // centered copy every path driver needs.
    double mu = 0.0;
    for (float v : y)
        mu += v;
    mu /= static_cast<double>(n);
    yMean_ = mu;
    yCentered_.resize(n);
    double var = 0.0;
    for (size_t i = 0; i < n; ++i) {
        const double d = y[i] - mu;
        yCentered_[i] = static_cast<float>(d);
        var += d * d;
    }
    yStd_ = std::sqrt(var / static_cast<double>(n));
    if (yStd_ <= 0.0)
        yStd_ = 1.0;
}

void
CdSolver::columnGradients(std::span<const uint32_t> cols, const float *r,
                          double *out) const
{
    if (cols.empty())
        return;
    const uint64_t bpc = packedBytesPerCol(X_.rows());
    auto body = [&](size_t begin, size_t end) {
        // Chunked so out-of-core views can drop each chunk's pages as
        // soon as its dots are done; resident views see a no-op.
        size_t c = begin;
        while (c < end) {
            const size_t e = releaseChunkEnd(cols, c, end, bpc);
            const auto chunk = cols.subspan(c, e - c);
            X_.dotColumns(chunk, r, out + c);
            X_.releaseColumns(chunk);
            c = e;
        }
    };
    if (parallel_ && cols.size() >= kParallelMinCols)
        pool_->parallelFor(cols.size(), body);
    else
        body(0, cols.size());
}

void
CdSolver::columnGradientsFast(std::span<const uint32_t> cols,
                              const float *r, double *out) const
{
    if (cols.empty())
        return;
    const uint64_t bpc = packedBytesPerCol(X_.rows());
    auto body = [&](size_t begin, size_t end) {
        size_t c = begin;
        while (c < end) {
            const size_t e = releaseChunkEnd(cols, c, end, bpc);
            const auto chunk = cols.subspan(c, e - c);
            X_.dotColumnsFast(chunk, r, out + c);
            X_.releaseColumns(chunk);
            c = e;
        }
    };
    if (parallel_ && cols.size() >= kParallelMinCols)
        pool_->parallelFor(cols.size(), body);
    else
        body(0, cols.size());
}

void
CdSolver::bootstrapGradCache(const std::vector<float> &r)
{
    const size_t m = X_.cols();
    cachedDot_.assign(m, 0.0);
    anchorMean_.assign(m, 0.0);
    anchorDrift_.assign(m, 0.0);
    meanAcc_ = 0.0;
    driftAcc_ = 0.0;
    lastResidual_.assign(r.begin(), r.end());
    gradBuf_.resize(live_.size());
    columnGradients(live_, r.data(), gradBuf_.data());
    for (size_t k = 0; k < live_.size(); ++k)
        cachedDot_[live_[k]] = gradBuf_[k];
    pendingDrift_ = 0.0;
    gradCacheValid_ = true;
}

void
CdSolver::advanceDriftAccount(const std::vector<float> &r)
{
    const size_t n = r.size();
    double s1 = 0.0;
    double s2 = 0.0;
    for (size_t i = 0; i < n; ++i) {
        const double d =
            static_cast<double>(r[i]) - lastResidual_[i];
        s1 += d;
        s2 += d * d;
    }
    const double mean = s1 / static_cast<double>(n);
    meanAcc_ += mean;
    driftAcc_ += std::sqrt(
        std::max(0.0, s2 - mean * mean * static_cast<double>(n)));
    pendingDrift_ = 0.0;
    lastResidual_.assign(r.begin(), r.end());
}

double
CdSolver::certBound(uint32_t j) const
{
    const double center =
        cachedDot_[j] + (meanAcc_ - anchorMean_[j]) * colSum_[j];
    return (std::abs(center) +
            xNorm_[j] * (driftAcc_ - anchorDrift_[j])) *
           kBoundSlack;
}

void
CdSolver::anchorColumns(std::span<const uint32_t> cols,
                        const double *dots, double extraDrift)
{
    const double anchor_drift = driftAcc_ - extraDrift;
    for (size_t k = 0; k < cols.size(); ++k) {
        const uint32_t j = cols[k];
        cachedDot_[j] = dots[k];
        anchorMean_[j] = meanAcc_;
        anchorDrift_[j] = anchor_drift;
    }
}

double
CdSolver::lambdaMax() const
{
    if (lambdaMax_ >= 0.0)
        return lambdaMax_;
    const auto n = static_cast<double>(X_.rows());
    std::vector<double> g(live_.size());
    columnGradients(live_, yCentered_.data(), g.data());
    double best = 0.0;
    for (double v : g)
        best = std::max(best, std::abs(v) / n);
    lambdaMax_ = best;
    return best;
}

void
CdSolver::updateIntercept(std::vector<float> &r, double &intercept)
{
    double mu = 0.0;
    for (float v : r)
        mu += v;
    mu /= static_cast<double>(r.size());
    intercept += mu;
    const auto muf = static_cast<float>(mu);
    for (float &v : r)
        v -= muf;
    pendingDrift_ +=
        std::abs(mu) * std::sqrt(static_cast<double>(r.size()));
}

template <typename View>
double
CdSolver::sweepOver(const View &X, std::span<const uint32_t> cols,
                    const CdConfig &cfg, std::vector<float> &w,
                    std::vector<float> &r)
{
    const auto n = static_cast<double>(X.rows());
    const bool anchor = gradCacheValid_;
    double max_delta = 0.0;
    // One coordinate update from the exact dot <x_j, r>; true when w_j
    // moved (and the residual with it).
    auto update = [&](uint32_t j, double dot) {
        const double a = a_[j];
        const double w_old = w[j];
        const double rho = dot / n + a * w_old;
        if (anchor) {
            // Recycle this exact dot as column j's new anchor; the
            // movement between the last accounting event and this
            // moment is over-covered by pendingDrift_.
            cachedDot_[j] = (rho - a * w_old) * n;
            anchorMean_[j] = meanAcc_;
            anchorDrift_[j] = driftAcc_ - pendingDrift_;
        }
        const double w_new = coordinateUpdate(rho, a, cfg.penalty);
        if (w_new == w_old)
            return false;
        X.axpy(j, static_cast<float>(w_old - w_new), r.data());
        w[j] = static_cast<float>(w_new);
        pendingDrift_ += std::abs(w_new - w_old) * xNorm_[j];
        max_delta =
            std::max(max_delta, std::abs(w_new - w_old) * std::sqrt(a));
        return true;
    };
    // Lasso and MCP columns at zero mostly stay there, so runs of them
    // are dotted kDotBatch at a time against the current residual
    // (each dot equals the single dot bit for bit). A column that
    // moves changes the residual, so the rest of its batch is dotted
    // again from the next column on. Ridge columns leave zero at once.
    const bool batch = cfg.penalty.kind == PenaltyKind::Lasso ||
                       cfg.penalty.kind == PenaltyKind::Mcp;
    double dots[bitkernels::kDotBatch];
    // Chunked like the batched gradient passes: an out-of-core view
    // drops each chunk's pages once the sweep has moved past it, so a
    // sweep holds one chunk's span resident instead of its column
    // set's — whose page union across a whole lambda path is the
    // entire payload. Even the small active-set sweeps release: with
    // folio-granular faulting, a handful of support columns scattered
    // over a paper-scale matrix can otherwise pin hundreds of
    // megabytes. Refaults come from the page cache and are cheap next
    // to the sweep's own arithmetic. Resident views devirtualize
    // releaseColumns to the no-op.
    const uint64_t bpc = packedBytesPerCol(X.rows());
    size_t c0 = 0;
    while (c0 < cols.size()) {
        const size_t c1 = releaseChunkEnd(cols, c0, cols.size(), bpc);
        const auto chunk = cols.subspan(c0, c1 - c0);
        size_t i = 0;
        while (i < chunk.size()) {
            const uint32_t j = chunk[i];
            if (!batch || w[j] != 0.0f) {
                update(j, X.dot(j, r.data()));
                ++i;
                continue;
            }
            size_t e = i + 1;
            while (e < chunk.size() && e - i < bitkernels::kDotBatch &&
                   w[chunk[e]] == 0.0f)
                ++e;
            X.dotColumns(chunk.subspan(i, e - i), r.data(), dots);
            for (const size_t first = i; i < e;) {
                const bool moved = update(chunk[i], dots[i - first]);
                ++i;
                if (moved)
                    break;
            }
        }
        X.releaseColumns(chunk);
        c0 = c1;
    }
    return max_delta;
}

template <typename View>
CdResult
CdSolver::fitImpl(const View &X, const CdConfig &config,
                  const CdResult *warm_start)
{
    const size_t n = X.rows();
    const size_t m = X.cols();

    CdResult res;
    res.w.assign(m, 0.0f);
    res.intercept = 0.0;
    if (warm_start) {
        APOLLO_REQUIRE(warm_start->w.size() == m,
                       "warm start arity mismatch");
        res.w = warm_start->w;
        res.intercept = warm_start->intercept;
    }

    // Residual r = y - X w - b.
    std::vector<float> r(y_.begin(), y_.end());
    if (res.intercept != 0.0) {
        const auto b = static_cast<float>(res.intercept);
        for (float &v : r)
            v -= b;
    }
    // Warm-start reconstruction releases the support columns it
    // touches in span-bounded chunks, like every other pass: a
    // support scattered over an out-of-core payload would otherwise
    // pin one page-cache folio per column for the rest of the fit.
    exact_.clear();
    const uint64_t warm_bpc = packedBytesPerCol(n);
    for (size_t j = 0; j < m; ++j) {
        if (res.w[j] == 0.0f)
            continue;
        X.axpy(j, -res.w[j], r.data());
        exact_.push_back(static_cast<uint32_t>(j));
        if (exact_.size() >= kReleaseChunkCols ||
            static_cast<uint64_t>(j - exact_.front()) * warm_bpc >=
                kReleaseSpanBytes) {
            X.releaseColumns(exact_);
            exact_.clear();
        }
    }
    X.releaseColumns(exact_);

    const auto &pen = config.penalty;
    const auto nD = static_cast<double>(n);

    // Absorb the residual mean BEFORE screening. The strong rule's
    // reference gradients (lambdaMax and the per-point path residuals)
    // are all intercept-absorbed quantities; screening the raw
    // residual instead would inflate every |<x_j, r>| by
    // ~mean(r) * popcount(j), which for mean-heavy labels (power
    // traces sit far above zero) clears the threshold for every
    // column and silently degrades the strong set to "all of them".
    // Centering first makes the cold-start screen an actual
    // correlation prefilter — the property the out-of-core path's RSS
    // bound rests on (docs/INTERNALS.md §13).
    if (config.fitIntercept)
        updateIntercept(r, res.intercept);

    // Strong-rule screening: keep warm-start nonzeros plus columns
    // whose gradient at the warm start may clear 2*lambda - lambdaRef.
    // Gradients come from the per-column anchored cache via certBound(),
    // so a fit pays no upfront gradient pass at all (beyond the one-time
    // bootstrap): admission errs on the side of the strong set exactly
    // as the strong rule itself does, and the KKT pass below keeps the
    // result exact either way.
    std::vector<uint32_t> strong;
    std::vector<uint32_t> rest; // live columns excluded from sweeps
    const bool screenable =
        config.screen && pen.lambda > 0.0 &&
        (pen.kind == PenaltyKind::Lasso || pen.kind == PenaltyKind::Mcp) &&
        live_.size() >= kScreenMinCols;
    uint32_t kkt_dots = 0;
    if (screenable) {
        const double ref = config.screenLambdaRef > 0.0
                               ? config.screenLambdaRef
                               : lambdaMax();
        const double thresh = (2.0 * pen.lambda - ref) * nD;
        if (thresh > 0.0) {
            if (!gradCacheValid_) {
                bootstrapGradCache(r);
                kkt_dots += static_cast<uint32_t>(live_.size());
            } else {
                advanceDriftAccount(r);
            }
            for (uint32_t j : live_) {
                if (res.w[j] != 0.0f || certBound(j) >= thresh)
                    strong.push_back(j);
                else
                    rest.push_back(j);
            }
        }
    }
    if (rest.empty())
        strong = live_;

    const double tol_abs = config.tol * yStd_;
    uint32_t sweeps = 0;
    bool converged = false;
    uint32_t kkt_passes = 0;

    // Working set: nonzero coordinates within the strong set.
    std::vector<uint32_t> active;
    auto rebuild_active = [&] {
        active.clear();
        for (uint32_t j : strong)
            if (res.w[j] != 0.0f)
                active.push_back(j);
    };

    std::vector<uint32_t> violators;
    std::vector<uint32_t> still_rejected;
    std::vector<uint32_t> need; // rejected columns requiring exact dots
    uint32_t readmitted = 0;
    for (;;) {
        converged = false;
        rebuild_active();
        while (sweeps < config.maxSweeps) {
            // Full sweep over the strong set: KKT check within the set
            // + working-set expansion in one pass.
            if (config.fitIntercept)
                updateIntercept(r, res.intercept);
            // Fresh accounting event per full sweep: replaces the
            // pending per-update triangle bound with the actual
            // residual distance (which benefits from cancellation), so
            // the anchors recycled from this sweep's dots stay tight.
            if (gradCacheValid_)
                advanceDriftAccount(r);
            double full_delta;
            {
                APOLLO_TRACE_SPAN("ml.strong_sweep");
                full_delta = sweepOver(X, strong, config, res.w, r);
            }
            sweeps++;
            rebuild_active();
            if (full_delta <= tol_abs) {
                converged = true;
                break;
            }

            // Inner iterations on the active set only.
            APOLLO_TRACE_SPAN("ml.active_sweep");
            while (sweeps < config.maxSweeps) {
                if (config.fitIntercept)
                    updateIntercept(r, res.intercept);
                const double delta =
                    sweepOver(X, active, config, res.w, r);
                sweeps++;
                if (delta <= tol_abs)
                    break;
            }
        }
        if (rest.empty())
            break;

        // KKT verification over the screened-out columns: any column
        // the penalty would move off zero was wrongly rejected — admit
        // it and re-solve. A rejected column whose certified bound
        // cannot reach lambda*N provably satisfies the KKT conditions
        // without a dot product (for Lasso/MCP at w_j = 0 the update is
        // zero iff |<x_j, r>| <= lambda*N); exact gradients are computed
        // only for the columns the bound cannot certify, and each exact
        // dot re-anchors its column so the next pass certifies it from
        // a fresh baseline.
        APOLLO_TRACE_SPAN("ml.kkt_pass");
        kkt_passes++;
        advanceDriftAccount(r);
        const double lambda_n = pen.lambda * nD;
        need.clear();
        for (uint32_t j : rest)
            if (certBound(j) > lambda_n)
                need.push_back(j);
        if (!need.empty()) {
            gradBuf_.resize(need.size());
            columnGradientsFast(need, r.data(), gradBuf_.data());
            kkt_dots += static_cast<uint32_t>(need.size());
            // The fast pass accumulates in float; its error is within
            // err_unit * xNorm_[j]. Results inside that band of the
            // decision threshold are recomputed exactly, so the
            // violator test below is as exact as a full double pass.
            double rnorm2 = 0.0;
            for (float v : r)
                rnorm2 += static_cast<double>(v) * v;
            const double err_unit =
                bitkernels::dotFastRelErr((n + 63) / 64) *
                std::sqrt(rnorm2);
            // The exact recomputes refault pages the fast pass just
            // released; drop them again in chunks (ascending — a
            // subsequence of `need`) so borderline columns and their
            // fault-around spill don't accrete across the pass.
            exact_.clear();
            const uint64_t bpc = packedBytesPerCol(n);
            for (size_t k = 0; k < need.size(); ++k) {
                const uint32_t j = need[k];
                if (std::abs(std::abs(gradBuf_[k]) - lambda_n) <=
                    err_unit * xNorm_[j]) {
                    gradBuf_[k] = X_.dot(j, r.data());
                    exact_.push_back(j);
                    if (exact_.size() >= kReleaseChunkCols ||
                        static_cast<uint64_t>(j - exact_.front()) *
                                bpc >=
                            kReleaseSpanBytes) {
                        X_.releaseColumns(exact_);
                        exact_.clear();
                    }
                }
            }
            X_.releaseColumns(exact_);
            anchorColumns(need, gradBuf_.data(), err_unit);
        }
        violators.clear();
        still_rejected.clear();
        {
            size_t t = 0; // `need` is an in-order subsequence of `rest`
            for (uint32_t j : rest) {
                if (t < need.size() && need[t] == j) {
                    if (coordinateUpdate(gradBuf_[t] / nD, a_[j], pen) !=
                        0.0)
                        violators.push_back(j);
                    else
                        still_rejected.push_back(j);
                    t++;
                } else {
                    still_rejected.push_back(j);
                }
            }
        }
        if (violators.empty())
            break;
        readmitted += static_cast<uint32_t>(violators.size());
        strong.insert(strong.end(), violators.begin(), violators.end());
        std::sort(strong.begin(), strong.end());
        rest.swap(still_rejected);
        if (sweeps >= config.maxSweeps)
            break; // sweep budget exhausted; report non-convergence
    }

    res.sweeps = sweeps;
    res.converged = converged;
    res.kktPasses = kkt_passes;
    res.kktDots = kkt_dots;
    res.screenedOut = static_cast<uint32_t>(live_.size() - strong.size());
    res.strongSize = static_cast<uint32_t>(strong.size());
    APOLLO_COUNT("apollo.solver.fits", 1);
    APOLLO_COUNT("apollo.solver.sweeps", sweeps);
    APOLLO_COUNT("apollo.solver.kkt_passes", kkt_passes);
    APOLLO_COUNT("apollo.solver.kkt_dots", kkt_dots);
    APOLLO_COUNT("apollo.solver.kkt_violations_readmitted", readmitted);
    APOLLO_COUNT("apollo.solver.screened_out", res.screenedOut);
    if (APOLLO_OBS_ON() && !live_.empty())
        APOLLO_OBSERVE("apollo.solver.screen_drop_rate",
                       static_cast<double>(res.screenedOut) /
                           static_cast<double>(live_.size()),
                       ::apollo::obs::ratioBounds());
    double sse = 0.0;
    for (float v : r)
        sse += static_cast<double>(v) * v;
    res.trainMse = sse / static_cast<double>(n);
    return res;
}

CdResult
CdSolver::fit(const CdConfig &config, const CdResult *warm_start)
{
    APOLLO_TRACE_SPAN("ml.path_point");
    // Dispatch once per fit to a sweep loop instantiated on the
    // concrete (final) view type, so the per-coordinate dot/axpy calls
    // devirtualize. Unknown view types take the generic virtual path.
    if (const auto *v = dynamic_cast<const BitFeatureView *>(&X_))
        return fitImpl(*v, config, warm_start);
    if (const auto *v = dynamic_cast<const ShardedFeatureView *>(&X_))
        return fitImpl(*v, config, warm_start);
    if (const auto *v = dynamic_cast<const CountFeatureView *>(&X_))
        return fitImpl(*v, config, warm_start);
    if (const auto *v = dynamic_cast<const DenseFeatureView *>(&X_))
        return fitImpl(*v, config, warm_start);
    return fitImpl(X_, config, warm_start);
}

} // namespace apollo
