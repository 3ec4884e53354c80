/**
 * @file
 * ShardedFeatureView: the out-of-core FeatureView behind paper-scale
 * proxy selection (docs/INTERNALS.md §13). Columns live in a
 * MappedShardSet (K memory-mapped APSH shard files) instead of a
 * resident BitColumnMatrix; the view serves the exact same packed
 * words through the exact same bitkernels, so CdSolver produces
 * bit-identical weights at any shard count and thread count — the
 * determinism contract is "same algorithm, same bytes, same kernels",
 * not a re-derivation.
 *
 * The solver's construction-time streaming passes over all M columns
 * (column norms, lambdaMax, gradient-cache bootstrap) would each fault
 * the whole file set through the page cache. screen() fuses them into
 * ONE per-shard pass — per column: zero-tail validation, popcount,
 * exact <x_j, y - float(mean(y))> (the centered cold residual the
 * solver screens at) and <x_j, y - mean(y)> (the lambdaMax recipe)
 * via bitkernels::dotWords —
 * and drops each shard's pages (madvise DONTNEED) before moving on,
 * so peak RSS tracks one shard plus the dense vectors, never N x M.
 * The harvested stats seed CdSolver (SolverSeed) with the identical
 * doubles its own passes would have produced, and give the per-shard
 * admission counts for the apollo.solver.shard.* counters. After the
 * screen only the strong-rule survivors are ever touched per sweep, so
 * cold columns stay on disk; the anchored KKT certification bounds
 * re-screen the rejected columns without faulting them back in unless
 * a bound actually fails.
 */

#ifndef APOLLO_ML_SHARDED_VIEW_HH
#define APOLLO_ML_SHARDED_VIEW_HH

#include <span>
#include <vector>

#include "ml/feature_view.hh"
#include "trace/shard_store.hh"
#include "util/bitvec_kernels.hh"
#include "util/status.hh"

namespace apollo {

class ThreadPool;

/** Per-shard results of the fused screen pass. */
struct ShardScreenStats
{
    /** max_j |<x_j, y - mean(y)>| / N over live columns — identical
     *  to CdSolver::lambdaMax() on the same data. */
    double lambdaMax = 0.0;
    /** Columns scanned per shard (== shard size). */
    std::vector<uint64_t> colsScanned;
    /** Payload bytes streamed through the page cache. */
    uint64_t bytesStreamed = 0;

    /**
     * Columns per shard whose first-path-point strong-rule bound
     * admits them: |<x_j, y - float(mean(y))>| * slack >=
     * (2 * factor - 1) * lambdaMax * N, the exact admission test
     * CdSolver applies at the first lambda of a geometric path
     * (lambda = factor * lambdaMax screened against lambdaRef =
     * lambdaMax, at the centered cold residual its first intercept
     * update leaves). Diagnostic — the solver re-applies the rule
     * itself; these counts feed the apollo.solver.shard.* counters.
     */
    std::vector<uint64_t> admittedAtFirstPoint(double lambda_factor) const;

    // Internal to admittedAtFirstPoint / SolverSeed assembly.
    std::vector<double> gradY; ///< exact <x_j, y - float(mean(y))>
    std::vector<uint64_t> popcount; ///< per column
    std::vector<uint64_t> firstCol; ///< shard k owns [firstCol[k], ..)
    size_t rows = 0;
};

/**
 * FeatureView over a MappedShardSet. `final` so the solver's templated
 * sweep devirtualizes the kernel calls, exactly like BitFeatureView.
 * screen() must run before handing the view to CdSolver (the solver
 * reads sum()/sumSquares() from the cached popcounts).
 */
class ShardedFeatureView final : public FeatureView
{
  public:
    struct Options
    {
        bool parallel = true;
        ThreadPool *pool = nullptr; ///< nullptr = ThreadPool::global()
    };

    explicit ShardedFeatureView(const MappedShardSet &set);
    ShardedFeatureView(const MappedShardSet &set, Options options);

    /**
     * Fused per-shard streaming pass (see file comment). Validates the
     * zero-tail kernel contract on the untrusted mapped payload as it
     * scans. Deterministic at any thread count: every per-column
     * output depends only on that column's words and y.
     */
    Status screen(std::span<const float> y);

    bool screened() const { return !stats_.popcount.empty(); }
    const ShardScreenStats &stats() const { return stats_; }
    const MappedShardSet &shards() const { return set_; }

    // FeatureView interface -------------------------------------------------
    size_t rows() const override { return set_.rows(); }
    size_t cols() const override { return set_.cols(); }

    double
    dot(size_t col, const float *v) const override
    {
        return bitkernels::dotWords(set_.colWords(col),
                                    set_.wordsPerCol(), set_.rows(), v);
    }

    void
    axpy(size_t col, float delta, float *v) const override
    {
        bitkernels::axpyWords(set_.colWords(col), set_.wordsPerCol(),
                              set_.rows(), delta, v);
    }

    void
    dotColumns(std::span<const uint32_t> cols, const float *v,
               double *out) const override
    {
        bitkernels::dotColumnsBatched(
            cols, [this](uint32_t j) { return set_.colWords(j); },
            set_.wordsPerCol(), set_.rows(), v, out);
    }

    void
    dotColumnsFast(std::span<const uint32_t> cols, const float *v,
                   double *out) const override
    {
        for (size_t k = 0; k < cols.size(); ++k)
            out[k] = bitkernels::dotWordsFast(set_.colWords(cols[k]),
                                              set_.wordsPerCol(),
                                              set_.rows(), v);
    }

    /**
     * Drop the backing pages of @p cols (madvise DONTNEED), coalescing
     * ascending runs into per-shard ranges. Advice granularity is whole
     * pages clamped to the shard mapping, so a release may also evict
     * boundary pages of neighboring columns — they refault from the
     * page cache on next touch; no data is lost and no arithmetic
     * changes. The solver's chunked KKT/bootstrap gradient passes call
     * this after each chunk so cold columns never pile up resident.
     */
    void releaseColumns(std::span<const uint32_t> cols) const override;

    double
    sumSquares(size_t col) const override
    {
        // Binary column: sum of squares == popcount (cached by
        // screen(), same integer BitFeatureView::colPopcount yields).
        return static_cast<double>(stats_.popcount[col]);
    }

    double
    sum(size_t col) const override
    {
        return static_cast<double>(stats_.popcount[col]);
    }

    double
    value(size_t row, size_t col) const override
    {
        return set_.get(row, col) ? 1.0 : 0.0;
    }

  private:
    const MappedShardSet &set_;
    bool parallel_ = true;
    ThreadPool *pool_ = nullptr;
    ShardScreenStats stats_;
};

} // namespace apollo

#endif // APOLLO_ML_SHARDED_VIEW_HH
