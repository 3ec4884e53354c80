/**
 * @file
 * FeatureView: a column-access abstraction over feature matrices so the
 * coordinate-descent solvers run unchanged on
 *  - per-cycle binary toggles (BitFeatureView over a BitColumnMatrix),
 *  - tau-cycle averaged toggles (CountFeatureView over a
 *    CountColumnMatrix, scaled by 1/tau to match the paper's
 *    x_tau in R features).
 *
 * Solvers only ever need per-column dot products against a dense
 * residual, per-column axpy updates of that residual, and column norms —
 * all O(nnz) on the packed representations.
 */

#ifndef APOLLO_ML_FEATURE_VIEW_HH
#define APOLLO_ML_FEATURE_VIEW_HH

#include <cstddef>
#include <span>

#include "util/bitvec.hh"

namespace apollo {

/** Column-access interface used by the solvers. */
class FeatureView
{
  public:
    virtual ~FeatureView() = default;

    virtual size_t rows() const = 0;
    virtual size_t cols() const = 0;

    /** <x_j, v> for dense v of length rows(). */
    virtual double dot(size_t col, const float *v) const = 0;

    /** v += delta * x_j. */
    virtual void axpy(size_t col, float delta, float *v) const = 0;

    /** <x_j, x_j>. */
    virtual double sumSquares(size_t col) const = 0;

    /** sum_i x_j[i]. */
    virtual double sum(size_t col) const = 0;

    /** Single element (slow path; used by tests and small models). */
    virtual double value(size_t row, size_t col) const = 0;

    /**
     * Batched dot products: out[k] = <x_cols[k], v>. Used by the
     * screening/KKT gradient passes so implementations can amortize
     * loads of @p v across columns. out[k] must depend only on column
     * cols[k] (callers chunk the column list across threads).
     */
    virtual void
    dotColumns(std::span<const uint32_t> cols, const float *v,
               double *out) const
    {
        for (size_t k = 0; k < cols.size(); ++k)
            out[k] = dot(cols[k], v);
    }

    /**
     * Like dotColumns but each result may be off by up to
     * bitkernels::dotFastRelErr((rows() + 63) / 64) * ||x_col|| * ||v||.
     * Views with a faster approximate kernel override this; the default
     * is exact (which trivially satisfies the bound). Callers making
     * exact decisions must recompute borderline results with
     * dotColumns.
     */
    virtual void
    dotColumnsFast(std::span<const uint32_t> cols, const float *v,
                   double *out) const
    {
        dotColumns(cols, v, out);
    }

    /**
     * Hint that the caller is done with these columns for now. Resident
     * views ignore it; out-of-core views may drop the backing pages so
     * a batched gradient pass over cold columns never accumulates the
     * whole payload in RAM. Purely a residency hint — a released column
     * remains readable (it refaults from the file).
     */
    virtual void releaseColumns(std::span<const uint32_t> cols) const
    {
        (void)cols;
    }

    /**
     * Dense prediction: out[i] = intercept + sum_j w[j] * x[i][j].
     * @p w has cols() entries (zeros skipped).
     */
    void
    predict(std::span<const float> w, double intercept, float *out) const
    {
        const size_t n = rows();
        for (size_t i = 0; i < n; ++i)
            out[i] = static_cast<float>(intercept);
        for (size_t j = 0; j < cols(); ++j)
            if (w[j] != 0.0f)
                axpy(j, w[j], out);
    }
};

/**
 * View over per-cycle binary toggle features. `final` so the solver's
 * templated inner loop devirtualizes the kernel calls.
 */
class BitFeatureView final : public FeatureView
{
  public:
    explicit BitFeatureView(const BitColumnMatrix &matrix)
        : matrix_(matrix)
    {}

    size_t rows() const override { return matrix_.rows(); }
    size_t cols() const override { return matrix_.cols(); }

    double
    dot(size_t col, const float *v) const override
    {
        return matrix_.dotColumn(col, v);
    }

    void
    axpy(size_t col, float delta, float *v) const override
    {
        matrix_.axpyColumn(col, delta, v);
    }

    void
    dotColumns(std::span<const uint32_t> cols, const float *v,
               double *out) const override
    {
        matrix_.dotColumns(cols, v, out);
    }

    void
    dotColumnsFast(std::span<const uint32_t> cols, const float *v,
                   double *out) const override
    {
        matrix_.dotColumnsFast(cols, v, out);
    }

    double
    sumSquares(size_t col) const override
    {
        // Binary column: sum of squares == popcount.
        return static_cast<double>(matrix_.colPopcount(col));
    }

    double
    sum(size_t col) const override
    {
        return static_cast<double>(matrix_.colPopcount(col));
    }

    double
    value(size_t row, size_t col) const override
    {
        return matrix_.get(row, col) ? 1.0 : 0.0;
    }

    const BitColumnMatrix &matrix() const { return matrix_; }

  private:
    const BitColumnMatrix &matrix_;
};

/** View over tau-cycle toggle counts, scaled to average toggle rates. */
class CountFeatureView final : public FeatureView
{
  public:
    /**
     * @param scale typically 1/tau so features lie in [0, 1].
     * Construction makes one (parallel) pass over the matrix to cache
     * per-column integer sums and sums of squares — solver setup calls
     * sum()/sumSquares() once per column, which used to cost an O(n)
     * scan each.
     */
    CountFeatureView(const CountColumnMatrix &matrix, float scale);

    size_t rows() const override { return matrix_.rows(); }
    size_t cols() const override { return matrix_.cols(); }

    double
    dot(size_t col, const float *v) const override
    {
        return scale_ * matrix_.dotColumn(col, v);
    }

    void
    axpy(size_t col, float delta, float *v) const override
    {
        matrix_.axpyColumn(col, delta * scale_, v);
    }

    double
    sumSquares(size_t col) const override
    {
        // Integer sums are exact, so this matches a fresh scan bit for
        // bit.
        return static_cast<double>(scale_) * scale_ *
               static_cast<double>(colSumSq_[col]);
    }

    double
    sum(size_t col) const override
    {
        return scale_ * static_cast<double>(colSum_[col]);
    }

    double
    value(size_t row, size_t col) const override
    {
        return scale_ * matrix_.get(row, col);
    }

    float scale() const { return scale_; }

  private:
    const CountColumnMatrix &matrix_;
    float scale_;
    std::vector<uint64_t> colSum_;
    std::vector<uint64_t> colSumSq_;
};

/** Column-major dense float matrix (small feature sets: PCA components,
 *  Simmani polynomial terms over window-averaged toggles). */
class DenseColumnMatrix
{
  public:
    DenseColumnMatrix() = default;
    DenseColumnMatrix(size_t n_rows, size_t n_cols)
        : rows_(n_rows), cols_(n_cols), data_(n_rows * n_cols, 0.f)
    {}

    size_t rows() const { return rows_; }
    size_t cols() const { return cols_; }

    float get(size_t row, size_t col) const
    {
        return data_[col * rows_ + row];
    }
    void set(size_t row, size_t col, float v)
    {
        data_[col * rows_ + row] = v;
    }
    float *colData(size_t col) { return data_.data() + col * rows_; }
    const float *colData(size_t col) const
    {
        return data_.data() + col * rows_;
    }

  private:
    size_t rows_ = 0;
    size_t cols_ = 0;
    std::vector<float> data_;
};

/** View over a DenseColumnMatrix. */
class DenseFeatureView final : public FeatureView
{
  public:
    explicit DenseFeatureView(const DenseColumnMatrix &matrix)
        : matrix_(matrix)
    {}

    size_t rows() const override { return matrix_.rows(); }
    size_t cols() const override { return matrix_.cols(); }

    double
    dot(size_t col, const float *v) const override
    {
        const float *c = matrix_.colData(col);
        double acc = 0.0;
        for (size_t i = 0; i < matrix_.rows(); ++i)
            acc += static_cast<double>(c[i]) * v[i];
        return acc;
    }

    void
    axpy(size_t col, float delta, float *v) const override
    {
        const float *c = matrix_.colData(col);
        for (size_t i = 0; i < matrix_.rows(); ++i)
            v[i] += delta * c[i];
    }

    double
    sumSquares(size_t col) const override
    {
        const float *c = matrix_.colData(col);
        double acc = 0.0;
        for (size_t i = 0; i < matrix_.rows(); ++i)
            acc += static_cast<double>(c[i]) * c[i];
        return acc;
    }

    double
    sum(size_t col) const override
    {
        const float *c = matrix_.colData(col);
        double acc = 0.0;
        for (size_t i = 0; i < matrix_.rows(); ++i)
            acc += c[i];
        return acc;
    }

    double
    value(size_t row, size_t col) const override
    {
        return matrix_.get(row, col);
    }

  private:
    const DenseColumnMatrix &matrix_;
};

/**
 * Reference view over binary toggles using the per-bit scalar kernels
 * and virtual dispatch only (the solver's concrete-view fast path does
 * not recognize it). This is the all-optimizations-off baseline for
 * bench_perf_solver and the oracle for the solver equivalence suite —
 * it reproduces the pre-optimization solver behavior exactly.
 */
class ScalarBitFeatureView : public FeatureView
{
  public:
    explicit ScalarBitFeatureView(const BitColumnMatrix &matrix)
        : matrix_(matrix)
    {}

    size_t rows() const override { return matrix_.rows(); }
    size_t cols() const override { return matrix_.cols(); }

    double
    dot(size_t col, const float *v) const override
    {
        return matrix_.dotColumnScalar(col, v);
    }

    void
    axpy(size_t col, float delta, float *v) const override
    {
        matrix_.axpyColumnScalar(col, delta, v);
    }

    double
    sumSquares(size_t col) const override
    {
        return static_cast<double>(matrix_.colPopcount(col));
    }

    double
    sum(size_t col) const override
    {
        return static_cast<double>(matrix_.colPopcount(col));
    }

    double
    value(size_t row, size_t col) const override
    {
        return matrix_.get(row, col) ? 1.0 : 0.0;
    }

  private:
    const BitColumnMatrix &matrix_;
};

} // namespace apollo

#endif // APOLLO_ML_FEATURE_VIEW_HH
