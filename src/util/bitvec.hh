/**
 * @file
 * Packed bit containers used for toggle traces and training features.
 *
 * BitVector       — a resizable vector of bits packed into 64-bit words.
 * BitColumnMatrix — an N-row, M-column binary matrix stored column-major
 *                   (each column contiguous in packed words). This is the
 *                   layout coordinate-descent solvers want: all cycles of
 *                   one signal are adjacent, and dot products against a
 *                   dense residual iterate only set bits.
 */

#ifndef APOLLO_UTIL_BITVEC_HH
#define APOLLO_UTIL_BITVEC_HH

#include <bit>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <vector>

#include "util/bitvec_kernels.hh"
#include "util/logging.hh"

namespace apollo {

/**
 * The packed zero-tail rule, stated once: a packed bit span of n
 * valid bits keeps every bit at position >= n in its last word zero.
 * All word-at-a-time kernels (bitvec_kernels, popcnt_kernels) rely on
 * it, producers (set()/setBit(), sliceRowsInto, the toggle-column
 * generator) maintain it, and the trace decoder rejects input that
 * violates it. This helper clears the tail of a word array holding
 * @p nbits valid bits.
 */
inline void
maskTailWords(uint64_t *words, size_t nwords, size_t nbits)
{
    if (nwords && (nbits & 63))
        words[nwords - 1] &= (uint64_t{1} << (nbits & 63)) - 1;
}

/** A resizable packed bit vector. */
class BitVector
{
  public:
    BitVector() = default;

    /** Construct with @p n bits, all cleared. */
    explicit BitVector(size_t n) { resize(n); }

    /** Number of bits. */
    size_t size() const { return size_; }

    /** Resize to @p n bits; new bits are cleared. */
    void
    resize(size_t n)
    {
        size_ = n;
        words_.assign((n + 63) / 64, 0);
    }

    /** Read bit @p i. */
    bool
    get(size_t i) const
    {
        return (words_[i >> 6] >> (i & 63)) & 1ULL;
    }

    /** Set bit @p i to @p v. */
    void
    set(size_t i, bool v)
    {
        const uint64_t mask = 1ULL << (i & 63);
        if (v)
            words_[i >> 6] |= mask;
        else
            words_[i >> 6] &= ~mask;
    }

    /** Set bit @p i to 1 (fast path used by trace writers). */
    void setBit(size_t i) { words_[i >> 6] |= 1ULL << (i & 63); }

    /** Count of set bits. */
    size_t
    popcount() const
    {
        size_t total = 0;
        for (uint64_t w : words_)
            total += static_cast<size_t>(std::popcount(w));
        return total;
    }

    /** Raw packed words (little-endian bit order within a word). */
    const std::vector<uint64_t> &words() const { return words_; }
    std::vector<uint64_t> &words() { return words_; }

  private:
    size_t size_ = 0;
    std::vector<uint64_t> words_;
};

/**
 * Column-major packed binary matrix.
 *
 * Rows are cycles, columns are signals. Each column occupies
 * wordsPerCol() consecutive 64-bit words.
 */
class BitColumnMatrix
{
  public:
    BitColumnMatrix() = default;

    /** Construct an @p n_rows x @p n_cols matrix of zeros. */
    BitColumnMatrix(size_t n_rows, size_t n_cols) { reset(n_rows, n_cols); }

    /** Reinitialize to an all-zero @p n_rows x @p n_cols matrix. */
    void
    reset(size_t n_rows, size_t n_cols)
    {
        rows_ = n_rows;
        cols_ = n_cols;
        wordsPerCol_ = (n_rows + 63) / 64;
        words_.assign(wordsPerCol_ * n_cols, 0);
    }

    size_t rows() const { return rows_; }
    size_t cols() const { return cols_; }
    size_t wordsPerCol() const { return wordsPerCol_; }

    /** Approximate memory footprint in bytes. */
    size_t byteSize() const { return words_.size() * sizeof(uint64_t); }

    bool
    get(size_t row, size_t col) const
    {
        const uint64_t w = words_[col * wordsPerCol_ + (row >> 6)];
        return (w >> (row & 63)) & 1ULL;
    }

    void
    set(size_t row, size_t col, bool v)
    {
        uint64_t &w = words_[col * wordsPerCol_ + (row >> 6)];
        const uint64_t mask = 1ULL << (row & 63);
        if (v)
            w |= mask;
        else
            w &= ~mask;
    }

    void
    setBit(size_t row, size_t col)
    {
        words_[col * wordsPerCol_ + (row >> 6)] |= 1ULL << (row & 63);
    }

    /** Pointer to the first packed word of column @p col. */
    const uint64_t *
    colWords(size_t col) const
    {
        return words_.data() + col * wordsPerCol_;
    }

    uint64_t *
    colWordsMutable(size_t col)
    {
        return words_.data() + col * wordsPerCol_;
    }

    /** Number of set bits in column @p col. */
    size_t
    colPopcount(size_t col) const
    {
        const uint64_t *w = colWords(col);
        size_t total = 0;
        for (size_t k = 0; k < wordsPerCol_; ++k)
            total += static_cast<size_t>(std::popcount(w[k]));
        return total;
    }

    /**
     * Invoke @p fn(row) for every set bit in column @p col, in
     * increasing row order.
     */
    template <typename Fn>
    void
    forEachSetBit(size_t col, Fn &&fn) const
    {
        const uint64_t *w = colWords(col);
        for (size_t k = 0; k < wordsPerCol_; ++k) {
            uint64_t bits = w[k];
            while (bits) {
                const int b = std::countr_zero(bits);
                fn(k * 64 + static_cast<size_t>(b));
                bits &= bits - 1;
            }
        }
    }

    /**
     * Dot product of column @p col against a dense float vector,
     * through the word-at-a-time kernels in util/bitvec_kernels.hh
     * (AVX-512 masked loads where the CPU has them, a countr_zero walk
     * otherwise), in the exact dot's lane order: 32 double chains,
     * the same bits on every dispatch path. Trailing bits past rows()
     * must be zero (set()/setBit() never touch them); the kernels rely
     * on that contract.
     */
    double
    dotColumn(size_t col, const float *dense) const
    {
        return bitkernels::dotWords(colWords(col), wordsPerCol_, rows_,
                                    dense);
    }

    /**
     * Reference per-bit dot product (ascending-row double
     * accumulation, one chain). Kept for equivalence tests and as the
     * all-optimizations-off baseline in bench_perf_solver.
     */
    double
    dotColumnScalar(size_t col, const float *dense) const
    {
        double acc = 0.0;
        forEachSetBit(col, [&](size_t row) { acc += dense[row]; });
        return acc;
    }

    /**
     * Batched dot products: out[k] = <column cols[k], dense>, equal to
     * dotColumn(cols[k], dense) bit for bit. Columns go through
     * bitkernels::dotWordsBatch kDotBatch at a time, which loads and
     * widens each word's dense floats once for the whole batch and
     * adds them into every column's chains under that column's mask.
     * Each output depends only on its own column, so results do not
     * depend on how a caller chunks @p cols (the parallel gradient
     * passes rely on this).
     */
    void
    dotColumns(std::span<const uint32_t> cols, const float *dense,
               double *out) const
    {
        bitkernels::dotColumnsBatched(
            cols, [this](uint32_t j) { return colWords(j); },
            wordsPerCol_, rows_, dense, out);
    }

    /**
     * Batched approximate dots through bitkernels::dotWordsFast (float
     * chains, error within bitkernels::dotFastRelErr(wordsPerCol()) *
     * ||x_col|| * ||dense||). For screening/KKT passes that re-check
     * borderline results exactly.
     */
    void
    dotColumnsFast(std::span<const uint32_t> cols, const float *dense,
                   double *out) const
    {
        for (size_t k = 0; k < cols.size(); ++k)
            out[k] = bitkernels::dotWordsFast(colWords(cols[k]),
                                              wordsPerCol_, rows_, dense);
    }

    /**
     * dense[row] += delta for every set bit in column @p col (axpy with
     * a binary column). Used for residual updates in coordinate
     * descent. Every kernel implementation performs exactly one float
     * add per set bit, so results are bit-identical across CPUs.
     */
    void
    axpyColumn(size_t col, float delta, float *dense) const
    {
        bitkernels::axpyWords(colWords(col), wordsPerCol_, rows_, delta,
                              dense);
    }

    /** Reference per-bit axpy (baseline counterpart of axpyColumn). */
    void
    axpyColumnScalar(size_t col, float delta, float *dense) const
    {
        forEachSetBit(col, [&](size_t row) { dense[row] += delta; });
    }

    /**
     * Build the sub-matrix containing only @p selected columns (in the
     * given order).
     */
    BitColumnMatrix selectColumns(std::span<const uint32_t> selected)
        const;
    BitColumnMatrix
    selectColumns(std::initializer_list<uint32_t> selected) const
    {
        return selectColumns(
            std::span<const uint32_t>(selected.begin(), selected.size()));
    }

    /**
     * Copy rows [first, first+n) of every column into @p out (resized
     * to n x cols()). Word-aligned when first is a multiple of 64, a
     * funnel-shift copy otherwise; trailing bits past n are cleared, so
     * the output honors the packed-kernel zero-tail contract. This is
     * the chunking primitive of the streaming readers
     * (trace/stream_reader.hh): re-slicing never changes bit values, so
     * chunked inference stays bit-identical to the batch path.
     */
    void sliceRowsInto(size_t first, size_t n, BitColumnMatrix &out)
        const;

    /** Convenience wrapper returning a fresh matrix. */
    BitColumnMatrix
    sliceRows(size_t first, size_t n) const
    {
        BitColumnMatrix out;
        sliceRowsInto(first, n, out);
        return out;
    }

  private:
    size_t rows_ = 0;
    size_t cols_ = 0;
    size_t wordsPerCol_ = 0;
    std::vector<uint64_t> words_;
};

/**
 * Column-major dense matrix of small non-negative integer counts
 * (u8). Used for tau-cycle interval-aggregated features, where each entry
 * is the number of toggles of a signal within a tau-cycle interval
 * (0..tau, tau <= 255).
 */
class CountColumnMatrix
{
  public:
    CountColumnMatrix() = default;

    CountColumnMatrix(size_t n_rows, size_t n_cols)
        : rows_(n_rows), cols_(n_cols), data_(n_rows * n_cols, 0)
    {}

    size_t rows() const { return rows_; }
    size_t cols() const { return cols_; }
    size_t byteSize() const { return data_.size(); }

    uint8_t get(size_t row, size_t col) const
    {
        return data_[col * rows_ + row];
    }

    void set(size_t row, size_t col, uint8_t v)
    {
        data_[col * rows_ + row] = v;
    }

    const uint8_t *colData(size_t col) const
    {
        return data_.data() + col * rows_;
    }

    /** Dot product of column @p col against a dense float vector. */
    double
    dotColumn(size_t col, const float *dense) const
    {
        const uint8_t *c = colData(col);
        double acc = 0.0;
        for (size_t row = 0; row < rows_; ++row) {
            if (c[row])
                acc += static_cast<double>(c[row]) * dense[row];
        }
        return acc;
    }

    /** dense[row] += delta * col[row] for all rows. */
    void
    axpyColumn(size_t col, float delta, float *dense) const
    {
        const uint8_t *c = colData(col);
        for (size_t row = 0; row < rows_; ++row) {
            if (c[row])
                dense[row] += delta * static_cast<float>(c[row]);
        }
    }

    /** Sum of squares of column @p col. */
    double
    colSumSquares(size_t col) const
    {
        const uint8_t *c = colData(col);
        double acc = 0.0;
        for (size_t row = 0; row < rows_; ++row)
            acc += static_cast<double>(c[row]) * c[row];
        return acc;
    }

  private:
    size_t rows_ = 0;
    size_t cols_ = 0;
    std::vector<uint8_t> data_;
};

} // namespace apollo

#endif // APOLLO_UTIL_BITVEC_HH
