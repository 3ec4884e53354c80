/**
 * @file
 * Packed-bit column kernels behind BitColumnMatrix::dotColumn /
 * dotColumns / axpyColumn and ApolloModel::cycleSums, with runtime CPU
 * dispatch.
 *
 * Each dot has ONE summation order, defined here and implemented once
 * per dispatch path, so every implementation returns the same bits:
 *
 *  - exact dot (dot, dotBatch), the "lane order": row 64k+b of a
 *    column adds float(dense[64k+b]) widened to double into double
 *    chain b mod 32, chains filled in ascending word order (within a
 *    word, bit b before bit b+32). The 32 chains start at +0.0 and are
 *    reduced by the halving tree t[i] = t[i] + t[i+w] for w = 16, 8,
 *    4, 2, 1; the result is t[0]. A word with no set bit is skipped,
 *    which is exact: adding +0.0 leaves a chain unchanged, and a chain
 *    that starts at +0.0 is never -0.0.
 *  - fast dot (dotFast): row 64k+b adds dense[64k+b] into FLOAT chain
 *    b; the 64 chains are reduced in float by the same halving tree
 *    (w = 32, 16, ..., 1) and the result is widened to double. Its
 *    error band is dotFastRelErr().
 *
 * There is no per-word density crossover: the summation order never
 * depends on how many bits a word sets.
 *
 * The weighted column sum (weightedSum, Eq. (1) per row) has one float
 * order too: out[row] starts at `start`, then adds weights[c] for each
 * column c, in ascending c, whose bit is set at that row. A zero
 * weight, +0.0 or -0.0, is skipped: adding +0.0 would turn a -0.0 sum
 * into +0.0. That is exactly the sequence of axpys it replaces, so
 * every implementation returns the same bits.
 *
 * Implementations:
 *  - portable: a countr_zero walk over each word's set bits (an
 *    all-ones word adds its 64 lanes straight), adding into the
 *    order's chains; runs on any x86-64 / aarch64;
 *  - avx512: a 64-bit toggle word is exactly four __mmask16 lane
 *    masks, so a word becomes four masked zero-filling vector loads
 *    (lanes of unset bits read +0.0) with no per-bit work. The batch
 *    dot loads and widens each word's 64 floats once under the OR of
 *    its columns' masks and adds them into every column's chains with
 *    that column's mask — the same adds, into the same chains, in the
 *    same order as the single dot. The weighted sum is row-blocked:
 *    a block of 4 column words (256 rows) keeps its sums in 16
 *    registers while every nonzero-weight column adds its weight
 *    under the block's 16-bit row masks, and is stored once (the tail
 *    block under a row mask). Each column is prefetched 16 words
 *    ahead for chunks that arrive cold: a block reads only 32 bytes
 *    of each of a hundred or more interleaved column streams. The
 *    portable weighted sum is the column-at-a-time loop: fill, then
 *    one axpy per column.
 *
 * The dispatch pointers resolve once at static initialization from
 * __builtin_cpu_supports; APOLLO_NO_AVX512 turns the AVX-512 kernels
 * off for debugging/regression runs, under the shared override rule
 * of util/kernel_env.hh. implKernels() reaches every available
 * implementation so tests and benches can compare them on any machine.
 *
 * Contract shared by all kernels: bits at positions >= nrows in the
 * last word are zero (BitColumnMatrix maintains this), so the vector
 * paths may process the trailing word with masked lanes instead of a
 * scalar tail loop. axpy performs exactly one float add per set bit,
 * so every implementation produces bit-identical axpy results.
 */

#ifndef APOLLO_UTIL_BITVEC_KERNELS_HH
#define APOLLO_UTIL_BITVEC_KERNELS_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>

namespace apollo::bitkernels {

/** dot: sum of dense[row] over set bits, in one of the orders above. */
using DotFn = double (*)(const uint64_t *words, size_t nwords,
                         size_t nrows, const float *dense);
/**
 * Batch dot: out[c] = exact dot of column cols[c] (each nwords words)
 * against @p dense, for c < ncols <= kDotBatch. Each out[c] equals the
 * single exact dot of cols[c] bit for bit.
 */
using DotBatchFn = void (*)(const uint64_t *const *cols, size_t ncols,
                            size_t nwords, size_t nrows,
                            const float *dense, double *out);
/** axpy: dense[row] += delta over set bits. */
using AxpyFn = void (*)(const uint64_t *words, size_t nwords, size_t nrows,
                        float delta, float *dense);
/**
 * Weighted column sum in the order above: out[row] = @p start plus
 * weights[c] for every set bit of column cols[c] (each nwords words),
 * c < ncols ascending, zero weights skipped. Writes out[0, nrows) and
 * nothing else.
 */
using WeightedSumFn = void (*)(const uint64_t *const *cols,
                               const float *weights, size_t ncols,
                               size_t nwords, size_t nrows, float start,
                               float *out);

/** Columns per batch dot call: each word's widened floats are shared
 *  across this many columns (widths 2, 4 and 8 measured; 8 fastest). */
inline constexpr size_t kDotBatch = 8;

/** One implementation's entry points. */
struct Kernels
{
    DotFn dot;          ///< exact dot, lane order
    DotBatchFn dotBatch; ///< up to kDotBatch exact dots, lane order
    DotFn dotFast;      ///< float-chain dot within dotFastRelErr()
    AxpyFn axpy;
    WeightedSumFn weightedSum; ///< per-row weighted column sum
};

/** Implementations, in increasing ISA requirement order. */
enum class Impl : int { Portable = 0, Avx512 = 1 };
inline constexpr int kImplCount = 2;

/** True when the CPU (and build) can run @p impl. */
bool implAvailable(Impl impl);

/** Stable lowercase name ("portable", "avx512"). */
const char *implName(Impl impl);

/** Entry points of @p impl; requires implAvailable(impl). */
const Kernels &implKernels(Impl impl);

/** True when the AVX-512 kernels are compiled in and the CPU + the
 *  APOLLO_NO_AVX512 override allow them. */
bool avx512Enabled();

/** Best available implementations, resolved once at load time. */
extern const DotFn dotWords;
extern const DotBatchFn dotWordsBatch;
extern const AxpyFn axpyWords;
extern const WeightedSumFn weightedSumWords;
/**
 * Approximate dot for bounded-error passes (float chains, no
 * widening). Callers that make exact decisions must recompute with
 * dotWords when the result lies within dotFastRelErr(nwords) *
 * ||x_col|| * ||dense|| of their threshold.
 */
extern const DotFn dotWordsFast;

/**
 * Floor of the fast dot's relative error coefficient: its band at
 * every column length up to 1,671 words (see dotFastRelErr()).
 */
inline constexpr double kDotFastRelErr = 1e-4;

/**
 * Relative error coefficient of dotWordsFast over @p nwords words per
 * column: |fast - sum| <= dotFastRelErr(nwords) * sum_i |dense_i|
 * over set bits <= dotFastRelErr(nwords) * ||x_col|| * ||dense||
 * (Cauchy-Schwarz). Every term passes through at most nwords chain
 * adds plus the 6 levels of the reduction tree, so the rigorous bound
 * is gamma_k = k u / (1 - k u) with k = nwords + 6 and u = 2^-24. The
 * coefficient is max(kDotFastRelErr, gamma_k): gamma_k stays below
 * 1e-4 up to 1,671 words (about 107k rows) and grows linearly beyond.
 */
inline double
dotFastRelErr(size_t nwords)
{
    const double ku = static_cast<double>(nwords + 6) * 0x1p-24;
    if (ku >= 1.0) // no finite bound: every result is borderline
        return std::numeric_limits<double>::infinity();
    return std::max(kDotFastRelErr, ku / (1.0 - ku));
}

/**
 * out[k] = exact dot of column cols[k] against @p dense through
 * dotWordsBatch, kDotBatch columns per call; @p words_of(j) returns
 * column j's first word. Each out[k] equals dotWords on its column.
 */
template <typename WordsOf>
void
dotColumnsBatched(std::span<const uint32_t> cols, WordsOf &&words_of,
                  size_t nwords, size_t nrows, const float *dense,
                  double *out)
{
    const uint64_t *ptrs[kDotBatch];
    for (size_t i = 0; i < cols.size(); i += kDotBatch) {
        const size_t n = std::min(kDotBatch, cols.size() - i);
        for (size_t c = 0; c < n; ++c)
            ptrs[c] = words_of(cols[i + c]);
        dotWordsBatch(ptrs, n, nwords, nrows, dense, out + i);
    }
}

} // namespace apollo::bitkernels

#endif // APOLLO_UTIL_BITVEC_KERNELS_HH
