/**
 * @file
 * Packed-bit column kernels behind BitColumnMatrix::dotColumn /
 * axpyColumn, with runtime CPU dispatch.
 *
 * Two implementations exist:
 *  - portable: word-at-a-time scalar code (all-ones fast path +
 *    countr_zero walk) that runs on any x86-64 / aarch64;
 *  - avx512: AVX-512 masked loads/stores — a 64-bit toggle word is
 *    exactly four __mmask16 lane masks, so a column dot becomes four
 *    masked vector loads per word with no per-bit work at all. In the
 *    dots, sparse words (few set bits) still take the countr_zero
 *    walk, chosen per word by popcount; axpy takes the masked vector
 *    add for every nonzero word.
 *
 * The dispatch pointers resolve once at static initialization from
 * __builtin_cpu_supports; APOLLO_NO_AVX512 turns the AVX-512 kernels
 * off for debugging/regression runs, under the shared override rule
 * of util/kernel_env.hh. Both implementations are exported so tests
 * can compare them on any machine.
 *
 * Contract shared by all kernels: bits at positions >= nrows in the
 * last word are zero (BitColumnMatrix maintains this), so the vector
 * paths may process the trailing word with masked lanes instead of a
 * scalar tail loop. dot accumulates in double; axpy performs exactly
 * one float add per set bit, so every implementation produces
 * bit-identical axpy results.
 */

#ifndef APOLLO_UTIL_BITVEC_KERNELS_HH
#define APOLLO_UTIL_BITVEC_KERNELS_HH

#include <cstddef>
#include <cstdint>

namespace apollo::bitkernels {

/** dot: sum of dense[row] over set bits; accumulates in double. */
using DotFn = double (*)(const uint64_t *words, size_t nwords,
                         size_t nrows, const float *dense);
/** axpy: dense[row] += delta over set bits. */
using AxpyFn = void (*)(const uint64_t *words, size_t nwords, size_t nrows,
                        float delta, float *dense);

double dotWordsPortable(const uint64_t *words, size_t nwords, size_t nrows,
                        const float *dense);
void axpyWordsPortable(const uint64_t *words, size_t nwords, size_t nrows,
                       float delta, float *dense);

/** True when the AVX-512 kernels are compiled in and the CPU + the
 *  APOLLO_NO_AVX512 override allow them. */
bool avx512Enabled();

/** Best available implementations, resolved once at load time. */
extern const DotFn dotWords;
extern const AxpyFn axpyWords;

/**
 * Approximate dot for bounded-error passes: accumulates dense words in
 * float (about 2x faster than dotWords on AVX-512 — no widening), with
 * absolute error at most kDotFastRelErr * ||x_col|| * ||dense||. Sparse
 * words still accumulate in double. Resolves to dotWords (exact) when
 * the AVX-512 kernels are unavailable, so the error bound always
 * holds. Callers that make exact decisions must recompute with
 * dotWords when the result lies within the error band of their
 * threshold.
 */
extern const DotFn dotWordsFast;

/**
 * Guaranteed relative error coefficient of dotWordsFast: the float
 * accumulation chains are at most a few thousand adds, giving a true
 * worst case near 1e-5 of sum_i |x_i * dense_i| <= ||x|| * ||dense||
 * (Cauchy-Schwarz); 1e-4 leaves an order of magnitude of slack.
 */
inline constexpr double kDotFastRelErr = 1e-4;

} // namespace apollo::bitkernels

#endif // APOLLO_UTIL_BITVEC_KERNELS_HH
