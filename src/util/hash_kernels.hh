/**
 * @file
 * Batched stateless-hash draw kernels with runtime CPU dispatch.
 *
 * The activity engine consumes one hashCombine(seed, cycle) draw per
 * (signal, cycle) pair — the dominant arithmetic of toggle generation.
 * For a fixed seed the draw over a contiguous cycle range is a pure
 * elementwise function of the cycle index, so it vectorizes: the
 * AVX-512 path evaluates eight 64-bit hash lanes per iteration
 * (avx512dq supplies the 64-bit multiply), then narrows the top 24
 * bits to the unit-interval float exactly as hashToUnitFloat does.
 *
 * Contract: every implementation returns floats bit-identical to the
 * scalar hashToUnitFloat(hashCombine(seed, cycle)) — integer hashing is
 * exact on every path, the u64 -> float conversion of a value < 2^24 is
 * exact, and the final scale is a power of two. Dispatch mirrors
 * util/bitvec_kernels: resolved once at static initialization from
 * __builtin_cpu_supports, and turned off by APOLLO_NO_AVX512 under
 * the shared override rule of util/kernel_env.hh.
 */

#ifndef APOLLO_UTIL_HASH_KERNELS_HH
#define APOLLO_UTIL_HASH_KERNELS_HH

#include <cstddef>
#include <cstdint>

namespace apollo::hashkernels {

/**
 * out[k] = hashToUnitFloat(hashCombine(seed, cycle0 + k)), k in [0, n).
 */
using UnitDrawFn = void (*)(uint64_t seed, uint64_t cycle0, size_t n,
                            float *out);

void unitDrawsPortable(uint64_t seed, uint64_t cycle0, size_t n,
                       float *out);

/** Same draw at arbitrary (non-contiguous) cycle keys. */
void unitDrawsAt(uint64_t seed, const uint64_t *cycles, size_t n,
                 float *out);

/** True when the AVX-512 kernel is compiled in and allowed to run. */
bool avx512Enabled();

/** Best available implementation, resolved once at load time. */
extern const UnitDrawFn unitDraws;

} // namespace apollo::hashkernels

#endif // APOLLO_UTIL_HASH_KERNELS_HH
