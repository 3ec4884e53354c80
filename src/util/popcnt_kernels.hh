/**
 * @file
 * Runtime-dispatched popcount kernels for the bit-parallel streaming
 * inference path (the counterpart of util/bitvec_kernels.hh for the
 * quantized engine): count set bits over packed 64-cycle words and
 * accumulate weighted per-window counts without ever materializing
 * per-cycle rows.
 *
 * Three implementations share one contract and produce identical
 * results (popcounts are exact integers, so unlike the float kernels
 * there is no accumulation-order caveat):
 *
 *  - Scalar: portable std::popcount loops, no ISA assumptions.
 *  - Avx2:   hardware POPCNT for word/edge counts plus the Mula
 *            PSHUFB nibble-LUT + SAD reduction for long word runs.
 *  - Avx512: VPOPCNTQ / VPOPCNTD (AVX-512 VPOPCNTDQ) vector
 *            popcounts, including a 16-windows-at-a-time path for the
 *            hot T=32 window size.
 *
 * All kernels assume the packed zero-tail contract of
 * BitColumnMatrix: bits at positions >= nbits in the last word are
 * zero. countRange() masks its own edges and is safe regardless.
 *
 * Dispatch: kernels() returns the best table the CPU supports,
 * detected once per process. APOLLO_NO_AVX512 hides the AVX-512
 * table, APOLLO_NO_AVX2 hides AVX2 as well — the override rule of
 * util/kernel_env.hh that every kernel family shares.
 * Per-implementation tables stay reachable through implKernels() for
 * the bench ablation and equivalence tests.
 */

#ifndef APOLLO_UTIL_POPCNT_KERNELS_HH
#define APOLLO_UTIL_POPCNT_KERNELS_HH

#include <cstddef>
#include <cstdint>

namespace apollo::popkernels {

/** Implementation tiers, in increasing ISA requirement order. */
enum class Impl : int { Scalar = 0, Avx2 = 1, Avx512 = 2 };

inline constexpr int kImplCount = 3;

/** One implementation's entry points (function-pointer table). */
struct Kernels
{
    /** Total popcount of words[0, nwords). */
    uint64_t (*countWords)(const uint64_t *words, size_t nwords);

    /**
     * Popcount of bit positions [bit_begin, bit_end) of a packed
     * word array. Edge words are masked internally; bits outside the
     * range are never read as set, so this does not require the
     * zero-tail contract.
     */
    uint64_t (*countRange)(const uint64_t *words, size_t bit_begin,
                           size_t bit_end);

    /**
     * The bit-parallel OPM inner loop: split bits [0, nbits) into
     * T-cycle window segments — the first segment holds
     * min(nbits, T - phase0) bits (a window already phase0 cycles
     * deep), each following segment holds up to T — and add
     * weight * popcount(segment) to seg_sums[s] for each segment s.
     * Requires phase0 < T and the zero-tail contract on @p words;
     * seg_sums must hold windowSegments(nbits, T, phase0) entries.
     */
    void (*accumWindowSums)(const uint64_t *words, size_t nbits,
                            uint32_t T, uint32_t phase0, int64_t weight,
                            int64_t *seg_sums);
};

/** Number of window segments accumWindowSums() touches. */
inline size_t
windowSegments(size_t nbits, uint32_t T, uint32_t phase0)
{
    if (nbits == 0)
        return 0;
    const size_t first = nbits < T - phase0 ? nbits : T - phase0;
    return 1 + (nbits - first + T - 1) / T;
}

/** True when the CPU (and build) can run @p impl. */
bool implAvailable(Impl impl);

/** Stable lowercase name ("scalar", "avx2", "avx512"). */
const char *implName(Impl impl);

/** Entry points of @p impl; requires implAvailable(impl). */
const Kernels &implKernels(Impl impl);

/** Best available implementation after env overrides (cached). */
Impl bestImpl();

/** Entry points of bestImpl(). */
const Kernels &kernels();

} // namespace apollo::popkernels

#endif // APOLLO_UTIL_POPCNT_KERNELS_HH
