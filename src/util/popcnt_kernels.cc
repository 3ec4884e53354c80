#include "util/popcnt_kernels.hh"

#include <bit>

#include "util/kernel_env.hh"
#include "util/logging.hh"

#if defined(__x86_64__) && defined(__GNUC__)
#define APOLLO_HAVE_X86_POPCNT_KERNELS 1
#include <immintrin.h>
#endif

namespace apollo::popkernels {

namespace {

/** Mask keeping bits [0, bit_end mod 64); all-ones when aligned. */
inline uint64_t
highEdgeMask(size_t bit_end)
{
    return (bit_end & 63) ? ((uint64_t{1} << (bit_end & 63)) - 1)
                          : ~uint64_t{0};
}

// --- Scalar (portable) --------------------------------------------------

uint64_t
countWordsScalar(const uint64_t *words, size_t nwords)
{
    uint64_t total = 0;
    for (size_t k = 0; k < nwords; ++k)
        total += static_cast<uint64_t>(std::popcount(words[k]));
    return total;
}

uint64_t
countRangeScalar(const uint64_t *words, size_t bit_begin, size_t bit_end)
{
    if (bit_begin >= bit_end)
        return 0;
    const size_t fw = bit_begin >> 6;
    const size_t lw = (bit_end - 1) >> 6;
    const uint64_t first_mask = ~uint64_t{0} << (bit_begin & 63);
    const uint64_t last_mask = highEdgeMask(bit_end);
    if (fw == lw)
        return static_cast<uint64_t>(
            std::popcount(words[fw] & first_mask & last_mask));
    uint64_t total =
        static_cast<uint64_t>(std::popcount(words[fw] & first_mask)) +
        static_cast<uint64_t>(std::popcount(words[lw] & last_mask));
    for (size_t k = fw + 1; k < lw; ++k)
        total += static_cast<uint64_t>(std::popcount(words[k]));
    return total;
}

void
accumWindowSumsScalar(const uint64_t *words, size_t nbits, uint32_t T,
                      uint32_t phase0, int64_t weight, int64_t *seg_sums)
{
    if (phase0 == 0 && T == 64) {
        // One window per word; the tail word's partial window counts
        // correctly because bits past nbits are zero.
        const size_t nwords = (nbits + 63) / 64;
        for (size_t k = 0; k < nwords; ++k)
            seg_sums[k] +=
                weight * static_cast<int64_t>(std::popcount(words[k]));
        return;
    }
    if (phase0 == 0 && T == 32) {
        const size_t nseg = (nbits + 31) / 32;
        const size_t nwords = (nbits + 63) / 64;
        for (size_t k = 0; k < nwords; ++k) {
            const uint64_t v = words[k];
            seg_sums[2 * k] += weight *
                static_cast<int64_t>(std::popcount(v & 0xffffffffULL));
            if (2 * k + 1 < nseg)
                seg_sums[2 * k + 1] +=
                    weight * static_cast<int64_t>(std::popcount(v >> 32));
        }
        return;
    }
    size_t a = 0;
    size_t s = 0;
    size_t b = nbits < T - phase0 ? nbits : T - phase0;
    while (a < nbits) {
        seg_sums[s++] +=
            weight * static_cast<int64_t>(countRangeScalar(words, a, b));
        a = b;
        b = nbits < a + T ? nbits : a + T;
    }
}

constexpr Kernels kScalarKernels = {countWordsScalar, countRangeScalar,
                                    accumWindowSumsScalar};

#if APOLLO_HAVE_X86_POPCNT_KERNELS

// --- AVX2 + hardware POPCNT --------------------------------------------

__attribute__((target("avx2,popcnt"))) uint64_t
countWordsAvx2(const uint64_t *words, size_t nwords)
{
    // Mula nibble-LUT popcount: per-byte counts via two PSHUFB table
    // lookups, reduced with SAD against zero.
    const __m256i lut = _mm256_setr_epi8(
        0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4, 0, 1, 1, 2, 1,
        2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
    const __m256i low = _mm256_set1_epi8(0x0f);
    __m256i acc = _mm256_setzero_si256();
    size_t k = 0;
    for (; k + 4 <= nwords; k += 4) {
        const __m256i v = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(words + k));
        const __m256i lo = _mm256_and_si256(v, low);
        const __m256i hi =
            _mm256_and_si256(_mm256_srli_epi32(v, 4), low);
        const __m256i cnt =
            _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo),
                            _mm256_shuffle_epi8(lut, hi));
        acc = _mm256_add_epi64(
            acc, _mm256_sad_epu8(cnt, _mm256_setzero_si256()));
    }
    uint64_t total =
        static_cast<uint64_t>(_mm256_extract_epi64(acc, 0)) +
        static_cast<uint64_t>(_mm256_extract_epi64(acc, 1)) +
        static_cast<uint64_t>(_mm256_extract_epi64(acc, 2)) +
        static_cast<uint64_t>(_mm256_extract_epi64(acc, 3));
    for (; k < nwords; ++k)
        total += static_cast<uint64_t>(__builtin_popcountll(words[k]));
    return total;
}

__attribute__((target("avx2,popcnt"))) uint64_t
countRangeAvx2(const uint64_t *words, size_t bit_begin, size_t bit_end)
{
    if (bit_begin >= bit_end)
        return 0;
    const size_t fw = bit_begin >> 6;
    const size_t lw = (bit_end - 1) >> 6;
    const uint64_t first_mask = ~uint64_t{0} << (bit_begin & 63);
    const uint64_t last_mask = highEdgeMask(bit_end);
    if (fw == lw)
        return static_cast<uint64_t>(
            __builtin_popcountll(words[fw] & first_mask & last_mask));
    uint64_t total =
        static_cast<uint64_t>(
            __builtin_popcountll(words[fw] & first_mask)) +
        static_cast<uint64_t>(
            __builtin_popcountll(words[lw] & last_mask));
    if (lw - fw > 1)
        total += countWordsAvx2(words + fw + 1, lw - fw - 1);
    return total;
}

__attribute__((target("avx2,popcnt"))) void
accumWindowSumsAvx2(const uint64_t *words, size_t nbits, uint32_t T,
                    uint32_t phase0, int64_t weight, int64_t *seg_sums)
{
    if (phase0 == 0 && T == 64) {
        const size_t nwords = (nbits + 63) / 64;
        for (size_t k = 0; k < nwords; ++k)
            seg_sums[k] += weight *
                static_cast<int64_t>(__builtin_popcountll(words[k]));
        return;
    }
    if (phase0 == 0 && T == 32) {
        const size_t nseg = (nbits + 31) / 32;
        const size_t nwords = (nbits + 63) / 64;
        for (size_t k = 0; k < nwords; ++k) {
            const uint64_t v = words[k];
            seg_sums[2 * k] += weight *
                static_cast<int64_t>(
                    __builtin_popcountll(v & 0xffffffffULL));
            if (2 * k + 1 < nseg)
                seg_sums[2 * k + 1] += weight *
                    static_cast<int64_t>(__builtin_popcountll(v >> 32));
        }
        return;
    }
    if (phase0 == 0 && (T & 63) == 0) {
        const size_t wpw = T / 64;
        const size_t nwords = (nbits + 63) / 64;
        size_t k = 0;
        size_t s = 0;
        while (k < nwords) {
            const size_t take = nwords - k < wpw ? nwords - k : wpw;
            seg_sums[s++] += weight *
                static_cast<int64_t>(countWordsAvx2(words + k, take));
            k += take;
        }
        return;
    }
    size_t a = 0;
    size_t s = 0;
    size_t b = nbits < T - phase0 ? nbits : T - phase0;
    while (a < nbits) {
        seg_sums[s++] +=
            weight * static_cast<int64_t>(countRangeAvx2(words, a, b));
        a = b;
        b = nbits < a + T ? nbits : a + T;
    }
}

constexpr Kernels kAvx2Kernels = {countWordsAvx2, countRangeAvx2,
                                  accumWindowSumsAvx2};

// --- AVX-512 VPOPCNTDQ --------------------------------------------------

// GCC 12's cast/extract/convert intrinsics start from a self-initialized
// "undefined" vector that -Wuninitialized reports once they inline
// (a known false positive); the lanes it names are never read.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"

#define APOLLO_VPOPCNT_TARGET                                           \
    "avx512f,avx512bw,avx512dq,avx512vl,avx512vpopcntdq,popcnt"

__attribute__((target(APOLLO_VPOPCNT_TARGET))) uint64_t
countWordsAvx512(const uint64_t *words, size_t nwords)
{
    __m512i acc = _mm512_setzero_si512();
    size_t k = 0;
    for (; k + 8 <= nwords; k += 8)
        acc = _mm512_add_epi64(
            acc, _mm512_popcnt_epi64(_mm512_loadu_si512(words + k)));
    if (k < nwords) {
        const __mmask8 m =
            static_cast<__mmask8>((1u << (nwords - k)) - 1);
        acc = _mm512_add_epi64(
            acc, _mm512_popcnt_epi64(
                     _mm512_maskz_loadu_epi64(m, words + k)));
    }
    return static_cast<uint64_t>(_mm512_reduce_add_epi64(acc));
}

__attribute__((target(APOLLO_VPOPCNT_TARGET))) uint64_t
countRangeAvx512(const uint64_t *words, size_t bit_begin, size_t bit_end)
{
    if (bit_begin >= bit_end)
        return 0;
    const size_t fw = bit_begin >> 6;
    const size_t lw = (bit_end - 1) >> 6;
    const uint64_t first_mask = ~uint64_t{0} << (bit_begin & 63);
    const uint64_t last_mask = highEdgeMask(bit_end);
    if (fw == lw)
        return static_cast<uint64_t>(
            __builtin_popcountll(words[fw] & first_mask & last_mask));
    uint64_t total =
        static_cast<uint64_t>(
            __builtin_popcountll(words[fw] & first_mask)) +
        static_cast<uint64_t>(
            __builtin_popcountll(words[lw] & last_mask));
    if (lw - fw > 1)
        total += countWordsAvx512(words + fw + 1, lw - fw - 1);
    return total;
}

__attribute__((target(APOLLO_VPOPCNT_TARGET))) void
accumWindowSumsAvx512(const uint64_t *words, size_t nbits, uint32_t T,
                      uint32_t phase0, int64_t weight, int64_t *seg_sums)
{
    // The vectorized window paths multiply 32-bit lane counts by the
    // weight in 32-bit lanes; bail to the masked-range path for
    // weights that could overflow there (quantized weights are far
    // smaller — |qw| < 2^23 for B <= 24 — so this never triggers in
    // the OPM engine).
    const bool narrow_weight =
        weight > -(int64_t{1} << 25) && weight < (int64_t{1} << 25);
    if (phase0 == 0 && T == 64) {
        const size_t nwin = (nbits + 63) / 64;
        const __m512i vw = _mm512_set1_epi64(weight);
        size_t k = 0;
        for (; k + 8 <= nwin; k += 8) {
            const __m512i cnt = _mm512_popcnt_epi64(
                _mm512_loadu_si512(words + k));
            const __m512i acc = _mm512_loadu_si512(seg_sums + k);
            _mm512_storeu_si512(
                seg_sums + k,
                _mm512_add_epi64(acc, _mm512_mullo_epi64(cnt, vw)));
        }
        for (; k < nwin; ++k)
            seg_sums[k] += weight *
                static_cast<int64_t>(__builtin_popcountll(words[k]));
        return;
    }
    if (phase0 == 0 && T == 32 && narrow_weight) {
        // 16 windows per iteration: VPOPCNTD counts each 32-bit lane
        // (= one window), the products widen to two int64 vectors.
        const size_t nseg = (nbits + 31) / 32;
        const __m512i vw =
            _mm512_set1_epi32(static_cast<int32_t>(weight));
        size_t k = 0;
        while (2 * k + 16 <= nseg) {
            const __m512i cnt = _mm512_popcnt_epi32(
                _mm512_loadu_si512(words + k));
            const __m512i prod = _mm512_mullo_epi32(cnt, vw);
            const __m512i lo64 = _mm512_cvtepi32_epi64(
                _mm512_castsi512_si256(prod));
            const __m512i hi64 = _mm512_cvtepi32_epi64(
                _mm512_extracti32x8_epi32(prod, 1));
            const __m512i a0 = _mm512_loadu_si512(seg_sums + 2 * k);
            const __m512i a1 = _mm512_loadu_si512(seg_sums + 2 * k + 8);
            _mm512_storeu_si512(seg_sums + 2 * k,
                                _mm512_add_epi64(a0, lo64));
            _mm512_storeu_si512(seg_sums + 2 * k + 8,
                                _mm512_add_epi64(a1, hi64));
            k += 8;
        }
        const size_t nwords = (nbits + 63) / 64;
        for (; k < nwords; ++k) {
            const uint64_t v = words[k];
            seg_sums[2 * k] += weight *
                static_cast<int64_t>(
                    __builtin_popcountll(v & 0xffffffffULL));
            if (2 * k + 1 < nseg)
                seg_sums[2 * k + 1] += weight *
                    static_cast<int64_t>(__builtin_popcountll(v >> 32));
        }
        return;
    }
    if (phase0 == 0 && (T & 63) == 0) {
        const size_t wpw = T / 64;
        const size_t nwords = (nbits + 63) / 64;
        size_t k = 0;
        size_t s = 0;
        while (k < nwords) {
            const size_t take = nwords - k < wpw ? nwords - k : wpw;
            seg_sums[s++] += weight *
                static_cast<int64_t>(countWordsAvx512(words + k, take));
            k += take;
        }
        return;
    }
    size_t a = 0;
    size_t s = 0;
    size_t b = nbits < T - phase0 ? nbits : T - phase0;
    while (a < nbits) {
        seg_sums[s++] += weight *
            static_cast<int64_t>(countRangeAvx512(words, a, b));
        a = b;
        b = nbits < a + T ? nbits : a + T;
    }
}

constexpr Kernels kAvx512Kernels = {countWordsAvx512, countRangeAvx512,
                                    accumWindowSumsAvx512};

#pragma GCC diagnostic pop

bool
cpuHasAvx2Popcnt()
{
    return __builtin_cpu_supports("avx2") &&
           __builtin_cpu_supports("popcnt");
}

bool
cpuHasAvx512Vpopcntdq()
{
    return __builtin_cpu_supports("avx512f") &&
           __builtin_cpu_supports("avx512bw") &&
           __builtin_cpu_supports("avx512dq") &&
           __builtin_cpu_supports("avx512vl") &&
           __builtin_cpu_supports("avx512vpopcntdq") &&
           __builtin_cpu_supports("popcnt");
}

#endif // APOLLO_HAVE_X86_POPCNT_KERNELS

Impl
detectBestImpl()
{
#if APOLLO_HAVE_X86_POPCNT_KERNELS
    if (kernelOverrideSet("APOLLO_NO_AVX512"))
        return Impl::Scalar;
    if (cpuHasAvx512Vpopcntdq())
        return Impl::Avx512;
    if (cpuHasAvx2Popcnt())
        return Impl::Avx2;
#endif
    return Impl::Scalar;
}

} // namespace

bool
implAvailable(Impl impl)
{
    switch (impl) {
      case Impl::Scalar:
        return true;
#if APOLLO_HAVE_X86_POPCNT_KERNELS
      case Impl::Avx2:
        return cpuHasAvx2Popcnt();
      case Impl::Avx512:
        return cpuHasAvx512Vpopcntdq();
#endif
      default:
        return false;
    }
}

const char *
implName(Impl impl)
{
    switch (impl) {
      case Impl::Scalar:
        return "scalar";
      case Impl::Avx2:
        return "avx2";
      case Impl::Avx512:
        return "avx512";
      default:
        return "unknown";
    }
}

const Kernels &
implKernels(Impl impl)
{
    APOLLO_REQUIRE(implAvailable(impl),
                   "popcount implementation not available on this CPU");
#if APOLLO_HAVE_X86_POPCNT_KERNELS
    if (impl == Impl::Avx2)
        return kAvx2Kernels;
    if (impl == Impl::Avx512)
        return kAvx512Kernels;
#endif
    return kScalarKernels;
}

Impl
bestImpl()
{
    static const Impl best = detectBestImpl();
    return best;
}

const Kernels &
kernels()
{
    return implKernels(bestImpl());
}

} // namespace apollo::popkernels
