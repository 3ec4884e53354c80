#include "util/hash_kernels.hh"

#include "util/kernel_env.hh"
#include "util/rng.hh"

#if defined(__x86_64__) && defined(__GNUC__)
#define APOLLO_HAVE_AVX512_HASH 1
#include <immintrin.h>
#endif

namespace apollo::hashkernels {

void
unitDrawsPortable(uint64_t seed, uint64_t cycle0, size_t n, float *out)
{
    for (size_t k = 0; k < n; ++k)
        out[k] = hashToUnitFloat(hashCombine(seed, cycle0 + k));
}

void
unitDrawsAt(uint64_t seed, const uint64_t *cycles, size_t n, float *out)
{
    for (size_t k = 0; k < n; ++k)
        out[k] = hashToUnitFloat(hashCombine(seed, cycles[k]));
}

#ifdef APOLLO_HAVE_AVX512_HASH

namespace {

__attribute__((target("avx512f,avx512dq"))) void
unitDrawsAvx512(uint64_t seed, uint64_t cycle0, size_t n, float *out)
{
    // hashCombine(seed, c) = hashMix(seed ^ (c + K)) with the
    // seed-derived constant K folded once; hashMix is three xor-shift /
    // 64-bit-multiply rounds, identical lane-wise to the scalar code.
    const uint64_t add_k = 0x9e3779b97f4a7c15ULL + (seed << 6) +
                           (seed >> 2);
    const __m512i vseed = _mm512_set1_epi64(static_cast<long long>(seed));
    const __m512i vaddk =
        _mm512_set1_epi64(static_cast<long long>(add_k));
    const __m512i m1 =
        _mm512_set1_epi64(static_cast<long long>(0xff51afd7ed558ccdULL));
    const __m512i m2 =
        _mm512_set1_epi64(static_cast<long long>(0xc4ceb9fe1a85ec53ULL));
    const __m512i step = _mm512_set1_epi64(8);
    const __m256 scale = _mm256_set1_ps(1.0f / 16777216.0f);

    __m512i c = _mm512_add_epi64(
        _mm512_set1_epi64(static_cast<long long>(cycle0)),
        _mm512_setr_epi64(0, 1, 2, 3, 4, 5, 6, 7));

    size_t k = 0;
    for (; k + 8 <= n; k += 8) {
        __m512i x =
            _mm512_xor_si512(vseed, _mm512_add_epi64(c, vaddk));
        x = _mm512_xor_si512(x, _mm512_srli_epi64(x, 33));
        x = _mm512_mullo_epi64(x, m1);
        x = _mm512_xor_si512(x, _mm512_srli_epi64(x, 33));
        x = _mm512_mullo_epi64(x, m2);
        x = _mm512_xor_si512(x, _mm512_srli_epi64(x, 33));
        // Top 24 bits -> exact float in [0, 1): values < 2^24 convert
        // exactly and the scale is a power of two.
        const __m256 f = _mm256_mul_ps(
            _mm512_cvtepu64_ps(_mm512_srli_epi64(x, 40)), scale);
        _mm256_storeu_ps(out + k, f);
        c = _mm512_add_epi64(c, step);
    }
    if (k < n)
        unitDrawsPortable(seed, cycle0 + k, n - k, out + k);
}

} // namespace

#endif // APOLLO_HAVE_AVX512_HASH

namespace {

bool
detectAvx512()
{
#ifdef APOLLO_HAVE_AVX512_HASH
    if (kernelOverrideSet("APOLLO_NO_AVX512"))
        return false;
    return __builtin_cpu_supports("avx512f") &&
           __builtin_cpu_supports("avx512dq");
#else
    return false;
#endif
}

const bool kUseAvx512 = detectAvx512();

} // namespace

bool
avx512Enabled()
{
    return kUseAvx512;
}

#ifdef APOLLO_HAVE_AVX512_HASH
const UnitDrawFn unitDraws = kUseAvx512 ? unitDrawsAvx512
                                        : unitDrawsPortable;
#else
const UnitDrawFn unitDraws = unitDrawsPortable;
#endif

} // namespace apollo::hashkernels
