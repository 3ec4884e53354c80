#include "util/bitvec_kernels.hh"

#include <bit>

#include "util/kernel_env.hh"

#if defined(__x86_64__) && defined(__GNUC__)
#define APOLLO_HAVE_AVX512_KERNELS 1
#include <immintrin.h>
#endif

namespace apollo::bitkernels {

namespace {

/**
 * Per-word density threshold for the dot kernels' vector paths: below
 * ~8 set bits a countr_zero walk beats the fixed-cost masked vector
 * sequence; above it the vector path wins by up to 8x.
 */
constexpr int kVectorMinBits = 8;

} // namespace

double
dotWordsPortable(const uint64_t *words, size_t nwords, size_t nrows,
                 const float *dense)
{
    const size_t full = nrows >> 6;
    double acc = 0.0;
    for (size_t k = 0; k < full; ++k) {
        uint64_t bits = words[k];
        if (!bits)
            continue;
        const float *v = dense + (k << 6);
        if (bits == ~0ULL) {
            // Double partial sums: keeps the portable kernel in the
            // same precision class as the AVX-512 kernel, so solver
            // decisions (certification slack, KKT checks) are equally
            // trustworthy on every dispatch path.
            double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
            for (int i = 0; i < 64; i += 4) {
                s0 += v[i + 0];
                s1 += v[i + 1];
                s2 += v[i + 2];
                s3 += v[i + 3];
            }
            acc += (s0 + s1) + (s2 + s3);
        } else {
            double s = 0.0;
            while (bits) {
                s += v[std::countr_zero(bits)];
                bits &= bits - 1;
            }
            acc += s;
        }
    }
    if (nrows & 63) {
        uint64_t bits = words[full];
        const float *v = dense + (full << 6);
        while (bits) {
            acc += v[std::countr_zero(bits)];
            bits &= bits - 1;
        }
    }
    (void)nwords;
    return acc;
}

void
axpyWordsPortable(const uint64_t *words, size_t nwords, size_t nrows,
                  float delta, float *dense)
{
    const size_t full = nrows >> 6;
    for (size_t k = 0; k < full; ++k) {
        uint64_t bits = words[k];
        if (!bits)
            continue;
        float *v = dense + (k << 6);
        if (bits == ~0ULL) {
            for (int i = 0; i < 64; ++i)
                v[i] += delta;
        } else {
            while (bits) {
                v[std::countr_zero(bits)] += delta;
                bits &= bits - 1;
            }
        }
    }
    if (nrows & 63) {
        uint64_t bits = words[full];
        float *v = dense + (full << 6);
        while (bits) {
            v[std::countr_zero(bits)] += delta;
            bits &= bits - 1;
        }
    }
    (void)nwords;
}

#ifdef APOLLO_HAVE_AVX512_KERNELS

/**
 * AVX-512 dot: each 16-bit slice of the word masks one zero-filling
 * vector load (inactive lanes never fault, so the trailing partial
 * word needs no special case given the trailing-zero contract). The
 * masked floats are widened to double before accumulating, keeping
 * the same precision class as the portable kernel so solver decisions
 * (support entry, KKT checks) stay numerically stable.
 */
__attribute__((target("avx512f,avx512bw,avx512dq,avx512vl"))) double
dotWordsAvx512(const uint64_t *words, size_t nwords, size_t nrows,
               const float *dense)
{
    __m512d a0 = _mm512_setzero_pd();
    __m512d a1 = _mm512_setzero_pd();
    __m512d a2 = _mm512_setzero_pd();
    __m512d a3 = _mm512_setzero_pd();
    double sparse = 0.0;
    for (size_t k = 0; k < nwords; ++k) {
        uint64_t bits = words[k];
        if (!bits)
            continue;
        const float *v = dense + (k << 6);
        if (std::popcount(bits) >= kVectorMinBits) {
            const __m512 f0 =
                _mm512_maskz_loadu_ps(static_cast<__mmask16>(bits), v);
            const __m512 f1 = _mm512_maskz_loadu_ps(
                static_cast<__mmask16>(bits >> 16), v + 16);
            const __m512 f2 = _mm512_maskz_loadu_ps(
                static_cast<__mmask16>(bits >> 32), v + 32);
            const __m512 f3 = _mm512_maskz_loadu_ps(
                static_cast<__mmask16>(bits >> 48), v + 48);
            a0 = _mm512_add_pd(
                a0, _mm512_cvtps_pd(_mm512_castps512_ps256(f0)));
            a1 = _mm512_add_pd(
                a1, _mm512_cvtps_pd(_mm512_extractf32x8_ps(f0, 1)));
            a2 = _mm512_add_pd(
                a2, _mm512_cvtps_pd(_mm512_castps512_ps256(f1)));
            a3 = _mm512_add_pd(
                a3, _mm512_cvtps_pd(_mm512_extractf32x8_ps(f1, 1)));
            a0 = _mm512_add_pd(
                a0, _mm512_cvtps_pd(_mm512_castps512_ps256(f2)));
            a1 = _mm512_add_pd(
                a1, _mm512_cvtps_pd(_mm512_extractf32x8_ps(f2, 1)));
            a2 = _mm512_add_pd(
                a2, _mm512_cvtps_pd(_mm512_castps512_ps256(f3)));
            a3 = _mm512_add_pd(
                a3, _mm512_cvtps_pd(_mm512_extractf32x8_ps(f3, 1)));
        } else {
            double s = 0.0;
            while (bits) {
                s += v[std::countr_zero(bits)];
                bits &= bits - 1;
            }
            sparse += s;
        }
    }
    (void)nrows;
    return sparse + _mm512_reduce_add_pd(_mm512_add_pd(
                        _mm512_add_pd(a0, a1), _mm512_add_pd(a2, a3)));
}

/**
 * AVX-512 dot with float accumulation: same masked-load structure as
 * dotWordsAvx512 but no widening to double, which roughly doubles
 * throughput. Error stays within kDotFastRelErr (each of the 64 float
 * lanes sums ~nwords values; the worst-case relative error of that
 * chain is orders of magnitude below 1e-4).
 */
__attribute__((target("avx512f,avx512bw,avx512dq,avx512vl"))) double
dotWordsAvx512Fast(const uint64_t *words, size_t nwords, size_t nrows,
                   const float *dense)
{
    __m512 a0 = _mm512_setzero_ps();
    __m512 a1 = _mm512_setzero_ps();
    __m512 a2 = _mm512_setzero_ps();
    __m512 a3 = _mm512_setzero_ps();
    double sparse = 0.0;
    for (size_t k = 0; k < nwords; ++k) {
        uint64_t bits = words[k];
        if (!bits)
            continue;
        const float *v = dense + (k << 6);
        if (std::popcount(bits) >= kVectorMinBits) {
            a0 = _mm512_add_ps(
                a0,
                _mm512_maskz_loadu_ps(static_cast<__mmask16>(bits), v));
            a1 = _mm512_add_ps(
                a1, _mm512_maskz_loadu_ps(
                        static_cast<__mmask16>(bits >> 16), v + 16));
            a2 = _mm512_add_ps(
                a2, _mm512_maskz_loadu_ps(
                        static_cast<__mmask16>(bits >> 32), v + 32));
            a3 = _mm512_add_ps(
                a3, _mm512_maskz_loadu_ps(
                        static_cast<__mmask16>(bits >> 48), v + 48));
        } else {
            double s = 0.0;
            while (bits) {
                s += v[std::countr_zero(bits)];
                bits &= bits - 1;
            }
            sparse += s;
        }
    }
    (void)nrows;
    return sparse +
           static_cast<double>(_mm512_reduce_add_ps(_mm512_add_ps(
               _mm512_add_ps(a0, a1), _mm512_add_ps(a2, a3))));
}

/**
 * AVX-512 axpy: read-modify-masked-write per 16-lane slice, for every
 * nonzero word however few bits it sets (unlike dot, whose threshold
 * decides its summation order). Every set bit receives exactly one
 * float add, identical to the scalar kernel, so results are
 * bit-for-bit the same on every path.
 */
__attribute__((target("avx512f,avx512bw,avx512dq,avx512vl"))) void
axpyWordsAvx512(const uint64_t *words, size_t nwords, size_t nrows,
                float delta, float *dense)
{
    const __m512 d = _mm512_set1_ps(delta);
    for (size_t k = 0; k < nwords; ++k) {
        uint64_t bits = words[k];
        if (!bits)
            continue;
        float *v = dense + (k << 6);
        // Loads are masked as well as stores: the tail word of an
        // unpadded dense buffer must not be read past its end.
        const auto m0 = static_cast<__mmask16>(bits);
        const auto m1 = static_cast<__mmask16>(bits >> 16);
        const auto m2 = static_cast<__mmask16>(bits >> 32);
        const auto m3 = static_cast<__mmask16>(bits >> 48);
        _mm512_mask_storeu_ps(
            v, m0, _mm512_add_ps(_mm512_maskz_loadu_ps(m0, v), d));
        _mm512_mask_storeu_ps(
            v + 16, m1,
            _mm512_add_ps(_mm512_maskz_loadu_ps(m1, v + 16), d));
        _mm512_mask_storeu_ps(
            v + 32, m2,
            _mm512_add_ps(_mm512_maskz_loadu_ps(m2, v + 32), d));
        _mm512_mask_storeu_ps(
            v + 48, m3,
            _mm512_add_ps(_mm512_maskz_loadu_ps(m3, v + 48), d));
    }
    (void)nrows;
}

#endif // APOLLO_HAVE_AVX512_KERNELS

namespace {

bool
detectAvx512()
{
#ifdef APOLLO_HAVE_AVX512_KERNELS
    if (kernelOverrideSet("APOLLO_NO_AVX512"))
        return false;
    return __builtin_cpu_supports("avx512f") &&
           __builtin_cpu_supports("avx512bw") &&
           __builtin_cpu_supports("avx512dq") &&
           __builtin_cpu_supports("avx512vl");
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

#ifdef APOLLO_HAVE_AVX512_KERNELS
const DotFn dotWords = kUseAvx512 ? dotWordsAvx512 : dotWordsPortable;
const AxpyFn axpyWords = kUseAvx512 ? axpyWordsAvx512 : axpyWordsPortable;
const DotFn dotWordsFast =
    kUseAvx512 ? dotWordsAvx512Fast : dotWordsPortable;
#else
const DotFn dotWords = dotWordsPortable;
const AxpyFn axpyWords = axpyWordsPortable;
const DotFn dotWordsFast = dotWordsPortable;
#endif

} // namespace apollo::bitkernels
