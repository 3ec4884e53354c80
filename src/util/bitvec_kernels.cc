#include "util/bitvec_kernels.hh"

#include <algorithm>
#include <bit>
#include <vector>

#include "util/kernel_env.hh"
#include "util/logging.hh"

#if defined(__x86_64__) && defined(__GNUC__)
#define APOLLO_HAVE_AVX512_KERNELS 1
#include <immintrin.h>
#endif

namespace apollo::bitkernels {

namespace {

/** The exact dot's reduction tree over its 32 double chains. */
double
reduceLanes(double (&t)[32])
{
    for (int w = 16; w >= 1; w >>= 1)
        for (int i = 0; i < w; ++i)
            t[i] = t[i] + t[i + w];
    return t[0];
}

/** The fast dot's reduction tree over its 64 float chains. */
float
reduceLanes(float (&t)[64])
{
    for (int w = 32; w >= 1; w >>= 1)
        for (int i = 0; i < w; ++i)
            t[i] = t[i] + t[i + w];
    return t[0];
}

/** Exact dot, lane order: bit b of each word adds into chain b & 31,
 *  bits in ascending order. */
double
dotWordsPortable(const uint64_t *words, size_t nwords, size_t nrows,
                 const float *dense)
{
    double lane[32] = {};
    for (size_t k = 0; k < nwords; ++k) {
        uint64_t bits = words[k];
        const float *v = dense + (k << 6);
        if (bits == ~0ULL) {
            for (int b = 0; b < 32; ++b)
                lane[b] += v[b];
            for (int b = 0; b < 32; ++b)
                lane[b] += v[b + 32];
            continue;
        }
        while (bits) {
            const int b = std::countr_zero(bits);
            lane[b & 31] += v[b];
            bits &= bits - 1;
        }
    }
    (void)nrows;
    return reduceLanes(lane);
}

/** Batch dot: one portable single dot per column. */
void
dotBatchPortable(const uint64_t *const *cols, size_t ncols, size_t nwords,
                 size_t nrows, const float *dense, double *out)
{
    for (size_t c = 0; c < ncols; ++c)
        out[c] = dotWordsPortable(cols[c], nwords, nrows, dense);
}

/** Fast dot: bit b of each word adds into float chain b. */
double
dotWordsFastPortable(const uint64_t *words, size_t nwords, size_t nrows,
                     const float *dense)
{
    float lane[64] = {};
    for (size_t k = 0; k < nwords; ++k) {
        uint64_t bits = words[k];
        const float *v = dense + (k << 6);
        if (bits == ~0ULL) {
            for (int b = 0; b < 64; ++b)
                lane[b] += v[b];
            continue;
        }
        while (bits) {
            const int b = std::countr_zero(bits);
            lane[b] += v[b];
            bits &= bits - 1;
        }
    }
    (void)nrows;
    return static_cast<double>(reduceLanes(lane));
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

/** Weighted sum, column at a time: fill, then one axpy per nonzero
 *  weight. */
void
weightedSumPortable(const uint64_t *const *cols, const float *weights,
                    size_t ncols, size_t nwords, size_t nrows, float start,
                    float *out)
{
    std::fill(out, out + nrows, start);
    for (size_t c = 0; c < ncols; ++c)
        if (weights[c] != 0.0f)
            axpyWordsPortable(cols[c], nwords, nrows, weights[c], out);
}

constexpr Kernels kPortable = {dotWordsPortable, dotBatchPortable,
                               dotWordsFastPortable, axpyWordsPortable,
                               weightedSumPortable};

#ifdef APOLLO_HAVE_AVX512_KERNELS

#define APOLLO_AVX512_TARGET                                             \
    __attribute__((target("avx512f,avx512bw,avx512dq,avx512vl")))

// GCC 12's cast/extract/convert intrinsics start from a self-initialized
// "undefined" vector that -Wuninitialized reports once they inline
// (a known false positive); the lanes it names are never read.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"

/**
 * The exact dot's reduction tree on the four chain registers (chains
 * 0-7, 8-15, 16-23, 24-31): a0 + a2 and a1 + a3 are the w = 16 level,
 * their sum the w = 8 level, then the 256-, 128- and 64-bit halves.
 */
APOLLO_AVX512_TARGET inline double
reduceLanesAvx512(__m512d a0, __m512d a1, __m512d a2, __m512d a3)
{
    const __m512d t8 =
        _mm512_add_pd(_mm512_add_pd(a0, a2), _mm512_add_pd(a1, a3));
    const __m256d t4 = _mm256_add_pd(_mm512_castpd512_pd256(t8),
                                     _mm512_extractf64x4_pd(t8, 1));
    const __m128d t2 = _mm_add_pd(_mm256_castpd256_pd128(t4),
                                  _mm256_extractf128_pd(t4, 1));
    return _mm_cvtsd_f64(_mm_add_sd(t2, _mm_unpackhi_pd(t2, t2)));
}

/**
 * Exact dots of N columns in lane order. Per word with any set bit,
 * the four 16-row groups of the dense vector are loaded once under
 * the OR of the columns' masks (unset lanes read +0.0) and widened to
 * eight double vectors; rows 16g..16g+7 feed chain register 2g mod 4
 * and rows 16g+8..16g+15 register 2g+1 mod 4, so chain b mod 32 gets
 * bit b before bit b+32. Each column adds them under its own mask;
 * with N = 1 the load mask is the column's, and the plain add adds
 * +0.0 where the masked add would keep the lane — the same value.
 */
template <int N>
APOLLO_AVX512_TARGET void
dotLanesAvx512(const uint64_t *const *cols, size_t nwords,
               const float *dense, double *out)
{
    __m512d acc[N][4];
#pragma GCC unroll 8
    for (int c = 0; c < N; ++c)
        for (int l = 0; l < 4; ++l)
            acc[c][l] = _mm512_setzero_pd();
    for (size_t k = 0; k < nwords; ++k) {
        uint64_t bits[N];
        uint64_t any = 0;
#pragma GCC unroll 8
        for (int c = 0; c < N; ++c) {
            bits[c] = cols[c][k];
            any |= bits[c];
        }
        if (!any)
            continue;
        const float *v = dense + (k << 6);
#pragma GCC unroll 4
        for (int g = 0; g < 4; ++g) {
            const __m512 f = _mm512_maskz_loadu_ps(
                static_cast<__mmask16>(any >> (16 * g)), v + 16 * g);
            const __m512d lo = _mm512_cvtps_pd(_mm512_castps512_ps256(f));
            const __m512d hi = _mm512_cvtps_pd(_mm512_extractf32x8_ps(f, 1));
            const int l = (2 * g) & 3;
#pragma GCC unroll 8
            for (int c = 0; c < N; ++c) {
                if constexpr (N == 1) {
                    acc[c][l] = _mm512_add_pd(acc[c][l], lo);
                    acc[c][l + 1] = _mm512_add_pd(acc[c][l + 1], hi);
                } else {
                    acc[c][l] = _mm512_mask_add_pd(
                        acc[c][l],
                        static_cast<__mmask8>(bits[c] >> (16 * g)),
                        acc[c][l], lo);
                    acc[c][l + 1] = _mm512_mask_add_pd(
                        acc[c][l + 1],
                        static_cast<__mmask8>(bits[c] >> (16 * g + 8)),
                        acc[c][l + 1], hi);
                }
            }
        }
    }
#pragma GCC unroll 8
    for (int c = 0; c < N; ++c)
        out[c] = reduceLanesAvx512(acc[c][0], acc[c][1], acc[c][2],
                                   acc[c][3]);
}

APOLLO_AVX512_TARGET double
dotWordsAvx512(const uint64_t *words, size_t nwords, size_t nrows,
               const float *dense)
{
    double out;
    dotLanesAvx512<1>(&words, nwords, dense, &out);
    (void)nrows;
    return out;
}

APOLLO_AVX512_TARGET void
dotBatchAvx512(const uint64_t *const *cols, size_t ncols, size_t nwords,
               size_t nrows, const float *dense, double *out)
{
    using LanesFn =
        void (*)(const uint64_t *const *, size_t, const float *, double *);
    static_assert(kDotBatch == 8);
    static constexpr LanesFn kLanes[kDotBatch] = {
        dotLanesAvx512<1>, dotLanesAvx512<2>, dotLanesAvx512<3>,
        dotLanesAvx512<4>, dotLanesAvx512<5>, dotLanesAvx512<6>,
        dotLanesAvx512<7>, dotLanesAvx512<8>};
    kLanes[ncols - 1](cols, nwords, dense, out);
    (void)nrows;
}

/**
 * Fast dot: every word's four 16-row groups are added, zero-filled
 * under the word's masks, into float chain registers 0-15 | 16-31 |
 * 32-47 | 48-63 — no per-word branch. a0 + a2 and a1 + a3 are the
 * w = 32 level of the reduction tree, their sum the w = 16 level.
 */
APOLLO_AVX512_TARGET double
dotWordsFastAvx512(const uint64_t *words, size_t nwords, size_t nrows,
                   const float *dense)
{
    __m512 a0 = _mm512_setzero_ps();
    __m512 a1 = _mm512_setzero_ps();
    __m512 a2 = _mm512_setzero_ps();
    __m512 a3 = _mm512_setzero_ps();
    for (size_t k = 0; k < nwords; ++k) {
        const uint64_t bits = words[k];
        const float *v = dense + (k << 6);
        a0 = _mm512_add_ps(
            a0, _mm512_maskz_loadu_ps(static_cast<__mmask16>(bits), v));
        a1 = _mm512_add_ps(a1, _mm512_maskz_loadu_ps(
                                   static_cast<__mmask16>(bits >> 16),
                                   v + 16));
        a2 = _mm512_add_ps(a2, _mm512_maskz_loadu_ps(
                                   static_cast<__mmask16>(bits >> 32),
                                   v + 32));
        a3 = _mm512_add_ps(a3, _mm512_maskz_loadu_ps(
                                   static_cast<__mmask16>(bits >> 48),
                                   v + 48));
    }
    (void)nrows;
    const __m512 t16 =
        _mm512_add_ps(_mm512_add_ps(a0, a2), _mm512_add_ps(a1, a3));
    const __m256 t8 = _mm256_add_ps(_mm512_castps512_ps256(t16),
                                    _mm512_extractf32x8_ps(t16, 1));
    const __m128 t4 = _mm_add_ps(_mm256_castps256_ps128(t8),
                                 _mm256_extractf128_ps(t8, 1));
    const __m128 t2 = _mm_add_ps(t4, _mm_movehl_ps(t4, t4));
    return static_cast<double>(
        _mm_cvtss_f32(_mm_add_ss(t2, _mm_movehdup_ps(t2))));
}

/**
 * AVX-512 axpy: read-modify-masked-write per 16-lane slice, for every
 * nonzero word however few bits it sets. Every set bit receives
 * exactly one float add, identical to the scalar kernel, so results
 * are bit-for-bit the same on every path.
 */
APOLLO_AVX512_TARGET void
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

/** Column words per row block of the weighted sum: 256 rows, held in
 *  16 float registers. */
constexpr size_t kSumBlockWords = 4;
/** Prefetch distance of each column stream, in words (4 blocks). */
constexpr size_t kSumPrefetchWords = 16;

/**
 * One row block of the weighted sum: rows [64 k0, 64 (k0 + NW)) start
 * at @p start, and each live column adds its weight under its NW
 * words' 16-bit row masks, columns in ascending order. Every row gets
 * the same float adds, in the same order, as the column-at-a-time
 * loop. Columns are read only at words k0 .. k0 + NW - 1.
 */
template <int NW>
APOLLO_AVX512_TARGET inline void
sumBlockAvx512(const uint64_t *const *cols, const float *weights,
               size_t ncols, size_t k0, size_t prefetch_word,
               __m512 start, __m512 (&acc)[4 * NW])
{
#pragma GCC unroll 16
    for (int i = 0; i < 4 * NW; ++i)
        acc[i] = start;
    for (size_t c = 0; c < ncols; ++c) {
        const uint64_t *w = cols[c];
        _mm_prefetch(reinterpret_cast<const char *>(w + prefetch_word),
                     _MM_HINT_T0);
        const __m512 d = _mm512_set1_ps(weights[c]);
#pragma GCC unroll 4
        for (int j = 0; j < NW; ++j) {
            const uint64_t bits = w[k0 + j];
#pragma GCC unroll 4
            for (int g = 0; g < 4; ++g)
                acc[4 * j + g] = _mm512_mask_add_ps(
                    acc[4 * j + g],
                    static_cast<__mmask16>(bits >> (16 * g)),
                    acc[4 * j + g], d);
        }
    }
}

/** The tail block: NW words holding @p rows rows (1 .. 64 NW), stored
 *  under row masks so nothing past them is written. */
template <int NW>
APOLLO_AVX512_TARGET void
sumTailAvx512(const uint64_t *const *cols, const float *weights,
              size_t ncols, size_t k0, size_t rows, __m512 start,
              float *out)
{
    __m512 acc[4 * NW];
    sumBlockAvx512<NW>(cols, weights, ncols, k0, k0, start, acc);
#pragma GCC unroll 16
    for (int i = 0; i < 4 * NW; ++i) {
        const size_t lane0 = 16 * static_cast<size_t>(i);
        const size_t n = rows > lane0 ? std::min<size_t>(rows - lane0, 16)
                                      : 0;
        _mm512_mask_storeu_ps(out + lane0,
                              static_cast<__mmask16>((1u << n) - 1),
                              acc[i]);
    }
}

/**
 * Row-blocked weighted sum: the nonzero-weight columns are listed
 * once, then every 256-row block is summed in registers across all of
 * them and stored once. Full blocks are stored whole; the tail block
 * (1 .. 255 rows, reading only its own words) under row masks.
 */
APOLLO_AVX512_TARGET void
weightedSumAvx512(const uint64_t *const *cols, const float *weights,
                  size_t ncols, size_t nwords, size_t nrows, float start,
                  float *out)
{
    std::vector<const uint64_t *> live_cols;
    std::vector<float> live_weights;
    live_cols.reserve(ncols);
    live_weights.reserve(ncols);
    for (size_t c = 0; c < ncols; ++c) {
        if (weights[c] != 0.0f) {
            live_cols.push_back(cols[c]);
            live_weights.push_back(weights[c]);
        }
    }
    const size_t n = live_cols.size();
    const __m512 s = _mm512_set1_ps(start);
    const size_t full_blocks = nrows / (64 * kSumBlockWords);
    for (size_t b = 0; b < full_blocks; ++b) {
        const size_t k0 = b * kSumBlockWords;
        __m512 acc[16];
        sumBlockAvx512<4>(live_cols.data(), live_weights.data(), n, k0,
                          std::min(k0 + kSumPrefetchWords, nwords - 1), s,
                          acc);
        float *o = out + 64 * k0;
#pragma GCC unroll 16
        for (int i = 0; i < 16; ++i)
            _mm512_storeu_ps(o + 16 * i, acc[i]);
    }
    const size_t k0 = full_blocks * kSumBlockWords;
    const size_t rows = nrows - 64 * k0;
    float *o = out + 64 * k0;
    switch ((rows + 63) / 64) {
      case 1:
        sumTailAvx512<1>(live_cols.data(), live_weights.data(), n, k0,
                         rows, s, o);
        break;
      case 2:
        sumTailAvx512<2>(live_cols.data(), live_weights.data(), n, k0,
                         rows, s, o);
        break;
      case 3:
        sumTailAvx512<3>(live_cols.data(), live_weights.data(), n, k0,
                         rows, s, o);
        break;
      case 4:
        sumTailAvx512<4>(live_cols.data(), live_weights.data(), n, k0,
                         rows, s, o);
        break;
      default: break; // no tail rows
    }
}

constexpr Kernels kAvx512 = {dotWordsAvx512, dotBatchAvx512,
                             dotWordsFastAvx512, axpyWordsAvx512,
                             weightedSumAvx512};

#pragma GCC diagnostic pop

#endif // APOLLO_HAVE_AVX512_KERNELS

const bool kUseAvx512 = !kernelOverrideSet("APOLLO_NO_AVX512") &&
                        implAvailable(Impl::Avx512);

const Kernels &
bestKernels()
{
    return implKernels(kUseAvx512 ? Impl::Avx512 : Impl::Portable);
}

} // namespace

bool
implAvailable(Impl impl)
{
    if (impl == Impl::Portable)
        return true;
#ifdef APOLLO_HAVE_AVX512_KERNELS
    return __builtin_cpu_supports("avx512f") &&
           __builtin_cpu_supports("avx512bw") &&
           __builtin_cpu_supports("avx512dq") &&
           __builtin_cpu_supports("avx512vl");
#else
    return false;
#endif
}

const char *
implName(Impl impl)
{
    return impl == Impl::Avx512 ? "avx512" : "portable";
}

const Kernels &
implKernels(Impl impl)
{
    APOLLO_REQUIRE(implAvailable(impl), "bit kernel ", implName(impl),
                   " is not available on this host");
#ifdef APOLLO_HAVE_AVX512_KERNELS
    if (impl == Impl::Avx512)
        return kAvx512;
#endif
    return kPortable;
}

bool
avx512Enabled()
{
    return kUseAvx512;
}

const DotFn dotWords = bestKernels().dot;
const DotBatchFn dotWordsBatch = bestKernels().dotBatch;
const AxpyFn axpyWords = bestKernels().axpy;
const WeightedSumFn weightedSumWords = bestKernels().weightedSum;
const DotFn dotWordsFast = bestKernels().dotFast;

} // namespace apollo::bitkernels
