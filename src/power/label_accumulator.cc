#include "power/label_accumulator.hh"

#include <algorithm>
#include <bit>

#include "util/kernel_env.hh"
#include "util/logging.hh"

#if defined(__x86_64__) && defined(__GNUC__)
#define APOLLO_HAVE_AVX512_LABEL 1
#include <immintrin.h>
#endif

namespace apollo {

bool
LabelAccumulator::implAvailable(Impl impl)
{
#ifdef APOLLO_HAVE_AVX512_LABEL
    if (impl == Impl::Avx512)
        return __builtin_cpu_supports("avx512f");
#endif
    return impl == Impl::Portable;
}

const char *
LabelAccumulator::implName(Impl impl)
{
    return impl == Impl::Avx512 ? "avx512" : "portable";
}

LabelAccumulator::Impl
LabelAccumulator::bestImpl()
{
    static const Impl best = !kernelOverrideSet("APOLLO_NO_AVX512") &&
                                     implAvailable(Impl::Avx512)
                                 ? Impl::Avx512
                                 : Impl::Portable;
    return best;
}

LabelAccumulator::LabelAccumulator(const Netlist &netlist,
                                   const PowerOracle &oracle, Impl impl)
    : oracle_(&oracle), impl_(impl)
{
    APOLLO_REQUIRE(implAvailable(impl), "label kernel ", implName(impl),
                   " is not available on this host");
    const double half_v2 = oracle.halfVddSquared();
    auto terms = std::make_shared<std::vector<Term>>(netlist.signalCount());
    for (size_t j = 0; j < terms->size(); ++j) {
        const Signal &sig = netlist.signal(j);
        Term &t = (*terms)[j];
        t.cap = sig.cap;
        t.base = half_v2 * t.cap;
        if (sig.kind == SignalKind::CombWire && sig.glitchDepth > 0) {
            t.k = oracle.params().glitchFactor * t.cap * sig.glitchDepth;
            t.unit = static_cast<int32_t>(sig.unit);
        }
    }
    terms_ = std::move(terms);
}

void
LabelAccumulator::begin(std::span<const ActivityFrame> frames)
{
    rows_ = frames.size();
    padded_ = (rows_ + 63) / 64 * 64;
    sums_.assign(padded_, 0.0);
    act_.assign(numUnits * padded_, 0.0);
    for (size_t i = 0; i < rows_; ++i)
        for (size_t u = 0; u < numUnits; ++u)
            act_[u * padded_ + i] = frames[i].activity[u];
}

void
LabelAccumulator::add(std::span<const uint32_t> ids, const uint64_t *cols,
                      size_t col_stride)
{
#ifdef APOLLO_HAVE_AVX512_LABEL
    if (impl_ == Impl::Avx512)
        return addAvx512(ids, cols, col_stride);
#endif
    addPortable(ids, cols, col_stride);
}

void
LabelAccumulator::finish(double scale, uint64_t first_key,
                         double *out) const
{
    for (size_t i = 0; i < rows_; ++i)
        out[i] = oracle_->finalize(sums_[i] * scale, first_key + i);
}

void
LabelAccumulator::addPortable(std::span<const uint32_t> ids,
                              const uint64_t *cols, size_t col_stride)
{
    const double half_v2 = oracle_->halfVddSquared();
    for (size_t k = 0; k < ids.size(); ++k) {
        const Term &t = (*terms_)[ids[k]];
        const double *act = act_.data() + std::max(t.unit, 0) * padded_;
        for (size_t w = 0; w < padded_ / 64; ++w) {
            for (uint64_t bits = cols[k * col_stride + w]; bits;
                 bits &= bits - 1) {
                const size_t i = 64 * w + std::countr_zero(bits);
                sums_[i] += t.unit < 0 ? t.base
                                       : half_v2 * (t.cap + t.k * act[i]);
            }
        }
    }
}

#ifdef APOLLO_HAVE_AVX512_LABEL

#pragma GCC push_options
#pragma GCC target("avx512f")

void
LabelAccumulator::addAvx512(std::span<const uint32_t> ids,
                            const uint64_t *cols, size_t col_stride)
{
    const __m512d half_v2 = _mm512_set1_pd(oracle_->halfVddSquared());
    // Lane l of row group g tests bit 8g + l of a column word.
    alignas(64) uint64_t bit[64];
    for (int b = 0; b < 64; ++b)
        bit[b] = uint64_t{1} << b;
    __m512i row_bit[8];
    for (int g = 0; g < 8; ++g)
        row_bit[g] = _mm512_load_si512(bit + 8 * g);
    const Term *chunk[kChunkColumns];
    for (size_t c0 = 0; c0 < ids.size(); c0 += kChunkColumns) {
        const size_t n = std::min(kChunkColumns, ids.size() - c0);
        for (size_t k = 0; k < n; ++k)
            chunk[k] = &(*terms_)[ids[c0 + k]];
        for (size_t w = 0; w < padded_ / 64; ++w) {
            double *s = sums_.data() + 64 * w;
            __m512d acc[8];
#pragma GCC unroll 8
            for (int g = 0; g < 8; ++g)
                acc[g] = _mm512_loadu_pd(s + 8 * g);
            for (size_t k = 0; k < n; ++k) {
                const uint64_t bits = cols[(c0 + k) * col_stride + w];
                if (bits == 0)
                    continue;
                const __m512i word =
                    _mm512_set1_epi64(static_cast<long long>(bits));
                const Term &t = *chunk[k];
                if (t.unit < 0) {
                    const __m512d v = _mm512_set1_pd(t.base);
#pragma GCC unroll 8
                    for (int g = 0; g < 8; ++g)
                        acc[g] = _mm512_mask_add_pd(
                            acc[g], _mm512_test_epi64_mask(word, row_bit[g]),
                            acc[g], v);
                    continue;
                }
                const double *act = act_.data() + t.unit * padded_ + 64 * w;
                const __m512d cap = _mm512_set1_pd(t.cap);
                const __m512d k_v = _mm512_set1_pd(t.k);
#pragma GCC unroll 8
                for (int g = 0; g < 8; ++g) {
                    const __m512d v = _mm512_mul_pd(
                        half_v2,
                        _mm512_add_pd(cap,
                                      _mm512_mul_pd(
                                          k_v, _mm512_loadu_pd(act + 8 * g))));
                    acc[g] = _mm512_mask_add_pd(
                        acc[g], _mm512_test_epi64_mask(word, row_bit[g]),
                        acc[g], v);
                }
            }
#pragma GCC unroll 8
            for (int g = 0; g < 8; ++g)
                _mm512_storeu_pd(s + 8 * g, acc[g]);
        }
    }
}

#pragma GCC pop_options

#endif // APOLLO_HAVE_AVX512_LABEL

} // namespace apollo
