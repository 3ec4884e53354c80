#include "activity/toggle_kernels.hh"

#include <algorithm>
#include <cstddef>

#include "activity/activity_engine.hh"
#include "util/kernel_env.hh"
#include "util/logging.hh"
#include "util/rng.hh"

#if defined(__x86_64__) && defined(__GNUC__)
#define APOLLO_HAVE_AVX512_TOGGLE 1
#include <immintrin.h>
#endif

namespace apollo::togglekernels {

namespace {

/** Row @p i of binding @p b passes rule R at @p draw: the scalar
 *  definition. */
template <Rule R>
inline bool
passes(const Column &c, const Binding &b, size_t i, float draw)
{
    const uint32_t s = c.src[i];
    if constexpr (R == Rule::GatedClock) {
        return b.act[s] >= 0.999f ||
               draw < ActivityEngine::gatedClockThreshold(b.act[s]);
    } else if constexpr (R == Rule::BusEvent) {
        return !(draw >= ActivityEngine::busEventThreshold(
                             c.eventSensitivity, b.act[s]));
    } else if constexpr (R == Rule::BusBit) {
        return draw < ActivityEngine::busBitThreshold(b.data[s]);
    } else {
        return draw < ActivityEngine::toggleProbability(*c.sig, b.act[s],
                                                        b.data[s]);
    }
}

/**
 * Per word: each row's draw is made once, then compared against every
 * binding whose mask slice is nonzero. With One (a single binding,
 * known at compile time) each draw is compared as it is made instead
 * of going through the word's draw array.
 */
template <Rule R, bool One>
void
fillPortableLoop(const Column &c)
{
    const Binding *const bind = c.bindings;
    const size_t nb = One ? 1 : c.bindingCount;
    float draws[64];
    for (size_t w = 0; w < c.words; ++w) {
        uint64_t any = 0;
        for (size_t k = 0; k < nb; ++k)
            any |= bind[k].mask[w];
        if (!One && any != 0)
            for (size_t r = 0; r < 64; ++r)
                draws[r] = hashToUnitFloat(
                    hashCombine(c.seed, c.cycles[w * 64 + r]));
        for (size_t k = 0; k < nb; ++k) {
            const uint64_t mask = bind[k].mask[w];
            uint64_t word = 0;
            if (mask != 0)
                for (size_t r = 0; r < 64; ++r) {
                    const size_t i = w * 64 + r;
                    const float draw =
                        One ? hashToUnitFloat(
                                  hashCombine(c.seed, c.cycles[i]))
                            : draws[r];
                    word |= static_cast<uint64_t>(
                                passes<R>(c, bind[k], i, draw))
                            << r;
                }
            bind[k].out[w] = word & mask;
        }
    }
}

/** The loop with the binding count fixed at 1 when it is 1. */
template <Rule R>
void
fillPortableRule(const Column &c)
{
    if (c.bindingCount == 1)
        fillPortableLoop<R, true>(c);
    else
        fillPortableLoop<R, false>(c);
}

void
fillPortable(const Column &c)
{
    switch (c.rule) {
      case Rule::GatedClock:
        return fillPortableRule<Rule::GatedClock>(c);
      case Rule::BusEvent:
        return fillPortableRule<Rule::BusEvent>(c);
      case Rule::BusBit:
        return fillPortableRule<Rule::BusBit>(c);
      case Rule::Toggle:
        return fillPortableRule<Rule::Toggle>(c);
    }
}

/** Lane q of @p s at row i: ActivityEngine::toggles with the signal's
 *  lookups done at bind time. */
inline bool
rowPassesPortable(const RowLanes &s, size_t q, const ActivityFrame *frames,
                  size_t i, size_t begin)
{
    const ActivityFrame &now = frames[i];
    const size_t u = s.unit[q];
    if (s.kind[q] == SignalKind::ClockEnable) // reset state was enabled
        return now.clockEnabled[u] !=
               (i == begin || frames[i - 1].clockEnabled[u]);
    if (!now.clockEnabled[u])
        return false;
    const ActivityFrame &src =
        frames[i - std::min<size_t>(s.latency[q], i - begin)];
    const float act = src.activity[u];
    const float draw = hashToUnitFloat(hashCombine(s.seed[q], now.cycle));
    switch (s.kind[q]) {
      case SignalKind::GatedClock:
        return act >= 0.999f ||
               draw < ActivityEngine::gatedClockThreshold(act);
      case SignalKind::BusBit:
        return !(hashToUnitFloat(hashCombine(s.busSeed[q], now.cycle)) >=
                 ActivityEngine::busEventThreshold(s.eventSens[q], act)) &&
               draw < ActivityEngine::busBitThreshold(src.dataToggle[u]);
      default:
        return draw < ActivityEngine::toggleProbability(
                          *s.sig[q], act, src.dataToggle[u]);
    }
}

void
rowPortable(const RowLanes &s, const ActivityFrame *frames, size_t i,
            size_t begin, uint64_t *out)
{
    std::fill(out, out + (s.count + 63) / 64, 0);
    for (size_t q = 0; q < s.count; ++q)
        out[q >> 6] |=
            static_cast<uint64_t>(rowPassesPortable(s, q, frames, i, begin))
            << (q & 63);
}

#ifdef APOLLO_HAVE_AVX512_TOGGLE

#pragma GCC push_options
#pragma GCC target("avx512f,avx512dq")

// GCC vector types: their plain operators compile to one AVX-512
// instruction per lane-wise operation (`*` on U64x8 is vpmullq), so
// the kernels below spell the scalar definitions' expressions
// verbatim. __m512 is itself such a float vector.
typedef uint64_t U64x8 __attribute__((vector_size(64)));
typedef int32_t I32x16 __attribute__((vector_size(64)));

inline U64x8
load8(const uint64_t *p)
{
    return reinterpret_cast<U64x8>(_mm512_loadu_si512(p));
}

/**
 * Top 24 bits of hashCombine(seed, cycle) for 8 lanes: 8 cycle stamps
 * under one seed (columns), or one stamp under 8 seeds (rows).
 */
template <typename Cycle, typename Seed>
inline U64x8
hashTop24(Cycle c, Seed seed)
{
    // hashCombine(seed, c) = hashMix(seed ^ (c + K)), K from the seed.
    U64x8 x = seed ^ (c + (0x9e3779b97f4a7c15ULL + (seed << 6) +
                           (seed >> 2)));
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdULL;
    x ^= x >> 33;
    x *= 0xc4ceb9fe1a85ec53ULL;
    // hashMix's last round, x ^= x >> 33, keeps bits 31..63 as they
    // are, so the top 24 bits are already final.
    return x >> 40;
}

/** hashToUnitFloat of 16 hashes, given their top 24 bits as two
 *  8-lane halves. */
inline __m512
unitFloats16(U64x8 lo, U64x8 hi)
{
    // The low dwords of the 16 lanes in order. Values below 2^24
    // convert exactly, and the scale is a power of two.
    const __m512i top = _mm512_permutex2var_epi32(
        reinterpret_cast<__m512i>(lo),
        _mm512_setr_epi32(0, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22, 24,
                          26, 28, 30),
        reinterpret_cast<__m512i>(hi));
    return __builtin_convertvector(reinterpret_cast<I32x16>(top),
                                   __m512) *
           (1.0f / 16777216.0f);
}

/** hashToUnitFloat(hashCombine(seed, cycles[l])) for 16 rows. */
inline __m512
draws16(const uint64_t *cycles, uint64_t seed)
{
    return unitFloats16(hashTop24(load8(cycles), seed),
                        hashTop24(load8(cycles + 8), seed));
}

/** hashToUnitFloat(hashCombine(seeds[l], cycle)) for 16 lanes. */
inline __m512
rowDraws16(uint64_t cycle, const uint64_t *seeds)
{
    return unitFloats16(hashTop24(cycle, load8(seeds)),
                        hashTop24(cycle, load8(seeds + 8)));
}

/** A 16-row group's source rows. */
struct Rows16
{
    __m512i idx;
    uint32_t first;
    /** Every lane's row is its predecessor's plus one. */
    bool consecutive;
};

inline Rows16
rows16(const uint32_t *src)
{
    const __m512i idx = _mm512_loadu_si512(src);
    // Lane by lane: a group that crosses a segment start after a long
    // segment steps +(1+latency), 0, 0 and still spans 15 rows, so
    // its two ends alone look consecutive.
    const __m512i want = _mm512_add_epi32(
        _mm512_set1_epi32(static_cast<int>(src[0])),
        _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13,
                          14, 15));
    return {idx, src[0], _mm512_cmpeq_epi32_mask(idx, want) == 0xffff};
}

inline __m512
load16(const float *base, const Rows16 &r)
{
    return r.consecutive ? _mm512_loadu_ps(base + r.first)
                         : _mm512_mask_i32gather_ps(_mm512_setzero_ps(),
                                                    0xffff, r.idx, base,
                                                    4);
}

/**
 * std::clamp(p, 0.0f, 0.95f) as its two selects, max then min:
 * x = p < 0 ? 0 : p, then 0.95 < x ? 0.95 : x (NaN and -0.0 pass
 * through as they do in std::clamp).
 */
inline __m512
clamp095(__m512 p)
{
    const __m512 lo = _mm512_setzero_ps();
    const __m512 hi = _mm512_set1_ps(0.95f);
    const __m512 x =
        _mm512_mask_blend_ps(_mm512_cmp_ps_mask(p, lo, _CMP_LT_OQ), p, lo);
    return _mm512_mask_blend_ps(_mm512_cmp_ps_mask(hi, x, _CMP_LT_OQ), x,
                                hi);
}

/** `draw < thr` lane-wise, ordered and quiet like the scalar `<`. */
inline __mmask16
less16(__m512 draw, __m512 thr)
{
    return _mm512_cmp_ps_mask(draw, thr, _CMP_LT_OQ);
}

/**
 * Rule R's constants: broadcast once per column, or one per lane in
 * the row kernel. Toggle's base rate and sensitivities, or BusEvent's
 * event sensitivity.
 */
struct Consts16
{
    __m512 base;
    __m512 actSens;
    __m512 dataSens;
    __m512 eventSens;
};

template <Rule R>
inline Consts16
consts16(const Column &c)
{
    Consts16 k{};
    if constexpr (R == Rule::Toggle) {
        k.base = _mm512_set1_ps(c.sig->baseRate);
        k.actSens = _mm512_set1_ps(c.sig->actSensitivity);
        k.dataSens = _mm512_set1_ps(c.sig->dataSensitivity);
    } else if constexpr (R == Rule::BusEvent) {
        k.eventSens = _mm512_set1_ps(c.eventSensitivity);
    }
    return k;
}

/**
 * The pass mask of 16 lanes under rule R at their activity and data:
 * ActivityEngine's threshold expressions, operator for operator.
 */
template <Rule R>
inline __mmask16
passes16(const Consts16 &k, __m512 act, __m512 data, __m512 draw)
{
    if constexpr (R == Rule::GatedClock) {
        return _mm512_cmp_ps_mask(act, _mm512_set1_ps(0.999f),
                                  _CMP_GE_OQ) |
               less16(draw, 0.18f + 0.82f * act);
    } else if constexpr (R == Rule::BusEvent) {
        // !(draw >= thr): true on an unordered (NaN) threshold.
        return _mm512_cmp_ps_mask(draw, clamp095(k.eventSens * act),
                                  _CMP_NGE_UQ);
    } else if constexpr (R == Rule::BusBit) {
        return less16(draw, 0.35f + 0.65f * data);
    } else {
        return less16(draw,
                      clamp095(k.base + k.actSens * act *
                                            (1.0f - k.dataSens *
                                                        (1.0f - data))));
    }
}

/** passes16 on one binding's 16-row group, loading what R reads. */
template <Rule R>
inline __mmask16
passes16(const Consts16 &k, const Binding &b, const Rows16 &r,
         __m512 draw)
{
    const __m512 act = R != Rule::BusBit ? load16(b.act, r)
                                         : _mm512_setzero_ps();
    const __m512 data = R == Rule::BusBit || R == Rule::Toggle
                            ? load16(b.data, r)
                            : _mm512_setzero_ps();
    return passes16<R>(k, act, data, draw);
}

/**
 * One binding (one-run fills): each 16-row group is compared as soon
 * as it is drawn. At R = 1 the multi-binding loop below measured
 * slower in the row-blocked one-run driver (INTERNALS.md §2).
 */
template <Rule R>
void
fillAvx512One(const Column &c)
{
    const Consts16 k = consts16<R>(c);
    const Binding &b = c.bindings[0];
    for (size_t w = 0; w < c.words; ++w) {
        const uint64_t mask = b.mask[w];
        uint64_t word = 0;
        for (unsigned g = 0; g < 64; g += 16) {
            if (((mask >> g) & 0xffff) == 0)
                continue;
            const size_t i = w * 64 + g;
            word |= static_cast<uint64_t>(
                        passes16<R>(k, b, rows16(c.src + i),
                                    draws16(c.cycles + i, c.seed)))
                    << g;
        }
        b.out[w] = word & mask;
    }
}

/**
 * R >= 2 bindings, per word: the draws and source rows of each 16-row
 * group some binding reads are computed once, then compared against
 * each binding in turn.
 */
template <Rule R>
void
fillAvx512Many(const Column &c)
{
    const Consts16 k = consts16<R>(c);
    const Binding *const bind = c.bindings;
    const size_t nb = c.bindingCount;
    for (size_t w = 0; w < c.words; ++w) {
        uint64_t any = 0;
        for (size_t b = 0; b < nb; ++b)
            any |= bind[b].mask[w];
        // The word's draws and source rows, shared by every binding
        // (a group no binding reads stays zero).
        __m512 draw[4] = {};
        Rows16 rows[4] = {};
#pragma GCC unroll 4
        for (unsigned g = 0; g < 4; ++g) {
            if (((any >> (16 * g)) & 0xffff) == 0)
                continue;
            const size_t i = w * 64 + 16 * g;
            draw[g] = draws16(c.cycles + i, c.seed);
            rows[g] = rows16(c.src + i);
        }
        for (size_t b = 0; b < nb; ++b) {
            const uint64_t mask = bind[b].mask[w];
            uint64_t word = 0;
#pragma GCC unroll 4
            for (unsigned g = 0; g < 4; ++g)
                if (((mask >> (16 * g)) & 0xffff) != 0)
                    word |= static_cast<uint64_t>(passes16<R>(
                                k, bind[b], rows[g], draw[g]))
                            << (16 * g);
            bind[b].out[w] = word & mask;
        }
    }
}

template <Rule R>
void
fillAvx512Rule(const Column &c)
{
    if (c.bindingCount == 1)
        fillAvx512One<R>(c);
    else
        fillAvx512Many<R>(c);
}

void
fillAvx512(const Column &c)
{
    switch (c.rule) {
      case Rule::GatedClock:
        return fillAvx512Rule<Rule::GatedClock>(c);
      case Rule::BusEvent:
        return fillAvx512Rule<Rule::BusEvent>(c);
      case Rule::BusBit:
        return fillAvx512Rule<Rule::BusBit>(c);
      case Rule::Toggle:
        return fillAvx512Rule<Rule::Toggle>(c);
    }
}

/** The floats at byte offsets @p off from @p base. */
inline __m512
gather16(__m512i off, const char *base)
{
    return _mm512_mask_i32gather_ps(_mm512_setzero_ps(), 0xffff, off, base,
                                    1);
}

/** Bit u set iff unit u's clock is enabled in @p f. */
inline uint32_t
enabledBits(const ActivityFrame &f)
{
    uint32_t bits = 0;
    for (size_t u = 0; u < numUnits; ++u)
        bits |= static_cast<uint32_t>(f.clockEnabled[u]) << u;
    return bits;
}

/**
 * Every rule the 16-lane group g holds, evaluated for the whole group
 * and blended by the lanes' kinds. @p act and @p data point at frame
 * i - d's activity and data; @p offset holds the lanes' byte offsets
 * from them at that d.
 */
inline __mmask16
rowGroup16(const RowLanes &s, size_t g, uint64_t cycle,
           const char *act_base, const char *data_base,
           const int32_t *offset, __m512i en_bits, __m512i prev_bits)
{
    const size_t l = g * kRowGroup;
    const __m512i unit_bit = reinterpret_cast<__m512i>(
        1 << reinterpret_cast<I32x16>(
            _mm512_loadu_si512(s.unit.data() + l)));
    const __mmask16 en = _mm512_test_epi32_mask(unit_bit, en_bits);
    const __m512i off = _mm512_loadu_si512(offset + l);
    const __m512 act = gather16(off, act_base);
    const __m512 draw = rowDraws16(cycle, s.seed.data() + l);
    const __mmask16 gated = s.gated[g];
    const __mmask16 bus = s.busBit[g];
    const __mmask16 toggle = s.toggle[g];

    Consts16 k{};
    __mmask16 pass = 0;
    if (gated)
        pass |= gated & passes16<Rule::GatedClock>(k, act, act, draw);
    if (bus | toggle) {
        const __m512 data = gather16(off, data_base);
        if (toggle) {
            k.base = _mm512_loadu_ps(s.baseRate.data() + l);
            k.actSens = _mm512_loadu_ps(s.actSens.data() + l);
            k.dataSens = _mm512_loadu_ps(s.dataSens.data() + l);
            pass |= toggle & passes16<Rule::Toggle>(k, act, data, draw);
        }
        if (bus) {
            k.eventSens = _mm512_loadu_ps(s.eventSens.data() + l);
            pass |= bus &
                    passes16<Rule::BusEvent>(
                        k, act, data,
                        rowDraws16(cycle, s.busSeed.data() + l)) &
                    passes16<Rule::BusBit>(k, act, data, draw);
        }
    }
    pass &= en;
    if (const __mmask16 ce = s.clockEnable[g])
        pass |= ce & (en ^ _mm512_test_epi32_mask(unit_bit, prev_bits));
    return pass;
}

void
rowAvx512(const RowLanes &s, const ActivityFrame *frames, size_t i,
          size_t begin, uint64_t *out)
{
    // Offsets count from the earliest row a lane can read, so they stay
    // small however long the run is.
    const size_t d = std::min(i - begin, s.maxLatency);
    const char *act_base = reinterpret_cast<const char *>(frames + i - d);
    const char *data_base = act_base + offsetof(ActivityFrame, dataToggle) -
                            offsetof(ActivityFrame, activity);
    const int32_t *offset = s.offset.data() + d * s.lanes();
    const ActivityFrame &now = frames[i];
    const __m512i en_bits =
        _mm512_set1_epi32(static_cast<int>(enabledBits(now)));
    // Before a segment's first row the unit state is enabled.
    const __m512i prev_bits = _mm512_set1_epi32(
        i == begin ? -1 : static_cast<int>(enabledBits(frames[i - 1])));
    const size_t groups = s.lanes() / kRowGroup;
    for (size_t w = 0; w * 4 < groups; ++w) {
        uint64_t word = 0;
        for (size_t g = 4 * w; g < std::min(groups, 4 * w + 4); ++g)
            word |= static_cast<uint64_t>(
                        rowGroup16(s, g, now.cycle, act_base, data_base,
                                   offset, en_bits, prev_bits))
                    << (16 * (g - 4 * w));
        out[w] = word;
    }
}

#pragma GCC pop_options

#endif // APOLLO_HAVE_AVX512_TOGGLE

} // namespace

bool
implAvailable(Impl impl)
{
    if (impl == Impl::Portable)
        return true;
#ifdef APOLLO_HAVE_AVX512_TOGGLE
    return __builtin_cpu_supports("avx512f") &&
           __builtin_cpu_supports("avx512dq");
#else
    return false;
#endif
}

const char *
implName(Impl impl)
{
    return impl == Impl::Avx512 ? "avx512" : "portable";
}

FillFn
implFill(Impl impl)
{
    APOLLO_REQUIRE(implAvailable(impl), "toggle kernel ", implName(impl),
                   " is not available on this host");
#ifdef APOLLO_HAVE_AVX512_TOGGLE
    if (impl == Impl::Avx512)
        return fillAvx512;
#endif
    return fillPortable;
}

RowFn
implRow(Impl impl)
{
    APOLLO_REQUIRE(implAvailable(impl), "toggle kernel ", implName(impl),
                   " is not available on this host");
#ifdef APOLLO_HAVE_AVX512_TOGGLE
    if (impl == Impl::Avx512)
        return rowAvx512;
#endif
    return rowPortable;
}

Impl
bestImpl()
{
    static const Impl best = !kernelOverrideSet("APOLLO_NO_AVX512") &&
                                     implAvailable(Impl::Avx512)
                                 ? Impl::Avx512
                                 : Impl::Portable;
    return best;
}

RowKernel::RowKernel(const ActivityEngine &engine,
                     std::span<const uint32_t> sig_ids, Impl impl)
    : impl_(impl), fn_(implRow(impl))
{
    RowLanes &s = lanes_;
    s.count = sig_ids.size();
    const size_t lanes = (s.count + kRowGroup - 1) / kRowGroup * kRowGroup;
    // Padding lanes read unit 0 of row i and belong to no kind group.
    s.sig.assign(lanes, nullptr);
    s.kind.assign(lanes, SignalKind::FlipFlop);
    s.unit.assign(lanes, 0);
    s.latency.assign(lanes, 0);
    s.seed.assign(lanes, 0);
    s.busSeed.assign(lanes, 0);
    s.baseRate.assign(lanes, 0.0f);
    s.actSens.assign(lanes, 0.0f);
    s.dataSens.assign(lanes, 0.0f);
    s.eventSens.assign(lanes, 0.0f);
    s.gated.assign(lanes / kRowGroup, 0);
    s.clockEnable.assign(lanes / kRowGroup, 0);
    s.busBit.assign(lanes / kRowGroup, 0);
    s.toggle.assign(lanes / kRowGroup, 0);

    const Netlist &netlist = engine.netlist();
    for (size_t q = 0; q < s.count; ++q) {
        const Signal &sig = netlist.signal(sig_ids[q]);
        s.sig[q] = &sig;
        s.kind[q] = sig.kind;
        s.unit[q] = static_cast<uint32_t>(sig.unit);
        s.seed[q] = engine.signalDrawSeed(sig_ids[q]);
        s.baseRate[q] = sig.baseRate;
        s.actSens[q] = sig.actSensitivity;
        s.dataSens[q] = sig.dataSensitivity;
        const uint16_t bit = static_cast<uint16_t>(1u << (q % kRowGroup));
        const size_t g = q / kRowGroup;
        switch (sig.kind) {
          case SignalKind::GatedClock: s.gated[g] |= bit; break;
          case SignalKind::ClockEnable: s.clockEnable[g] |= bit; break;
          case SignalKind::BusBit:
            s.busBit[g] |= bit;
            s.latency[q] = sig.latency;
            s.busSeed[q] = engine.busDrawSeed(sig.busId);
            s.eventSens[q] =
                netlist.bus(static_cast<size_t>(sig.busId))
                    .eventSensitivity;
            break;
          default:
            s.toggle[g] |= bit;
            s.latency[q] = sig.latency;
        }
        s.maxLatency = std::max<size_t>(s.maxLatency, s.latency[q]);
    }

    s.offset.resize((s.maxLatency + 1) * lanes);
    for (size_t d = 0; d <= s.maxLatency; ++d)
        for (size_t q = 0; q < lanes; ++q)
            s.offset[d * lanes + q] = static_cast<int32_t>(
                (d - std::min<size_t>(s.latency[q], d)) *
                    sizeof(ActivityFrame) +
                offsetof(ActivityFrame, activity) +
                s.unit[q] * sizeof(float));
}

void
RowKernel::fill(std::span<const ActivityFrame> frames, size_t i,
                size_t segment_begin, uint64_t *out) const
{
    APOLLO_ASSERT(segment_begin <= i && i < frames.size(), "row ", i,
                  " of ", frames.size(), " frames, segment from ",
                  segment_begin);
    fn_(lanes_, frames.data(), i, segment_begin, out);
}

} // namespace apollo::togglekernels
