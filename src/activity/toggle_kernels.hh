/**
 * @file
 * The fused toggle-bit kernels behind ToggleColumnGenerator. For each
 * 64-row word of a column a kernel hashes the rows' cycle stamps into
 * unit draws, computes the signal kind's threshold from the unit
 * activity and data it reads through a lookback table, compares, and
 * ORs the results into one register word: no draw goes to memory.
 *
 * One call fills the column for R >= 1 bindings: runs whose rows carry
 * the same cycle stamps and lookback rows but their own activity,
 * data, masks and output. The word's draws are computed once and stay
 * in registers while the kernel compares them against each binding's
 * threshold, so R runs pay for one set of hashes. The rule constants
 * are read once per call. The AVX-512 kernel fills one binding with
 * its own loop, which compares each 16-row group as soon as it is
 * drawn; the portable kernel is one loop, compiled with the binding
 * count fixed at 1 and with it read from the column.
 *
 * Two implementations share one contract and produce the same bits:
 *
 *  - Portable: one row at a time, through util/rng.hh's
 *    hashToUnitFloat(hashCombine(seed, cycle)) and ActivityEngine's
 *    inline threshold definitions.
 *  - Avx512 (AVX-512F/DQ): 16 rows per step, four __mmask16 compares
 *    per word. The draws are exact: integer hashing with the 64-bit
 *    lane multiply (vpmullq), a u32 -> float conversion of a value
 *    below 2^24, and a power-of-two scale. The thresholds use the
 *    same IEEE operations as the scalar definitions in the same
 *    order: one rounded mul, add or sub per source operator,
 *    std::clamp as max then min, and the definition's compare (an
 *    ordered-quiet `<`, or a negated `>=` for the bus event gate;
 *    the two differ only on NaN). That holds only because the library
 *    compiles with -ffp-contract=off, so no build fuses a multiply
 *    and an add (INTERNALS.md §5). A 16-row group reads its lookback
 *    rows with one vector load when every lane's source row is its
 *    predecessor's plus one, checked lane by lane, and with a gather
 *    otherwise.
 *
 * The row orientation (RowKernel) evaluates a bound list of Q signals
 * at one row per call, 16 signals per AVX-512 vector, for the closed
 * loop that needs one cycle's proxy bits as soon as the cycle is
 * simulated. Each lane carries its signal's draw seed and rule
 * constants, so a group's draws hash the row's one cycle stamp under
 * 16 seeds, and its activity and data are gathered from the frames at
 * each lane's lookback row. The lanes stay in signal order: every rule
 * a group holds is evaluated for the whole group and the pass masks
 * are blended by the lanes' kinds, so each group's 16 bits land in
 * place. The threshold and compare code is the column kernel's. The
 * portable row kernel runs the scalar definitions lane by lane with
 * the per-signal lookups done at bind time.
 *
 * There is no AVX2 version: the draw needs AVX-512DQ's 64-bit lane
 * multiply. Dispatch: bestImpl() is resolved once per process, and
 * APOLLO_NO_AVX512 (util/kernel_env.hh) forces Portable for both
 * orientations. implFill() and implRow() reach every available
 * implementation for the equivalence tests and the bench ablation.
 */

#ifndef APOLLO_ACTIVITY_TOGGLE_KERNELS_HH
#define APOLLO_ACTIVITY_TOGGLE_KERNELS_HH

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "rtl/signal.hh"
#include "uarch/activity_frame.hh"

namespace apollo {
class ActivityEngine;
} // namespace apollo

namespace apollo::togglekernels {

/** The ActivityEngine threshold a column's draws are compared with. */
enum class Rule : uint8_t
{
    /** act >= 0.999f || draw < gatedClockThreshold(act) */
    GatedClock,
    /**
     * !(draw >= busEventThreshold(eventSensitivity, act)): the
     * definition's gate, which a NaN threshold leaves open.
     */
    BusEvent,
    /** draw < busBitThreshold(data) */
    BusBit,
    /** draw < toggleProbability(*sig, act, data) (flip-flop, wire) */
    Toggle,
};

/**
 * One run's view of a column: the unit activity and data arrays its
 * source rows index, the mask ANDed into each output word (a zero
 * mask slice skips this binding's compares), and the output words.
 */
struct Binding
{
    const float *act = nullptr;
    const float *data = nullptr;
    const uint64_t *mask = nullptr;
    uint64_t *out = nullptr;
};

/**
 * One signal's column over R >= 1 bindings that share the draw seed,
 * the rule constants, the rows' cycle stamps and the lookback rows.
 * Every row array covers words * 64 rows, whole words, so no vector
 * lane reads outside an allocation: row i draws
 * hashToUnitFloat(hashCombine(seed, cycles[i])) and reads, in each
 * binding, act[src[i]] and data[src[i]]; every src entry indexes
 * inside every binding's act and data.
 */
struct Column
{
    Rule rule = Rule::Toggle;
    uint64_t seed = 0;
    /** Toggle's constants (baseRate and sensitivities). */
    const Signal *sig = nullptr;
    /** BusEvent's constant. */
    float eventSensitivity = 0.0f;
    const uint64_t *cycles = nullptr;
    const uint32_t *src = nullptr;
    size_t words = 0;
    const Binding *bindings = nullptr;
    size_t bindingCount = 0;
};

/**
 * For every binding b and w in [0, c.words): b.out[w] = b.mask[w] &
 * (bit k set iff row 64w+k passes its rule on b's inputs). Each row's
 * draw is computed once and compared against every binding's
 * threshold; a 16-row group is skipped only when every binding's mask
 * slice is zero.
 */
using FillFn = void (*)(const Column &c);

/** Implementations, in increasing ISA requirement order. */
enum class Impl : int { Portable = 0, Avx512 = 1 };
inline constexpr int kImplCount = 2;

/** True when the CPU (and build) can run @p impl. */
bool implAvailable(Impl impl);

/** Stable lowercase name ("portable", "avx512"). */
const char *implName(Impl impl);

/** Entry point of @p impl; requires implAvailable(impl). */
FillFn implFill(Impl impl);

/** Best available implementation after the override (cached). */
Impl bestImpl();

/** Signals per row-kernel group: one AVX-512 float vector. */
inline constexpr size_t kRowGroup = 16;

/**
 * Q signals bound for row evaluation, lane q holding signal q. Every
 * per-lane array covers lanes() = Q rounded up to a multiple of 16.
 * Padding lanes belong to no kind group, so they set no bit.
 */
struct RowLanes
{
    /** Q, the number of bound signals. */
    size_t count = 0;
    /** Largest lookback of any lane (gated clocks read row i). */
    size_t maxLatency = 0;
    /** Each lane's signal, for the portable kernel's definitions. */
    std::vector<const Signal *> sig;
    std::vector<SignalKind> kind;
    std::vector<uint32_t> unit;
    /** Lookback rows: the signal's latency, 0 for gated clocks. */
    std::vector<uint32_t> latency;
    /** signalDrawSeed, and busDrawSeed for BusBit lanes. */
    std::vector<uint64_t> seed;
    std::vector<uint64_t> busSeed;
    /** Toggle's constants, and BusBit's event sensitivity. */
    std::vector<float> baseRate;
    std::vector<float> actSens;
    std::vector<float> dataSens;
    std::vector<float> eventSens;
    /**
     * Per clamped lookback d in [0, maxLatency], lanes() byte offsets
     * of each lane's unit activity from frame i - d, the earliest row
     * any lane reads when min(i - segment_begin, maxLatency) == d
     * (data sits a fixed distance after activity).
     */
    std::vector<int32_t> offset;
    /** Per 16-lane group, the lanes of each kind (bit l: lane 16g+l). */
    std::vector<uint16_t> gated;
    std::vector<uint16_t> clockEnable;
    std::vector<uint16_t> busBit;
    std::vector<uint16_t> toggle;

    size_t lanes() const { return kind.size(); }
};

/**
 * out[w] for w < (s.count + 63) / 64: bit q set iff
 * ActivityEngine::toggles(signal of lane q, frames, i, segment_begin),
 * bits at or past s.count zero. Reads no row before segment_begin or
 * after i; requires segment_begin <= i.
 */
using RowFn = void (*)(const RowLanes &s, const ActivityFrame *frames,
                       size_t i, size_t segment_begin, uint64_t *out);

/** Row entry point of @p impl; requires implAvailable(impl). */
RowFn implRow(Impl impl);

/**
 * A list of signals bound once and evaluated at one row per call: the
 * production per-cycle toggle path (the closed loop's proxy bits).
 */
class RowKernel
{
  public:
    RowKernel(const ActivityEngine &engine,
              std::span<const uint32_t> sig_ids, Impl impl = bestImpl());

    size_t wordCount() const { return (lanes_.count + 63) / 64; }
    Impl impl() const { return impl_; }

    /**
     * Bit q of out[0, wordCount()) = toggles(sig_ids[q], frames, i,
     * segment_begin); bits at or past sig_ids.size() are zero. Requires
     * segment_begin <= i < frames.size().
     */
    void fill(std::span<const ActivityFrame> frames, size_t i,
              size_t segment_begin, uint64_t *out) const;

  private:
    RowLanes lanes_;
    Impl impl_;
    RowFn fn_;
};

} // namespace apollo::togglekernels

#endif // APOLLO_ACTIVITY_TOGGLE_KERNELS_HH
