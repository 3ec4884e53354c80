/**
 * @file
 * ToggleColumnGenerator: batched column-major toggle-bit generation,
 * the one production multi-cycle toggle path (bit-identical to
 * per-cycle ActivityEngine::toggles calls, which stay the definition).
 *
 * Per-cycle toggle evaluation reloads every signal's static fields,
 * re-derives its draw seed, and re-branches on its kind for every
 * (signal, cycle) pair. Generating a whole column at once hoists all
 * of that out of the cycle loop and leaves only the per-cycle hash
 * draw, threshold and compare, which one fused kernel per signal kind
 * (activity/toggle_kernels.hh) evaluates 16 rows at a time into
 * register words. Additional batched structure:
 *  - segment starts and pre-window history are resolved once per
 *    bind(): per-latency lookback row tables, and per-unit masks of
 *    the clock enable and of its predecessor state;
 *  - every per-row array is padded to whole 64-row words, so the
 *    kernels' vector lanes never read outside an allocation;
 *  - ClockEnable columns are pure word arithmetic with no hashing;
 *  - per-bus event-pass masks are computed once per (bus, unit,
 *    latency) and shared by all bits of the bus.
 */

#ifndef APOLLO_ACTIVITY_TOGGLE_COLUMNS_HH
#define APOLLO_ACTIVITY_TOGGLE_COLUMNS_HH

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "activity/activity_engine.hh"
#include "activity/toggle_kernels.hh"
#include "util/bitvec.hh"

namespace apollo {

/**
 * FatalError unless rows [first, first+count) lie within @p frame_count
 * frames and, over them, @p segment_begin_of is empty (one segment) or
 * has frame_count entries with begin_of[r] == r (a segment starts) or
 * begin_of[r] == begin_of[r-1] < r.
 */
void requireSegmentTable(std::span<const uint32_t> segment_begin_of,
                         size_t frame_count, size_t first, size_t count);

/** Column-at-a-time toggle-bit generation over a window of frames. */
class ToggleColumnGenerator
{
  public:
    /** @p impl picks the fused kernel (tests and the bench ablation). */
    explicit ToggleColumnGenerator(
        const ActivityEngine &engine,
        togglekernels::Impl impl = togglekernels::bestImpl());

    /**
     * Bind rows [first, first+count) of @p frames, segmented by
     * @p segment_begin_of (checked by requireSegmentTable). Invalidates
     * bus caches; @p frames must stay valid until the next bind().
     */
    void bind(std::span<const ActivityFrame> frames,
              std::span<const uint32_t> segment_begin_of, size_t first,
              size_t count);

    /** Words per column for the bound row count (tail bits zero). */
    size_t wordCount() const { return words_; }

    /**
     * Fill the packed toggle column of @p sig_id: bit i of @p out is
     * toggles(sig_id, frames, first+i, begin_of[first+i]). @p out must
     * hold wordCount() words. Honors the packed zero-tail rule: bits at
     * positions >= the bound row count in the last word are zero
     * (apollo::maskTailWords in util/bitvec.hh states the rule; the
     * streaming popcount kernels rely on it).
     */
    void fillColumn(uint32_t sig_id, uint64_t *out);

  private:
    /** Kernel inputs of @p sig's unit at @p latency (rule unset). */
    togglekernels::Column unitColumn(const Signal &sig,
                                     size_t latency) const;
    const uint64_t *busEventMask(const Signal &sig);

    const ActivityEngine &engine_;
    const togglekernels::FillFn fill_;
    size_t maxLatency_ = 0;
    size_t n_ = 0;
    size_t words_ = 0;
    /** Per-unit stride of actU_/dataU_: history + wordCount() * 64. */
    size_t unitRows_ = 0;
    /** Per-unit clock-enable masks, numUnits x wordCount(). */
    std::vector<uint64_t> enabledMask_;
    /** Same for each row's predecessor (enabled at segment starts). */
    std::vector<uint64_t> prevEnabledMask_;
    /** Column-major per-unit activity/data factors (padding rows 0). */
    std::vector<float> actU_;
    std::vector<float> dataU_;
    /**
     * Per latency, each padded row's unit-array source row; padding
     * rows continue the last row's step of one.
     */
    std::vector<uint32_t> lookback_;
    /** Each padded row's cycle stamp (padding rows 0). */
    std::vector<uint64_t> cycles_;
    /**
     * (busId << 16 | unit << 8 | latency) -> event-pass mask, already
     * ANDed with the unit's clock enable.
     */
    std::unordered_map<uint64_t, std::vector<uint64_t>> busMasks_;
};

/**
 * Reset @p out to count x sig_ids.size() and fill column k with
 * sig_ids[k]'s toggle bits over rows [first, first+count). Workers of
 * the shared pool each bind a generator to 64-aligned row blocks
 * (sized from the row count and pool size, capped) and write whole
 * words; the bits do not depend on the block size or worker count.
 */
void fillToggleColumns(const ActivityEngine &engine,
                       std::span<const ActivityFrame> frames,
                       std::span<const uint32_t> segment_begin_of,
                       size_t first, size_t count,
                       std::span<const uint32_t> sig_ids,
                       BitColumnMatrix &out);

} // namespace apollo

#endif // APOLLO_ACTIVITY_TOGGLE_COLUMNS_HH
