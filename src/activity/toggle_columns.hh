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

/**
 * Column-at-a-time toggle-bit generation over a window of frames, for
 * one segmented run or for R runs at once.
 */
class ToggleColumnGenerator
{
  public:
    /** @p impl picks the fused kernel (tests and the bench ablation). */
    explicit ToggleColumnGenerator(
        const ActivityEngine &engine,
        togglekernels::Impl impl = togglekernels::bestImpl());

    /**
     * Bind rows [first, first+count) of @p frames, segmented by
     * @p segment_begin_of (checked by requireSegmentTable), as the one
     * run of the generator. Invalidates bus caches; @p frames must stay
     * valid until the next bind.
     */
    void bind(std::span<const ActivityFrame> frames,
              std::span<const uint32_t> segment_begin_of, size_t first,
              size_t count);

    /**
     * Bind rows [first, first+count) of each of @p runs, each one
     * segment that starts at its row 0. Every run's frame at a row
     * must carry the same cycle stamp (FatalError otherwise), so the
     * runs share every draw; rows past a run's end are masked off in
     * its columns. first + count must not exceed the longest run.
     */
    void bindRuns(std::span<const std::span<const ActivityFrame>> runs,
                  size_t first, size_t count);

    /** Words per column for the bound row count (tail bits zero). */
    size_t wordCount() const { return words_; }

    /** Runs of the last bind (1 after bind()). */
    size_t runCount() const { return runs_; }

    /**
     * Fill the packed toggle column of @p sig_id for the one bound
     * run: bit i of @p out is toggles(sig_id, frames, first+i,
     * begin_of[first+i]). @p out must hold wordCount() words. Honors
     * the packed zero-tail rule: bits at positions >= the bound row
     * count in the last word are zero (apollo::maskTailWords in
     * util/bitvec.hh states the rule; the streaming popcount kernels
     * rely on it).
     */
    void fillColumn(uint32_t sig_id, uint64_t *out);

    /**
     * Fill @p sig_id's column of every bound run in one kernel pass:
     * outs[r] (wordCount() words) receives run r's bits, zero past
     * the run's end.
     */
    void fillColumns(uint32_t sig_id, uint64_t *const *outs);

  private:
    void bindRows(std::span<const std::span<const ActivityFrame>> runs,
                  std::span<const uint32_t> segment_begin_of,
                  size_t first, size_t count);
    /**
     * Every run's binding of @p unit's arrays, with @p masks (run r's
     * at r * wordCount()) or else the unit's clock enable, and outs[r].
     */
    const togglekernels::Binding *unitBindings(size_t unit,
                                               const uint64_t *masks,
                                               uint64_t *const *outs);
    /** Kernel inputs at @p latency over runCount() bindings (rule
     *  unset). */
    togglekernels::Column column(size_t latency,
                                 const togglekernels::Binding *bindings)
        const;
    /** Run @p run's ClockEnable column of @p unit: word arithmetic. */
    void fillClockEnable(size_t unit, size_t run, uint64_t *out) const;
    /** One kernel call for a non-ClockEnable signal. */
    void fillSignal(uint32_t sig_id, const Signal &sig,
                    const togglekernels::Binding *bindings);
    /** Run r's bus event mask starts at r * wordCount(). */
    const uint64_t *busEventMasks(const Signal &sig);

    const ActivityEngine &engine_;
    const togglekernels::FillFn fill_;
    size_t maxLatency_ = 0;
    size_t runs_ = 0;
    size_t n_ = 0;
    size_t words_ = 0;
    /** Per-unit stride of actU_/dataU_: history + wordCount() * 64. */
    size_t unitRows_ = 0;
    /**
     * Per-(run, unit) clock-enable masks, runs x numUnits x
     * wordCount() (zero past a run's end).
     */
    std::vector<uint64_t> enabledMask_;
    /** Same for each row's predecessor (enabled at segment starts). */
    std::vector<uint64_t> prevEnabledMask_;
    /**
     * Column-major per-(run, unit) activity/data factors (padding and
     * rows past a run's end 0).
     */
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
     * (busId << 16 | unit << 8 | latency) -> every run's event-pass
     * mask, already ANDed with the unit's clock enable.
     */
    std::unordered_map<uint64_t, std::vector<uint64_t>> busMasks_;
    /** Kernel binding and output scratch of one fill. */
    std::vector<togglekernels::Binding> bindings_;
    std::vector<uint64_t *> busOuts_;
};

/**
 * Rows per block when @p rows rows are split among @p workers pool
 * workers: a multiple of 64, one block per worker for up to one
 * worker and about four per worker otherwise (for balance), capped at
 * 4096 so a block's bind scratch (~160 bytes per row and run) stays
 * bounded however long the rows are.
 */
size_t toggleBlockRows(size_t rows, size_t workers);

/**
 * Reset @p out to count x sig_ids.size() and fill column k with
 * sig_ids[k]'s toggle bits over rows [first, first+count). Workers of
 * the shared pool each bind a generator to toggleBlockRows() row
 * blocks and write whole words; the bits do not depend on the block
 * size or worker count.
 */
void fillToggleColumns(const ActivityEngine &engine,
                       std::span<const ActivityFrame> frames,
                       std::span<const uint32_t> segment_begin_of,
                       size_t first, size_t count,
                       std::span<const uint32_t> sig_ids,
                       BitColumnMatrix &out);

} // namespace apollo

#endif // APOLLO_ACTIVITY_TOGGLE_COLUMNS_HH
