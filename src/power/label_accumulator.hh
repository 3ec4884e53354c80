/**
 * @file
 * LabelAccumulator: the one ground-truth power kernel (docs/INTERNALS.md
 * §2, §5). Dataset labels, GA fitness and the droop lab's truth power
 * all compute a row's power here, in the label order: one double adds
 * PowerOracle::signalContribution(j, frame) over the row's toggling
 * signals in ascending j, and power = finalize(sum * scale, key), with
 * scale the signal stride (1 for labels and truth power) and key the
 * row's index in its run. ref::datasetBuild and ref::fitnessCyclePowers
 * transcribe the same order one cycle at a time.
 *
 * The per-signal terms are hoisted with signalContribution's own
 * operations: a set bit adds base = halfV2 * cap, or for a glitch wire
 * halfV2 * (cap + k * act) with k = (glitchFactor * cap) * glitchDepth
 * and act the row's unit activity, read from per-row arrays.
 *
 * Portable adds each set bit's term to its row's sum. Avx512 keeps a
 * 64-row word's sums in eight registers of 8 doubles across a chunk of
 * kChunkColumns columns and adds each column's term vector under the
 * word's 8-row slices as merge masks, so a clear bit leaves its row's
 * sum untouched: both add the same values in the same order.
 * bestImpl() follows APOLLO_NO_AVX512 (util/kernel_env.hh).
 */

#ifndef APOLLO_POWER_LABEL_ACCUMULATOR_HH
#define APOLLO_POWER_LABEL_ACCUMULATOR_HH

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "power/power_oracle.hh"

namespace apollo {

/** Label-order power sums over packed toggle columns (file docs). */
class LabelAccumulator
{
  public:
    enum class Impl : int { Portable = 0, Avx512 = 1 };

    /** True when the CPU (and build) can run @p impl. */
    static bool implAvailable(Impl impl);

    /** "portable" or "avx512". */
    static const char *implName(Impl impl);

    /** Avx512 when available and APOLLO_NO_AVX512 is unset (cached). */
    static Impl bestImpl();

    /** Columns the AVX-512 kernel holds a word's sums across. */
    static constexpr size_t kChunkColumns = 32;

    /** Hoists every signal's terms; copies share them. */
    LabelAccumulator(const Netlist &netlist, const PowerOracle &oracle,
                     Impl impl = bestImpl());

    /** Start a pass over the rows of @p frames, every sum +0.0. */
    void begin(std::span<const ActivityFrame> frames);

    /**
     * Add signal ids[k]'s term to every row whose bit is set in its
     * packed column, which starts at cols + k * col_stride and holds
     * the pass's (rows + 63) / 64 words (bits past the last row are
     * ignored). Within a pass, ids ascend within and across calls.
     */
    void add(std::span<const uint32_t> ids, const uint64_t *cols,
             size_t col_stride);

    /** out[i] = finalize(sum_i * scale, first_key + i) for each row. */
    void finish(double scale, uint64_t first_key, double *out) const;

  private:
    /** One signal's terms; unit < 0 marks no glitch term. */
    struct Term
    {
        double base = 0.0;
        double cap = 0.0;
        double k = 0.0;
        int32_t unit = -1;
    };

    void addPortable(std::span<const uint32_t> ids, const uint64_t *cols,
                     size_t col_stride);
    void addAvx512(std::span<const uint32_t> ids, const uint64_t *cols,
                   size_t col_stride);

    const PowerOracle *oracle_;
    Impl impl_;
    std::shared_ptr<const std::vector<Term>> terms_;
    size_t rows_ = 0;
    /** Rows padded to whole words: the stride of act_. */
    size_t padded_ = 0;
    /** numUnits x padded_ unit activity. */
    std::vector<double> act_;
    std::vector<double> sums_;
};

} // namespace apollo

#endif // APOLLO_POWER_LABEL_ACCUMULATOR_HH
