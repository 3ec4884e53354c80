/**
 * @file
 * OracleAccumulator: vectorized per-cycle ground-truth power
 * accumulation over packed toggle columns — the power half of the GA
 * fitness kernel (gen/fitness_eval.hh).
 *
 * The oracle's per-toggle contribution decomposes per signal j into a
 * static part and an activity-scaled glitch part:
 *
 *   contribution(j, i) = base[j] + glitch[j] * act(unit_j, i)
 *   base[j]   = 1/2 V^2 * cap_j                      (all signals)
 *   glitch[j] = 1/2 V^2 * glitchFactor * cap_j * glitchDepth_j
 *               (CombWire with glitchDepth > 0, else 0)
 *
 * so a cycle's contribution sum is one weighted bit-column accumulation
 * per signal (util/bitvec_kernels axpy: one float add per set bit) into
 * a base accumulator plus per-unit glitch accumulators, combined per
 * cycle in double with the unit activity factors.
 *
 * Defined accumulation order (docs/INTERNALS.md §9): float adds in
 * ascending-signal order for the base and per-unit glitch accumulators
 * (addColumn must be called in ascending sig_id order), then the double
 * combine base + sum over ascending units of act * glitch, then
 * PowerOracle::finalize with the row's index in its own run. Every
 * operation is per row, so one pass may hold R runs over a row window
 * (a batch's tile) and give each row what a whole-run pass gives it.
 * The axpy kernel contract (exactly one float add per set bit on every
 * dispatch path) makes the result bit-exact against a per-cycle
 * transcription of the same order, ref::fitnessCyclePowers — the only
 * other implementation, kept in src/ref as the differential oracle.
 */

#ifndef APOLLO_POWER_ORACLE_ACCUMULATOR_HH
#define APOLLO_POWER_ORACLE_ACCUMULATOR_HH

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "power/power_oracle.hh"

namespace apollo {

/**
 * Weighted toggle-column power accumulation (see file docs) for R >= 1
 * runs over the same row window at once.
 */
class OracleAccumulator
{
  public:
    /** Computes the per-signal weights; copies share them. */
    OracleAccumulator(const Netlist &netlist, const PowerOracle &oracle);

    /**
     * Start a pass over @p runs runs of @p n_cycles rows each (resets
     * the accumulators).
     */
    void begin(size_t runs, size_t n_cycles);

    /**
     * Accumulate the packed toggle column of @p sig_id for run @p run
     * ((n_cycles + 63) / 64 words, tail bits zero). Columns must be
     * added in ascending sig_id order; every run gets the same
     * signals.
     */
    void addColumn(uint32_t sig_id, size_t run, const uint64_t *words);

    /**
     * Combine and finalize run @p run's first frames.size() rows:
     * out[i] = finalize(sum_i * scale, first_row + i), where frames[i]
     * is the frame of the run's row first_row + i and scale is the
     * signal-sampling stride compensation.
     */
    void finish(size_t run, std::span<const ActivityFrame> frames,
                size_t first_row, double scale, double *out) const;

  private:
    /** Per-signal base and glitch weights and unit. */
    struct Weights
    {
        std::vector<float> base;
        std::vector<float> glitch;
        std::vector<uint8_t> unit;
    };

    const PowerOracle &oracle_;
    std::shared_ptr<const Weights> weights_;
    size_t runs_ = 0;
    size_t n_ = 0;
    size_t words_ = 0;
    /** runs x n_ base accumulators. */
    std::vector<float> baseAcc_;
    /**
     * numUnits x runs x n_ glitch accumulators; a unit's slice is
     * zeroed when its first column arrives, and untouched units are
     * skipped by finish().
     */
    std::vector<float> glitchAcc_;
    std::vector<bool> unitUsed_;
};

} // namespace apollo

#endif // APOLLO_POWER_ORACLE_ACCUMULATOR_HH
