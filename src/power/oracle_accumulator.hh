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
 * PowerOracle::finalize. The axpy kernel contract (exactly one float
 * add per set bit on every dispatch path) makes the result bit-exact
 * against a per-cycle transcription of the same order,
 * ref::fitnessCyclePowers — the only other implementation, kept in
 * src/ref as the differential oracle.
 */

#ifndef APOLLO_POWER_ORACLE_ACCUMULATOR_HH
#define APOLLO_POWER_ORACLE_ACCUMULATOR_HH

#include <cstdint>
#include <span>
#include <vector>

#include "power/power_oracle.hh"

namespace apollo {

/** Weighted toggle-column power accumulation (see file docs). */
class OracleAccumulator
{
  public:
    OracleAccumulator(const Netlist &netlist, const PowerOracle &oracle);

    /** Start a pass over @p n_cycles cycles (resets accumulators). */
    void begin(size_t n_cycles);

    /**
     * Accumulate the packed toggle column of @p sig_id
     * ((n_cycles + 63) / 64 words, tail bits zero). Columns must be
     * added in ascending sig_id order.
     */
    void addColumn(uint32_t sig_id, const uint64_t *words);

    /**
     * Combine and finalize: out[i] = finalize(sum_i * scale, i) where
     * scale is the signal-sampling stride compensation.
     */
    void finish(std::span<const ActivityFrame> frames, double scale,
                std::vector<double> &out) const;

  private:
    const Netlist &netlist_;
    const PowerOracle &oracle_;
    std::vector<float> baseW_;
    std::vector<float> glitchW_;
    std::vector<uint8_t> unitOf_;
    size_t n_ = 0;
    size_t words_ = 0;
    std::vector<float> baseAcc_;
    /** numUnits x n_ glitch accumulators (only used units touched). */
    std::vector<float> glitchAcc_;
    std::vector<bool> unitUsed_;
};

} // namespace apollo

#endif // APOLLO_POWER_ORACLE_ACCUMULATOR_HH
