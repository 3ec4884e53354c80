/**
 * @file
 * PowerOracle: the ground-truth per-cycle power model, standing in for a
 * commercial sign-off flow (PowerPro in the paper).
 *
 * Per-cycle power (Eq. 2 of the paper, plus the smaller components):
 *
 *   dyn[i]    = 1/2 V^2 * sum of cap over toggling signals
 *   glitch[i] = 1/2 V^2 * glitchFactor * sum over toggling comb wires
 *               of cap * glitchDepth * unitActivity (nonlinear residual)
 *   sc[i]     = shortCircuitFactor * (dyn[i] + glitch[i])
 *   leak      = leakFraction * totalCap * 1/2 V^2  (constant)
 *   noise     = small multiplicative measurement noise (hash-seeded)
 *
 * One order defines the rounding (docs/INTERNALS.md §5): a cycle's
 * signalContribution terms are added into one double over ascending
 * signal ids, and finalize adds the rest. LabelAccumulator is the one
 * production kernel of that order (dataset labels, GA fitness and the
 * droop lab's truth power); src/ref transcribes it per cycle.
 *
 * The dominant dyn term is exactly linear in the toggle bits with
 * heterogeneous per-signal coefficients — the structure APOLLO's sparse
 * linear proxy model exploits. The glitch and noise terms bound the
 * achievable R^2 below 1.0, as on the real designs.
 */

#ifndef APOLLO_POWER_POWER_ORACLE_HH
#define APOLLO_POWER_POWER_ORACLE_HH

#include <cstdint>

#include "rtl/netlist.hh"
#include "uarch/activity_frame.hh"

namespace apollo {

/** Oracle tuning parameters. */
struct PowerParams
{
    double vdd = 0.75;
    double glitchFactor = 0.11;
    double shortCircuitFactor = 0.07;
    /** Leakage as a fraction of total capacitance (temperature-fixed). */
    double leakFraction = 0.008;
    /** Relative sigma of per-cycle measurement noise. */
    double noiseSigma = 0.035;
    /** Global scale applied last (cosmetic, for paper-like magnitudes). */
    double outputScale = 1.0 / 400.0;
};

/** Ground-truth power calculator. */
class PowerOracle
{
  public:
    explicit PowerOracle(const Netlist &netlist,
                         const PowerParams &params = PowerParams{});

    /**
     * The definition of one toggle's contribution: the linear cap term
     * plus the activity-scaled glitch term of signal @p sig_id
     * toggling under @p frame. A cycle's contribution sum adds it over
     * the toggling signals in ascending id; LabelAccumulator computes
     * that sum for every ground-truth consumer with these operations.
     */
    double signalContribution(uint32_t sig_id,
                              const ActivityFrame &frame) const;

    /**
     * Finalize a per-cycle accumulated contribution sum into total
     * power: applies short-circuit, leakage, noise, and output scaling.
     * @p cycle_key seeds the noise (use a globally unique cycle id).
     */
    double finalize(double contribution_sum, uint64_t cycle_key) const;

    const PowerParams &params() const { return params_; }
    double halfVddSquared() const { return halfV2_; }

    /** Constant leakage power (post-outputScale). */
    double leakagePower() const;

  private:
    const Netlist &netlist_;
    PowerParams params_;
    double halfV2_;
    uint64_t noiseSeed_;
};

} // namespace apollo

#endif // APOLLO_POWER_POWER_ORACLE_HH
