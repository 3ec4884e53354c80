/**
 * @file
 * Runtime proactive Ldi/dt analysis (§8.2). The differencing operator
 * Delta-I in discrete time stands in for di/dt; the per-cycle OPM
 * output, differenced, predicts current transients: cycles with a large
 * positive Delta-I precede voltage droops, large negative Delta-I
 * precede overshoots. We reproduce the Fig. 17 correlation/quadrant
 * analysis and demonstrate an OPM-guided adaptive-clocking mitigation
 * loop on the RLC PDN model.
 */

#ifndef APOLLO_DROOP_DROOP_HH
#define APOLLO_DROOP_DROOP_HH

#include <cstdint>
#include <span>
#include <vector>

#include "power/pdn_model.hh"

namespace apollo {

/** Per-cycle current demand from per-cycle power at nominal voltage. */
std::vector<double> currentFromPower(std::span<const float> power,
                                     double vdd);

/** Delta-I series (first sample is 0). */
std::vector<double> deltaI(std::span<const double> current);

/**
 * Value at quantile @p q of @p values: the element a full sort would
 * put at index floor(q * (n - 1)), found by selection (of values that
 * compare equal, only +0.0 and -0.0 differ in bits). @p q must be in
 * [0, 1] and @p values non-empty and NaN-free (FatalError naming the
 * first NaN's index).
 */
double percentileCut(std::span<const double> values, double q);

/** Fig. 17 statistics. */
struct DidtAnalysis
{
    /** Pearson correlation between truth and estimated Delta-I. */
    double pearsonDeltaI = 0.0;
    /** Sign-quadrant sample counts (truth sign x estimate sign). */
    uint64_t quadPosPos = 0;
    uint64_t quadPosNeg = 0;
    uint64_t quadNegPos = 0;
    uint64_t quadNegNeg = 0;
    /** Pearson restricted to deep events (|truth dI| above the given
     *  percentile) — the droop/overshoot corners of Fig. 17. */
    double deepEventPearson = 0.0;
    /** Fraction of deep positive truth events whose estimate is also in
     *  the top decile (droop precursors caught by the OPM). */
    double deepDroopRecall = 0.0;
};

/** Compare ground-truth vs OPM-estimated per-cycle power traces. */
DidtAnalysis analyzeDidt(std::span<const float> truth_power,
                         std::span<const float> est_power, double vdd,
                         double deep_percentile = 0.95);

/** Droop simulation outcome. */
struct DroopSimResult
{
    double minVoltage = 0.0;
    double maxOvershoot = 0.0;
    /** Cycles below the droop threshold. */
    uint64_t droopCycles = 0;
    /** Cycles the mitigation was engaged (0 without mitigation). */
    uint64_t throttledCycles = 0;
    std::vector<double> voltage;
};

/** Run the PDN over a power trace without mitigation. */
DroopSimResult simulateDroop(std::span<const float> power,
                             const PdnParams &pdn_params,
                             double droop_threshold);

/**
 * OPM-guided proactive mitigation: when the *estimated* Delta-I exceeds
 * @p trigger_delta, current demand is stretched (adaptive clocking
 * slows issue) by @p stretch_factor for @p stretch_cycles cycles.
 */
DroopSimResult simulateWithMitigation(std::span<const float> truth_power,
                                      std::span<const float> est_power,
                                      const PdnParams &pdn_params,
                                      double droop_threshold,
                                      double trigger_delta,
                                      double stretch_factor,
                                      uint32_t stretch_cycles);

} // namespace apollo

#endif // APOLLO_DROOP_DROOP_HH
