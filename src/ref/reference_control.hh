/**
 * @file
 * Naive reference for the droop controller's trigger/engage state
 * machine (docs/INTERNALS.md §14): a literal cycle-by-cycle
 * transcription of the documented contract — estimated current is
 * power / vdd, a trigger fires when the delta between consecutive
 * observations exceeds triggerDelta, a trigger at cycle c schedules
 * throttling for cycles [c + 1 + latency, c + latency + engageCycles],
 * and retriggers extend the single pending window's release point.
 * No Throttle object, no state enum — just the per-cycle booleans,
 * recomputed the slow way. Oracle for control::DroopController
 * (the control.droop_trigger differential path).
 *
 * Also the closed loop with its proxy bits computed the definition's
 * way, ActivityEngine::toggles once per proxy per cycle (oracle for
 * ClosedLoopRunner::simulate and replayEstimate, whose bits come from
 * the row toggle kernel), and the per-cell droop lab on that loop:
 * every baseline and cell simulated and scored on its own, serially,
 * as the lab ran before it batched truth power. Oracle for
 * control::runDroopLab (DroopLab.MatchesPerCellReference and
 * bench_droop_lab's gate).
 */

#ifndef APOLLO_REF_REFERENCE_CONTROL_HH
#define APOLLO_REF_REFERENCE_CONTROL_HH

#include <cstdint>
#include <span>
#include <vector>

#include "control/droop_lab.hh"

namespace apollo::ref {

/** Reference controller parameters (mirrors DroopControllerConfig). */
struct ControlParams
{
    double vdd = 0.75;
    double triggerDelta = 0.0;
    uint32_t triggerLatency = 2;
    uint32_t engageCycles = 6;
};

/** Reference run outcome over n cycles. */
struct ControlTranscript
{
    /** engaged[c] = the throttle constrains cycle c + 1 (the decision
     *  the controller makes at the end of cycle c). */
    std::vector<uint8_t> engaged;
    uint64_t triggers = 0;
    uint64_t engagedCycles = 0;
};

/**
 * Run the reference state machine over a per-cycle OPM power stream:
 * @p est_power[c] is the sample observed at cycle c, @p valid[c] says
 * whether the OPM emitted an output that cycle (windowed OPMs emit
 * every T cycles). Both spans have equal length n.
 */
ControlTranscript droopControlTranscript(std::span<const float> est_power,
                                         std::span<const uint8_t> valid,
                                         const ControlParams &params);

/**
 * ClosedLoopRunner::simulate's loop with the proxy bits packed from
 * ActivityEngine::toggles(proxyIds[q], frames, i) per proxy per cycle:
 * frames, estPower, triggers, engaged cycles and CoreStats, no truth
 * power.
 */
StatusOr<control::ClosedLoopResult>
closedLoopSimulate(const Netlist &netlist, const QuantizedModel &model,
                   const Program &prog,
                   const control::ClosedLoopConfig &config,
                   const CoreParams &core_params = CoreParams::defaults());

/** ClosedLoopRunner::replayEstimate with the same per-proxy bits. */
std::vector<float> replayEstimate(const Netlist &netlist,
                                  const QuantizedModel &model,
                                  std::span<const ActivityFrame> frames,
                                  uint32_t opm_window);

/**
 * The droop lab report assembled from per-cell closedLoopSimulate and
 * replayEstimate calls: stages A-C one run at a time, each with its own
 * truth power (ClosedLoopRunner::truthPower), then the production
 * stage D (control::assembleDroopLabReport).
 */
StatusOr<control::DroopLabReport>
droopLabPerCell(const Netlist &netlist, const ApolloModel &model,
                const control::DroopLabConfig &config);

} // namespace apollo::ref

#endif // APOLLO_REF_REFERENCE_CONTROL_HH
