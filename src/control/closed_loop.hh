/**
 * @file
 * The closed OPM -> throttle loop. One run simulates a program on the
 * timing core while, per recorded cycle, the just-emitted ActivityFrame
 * is turned into the Q proxy toggle bits (the fused toggle kernel's row
 * orientation, bound to the proxies once per runner), pushed through
 * the bit-true OpmSimulator, and fed to a DroopController that pulses
 * the core's issue Throttle. Throttling changes the next cycles'
 * activity, which changes the power the RLC PDN sees — unlike the
 * analytic simulateWithMitigation current cap, the loop is genuinely
 * closed.
 *
 * Ground-truth per-cycle power is computed after the run from the
 * collected (throttled) frames with the finalized oracle
 * (FitnessEvaluator at stride 1), so the truth trace reflects exactly
 * the activity the controller caused. run() does both steps;
 * simulate() and truthPowers() split them, so a caller with many runs
 * (the droop lab) can score them as one batch: the core stamps every
 * run's frames 0, 1, 2, ..., so the runs share every draw, and
 * identical runs are scored once. Everything is deterministic: same
 * netlist + model + program + config => bit-identical result.
 */

#ifndef APOLLO_CONTROL_CLOSED_LOOP_HH
#define APOLLO_CONTROL_CLOSED_LOOP_HH

#include <cstdint>
#include <vector>

#include "activity/activity_engine.hh"
#include "activity/toggle_kernels.hh"
#include "control/droop_controller.hh"
#include "isa/program.hh"
#include "opm/quantize.hh"
#include "power/power_oracle.hh"
#include "rtl/netlist.hh"
#include "uarch/core.hh"
#include "util/status.hh"

namespace apollo {
class ThreadPool;
} // namespace apollo

namespace apollo::control {

/** One closed-loop run's configuration. */
struct ClosedLoopConfig
{
    /** OPM measurement window T in cycles (power of two). */
    uint32_t opmWindow = 1;
    /** Controller parameters; policy None runs the loop open
     *  (OPM still sampled, throttle never pulsed). */
    DroopControllerConfig controller;
    /** Recorded-cycle budget. */
    uint64_t maxCycles = 3000;
};

/** Outcome of one closed-loop run. */
struct ClosedLoopResult
{
    CoreStats stats;
    /** The (possibly throttled) activity trace the run produced. */
    std::vector<ActivityFrame> frames;
    /** Finalized-oracle power per recorded cycle of the (possibly
     *  throttled) run. */
    std::vector<float> truthPower;
    /** OPM output per recorded cycle (window output held between
     *  valid samples; 0 until the first window completes). */
    std::vector<float> estPower;
    uint64_t triggers = 0;
    uint64_t engagedCycles = 0;
};

/** Reusable runner: one design + one quantized model, many runs. */
class ClosedLoopRunner
{
  public:
    ClosedLoopRunner(const Netlist &netlist, const QuantizedModel &model,
                     const CoreParams &core_params = CoreParams::defaults(),
                     const PowerParams &power_params = PowerParams{});

    /** Simulate @p prog under @p config and score its truth power
     *  serially. Not thread-safe; use one runner per worker. */
    StatusOr<ClosedLoopResult> run(const Program &prog,
                                   const ClosedLoopConfig &config);

    /** run() without the truth power: truthPower stays empty and
     *  frames holds the run's trace. */
    StatusOr<ClosedLoopResult> simulate(const Program &prog,
                                        const ClosedLoopConfig &config);

    /**
     * OPM replay over an existing frame trace (no core, no controller):
     * the per-cycle estimate the closed loop would have seen had it not
     * intervened. Used to calibrate trigger deltas from a baseline run.
     */
    std::vector<float> replayEstimate(std::span<const ActivityFrame> frames,
                                      uint32_t opm_window);

    /** Finalized-oracle per-cycle power of an arbitrary frame trace. */
    std::vector<float> truthPower(std::span<const ActivityFrame> frames);

    /**
     * truthPower of several traces scored as one batch on @p pool
     * (nullptr: serially). Every trace's frame at a row must carry the
     * same cycle stamp, as simulate() produces. Counts the scored
     * traces (apollo.control.truth_runs) and those that copied an
     * identical earlier trace's powers (apollo.control.truth_dedup).
     */
    std::vector<std::vector<float>>
    truthPowers(std::span<const std::span<const ActivityFrame>> runs,
                ThreadPool *pool) const;

  private:
    const Netlist &netlist_;
    QuantizedModel model_;
    CoreParams coreParams_;
    PowerParams powerParams_;
    ActivityEngine engine_;
    PowerOracle oracle_;
    /** The model's proxies, bound for one row per cycle. */
    togglekernels::RowKernel proxies_;
};

} // namespace apollo::control

#endif // APOLLO_CONTROL_CLOSED_LOOP_HH
