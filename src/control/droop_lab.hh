/**
 * @file
 * The droop-mitigation scenario lab: grids {workload} x {OPM window
 * tau} x {OPM bits B} x {throttle policy} x {PDN variant}, runs every
 * cell through the real closed OPM -> throttle loop, and reports
 * droop-cycles-avoided vs IPC-lost as a Pareto table with per-scenario
 * Pearson of estimated vs ground-truth Delta-I (the Fig. 17 statistic,
 * now scored by what the control loop does with it).
 *
 * Per workload the lab runs one *baseline* (policy None) simulation;
 * trigger deltas are calibrated per (workload, tau, bits) as a
 * percentile of the baseline estimated |Delta-I| (the §8.2 idiom), so
 * every mitigated cell reacts to the same precursor definition its
 * OPM configuration would have seen. PDN gains are normalized per
 * workload by the baseline mean current, making the volt-scale
 * scenarios comparable across workloads.
 *
 * Stages (INTERNALS.md §14): A simulates the baselines; B calibrates
 * the triggers on their frames; C, per (workload, tau), simulates the
 * group's (B, policy) cells in parallel and scores their truth power
 * as one batch (ClosedLoopRunner::truthPowers: shared draws, identical
 * runs scored once), with the workload's baseline in its first group;
 * D assembles the rows.
 *
 * Determinism: every stage is a pure function of (netlist, model,
 * config); cells and tiles are fanned over a thread pool with each
 * writing its own result slot, and no truth power depends on the tile
 * or batch it was scored in, so reports are bit-identical across
 * reruns and thread counts.
 */

#ifndef APOLLO_CONTROL_DROOP_LAB_HH
#define APOLLO_CONTROL_DROOP_LAB_HH

#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "control/closed_loop.hh"
#include "core/apollo_model.hh"
#include "opm/opm_simulator.hh"

namespace apollo::control {

/** One PDN variant. Gains are in volts at the workload's baseline mean
 *  current (the lab divides by mean current per workload). */
struct PdnScenario
{
    std::string name = "default";
    double rStaticVolts = 0.01;
    double dynamicGainVolts = 0.05;
    double resonancePeriodCycles = 24.0;
    double damping = 0.25;
    /** Droop threshold as a fraction of vdd. */
    double thresholdFrac = 0.955;
};

/** One workload in the sweep. */
struct DroopLabWorkload
{
    std::string name;
    Program program;
    uint64_t cycles = 3000;
};

/** Sweep configuration. */
struct DroopLabConfig
{
    std::vector<DroopLabWorkload> workloads;
    /** OPM measurement windows tau (powers of two). */
    std::vector<uint32_t> windows{1, 4};
    /** OPM quantization widths B. */
    std::vector<uint32_t> bits{10, 6};
    /** Pulsed policies to sweep (None cells are implicit baselines). */
    std::vector<ThrottleMode> policies{ThrottleMode::Scheme1,
                                       ThrottleMode::Scheme2,
                                       ThrottleMode::Proportional};
    std::vector<PdnScenario> pdns{PdnScenario{}};

    double vdd = 0.75;
    /** Trigger = this percentile of baseline estimated |Delta-I|. */
    double triggerPercentile = 0.97;
    uint32_t triggerLatency = OpmSimulator::latencyCycles;
    uint32_t engageCycles = 6;
    uint32_t proportionalLevel = 1;
    /** Worker threads: 0 = shared global pool; at most
     *  kMaxWorkerThreads (util/thread_pool.hh). */
    uint32_t threads = 0;
    CoreParams coreParams = CoreParams::defaults();
    PowerParams powerParams{};

    Status validate() const;
};

/** The default 3 x 2 x 2 x 3 x 1 grid on lab-built workloads. */
DroopLabConfig defaultDroopLabConfig(uint64_t cycles = 3000);

/** One scenario row (a grid cell crossed with one PDN variant). */
struct DroopLabRow
{
    std::string workload;
    uint32_t window = 1;
    uint32_t bits = 10;
    ThrottleMode policy = ThrottleMode::None;
    std::string pdn;

    /** Calibrated trigger (amps of estimated Delta-I). */
    double triggerDelta = 0.0;
    /** Pearson of estimated vs ground-truth Delta-I on the mitigated
     *  run (the per-scenario Fig. 17 correlation). */
    double pearsonDeltaI = 0.0;

    uint64_t baseDroopCycles = 0;
    uint64_t droopCycles = 0;
    int64_t droopCyclesAvoided = 0;
    double baseMinVoltage = 0.0;
    double minVoltage = 0.0;

    double baseIpc = 0.0;
    double ipc = 0.0;
    /** (baseIpc - ipc) / baseIpc. */
    double ipcLossFrac = 0.0;

    uint64_t triggers = 0;
    uint64_t engagedCycles = 0;
    /** On the (workload, pdn) Pareto front of avoided-vs-loss. */
    bool pareto = false;
};

/** Sweep outcome. */
struct DroopLabReport
{
    std::vector<DroopLabRow> rows;
    uint64_t gridCells = 0;

    /** True if some row beats no-mitigation: droop cycles strictly
     *  reduced at under @p max_ipc_loss fractional IPC loss. */
    bool hasDominatingPolicy(double max_ipc_loss = 0.10) const;

    /** Pareto table + per-scenario stats, human-readable. */
    void render(std::ostream &os) const;

    /** The JSON document tools/run_benches.sh records. */
    std::string toJson() const;
};

/** Human-readable policy name ("none", "scheme1", ...). */
const char *throttleModeName(ThrottleMode mode);

/**
 * Stage D of runDroopLab: the report's rows in grid order, with PDN
 * crossing and Pareto fronts, from scored runs (their frames may be
 * empty): @p baselines holds one result per workload, @p triggers one
 * calibrated trigger per (workload, tau, bits), and @p cells one
 * result per (workload, tau, bits, policy) cell.
 */
DroopLabReport
assembleDroopLabReport(const DroopLabConfig &config,
                       std::span<const ClosedLoopResult> baselines,
                       std::span<const double> triggers,
                       std::span<const ClosedLoopResult> cells);

/** Run the sweep. @p model is the trained float model; the lab
 *  quantizes it per bits setting. */
StatusOr<DroopLabReport> runDroopLab(const Netlist &netlist,
                                     const ApolloModel &model,
                                     const DroopLabConfig &config);

} // namespace apollo::control

#endif // APOLLO_CONTROL_DROOP_LAB_HH
