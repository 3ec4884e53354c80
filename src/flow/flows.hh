/**
 * @file
 * Design-time power-analysis flows (Fig. 7):
 *  (a) commercial-style: full-signal trace + sign-off power calculation,
 *  (b) APOLLO-assisted: full RTL simulation but power from the linear
 *      model,
 *  (c) emulator-assisted: only the Q proxy bits are traced (storage and
 *      compute proportional to Q, not M) and power comes from the model
 *      — the flow that makes per-cycle tracing of multi-million-cycle
 *      workloads practical (Fig. 16).
 *
 * Each flow reports wall-clock per stage and the trace storage volume,
 * so the benches can reproduce the paper's speed/storage comparisons.
 */

#ifndef APOLLO_FLOW_FLOWS_HH
#define APOLLO_FLOW_FLOWS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/apollo_model.hh"
#include "flow/stream_engine.hh"
#include "control/droop_lab.hh"
#include "gen/ga_generator.hh"
#include "power/power_oracle.hh"
#include "trace/toggle_trace.hh"
#include "uarch/core.hh"
#include "util/status.hh"

namespace apollo {

/** Timing/size accounting for one flow run. */
struct FlowReport
{
    std::string flowName;
    uint64_t cycles = 0;
    /** RTL-simulation / emulation stage (frame generation). */
    double simSeconds = 0.0;
    /** Toggle extraction stage. */
    double traceSeconds = 0.0;
    /** Power computation stage (oracle or model inference). */
    double powerSeconds = 0.0;
    /** Bits stored per cycle * cycles, in bytes. */
    uint64_t traceBytes = 0;
    /** The per-cycle power estimate. */
    std::vector<float> power;
    /**
     * The sink stopped the streaming flow early (StatusCode::Cancelled
     * from consume()); `power` holds the samples delivered before the
     * stop. Always false for the non-streaming flows.
     */
    bool cancelled = false;

    double totalSeconds() const
    {
        return simSeconds + traceSeconds + powerSeconds;
    }
};

/** Runs the three flows over one design. */
class DesignTimeFlows
{
  public:
    DesignTimeFlows(const Netlist &netlist,
                    const CoreParams &core_params = CoreParams::defaults(),
                    const PowerParams &power_params = PowerParams{});

    /** Fig. 7(a): all-signal trace + ground-truth power. */
    FlowReport runCommercialFlow(const Program &prog,
                                 uint64_t max_cycles);

    /** Fig. 7(b): all-signal trace + APOLLO model inference. */
    FlowReport runApolloFlow(const Program &prog, uint64_t max_cycles,
                             const ApolloModel &model);

    /**
     * Fig. 7(c): proxy-only trace + APOLLO model inference. Runs on
     * the streaming backbone (chunked proxy-bit generation + streaming
     * inference) and collects the per-cycle power into the report;
     * results are bit-identical to the former batch implementation
     * (traceProxies + predictProxies).
     */
    FlowReport runEmulatorFlow(const Program &prog, uint64_t max_cycles,
                               const ApolloModel &model);

    /**
     * Fig. 7(c) with a caller-owned sink: proxy bits are generated
     * chunk by chunk and power samples are delivered to @p sink, so
     * nothing proportional to the trace length is ever resident —
     * FlowReport::power stays empty. traceSeconds/powerSeconds map to
     * the streaming engine's read/infer stages and traceBytes counts
     * the packed proxy bits streamed.
     */
    FlowReport runEmulatorFlowStreaming(const Program &prog,
                                        uint64_t max_cycles,
                                        const ApolloModel &model,
                                        PowerSink &sink,
                                        const StreamConfig &config = {});

  private:
    const Netlist &netlist_;
    CoreParams coreParams_;
    PowerParams powerParams_;
};

/**
 * A long, phase-rich workload (compute / vector / memory / branchy /
 * idle phases) standing in for the SPEC-class traces of Fig. 16.
 * @p approx_cycles controls total length (within ~20%).
 */
Program makeLongWorkload(const std::string &name, uint64_t approx_cycles,
                         uint64_t seed = 0x10119ULL);

/** Options for the GA training-data generation flow (§4.1 / Fig. 3). */
struct TrainingGenOptions
{
    GaConfig ga;
    /** Individuals selected (power-uniformly) for the dataset. */
    size_t benchmarks = 60;
    /**
     * Cycles exported per selected individual. Export reuses the
     * frames captured during fitness simulation; an individual whose
     * capture is shorter (cyclesEach > ga.fitnessCycles) is
     * re-simulated with the same loop trip count, which reproduces
     * the captured frames bit for bit (docs/INTERNALS.md §9).
     */
    uint64_t cyclesEach = 500;
};

/** Result of the training-data generation flow. */
struct TrainingGenReport
{
    Dataset dataset;
    GaRunStats gaStats;
    double powerRangeRatio = 0.0;
    double bestPower = 0.0;
    /** Cycles simulated at export time (0 when every selected
     *  individual was served from the fitness-capture pool). */
    uint64_t exportSimulatedCycles = 0;
};

/**
 * End-to-end §4.1 training-data generation: run the GA, select a
 * power-uniform subset, and export the per-cycle dataset in a single
 * pass over the fitness simulations. Returns InvalidArgument for a
 * malformed configuration (e.g. ga.fitnessSignalStride == 0).
 */
StatusOr<TrainingGenReport> generateTrainingSet(
    const Netlist &netlist, const TrainingGenOptions &options,
    const CoreParams &core_params = CoreParams::defaults(),
    const PowerParams &power_params = PowerParams{});

/**
 * Flow entry for the closed-loop droop-mitigation scenario lab
 * (src/control, §7/§8.2): sweep {workload} x {tau} x {B} x {policy} x
 * {PDN} through the real OPM -> throttle loop and report the
 * droop-cycles-avoided vs IPC-lost Pareto rows. The model is a trained
 * float model for the netlist; the lab quantizes it per bits setting.
 * Returns InvalidArgument for a malformed grid. (Implemented in
 * src/control; re-exported here alongside the other flow entries.)
 */
using control::runDroopLab;

} // namespace apollo

#endif // APOLLO_FLOW_FLOWS_HH
