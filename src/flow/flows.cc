#include "flow/flows.hh"

#include <algorithm>
#include <chrono>

#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "util/logging.hh"
#include "util/thread_pool.hh"

namespace apollo {

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

} // namespace

DesignTimeFlows::DesignTimeFlows(const Netlist &netlist,
                                 const CoreParams &core_params,
                                 const PowerParams &power_params)
    : netlist_(netlist), coreParams_(core_params),
      powerParams_(power_params)
{}

FlowReport
DesignTimeFlows::runCommercialFlow(const Program &prog,
                                   uint64_t max_cycles)
{
    FlowReport rep;
    rep.flowName = "commercial (all signals + sign-off power)";
    APOLLO_COUNT("apollo.flow.runs", 1);

    auto t0 = Clock::now();
    DatasetBuilder builder(netlist_, coreParams_, powerParams_);
    {
        APOLLO_TRACE_SPAN("flow.simulate");
        builder.addProgram(prog, max_cycles);
    }
    rep.simSeconds = secondsSince(t0);
    rep.cycles = builder.frames().size();
    APOLLO_OBSERVE("apollo.flow.simulate_seconds", rep.simSeconds,
                   ::apollo::obs::latencyBounds());

    // build() generates every signal's toggle columns and then runs the
    // oracle's per-cycle label pass over them; sign-off power needs
    // the full trace, so the whole call is timed as the power stage.
    auto t1 = Clock::now();
    Dataset ds = [&] {
        APOLLO_TRACE_SPAN("flow.power");
        return builder.build();
    }();
    rep.powerSeconds = secondsSince(t1);
    APOLLO_OBSERVE("apollo.flow.power_seconds", rep.powerSeconds,
                   ::apollo::obs::latencyBounds());
    rep.traceBytes = ds.X.byteSize();
    rep.power = std::move(ds.y);
    return rep;
}

FlowReport
DesignTimeFlows::runApolloFlow(const Program &prog, uint64_t max_cycles,
                               const ApolloModel &model)
{
    FlowReport rep;
    rep.flowName = "apollo (all signals + model inference)";
    APOLLO_COUNT("apollo.flow.runs", 1);

    auto t0 = Clock::now();
    DatasetBuilder builder(netlist_, coreParams_, powerParams_);
    {
        APOLLO_TRACE_SPAN("flow.simulate");
        builder.addProgram(prog, max_cycles);
    }
    rep.simSeconds = secondsSince(t0);
    rep.cycles = builder.frames().size();
    APOLLO_OBSERVE("apollo.flow.simulate_seconds", rep.simSeconds,
                   ::apollo::obs::latencyBounds());

    // RTL simulation still dumps every signal...
    auto t1 = Clock::now();
    const std::vector<uint32_t> begin_of = builder.segmentBeginTable();
    std::vector<uint32_t> all_ids(netlist_.signalCount());
    for (size_t c = 0; c < all_ids.size(); ++c)
        all_ids[c] = static_cast<uint32_t>(c);
    const BitColumnMatrix full = [&] {
        APOLLO_TRACE_SPAN("flow.trace");
        return DatasetBuilder::traceProxies(
            builder.engine(), builder.frames(), all_ids, begin_of);
    }();
    rep.traceSeconds = secondsSince(t1);
    rep.traceBytes = full.byteSize();
    APOLLO_OBSERVE("apollo.flow.trace_seconds", rep.traceSeconds,
                   ::apollo::obs::latencyBounds());

    // ...but the power calculation is replaced by linear inference.
    auto t2 = Clock::now();
    {
        APOLLO_TRACE_SPAN("flow.infer");
        rep.power = model.predictFull(full);
    }
    rep.powerSeconds = secondsSince(t2);
    APOLLO_OBSERVE("apollo.flow.infer_seconds", rep.powerSeconds,
                   ::apollo::obs::latencyBounds());
    return rep;
}

FlowReport
DesignTimeFlows::runEmulatorFlow(const Program &prog,
                                 uint64_t max_cycles,
                                 const ApolloModel &model)
{
    VectorSink sink;
    FlowReport rep =
        runEmulatorFlowStreaming(prog, max_cycles, model, sink);
    rep.flowName = "emulator (proxy-only trace + model inference)";
    rep.power = sink.takeValues();
    return rep;
}

FlowReport
DesignTimeFlows::runEmulatorFlowStreaming(const Program &prog,
                                          uint64_t max_cycles,
                                          const ApolloModel &model,
                                          PowerSink &sink,
                                          const StreamConfig &config)
{
    FlowReport rep;
    rep.flowName =
        "emulator-streaming (chunked proxy trace + sink inference)";
    APOLLO_COUNT("apollo.flow.runs", 1);

    auto t0 = Clock::now();
    DatasetBuilder builder(netlist_, coreParams_, powerParams_);
    {
        APOLLO_TRACE_SPAN("flow.simulate");
        builder.addProgram(prog, max_cycles);
    }
    rep.simSeconds = secondsSince(t0);
    rep.cycles = builder.frames().size();
    APOLLO_OBSERVE("apollo.flow.simulate_seconds", rep.simSeconds,
                   ::apollo::obs::latencyBounds());

    // Proxy bits are generated chunk by chunk straight from the frame
    // history (identical bits to DatasetBuilder::traceProxies — the
    // activity engine is a pure function of (signal, cycle)) and flow
    // through the streaming engine into the sink.
    FrameProxyChunkReader reader(builder.engine(), builder.frames(),
                                 model.proxyIds,
                                 builder.segmentBeginTable());
    const StreamingInference engine(model);
    APOLLO_TRACE_SPAN("flow.stream");
    StatusOr<StreamStats> stats = engine.run(reader, sink, config);
    // Flow configuration/sink failures are caller errors at this layer.
    if (!stats.ok())
        fatal(stats.status().toString());

    rep.traceSeconds = stats->readSeconds;
    rep.powerSeconds = stats->inferSeconds;
    rep.traceBytes = stats->traceBytes;
    rep.cancelled = stats->cancelled;
    return rep;
}

Program
makeLongWorkload(const std::string &name, uint64_t approx_cycles,
                 uint64_t seed)
{
    using namespace asm_helpers;

    // Phase bodies (each phase is its own counted loop on x27 so the
    // global x31 convention is untouched).
    const std::vector<std::vector<Instruction>> phases = {
        // compute-heavy scalar
        {mul(0, 1, 2), add(3, 0, 4), eor(5, 3, 1), add(6, 5, 2),
         lsl(7, 6, 1), sub(1, 7, 0)},
        // vector-heavy
        {vfma(0, 1, 2), vfma(3, 4, 5), vmul(6, 7, 0), vadd(1, 6, 3),
         vldr(8, 30, 0), vfma(9, 8, 1)},
        // memory streaming
        {vldr(0, 28, 0), vstr(0, 29, 0), ldr(1, 28, 64),
         str(1, 29, 64), addi(28, 28, 128), addi(29, 29, 128)},
        // pointer-chase / cache-miss heavy
        {ldr(0, 29, 0), add(1, 1, 0), addi(29, 29, 8256),
         eor(2, 1, 0)},
        // branchy / low ILP
        {addi(0, 0, 1), and_(1, 0, 3), sub(2, 0, 1), add(3, 2, 2)},
        // near-idle (clock-gating kicks in around the nops)
        {nop(), nop(), nop(), nop(), nop(), addi(0, 0, 1)},
    };

    // Estimate ~1.5 cycles per instruction on average; split the cycle
    // budget evenly across repeated phase rounds.
    const uint64_t rounds = 4;
    const uint64_t per_phase_cycles =
        std::max<uint64_t>(200, approx_cycles / (rounds * phases.size()));

    std::vector<Instruction> instrs;
    uint64_t mix = seed;
    for (uint64_t r = 0; r < rounds; ++r) {
        for (const auto &body : phases) {
            const auto iters = static_cast<int32_t>(std::max<uint64_t>(
                4, (2 * per_phase_cycles) / (3 * body.size())));
            instrs.push_back(movi(27, iters));
            const auto body_begin = instrs.size();
            instrs.insert(instrs.end(), body.begin(), body.end());
            instrs.push_back(subi(27, 27, 1));
            instrs.push_back(bnez(
                27, -static_cast<int32_t>(instrs.size() - body_begin)));
            mix = mix * 6364136223846793005ULL + 1442695040888963407ULL;
        }
    }

    Program prog(name, std::move(instrs));
    prog.setDataSeed(seed);
    return prog;
}

StatusOr<TrainingGenReport>
generateTrainingSet(const Netlist &netlist,
                    const TrainingGenOptions &options,
                    const CoreParams &core_params,
                    const PowerParams &power_params)
{
    if (Status st = options.ga.validate(); !st.ok())
        return st;
    if (options.benchmarks == 0)
        return Status::invalidArgument("benchmarks must be >= 1");
    if (options.cyclesEach == 0)
        return Status::invalidArgument("cyclesEach must be >= 1");

    APOLLO_COUNT("apollo.flow.runs", 1);
    DatasetBuilder builder(netlist, core_params, power_params);
    GaGenerator ga(builder, options.ga);
    {
        APOLLO_TRACE_SPAN("flow.ga_run");
        APOLLO_SCOPED_TIMER("apollo.flow.ga_seconds");
        ga.run();
    }

    TrainingGenReport rep;
    rep.gaStats = ga.stats();
    rep.powerRangeRatio = ga.powerRangeRatio();
    rep.bestPower = ga.best().avgPower;

    // Single-pass export: selected individuals' frames were already
    // captured during fitness simulation; re-simulation (with the
    // identical loop trip count, hence bit-identical frames) is only a
    // fallback for captures shorter than cyclesEach.
    const std::vector<GaIndividual> selected =
        ga.selectTrainingSet(options.benchmarks);
    int idx = 0;
    for (const GaIndividual &ind : selected) {
        const std::string name = "ga" + std::to_string(idx++);
        const std::span<const ActivityFrame> captured =
            ga.capturedFrames(ind.id);
        if (captured.size() >= options.cyclesEach) {
            builder.addFrames(name,
                              captured.subspan(0, options.cyclesEach));
        } else {
            const size_t before = builder.frames().size();
            builder.addProgram(
                GaGenerator::toProgram(
                    ind, name,
                    GaGenerator::fitnessIterations(
                        ind.body.size(), options.ga.fitnessCycles)),
                options.cyclesEach);
            rep.exportSimulatedCycles +=
                builder.frames().size() - before;
        }
    }
    {
        APOLLO_TRACE_SPAN("flow.export");
        APOLLO_SCOPED_TIMER("apollo.flow.export_seconds");
        rep.dataset = builder.build();
    }
    return rep;
}

} // namespace apollo
