#include "control/closed_loop.hh"

#include <bit>

#include "gen/fitness_eval.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "opm/opm_simulator.hh"

namespace apollo::control {

ClosedLoopRunner::ClosedLoopRunner(const Netlist &netlist,
                                   const QuantizedModel &model,
                                   const CoreParams &core_params,
                                   const PowerParams &power_params)
    : netlist_(netlist), model_(model), coreParams_(core_params),
      powerParams_(power_params), engine_(netlist),
      oracle_(netlist, power_params), proxies_(engine_, model_.proxyIds)
{}

StatusOr<ClosedLoopResult>
ClosedLoopRunner::run(const Program &prog, const ClosedLoopConfig &config)
{
    StatusOr<ClosedLoopResult> result = simulate(prog, config);
    if (result.ok())
        result->truthPower = truthPower(result->frames);
    return result;
}

StatusOr<ClosedLoopResult>
ClosedLoopRunner::simulate(const Program &prog,
                           const ClosedLoopConfig &config)
{
    if (config.opmWindow == 0 || !std::has_single_bit(config.opmWindow))
        return Status::invalidArgument(
            "OPM window must be a power of two, got ", config.opmWindow);
    if (config.maxCycles == 0)
        return Status::invalidArgument("closed loop needs maxCycles >= 1");
    if (Status st = config.controller.validate(); !st.ok())
        return st;
    APOLLO_TRACE_SPAN("control.closed_loop");

    OpmSimulator opm(model_, config.opmWindow);
    const bool controlled =
        config.controller.policy != ThrottleMode::None;
    DroopController controller(config.controller);

    ClosedLoopResult result;
    std::vector<ActivityFrame> &frames = result.frames;
    frames.reserve(config.maxCycles);
    result.estPower.reserve(config.maxCycles);
    std::vector<uint64_t> words(proxies_.wordCount());
    double held = 0.0;

    TimingCore core(coreParams_);
    result.stats = core.run(
        prog, config.maxCycles,
        [&](const ActivityFrame &f) { frames.push_back(f); },
        [&](const ActivityFrame &, uint64_t cycle, Throttle &throttle) {
            proxies_.fill(frames, frames.size() - 1, 0, words.data());
            const OpmSimulator::Output out = opm.step(words.data());
            if (out.valid) {
                held = out.power;
                controller.observe(cycle, out.power);
            }
            result.estPower.push_back(static_cast<float>(held));
            if (controlled)
                controller.apply(cycle, throttle);
        });

    result.triggers = controller.triggers();
    result.engagedCycles = controller.engagedCycles();
    APOLLO_COUNT("apollo.control.closed_loop_runs", 1);
    APOLLO_COUNT("apollo.control.triggers", result.triggers);
    APOLLO_COUNT("apollo.control.engaged_cycles", result.engagedCycles);
    return result;
}

std::vector<float>
ClosedLoopRunner::replayEstimate(std::span<const ActivityFrame> frames,
                                 uint32_t opm_window)
{
    APOLLO_TRACE_SPAN("control.replay");
    OpmSimulator opm(model_, opm_window);
    std::vector<uint64_t> words(proxies_.wordCount());
    std::vector<float> est;
    est.reserve(frames.size());
    double held = 0.0;
    for (size_t i = 0; i < frames.size(); ++i) {
        proxies_.fill(frames, i, 0, words.data());
        const OpmSimulator::Output out = opm.step(words.data());
        if (out.valid)
            held = out.power;
        est.push_back(static_cast<float>(held));
    }
    return est;
}

std::vector<float>
ClosedLoopRunner::truthPower(std::span<const ActivityFrame> frames)
{
    APOLLO_TRACE_SPAN("control.truth_power");
    const std::span<const ActivityFrame> run[] = {frames};
    return std::move(truthPowers(run, nullptr)[0]);
}

std::vector<std::vector<float>>
ClosedLoopRunner::truthPowers(
    std::span<const std::span<const ActivityFrame>> runs,
    ThreadPool *pool) const
{
    APOLLO_TRACE_SPAN("control.truth_batch");
    const FitnessEvaluator eval(netlist_, engine_, oracle_);
    std::vector<std::vector<double>> powers;
    const FitnessEvaluator::BatchStats stats =
        eval.cyclePowersBatch(runs, powers, pool);
    std::vector<std::vector<float>> out(powers.size());
    for (size_t r = 0; r < powers.size(); ++r)
        out[r].assign(powers[r].begin(), powers[r].end());
    APOLLO_COUNT("apollo.control.truth_runs", stats.scored);
    APOLLO_COUNT("apollo.control.truth_dedup", stats.duplicates);
    return out;
}

} // namespace apollo::control
