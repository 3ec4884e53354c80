#include "ref/reference_control.hh"

#include <algorithm>
#include <bit>
#include <cmath>

#include "droop/droop.hh"
#include "opm/opm_simulator.hh"
#include "util/logging.hh"

namespace apollo::ref {

namespace {

/** Bit q of @p words = engine.toggles(proxy_ids[q], frames, i). */
void
proxyBitsFromToggles(const ActivityEngine &engine,
                     std::span<const uint32_t> proxy_ids,
                     std::span<const ActivityFrame> frames, size_t i,
                     std::vector<uint64_t> &words)
{
    std::fill(words.begin(), words.end(), 0);
    for (size_t q = 0; q < proxy_ids.size(); ++q) {
        if (engine.toggles(proxy_ids[q], frames, i))
            words[q >> 6] |= 1ULL << (q & 63);
    }
}

} // namespace

ControlTranscript
droopControlTranscript(std::span<const float> est_power,
                       std::span<const uint8_t> valid,
                       const ControlParams &params)
{
    APOLLO_REQUIRE(est_power.size() == valid.size(),
                   "power/valid arity mismatch");
    const size_t n = est_power.size();
    ControlTranscript out;
    out.engaged.assign(n, 0);

    // Pass 1: the trigger cycles — deltas between consecutive *valid*
    // observations of estimated current.
    std::vector<size_t> trigger_cycles;
    bool have_prev = false;
    double prev = 0.0;
    for (size_t c = 0; c < n; ++c) {
        if (!valid[c])
            continue;
        const double current =
            static_cast<double>(est_power[c]) / params.vdd;
        if (have_prev && (current - prev) > params.triggerDelta)
            trigger_cycles.push_back(c);
        prev = current;
        have_prev = true;
    }
    out.triggers = trigger_cycles.size();

    // Pass 2: walk the triggers in order, stretching one window at a
    // time: a trigger that lands while the previous window is still
    // pending or in force (trigger cycle <= the window's last
    // constrained cycle) extends that window's release point instead
    // of opening a second one.
    size_t ti = 0;
    while (ti < trigger_cycles.size()) {
        const uint64_t start =
            trigger_cycles[ti] + 1 + params.triggerLatency;
        uint64_t end = start + params.engageCycles - 1;
        size_t tj = ti + 1;
        while (tj < trigger_cycles.size() && trigger_cycles[tj] <= end) {
            end = std::max(end, trigger_cycles[tj] + 1 +
                                    params.triggerLatency +
                                    params.engageCycles - 1);
            tj++;
        }
        // engaged[c] marks the decision for cycle c + 1, so the window
        // [start, end] over *constrained* cycles maps to decision
        // cycles [start - 1, end - 1].
        for (uint64_t c = start - 1; c <= end - 1 && c < n; ++c)
            out.engaged[c] = 1;
        ti = tj;
    }
    for (uint8_t e : out.engaged)
        out.engagedCycles += e;
    return out;
}

StatusOr<control::ClosedLoopResult>
closedLoopSimulate(const Netlist &netlist, const QuantizedModel &model,
                   const Program &prog,
                   const control::ClosedLoopConfig &config,
                   const CoreParams &core_params)
{
    using namespace control;
    if (config.opmWindow == 0 || !std::has_single_bit(config.opmWindow))
        return Status::invalidArgument(
            "OPM window must be a power of two, got ", config.opmWindow);
    if (config.maxCycles == 0)
        return Status::invalidArgument("closed loop needs maxCycles >= 1");
    if (Status st = config.controller.validate(); !st.ok())
        return st;

    const ActivityEngine engine(netlist);
    OpmSimulator opm(model, config.opmWindow);
    const bool controlled =
        config.controller.policy != ThrottleMode::None;
    DroopController controller(config.controller);

    ClosedLoopResult result;
    std::vector<ActivityFrame> &frames = result.frames;
    frames.reserve(config.maxCycles);
    result.estPower.reserve(config.maxCycles);
    std::vector<uint64_t> words((model.proxyIds.size() + 63) / 64);
    double held = 0.0;

    TimingCore core(core_params);
    result.stats = core.run(
        prog, config.maxCycles,
        [&](const ActivityFrame &f) { frames.push_back(f); },
        [&](const ActivityFrame &, uint64_t cycle, Throttle &throttle) {
            proxyBitsFromToggles(engine, model.proxyIds, frames,
                                 frames.size() - 1, words);
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
    return result;
}

std::vector<float>
replayEstimate(const Netlist &netlist, const QuantizedModel &model,
               std::span<const ActivityFrame> frames, uint32_t opm_window)
{
    const ActivityEngine engine(netlist);
    OpmSimulator opm(model, opm_window);
    std::vector<uint64_t> words((model.proxyIds.size() + 63) / 64);
    std::vector<float> est;
    est.reserve(frames.size());
    double held = 0.0;
    for (size_t i = 0; i < frames.size(); ++i) {
        proxyBitsFromToggles(engine, model.proxyIds, frames, i, words);
        const OpmSimulator::Output out = opm.step(words.data());
        if (out.valid)
            held = out.power;
        est.push_back(static_cast<float>(held));
    }
    return est;
}

StatusOr<control::DroopLabReport>
droopLabPerCell(const Netlist &netlist, const ApolloModel &model,
                const control::DroopLabConfig &config)
{
    using namespace control;
    if (Status st = config.validate(); !st.ok())
        return st;
    std::vector<QuantizedModel> qmodels;
    for (uint32_t b : config.bits) {
        StatusOr<QuantizedModel> qm = tryQuantizeModel(model, b);
        if (!qm.ok())
            return qm.status();
        qmodels.push_back(std::move(*qm));
    }
    // Scores truth power only; no run goes through its loop.
    ClosedLoopRunner scorer(netlist, qmodels[0], config.coreParams,
                            config.powerParams);
    auto run = [&](size_t b, const Program &prog,
                   const ClosedLoopConfig &c) {
        StatusOr<ClosedLoopResult> res = closedLoopSimulate(
            netlist, qmodels[b], prog, c, config.coreParams);
        if (res.ok())
            res->truthPower = scorer.truthPower(res->frames);
        return res;
    };

    std::vector<ClosedLoopResult> baselines;
    for (const DroopLabWorkload &wl : config.workloads) {
        ClosedLoopConfig c;
        c.opmWindow = config.windows[0];
        c.maxCycles = wl.cycles;
        c.controller.vdd = config.vdd;
        c.controller.policy = ThrottleMode::None;
        StatusOr<ClosedLoopResult> res = run(0, wl.program, c);
        if (!res.ok())
            return res.status();
        if (res->truthPower.size() < 4)
            return Status::invalidArgument("workload '", wl.name,
                                           "' produced only ",
                                           res->truthPower.size(),
                                           " recorded cycles");
        baselines.push_back(std::move(*res));
    }

    std::vector<double> triggers;
    for (size_t w = 0; w < config.workloads.size(); ++w) {
        for (const uint32_t window : config.windows) {
            for (size_t b = 0; b < config.bits.size(); ++b) {
                const std::vector<double> di = deltaI(currentFromPower(
                    replayEstimate(netlist, qmodels[b],
                                   baselines[w].frames, window),
                    config.vdd));
                std::vector<double> mags;
                for (size_t k = 1; k < di.size(); ++k)
                    mags.push_back(std::abs(di[k]));
                const double cut =
                    percentileCut(mags, config.triggerPercentile);
                triggers.push_back(cut <= 0.0 ? 1e-12 : cut);
            }
        }
    }

    std::vector<ClosedLoopResult> cells;
    for (size_t w = 0; w < config.workloads.size(); ++w) {
        const DroopLabWorkload &wl = config.workloads[w];
        for (size_t t = 0; t < config.windows.size(); ++t) {
            for (size_t b = 0; b < config.bits.size(); ++b) {
                for (const ThrottleMode policy : config.policies) {
                    ClosedLoopConfig c;
                    c.opmWindow = config.windows[t];
                    c.maxCycles = wl.cycles;
                    c.controller.vdd = config.vdd;
                    c.controller.triggerDelta =
                        triggers[(w * config.windows.size() + t) *
                                     config.bits.size() +
                                 b];
                    c.controller.triggerLatency = config.triggerLatency;
                    c.controller.engageCycles = config.engageCycles;
                    c.controller.policy = policy;
                    c.controller.proportionalLevel =
                        config.proportionalLevel;
                    StatusOr<ClosedLoopResult> res =
                        run(b, wl.program, c);
                    if (!res.ok())
                        return res.status();
                    cells.push_back(std::move(*res));
                }
            }
        }
    }
    return assembleDroopLabReport(config, baselines, triggers, cells);
}

} // namespace apollo::ref
