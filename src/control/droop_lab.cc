#include "control/droop_lab.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <memory>
#include <ostream>

#include "droop/droop.hh"
#include "flow/flows.hh"
#include "gen/test_suite.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "util/table.hh"
#include "util/thread_pool.hh"

namespace apollo::control {

namespace {

std::string
fmtDouble(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

/**
 * A droop-rich workload: tight max-power bursts separated by near-idle
 * stretches, so current ramps hard at every phase edge (the Ldi/dt
 * worst case §8.2 throttles against).
 */
Program
makeBurstIdleWorkload(const std::string &name, uint64_t approx_cycles,
                      uint64_t seed)
{
    using namespace asm_helpers;

    const std::vector<std::vector<Instruction>> phases = {
        maxPowerBody(),
        {nop(), nop(), nop(), nop(), nop(), nop(), addi(0, 0, 1)},
    };

    const uint64_t rounds = 6;
    const uint64_t per_phase_cycles = std::max<uint64_t>(
        120, approx_cycles / (rounds * phases.size()));

    std::vector<Instruction> instrs;
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
        }
    }

    Program prog(name, std::move(instrs));
    prog.setDataSeed(seed);
    return prog;
}

ThreadPool &
selectPool(uint32_t threads, std::unique_ptr<ThreadPool> &local)
{
    if (threads == 0)
        return ThreadPool::global();
    local = std::make_unique<ThreadPool>(threads);
    return *local;
}

Status
firstError(const std::vector<Status> &statuses)
{
    for (const Status &st : statuses)
        if (!st.ok())
            return st;
    return Status::okStatus();
}

} // namespace

const char *
throttleModeName(ThrottleMode mode)
{
    switch (mode) {
      case ThrottleMode::None:
        return "none";
      case ThrottleMode::Scheme1:
        return "scheme1";
      case ThrottleMode::Scheme2:
        return "scheme2";
      case ThrottleMode::Scheme3:
        return "scheme3";
      case ThrottleMode::Proportional:
        return "proportional";
    }
    return "unknown";
}

Status
DroopLabConfig::validate() const
{
    if (workloads.empty() || windows.empty() || bits.empty() ||
        policies.empty() || pdns.empty())
        return Status::invalidArgument(
            "droop lab needs at least one workload, window, bits "
            "setting, policy, and PDN variant");
    if (!(vdd > 0.0) || !std::isfinite(vdd))
        return Status::invalidArgument(
            "vdd must be positive and finite, got ", vdd);
    if (!(triggerPercentile > 0.0 && triggerPercentile < 1.0))
        return Status::invalidArgument(
            "trigger percentile must be in (0, 1), got ",
            triggerPercentile);
    if (engageCycles == 0)
        return Status::invalidArgument(
            "engage window must be at least 1 cycle");
    if (proportionalLevel == 0)
        return Status::invalidArgument(
            "proportional level must be at least 1");
    if (threads > kMaxWorkerThreads)
        return Status::invalidArgument("droop lab threads must be at most ",
                                       kMaxWorkerThreads, ", got ",
                                       threads);
    for (uint32_t w : windows)
        if (w == 0 || !std::has_single_bit(w))
            return Status::invalidArgument(
                "OPM window must be a power of two, got ", w);
    for (ThrottleMode p : policies)
        if (p == ThrottleMode::None)
            return Status::invalidArgument(
                "policy None is the implicit baseline; sweep only "
                "active policies");
    for (const DroopLabWorkload &w : workloads)
        if (w.cycles < 4)
            return Status::invalidArgument(
                "workload '", w.name, "' needs at least 4 cycles");
    for (const PdnScenario &p : pdns) {
        if (!(p.thresholdFrac > 0.0 && p.thresholdFrac < 1.0))
            return Status::invalidArgument(
                "PDN '", p.name, "': threshold fraction must be in "
                "(0, 1), got ", p.thresholdFrac);
        if (!(p.rStaticVolts >= 0.0) || !(p.dynamicGainVolts >= 0.0) ||
            !std::isfinite(p.rStaticVolts) ||
            !std::isfinite(p.dynamicGainVolts))
            return Status::invalidArgument(
                "PDN '", p.name, "': gains must be non-negative and "
                "finite");
        if (!(p.resonancePeriodCycles > 0.0) ||
            !std::isfinite(p.resonancePeriodCycles))
            return Status::invalidArgument(
                "PDN '", p.name, "': resonance period must be positive "
                "and finite, got ", p.resonancePeriodCycles);
        if (!std::isfinite(p.damping))
            return Status::invalidArgument("PDN '", p.name,
                                           "': damping must be finite, got ",
                                           p.damping);
    }
    return Status::okStatus();
}

DroopLabConfig
defaultDroopLabConfig(uint64_t cycles)
{
    DroopLabConfig cfg;
    cfg.workloads.push_back(
        {"burst_idle", makeBurstIdleWorkload("burst_idle", cycles, 0xd1),
         cycles});
    cfg.workloads.push_back(
        {"phase_mix", makeLongWorkload("phase_mix", cycles, 0xd2),
         cycles});
    for (const TestBenchmark &tb : designerTestSuite()) {
        if (tb.program.name() == "maxpwr_cpu") {
            cfg.workloads.push_back({"maxpwr_cpu", tb.program, cycles});
            break;
        }
    }
    return cfg;
}

bool
DroopLabReport::hasDominatingPolicy(double max_ipc_loss) const
{
    for (const DroopLabRow &row : rows)
        if (row.droopCyclesAvoided > 0 && row.ipcLossFrac < max_ipc_loss)
            return true;
    return false;
}

void
DroopLabReport::render(std::ostream &os) const
{
    TablePrinter table({"workload", "tau", "B", "policy", "pdn",
                        "pearson dI", "droop base", "droop", "avoided",
                        "ipc loss", "engaged", "pareto"});
    for (const DroopLabRow &row : rows) {
        table.addRow(
            {row.workload, TablePrinter::integer(row.window),
             TablePrinter::integer(row.bits),
             throttleModeName(row.policy), row.pdn,
             TablePrinter::num(row.pearsonDeltaI, 3),
             TablePrinter::integer(
                 static_cast<long long>(row.baseDroopCycles)),
             TablePrinter::integer(
                 static_cast<long long>(row.droopCycles)),
             TablePrinter::integer(row.droopCyclesAvoided),
             TablePrinter::percent(row.ipcLossFrac),
             TablePrinter::integer(
                 static_cast<long long>(row.engagedCycles)),
             row.pareto ? "*" : ""});
    }
    table.render(os);
}

std::string
DroopLabReport::toJson() const
{
    std::string json = "{\n  \"schema\": \"apollo.droop_lab.v1\",\n";
    json += "  \"grid_cells\": " + std::to_string(gridCells) + ",\n";
    json += "  \"rows\": [\n";
    for (size_t i = 0; i < rows.size(); ++i) {
        const DroopLabRow &r = rows[i];
        json += "    {\"workload\": \"" + r.workload + "\"";
        json += ", \"tau\": " + std::to_string(r.window);
        json += ", \"bits\": " + std::to_string(r.bits);
        json += std::string(", \"policy\": \"") +
                throttleModeName(r.policy) + "\"";
        json += ", \"pdn\": \"" + r.pdn + "\"";
        json += ", \"trigger_delta\": " + fmtDouble(r.triggerDelta);
        json += ", \"pearson_delta_i\": " + fmtDouble(r.pearsonDeltaI);
        json += ", \"base_droop_cycles\": " +
                std::to_string(r.baseDroopCycles);
        json += ", \"droop_cycles\": " + std::to_string(r.droopCycles);
        json += ", \"droop_cycles_avoided\": " +
                std::to_string(r.droopCyclesAvoided);
        json += ", \"base_min_voltage\": " + fmtDouble(r.baseMinVoltage);
        json += ", \"min_voltage\": " + fmtDouble(r.minVoltage);
        json += ", \"base_ipc\": " + fmtDouble(r.baseIpc);
        json += ", \"ipc\": " + fmtDouble(r.ipc);
        json += ", \"ipc_loss_frac\": " + fmtDouble(r.ipcLossFrac);
        json += ", \"triggers\": " + std::to_string(r.triggers);
        json += ", \"engaged_cycles\": " +
                std::to_string(r.engagedCycles);
        json += std::string(", \"pareto\": ") +
                (r.pareto ? "true" : "false");
        json += i + 1 < rows.size() ? "},\n" : "}\n";
    }
    json += "  ],\n";
    json += std::string("  \"dominating_policy\": ") +
            (hasDominatingPolicy() ? "true" : "false") + "\n";
    json += "}\n";
    return json;
}

DroopLabReport
assembleDroopLabReport(const DroopLabConfig &config,
                       std::span<const ClosedLoopResult> baselines,
                       std::span<const double> triggers,
                       std::span<const ClosedLoopResult> cells)
{
    const size_t n_w = config.workloads.size();
    const size_t n_t = config.windows.size();
    const size_t n_b = config.bits.size();
    const size_t n_p = config.policies.size();
    const size_t n_cells = n_w * n_t * n_b * n_p;
    APOLLO_REQUIRE(baselines.size() == n_w &&
                       triggers.size() == n_w * n_t * n_b &&
                       cells.size() == n_cells,
                   "droop lab report: ", baselines.size(), " baselines, ",
                   triggers.size(), " triggers and ", cells.size(),
                   " cells for a ", n_cells, "-cell grid");

    // Per-cell Fig. 17 Pearson of estimated vs truth Delta-I.
    std::vector<double> pearson(n_cells, 0.0);
    for (size_t i = 0; i < n_cells; ++i)
        if (cells[i].truthPower.size() >= 4)
            pearson[i] = analyzeDidt(cells[i].truthPower,
                                     cells[i].estPower, config.vdd)
                             .pearsonDeltaI;

    // Cross with the PDN variants (post-hoc RLC simulation on both
    // truth traces) and assemble rows in deterministic grid order.
    DroopLabReport report;
    report.gridCells = n_cells;
    report.rows.reserve(n_cells * config.pdns.size());
    for (size_t w = 0; w < n_w; ++w) {
        const std::vector<float> &base_truth = baselines[w].truthPower;
        double sum = 0.0;
        for (float p : base_truth)
            sum += p;
        const double mean_current =
            sum / (static_cast<double>(base_truth.size()) * config.vdd);
        for (size_t pd = 0; pd < config.pdns.size(); ++pd) {
            const PdnScenario &scen = config.pdns[pd];
            PdnParams pdn;
            pdn.vdd = config.vdd;
            pdn.resonancePeriodCycles = scen.resonancePeriodCycles;
            pdn.damping = scen.damping;
            pdn.rStatic = scen.rStaticVolts / mean_current;
            pdn.dynamicGain = scen.dynamicGainVolts / mean_current;
            const double threshold = config.vdd * scen.thresholdFrac;
            const DroopSimResult base =
                simulateDroop(base_truth, pdn, threshold);
            const double base_ipc = baselines[w].stats.ipc();

            for (size_t t = 0; t < n_t; ++t) {
                for (size_t b = 0; b < n_b; ++b) {
                    for (size_t p = 0; p < n_p; ++p) {
                        const size_t ci =
                            ((w * n_t + t) * n_b + b) * n_p + p;
                        const ClosedLoopResult &cell = cells[ci];
                        const DroopSimResult mit = simulateDroop(
                            cell.truthPower, pdn, threshold);
                        DroopLabRow row;
                        row.workload = config.workloads[w].name;
                        row.window = config.windows[t];
                        row.bits = config.bits[b];
                        row.policy = config.policies[p];
                        row.pdn = scen.name;
                        row.triggerDelta =
                            triggers[(w * n_t + t) * n_b + b];
                        row.pearsonDeltaI = pearson[ci];
                        row.baseDroopCycles = base.droopCycles;
                        row.droopCycles = mit.droopCycles;
                        row.droopCyclesAvoided =
                            static_cast<int64_t>(base.droopCycles) -
                            static_cast<int64_t>(mit.droopCycles);
                        row.baseMinVoltage = base.minVoltage;
                        row.minVoltage = mit.minVoltage;
                        row.baseIpc = base_ipc;
                        row.ipc = cell.stats.ipc();
                        row.ipcLossFrac =
                            base_ipc > 0.0
                                ? (base_ipc - row.ipc) / base_ipc
                                : 0.0;
                        row.triggers = cell.triggers;
                        row.engagedCycles = cell.engagedCycles;
                        report.rows.push_back(std::move(row));
                    }
                }
            }
        }
    }

    // Pareto fronts per (workload, pdn): maximize droop cycles
    // avoided, minimize IPC loss.
    const size_t group = n_t * n_b * n_p;
    for (size_t g = 0; g + group <= report.rows.size(); g += group) {
        for (size_t i = g; i < g + group; ++i) {
            DroopLabRow &row = report.rows[i];
            bool dominated = false;
            for (size_t j = g; j < g + group && !dominated; ++j) {
                if (j == i)
                    continue;
                const DroopLabRow &other = report.rows[j];
                const bool no_worse =
                    other.droopCyclesAvoided >= row.droopCyclesAvoided &&
                    other.ipcLossFrac <= row.ipcLossFrac;
                const bool better =
                    other.droopCyclesAvoided > row.droopCyclesAvoided ||
                    other.ipcLossFrac < row.ipcLossFrac;
                dominated = no_worse && better;
            }
            row.pareto = !dominated;
        }
    }
    return report;
}

StatusOr<DroopLabReport>
runDroopLab(const Netlist &netlist, const ApolloModel &model,
            const DroopLabConfig &config)
{
    if (Status st = config.validate(); !st.ok())
        return st;
    APOLLO_TRACE_SPAN("flow.droop_lab");
    APOLLO_SCOPED_TIMER("apollo.flow.droop_lab_seconds");

    // Quantize once per bits setting; every cell shares the result.
    std::vector<QuantizedModel> qmodels;
    qmodels.reserve(config.bits.size());
    for (uint32_t b : config.bits) {
        StatusOr<QuantizedModel> qm = tryQuantizeModel(model, b);
        if (!qm.ok())
            return qm.status();
        qmodels.push_back(std::move(*qm));
    }

    const size_t n_w = config.workloads.size();
    const size_t n_t = config.windows.size();
    const size_t n_b = config.bits.size();
    const size_t n_p = config.policies.size();

    std::unique_ptr<ThreadPool> local;
    ThreadPool &pool = selectPool(config.threads, local);

    // Stage A: simulate one unthrottled baseline per workload — the
    // frames stage B calibrates on, and the IPC and (after its truth
    // batch in stage C) the power every cell is scored against.
    std::vector<ClosedLoopResult> baselines(n_w);
    std::vector<Status> errors(n_w, Status::okStatus());
    {
        APOLLO_TRACE_SPAN("control.simulate");
        pool.parallelFor(n_w, [&](size_t i0, size_t i1) {
            for (size_t w = i0; w < i1; ++w) {
                const DroopLabWorkload &wl = config.workloads[w];
                ClosedLoopRunner runner(netlist, qmodels[0],
                                        config.coreParams,
                                        config.powerParams);
                ClosedLoopConfig c;
                c.opmWindow = config.windows[0];
                c.maxCycles = wl.cycles;
                c.controller.vdd = config.vdd;
                c.controller.policy = ThrottleMode::None;
                StatusOr<ClosedLoopResult> res =
                    runner.simulate(wl.program, c);
                if (!res.ok()) {
                    errors[w] = res.status();
                    continue;
                }
                if (res->frames.size() < 4) {
                    errors[w] = Status::invalidArgument(
                        "workload '", wl.name, "' produced only ",
                        res->frames.size(),
                        " recorded cycles; the lab needs at least 4");
                    continue;
                }
                baselines[w] = std::move(*res);
            }
        });
    }
    if (Status st = firstError(errors); !st.ok())
        return st;

    // Stage B: per (workload, tau, B) — replay the OPM over the
    // baseline frames and calibrate the trigger as the configured
    // percentile of estimated |Delta-I| (the §8.2 precursor cut).
    const size_t n_wtb = n_w * n_t * n_b;
    std::vector<double> triggers(n_wtb);
    {
        APOLLO_TRACE_SPAN("control.calibrate");
        pool.parallelFor(n_wtb, [&](size_t i0, size_t i1) {
            for (size_t i = i0; i < i1; ++i) {
                const size_t w = i / (n_t * n_b);
                const size_t t = (i / n_b) % n_t;
                const size_t b = i % n_b;
                ClosedLoopRunner runner(netlist, qmodels[b],
                                        config.coreParams,
                                        config.powerParams);
                const std::vector<float> est = runner.replayEstimate(
                    baselines[w].frames, config.windows[t]);
                const std::vector<double> di =
                    deltaI(currentFromPower(est, config.vdd));
                std::vector<double> mags;
                mags.reserve(di.size() - 1);
                for (size_t k = 1; k < di.size(); ++k)
                    mags.push_back(std::abs(di[k]));
                double trigger =
                    percentileCut(mags, config.triggerPercentile);
                // A flat estimate (coarse quantization) can cut at 0;
                // keep the controller config valid — with no estimated
                // rises above epsilon it still never fires.
                if (trigger <= 0.0)
                    trigger = 1e-12;
                triggers[i] = trigger;
            }
        });
    }

    // Stage C: per (workload, tau), simulate the group's (B, policy)
    // cells in parallel, then score their truth power as one batch
    // (with the workload's baseline in its first group). Frames are
    // freed after each batch, so at most one group and the baselines
    // not yet scored hold frames.
    const size_t group = n_b * n_p;
    const size_t n_cells = n_wtb * n_p;
    std::vector<ClosedLoopResult> cells(n_cells);
    std::vector<Status> cellErrors(group, Status::okStatus());
    const ClosedLoopRunner scorer(netlist, qmodels[0], config.coreParams,
                                  config.powerParams);
    for (size_t w = 0; w < n_w; ++w) {
        const DroopLabWorkload &wl = config.workloads[w];
        for (size_t t = 0; t < n_t; ++t) {
            const size_t c0 = (w * n_t + t) * group;
            {
                APOLLO_TRACE_SPAN("control.simulate");
                pool.parallelFor(group, [&](size_t k0, size_t k1) {
                    for (size_t k = k0; k < k1; ++k) {
                        const size_t b = k / n_p;
                        const size_t p = k % n_p;
                        ClosedLoopRunner runner(netlist, qmodels[b],
                                                config.coreParams,
                                                config.powerParams);
                        ClosedLoopConfig c;
                        c.opmWindow = config.windows[t];
                        c.maxCycles = wl.cycles;
                        c.controller.vdd = config.vdd;
                        c.controller.triggerDelta =
                            triggers[(w * n_t + t) * n_b + b];
                        c.controller.triggerLatency = config.triggerLatency;
                        c.controller.engageCycles = config.engageCycles;
                        c.controller.policy = config.policies[p];
                        c.controller.proportionalLevel =
                            config.proportionalLevel;
                        StatusOr<ClosedLoopResult> res =
                            runner.simulate(wl.program, c);
                        if (!res.ok()) {
                            cellErrors[k] = res.status();
                            continue;
                        }
                        cells[c0 + k] = std::move(*res);
                    }
                });
            }
            if (Status st = firstError(cellErrors); !st.ok())
                return st;

            std::vector<ClosedLoopResult *> scored;
            for (size_t k = 0; k < group; ++k)
                scored.push_back(&cells[c0 + k]);
            if (t == 0)
                scored.push_back(&baselines[w]);
            std::vector<std::span<const ActivityFrame>> runs;
            for (const ClosedLoopResult *res : scored)
                runs.push_back(res->frames);
            std::vector<std::vector<float>> truth =
                scorer.truthPowers(runs, &pool);
            for (size_t k = 0; k < scored.size(); ++k) {
                scored[k]->truthPower = std::move(truth[k]);
                scored[k]->frames.clear();
                scored[k]->frames.shrink_to_fit();
            }
        }
    }

    // Stage D: cross with the PDN variants and assemble the rows.
    DroopLabReport report;
    {
        APOLLO_TRACE_SPAN("control.assemble");
        report = assembleDroopLabReport(config, baselines, triggers, cells);
    }
    APOLLO_COUNT("apollo.control.lab_runs", 1);
    APOLLO_COUNT("apollo.control.scenarios", report.rows.size());
    return report;
}

} // namespace apollo::control
