/**
 * @file
 * Quality/perf guard for the closed-loop droop-mitigation lab
 * (src/control, §7/§8.2). Runs the default {workload} x {tau} x {B} x
 * {policy} x {PDN} grid through the real OPM -> throttle loop on a
 * tiny trained design and records the Pareto summary, the lab's stage
 * times (simulate, calibrate, truth, assemble: the obs trace spans of
 * one sweep, plus its closed-loop runs' and OPM replays' spans summed
 * over workers), its truth-power runs and dedupe hits, and obs counter
 * deltas to BENCH_control.json, headed by the host and build. Gates:
 *   - coverage: every grid cell produces a row,
 *   - dominance: some OPM-guided policy strictly reduces droop cycles
 *     at under 10% IPC loss,
 *   - determinism: the report is byte-identical when re-run on a
 *     different thread count,
 *   - reference: the report equals ref::droopLabPerCell's, which runs
 *     and scores every baseline and cell on its own, with its proxy
 *     bits from ActivityEngine::toggles per proxy per cycle.
 * Usage: bench_droop_lab [--smoke] [--cycles=N] [--out=PATH]
 */

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>

#include "common.hh"
#include "obs/trace.hh"
#include "ref/reference_control.hh"

using namespace apollo;
using namespace apollo::bench;
using namespace apollo::control;

namespace {

double
nowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** The lab's reference design: tiny netlist, deterministic training
 *  mix, Q=40 selection — small enough for tier-1, rich enough for the
 *  burst/phase workloads to droop. */
ApolloModel
trainTinyModel(const Netlist &netlist)
{
    DatasetBuilder tb(netlist);
    Xoshiro256StarStar rng(0xf10);
    for (int i = 0; i < 16; ++i) {
        auto body = GaGenerator::randomBody(rng, 6, 24);
        tb.addProgram(Program::makeLoop("t" + std::to_string(i), body,
                                        3000, rng()),
                      300);
    }
    ApolloTrainConfig cfg;
    cfg.selection.targetQ = 40;
    return trainApollo(tb.build(), cfg, "tiny").model;
}

/**
 * Seconds per lab stage, summed from one sweep's trace spans, and the
 * summed spans of its closed-loop runs and OPM replays (pool workers'
 * busy time inside the simulate and calibrate stages).
 */
struct StageTimes
{
    double simulate = 0.0;
    double calibrate = 0.0;
    double truth = 0.0;
    double assemble = 0.0;
    double closedLoop = 0.0;
    double replay = 0.0;
};

/** Sum the durations of the stage spans in a trace_event document. */
StageTimes
stageTimes(const std::string &trace_json)
{
    StageTimes t;
    const std::pair<const char *, double *> stages[] = {
        {"control.simulate", &t.simulate},
        {"control.calibrate", &t.calibrate},
        {"control.truth_batch", &t.truth},
        {"control.assemble", &t.assemble},
        {"control.closed_loop", &t.closedLoop},
        {"control.replay", &t.replay},
    };
    std::istringstream is(trace_json);
    std::string line;
    while (std::getline(is, line)) {
        const size_t dur = line.find("\"dur\": ");
        if (dur == std::string::npos)
            continue;
        for (const auto &[name, total] : stages)
            if (line.find(std::string("\"name\": \"") + name + "\"") !=
                std::string::npos)
                *total += 1e-6 * std::strtod(line.c_str() + dur + 7,
                                             nullptr);
    }
    return t;
}

} // namespace

int
main(int argc, char **argv)
{
    bool smoke = false;
    uint64_t cycles = 0;
    std::string out = "BENCH_control.json";
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--smoke") == 0)
            smoke = true;
        else if (std::strncmp(argv[i], "--cycles=", 9) == 0)
            cycles = std::strtoull(argv[i] + 9, nullptr, 10);
        else if (std::strncmp(argv[i], "--out=", 6) == 0)
            out = argv[i] + 6;
    }
    if (cycles == 0)
        cycles = smoke ? 800 : 3000;

    std::printf("bench_droop_lab: cycles=%llu%s\n",
                static_cast<unsigned long long>(cycles),
                smoke ? " [smoke]" : "");

    const Netlist netlist = DesignBuilder::build(DesignConfig::tiny());
    const ApolloModel model = trainTinyModel(netlist);
    std::printf("  trained tiny model: Q=%zu\n", model.proxyIds.size());

    const auto before = obsCounters();
    const DroopLabConfig cfg = defaultDroopLabConfig(cycles);
    obs::TraceCollector &trace = obs::TraceCollector::instance();
    trace.clear();
    trace.setEnabled(true);
    const double t0 = nowSeconds();
    StatusOr<DroopLabReport> report = runDroopLab(netlist, model, cfg);
    const double seconds = nowSeconds() - t0;
    trace.setEnabled(false);
    const StageTimes stages = stageTimes(trace.flushJson());
    if (!report.ok()) {
        std::fprintf(stderr, "FAIL: %s\n",
                     report.status().toString().c_str());
        return 1;
    }
    const std::string obs_json = obsDeltaJson(before);
    const auto counters = obsCounters();
    auto delta = [&](const char *name) {
        const auto now = counters.find(name);
        const auto then = before.find(name);
        return (now == counters.end() ? 0 : now->second) -
               (then == before.end() ? 0 : then->second);
    };
    const uint64_t truth_runs = delta("apollo.control.truth_runs");
    const uint64_t truth_dedup = delta("apollo.control.truth_dedup");
    report->render(std::cout);
    std::printf("  lab wall-clock: %.3fs (simulate %.3fs, calibrate "
                "%.3fs, truth %.3fs, assemble %.3fs; runs %.3fs and "
                "replays %.3fs summed over workers)\n",
                seconds, stages.simulate, stages.calibrate, stages.truth,
                stages.assemble, stages.closedLoop, stages.replay);
    std::printf("  truth power: %llu runs scored, %llu dedupe hits\n",
                static_cast<unsigned long long>(truth_runs),
                static_cast<unsigned long long>(truth_dedup));

    const std::string report_json = report->toJson();
    std::ofstream os(out);
    os << "{\n";
    os << "  \"host\": " << hostJson() << ",\n";
    os << "  \"bench\": \"droop_lab\",\n";
    os << "  \"mode\": \"" << (smoke ? "smoke" : "full") << "\",\n";
    os << "  \"cycles\": " << cycles << ",\n";
    os << "  \"seconds\": " << seconds << ",\n";
    os << "  \"stages\": {\"simulate_seconds\": " << stages.simulate
       << ", \"calibrate_seconds\": " << stages.calibrate
       << ", \"truth_seconds\": " << stages.truth
       << ", \"assemble_seconds\": " << stages.assemble
       << ", \"closed_loop_seconds\": " << stages.closedLoop
       << ", \"replay_seconds\": " << stages.replay << "},\n";
    os << "  \"truth_runs\": " << truth_runs << ",\n";
    os << "  \"truth_dedup\": " << truth_dedup << ",\n";
    os << "  \"obs\": " << obs_json << ",\n";
    os << "  \"report\": " << report_json << "\n";
    os << "}\n";
    std::printf("wrote %s\n", out.c_str());

    // Gate 1: full grid coverage.
    const size_t want_rows = report->gridCells * cfg.pdns.size();
    if (report->rows.size() != want_rows) {
        std::fprintf(stderr, "FAIL: %zu rows for %zu grid cells\n",
                     report->rows.size(), want_rows);
        return 1;
    }
    // Gate 2: some OPM-guided policy dominates no-mitigation.
    if (!report->hasDominatingPolicy(0.10)) {
        std::fprintf(stderr,
                     "FAIL: no policy reduces droop cycles at < 10%% "
                     "IPC loss\n");
        return 1;
    }
    // Gate 3: byte-identical report on a different thread count.
    DroopLabConfig two = cfg;
    two.threads = 2;
    StatusOr<DroopLabReport> rerun = runDroopLab(netlist, model, two);
    if (!rerun.ok() || rerun->toJson() != report_json) {
        std::fprintf(stderr,
                     "FAIL: report not deterministic across thread "
                     "counts\n");
        return 1;
    }
    // Gate 4: equal to every baseline and cell run and scored alone.
    const StatusOr<DroopLabReport> per_cell =
        ref::droopLabPerCell(netlist, model, cfg);
    if (!per_cell.ok() || per_cell->toJson() != report_json) {
        std::fprintf(stderr,
                     "FAIL: report differs from the per-cell reference\n");
        return 1;
    }
    std::printf("gates passed: coverage, dominance, determinism, "
                "per-cell reference\n");
    return 0;
}
