/**
 * @file
 * GA training-data generation perf bench: times the design-time
 * bottleneck — the Fig. 3 GA run plus power-uniform training-set
 * export — with the pipeline's optimization layers toggled one at a
 * time:
 *
 *   baseline       serial, uncached, scalar per-cycle fitness path,
 *                  two-pass export (re-simulates every selected
 *                  individual — the seed pipeline)
 *   +vectorized    batched toggle-column / bit-kernel fitness oracle
 *   +cache         genome-keyed fitness cache (elites and converged
 *                  populations skip re-simulation)
 *   +single-pass   dataset export reuses the frames captured during
 *                  fitness simulation
 *   all            + fitness evaluations fanned over the thread pool
 *
 * Counter-seeded slot RNG makes the GA trajectory independent of every
 * layer, so the bench gates hard on (a) identical per-generation
 * best/worst fitness across all layers, (b) byte-identical exported
 * training datasets (including vs the production generateTrainingSet
 * entry point), and (c) a wall-clock speedup floor over the GA run +
 * training selection (the phase these layers optimize). Dataset
 * materialization (DatasetBuilder::build: every signal's toggle
 * columns, then the oracle label pass) is identical across layers and
 * is reported but not gated; in the traced bench/e2e train_n1 run on a
 * 4-vCPU host it took 0.22 s of a 1.84 s model build, next to 0.57 s
 * of GA and 0.92 s of proxy selection.
 * The gated speedup is the best optimized configuration vs baseline:
 * on a multicore host that is the `all` layer; on a single-core host
 * `all` degenerates to `+single-pass` plus pool overhead, and picking
 * the best keeps the gate robust to that noise. Results go to
 * BENCH_ga.json.
 *
 * Usage: bench_perf_ga [--smoke] [--reps=N] [--out=PATH]
 * (--smoke: fast-mode budgets + relaxed timing floor; used by the
 * `perf` ctest label to catch identity/perf regressions.)
 */

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common.hh"

using namespace apollo;
using namespace apollo::bench;

namespace {

struct LayerConfig
{
    const char *name;
    bool vectorized;
    bool cache;
    bool singlePass;
    uint32_t threads; // 0 = hardware concurrency
};

struct LayerResult
{
    std::string name;
    double gaSeconds = 0.0;
    double exportSeconds = 0.0;
    /** Per-generation (best, worst) fitness — the GA trajectory. */
    std::vector<std::pair<double, double>> trajectory;
    GaRunStats stats;
    uint64_t exportSimulatedCycles = 0;
    std::string datasetBytes;
    bool trajectoryMatch = true;
    bool datasetMatch = true;

    double totalSeconds() const { return gaSeconds + exportSeconds; }
};

std::vector<std::pair<double, double>>
trajectoryOf(const GaGenerator &ga, uint32_t generations)
{
    std::vector<std::pair<double, double>> traj(
        generations, {-1e300, 1e300});
    for (const GaIndividual &ind : ga.all()) {
        auto &[best, worst] = traj[ind.generation];
        best = std::max(best, ind.avgPower);
        worst = std::min(worst, ind.avgPower);
    }
    return traj;
}

std::string
serialize(const Dataset &ds)
{
    std::ostringstream os(std::ios::binary);
    saveDataset(os, ds);
    return os.str();
}

/**
 * One full GA + export run with the layer's switches. The export
 * mirrors flow/flows.cc generateTrainingSet exactly (same benchmark
 * names and re-simulation trip counts) so the byte-identity gate
 * compares like with like across layers and vs the production entry.
 */
LayerResult
runLayer(const LayerConfig &layer, const Netlist &netlist,
         const GaConfig &base, const TrainExportBudget &budget,
         int reps)
{
    LayerResult result;
    result.name = layer.name;
    result.gaSeconds = 1e300;
    result.exportSeconds = 1e300;

    GaConfig cfg = base;
    cfg.vectorizedFitness = layer.vectorized;
    cfg.cacheFitness = layer.cache;
    cfg.captureFrames = layer.singlePass;
    cfg.threads = layer.threads;

    for (int rep = 0; rep < reps; ++rep) {
        DatasetBuilder fitness(netlist);

        const auto t0 = std::chrono::steady_clock::now();
        GaGenerator ga(fitness, cfg);
        ga.run();
        const std::vector<GaIndividual> selected =
            ga.selectTrainingSet(budget.benchmarks);
        const auto t1 = std::chrono::steady_clock::now();

        DatasetBuilder train(netlist);
        uint64_t resim_cycles = 0;
        int idx = 0;
        for (const GaIndividual &ind : selected) {
            const std::string name = "ga" + std::to_string(idx++);
            std::span<const ActivityFrame> captured =
                ga.capturedFrames(ind.id);
            if (captured.size() >= budget.cyclesEach) {
                train.addFrames(
                    name, captured.subspan(0, budget.cyclesEach));
            } else {
                const size_t before = train.frames().size();
                train.addProgram(
                    GaGenerator::toProgram(
                        ind, name,
                        GaGenerator::fitnessIterations(
                            ind.body.size(), cfg.fitnessCycles)),
                    budget.cyclesEach);
                resim_cycles += train.frames().size() - before;
            }
        }
        const Dataset ds = train.build();
        const auto t2 = std::chrono::steady_clock::now();

        result.gaSeconds = std::min(
            result.gaSeconds,
            std::chrono::duration<double>(t1 - t0).count());
        result.exportSeconds = std::min(
            result.exportSeconds,
            std::chrono::duration<double>(t2 - t1).count());
        if (rep == 0) {
            result.trajectory = trajectoryOf(ga, cfg.generations);
            result.stats = ga.stats();
            result.exportSimulatedCycles = resim_cycles;
            result.datasetBytes = serialize(ds);
        }
    }
    return result;
}

void
writeJson(const std::string &path, const char *mode,
          const GaConfig &cfg, const TrainExportBudget &budget,
          const std::vector<LayerResult> &runs, double speedup,
          bool production_match, const std::string &obs_json)
{
    std::ofstream os(path);
    os << "{\n";
    os << "  \"bench\": \"ga_training_pipeline\",\n";
    os << "  \"mode\": \"" << mode << "\",\n";
    os << "  \"population\": " << cfg.populationSize
       << ",\n  \"generations\": " << cfg.generations
       << ",\n  \"fitness_cycles\": " << cfg.fitnessCycles
       << ",\n  \"benchmarks\": " << budget.benchmarks
       << ",\n  \"cycles_each\": " << budget.cyclesEach << ",\n";
    os << "  \"configs\": [\n";
    for (size_t i = 0; i < runs.size(); ++i) {
        const LayerResult &r = runs[i];
        os << "    {\"name\": \"" << r.name
           << "\", \"ga_seconds\": " << r.gaSeconds
           << ", \"export_seconds\": " << r.exportSeconds
           << ", \"seconds\": " << r.totalSeconds()
           << ", \"evaluations\": " << r.stats.evaluations
           << ", \"cache_hits\": " << r.stats.cacheHits
           << ", \"cache_hit_rate\": " << r.stats.hitRate()
           << ", \"fitness_cycles_simulated\": "
           << r.stats.simulatedCycles
           << ", \"export_cycles_resimulated\": "
           << r.exportSimulatedCycles
           << ", \"trajectory_matches_baseline\": "
           << (r.trajectoryMatch ? "true" : "false")
           << ", \"dataset_matches_baseline\": "
           << (r.datasetMatch ? "true" : "false") << "}"
           << (i + 1 < runs.size() ? "," : "") << "\n";
    }
    os << "  ],\n";
    os << "  \"obs\": " << obs_json << ",\n";
    os << "  \"dataset_matches_production_pipeline\": "
       << (production_match ? "true" : "false") << ",\n";
    os << "  \"speedup_ga_best_vs_baseline\": " << speedup << ",\n";
    os << "  \"speedup_ga_all_vs_baseline\": "
       << (runs.front().gaSeconds / runs.back().gaSeconds) << ",\n";
    os << "  \"speedup_total_all_vs_baseline\": "
       << (runs.front().totalSeconds() / runs.back().totalSeconds())
       << "\n";
    os << "}\n";
}

} // namespace

int
main(int argc, char **argv)
{
    bool smoke = false;
    int reps = 1;
    std::string out = "BENCH_ga.json";
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--smoke") == 0)
            smoke = true;
        else if (std::strncmp(argv[i], "--reps=", 7) == 0)
            reps = std::atoi(argv[i] + 7);
        else if (std::strncmp(argv[i], "--out=", 6) == 0)
            out = argv[i] + 6;
    }

    // The Fig. 3 workload: the N1ish design with the shared bench GA
    // budgets. Smoke mode uses the fast-mode budgets so the perf ctest
    // label stays quick.
    const Netlist netlist =
        DesignBuilder::build(DesignConfig::neoverseN1ish());
    const GaConfig base = benchGaConfig(smoke, /*full_generations=*/12);
    TrainExportBudget budget = benchTrainBudget(Design::N1ish, smoke);
    if (smoke) {
        budget.benchmarks = 12;
        budget.cyclesEach = 150;
    }

    std::printf("bench_perf_ga: design=%s pop=%u gens=%u "
                "fitness_cycles=%llu export=%zux%llu reps=%d%s\n",
                netlist.name().c_str(), base.populationSize,
                base.generations,
                static_cast<unsigned long long>(base.fitnessCycles),
                budget.benchmarks,
                static_cast<unsigned long long>(budget.cyclesEach),
                reps, smoke ? " [smoke]" : "");

    const auto obs_before = obsCounters();
    const LayerConfig layers[] = {
        {"baseline", false, false, false, 1},
        {"vectorized", true, false, false, 1},
        {"vectorized+cache", true, true, false, 1},
        {"vectorized+cache+single-pass", true, true, true, 1},
        {"all", true, true, true, 0},
    };

    std::vector<LayerResult> runs;
    for (const LayerConfig &layer : layers) {
        LayerResult r = runLayer(layer, netlist, base, budget, reps);
        if (!runs.empty()) {
            r.trajectoryMatch =
                r.trajectory == runs.front().trajectory;
            r.datasetMatch =
                r.datasetBytes == runs.front().datasetBytes;
        }
        std::printf("  %-29s %8.3fs (ga %7.3fs + export %6.3fs)  "
                    "evals=%-4llu hits=%-4llu resim_cycles=%-6llu%s%s\n",
                    r.name.c_str(), r.totalSeconds(), r.gaSeconds,
                    r.exportSeconds,
                    static_cast<unsigned long long>(
                        r.stats.evaluations),
                    static_cast<unsigned long long>(r.stats.cacheHits),
                    static_cast<unsigned long long>(
                        r.exportSimulatedCycles),
                    r.trajectoryMatch ? "" : "  TRAJECTORY MISMATCH",
                    r.datasetMatch ? "" : "  DATASET MISMATCH");
        runs.push_back(std::move(r));
    }

    // Tie the bench to the production entry point: the fully optimized
    // flow through generateTrainingSet must emit the same bytes.
    TrainingGenOptions opts;
    opts.ga = base;
    opts.benchmarks = budget.benchmarks;
    opts.cyclesEach = budget.cyclesEach;
    const StatusOr<TrainingGenReport> report =
        generateTrainingSet(netlist, opts);
    bool production_match =
        report.ok() &&
        serialize(report->dataset) == runs.front().datasetBytes;
    std::printf("  production generateTrainingSet: %s (resimulated "
                "%llu cycles at export)\n",
                production_match ? "byte-identical" : "MISMATCH",
                report.ok() ? static_cast<unsigned long long>(
                                  report->exportSimulatedCycles)
                            : 0ULL);

    double best_ga = runs.back().gaSeconds;
    for (const LayerResult &r : runs)
        if (&r != &runs.front())
            best_ga = std::min(best_ga, r.gaSeconds);
    const double speedup = runs.front().gaSeconds / best_ga;
    std::printf("GA speedup (best optimized vs baseline): %.2fx  "
                "(all layers: %.2fx, end-to-end with export: %.2fx)\n",
                speedup,
                runs.front().gaSeconds / runs.back().gaSeconds,
                runs.front().totalSeconds() /
                    runs.back().totalSeconds());
    writeJson(out, smoke ? "smoke" : "full", base, budget, runs,
              speedup, production_match, obsDeltaJson(obs_before));
    std::printf("wrote %s\n", out.c_str());

    bool identical = production_match;
    for (const LayerResult &r : runs)
        identical = identical && r.trajectoryMatch && r.datasetMatch;
    if (!identical) {
        std::fprintf(stderr,
                     "FAIL: optimized configurations changed the GA "
                     "trajectory or the exported dataset\n");
        return 1;
    }
    // Timing gate: generous in smoke mode (shared CI machines), the
    // paper-trajectory target in full mode.
    const double floor = smoke ? 1.0 : 3.0;
    if (speedup < floor) {
        std::fprintf(stderr, "FAIL: speedup %.2fx below %.1fx floor\n",
                     speedup, floor);
        return 1;
    }
    return 0;
}
