/**
 * @file
 * GA training-data generation perf bench: times the design-time
 * bottleneck — the Fig. 3 GA run plus power-uniform training-set
 * export — through the one production pipeline (parallel, cached,
 * single-pass, column-kernel fitness; docs/INTERNALS.md §9) at two
 * thread counts:
 *
 *   serial   threads=1
 *   all      threads=0 (the global pool, hardware concurrency)
 *
 * and against the src/ref fitness transcription, which evaluates
 * ref::fitnessAveragePower one cycle and one signal at a time over
 * every individual's captured window. That is the fitness work of the
 * uncached serial seed pipeline without its core simulation, so the
 * gate below is no weaker than one against the seed pipeline itself.
 *
 * A toggle-kernel ablation then times ToggleColumnGenerator::fillColumn
 * on one thread for each fused kernel implementation the host can run
 * (portable, and avx512; activity/toggle_kernels.hh) over every N1ish
 * signal and the rows of a phase_mix program (4,000 in full mode), in
 * three shapes: one whole-window bind (the single-run truth-power
 * shape), 64-row binds (the export shape), and one bind of 8 runs
 * with shared cycle stamps, 8 phase_mix seeds filled by one kernel
 * pass per signal (the batched truth-power shape). The row orientation
 * (togglekernels::RowKernel, the closed loop's per-cycle path) binds
 * every signal once and fills one row per call over the same rows. It
 * reports ns per toggle bit (signal-row), and the time of one
 * whole-window stride-1 FitnessEvaluator::cyclePowers.
 *
 * Gates (exit 1 with a FAIL: line):
 *  (a) both rows produce the same per-generation best/worst fitness
 *      and byte-identical exported datasets, equal to the production
 *      generateTrainingSet entry point;
 *  (b) every individual's captured window equals a fresh serial
 *      re-simulation of its program (so the cache served it its own
 *      genome's result), and its avgPower equals
 *      ref::fitnessAveragePower over that window, bit for bit;
 *  (c) ref_fitness_seconds / best ga_seconds reaches the floor (3x in
 *      full mode, 1x in smoke mode). ga_seconds covers the GA run plus
 *      training selection; the best row is `all` on a multicore host
 *      and `serial` on a single-core one, where `all` only adds pool
 *      overhead;
 *  (d) in the two single-run ablation shapes, every implementation's
 *      columns equal the dispatched implementation's word for word,
 *      in the 8-run shape each run's columns equal its own single-run
 *      fill, and every implementation's rows equal
 *      ActivityEngine::toggles bit for bit (smoke mode too).
 *
 * Dataset materialization (DatasetBuilder::build: every signal's
 * toggle columns, then the label pass) is reported but not gated.
 * Results go to BENCH_ga.json, headed by bench/common's hostJson().
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

#include "activity/toggle_columns.hh"
#include "common.hh"
#include "gen/fitness_eval.hh"
#include "ref/reference_ga.hh"

using namespace apollo;
using namespace apollo::bench;

namespace {

using Clock = std::chrono::steady_clock;

double
secondsBetween(Clock::time_point t0, Clock::time_point t1)
{
    return std::chrono::duration<double>(t1 - t0).count();
}

/** The reference fitness pass over every individual's window. */
struct ReferenceResult
{
    size_t windows = 0;
    uint64_t cycles = 0;
    double seconds = 0.0;
    /** Captured windows that differ from a fresh re-simulation. */
    size_t frameMismatches = 0;
    /** avgPower values that differ from the reference in any bit. */
    size_t mismatches = 0;
};

struct PipelineRun
{
    std::string name;
    uint32_t threads = 0;
    double gaSeconds = 1e300;
    double exportSeconds = 1e300;
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

bool
sameFrames(std::span<const ActivityFrame> a,
           std::span<const ActivityFrame> b)
{
    if (a.size() != b.size())
        return false;
    for (size_t i = 0; i < a.size(); ++i)
        if (a[i].cycle != b[i].cycle || a[i].activity != b[i].activity ||
            a[i].clockEnabled != b[i].clockEnabled ||
            a[i].dataToggle != b[i].dataToggle)
            return false;
    return true;
}

/**
 * Certify every individual against src/ref: its captured window must
 * equal a fresh serial re-simulation of its program (untimed), and its
 * avgPower must equal ref::fitnessAveragePower over that window (timed;
 * the reference's run time is the gate's baseline). A cache that
 * served an individual another genome's result fails the first check.
 */
ReferenceResult
checkAgainstReference(const GaGenerator &ga, const DatasetBuilder &builder,
                      const GaConfig &cfg)
{
    ReferenceResult ref_run;
    std::vector<ActivityFrame> resim;
    for (const GaIndividual &ind : ga.all()) {
        const std::span<const ActivityFrame> frames =
            ga.capturedFrames(ind.id);
        resim.clear();
        TimingCore core(builder.coreParams());
        core.run(GaGenerator::toProgram(
                     ind, "ga",
                     GaGenerator::fitnessIterations(ind.body.size(),
                                                    cfg.fitnessCycles)),
                 cfg.fitnessCycles,
                 [&](const ActivityFrame &f) { resim.push_back(f); });
        if (!sameFrames(frames, resim))
            ref_run.frameMismatches++;

        const auto t0 = Clock::now();
        const double want = ref::fitnessAveragePower(
            builder.netlist(), builder.engine(), builder.oracle(), frames,
            cfg.fitnessSignalStride);
        ref_run.seconds += secondsBetween(t0, Clock::now());
        ref_run.windows++;
        ref_run.cycles += frames.size();
        if (want != ind.avgPower)
            ref_run.mismatches++;
    }
    return ref_run;
}

/**
 * One full GA + export run per rep (best time kept). The export
 * mirrors flow/flows.cc generateTrainingSet exactly (same benchmark
 * names and re-simulation trip counts) so the byte-identity gate
 * compares like with like across rows and vs the production entry.
 * When @p ref_out is set, the first rep's individuals are also
 * checked against the reference, outside the timed region.
 */
PipelineRun
runPipeline(const char *name, uint32_t threads, const Netlist &netlist,
            const GaConfig &base, const TrainExportBudget &budget,
            int reps, ReferenceResult *ref_out)
{
    PipelineRun result;
    result.name = name;
    result.threads = threads;

    GaConfig cfg = base;
    cfg.threads = threads;

    for (int rep = 0; rep < reps; ++rep) {
        DatasetBuilder fitness(netlist);

        const auto t0 = Clock::now();
        GaGenerator ga(fitness, cfg);
        ga.run();
        const std::vector<GaIndividual> selected =
            ga.selectTrainingSet(budget.benchmarks);
        const auto t1 = Clock::now();

        DatasetBuilder train(netlist);
        uint64_t resim_cycles = 0;
        int idx = 0;
        for (const GaIndividual &ind : selected) {
            const std::string bench_name = "ga" + std::to_string(idx++);
            const std::span<const ActivityFrame> captured =
                ga.capturedFrames(ind.id);
            if (captured.size() >= budget.cyclesEach) {
                train.addFrames(
                    bench_name, captured.subspan(0, budget.cyclesEach));
            } else {
                const size_t before = train.frames().size();
                train.addProgram(
                    GaGenerator::toProgram(
                        ind, bench_name,
                        GaGenerator::fitnessIterations(
                            ind.body.size(), cfg.fitnessCycles)),
                    budget.cyclesEach);
                resim_cycles += train.frames().size() - before;
            }
        }
        const Dataset ds = train.build();
        const auto t2 = Clock::now();

        result.gaSeconds =
            std::min(result.gaSeconds, secondsBetween(t0, t1));
        result.exportSeconds =
            std::min(result.exportSeconds, secondsBetween(t1, t2));
        if (rep == 0) {
            result.trajectory = trajectoryOf(ga, cfg.generations);
            result.stats = ga.stats();
            result.exportSimulatedCycles = resim_cycles;
            result.datasetBytes = serialize(ds);
            if (ref_out)
                *ref_out = checkAgainstReference(ga, fitness, cfg);
        }
    }
    return result;
}

/** One fused toggle kernel's ablation timings (best of the reps). */
struct KernelRun
{
    togglekernels::Impl impl = togglekernels::Impl::Portable;
    double windowNsPerBit = 1e300;
    double blockNsPerBit = 1e300;
    double bind8NsPerBit = 1e300;
    double rowNsPerBit = 1e300;
    /** Both single-run shapes equal the dispatched kernel's, word for
     *  word. */
    bool matchesDispatched = true;
    /** Each run of the 8-run bind equals its own single-run fill. */
    bool bind8MatchesSingle = true;
    /** Every row equals ActivityEngine::toggles, bit for bit. */
    bool rowsMatchDefinition = true;
};

struct KernelAblation
{
    size_t rows = 0;
    size_t signals = 0;
    std::vector<KernelRun> runs;
    double cyclePowersSeconds = 1e300;

    bool identical() const
    {
        for (const KernelRun &r : runs)
            if (!r.matchesDispatched || !r.bind8MatchesSingle ||
                !r.rowsMatchDefinition)
                return false;
        return !runs.empty();
    }
};

/**
 * Every signal's column over @p frames with @p impl, column-major
 * (wordsPerCol words each): one whole-window bind, or one bind per
 * 64-row block. Returns the seconds the fills took.
 */
double
fillAllColumns(const ActivityEngine &engine,
               std::span<const ActivityFrame> frames, size_t signals,
               togglekernels::Impl impl, bool blocks,
               std::vector<uint64_t> &cols)
{
    const size_t n = frames.size();
    const size_t words = (n + 63) / 64;
    cols.assign(signals * words, 0);
    ToggleColumnGenerator gen(engine, impl);
    const auto t0 = Clock::now();
    const size_t block = blocks ? 64 : n;
    for (size_t row0 = 0; row0 < n; row0 += block) {
        gen.bind(frames, {}, row0, std::min(block, n - row0));
        for (size_t s = 0; s < signals; ++s)
            gen.fillColumn(static_cast<uint32_t>(s),
                           cols.data() + s * words + row0 / 64);
    }
    return secondsBetween(t0, Clock::now());
}

/** Runs bound at once in the ablation's shared-draw shape. */
constexpr size_t kAblationBindings = 8;

/**
 * Every signal's column of every run in @p runs (equal lengths) with
 * @p impl from one multi-run bind, run-major (run r's columns from
 * r * signals * words). Returns the seconds the fills took.
 */
double
fillAllBindings(const ActivityEngine &engine,
                const std::vector<std::vector<ActivityFrame>> &runs,
                size_t signals, togglekernels::Impl impl,
                std::vector<uint64_t> &cols)
{
    const size_t n = runs.front().size();
    const size_t words = (n + 63) / 64;
    cols.assign(runs.size() * signals * words, 0);
    const std::vector<std::span<const ActivityFrame>> bound(runs.begin(),
                                                            runs.end());
    std::vector<uint64_t *> outs(runs.size());
    ToggleColumnGenerator gen(engine, impl);
    const auto t0 = Clock::now();
    gen.bindRuns(bound, 0, n);
    for (size_t s = 0; s < signals; ++s) {
        for (size_t r = 0; r < runs.size(); ++r)
            outs[r] = cols.data() + (r * signals + s) * words;
        gen.fillColumns(static_cast<uint32_t>(s), outs.data());
    }
    return secondsBetween(t0, Clock::now());
}

/**
 * Every signal at every row of @p frames from one row kernel of
 * @p impl, bound once, row-major (wordCount() words per row). Returns
 * the seconds the row fills took.
 */
double
fillAllRows(const ActivityEngine &engine,
            std::span<const ActivityFrame> frames,
            std::span<const uint32_t> ids, togglekernels::Impl impl,
            std::vector<uint64_t> &rows_out)
{
    const togglekernels::RowKernel rows(engine, ids, impl);
    const size_t words = rows.wordCount();
    rows_out.assign(frames.size() * words, 0);
    const auto t0 = Clock::now();
    for (size_t i = 0; i < frames.size(); ++i)
        rows.fill(frames, i, 0, rows_out.data() + i * words);
    return secondsBetween(t0, Clock::now());
}

/**
 * The toggle-kernel ablation on one thread: phase_mix frames on
 * @p netlist, every signal, each available implementation in both
 * shapes, checked against the dispatched implementation.
 */
KernelAblation
runKernelAblation(const Netlist &netlist, size_t rows, int reps)
{
    DatasetBuilder builder(netlist);
    builder.addProgram(makeLongWorkload("phase_mix", rows, 0xd2), rows);
    const std::span<const ActivityFrame> frames = builder.frames();
    const ActivityEngine &engine = builder.engine();

    KernelAblation abl;
    abl.rows = frames.size();
    abl.signals = netlist.signalCount();
    const double bits = static_cast<double>(abl.rows) *
                        static_cast<double>(abl.signals);

    // The shared-draw shape: phase_mix under 8 data seeds, each run
    // stamped 0, 1, 2, ... by the timing core.
    std::vector<std::vector<ActivityFrame>> runs(kAblationBindings);
    for (size_t r = 0; r < runs.size(); ++r) {
        TimingCore core(builder.coreParams());
        core.run(makeLongWorkload("phase_mix", rows, 0xd2 + r), rows,
                 [&](const ActivityFrame &f) { runs[r].push_back(f); });
        APOLLO_REQUIRE(runs[r].size() == abl.rows, "phase_mix seed ", r,
                       " ran ", runs[r].size(), " of ", abl.rows, " rows");
    }

    // The row shape's definition: toggles() per signal per row.
    std::vector<uint32_t> ids(abl.signals);
    for (size_t s = 0; s < ids.size(); ++s)
        ids[s] = static_cast<uint32_t>(s);
    const size_t row_words = (abl.signals + 63) / 64;
    std::vector<uint64_t> want_rows(abl.rows * row_words, 0);
    for (size_t i = 0; i < abl.rows; ++i)
        for (size_t s = 0; s < abl.signals; ++s)
            if (engine.toggles(ids[s], frames, i))
                want_rows[i * row_words + s / 64] |= 1ULL << (s % 64);

    std::vector<uint64_t> want_window, want_blocks, got;
    fillAllColumns(engine, frames, abl.signals, togglekernels::bestImpl(),
                   false, want_window);
    fillAllColumns(engine, frames, abl.signals, togglekernels::bestImpl(),
                   true, want_blocks);
    for (int i = 0; i < togglekernels::kImplCount; ++i) {
        const auto impl = static_cast<togglekernels::Impl>(i);
        if (!togglekernels::implAvailable(impl))
            continue;
        KernelRun run;
        run.impl = impl;
        for (int rep = 0; rep < reps; ++rep) {
            run.windowNsPerBit = std::min(
                run.windowNsPerBit,
                1e9 * fillAllColumns(engine, frames, abl.signals, impl,
                                     false, got) / bits);
            run.matchesDispatched =
                run.matchesDispatched && got == want_window;
            run.blockNsPerBit = std::min(
                run.blockNsPerBit,
                1e9 * fillAllColumns(engine, frames, abl.signals, impl,
                                     true, got) / bits);
            run.matchesDispatched =
                run.matchesDispatched && got == want_blocks;
        }
        for (int rep = 0; rep < reps; ++rep) {
            run.rowNsPerBit = std::min(
                run.rowNsPerBit,
                1e9 * fillAllRows(engine, frames, ids, impl, got) / bits);
            run.rowsMatchDefinition =
                run.rowsMatchDefinition && got == want_rows;
        }
        // The 8-run shape after the single-run ones, in its own buffer
        // (8x the output), so it does not evict their working set.
        std::vector<uint64_t> multi;
        for (int rep = 0; rep < reps; ++rep)
            run.bind8NsPerBit = std::min(
                run.bind8NsPerBit,
                1e9 * fillAllBindings(engine, runs, abl.signals, impl,
                                      multi) /
                    (bits * static_cast<double>(runs.size())));
        // Each run's block of the 8-run fill against its own fill.
        for (size_t r = 0; r < runs.size(); ++r) {
            fillAllColumns(engine, runs[r], abl.signals, impl, false, got);
            run.bind8MatchesSingle =
                run.bind8MatchesSingle &&
                std::equal(got.begin(), got.end(),
                           multi.begin() + static_cast<long>(
                                               r * got.size()));
        }
        abl.runs.push_back(run);
    }

    FitnessEvaluator eval(netlist, engine, builder.oracle());
    std::vector<double> powers;
    for (int rep = 0; rep < reps; ++rep) {
        const auto t0 = Clock::now();
        eval.cyclePowers(frames, powers);
        abl.cyclePowersSeconds =
            std::min(abl.cyclePowersSeconds,
                     secondsBetween(t0, Clock::now()));
    }
    return abl;
}

void
writeJson(const std::string &path, const char *mode,
          const GaConfig &cfg, const TrainExportBudget &budget,
          const std::vector<PipelineRun> &runs,
          const ReferenceResult &ref_run, double best_ga_seconds,
          bool production_match, const KernelAblation &abl,
          const std::string &obs_json)
{
    std::ofstream os(path);
    os << "{\n";
    os << "  \"bench\": \"ga_training_pipeline\",\n";
    os << "  \"mode\": \"" << mode << "\",\n";
    os << "  \"host\": " << hostJson() << ",\n";
    os << "  \"population\": " << cfg.populationSize
       << ",\n  \"generations\": " << cfg.generations
       << ",\n  \"fitness_cycles\": " << cfg.fitnessCycles
       << ",\n  \"fitness_signal_stride\": " << cfg.fitnessSignalStride
       << ",\n  \"benchmarks\": " << budget.benchmarks
       << ",\n  \"cycles_each\": " << budget.cyclesEach << ",\n";
    os << "  \"configs\": [\n";
    for (size_t i = 0; i < runs.size(); ++i) {
        const PipelineRun &r = runs[i];
        os << "    {\"name\": \"" << r.name
           << "\", \"threads\": " << r.threads
           << ", \"ga_seconds\": " << r.gaSeconds
           << ", \"export_seconds\": " << r.exportSeconds
           << ", \"seconds\": " << r.totalSeconds()
           << ", \"evaluations\": " << r.stats.evaluations
           << ", \"cache_hits\": " << r.stats.cacheHits
           << ", \"cache_hit_rate\": " << r.stats.hitRate()
           << ", \"fitness_cycles_simulated\": "
           << r.stats.simulatedCycles
           << ", \"export_cycles_resimulated\": "
           << r.exportSimulatedCycles
           << ", \"trajectory_matches_serial\": "
           << (r.trajectoryMatch ? "true" : "false")
           << ", \"dataset_matches_serial\": "
           << (r.datasetMatch ? "true" : "false") << "}"
           << (i + 1 < runs.size() ? "," : "") << "\n";
    }
    os << "  ],\n";
    os << "  \"reference\": {\"windows\": " << ref_run.windows
       << ", \"cycles\": " << ref_run.cycles
       << ", \"ref_fitness_seconds\": " << ref_run.seconds
       << ", \"captured_frame_mismatches\": " << ref_run.frameMismatches
       << ", \"avg_power_mismatches\": " << ref_run.mismatches
       << "},\n";
    const double bits = static_cast<double>(abl.rows) *
                        static_cast<double>(abl.signals);
    os << "  \"toggle_kernels\": {\"rows\": " << abl.rows
       << ", \"signals\": " << abl.signals << ", \"dispatched\": \""
       << togglekernels::implName(togglekernels::bestImpl())
       << "\", \"impls\": [";
    for (size_t i = 0; i < abl.runs.size(); ++i) {
        const KernelRun &r = abl.runs[i];
        os << (i ? ", " : "") << "{\"name\": \""
           << togglekernels::implName(r.impl)
           << "\", \"window_ns_per_bit\": " << r.windowNsPerBit
           << ", \"block64_ns_per_bit\": " << r.blockNsPerBit
           << ", \"bind8_ns_per_bit\": " << r.bind8NsPerBit
           << ", \"row_ns_per_bit\": " << r.rowNsPerBit
           << ", \"matches_dispatched\": "
           << (r.matchesDispatched ? "true" : "false")
           << ", \"bind8_matches_single\": "
           << (r.bind8MatchesSingle ? "true" : "false")
           << ", \"rows_match_definition\": "
           << (r.rowsMatchDefinition ? "true" : "false") << "}";
    }
    os << "], \"cycle_powers_seconds\": " << abl.cyclePowersSeconds
       << ", \"cycle_powers_ns_per_bit\": "
       << 1e9 * abl.cyclePowersSeconds / bits << "},\n";
    os << "  \"obs\": " << obs_json << ",\n";
    os << "  \"dataset_matches_production_pipeline\": "
       << (production_match ? "true" : "false") << ",\n";
    os << "  \"speedup_ref_fitness_vs_best_ga\": "
       << ref_run.seconds / best_ga_seconds << "\n";
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
                "fitness_cycles=%llu stride=%u export=%zux%llu "
                "reps=%d%s\n",
                netlist.name().c_str(), base.populationSize,
                base.generations,
                static_cast<unsigned long long>(base.fitnessCycles),
                base.fitnessSignalStride, budget.benchmarks,
                static_cast<unsigned long long>(budget.cyclesEach),
                reps, smoke ? " [smoke]" : "");

    const auto obs_before = obsCounters();
    ReferenceResult ref_run;
    std::vector<PipelineRun> runs;
    runs.push_back(
        runPipeline("serial", 1, netlist, base, budget, reps, nullptr));
    runs.push_back(
        runPipeline("all", 0, netlist, base, budget, reps, &ref_run));

    double best_ga = runs.front().gaSeconds;
    for (PipelineRun &r : runs) {
        r.trajectoryMatch = r.trajectory == runs.front().trajectory;
        r.datasetMatch = r.datasetBytes == runs.front().datasetBytes;
        best_ga = std::min(best_ga, r.gaSeconds);
        std::printf("  %-7s threads=%u %8.3fs (ga %7.3fs + export "
                    "%6.3fs)  evals=%-4llu hits=%-4llu "
                    "resim_cycles=%-6llu%s%s\n",
                    r.name.c_str(), r.threads, r.totalSeconds(),
                    r.gaSeconds, r.exportSeconds,
                    static_cast<unsigned long long>(
                        r.stats.evaluations),
                    static_cast<unsigned long long>(r.stats.cacheHits),
                    static_cast<unsigned long long>(
                        r.exportSimulatedCycles),
                    r.trajectoryMatch ? "" : "  TRAJECTORY MISMATCH",
                    r.datasetMatch ? "" : "  DATASET MISMATCH");
    }
    std::printf("  reference fitness: %zu windows, %llu cycles, %.3fs, "
                "%zu captured-window and %zu avgPower mismatches\n",
                ref_run.windows,
                static_cast<unsigned long long>(ref_run.cycles),
                ref_run.seconds, ref_run.frameMismatches,
                ref_run.mismatches);

    // Tie the bench to the production entry point: generateTrainingSet
    // must emit the same bytes.
    TrainingGenOptions opts;
    opts.ga = base;
    opts.benchmarks = budget.benchmarks;
    opts.cyclesEach = budget.cyclesEach;
    const StatusOr<TrainingGenReport> report =
        generateTrainingSet(netlist, opts);
    const bool production_match =
        report.ok() &&
        serialize(report->dataset) == runs.front().datasetBytes;
    std::printf("  production generateTrainingSet: %s (resimulated "
                "%llu cycles at export)\n",
                production_match ? "byte-identical" : "MISMATCH",
                report.ok() ? static_cast<unsigned long long>(
                                  report->exportSimulatedCycles)
                            : 0ULL);

    const double speedup = ref_run.seconds / best_ga;
    std::printf("GA speedup (reference fitness vs best GA run): %.2fx\n",
                speedup);

    // The obs delta covers the pipeline runs, not the ablation.
    const std::string obs_json = obsDeltaJson(obs_before);
    const KernelAblation abl =
        runKernelAblation(netlist, smoke ? 1000 : 4000, reps);
    std::printf("toggle kernels: %zu signals x %zu phase_mix rows, one "
                "thread, dispatched %s\n",
                abl.signals, abl.rows,
                togglekernels::implName(togglekernels::bestImpl()));
    for (const KernelRun &r : abl.runs)
        std::printf("  %-8s window %.3f ns/bit  64-row blocks %.3f "
                    "ns/bit  %zu-run bind %.3f ns/bit  rows %.3f "
                    "ns/bit%s%s%s\n",
                    togglekernels::implName(r.impl), r.windowNsPerBit,
                    r.blockNsPerBit, kAblationBindings, r.bind8NsPerBit,
                    r.rowNsPerBit,
                    r.matchesDispatched ? "" : "  COLUMN MISMATCH",
                    r.bind8MatchesSingle ? "" : "  BINDING MISMATCH",
                    r.rowsMatchDefinition ? "" : "  ROW MISMATCH");
    std::printf("  cyclePowers (stride 1, whole window): %.3fs\n",
                abl.cyclePowersSeconds);

    writeJson(out, smoke ? "smoke" : "full", base, budget, runs, ref_run,
              best_ga, production_match, abl, obs_json);
    std::printf("wrote %s\n", out.c_str());

    bool identical = production_match;
    for (const PipelineRun &r : runs)
        identical = identical && r.trajectoryMatch && r.datasetMatch;
    if (!identical) {
        std::fprintf(stderr,
                     "FAIL: thread count changed the GA trajectory or "
                     "the exported dataset, or generateTrainingSet "
                     "differs\n");
        return 1;
    }
    if (ref_run.frameMismatches != 0 || ref_run.mismatches != 0 ||
        ref_run.windows == 0) {
        std::fprintf(stderr,
                     "FAIL: of %zu individuals, %zu captured windows "
                     "differ from a re-simulation and %zu avgPower values "
                     "from ref::fitnessAveragePower\n",
                     ref_run.windows, ref_run.frameMismatches,
                     ref_run.mismatches);
        return 1;
    }
    if (!abl.identical()) {
        std::fprintf(stderr,
                     "FAIL: a toggle kernel's columns differ from the "
                     "dispatched kernel's, a run of the %zu-run bind "
                     "from its own fill, or its rows from "
                     "ActivityEngine::toggles\n",
                     kAblationBindings);
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
