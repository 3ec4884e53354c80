/**
 * @file
 * Regression tests for the parallel, cached, single-pass GA
 * training-data pipeline (docs/INTERNALS.md §9): configuration
 * validation, thread-count invariance of the GA trajectory, fitness
 * equal to the src/ref transcription, deterministic cache counters,
 * and byte-identity of the single-pass dataset export against full
 * re-simulation.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "apollo.hh"

#include "ref/reference_ga.hh"
#include "util/logging.hh"

namespace apollo {
namespace {

/** A small design + short warm-up shared by the pipeline tests. */
DesignConfig
pipelineDesign()
{
    DesignConfig cfg;
    cfg.name = "ga-pipeline";
    cfg.seed = 0x5151;
    cfg.ffPerClockGate = 16;
    cfg.units = {
        {UnitId::Fetch, 60, 1, 8, 1.0f},
        {UnitId::IntAlu, 80, 0, 8, 1.2f},
        {UnitId::VecExec, 70, 2, 8, 1.5f},
        {UnitId::LoadStore, 60, 1, 8, 1.0f},
    };
    return cfg;
}

CoreParams
fastCore()
{
    CoreParams params = CoreParams::defaults();
    params.warmupCycles = 32;
    return params;
}

GaConfig
pipelineConfig()
{
    GaConfig cfg;
    cfg.populationSize = 8;
    cfg.generations = 3;
    cfg.elites = 2;
    cfg.bodyMinLen = 4;
    cfg.bodyMaxLen = 12;
    cfg.fitnessCycles = 80;
    cfg.fitnessSignalStride = 2;
    cfg.seed = 0x77;
    return cfg;
}

/** Full observable GA trajectory for bitwise comparison. */
struct Trajectory
{
    std::vector<double> fitness;
    std::vector<uint64_t> dataSeeds;
    std::vector<size_t> bodyLens;
    std::vector<size_t> selectedIds;

    static Trajectory
    of(const GaGenerator &ga)
    {
        Trajectory t;
        for (const GaIndividual &ind : ga.all()) {
            t.fitness.push_back(ind.avgPower);
            t.dataSeeds.push_back(ind.dataSeed);
            t.bodyLens.push_back(ind.body.size());
        }
        for (const GaIndividual &ind : ga.selectTrainingSet(10))
            t.selectedIds.push_back(ind.id);
        return t;
    }

    bool
    operator==(const Trajectory &o) const
    {
        return fitness == o.fitness && dataSeeds == o.dataSeeds &&
               bodyLens == o.bodyLens && selectedIds == o.selectedIds;
    }
};

TEST(GaConfigValidate, RejectsStrideZero)
{
    GaConfig cfg;
    cfg.fitnessSignalStride = 0;
    const Status st = cfg.validate();
    EXPECT_FALSE(st.ok());
    EXPECT_EQ(st.code(), StatusCode::InvalidArgument);
}

TEST(GaConfigValidate, RejectsDegenerateShapes)
{
    EXPECT_TRUE(GaConfig{}.validate().ok());

    GaConfig pop;
    pop.populationSize = 0;
    EXPECT_EQ(pop.validate().code(), StatusCode::InvalidArgument);

    GaConfig elites;
    elites.elites = elites.populationSize;
    EXPECT_EQ(elites.validate().code(), StatusCode::InvalidArgument);

    GaConfig cycles;
    cycles.fitnessCycles = 0;
    EXPECT_EQ(cycles.validate().code(), StatusCode::InvalidArgument);

    GaConfig body;
    body.bodyMinLen = 10;
    body.bodyMaxLen = 6;
    EXPECT_EQ(body.validate().code(), StatusCode::InvalidArgument);

    // Checked before any pool exists: no worker thread is started.
    GaConfig threads;
    threads.threads = kMaxWorkerThreads;
    EXPECT_TRUE(threads.validate().ok());
    threads.threads = kMaxWorkerThreads + 1;
    EXPECT_EQ(threads.validate().code(), StatusCode::InvalidArgument);
    threads.threads = UINT32_MAX;
    EXPECT_EQ(threads.validate().code(), StatusCode::InvalidArgument);
}

TEST(GaConfigValidate, ConstructorEnforcesValidation)
{
    const Netlist netlist = DesignBuilder::build(pipelineDesign());
    DatasetBuilder builder(netlist, fastCore());
    GaConfig cfg = pipelineConfig();
    cfg.fitnessSignalStride = 0;
    EXPECT_THROW(GaGenerator(builder, cfg), FatalError);
}

TEST(GaPipeline, TrajectoryInvariantAcrossThreadCounts)
{
    const Netlist netlist = DesignBuilder::build(pipelineDesign());
    DatasetBuilder builder(netlist, fastCore());

    std::vector<Trajectory> runs;
    for (const uint32_t threads : {1u, 2u, 4u, 0u}) {
        GaConfig cfg = pipelineConfig();
        cfg.threads = threads;
        GaGenerator ga(builder, cfg);
        ga.run();
        runs.push_back(Trajectory::of(ga));
    }
    for (size_t i = 1; i < runs.size(); ++i)
        EXPECT_TRUE(runs[0] == runs[i]) << "thread variant " << i;

    // Repeated run on the same generator: identical again.
    GaConfig cfg = pipelineConfig();
    cfg.threads = 2;
    GaGenerator ga(builder, cfg);
    ga.run();
    const Trajectory first = Trajectory::of(ga);
    ga.run();
    EXPECT_TRUE(first == Trajectory::of(ga)) << "re-run drifted";
    EXPECT_TRUE(first == runs[0]);
}

TEST(GaPipeline, CacheAndVectorizationPreserveTrajectory)
{
    // The GA's reproduction depends only on fitness values and the
    // slot RNG, so every recorded avgPower equalling the per-cycle
    // reference over a fresh serial re-simulation pins the trajectory
    // an uncached, scalar pipeline would follow.
    const Netlist netlist = DesignBuilder::build(pipelineDesign());
    DatasetBuilder builder(netlist, fastCore());

    GaConfig cfg = pipelineConfig();
    cfg.threads = 2;
    GaGenerator ga(builder, cfg);
    ga.run();

    for (const GaIndividual &ind : ga.all()) {
        const Program prog = GaGenerator::toProgram(
            ind, "ga",
            GaGenerator::fitnessIterations(ind.body.size(),
                                           cfg.fitnessCycles));
        TimingCore core(builder.coreParams());
        std::vector<ActivityFrame> frames;
        core.run(prog, cfg.fitnessCycles,
                 [&](const ActivityFrame &f) { frames.push_back(f); });
        ASSERT_EQ(ind.avgPower,
                  ref::fitnessAveragePower(netlist, builder.engine(),
                                           builder.oracle(), frames,
                                           cfg.fitnessSignalStride))
            << "individual " << ind.id << " (gen " << ind.generation
            << ")";
    }

    const GaRunStats &stats = ga.stats();
    const uint64_t individuals =
        static_cast<uint64_t>(cfg.populationSize) * cfg.generations;
    EXPECT_GT(stats.cacheHits, 0u);
    EXPECT_EQ(stats.evaluations + stats.cacheHits, individuals);
    EXPECT_LT(stats.evaluations, individuals);
}

TEST(GaPipeline, CacheCountersAreDeterministicAndEliteDriven)
{
    const Netlist netlist = DesignBuilder::build(pipelineDesign());
    DatasetBuilder builder(netlist, fastCore());
    const GaConfig cfg = pipelineConfig();

    GaGenerator ga(builder, cfg);
    ga.run();
    const GaRunStats first = ga.stats();

    // Elites repeat verbatim in the next generation: at least
    // elites * (generations - 1) hits.
    EXPECT_GE(first.cacheHits,
              static_cast<uint64_t>(cfg.elites) *
                  (cfg.generations - 1));
    EXPECT_EQ(first.evaluations, first.cacheMisses);
    EXPECT_EQ(first.cacheHits + first.cacheMisses,
              static_cast<uint64_t>(cfg.populationSize) *
                  cfg.generations);
    EXPECT_GT(first.simulatedCycles, 0u);
    EXPECT_GT(first.hitRate(), 0.0);

    GaConfig threaded = cfg;
    threaded.threads = 3;
    GaGenerator ga2(builder, threaded);
    ga2.run();
    EXPECT_EQ(first.cacheHits, ga2.stats().cacheHits);
    EXPECT_EQ(first.cacheMisses, ga2.stats().cacheMisses);
    EXPECT_EQ(first.simulatedCycles, ga2.stats().simulatedCycles);
}

TEST(DatasetBuilderAddFrames, AppendsNamedSegments)
{
    const Netlist netlist = DesignBuilder::build(pipelineDesign());
    DatasetBuilder builder(netlist, fastCore());

    std::vector<ActivityFrame> frames(5);
    for (size_t i = 0; i < frames.size(); ++i)
        frames[i].cycle = 100 + i;
    builder.addFrames("a", frames);
    builder.addFrames("b", std::span<const ActivityFrame>(frames)
                               .subspan(0, 3));

    ASSERT_EQ(builder.segments().size(), 2u);
    EXPECT_EQ(builder.segments()[0].name, "a");
    EXPECT_EQ(builder.segments()[0].begin, 0u);
    EXPECT_EQ(builder.segments()[0].end, 5u);
    EXPECT_EQ(builder.segments()[1].name, "b");
    EXPECT_EQ(builder.segments()[1].begin, 5u);
    EXPECT_EQ(builder.segments()[1].end, 8u);
    EXPECT_EQ(builder.frames().size(), 8u);
    EXPECT_THROW(
        builder.addFrames("empty", std::span<const ActivityFrame>{}),
        FatalError);
}

/**
 * The export generateTrainingSet must produce, built by hand: re-run
 * the GA and re-simulate every selected individual from its program
 * with the fitness trip count.
 */
std::string
resimulatedExport(const Netlist &netlist, const TrainingGenOptions &options)
{
    DatasetBuilder fitness(netlist, fastCore());
    GaGenerator ga(fitness, options.ga);
    ga.run();
    DatasetBuilder train(netlist, fastCore());
    int idx = 0;
    for (const GaIndividual &ind : ga.selectTrainingSet(options.benchmarks))
        train.addProgram(
            GaGenerator::toProgram(
                ind, "ga" + std::to_string(idx++),
                GaGenerator::fitnessIterations(ind.body.size(),
                                               options.ga.fitnessCycles)),
            options.cyclesEach);
    std::ostringstream os;
    saveDataset(os, train.build());
    return os.str();
}

TEST(GenerateTrainingSet, SinglePassExportMatchesResimulation)
{
    const Netlist netlist = DesignBuilder::build(pipelineDesign());

    TrainingGenOptions options;
    options.ga = pipelineConfig();
    options.ga.fitnessCycles = 120;
    options.benchmarks = 12;

    // cyclesEach <= fitnessCycles: every selected individual is served
    // from the fitness capture. cyclesEach > fitnessCycles: the
    // captures are too short and the flow re-simulates.
    for (const uint64_t cycles_each : {uint64_t{100}, uint64_t{200}}) {
        options.cyclesEach = cycles_each;
        auto report = generateTrainingSet(netlist, options, fastCore());
        ASSERT_TRUE(report.ok()) << report.status().toString();
        if (cycles_each <= options.ga.fitnessCycles)
            EXPECT_EQ(report->exportSimulatedCycles, 0u)
                << "every selected individual should be served from "
                   "the fitness capture";
        else
            EXPECT_GT(report->exportSimulatedCycles, 0u);

        std::ostringstream os;
        saveDataset(os, report->dataset);
        EXPECT_EQ(os.str(), resimulatedExport(netlist, options))
            << "cyclesEach=" << cycles_each
            << ": flow export differs from re-simulated export";

        EXPECT_GT(report->powerRangeRatio, 1.0);
        EXPECT_GT(report->bestPower, 0.0);
        EXPECT_EQ(report->gaStats.evaluations,
                  report->gaStats.cacheMisses);
    }
}

TEST(GenerateTrainingSet, PropagatesInvalidConfig)
{
    const Netlist netlist = DesignBuilder::build(pipelineDesign());
    TrainingGenOptions options;
    options.ga.fitnessSignalStride = 0;
    const auto result = generateTrainingSet(netlist, options);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::InvalidArgument);

    TrainingGenOptions none;
    none.benchmarks = 0;
    EXPECT_EQ(generateTrainingSet(netlist, none).status().code(),
              StatusCode::InvalidArgument);
}

} // namespace
} // namespace apollo
