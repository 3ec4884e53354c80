#include "common.hh"

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "activity/toggle_kernels.hh"
#include "obs/metrics.hh"
#include "power/label_accumulator.hh"
#include "util/bitvec_kernels.hh"
#include "util/popcnt_kernels.hh"


namespace apollo::bench {

namespace {

constexpr uint32_t cacheVersion = 6;

bool
envFlag(const char *name)
{
    const char *value = std::getenv(name);
    return value && value[0] == '1';
}

std::filesystem::path
cachePath(Design design, bool fast)
{
    const char *name = design == Design::N1ish ? "n1ish" : "a77ish";
    return std::filesystem::path("bench_cache") /
           (std::string(name) + (fast ? "-fast" : "") + ".bin");
}

Context
buildContext(Design design, bool fast)
{
    Context ctx{DesignBuilder::build(design == Design::N1ish
                                         ? DesignConfig::neoverseN1ish()
                                         : DesignConfig::cortexA77ish()),
                {}, {}, {}, fast};

    // --- GA training-data generation (§4.1), single-pass pipeline ---
    // Power-uniform training selection. N1: ~30k training cycles;
    // A77: ~5k (the paper's §7.1 budgets).
    const bool n1 = design == Design::N1ish;
    const TrainExportBudget budget = benchTrainBudget(design, fast);
    TrainingGenOptions opts;
    opts.ga = benchGaConfig(fast);
    opts.benchmarks = budget.benchmarks;
    opts.cyclesEach = budget.cyclesEach;
    StatusOr<TrainingGenReport> report =
        generateTrainingSet(ctx.netlist, opts);
    APOLLO_REQUIRE(report.ok(), report.status().toString());
    std::fprintf(stderr,
                 "[bench] GA: %llu evals, cache hit rate %.1f%%, "
                 "%llu cycles resimulated at export\n",
                 static_cast<unsigned long long>(
                     report->gaStats.evaluations),
                 100.0 * report->gaStats.hitRate(),
                 static_cast<unsigned long long>(
                     report->exportSimulatedCycles));
    ctx.train = std::move(report->dataset);

    // --- Designer test suite (Table 4) ---
    // N1: full Table-4 budgets (~15k cycles). A77: ~2k cycles (paper
    // §7.1), scaled per benchmark.
    DatasetBuilder test_builder(ctx.netlist);
    for (const TestBenchmark &bench : designerTestSuite()) {
        uint64_t budget = bench.cycles;
        if (fast)
            budget = std::max<uint64_t>(100, budget / 4);
        else if (!n1)
            budget = std::max<uint64_t>(100, budget * 2000 / 15330);
        test_builder.addProgram(bench.program, budget, bench.throttle);
    }
    ctx.test = test_builder.build();

    for (size_t c = 0; c < ctx.netlist.signalCount(); ++c)
        if (ctx.netlist.signal(c).kind == SignalKind::FlipFlop)
            ctx.flipflopIds.push_back(static_cast<uint32_t>(c));
    return ctx;
}

} // namespace

GaConfig
benchGaConfig(bool fast, uint32_t full_generations)
{
    GaConfig cfg;
    cfg.populationSize = fast ? 16 : 30;
    cfg.generations = fast ? 5 : full_generations;
    cfg.fitnessCycles = fast ? 300 : 600;
    cfg.fitnessSignalStride = 4;
    return cfg;
}

TrainExportBudget
benchTrainBudget(Design design, bool fast)
{
    const bool n1 = design == Design::N1ish;
    TrainExportBudget budget;
    budget.benchmarks = fast ? 20 : (n1 ? 60 : 16);
    budget.cyclesEach = fast ? 200 : (n1 ? 500 : 320);
    return budget;
}

bool
fastMode()
{
    return envFlag("APOLLO_BENCH_FAST");
}

Context
loadContext(Design design)
{
    const bool fast = fastMode();
    const auto path = cachePath(design, fast);

    if (std::filesystem::exists(path)) {
        std::ifstream is(path, std::ios::binary);
        uint32_t version = 0;
        is.read(reinterpret_cast<char *>(&version), sizeof(version));
        if (version == cacheVersion) {
            Context ctx{DesignBuilder::build(
                            design == Design::N1ish
                                ? DesignConfig::neoverseN1ish()
                                : DesignConfig::cortexA77ish()),
                        {}, {}, {}, fast};
            try {
                ctx.train = loadDataset(is);
                ctx.test = loadDataset(is);
                for (size_t c = 0; c < ctx.netlist.signalCount(); ++c)
                    if (ctx.netlist.signal(c).kind ==
                        SignalKind::FlipFlop)
                        ctx.flipflopIds.push_back(
                            static_cast<uint32_t>(c));
                std::fprintf(stderr,
                             "[bench] loaded cached context %s\n",
                             path.c_str());
                return ctx;
            } catch (const FatalError &) {
                std::fprintf(stderr, "[bench] cache unreadable, "
                                     "rebuilding\n");
            }
        }
    }

    std::fprintf(stderr,
                 "[bench] building context (design=%s, fast=%d)...\n",
                 design == Design::N1ish ? "n1ish" : "a77ish", fast);
    Context ctx = buildContext(design, fast);

    std::filesystem::create_directories(path.parent_path());
    std::ofstream os(path, std::ios::binary);
    os.write(reinterpret_cast<const char *>(&cacheVersion),
             sizeof(cacheVersion));
    saveDataset(os, ctx.train);
    saveDataset(os, ctx.test);
    return ctx;
}

void
printHeader(const std::string &experiment_id,
            const std::string &description, const Context &ctx)
{
    std::printf("================================================\n");
    std::printf("%s — %s\n", experiment_id.c_str(),
                description.c_str());
    std::printf("design: %s  M=%zu RTL signals  train=%zu cycles "
                "(%zu benchmarks)  test=%zu cycles (%zu benchmarks)%s\n",
                ctx.netlist.name().c_str(), ctx.netlist.signalCount(),
                ctx.train.cycles(), ctx.train.segments.size(),
                ctx.test.cycles(), ctx.test.segments.size(),
                ctx.fast ? "  [FAST MODE]" : "");
    std::printf("================================================\n");
}

ApolloTrainResult
trainApolloAtQ(const Context &ctx, size_t q)
{
    ApolloTrainConfig cfg;
    cfg.selection.targetQ = q;
    return trainApollo(ctx.train, cfg, ctx.netlist.name());
}

std::string
hostJson()
{
    std::string git = "unknown";
    if (FILE *p = popen("git -C \"" APOLLO_BENCH_SOURCE_DIR
                        "\" describe --always --dirty 2>/dev/null",
                        "r")) {
        char buf[64] = {};
        if (std::fgets(buf, sizeof(buf), p) && buf[0] != '\0') {
            git = buf;
            git.erase(git.find_last_not_of("\r\n") + 1);
        }
        pclose(p);
    }
    std::ostringstream os;
    os << "{\"nproc\": " << std::thread::hardware_concurrency()
       << ", \"popcount\": \""
       << popkernels::implName(popkernels::bestImpl())
       << "\", \"toggle\": \""
       << togglekernels::implName(togglekernels::bestImpl())
       << "\", \"bitdot\": \""
       << bitkernels::implName(bitkernels::avx512Enabled()
                                   ? bitkernels::Impl::Avx512
                                   : bitkernels::Impl::Portable)
       << "\", \"label\": \""
       << LabelAccumulator::implName(LabelAccumulator::bestImpl())
       << "\", \"compiler\": \"" << APOLLO_BENCH_COMPILER
       << "\", \"flags\": \"" << APOLLO_BENCH_FLAGS << "\", \"git\": \""
       << git << "\"}";
    return os.str();
}

std::map<std::string, uint64_t>
obsCounters()
{
    return obs::MetricRegistry::instance().counterValues();
}

std::string
obsDeltaJson(const std::map<std::string, uint64_t> &before)
{
    const std::map<std::string, uint64_t> now = obsCounters();
    std::ostringstream os;
    os << "{";
    bool first = true;
    for (const auto &[name, value] : now) {
        const auto it = before.find(name);
        const uint64_t prev = it == before.end() ? 0 : it->second;
        if (value == prev)
            continue;
        os << (first ? "" : ", ") << "\"" << name
           << "\": " << (value - prev);
        first = false;
    }
    os << "}";
    return os.str();
}

} // namespace apollo::bench
