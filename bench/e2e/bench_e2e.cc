/**
 * @file
 * End-to-end bench of the APOLLO flow (see README.md beside this file).
 * One process runs one workload for a fixed time:
 *
 *   bench_e2e --workload=W --seed=S [--seconds=N] [--trace=0|1]
 *             [--out=trace.json]
 *
 *   train_n1      Fig. 2/5(a): GA data, dataset export, MCP selection,
 *                 relaxation, quantization and scoring on N1ish
 *   emulate_long  Fig. 7(c)/16: 1M-cycle programs through the proxy
 *                 trace, float inference, batch OPM and streamed OPM
 *   serve_open    the serving layer under open-loop load at fixed
 *                 rates, then closed-loop saturation
 *   droop_loop    §8.2: the closed OPM -> throttle droop lab
 *
 * Every run first sets up (N1ish netlist, a small trained model, the
 * workload's inputs) kSetupReps times and reports the median as
 * setup_s; nothing is cached on disk. The untraced run reports the
 * end-to-end metrics. The traced run alternates untraced and traced
 * operations, records a span around every call into a library layer
 * (spans.hh), and reports per-span, per-layer and overhead numbers.
 * The last line of stdout is one JSON object with the keys correct,
 * attempted, failed and metrics; any failed output check also makes
 * the exit code 1.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "apollo.hh"
#include "spans.hh"
#include "util/popcnt_kernels.hh"

using namespace apollo;
using Clock = std::chrono::steady_clock;

namespace {

// ---- Frozen budgets: changing any of these changes the benchmark.
constexpr size_t kQ = 159;
constexpr uint32_t kOpmBits = 10;
constexpr uint32_t kOpmT = 32;
constexpr int kSetupReps = 3;
constexpr size_t kTrainBenchmarks = 20;
constexpr uint64_t kTrainCyclesEach = 500;
constexpr uint64_t kLongCycles = 1'000'000;
constexpr size_t kLongPrograms = 4;
constexpr size_t kChunkCycles = 1 << 14;
constexpr uint64_t kDroopCycles = 4000;
constexpr size_t kServeWorkers = 3;
constexpr size_t kServeSessions = 4;
constexpr double kServePhaseSeconds = 1.0;
constexpr double kServeRates[] = {25.0, 50.0, 100.0};
constexpr double kServeP99LimitMs = 5.0;
constexpr double kServeDrainLimitS = 1.0;

/** Seed S = 1 reproduces the library defaults; S adds S - 1 to each. */
struct Seeds
{
    uint64_t ga;
    uint64_t longWorkload;
    uint64_t phaseMix;
};

Seeds
seedsFor(uint64_t s)
{
    return {0x6a6aULL + (s - 1), 0x10119ULL + (s - 1), 0xd2ULL + (s - 1)};
}

GaConfig
gaConfig(uint32_t population, uint32_t generations,
         uint64_t fitness_cycles, uint64_t seed)
{
    GaConfig cfg;
    cfg.populationSize = population;
    cfg.generations = generations;
    cfg.fitnessCycles = fitness_cycles;
    cfg.fitnessSignalStride = 4;
    cfg.seed = seed;
    return cfg;
}

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

/** Nearest-rank quantile; 0 for an empty sample. */
double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double rank = std::ceil(q * static_cast<double>(v.size()));
    const size_t idx = static_cast<size_t>(std::max(rank, 1.0)) - 1;
    return v[std::min(idx, v.size() - 1)];
}

/** Median (mean of the middle two for an even count); 0 when empty. */
double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const size_t mid = v.size() / 2;
    return v.size() % 2 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

struct Checks
{
    uint64_t attempted = 0;
    uint64_t failed = 0;

    void
    expect(bool ok, const std::string &what)
    {
        ++attempted;
        if (!ok && ++failed <= 10)
            std::fprintf(stderr, "FAIL: %s\n", what.c_str());
    }
};

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/**
 * FNV-1a over the bit patterns of fixed-size groups of power samples:
 * one hash per served chunk. The sink also stamps the time each chunk's
 * last sample arrived.
 */
class ChunkHashSink final : public PowerSink
{
  public:
    struct Done
    {
        uint64_t hash = 0;
        Clock::time_point at;
    };

    explicit ChunkHashSink(size_t samples_per_chunk)
        : samplesPerChunk_(samples_per_chunk)
    {}

    Status
    consume(uint64_t, std::span<const float> values) override
    {
        for (const float v : values) {
            uint32_t bits = 0;
            std::memcpy(&bits, &v, sizeof(bits));
            hash_ = (hash_ ^ bits) * 0x100000001b3ULL;
            if (++filled_ == samplesPerChunk_) {
                done_.push_back({hash_, Clock::now()});
                hash_ = kBasis;
                filled_ = 0;
            }
        }
        return Status::okStatus();
    }

    const std::vector<Done> &done() const { return done_; }

  private:
    static constexpr uint64_t kBasis = 0xcbf29ce484222325ULL;
    size_t samplesPerChunk_;
    uint64_t hash_ = kBasis;
    size_t filled_ = 0;
    std::vector<Done> done_;
};

// ---------------------------------------------------------------------
// Setup
// ---------------------------------------------------------------------

struct Setup
{
    explicit Setup(Netlist n) : netlist(std::move(n)) {}

    Netlist netlist;
    ApolloModel model;
    QuantizedModel q10;
    /** train_n1: the designer test suite (Table 4, 15,330 cycles). */
    Dataset test;
    /** emulate_long: the long programs. */
    std::vector<Program> programs;
    /** droop_loop: the lab grid with phase_mix reseeded. */
    control::DroopLabConfig droop;
    /** serve_open: chunk slices of a recorded proxy trace, and each
     *  chunk's output hash from the one-stream engine. */
    std::vector<BitColumnMatrix> chunks;
    std::vector<uint64_t> refQ32;
    std::vector<uint64_t> refFloat;
};

std::vector<uint64_t>
oneStreamHashes(const StreamingInference &engine,
                const BitColumnMatrix &trace, size_t samples_per_chunk)
{
    MatrixChunkReader reader(trace);
    ChunkHashSink sink(samples_per_chunk);
    engine.run(reader, sink, StreamConfig().withChunkCycles(kChunkCycles))
        .status()
        .orFatal();
    std::vector<uint64_t> hashes;
    for (const ChunkHashSink::Done &d : sink.done())
        hashes.push_back(d.hash);
    return hashes;
}

std::unique_ptr<Setup>
buildSetup(const std::string &workload, const Seeds &seeds)
{
    auto su = std::make_unique<Setup>(
        DesignBuilder::build(DesignConfig::neoverseN1ish()));

    TrainingGenOptions opts;
    opts.ga = gaConfig(16, 5, 300, seeds.ga);
    opts.benchmarks = 20;
    opts.cyclesEach = 200;
    StatusOr<TrainingGenReport> gen =
        generateTrainingSet(su->netlist, opts);
    gen.status().orFatal();
    su->model = Trainer(TrainOptions().targetQ(kQ))
                    .train(gen->dataset, su->netlist.name())
                    .model;
    su->q10 = quantizeModel(su->model, kOpmBits);

    if (workload == "train_n1") {
        DatasetBuilder tb(su->netlist);
        for (const TestBenchmark &b : designerTestSuite())
            tb.addProgram(b.program, b.cycles, b.throttle);
        su->test = tb.build();
    } else if (workload == "emulate_long") {
        for (size_t i = 0; i < kLongPrograms; ++i)
            su->programs.push_back(
                makeLongWorkload("long" + std::to_string(i), kLongCycles,
                                 seeds.longWorkload + i));
    } else if (workload == "droop_loop") {
        su->droop = control::defaultDroopLabConfig(kDroopCycles);
        for (control::DroopLabWorkload &w : su->droop.workloads)
            if (w.name == "phase_mix")
                w.program = makeLongWorkload("phase_mix", kDroopCycles,
                                             seeds.phaseMix);
    } else if (workload == "serve_open") {
        DatasetBuilder b(su->netlist);
        b.addProgram(makeLongWorkload("serve", kLongCycles,
                                      seeds.longWorkload),
                     kLongCycles);
        const BitColumnMatrix full = DatasetBuilder::traceProxies(
            b.engine(), b.frames(), su->model.proxyIds,
            b.segmentBeginTable());
        const size_t n_chunks = full.rows() / kChunkCycles;
        const BitColumnMatrix trace =
            full.sliceRows(0, n_chunks * kChunkCycles);
        for (size_t c = 0; c < n_chunks; ++c)
            su->chunks.push_back(
                trace.sliceRows(c * kChunkCycles, kChunkCycles));
        su->refQ32 = oneStreamHashes(StreamingInference(su->q10, kOpmT),
                                     trace, kChunkCycles / kOpmT);
        su->refFloat = oneStreamHashes(StreamingInference(su->model),
                                       trace, kChunkCycles);
        APOLLO_REQUIRE(n_chunks > 0 && su->refQ32.size() == n_chunks &&
                           su->refFloat.size() == n_chunks,
                       "serve_open: one reference hash per chunk");
    }
    return su;
}

// ---------------------------------------------------------------------
// The operation loop shared by the workloads
// ---------------------------------------------------------------------

struct RunContext
{
    const Setup &setup;
    Seeds seeds;
    double seconds = 0.0;
    bool trace = false;
    e2e::SpanRecorder &rec;
    Checks &checks;
};

/** What a workload hands back to main(). */
struct WorkloadResult
{
    /** End-to-end values from the untraced operations. */
    double opMs = 0.0;
    double mcycPerS = 0.0;
    /** Per-layer values from the traced operations. */
    std::vector<Metric> layer;
    double overheadPct = 0.0;
    /** Traced operations the span totals are divided by. */
    size_t tracedOps = 0;
};

struct OpTimes
{
    std::vector<double> plain;
    std::vector<double> traced;

    double
    overheadPct() const
    {
        const double base = median(plain);
        return base > 0.0 ? 100.0 * (median(traced) - base) / base : 0.0;
    }
};

/**
 * Run @p op until ctx.seconds have passed, timing each call under a
 * root span named @p root. The argument of @p op numbers the input the
 * operation processes. A traced run alternates untraced and traced
 * operations, starting untraced, runs each input once each way so the
 * pairs compare like with like, and runs at least one pair. @p after
 * runs outside the timed region (recording stays as it was for the
 * operation).
 */
OpTimes
runOps(const RunContext &ctx, const char *root,
       const std::function<void(size_t)> &op,
       const std::function<void(size_t, bool)> &after = {})
{
    OpTimes times;
    const auto t0 = Clock::now();
    for (size_t k = 0;; ++k) {
        const bool traced = ctx.trace && k % 2 == 1;
        const size_t input = ctx.trace ? k / 2 : k;
        ctx.rec.setEnabled(traced);
        const auto s0 = Clock::now();
        {
            auto span = ctx.rec.span(root, input);
            op(input);
        }
        const double op_s = secondsSince(s0);
        (traced ? times.traced : times.plain).push_back(op_s);
        std::fprintf(stderr, "op %zu input=%zu traced=%d %.6f s\n", k, input,
                     traced ? 1 : 0, op_s);
        if (after)
            after(input, traced);
        const bool both = !ctx.trace || !times.traced.empty();
        if (both && secondsSince(t0) >= ctx.seconds)
            break;
    }
    ctx.rec.setEnabled(false);
    return times;
}

// ---------------------------------------------------------------------
// train_n1
// ---------------------------------------------------------------------

struct TrainOutcome
{
    Dataset dataset;
    ApolloModel model;
    GaRunStats ga;
    TargetQDiagnostics diag;
    double nrmsePct = 0.0;
    double opmNrmsePct = 0.0;
};

/** T-cycle means of @p y on the whole-trace grid (partial tail dropped),
 *  the truth an OPM window sample estimates. */
std::vector<float>
windowMeans(const std::vector<float> &y, uint32_t T)
{
    std::vector<float> out;
    for (size_t w = 0; (w + 1) * T <= y.size(); ++w) {
        double acc = 0.0;
        for (size_t i = w * T; i < (w + 1) * T; ++i)
            acc += y[i];
        out.push_back(static_cast<float>(acc / T));
    }
    return out;
}

/**
 * The GA seed of train_n1 input @p input. How long selection takes
 * depends on the data, so each operation trains on its own GA seed and
 * the run's median spans several; input 0 keeps the run's seed.
 */
uint64_t
trainSeed(const Seeds &seeds, size_t input)
{
    return seeds.ga + (uint64_t{input} << 20);
}

TrainOutcome
trainModel(const RunContext &ctx, size_t input)
{
    const Setup &su = ctx.setup;
    e2e::SpanRecorder &rec = ctx.rec;
    const uint64_t request = input;
    TrainOutcome out;

    DatasetBuilder builder(su.netlist);
    const GaConfig ga_cfg = gaConfig(30, 10, 600, trainSeed(ctx.seeds, input));
    GaGenerator ga(builder, ga_cfg);
    rec.call("gen.ga", request, [&] { ga.run(); });
    out.ga = ga.stats();
    const std::vector<GaIndividual> selected =
        rec.call("gen.select_training_set", request,
                 [&] { return ga.selectTrainingSet(kTrainBenchmarks); });
    // The single-pass export of generateTrainingSet, split per layer;
    // the traced run's drift check pins the two to the same bytes.
    int idx = 0;
    for (const GaIndividual &ind : selected) {
        const std::string name = "ga" + std::to_string(idx++);
        const std::span<const ActivityFrame> captured =
            ga.capturedFrames(ind.id);
        if (captured.size() >= kTrainCyclesEach) {
            rec.call("trace.add_frames", request, [&] {
                builder.addFrames(name,
                                  captured.subspan(0, kTrainCyclesEach));
            });
        } else {
            rec.call("uarch.simulate", request, [&] {
                builder.addProgram(
                    GaGenerator::toProgram(
                        ind, name,
                        GaGenerator::fitnessIterations(
                            ind.body.size(), ga_cfg.fitnessCycles)),
                    kTrainCyclesEach);
            });
        }
    }
    out.dataset =
        rec.call("trace.export", request, [&] { return builder.build(); });

    ApolloTrainConfig cfg;
    cfg.selection.targetQ = kQ;
    const ProxySelection selection = rec.call("ml.select", request, [&] {
        const BitFeatureView view(out.dataset.X);
        return selectProxies(view, out.dataset.y, cfg.selection);
    });
    out.diag = selection.diagnostics;
    out.model = rec.call("core.relax", request, [&] {
        return relaxProxySet(out.dataset, selection.proxyIds, cfg,
                             su.netlist.name())
            .model;
    });
    const StatusOr<QuantizedModel> qm =
        rec.call("opm.quantize", request,
                 [&] { return tryQuantizeModel(out.model, kOpmBits); });

    const std::vector<float> pred = rec.call(
        "core.eval", request, [&] { return out.model.predictFull(su.test.X); });
    out.nrmsePct = rec.call("ml.nrmse", request,
                            [&] { return 100.0 * nrmse(su.test.y, pred); });
    ctx.checks.expect(qm.ok(), "train_n1: quantizing the model failed");
    if (qm.ok()) {
        const BitColumnMatrix Xq =
            rec.call("util.select_columns", request, [&] {
                return su.test.X.selectColumns(out.model.proxyIds);
            });
        const std::vector<float> opm = rec.call(
            "opm.predict_q32", request,
            [&] { return Inference(*qm, kOpmT).predict(Xq); });
        const std::vector<float> truth = windowMeans(su.test.y, kOpmT);
        ctx.checks.expect(opm.size() == truth.size(),
                          "train_n1: OPM window count");
        if (opm.size() == truth.size())
            out.opmNrmsePct = rec.call("ml.nrmse", request, [&] {
                return 100.0 * nrmse(truth, opm);
            });
    }

    ctx.checks.expect(out.model.proxyCount() == kQ,
                      "train_n1: model has Q != 159 proxies");
    ctx.checks.expect(out.dataset.cycles() ==
                          kTrainBenchmarks * kTrainCyclesEach,
                      "train_n1: training set is not 30,000 cycles");
    ctx.checks.expect(std::isfinite(out.nrmsePct) &&
                          std::isfinite(out.opmNrmsePct),
                      "train_n1: NRMSE is not finite");
    return out;
}

bool
sameDataset(const Dataset &a, const Dataset &b)
{
    if (a.X.rows() != b.X.rows() || a.X.cols() != b.X.cols() ||
        a.y.size() != b.y.size() || a.segments.size() != b.segments.size())
        return false;
    if (a.X.cols() > 0 &&
        std::memcmp(a.X.colWords(0), b.X.colWords(0), a.X.byteSize()) != 0)
        return false;
    if (!a.y.empty() &&
        std::memcmp(a.y.data(), b.y.data(), a.y.size() * sizeof(float)) != 0)
        return false;
    for (size_t i = 0; i < a.segments.size(); ++i)
        if (a.segments[i].name != b.segments[i].name ||
            a.segments[i].begin != b.segments[i].begin ||
            a.segments[i].end != b.segments[i].end)
            return false;
    return true;
}

bool
sameModel(const ApolloModel &a, const ApolloModel &b)
{
    return a.proxyIds == b.proxyIds && a.weights == b.weights &&
           a.intercept == b.intercept;
}

WorkloadResult
runTrain(const RunContext &ctx)
{
    TrainOutcome last;
    size_t last_input = 0;
    const OpTimes times = runOps(ctx, "bench.train_n1", [&](size_t input) {
        last = trainModel(ctx, input);
        last_input = input;
    });

    WorkloadResult r;
    const double op_s = median(times.plain);
    r.opMs = 1e3 * op_s;
    r.mcycPerS = kTrainBenchmarks * kTrainCyclesEach / op_s / 1e6;
    if (!ctx.trace)
        return r;

    // Drift check: the production entry points must still produce what
    // the layer-split path above measures.
    TrainingGenOptions opts;
    opts.ga = gaConfig(30, 10, 600, trainSeed(ctx.seeds, last_input));
    opts.benchmarks = kTrainBenchmarks;
    opts.cyclesEach = kTrainCyclesEach;
    StatusOr<TrainingGenReport> gen =
        generateTrainingSet(ctx.setup.netlist, opts);
    ctx.checks.expect(gen.ok() && sameDataset(gen->dataset, last.dataset),
                      "train_n1 drift: generateTrainingSet dataset "
                      "differs from the layer-split path");
    if (gen.ok()) {
        const ApolloModel model =
            Trainer(TrainOptions().targetQ(kQ))
                .train(gen->dataset, ctx.setup.netlist.name())
                .model;
        ctx.checks.expect(sameModel(model, last.model),
                          "train_n1 drift: Trainer::train model differs "
                          "from the layer-split path");
    }

    r.tracedOps = times.traced.size();
    r.overheadPct = times.overheadPct();
    const double n = static_cast<double>(r.tracedOps);
    const double cells = static_cast<double>(last.dataset.cycles()) *
                         static_cast<double>(last.dataset.signals());
    r.layer = {
        {"gen.evaluations", static_cast<double>(last.ga.evaluations),
         "count"},
        {"gen.cache_hits", static_cast<double>(last.ga.cacheHits),
         "count"},
        {"trace.export_ns_per_cell",
         1e9 * ctx.rec.foldByName().at("trace.export").total / n / cells, "ns"},
        {"ml.sweeps", static_cast<double>(last.diag.totalSweeps), "count"},
        {"ml.kkt_passes", static_cast<double>(last.diag.totalKktPasses),
         "count"},
        {"ml.kkt_dots", static_cast<double>(last.diag.totalKktDots),
         "count"},
        {"ml.path_points", static_cast<double>(last.diag.pathPoints),
         "count"},
        {"core.train_nrmse_pct", last.nrmsePct, "%"},
        {"opm.nrmse_pct", last.opmNrmsePct, "%"},
    };
    return r;
}

// ---------------------------------------------------------------------
// emulate_long
// ---------------------------------------------------------------------

WorkloadResult
runEmulate(const RunContext &ctx)
{
    const Setup &su = ctx.setup;
    e2e::SpanRecorder &rec = ctx.rec;
    const Inference floatEngine(su.model);
    const Inference opm(su.q10, kOpmT);
    std::vector<double> plain_mcyc;
    uint64_t tracedCycles = 0;

    const OpTimes times = runOps(ctx, "bench.emulate_long", [&](size_t input) {
        const auto t0 = Clock::now();
        const size_t i = input % su.programs.size();
        DatasetBuilder b(su.netlist);
        rec.call("uarch.simulate", i,
                 [&] { b.addProgram(su.programs[i], kLongCycles); });
        const std::vector<uint32_t> begin_of = rec.call(
            "trace.segment_begin_table", i,
            [&] { return b.segmentBeginTable(); });
        const BitColumnMatrix Xq = rec.call("trace.proxies", i, [&] {
            return DatasetBuilder::traceProxies(b.engine(), b.frames(),
                                                su.model.proxyIds, begin_of);
        });
        const std::vector<float> pf = rec.call(
            "core.predict_float", i, [&] { return floatEngine.predict(Xq); });
        const std::vector<float> pq =
            rec.call("opm.predict_q32", i, [&] { return opm.predict(Xq); });
        VectorSink sink;
        const StatusOr<StreamStats> streamed =
            rec.call("flow.stream_q32", i, [&] {
                MatrixChunkReader reader(Xq);
                return opm.stream(
                    reader, sink,
                    StreamConfig().withChunkCycles(kChunkCycles));
            });
        ctx.checks.expect(streamed.ok(), "emulate_long: stream failed");
        ctx.checks.expect(pf.size() == Xq.rows() && Xq.rows() > 0,
                          "emulate_long: float output length");
        const std::vector<float> &ps = sink.values();
        ctx.checks.expect(
            !pq.empty() && ps.size() == pq.size() &&
                std::memcmp(ps.data(), pq.data(),
                            pq.size() * sizeof(float)) == 0,
            "emulate_long: streamed OPM output differs from batch");
        if (rec.enabled())
            tracedCycles += Xq.rows();
        else
            plain_mcyc.push_back(Xq.rows() / secondsSince(t0) / 1e6);
    });

    WorkloadResult r;
    r.opMs = 1e3 * median(times.plain);
    r.mcycPerS = median(plain_mcyc);
    if (!ctx.trace)
        return r;

    r.tracedOps = times.traced.size();
    r.overheadPct = times.overheadPct();
    const double c = static_cast<double>(tracedCycles);
    const auto fold = rec.foldByName();
    r.layer = {
        {"uarch.mcyc_per_s",
         c / fold.at("uarch.simulate").total / 1e6, "Mcyc/s"},
        {"trace.proxies_ns_per_bit",
         1e9 * fold.at("trace.proxies").total / (c * kQ), "ns"},
    };
    return r;
}

// ---------------------------------------------------------------------
// serve_open
// ---------------------------------------------------------------------

/** Samples of one serve phase. */
struct PhaseSamples
{
    /** Due time to the sink receiving the chunk's last sample. */
    std::vector<double> latencyMs;
    /** submitChunk return to the last sample, per engine (q32, float). */
    std::vector<double> completeMs[2];
    /** How late the generator called submitChunk. */
    std::vector<double> lateMs;
    /** Last due time to the last sample of the phase. */
    double drainS = 0.0;
    /** Cycles delivered per second, all sessions and per engine. */
    double mcycPerS = 0.0;
    double engineMcycPerS[2] = {0.0, 0.0};
};

class ServeBench
{
  public:
    explicit ServeBench(const RunContext &ctx)
        : ctx_(ctx), registry_(std::make_shared<serve::ModelRegistry>())
    {
        registry_->addFloat("n1", ctx.setup.model).orFatal();
        registry_->addQuantized("n1_q10", ctx.setup.q10, kOpmT).orFatal();
        manager_ = std::make_unique<serve::SessionManager>(
            registry_, serve::ServeConfig()
                           .withThreads(kServeWorkers)
                           .withMaxSessions(kServeSessions));
    }

    /** Sessions 0 and 1 run the q10/T=32 OPM, 2 and 3 float per-cycle. */
    static bool quantized(size_t s) { return s < 2; }

    /** One phase: open loop at @p rate Mcyc/s, or closed loop at 0. */
    PhaseSamples
    phase(double rate, uint64_t pass)
    {
        const Setup &su = ctx_.setup;
        e2e::SpanRecorder &rec = ctx_.rec;
        const size_t n_chunks = su.chunks.size();

        std::vector<std::unique_ptr<ChunkHashSink>> sinks;
        std::vector<serve::SessionId> ids;
        for (size_t s = 0; s < kServeSessions; ++s) {
            sinks.push_back(std::make_unique<ChunkHashSink>(
                quantized(s) ? kChunkCycles / kOpmT : kChunkCycles));
            serve::SessionOptions options;
            options.model = quantized(s) ? "n1_q10" : "n1";
            auto span = rec.span("serve.create_session", s);
            StatusOr<serve::SessionId> id =
                manager_->createSession(options, sinks.back().get());
            id.status().orFatal();
            ids.push_back(*id);
        }

        // Session s starts a quarter of the trace after session s - 1,
        // shifted by one chunk per pass.
        auto chunkOf = [&](size_t s, size_t j) {
            return (s * n_chunks / kServeSessions + pass + j) % n_chunks;
        };
        std::vector<std::vector<Clock::time_point>> due(kServeSessions);
        std::vector<std::vector<Clock::time_point>> submitted(
            kServeSessions);
        PhaseSamples out;

        const bool open = rate > 0.0;
        const auto interval = std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double>(
                open ? kChunkCycles / (rate * 1e6) : 0.0));
        const auto start = Clock::now() + std::chrono::milliseconds(2);
        const auto stop =
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(kServePhaseSeconds));
        for (size_t k = 0;; ++k) {
            const size_t s = k % kServeSessions;
            const size_t j = submitted[s].size();
            const Clock::time_point due_at =
                open ? start + interval * static_cast<int64_t>(k)
                     : Clock::now();
            if (due_at >= stop)
                break;
            const uint64_t request = (s << 32) | j;
            BitColumnMatrix bits =
                rec.call("loadgen.copy_chunk", request,
                         [&] { return su.chunks[chunkOf(s, j)]; });
            if (open)
                rec.call("loadgen.wait", request,
                         [&] { std::this_thread::sleep_until(due_at); });
            const auto t = Clock::now();
            if (open)
                out.lateMs.push_back(msBetween(due_at, t));
            const Status st = rec.call("serve.submit", request, [&] {
                return manager_->submitChunk(ids[s], std::move(bits));
            });
            ctx_.checks.expect(st.ok(), "serve_open: submitChunk failed");
            due[s].push_back(open ? due_at : t);
            submitted[s].push_back(Clock::now());
        }
        for (size_t s = 0; s < kServeSessions; ++s) {
            auto span = rec.span("serve.close_session", s);
            StatusOr<serve::SessionSummary> summary =
                manager_->closeSession(ids[s]);
            ctx_.checks.expect(summary.ok() &&
                                   summary->chunks == submitted[s].size(),
                               "serve_open: closeSession");
        }

        // Output checks and the latency samples.
        Clock::time_point last_due = start;
        Clock::time_point last_done = start;
        Clock::time_point engine_done[2] = {start, start};
        uint64_t engine_chunks[2] = {0, 0};
        for (size_t s = 0; s < kServeSessions; ++s) {
            const std::vector<ChunkHashSink::Done> &done = sinks[s]->done();
            ctx_.checks.expect(done.size() == submitted[s].size(),
                               "serve_open: a session lost chunks");
            const std::vector<uint64_t> &ref =
                quantized(s) ? su.refQ32 : su.refFloat;
            const size_t e = quantized(s) ? 0 : 1;
            for (size_t j = 0; j < done.size() && j < due[s].size(); ++j) {
                ctx_.checks.expect(done[j].hash == ref[chunkOf(s, j)],
                                   "serve_open: chunk output differs "
                                   "from the one-stream engine");
                out.latencyMs.push_back(msBetween(due[s][j], done[j].at));
                out.completeMs[e].push_back(
                    msBetween(submitted[s][j], done[j].at));
                last_due = std::max(last_due, due[s][j]);
                last_done = std::max(last_done, done[j].at);
                engine_done[e] = std::max(engine_done[e], done[j].at);
            }
            engine_chunks[e] += done.size();
        }
        out.drainS = msBetween(last_due, last_done) / 1e3;
        const auto rateOf = [&](uint64_t chunks, Clock::time_point end) {
            const double s = msBetween(start, end) / 1e3;
            return s > 0.0 ? chunks * kChunkCycles / s / 1e6 : 0.0;
        };
        out.mcycPerS = rateOf(engine_chunks[0] + engine_chunks[1],
                              last_done);
        for (size_t e = 0; e < 2; ++e)
            out.engineMcycPerS[e] = rateOf(engine_chunks[e], engine_done[e]);
        return out;
    }

    uint64_t stalls() const { return manager_->stats().backpressureStalls; }

  private:
    const RunContext &ctx_;
    std::shared_ptr<serve::ModelRegistry> registry_;
    std::unique_ptr<serve::SessionManager> manager_;
};

/** Samples pooled over the untraced, or over the traced, passes. */
struct ServeSamples
{
    std::vector<double> latencyMs[std::size(kServeRates)];
    double maxDrainS[std::size(kServeRates)] = {};
    std::vector<double> completeMs[2];
    std::vector<double> lateMs;
    std::vector<double> satMcycPerS;
    std::vector<double> satEngineMcycPerS[2];
    uint64_t stalls = 0;
};

void
append(std::vector<double> &to, const std::vector<double> &from)
{
    to.insert(to.end(), from.begin(), from.end());
}

WorkloadResult
runServe(const RunContext &ctx)
{
    ServeBench bench(ctx);
    ServeSamples pools[2];
    // One pass: the open-loop rates in order, then saturation.
    runOps(ctx, "bench.serve_open", [&](size_t pass) {
        ServeSamples &pool = pools[ctx.rec.enabled() ? 1 : 0];
        const uint64_t stalls0 = bench.stalls();
        for (size_t i = 0; i < std::size(kServeRates); ++i) {
            const PhaseSamples ph = bench.phase(kServeRates[i], pass);
            append(pool.latencyMs[i], ph.latencyMs);
            pool.maxDrainS[i] = std::max(pool.maxDrainS[i], ph.drainS);
            for (size_t e = 0; e < 2; ++e)
                append(pool.completeMs[e], ph.completeMs[e]);
            append(pool.lateMs, ph.lateMs);
        }
        const PhaseSamples sat = bench.phase(0.0, pass);
        pool.satMcycPerS.push_back(sat.mcycPerS);
        for (size_t e = 0; e < 2; ++e)
            pool.satEngineMcycPerS[e].push_back(sat.engineMcycPerS[e]);
        pool.stalls += bench.stalls() - stalls0;
    });

    const ServeSamples &plain = pools[0];
    WorkloadResult r;
    r.opMs = median(plain.latencyMs[1]); // offered 50 Mcyc/s
    r.mcycPerS = median(plain.satMcycPerS);
    if (!ctx.trace)
        return r;

    const ServeSamples &traced = pools[1];
    r.tracedOps = traced.satMcycPerS.size();
    r.overheadPct = 100.0 * (r.mcycPerS - median(traced.satMcycPerS)) /
                    r.mcycPerS;
    std::vector<double> submit_ms;
    for (const e2e::Span &s : ctx.rec.spans())
        if (std::strcmp(s.name, "serve.submit") == 0)
            submit_ms.push_back(1e3 * s.duration());
    r.layer = {
        {"serve.submit_p50_ms", median(submit_ms), "ms"},
        {"serve.submit_p99_ms", quantile(submit_ms, 0.99), "ms"},
        {"serve.backpressure_stalls",
         static_cast<double>(traced.stalls) / r.tracedOps, "count"},
        {"serve.complete_p50_ms.q32", median(traced.completeMs[0]), "ms"},
        {"serve.complete_p50_ms.float", median(traced.completeMs[1]), "ms"},
        {"serve.complete_p99_ms.q32", quantile(traced.completeMs[0], 0.99),
         "ms"},
        {"serve.complete_p99_ms.float", quantile(traced.completeMs[1], 0.99),
         "ms"},
        {"serve.sat_mcyc_per_s.q32", median(traced.satEngineMcycPerS[0]),
         "Mcyc/s"},
        {"serve.sat_mcyc_per_s.float", median(traced.satEngineMcycPerS[1]),
         "Mcyc/s"},
        {"loadgen.late_p99_ms", quantile(traced.lateMs, 0.99), "ms"},
    };
    double max_rate = 0.0;
    for (size_t i = 0; i < std::size(kServeRates); ++i) {
        const std::vector<double> &lat = traced.latencyMs[i];
        const double p99 = quantile(lat, 0.99);
        if (p99 <= kServeP99LimitMs && traced.maxDrainS[i] <= kServeDrainLimitS)
            max_rate = std::max(max_rate, kServeRates[i]);
        const std::string tag =
            "r" + std::to_string(static_cast<int>(kServeRates[i]));
        r.layer.push_back({"serve.p50_ms." + tag, median(lat), "ms"});
        r.layer.push_back({"serve.p99_ms." + tag, p99, "ms"});
        r.layer.push_back(
            {"serve.samples." + tag, static_cast<double>(lat.size()), "count"});
    }
    r.layer.push_back(
        {"serve.max_rate_under_limit_mcyc_per_s", max_rate, "Mcyc/s"});
    return r;
}

// ---------------------------------------------------------------------
// droop_loop
// ---------------------------------------------------------------------

WorkloadResult
runDroop(const RunContext &ctx)
{
    const Setup &su = ctx.setup;
    e2e::SpanRecorder &rec = ctx.rec;
    control::DroopLabReport last;

    auto lab = [&](size_t k) {
        StatusOr<control::DroopLabReport> report =
            rec.call("control.droop_lab", k, [&] {
                return control::runDroopLab(su.netlist, su.model, su.droop);
            });
        ctx.checks.expect(report.ok() && report->rows.size() == 36,
                          "droop_loop: the report does not have 36 rows");
        if (report.ok())
            last = std::move(*report);
    };
    // Apportion the lab between loop stepping and the truth-power
    // oracle: one baseline run of phase_mix, then the oracle alone on
    // its frames. Traced operations only, outside the timed region.
    auto apportion = [&](size_t k, bool traced) {
        if (!traced)
            return;
        auto root = rec.span("bench.droop_apportion", k);
        control::ClosedLoopRunner runner(su.netlist, su.q10);
        control::ClosedLoopConfig cfg;
        cfg.opmWindow = su.droop.windows[0];
        cfg.maxCycles = kDroopCycles;
        cfg.controller.vdd = su.droop.vdd;
        cfg.controller.policy = ThrottleMode::None;
        const control::DroopLabWorkload &phase_mix = *std::find_if(
            su.droop.workloads.begin(), su.droop.workloads.end(),
            [](const auto &w) { return w.name == "phase_mix"; });
        const StatusOr<control::ClosedLoopResult> res =
            rec.call("control.loop_run", k,
                     [&] { return runner.run(phase_mix.program, cfg); });
        ctx.checks.expect(res.ok(), "droop_loop: baseline loop run");
        if (res.ok())
            rec.call("control.truth_power", k,
                     [&] { return runner.truthPower(res->frames); });
    };
    const OpTimes times = runOps(ctx, "bench.droop_loop", lab, apportion);

    const double runs = static_cast<double>(
        su.droop.workloads.size() + last.gridCells);
    WorkloadResult r;
    const double op_s = median(times.plain);
    r.opMs = 1e3 * op_s;
    r.mcycPerS = runs * kDroopCycles / op_s / 1e6;
    if (!ctx.trace)
        return r;

    r.tracedOps = times.traced.size();
    r.overheadPct = times.overheadPct();
    double triggers = 0.0;
    double engaged = 0.0;
    double avoided = 0.0;
    double ipc_loss = 0.0;
    for (const control::DroopLabRow &row : last.rows) {
        triggers += static_cast<double>(row.triggers);
        engaged += static_cast<double>(row.engagedCycles);
        avoided += static_cast<double>(row.droopCyclesAvoided);
        ipc_loss += row.ipcLossFrac;
    }
    r.layer = {
        {"control.triggers", triggers, "count"},
        {"control.engaged_cycles", engaged, "cycles"},
        {"control.droop_cycles_avoided", avoided, "cycles"},
        {"control.ipc_loss_pct",
         100.0 * ipc_loss / std::max<size_t>(1, last.rows.size()), "%"},
    };
    return r;
}

// ---------------------------------------------------------------------
// main
// ---------------------------------------------------------------------

double
peakRssMiB()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

std::string
jsonNumber(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
    return buf;
}

/** Cost of recording one span, from timing many empty ones. */
double
spanCostSeconds()
{
    e2e::SpanRecorder probe(true);
    constexpr int kProbes = 1 << 16;
    const auto t0 = Clock::now();
    for (int i = 0; i < kProbes; ++i)
        probe.call("probe", 0, [] {});
    return secondsSince(t0) / kProbes;
}

/** Per-span, per-layer and coverage numbers of the traced operations. */
void
appendSpanMetrics(const e2e::SpanRecorder &rec, const std::string &root,
                  size_t traced_ops, std::vector<Metric> &metrics)
{
    const double n = static_cast<double>(std::max<size_t>(1, traced_ops));
    const auto by_name = rec.foldByName();
    const auto by_layer = rec.foldByLayer();
    double root_total = 0.0;
    for (const auto &[name, t] : by_name) {
        metrics.push_back({name + "_s", t.total / n, "s"});
        if (name == root)
            root_total = t.total;
    }
    for (const auto &[layer, t] : by_layer)
        metrics.push_back({layer + ".self_s", t.self / n, "s"});
    const double coverage = rec.coverage(root.c_str());
    metrics.push_back({"span_coverage_pct", 100.0 * coverage, "%"});
    // The recorder's own cost per traced operation: noise-free, unlike
    // the traced-minus-untraced difference of trace_overhead_pct.
    const double span_cost = spanCostSeconds();
    metrics.push_back(
        {"span_cost_pct",
         root_total > 0.0 ? 100.0 * span_cost *
                                static_cast<double>(rec.spans().size()) /
                                root_total
                          : 0.0,
         "%"});

    std::fprintf(stderr, "%-34s %6s %12s %12s %7s\n", "span", "count",
                 "total_s/op", "self_s/op", "self%");
    for (const auto &[name, t] : by_name)
        std::fprintf(stderr, "%-34s %6llu %12.6f %12.6f %6.2f%%\n",
                     name.c_str(), static_cast<unsigned long long>(t.count),
                     t.total / n, t.self / n,
                     root_total > 0.0 ? 100.0 * t.self / root_total : 0.0);
    std::fprintf(stderr,
                 "coverage: layer spans cover %.2f%% of %s "
                 "(root self %.6f s of %.6f s per op)\n",
                 100.0 * coverage, root.c_str(),
                 (1.0 - coverage) * root_total / n, root_total / n);
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: bench_e2e --workload=train_n1|emulate_long|"
                 "serve_open|droop_loop --seed=S [--seconds=N] "
                 "[--trace=0|1] [--out=trace.json]\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string out;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&](const char *key) -> const char * {
            const size_t n = std::strlen(key);
            return arg.compare(0, n, key) == 0 ? argv[i] + n : nullptr;
        };
        if (const char *v = value("--workload="))
            workload = v;
        else if (const char *v = value("--seed="))
            seed = std::strtoull(v, nullptr, 10);
        else if (const char *v = value("--seconds="))
            seconds = std::strtod(v, nullptr);
        else if (const char *v = value("--trace="))
            trace = std::strcmp(v, "0") != 0;
        else if (const char *v = value("--out="))
            out = v;
        else
            return usage();
    }
    using Runner = WorkloadResult (*)(const RunContext &);
    Runner runner = nullptr;
    if (workload == "train_n1")
        runner = runTrain;
    else if (workload == "emulate_long")
        runner = runEmulate;
    else if (workload == "serve_open")
        runner = runServe;
    else if (workload == "droop_loop")
        runner = runDroop;
    if (!runner || !(seconds > 0.0))
        return usage();

    std::fprintf(stderr,
                 "# bench_e2e workload=%s seed=%llu seconds=%g trace=%d "
                 "nproc=%u compiler=\"%s\" flags=\"%s\" popcount=%s\n",
                 workload.c_str(), static_cast<unsigned long long>(seed),
                 seconds, trace ? 1 : 0, std::thread::hardware_concurrency(),
                 E2E_COMPILER, E2E_FLAGS,
                 popkernels::implName(popkernels::bestImpl()));

    const Seeds seeds = seedsFor(seed);
    std::vector<double> setup_s;
    std::unique_ptr<Setup> setup;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        setup.reset();
        const auto t0 = Clock::now();
        setup = buildSetup(workload, seeds);
        setup_s.push_back(secondsSince(t0));
    }

    Checks checks;
    checks.expect(setup->model.proxyCount() == kQ,
                  "setup: model has Q != 159 proxies");
    e2e::SpanRecorder rec;
    const RunContext ctx{*setup, seeds, seconds, trace, rec, checks};
    const WorkloadResult result = runner(ctx);

    std::vector<Metric> metrics;
    if (!trace) {
        metrics = {
            {"setup_s", median(setup_s), "s"},
            {"op_ms", result.opMs, "ms"},
            {"mcyc_per_s", result.mcycPerS, "Mcyc/s"},
            {"peak_rss_mb", peakRssMiB(), "MiB"},
        };
    } else {
        metrics = result.layer;
        metrics.push_back(
            {"trace_overhead_pct", result.overheadPct, "%"});
        appendSpanMetrics(rec, "bench." + workload, result.tracedOps,
                          metrics);
        if (!out.empty() && !rec.writeChromeTrace(out))
            std::fprintf(stderr, "warning: cannot write %s\n", out.c_str());
    }

    for (const Metric &m : metrics)
        checks.expect(std::isfinite(m.value), m.name + " is not finite");
    std::string json = "{\"correct\": ";
    json += checks.failed == 0 ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(checks.attempted);
    json += ", \"failed\": " + std::to_string(checks.failed);
    json += ", \"metrics\": {";
    for (size_t i = 0; i < metrics.size(); ++i)
        json += (i ? ", \"" : "\"") + metrics[i].name +
                "\": {\"value\": " + jsonNumber(metrics[i].value) +
                ", \"unit\": \"" + metrics[i].unit + "\"}";
    json += "}}";
    std::printf("%s\n", json.c_str());
    return checks.failed == 0 ? 0 : 1;
}
