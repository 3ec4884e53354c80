/**
 * @file
 * apollo — command-line driver for the whole framework, so each stage
 * of the paper's flow (Fig. 2) can be run and inspected as a separate
 * artifact-producing step:
 *
 *   apollo gen-data  --design n1ish --out train.apds [--ga] ...
 *   apollo gen-test  --design n1ish --out test.apds
 *   apollo train     --data train.apds --q 159 --out model.txt
 *   apollo eval      --model model.txt --data test.apds
 *   apollo opm       --model model.txt --design n1ish --bits 10
 *                    [--window 32] [--emit opm.hh]
 *   apollo trace     --model model.txt --design n1ish --cycles 1000000
 *                    [--out trace.csv]
 *   apollo droop-lab --model model.txt --design n1ish [--cycles 3000]
 *                    [--out report.json]
 *   apollo serve     --model model.txt [--bits 10] [--in reqs.ndjson]
 *                    [--record dir] [--replay dir/s0.ndjson]
 *   apollo serve-gen --model model.txt --sessions 4 --chunks 8
 *                    --out reqs.ndjson
 *
 * Run `apollo help` for the full usage text.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <string>

#include "apollo.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"

using namespace apollo;

namespace {

/** Tiny flag parser: --key value pairs after the subcommand. */
class Args
{
  public:
    Args(int argc, char **argv, int first)
    {
        for (int i = first; i + 1 < argc; i += 2) {
            APOLLO_REQUIRE(std::strncmp(argv[i], "--", 2) == 0,
                           "expected --flag, got ", argv[i]);
            values_[argv[i] + 2] = argv[i + 1];
        }
        if ((argc - first) % 2 != 0)
            fatal("dangling flag: ", argv[argc - 1]);
    }

    std::string
    get(const std::string &key, const std::string &fallback = "") const
    {
        auto it = values_.find(key);
        return it == values_.end() ? fallback : it->second;
    }

    long
    getInt(const std::string &key, long fallback) const
    {
        auto it = values_.find(key);
        return it == values_.end() ? fallback
                                   : std::stol(it->second);
    }

    /** A count flag (cycles, benchmarks, ...): must be at least 1. */
    long
    getCount(const std::string &key, long fallback) const
    {
        const long v = getInt(key, fallback);
        if (v <= 0)
            fatal("--", key, " must be a positive count, got ", v);
        return v;
    }

    /** A thread count or latency: must be at least 0. */
    long
    getNonNegative(const std::string &key, long fallback) const
    {
        const long v = getInt(key, fallback);
        if (v < 0)
            fatal("--", key, " must be a non-negative count, got ", v);
        return v;
    }

    bool
    getBool(const std::string &key) const
    {
        const std::string v = get(key, "0");
        return v == "1" || v == "true" || v == "yes";
    }

  private:
    std::map<std::string, std::string> values_;
};

/**
 * The model file at @p path: IoError when it cannot be opened,
 * ApolloModel::load's ParseError when it is malformed.
 */
StatusOr<ApolloModel>
readModelFile(const std::string &path)
{
    std::ifstream is(path);
    if (!is.is_open())
        return Status::ioError("cannot open model file ", path);
    return ApolloModel::load(is);
}

/** Print @p status as the CLI's error line; returns the exit code. */
int
reportError(const Status &status)
{
    std::fprintf(stderr, "error: %s\n", status.toString().c_str());
    return 1;
}

DesignConfig
designByName(const std::string &name)
{
    if (name == "tiny")
        return DesignConfig::tiny();
    if (name == "n1ish")
        return DesignConfig::neoverseN1ish();
    if (name == "a77ish")
        return DesignConfig::cortexA77ish();
    fatal("unknown design '", name, "' (tiny | n1ish | a77ish)");
}

int
cmdGenData(const Args &args)
{
    const Netlist netlist =
        DesignBuilder::build(designByName(args.get("design", "tiny")));
    const auto n_benchmarks =
        static_cast<size_t>(args.getCount("benchmarks", 30));
    const auto cycles =
        static_cast<uint64_t>(args.getCount("cycles", 400));
    const std::string out = args.get("out", "train.apds");

    DatasetBuilder builder(netlist);
    if (args.getBool("ga")) {
        std::fprintf(stderr, "running the GA generator...\n");
        TrainingGenOptions opts;
        opts.ga.populationSize =
            static_cast<uint32_t>(args.getCount("population", 24));
        opts.ga.generations =
            static_cast<uint32_t>(args.getCount("generations", 8));
        opts.ga.fitnessSignalStride = 4;
        opts.benchmarks = n_benchmarks;
        opts.cyclesEach = cycles;
        StatusOr<TrainingGenReport> report =
            generateTrainingSet(netlist, opts);
        if (!report.ok())
            fatal(report.status().toString());
        std::fprintf(stderr,
                     "GA power range ratio: %.2fx (cache hit rate "
                     "%.1f%%)\n",
                     report->powerRangeRatio,
                     100.0 * report->gaStats.hitRate());
        const Dataset ds = report->dataset;
        saveDatasetFile(out, ds);
        std::printf("wrote %s: %zu cycles x %zu signals (%zu "
                    "benchmarks, mean power %.4f)\n",
                    out.c_str(), ds.cycles(), ds.signals(),
                    ds.segments.size(), ds.meanLabel());
        return 0;
    }
    {
        Xoshiro256StarStar rng(
            static_cast<uint64_t>(args.getInt("seed", 42)));
        for (size_t i = 0; i < n_benchmarks; ++i) {
            builder.addProgram(
                Program::makeLoop("rand" + std::to_string(i),
                                  GaGenerator::randomBody(rng, 6, 26),
                                  8000, rng()),
                cycles);
        }
    }
    const Dataset ds = builder.build();
    saveDatasetFile(out, ds);
    std::printf("wrote %s: %zu cycles x %zu signals (%zu benchmarks, "
                "mean power %.4f)\n",
                out.c_str(), ds.cycles(), ds.signals(),
                ds.segments.size(), ds.meanLabel());
    return 0;
}

int
cmdGenTest(const Args &args)
{
    const Netlist netlist =
        DesignBuilder::build(designByName(args.get("design", "tiny")));
    const std::string out = args.get("out", "test.apds");
    DatasetBuilder builder(netlist);
    for (const TestBenchmark &bench : designerTestSuite())
        builder.addProgram(bench.program, bench.cycles, bench.throttle);
    const Dataset ds = builder.build();
    saveDatasetFile(out, ds);
    std::printf("wrote %s: the 12 designer benchmarks, %zu cycles\n",
                out.c_str(), ds.cycles());
    return 0;
}

int
cmdTrain(const Args &args)
{
    const Dataset train =
        loadDatasetFile(args.get("data", "train.apds"));
    const std::string out = args.get("out", "model.txt");

    ApolloTrainConfig cfg;
    cfg.selection.targetQ = static_cast<size_t>(args.getInt("q", 159));
    cfg.selection.gamma =
        static_cast<double>(args.getInt("gamma", 10));
    if (args.getBool("lasso"))
        cfg.selection.kind = PenaltyKind::Lasso;

    const ApolloTrainResult res =
        trainApollo(train, cfg, args.get("design-name", "design"));
    std::ofstream os(out);
    res.model.save(os);
    std::printf("trained Q=%zu model in %.1fs selection + %.1fs "
                "relaxation (lambda=%.5g); wrote %s\n",
                res.model.proxyCount(), res.selectSeconds,
                res.relaxSeconds, res.selection.diagnostics.lambda,
                out.c_str());
    return 0;
}

int
cmdEval(const Args &args)
{
    StatusOr<ApolloModel> loaded =
        readModelFile(args.get("model", "model.txt"));
    if (!loaded.ok())
        return reportError(loaded.status());
    const ApolloModel &model = *loaded;
    const Dataset test = loadDatasetFile(args.get("data", "test.apds"));

    const auto pred = model.predictFull(test.X);
    std::printf("%-16s %8s %8s %8s\n", "benchmark", "NRMSE", "NMAE",
                "mean");
    for (const SegmentInfo &seg : test.segments) {
        std::vector<float> y(test.y.begin() + seg.begin,
                             test.y.begin() + seg.end);
        std::vector<float> p(pred.begin() + seg.begin,
                             pred.begin() + seg.end);
        std::printf("%-16s %7.2f%% %7.2f%% %8.4f\n", seg.name.c_str(),
                    100.0 * nrmse(y, p), 100.0 * nmae(y, p), mean(y));
    }
    std::printf("overall: R2=%.4f NRMSE=%.2f%% NMAE=%.2f%% (Q=%zu)\n",
                r2Score(test.y, pred), 100.0 * nrmse(test.y, pred),
                100.0 * nmae(test.y, pred), model.proxyCount());
    return 0;
}

int
cmdOpm(const Args &args)
{
    StatusOr<ApolloModel> loaded =
        readModelFile(args.get("model", "model.txt"));
    if (!loaded.ok())
        return reportError(loaded.status());
    const ApolloModel &model = *loaded;
    const Netlist netlist =
        DesignBuilder::build(designByName(args.get("design", "tiny")));
    const auto bits = static_cast<uint32_t>(args.getInt("bits", 10));
    const auto window =
        static_cast<uint32_t>(args.getInt("window", 32));

    const QuantizedModel qm = quantizeModel(model, bits);
    const OpmHardwareReport rep =
        analyzeOpmHardware(netlist, qm, window, 0.15);
    std::printf("OPM configuration: Q=%zu, B=%u, T=%u\n",
                qm.proxyCount(), bits, window);
    std::printf("area: %.0f GE (interface %.0f, compute %.0f, "
                "accumulate %.0f, routing %.0f) = %.3f%% of core\n",
                rep.totalGE, rep.interfaceGE, rep.computeGE,
                rep.accumGE, rep.routingGE, 100.0 * rep.areaOverhead);
    std::printf("power overhead: %.2f%% (logic %.2f%% + routing "
                "%.2f%%); latency %u cycles\n",
                100.0 * rep.totalPowerOverhead,
                100.0 * rep.logicPowerOverhead,
                100.0 * rep.routingPowerOverhead, rep.latencyCycles);

    const std::string emit = args.get("emit");
    if (!emit.empty()) {
        std::ofstream os(emit);
        os << emitOpmHlsSource(qm, window);
        std::printf("wrote HLS-style OPM source to %s\n", emit.c_str());
    }
    return 0;
}

int
cmdTrace(const Args &args)
{
    const auto cycles =
        static_cast<uint64_t>(args.getCount("cycles", 100000));
    StatusOr<ApolloModel> loaded =
        readModelFile(args.get("model", "model.txt"));
    if (!loaded.ok())
        return reportError(loaded.status());
    const ApolloModel &model = *loaded;
    const Netlist netlist =
        DesignBuilder::build(designByName(args.get("design", "tiny")));

    DesignTimeFlows flows(netlist);
    const Program workload = makeLongWorkload(
        "workload", cycles * 2,
        static_cast<uint64_t>(args.getInt("seed", 9)));
    const FlowReport rep =
        flows.runEmulatorFlow(workload, cycles, model);
    std::printf("emulator-assisted trace: %llu cycles in %.2fs "
                "(%.0f kcycles/s), %.2f MB proxy trace\n",
                static_cast<unsigned long long>(rep.cycles),
                rep.totalSeconds(),
                rep.cycles / rep.totalSeconds() / 1e3,
                rep.traceBytes / 1e6);

    const std::string out = args.get("out");
    if (!out.empty()) {
        std::ofstream os(out);
        os << "cycle,power\n";
        for (size_t i = 0; i < rep.power.size(); ++i)
            os << i << "," << rep.power[i] << "\n";
        std::printf("wrote per-cycle power to %s\n", out.c_str());
    }
    return 0;
}

/** @p v as uint32_t, saturating, so an oversized value stays one. */
uint32_t
saturateU32(long v)
{
    return static_cast<uint32_t>(
        std::min<unsigned long>(static_cast<unsigned long>(v), UINT32_MAX));
}

int
cmdDroopLab(const Args &args)
{
    // Flags first: a bad value fails before the model loads and before
    // the lab builds a pool of that many workers.
    control::DroopLabConfig cfg = control::defaultDroopLabConfig(
        static_cast<uint64_t>(args.getCount("cycles", 3000)));
    cfg.threads = saturateU32(args.getNonNegative("threads", 0));
    const std::string pctl = args.get("percentile");
    if (!pctl.empty())
        cfg.triggerPercentile = std::stod(pctl);
    cfg.engageCycles =
        saturateU32(args.getCount("engage", cfg.engageCycles));
    cfg.triggerLatency =
        saturateU32(args.getNonNegative("latency", cfg.triggerLatency));
    if (Status st = cfg.validate(); !st.ok())
        fatal(st.toString());

    StatusOr<ApolloModel> loaded =
        readModelFile(args.get("model", "model.txt"));
    if (!loaded.ok())
        return reportError(loaded.status());
    const ApolloModel &model = *loaded;
    const Netlist netlist =
        DesignBuilder::build(designByName(args.get("design", "tiny")));

    const StatusOr<control::DroopLabReport> report =
        runDroopLab(netlist, model, cfg);
    if (!report.ok())
        fatal(report.status().toString());

    std::printf("droop lab: %llu closed-loop cells, %zu scenario "
                "rows (* = Pareto front of avoided-vs-IPC-loss per "
                "workload x PDN)\n\n",
                static_cast<unsigned long long>(report->gridCells),
                report->rows.size());
    report->render(std::cout);
    std::printf("\nOPM-guided policy dominating no-mitigation at "
                "<10%% IPC loss: %s\n",
                report->hasDominatingPolicy() ? "yes" : "no");

    const std::string out = args.get("out");
    if (!out.empty()) {
        std::ofstream os(out);
        os << report->toJson();
        if (!os)
            fatal("cannot write droop-lab report to ", out);
        std::printf("wrote JSON report to %s\n", out.c_str());
    }
    return 0;
}

int
cmdServe(const Args &args)
{
    // Flags first: a bad value fails before the model loads and before
    // the session manager starts that many workers.
    serve::ServeLoopOptions options;
    options.config.threads =
        static_cast<size_t>(args.getNonNegative("threads", 0));
    options.config.maxSessions =
        static_cast<size_t>(args.getCount("max-sessions", 64));
    options.config.maxQueuedChunks =
        static_cast<size_t>(args.getCount("max-queue", 4));
    if (Status st = options.config.validate(); !st.ok())
        fatal(st.toString());

    const std::string model_path = args.get("model");
    APOLLO_REQUIRE(!model_path.empty(), "serve needs --model FILE");
    StatusOr<ApolloModel> loaded = readModelFile(model_path);
    if (!loaded.ok())
        return reportError(loaded.status());
    const ApolloModel &model = *loaded;

    const std::string name = args.get("name", "default");
    const auto bits = static_cast<uint32_t>(args.getInt("bits", 0));
    const auto window =
        static_cast<uint32_t>(args.getInt("window", 32));

    auto registry = std::make_shared<serve::ModelRegistry>();
    registry->addFloat(name, model).orFatal();
    if (bits > 0) {
        // A quantized OPM variant rides along under "<name>_q<bits>",
        // sharing the float entry's weights.
        registry->addQuantizedVariant(name + "_q" + std::to_string(bits),
                                      name, bits, window)
            .status()
            .orFatal();
    }

    options.recordDir = args.get("record");

    // --replay FILE is sugar for --in FILE: a record file IS a request
    // stream, so replaying is just serving it again.
    std::string in_path = args.get("replay");
    if (in_path.empty())
        in_path = args.get("in");
    const std::string out_path = args.get("out");

    std::ifstream fin;
    if (!in_path.empty()) {
        fin.open(in_path);
        APOLLO_REQUIRE(fin.is_open(), "cannot open request stream ",
                       in_path);
    }
    std::ofstream fout;
    if (!out_path.empty()) {
        fout.open(out_path);
        APOLLO_REQUIRE(fout.is_open(), "cannot open output file ",
                       out_path);
    }
    std::istream &in = in_path.empty() ? std::cin : fin;
    std::ostream &out = out_path.empty() ? std::cout : fout;

    StatusOr<serve::ServeLoopReport> report =
        serve::runServeLoop(registry, in, out, options);
    if (!report.ok())
        fatal(report.status().toString());
    std::fprintf(stderr,
                 "served %llu requests: %llu sessions, %llu chunks, "
                 "%llu errors, %llu auto-closed at EOF\n",
                 static_cast<unsigned long long>(report->requests),
                 static_cast<unsigned long long>(report->sessionsCreated),
                 static_cast<unsigned long long>(report->chunks),
                 static_cast<unsigned long long>(report->errors),
                 static_cast<unsigned long long>(report->autoClosed));
    return report->errors == 0 ? 0 : 1;
}

int
cmdServeGen(const Args &args)
{
    const std::string model_path = args.get("model");
    APOLLO_REQUIRE(!model_path.empty(), "serve-gen needs --model FILE");
    StatusOr<ApolloModel> loaded = readModelFile(model_path);
    if (!loaded.ok())
        return reportError(loaded.status());
    const ApolloModel &model = *loaded;
    const size_t q = model.proxyCount();

    const std::string name = args.get("name", "default");
    const auto sessions =
        static_cast<size_t>(args.getInt("sessions", 4));
    const auto chunks = static_cast<size_t>(args.getInt("chunks", 8));
    const auto rows =
        static_cast<size_t>(args.getInt("cycles-per-chunk", 4096));
    const auto window =
        static_cast<uint32_t>(args.getInt("window", 0));
    const auto seed = static_cast<uint64_t>(args.getInt("seed", 1));
    const std::string out_path = args.get("out", "serve_requests.ndjson");
    APOLLO_REQUIRE(sessions > 0 && chunks > 0 && rows > 0,
                   "sessions/chunks/cycles-per-chunk must be positive");

    std::ofstream os(out_path);
    APOLLO_REQUIRE(os.is_open(), "cannot open ", out_path);

    for (size_t s = 0; s < sessions; ++s) {
        serve::WireRequest req;
        req.op = serve::RequestOp::CreateSession;
        req.session = "s" + std::to_string(s);
        req.model = name;
        req.windowT = window;
        os << serve::encodeRequest(req);
    }
    // Interleave chunk submissions round-robin across the sessions so
    // the request stream itself exercises concurrent multiplexing.
    const uint64_t tail_mask =
        (rows % 64 == 0) ? ~uint64_t{0}
                         : ((uint64_t{1} << (rows % 64)) - 1);
    for (size_t c = 0; c < chunks; ++c) {
        for (size_t s = 0; s < sessions; ++s) {
            Xoshiro256StarStar rng(seed + 1000003 * s + c);
            serve::WireRequest req;
            req.op = serve::RequestOp::SubmitChunk;
            req.session = "s" + std::to_string(s);
            req.bits.reset(rows, q);
            for (size_t col = 0; col < q; ++col) {
                uint64_t *words = req.bits.colWordsMutable(col);
                const size_t wpc = req.bits.wordsPerCol();
                for (size_t w = 0; w < wpc; ++w)
                    words[w] = rng() & rng(); // ~25% toggle density
                words[wpc - 1] &= tail_mask;
            }
            os << serve::encodeRequest(req);
        }
    }
    for (size_t s = 0; s < sessions; ++s) {
        serve::WireRequest req;
        req.op = serve::RequestOp::CloseSession;
        req.session = "s" + std::to_string(s);
        os << serve::encodeRequest(req);
    }
    APOLLO_REQUIRE(static_cast<bool>(os), "write to ", out_path,
                   " failed");
    std::printf("wrote %zu sessions x %zu chunks x %zu cycles (Q=%zu) "
                "to %s\n",
                sessions, chunks, rows, q, out_path.c_str());
    return 0;
}

void
usage()
{
    std::printf(
        "apollo — APOLLO power-modeling framework CLI\n\n"
        "subcommands:\n"
        "  gen-data --design D --out F [--ga 1] [--benchmarks N]\n"
        "           [--cycles C] [--seed S]     generate training data\n"
        "  gen-test --design D --out F          designer test suite\n"
        "  train    --data F --q Q --out F      MCP select + relax\n"
        "           [--gamma G] [--lasso 1]\n"
        "  eval     --model F --data F          per-benchmark metrics\n"
        "  opm      --model F --design D        quantize + HW report\n"
        "           [--bits B] [--window T] [--emit F]\n"
        "  trace    --model F --design D        emulator-assisted flow\n"
        "           [--cycles N] [--out F]\n"
        "  droop-lab --model F --design D       closed-loop droop\n"
        "           [--cycles N] [--threads K]  mitigation sweep\n"
        "           [--percentile P] [--engage E] [--latency L]\n"
        "           [--out report.json]         (Pareto table)\n"
        "  serve    --model F [--name N]        serve the v1 wire API\n"
        "           [--bits B] [--window T]     (docs/SERVE_SCHEMA.md)\n"
        "           [--in F | --replay F] [--out F] [--record DIR]\n"
        "           [--threads K] [--max-sessions S] [--max-queue Q]\n"
        "  serve-gen --model F [--name N]       deterministic request\n"
        "           [--sessions S] [--chunks C] stream generator\n"
        "           [--cycles-per-chunk R] [--window T] [--seed X]\n"
        "           [--out F]\n"
        "designs: tiny | n1ish | a77ish\n\n"
        "global flags (any subcommand):\n"
        "  --metrics-json F   write a metrics-registry snapshot (JSON)\n"
        "                     after the subcommand finishes\n"
        "  --trace-out F      record trace spans and write Chrome\n"
        "                     trace_event JSON (chrome://tracing,\n"
        "                     Perfetto)\n");
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2 || std::strcmp(argv[1], "help") == 0 ||
        std::strcmp(argv[1], "--help") == 0) {
        usage();
        return argc < 2 ? 1 : 0;
    }
    const std::string cmd = argv[1];
    try {
        Args args(argc, argv, 2);

        // Global observability flags, honoured by every subcommand
        // (Args tolerates keys a subcommand does not consume).
        const std::string metrics_out = args.get("metrics-json");
        const std::string trace_out = args.get("trace-out");
        if (!trace_out.empty())
            obs::TraceCollector::instance().setEnabled(true);

        int rc = 1;
        if (cmd == "gen-data")
            rc = cmdGenData(args);
        else if (cmd == "gen-test")
            rc = cmdGenTest(args);
        else if (cmd == "train")
            rc = cmdTrain(args);
        else if (cmd == "eval")
            rc = cmdEval(args);
        else if (cmd == "opm")
            rc = cmdOpm(args);
        else if (cmd == "trace")
            rc = cmdTrace(args);
        else if (cmd == "droop-lab")
            rc = cmdDroopLab(args);
        else if (cmd == "serve")
            rc = cmdServe(args);
        else if (cmd == "serve-gen")
            rc = cmdServeGen(args);
        else {
            std::fprintf(stderr, "unknown subcommand '%s'\n",
                         cmd.c_str());
            usage();
            return 1;
        }

        if (!metrics_out.empty()) {
            std::ofstream os(metrics_out);
            os << obs::MetricRegistry::instance().snapshotJson()
               << '\n';
            if (!os)
                fatal("cannot write metrics snapshot to ", metrics_out);
            std::fprintf(stderr, "wrote metrics snapshot to %s\n",
                         metrics_out.c_str());
        }
        if (!trace_out.empty()) {
            obs::TraceCollector::instance()
                .writeJson(trace_out)
                .orFatal();
            std::fprintf(stderr, "wrote trace events to %s\n",
                         trace_out.c_str());
        }
        return rc;
    } catch (const std::exception &err) {
        std::fprintf(stderr, "error: %s\n", err.what());
        return 1;
    }
}
