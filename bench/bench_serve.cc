/**
 * @file
 * Serving-layer bench: multi-session throughput of the session
 * manager (src/serve/) on an engine x threads x sessions grid of
 * N1ish-shaped synthetic proxy traces: quantized q10 T=32 sessions
 * (`hash_q10`) and float per-cycle sessions (`hash`), at 1, 2 and 4
 * worker threads, with 1 and 8 sessions. Each cell also reports the
 * per-chunk queue wait (submit to a worker's dequeue) and compute time
 * (computeSums plus emit) at p50/p95/p99, read from the session
 * manager's apollo.serve.chunk_{wait,compute}_seconds.<engine>
 * histograms. The serving contract is gated alongside the numbers:
 *
 *  1. Bit identity: every session's streamed samples — for both
 *     engines, at every pool size and session count — equal running
 *     that session's chunk sequence through StreamingInference alone.
 *  2. Record -> replay: a session recorded by the serve loop replays
 *     to byte-identical power events.
 *  3. Scaling: aggregate Mcycles/s of 8 q10 sessions on 4 workers
 *     against the 1-session/1-thread q10 baseline, timing submission
 *     and serving of chunks generated beforehand. The paper-level
 *     target is >= 3x, which needs >= 8 hardware threads; the
 *     enforced floor adapts to the host (min(3, max(0.5, 0.45 *
 *     hw_threads))) and the JSON, headed by bench/common's hostJson(),
 *     records "hardware_threads" so readers can judge the measured
 *     ratio.
 *
 * Results go to BENCH_serve.json.
 *
 * Usage: bench_serve [--smoke] [--reps=N] [--out=PATH]
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "apollo.hh"
#include "common.hh"
#include "obs/metrics.hh"

using namespace apollo;

namespace {

double
nowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

uint64_t
mix64(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/** Per-column toggle density class, N1ish-shaped (see bench_perf_solver). */
int
densityAnds(uint64_t seed, size_t col)
{
    const uint64_t u = mix64(seed ^ (col * 0x51ed2701ULL)) % 100;
    if (u < 7)
        return 0;
    if (u < 27)
        return 1;
    if (u < 55)
        return 2;
    if (u < 80)
        return 3;
    if (u < 93)
        return 4;
    return 5;
}

/** Fill rows [first, first+n) of a chunk from the hash stream. */
void
fillChunkWords(BitColumnMatrix &bits, uint64_t first, size_t n,
               size_t q, uint64_t seed)
{
    bits.reset(n, q);
    const size_t wpc = bits.wordsPerCol();
    if (wpc == 0)
        return;
    const uint64_t tail_mask =
        (n & 63) ? ((1ULL << (n & 63)) - 1) : ~0ULL;
    for (size_t c = 0; c < q; ++c) {
        const int ands = densityAnds(seed, c);
        uint64_t *w = bits.colWordsMutable(c);
        // Chunks are fed at 64-aligned boundaries, so word k of this
        // chunk is global word first/64 + k — chunking cannot change
        // the generated bits.
        const uint64_t word0 = first >> 6;
        for (size_t k = 0; k < wpc; ++k) {
            uint64_t word =
                mix64(seed ^ ((word0 + k) * 0x2545f491ULL) ^
                      (c * 0x9e3779b9ULL));
            for (int t = 0; t < ands; ++t)
                word &= mix64(word + t + 1);
            w[k] = word;
        }
        w[wpc - 1] &= tail_mask;
    }
}

/** The same hash trace as an on-demand chunk source (reference runs). */
class HashChunkReader : public ProxyChunkReader
{
  public:
    HashChunkReader(uint64_t cycles, size_t q, uint64_t seed)
        : cycles_(cycles), q_(q), seed_(seed)
    {}

    size_t proxyCount() const override { return q_; }
    uint64_t totalCycles() const override { return cycles_; }

    StatusOr<size_t>
    next(size_t max_rows, ProxyChunk &chunk) override
    {
        const size_t aligned =
            std::max<size_t>(64, max_rows & ~size_t{63});
        const size_t n = static_cast<size_t>(
            std::min<uint64_t>(aligned, cycles_ - pos_));
        if (n == 0)
            return size_t{0};
        chunk.firstCycle = pos_;
        fillChunkWords(chunk.bits, pos_, n, q_, seed_);
        pos_ += n;
        return n;
    }

  private:
    uint64_t cycles_;
    size_t q_;
    uint64_t seed_;
    uint64_t pos_ = 0;
};

ApolloModel
makeModel(size_t q, uint64_t seed)
{
    ApolloModel model;
    model.intercept = 0.42;
    for (size_t i = 0; i < q; ++i) {
        model.proxyIds.push_back(static_cast<uint32_t>(i));
        const double u =
            static_cast<double>(mix64(seed ^ i) % 2000) / 1000.0 - 1.0;
        model.weights.push_back(static_cast<float>(0.05 + 0.5 * u * u));
    }
    return model;
}

uint64_t
sessionSeed(uint64_t seed, size_t s)
{
    return seed + 0x9e3779b97f4a7c15ULL * (s + 1);
}

/** p50/p95/p99 of one per-chunk histogram, in seconds. */
struct ChunkQuantiles
{
    double p50 = 0.0;
    double p95 = 0.0;
    double p99 = 0.0;
    uint64_t chunks = 0;
};

ChunkQuantiles
quantilesOf(const obs::Histogram &hist)
{
    return {obs::histogramQuantile(hist, 0.50),
            obs::histogramQuantile(hist, 0.95),
            obs::histogramQuantile(hist, 0.99), hist.count()};
}

/** The session manager's per-chunk histograms of one engine. */
struct EngineHistograms
{
    obs::Histogram *wait;
    obs::Histogram *compute;
};

EngineHistograms
engineHistograms(bool quantized)
{
    obs::MetricRegistry &reg = obs::MetricRegistry::instance();
    const std::span<const double> bounds = obs::fineLatencyBounds();
    if (quantized)
        return {&reg.histogram("apollo.serve.chunk_wait_seconds.quantized",
                               bounds),
                &reg.histogram(
                    "apollo.serve.chunk_compute_seconds.quantized",
                    bounds)};
    return {&reg.histogram("apollo.serve.chunk_wait_seconds.float", bounds),
            &reg.histogram("apollo.serve.chunk_compute_seconds.float",
                           bounds)};
}

/** One grid cell: S sessions fed round-robin over a T-thread pool. */
struct CellResult
{
    double seconds = 1e300;
    bool identical = true;
    uint64_t stalls = 0;
    ChunkQuantiles wait;    ///< over every rep of the cell
    ChunkQuantiles compute; ///< over every rep of the cell
};

CellResult
runCell(const std::shared_ptr<const serve::ModelRegistry> &registry,
        const std::string &model, size_t threads, size_t sessions,
        uint64_t cycles, size_t q, uint64_t seed, size_t chunk_rows,
        int reps, const std::vector<std::vector<float>> &refs)
{
    CellResult result;
    const EngineHistograms hists =
        engineHistograms(registry->find(model)->quantized());
    hists.wait->reset();
    hists.compute->reset();
    for (int rep = 0; rep < reps; ++rep) {
        serve::SessionManager manager(
            registry, serve::ServeConfig{}
                          .withThreads(threads)
                          .withMaxSessions(sessions));
        std::vector<VectorSink> sinks(sessions);
        std::vector<serve::SessionId> ids(sessions);
        for (size_t s = 0; s < sessions; ++s) {
            serve::SessionOptions options;
            options.model = model;
            auto id = manager.createSession(options, &sinks[s]);
            id.status().orFatal();
            ids[s] = *id;
        }

        // Every chunk is generated before the clock starts, so the cell
        // times the serving layer, not the single-threaded generator.
        std::vector<std::vector<BitColumnMatrix>> chunks(sessions);
        for (size_t s = 0; s < sessions; ++s)
            for (uint64_t pos = 0; pos < cycles; pos += chunk_rows) {
                chunks[s].emplace_back();
                fillChunkWords(chunks[s].back(), pos,
                               static_cast<size_t>(std::min<uint64_t>(
                                   chunk_rows, cycles - pos)),
                               q, sessionSeed(seed, s));
            }

        const uint64_t stalls0 = manager.stats().backpressureStalls;
        const double t0 = nowSeconds();
        for (size_t i = 0; i < chunks[0].size(); ++i)
            for (size_t s = 0; s < sessions; ++s)
                manager.submitChunk(ids[s], std::move(chunks[s][i]))
                    .orFatal();
        for (size_t s = 0; s < sessions; ++s)
            manager.closeSession(ids[s]).status().orFatal();
        const double secs = nowSeconds() - t0;

        result.seconds = std::min(result.seconds, secs);
        result.stalls = std::max(
            result.stalls, manager.stats().backpressureStalls - stalls0);
        for (size_t s = 0; s < sessions; ++s)
            if (sinks[s].values() != refs[s])
                result.identical = false;
    }
    result.wait = quantilesOf(*hists.wait);
    result.compute = quantilesOf(*hists.compute);
    return result;
}

/** Power-event lines of @p session, in order (replay comparator). */
std::vector<std::string>
powerLines(const std::string &ndjson, const std::string &session)
{
    std::vector<std::string> lines;
    std::istringstream is(ndjson);
    std::string line;
    const std::string tag = "\"session\":\"" + session + "\"";
    while (std::getline(is, line))
        if (line.find(tag) != std::string::npos &&
            line.find("\"first_index\"") != std::string::npos)
            lines.push_back(line);
    return lines;
}

/** Serve a canned request stream; return the response text. */
std::string
serveText(const std::shared_ptr<const serve::ModelRegistry> &registry,
          const std::string &requests, const std::string &record_dir)
{
    std::istringstream in(requests);
    std::ostringstream out;
    serve::ServeLoopOptions options;
    options.config.threads = 2;
    options.recordDir = record_dir;
    auto report = serve::runServeLoop(registry, in, out, options);
    report.status().orFatal();
    APOLLO_REQUIRE(report->errors == 0,
                   "serve loop reported request errors");
    return out.str();
}

} // namespace

int
main(int argc, char **argv)
{
    bool smoke = false;
    int reps = 1;
    std::string out = "BENCH_serve.json";
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--smoke") == 0)
            smoke = true;
        else if (std::strncmp(argv[i], "--reps=", 7) == 0)
            reps = std::atoi(argv[i] + 7);
        else if (std::strncmp(argv[i], "--out=", 6) == 0)
            out = argv[i] + 6;
    }

    const uint64_t n = smoke ? (1 << 17) : (1 << 20); // per session
    const size_t q = smoke ? 48 : 150;
    const uint32_t T = 32;
    const uint32_t bits = 10;
    const size_t chunk_rows = 1 << 14;
    const uint64_t seed = 0x5e47eULL;
    const size_t hw = std::max<size_t>(
        1, std::thread::hardware_concurrency());

    std::printf("bench_serve: n=%llu/session q=%zu T=%u hw=%zu "
                "reps=%d%s\n",
                static_cast<unsigned long long>(n), q, T, hw, reps,
                smoke ? " [smoke]" : "");

    const auto obs_before = bench::obsCounters();

    auto registry = std::make_shared<serve::ModelRegistry>();
    registry->addFloat("hash", makeModel(q, seed)).orFatal();
    registry->addQuantizedVariant("hash_q10", "hash", bits, T)
        .status()
        .orFatal();

    // ---- Sequential references: each session's trace through the
    //      one-stream engine alone, per engine. These are both the
    //      bit-identity oracle and the 1x1 baselines' expected output.
    const size_t max_sessions = 8;
    const char *const engines[] = {"hash_q10", "hash"};
    const StreamingInference qengine(
        *registry->find("hash_q10")->qmodel, T);
    const StreamingInference fengine(*registry->find("hash")->model);
    std::vector<std::vector<float>> refs[2];
    for (int e = 0; e < 2; ++e) {
        const StreamingInference &engine = e == 0 ? qengine : fengine;
        refs[e].resize(max_sessions);
        for (size_t s = 0; s < max_sessions; ++s) {
            HashChunkReader reader(n, q, sessionSeed(seed, s));
            VectorSink sink;
            engine.run(reader, sink,
                       StreamConfig{}.withChunkCycles(chunk_rows))
                .status()
                .orFatal();
            refs[e][s] = sink.takeValues();
            APOLLO_REQUIRE(!refs[e][s].empty(), "empty reference stream");
        }
    }

    // ---- The engine x threads x sessions grid.
    struct Cell
    {
        std::string engine;
        size_t threads = 0;
        size_t sessions = 0;
        CellResult result;
    };
    std::vector<Cell> grid;
    const size_t thread_counts[] = {1, 2, 4};
    for (int e = 0; e < 2; ++e)
        for (const size_t threads : thread_counts)
            for (const size_t sessions : {size_t{1}, max_sessions}) {
                Cell cell;
                cell.engine = engines[e];
                cell.threads = threads;
                cell.sessions = sessions;
                cell.result =
                    runCell(registry, cell.engine, threads, sessions, n,
                            q, seed, chunk_rows, reps, refs[e]);
                const double mcyc = static_cast<double>(n) * sessions /
                                    cell.result.seconds / 1e6;
                std::printf(
                    "  %-8s threads=%zu sessions=%zu  %.3fs  %.1f "
                    "Mcyc/s aggregate (%.1f per session)  stalls=%llu  "
                    "chunk wait p50/p99 %.1f/%.1f us  compute p50/p99 "
                    "%.1f/%.1f us  identical=%s\n",
                    cell.engine.c_str(), threads, sessions,
                    cell.result.seconds, mcyc, mcyc / sessions,
                    static_cast<unsigned long long>(cell.result.stalls),
                    cell.result.wait.p50 * 1e6, cell.result.wait.p99 * 1e6,
                    cell.result.compute.p50 * 1e6,
                    cell.result.compute.p99 * 1e6,
                    cell.result.identical ? "yes" : "NO");
                grid.push_back(std::move(cell));
            }

    const auto cellAt = [&](const char *engine, size_t threads,
                            size_t sessions) {
        for (const Cell &cell : grid)
            if (cell.engine == engine && cell.threads == threads &&
                cell.sessions == sessions)
                return cell.result;
        return CellResult{};
    };
    const CellResult base = cellAt("hash_q10", 1, 1);
    const CellResult wide = cellAt("hash_q10", 4, max_sessions);
    const double base_mcyc =
        static_cast<double>(n) / base.seconds / 1e6;
    const double wide_mcyc = static_cast<double>(n) * max_sessions /
                             wide.seconds / 1e6;
    const double speedup = wide_mcyc / base_mcyc;

    bool all_identical = true;
    for (const Cell &cell : grid)
        all_identical = all_identical && cell.result.identical;

    // ---- Record -> replay on a small canned stream: serve it with
    //      recording on, then replay one record file and compare the
    //      session's power-event lines byte for byte.
    const size_t rr_chunks = 4;
    const size_t rr_rows = 512;
    std::string requests;
    {
        serve::WireRequest req;
        req.op = serve::RequestOp::CreateSession;
        req.session = "s0";
        req.model = "hash_q10";
        requests += serve::encodeRequest(req);
        BitColumnMatrix chunk;
        for (size_t c = 0; c < rr_chunks; ++c) {
            fillChunkWords(chunk, c * rr_rows, rr_rows, q,
                           sessionSeed(seed, 0));
            serve::WireRequest sub;
            sub.op = serve::RequestOp::SubmitChunk;
            sub.session = "s0";
            sub.bits = std::move(chunk);
            requests += serve::encodeRequest(sub);
        }
        serve::WireRequest close;
        close.op = serve::RequestOp::CloseSession;
        close.session = "s0";
        requests += serve::encodeRequest(close);
    }
    const std::string record_dir = "bench_serve_rec";
    const std::string live = serveText(registry, requests, record_dir);
    std::string recorded;
    {
        std::ifstream is(record_dir + "/s0.ndjson");
        APOLLO_REQUIRE(is.is_open(), "missing serve record file");
        std::ostringstream buf;
        buf << is.rdbuf();
        recorded = buf.str();
    }
    const std::string replay = serveText(registry, recorded, "");
    const std::vector<std::string> live_power = powerLines(live, "s0");
    const bool replay_identical =
        !live_power.empty() && live_power == powerLines(replay, "s0");
    std::printf("  record->replay: %zu power events, identical=%s\n",
                live_power.size(), replay_identical ? "yes" : "NO");

    // ---- JSON.
    std::ofstream os(out);
    os << "{\n";
    os << "  \"bench\": \"serve\",\n";
    os << "  \"mode\": \"" << (smoke ? "smoke" : "full") << "\",\n";
    os << "  \"host\": " << bench::hostJson() << ",\n";
    os << "  \"reps\": " << reps << ",\n";
    os << "  \"hardware_threads\": " << hw << ",\n";
    os << "  \"cycles_per_session\": " << n << ",\n";
    os << "  \"q\": " << q << ",\n  \"T\": " << T << ",\n";
    os << "  \"chunk_rows\": " << chunk_rows << ",\n";
    os << "  \"grid\": [\n";
    for (size_t i = 0; i < grid.size(); ++i) {
        const Cell &cell = grid[i];
        const double mcyc = static_cast<double>(n) * cell.sessions /
                            cell.result.seconds / 1e6;
        const auto us = [](double seconds) { return seconds * 1e6; };
        const ChunkQuantiles &w = cell.result.wait;
        const ChunkQuantiles &c = cell.result.compute;
        os << "    {\"engine\": \"" << cell.engine
           << "\", \"threads\": " << cell.threads
           << ", \"sessions\": " << cell.sessions
           << ", \"seconds\": " << cell.result.seconds
           << ", \"aggregate_mcycles_per_sec\": " << mcyc
           << ", \"per_session_mcycles_per_sec\": "
           << mcyc / cell.sessions
           << ", \"backpressure_stalls\": " << cell.result.stalls
           << ", \"chunks\": " << c.chunks
           << ", \"chunk_wait_us\": {\"p50\": " << us(w.p50)
           << ", \"p95\": " << us(w.p95) << ", \"p99\": " << us(w.p99)
           << "}, \"chunk_compute_us\": {\"p50\": " << us(c.p50)
           << ", \"p95\": " << us(c.p95) << ", \"p99\": " << us(c.p99)
           << "}, \"bit_identical\": "
           << (cell.result.identical ? "true" : "false") << "}"
           << (i + 1 < grid.size() ? "," : "") << "\n";
    }
    os << "  ],\n";
    os << "  \"speedup_8x4_vs_1x1_q10\": " << speedup << ",\n";
    const double full_floor =
        std::min(3.0, std::max(0.5, 0.45 * static_cast<double>(hw)));
    const double floor = smoke ? std::min(0.4, full_floor) : full_floor;
    os << "  \"speedup_floor\": " << floor << ",\n";
    os << "  \"bit_identical\": "
       << (all_identical ? "true" : "false") << ",\n";
    os << "  \"record_replay_identical\": "
       << (replay_identical ? "true" : "false") << ",\n";
    os << "  \"obs\": " << bench::obsDeltaJson(obs_before) << "\n";
    os << "}\n";
    std::printf("wrote %s\n", out.c_str());

    // ---- Gates.
    bool ok = true;
    if (!all_identical) {
        std::fprintf(stderr, "FAIL: a served session's samples differ "
                             "from the one-stream engine\n");
        ok = false;
    }
    if (!replay_identical) {
        std::fprintf(stderr, "FAIL: replaying the recorded session "
                             "diverged from the live run\n");
        ok = false;
    }
    if (hw < 8)
        std::printf("note: the paper-level 3x aggregate-throughput "
                    "gate needs >= 8 hardware threads (host has %zu); "
                    "enforcing the adaptive %.2fx floor instead\n",
                    hw, floor);
    if (speedup < floor) {
        std::fprintf(stderr,
                     "FAIL: 8-session q10 aggregate speedup at 4 "
                     "workers %.2fx below the %.2fx floor\n",
                     speedup, floor);
        ok = false;
    }
    return ok ? 0 : 1;
}
