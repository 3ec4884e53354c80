/**
 * @file
 * Observability overhead gate: the disabled path of every APOLLO_COUNT /
 * APOLLO_OBSERVE / APOLLO_TRACE_SPAN site must be a branch on one
 * relaxed atomic load, so a run with the registry runtime-disabled and
 * a run with it enabled (but nobody reading the metrics) must be
 * indistinguishable — the gate allows < 2% slowdown plus a small
 * absolute epsilon for shared-machine timer noise.
 *
 * The workload deliberately hits the instrumented hot paths: streaming
 * quantized inference (per-run and per-chunk counters, sink timing) and
 * the batch OPM simulator (per-simulation counters + toggle-density
 * histogram).
 *
 * Results go to BENCH_obs_overhead.json, headed by the host/build
 * identity of bench/common's hostJson().
 *
 * Usage: bench_obs_overhead [--smoke] [--reps=N] [--out=PATH]
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
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

BitColumnMatrix
makeMatrix(size_t n, size_t q, uint64_t seed)
{
    BitColumnMatrix X;
    X.reset(n, q);
    for (size_t c = 0; c < q; ++c) {
        // Column density ~25%: AND of two hash words.
        for (size_t i = 0; i < n; ++i) {
            const uint64_t a = mix64(seed ^ (c * 0x10001 + i));
            const uint64_t b = mix64(seed ^ 0xabcd ^ (c + i * 7));
            if ((a & b & 1ULL) != 0)
                X.setBit(i, c);
        }
    }
    return X;
}

ApolloModel
makeModel(size_t q)
{
    ApolloModel model;
    model.intercept = 0.42;
    for (size_t i = 0; i < q; ++i) {
        model.proxyIds.push_back(static_cast<uint32_t>(i));
        model.weights.push_back(
            static_cast<float>(0.05 + 0.002 * static_cast<double>(i)));
    }
    return model;
}

/** One pass over the instrumented hot paths. */
double
workload(const BitColumnMatrix &X, const StreamingInference &qengine,
         OpmSimulator &sim)
{
    MatrixChunkReader reader(X);
    VectorSink sink;
    StreamConfig config;
    config.chunkCycles = 4096; // several chunks per run
    StatusOr<StreamStats> stats = qengine.run(reader, sink, config);
    stats.status().orFatal();
    const std::vector<float> batch = sim.simulate(X);
    return static_cast<double>(stats->outputs) +
           static_cast<double>(batch.size());
}

/** Min-of-reps wall time of the workload in the current obs mode. */
double
measure(const BitColumnMatrix &X, const StreamingInference &qengine,
        OpmSimulator &sim, int reps)
{
    double best = 1e300;
    for (int rep = 0; rep < reps; ++rep) {
        const double t0 = nowSeconds();
        (void)workload(X, qengine, sim);
        best = std::min(best, nowSeconds() - t0);
    }
    return best;
}

} // namespace

int
main(int argc, char **argv)
{
    bool smoke = false;
    int reps = 7;
    std::string out = "BENCH_obs_overhead.json";
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--smoke") == 0)
            smoke = true;
        else if (std::strncmp(argv[i], "--reps=", 7) == 0)
            reps = std::atoi(argv[i] + 7);
        else if (std::strncmp(argv[i], "--out=", 6) == 0)
            out = argv[i] + 6;
    }

    const size_t n = smoke ? 100000 : 400000;
    const size_t q = 48;
    const uint32_t T = 32;

    const std::string host = bench::hostJson();
    std::printf("bench_obs_overhead: n=%zu q=%zu T=%u reps=%d%s\n"
                "# host %s\n",
                n, q, T, reps, smoke ? " [smoke]" : "", host.c_str());

    const BitColumnMatrix X = makeMatrix(n, q, 0x0b5eed);
    const ApolloModel model = makeModel(q);
    const QuantizedModel qm = quantizeModel(model, 10);
    const StreamingInference qengine(qm, T);
    OpmSimulator sim(qm, T);

    obs::MetricRegistry &reg = obs::MetricRegistry::instance();
    const bool was_enabled = reg.enabled();

    // Warm up caches and the thread pool in both modes.
    reg.setEnabled(false);
    (void)workload(X, qengine, sim);
    reg.setEnabled(true);
    (void)workload(X, qengine, sim);

    reg.setEnabled(false);
    const double disabled = measure(X, qengine, sim, reps);
    reg.setEnabled(true);
    const double enabled = measure(X, qengine, sim, reps);
    reg.setEnabled(was_enabled);

    const double overhead = enabled / disabled - 1.0;
    std::printf("  disabled %.4fs  enabled %.4fs  overhead %+.2f%%\n",
                disabled, enabled, 100.0 * overhead);

    std::ofstream os(out);
    os << "{\n";
    os << "  \"host\": " << host << ",\n";
    os << "  \"bench\": \"obs_overhead\",\n";
    os << "  \"mode\": \"" << (smoke ? "smoke" : "full") << "\",\n";
    os << "  \"n\": " << n << ",\n  \"q\": " << q << ",\n  \"T\": " << T
       << ",\n";
    os << "  \"disabled_seconds\": " << disabled << ",\n";
    os << "  \"enabled_seconds\": " << enabled << ",\n";
    os << "  \"overhead\": " << overhead << "\n";
    os << "}\n";
    std::printf("wrote %s\n", out.c_str());

    // Gate: < 2% relative plus 5 ms absolute noise floor (min-of-reps
    // already rejects most scheduler interference).
    if (enabled > disabled * 1.02 + 0.005) {
        std::fprintf(stderr,
                     "FAIL: enabled-idle observability costs %.2f%% "
                     "(budget 2%%)\n",
                     100.0 * overhead);
        return 1;
    }
    return 0;
}
