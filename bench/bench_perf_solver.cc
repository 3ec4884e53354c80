/**
 * @file
 * Solver perf bench: times the design-time bottleneck — an MCP
 * target-Q path solve (`solveForTargetQ`, the per-point workhorse of
 * the Fig. 10/12/15(b) Q sweeps) — on N1ish-sized synthetic toggle
 * data, with the three optimization layers toggled individually:
 *
 *   baseline         per-bit scalar kernels, virtual dispatch, no
 *                    screening, serial column passes (the seed solver)
 *   +kernels         word-at-a-time packed-bit kernels + devirtualized
 *                    sweep loop
 *   +screen          strong-rule screening with KKT re-admission
 *   +parallel (all)  column passes fanned over the thread pool
 *
 * All configurations must select the identical proxy support. Results
 * (wall-clock, cumulative sweeps, KKT passes) are written to
 * BENCH_solver.json so future PRs can track the trajectory.
 *
 * Usage: bench_perf_solver [--smoke] [--huge] [--reps=N] [--out=PATH]
 * (--smoke: tiny problem + relaxed timing gate; used by the `perf`
 * ctest label to catch kernel/screening regressions.)
 *
 * --huge adds the paper-scale out-of-core phase (docs/INTERNALS.md
 * §13): the counter-seeded synthetic matrix is streamed into APSH
 * shard files (M = 500k full / 100k smoke — never resident), then
 * selectProxiesSharded runs end to end against the mapped set. Gates:
 * peak RSS growth must stay well below the dense N x M footprint
 * (< 25% in full mode), and an M = 24k identity grid re-checks that
 * the sharded path selects the bit-identical support and weights at
 * every shard count x thread count vs the in-RAM solver. The huge
 * phase runs FIRST (ru_maxrss is monotonic, so the baseline snapshot
 * at main() entry only bounds it if nothing big ran before).
 *
 * A per-kernel ablation follows the layered runs: ns per column of the
 * single exact dot, the kDotBatch-column dot and the fast dot, per
 * available implementation (portable, avx512), over every column of
 * the matrix against its centered labels. Gate: each batch slot equals
 * the single dot and every implementation equals the portable one,
 * bit for bit. BENCH_solver.json is headed by bench/common's
 * hostJson().
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "apollo.hh"
#include "common.hh"
#include "gen/synthetic_toggles.hh"
#include "util/bitvec_kernels.hh"

using namespace apollo;

namespace {

/**
 * N1ish-shaped toggle matrix: column densities spanning rare control
 * toggles (~2%) up to hot gated-clock nets (~75%), generated a word at
 * a time (AND-ing k random words gives rate 2^-k; OR-ing two gives
 * 3/4).
 */
BitColumnMatrix
makeToggleMatrix(size_t n, size_t m, uint64_t seed)
{
    BitColumnMatrix X(n, m);
    Xoshiro256StarStar rng(seed);
    const size_t wpc = X.wordsPerCol();
    const uint64_t tail_mask =
        (n & 63) ? ((1ULL << (n & 63)) - 1) : ~0ULL;
    for (size_t c = 0; c < m; ++c) {
        uint64_t *w = X.colWordsMutable(c);
        const double u = rng.nextDouble();
        int ands = 0; // rate 2^-(ands+1)
        bool dense = false;
        if (u < 0.02)
            dense = true; // ~0.75
        else if (u < 0.07)
            ands = 0; // 0.5
        else if (u < 0.27)
            ands = 1; // 0.25
        else if (u < 0.55)
            ands = 2; // 0.125
        else if (u < 0.80)
            ands = 3; // 0.0625
        else if (u < 0.93)
            ands = 4; // 0.031
        else
            ands = 5; // 0.016
        for (size_t k = 0; k < wpc; ++k) {
            uint64_t word = rng();
            if (dense)
                word |= rng();
            for (int t = 0; t < ands; ++t)
                word &= rng();
            w[k] = word;
        }
        w[wpc - 1] &= tail_mask;
    }
    return X;
}

/** Planted sparse power model over the toggles, with noise. */
std::vector<float>
makeLabels(const BitColumnMatrix &X, size_t planted, uint64_t seed)
{
    Xoshiro256StarStar rng(seed);
    std::vector<float> y(X.rows(), 2.0f);
    for (size_t p = 0; p < planted; ++p) {
        const auto j = static_cast<size_t>(p * X.cols() / planted);
        const auto wj =
            static_cast<float>(0.4 + 1.6 * rng.nextDouble());
        X.axpyColumn(j, wj, y.data());
    }
    for (float &v : y)
        v += static_cast<float>(0.05 * rng.nextGaussian());
    return y;
}

struct LayerConfig
{
    const char *name;
    bool fastKernels;
    bool screen;
    bool parallel;
};

struct RunStats
{
    std::string name;
    double seconds = 0.0;
    TargetQDiagnostics diag;
    std::vector<uint32_t> support;
    bool supportMatch = true;
};

RunStats
runConfig(const LayerConfig &layer, const BitColumnMatrix &X,
          const std::vector<float> &y, size_t q, int reps)
{
    RunStats stats;
    stats.name = layer.name;
    stats.seconds = 1e300;
    for (int rep = 0; rep < reps; ++rep) {
        BitFeatureView fast_view(X);
        ScalarBitFeatureView scalar_view(X);
        const FeatureView &view =
            layer.fastKernels
                ? static_cast<const FeatureView &>(fast_view)
                : static_cast<const FeatureView &>(scalar_view);

        CdConfig cd;
        cd.penalty.kind = PenaltyKind::Mcp;
        cd.penalty.gamma = 10.0;
        cd.maxSweeps = 250;
        cd.screen = layer.screen;

        const auto t0 = std::chrono::steady_clock::now();
        // Solver construction (column norms) and lambdaMax are part of
        // the per-selection cost and are included in the timing.
        CdSolver solver(view, y, {.parallel = layer.parallel});
        TargetQDiagnostics diag;
        const CdResult fit = solveForTargetQ(solver, cd, q, &diag);
        const double secs =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - t0)
                .count();
        if (secs < stats.seconds) {
            stats.seconds = secs;
            stats.diag = diag;
        }
        if (rep == 0)
            stats.support = fit.support();
    }
    return stats;
}

/** One implementation's per-column dot costs (ns per column). */
struct KernelRow
{
    const char *impl = "";
    double dotNs = 0.0;
    double batchNs = 0.0;
    double fastNs = 0.0;
};

/**
 * Per-kernel ablation (file comment): every column of @p X against
 * @p v, best of @p reps passes per kernel. Returns false when a batch
 * slot differs from the single dot, or an implementation's exact or
 * fast dots differ from the portable ones, in any bit.
 */
bool
runKernelAblation(const BitColumnMatrix &X, const std::vector<float> &v,
                  int reps, std::vector<KernelRow> &rows)
{
    namespace bk = bitkernels;
    const size_t m = X.cols();
    const size_t n = X.rows();
    const size_t words = X.wordsPerCol();
    std::vector<double> dot(m), batch(m), fast(m), want_dot, want_fast;
    auto ns_per_col = [&](auto &&pass) {
        double best = 1e300;
        for (int rep = 0; rep < reps; ++rep) {
            const auto t0 = std::chrono::steady_clock::now();
            pass();
            best = std::min(best, std::chrono::duration<double>(
                                      std::chrono::steady_clock::now() -
                                      t0)
                                      .count());
        }
        return 1e9 * best / static_cast<double>(m);
    };
    auto same = [](const std::vector<double> &a,
                   const std::vector<double> &b) {
        return std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) ==
               0;
    };
    bool ok = true;
    for (int i = 0; i < bk::kImplCount; ++i) {
        const auto impl = static_cast<bk::Impl>(i);
        if (!bk::implAvailable(impl))
            continue;
        const bk::Kernels &k = bk::implKernels(impl);
        KernelRow row;
        row.impl = bk::implName(impl);
        row.dotNs = ns_per_col([&] {
            for (size_t j = 0; j < m; ++j)
                dot[j] = k.dot(X.colWords(j), words, n, v.data());
        });
        row.batchNs = ns_per_col([&] {
            const uint64_t *ptrs[bk::kDotBatch];
            for (size_t j = 0; j < m; j += bk::kDotBatch) {
                const size_t cnt = std::min(bk::kDotBatch, m - j);
                for (size_t c = 0; c < cnt; ++c)
                    ptrs[c] = X.colWords(j + c);
                k.dotBatch(ptrs, cnt, words, n, v.data(), batch.data() + j);
            }
        });
        row.fastNs = ns_per_col([&] {
            for (size_t j = 0; j < m; ++j)
                fast[j] = k.dotFast(X.colWords(j), words, n, v.data());
        });
        if (want_dot.empty()) {
            want_dot = dot;
            want_fast = fast;
        }
        const bool row_ok =
            same(batch, dot) && same(dot, want_dot) && same(fast, want_fast);
        std::printf("  kernel %-8s dot %7.1f  batch%zu %7.1f  fast %7.1f "
                    "ns/col  %s\n",
                    row.impl, row.dotNs, bk::kDotBatch, row.batchNs,
                    row.fastNs, row_ok ? "bit-identical" : "MISMATCH");
        ok = ok && row_ok;
        rows.push_back(row);
    }
    return ok;
}

/** Peak RSS of this process so far, in bytes (ru_maxrss is KiB on
 *  Linux and monotonic — deltas only bound phases that ran before the
 *  second snapshot). */
double
peakRssBytes()
{
    struct rusage ru
    {};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) * 1024.0;
}

/** One cell of the M=24k sharded-vs-unsharded identity grid. */
struct IdentityRun
{
    uint32_t shards = 0;
    bool parallel = false;
    double seconds = 0.0;
    bool match = false;
};

/** Results of the out-of-core phase. */
struct HugeResult
{
    size_t n = 0;
    size_t m = 0;
    size_t q = 0;
    uint32_t shards = 0;
    double genSeconds = 0.0;
    double selectSeconds = 0.0;
    double rssDeltaBytes = 0.0;
    double denseBytes = 0.0;
    double rssLimitBytes = 0.0;
    size_t nonzeros = 0;
    ShardSelectionStats stats;
    bool rssOk = false;
    bool selectOk = false;
    std::vector<IdentityRun> identity;
    bool identityOk = false;
};

/**
 * Paper-scale out-of-core selection: stream the counter-seeded
 * synthetic matrix into APSH shards (one column block in RAM at a
 * time), then run selectProxiesSharded against the mapped set. The
 * matrix is never resident; the RSS gate checks that stays true end
 * to end.
 */
void
runHugePhase(bool smoke, double baseline_rss, HugeResult &h)
{
    namespace fs = std::filesystem;
    h.n = smoke ? 4096 : 12000;
    h.m = smoke ? 100000 : 500000;
    h.q = smoke ? 48 : 159;
    h.shards = smoke ? 16 : 32;
    const size_t wpc = (h.n + 63) / 64;
    h.denseBytes = static_cast<double>(wpc) * 8.0 *
                   static_cast<double>(h.m);
    // The ISSUE gate (< 25% of the dense footprint) applies at the
    // full M=500k scale; smoke shrinks the matrix until fixed costs
    // (thread stacks, allocator slack) are a visible fraction, so it
    // gets a relaxed factor while still proving sub-linear residency.
    h.rssLimitBytes = (smoke ? 0.5 : 0.25) * h.denseBytes;

    const fs::path dir = fs::temp_directory_path() / "apollo_bench_huge";
    std::error_code ec;
    fs::create_directories(dir, ec);
    const std::string base =
        (dir / (smoke ? "huge_smoke" : "huge")).string();

    std::printf("huge: n=%zu m=%zu q=%zu shards=%u (dense footprint "
                "%.0f MiB, never resident)\n",
                h.n, h.m, h.q, h.shards, h.denseBytes / (1 << 20));
    auto t0 = std::chrono::steady_clock::now();
    const Status gen =
        writeSyntheticShards(base, h.n, h.m, h.shards, 0xa9011c);
    h.genSeconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - t0)
                       .count();
    if (!gen.ok()) {
        std::fprintf(stderr, "huge: shard generation failed: %s\n",
                     gen.message().c_str());
        return;
    }
    const std::vector<float> y =
        makeSyntheticLabels(h.n, h.m, h.m / 80 + 8, 0xa9011c, 0x5eed);

    t0 = std::chrono::steady_clock::now();
    StatusOr<MappedShardSet> set = MappedShardSet::open(base);
    if (!set.ok()) {
        std::fprintf(stderr, "huge: open failed: %s\n",
                     set.status().message().c_str());
        return;
    }
    ProxySelectorConfig cfg;
    cfg.targetQ = h.q;
    StatusOr<ProxySelection> sel =
        selectProxiesSharded(*set, y, cfg, &h.stats);
    h.selectSeconds = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    if (!sel.ok()) {
        std::fprintf(stderr, "huge: selection failed: %s\n",
                     sel.status().message().c_str());
        return;
    }
    h.selectOk = true;
    h.nonzeros = sel->proxyIds.size();
    h.rssDeltaBytes = peakRssBytes() - baseline_rss;
    h.rssOk = h.rssDeltaBytes < h.rssLimitBytes;
    std::printf("  gen %.1fs  select %.1fs  nnz=%zu  admitted=%llu/%llu"
                "  peak_strong=%llu\n",
                h.genSeconds, h.selectSeconds, h.nonzeros,
                static_cast<unsigned long long>(h.stats.screenAdmitted),
                static_cast<unsigned long long>(h.stats.colsScanned),
                static_cast<unsigned long long>(h.stats.peakStrongSize));
    std::printf("  peak RSS delta %.0f MiB vs dense %.0f MiB "
                "(limit %.0f MiB) %s\n",
                h.rssDeltaBytes / (1 << 20), h.denseBytes / (1 << 20),
                h.rssLimitBytes / (1 << 20),
                h.rssOk ? "OK" : "FAIL");
    fs::remove_all(dir, ec);
}

/**
 * The determinism gate at the paper's N1ish scale: selectProxiesSharded
 * over K ∈ {1,4,16} shards, serial and pooled, must reproduce the
 * in-RAM selectProxies support, weights, and intercept bit-for-bit
 * (M = 24k full / 6k smoke of the same counter-seeded matrix).
 */
void
runIdentityGrid(bool smoke, HugeResult &h)
{
    namespace fs = std::filesystem;
    const size_t n = smoke ? 2500 : 12000;
    const size_t m = smoke ? 6000 : 24000;
    const size_t q = smoke ? 48 : 159;

    const BitColumnMatrix X = makeSyntheticToggleBlock(n, 0, m, 0xa9011c);
    const std::vector<float> y =
        makeSyntheticLabels(n, m, m / 80 + 8, 0xa9011c, 0x5eed);
    ProxySelectorConfig cfg;
    cfg.targetQ = q;
    const BitFeatureView view(X);
    const ProxySelection want = selectProxies(view, y, cfg);

    const fs::path dir =
        fs::temp_directory_path() / "apollo_bench_huge_identity";
    std::error_code ec;
    fs::create_directories(dir, ec);
    h.identityOk = true;
    for (uint32_t shards : {1u, 4u, 16u}) {
        const std::string base =
            (dir / ("id_" + std::to_string(shards))).string();
        const Status saved = saveShardedMatrix(base, X, shards);
        StatusOr<MappedShardSet> set =
            saved.ok() ? MappedShardSet::open(base)
                       : StatusOr<MappedShardSet>(saved);
        for (bool parallel : {false, true}) {
            IdentityRun run;
            run.shards = shards;
            run.parallel = parallel;
            if (set.ok()) {
                cfg.parallel = parallel;
                const auto t0 = std::chrono::steady_clock::now();
                StatusOr<ProxySelection> got =
                    selectProxiesSharded(*set, y, cfg);
                run.seconds = std::chrono::duration<double>(
                                  std::chrono::steady_clock::now() - t0)
                                  .count();
                run.match =
                    got.ok() && got->proxyIds == want.proxyIds &&
                    got->sparseModel.w.size() == want.sparseModel.w.size() &&
                    std::memcmp(got->sparseModel.w.data(),
                                want.sparseModel.w.data(),
                                want.sparseModel.w.size() *
                                    sizeof(float)) == 0 &&
                    got->sparseModel.intercept ==
                        want.sparseModel.intercept;
            }
            std::printf("  identity m=%zu shards=%-2u %s %7.3fs  %s\n",
                        m, shards, parallel ? "pool  " : "serial",
                        run.seconds,
                        run.match ? "bit-identical" : "MISMATCH");
            h.identityOk = h.identityOk && run.match;
            h.identity.push_back(run);
        }
    }
    fs::remove_all(dir, ec);
}

/** The "huge" JSON section (inserted into BENCH_solver.json). */
std::string
hugeJson(const HugeResult &h)
{
    std::ostringstream os;
    os << "{\n";
    os << "    \"n\": " << h.n << ", \"m\": " << h.m << ", \"q\": "
       << h.q << ", \"shards\": " << h.shards << ",\n";
    os << "    \"gen_seconds\": " << h.genSeconds
       << ", \"select_seconds\": " << h.selectSeconds << ",\n";
    os << "    \"dense_bytes\": " << static_cast<uint64_t>(h.denseBytes)
       << ", \"peak_rss_delta_bytes\": "
       << static_cast<uint64_t>(h.rssDeltaBytes)
       << ", \"rss_limit_bytes\": "
       << static_cast<uint64_t>(h.rssLimitBytes)
       << ", \"rss_ok\": " << (h.rssOk ? "true" : "false") << ",\n";
    os << "    \"nonzeros\": " << h.nonzeros << ", \"q_over_m\": "
       << (h.m ? static_cast<double>(h.nonzeros) /
                     static_cast<double>(h.m)
               : 0.0)
       << ",\n";
    os << "    \"cols_scanned\": " << h.stats.colsScanned
       << ", \"screen_admitted\": " << h.stats.screenAdmitted
       << ", \"screen_dropped\": " << h.stats.screenDropped << ",\n";
    os << "    \"bytes_mapped\": " << h.stats.bytesMapped
       << ", \"kkt_rescreens\": " << h.stats.kktRescreens
       << ", \"kkt_dots\": " << h.stats.kktDots
       << ", \"peak_strong_size\": " << h.stats.peakStrongSize << ",\n";
    os << "    \"identity_grid\": [\n";
    for (size_t i = 0; i < h.identity.size(); ++i) {
        const IdentityRun &r = h.identity[i];
        os << "      {\"shards\": " << r.shards << ", \"parallel\": "
           << (r.parallel ? "true" : "false") << ", \"seconds\": "
           << r.seconds << ", \"bit_identical\": "
           << (r.match ? "true" : "false") << "}"
           << (i + 1 < h.identity.size() ? "," : "") << "\n";
    }
    os << "    ]\n";
    os << "  }";
    return os.str();
}

void
writeJson(const std::string &path, const char *mode, size_t n, size_t m,
          size_t q, const std::vector<RunStats> &runs, double speedup,
          const std::string &obs_json, const std::string &huge_json,
          const std::vector<KernelRow> &kernels, bool kernels_ok)
{
    std::ofstream os(path);
    os << "{\n";
    os << "  \"host\": " << bench::hostJson() << ",\n";
    os << "  \"bench\": \"solver_path\",\n";
    os << "  \"mode\": \"" << mode << "\",\n";
    os << "  \"n\": " << n << ",\n  \"m\": " << m << ",\n  \"q\": " << q
       << ",\n";
    if (!huge_json.empty())
        os << "  \"huge\": " << huge_json << ",\n";
    os << "  \"configs\": [\n";
    for (size_t i = 0; i < runs.size(); ++i) {
        const RunStats &r = runs[i];
        os << "    {\"name\": \"" << r.name << "\", \"seconds\": "
           << r.seconds << ", \"total_sweeps\": " << r.diag.totalSweeps
           << ", \"kkt_passes\": " << r.diag.totalKktPasses
           << ", \"kkt_dots\": " << r.diag.totalKktDots
           << ", \"path_points\": " << r.diag.pathPoints
           << ", \"bisections\": " << r.diag.bisections
           << ", \"nonzeros\": " << r.support.size()
           << ", \"support_matches_baseline\": "
           << (r.supportMatch ? "true" : "false") << "}"
           << (i + 1 < runs.size() ? "," : "") << "\n";
    }
    os << "  ],\n";
    if (!kernels.empty()) {
        os << "  \"kernels\": [\n";
        for (size_t i = 0; i < kernels.size(); ++i) {
            const KernelRow &k = kernels[i];
            os << "    {\"impl\": \"" << k.impl
               << "\", \"dot_ns_per_col\": " << k.dotNs
               << ", \"batch_ns_per_col\": " << k.batchNs
               << ", \"fast_ns_per_col\": " << k.fastNs << "}"
               << (i + 1 < kernels.size() ? "," : "") << "\n";
        }
        os << "  ],\n";
        os << "  \"kernels_bit_identical\": "
           << (kernels_ok ? "true" : "false") << ",\n";
    }
    os << "  \"obs\": " << obs_json << ",\n";
    os << "  \"speedup_all_vs_baseline\": " << speedup << "\n";
    os << "}\n";
}

} // namespace

int
main(int argc, char **argv)
{
    // Snapshot before any allocation: the huge phase's RSS gate is a
    // delta against this (and the huge phase runs before everything
    // else, since ru_maxrss never decreases).
    const double baseline_rss = peakRssBytes();

    bool smoke = false;
    bool huge = false;
    int reps = 1;
    std::string out = "BENCH_solver.json";
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--smoke") == 0)
            smoke = true;
        else if (std::strcmp(argv[i], "--huge") == 0)
            huge = true;
        else if (std::strncmp(argv[i], "--reps=", 7) == 0)
            reps = std::atoi(argv[i] + 7);
        else if (std::strncmp(argv[i], "--out=", 6) == 0)
            out = argv[i] + 6;
    }

    const auto obs_before = bench::obsCounters();

    HugeResult hugeResult;
    std::string huge_json;
    bool huge_ok = true;
    if (huge) {
        std::printf("bench_perf_solver: out-of-core phase%s\n",
                    smoke ? " [smoke]" : "");
        runHugePhase(smoke, baseline_rss, hugeResult);
        runIdentityGrid(smoke, hugeResult);
        huge_json = hugeJson(hugeResult);
        huge_ok = hugeResult.selectOk && hugeResult.rssOk &&
                  hugeResult.identityOk;
    }
    if (huge && smoke) {
        // The layered smoke bench already runs as perf.solver_smoke;
        // the huge smoke ctest only guards the out-of-core path.
        writeJson(out, "huge_smoke", hugeResult.n, hugeResult.m,
                  hugeResult.q, {}, 0.0,
                  bench::obsDeltaJson(obs_before), huge_json, {}, true);
        std::printf("wrote %s\n", out.c_str());
        if (!huge_ok) {
            std::fprintf(stderr,
                         "FAIL: out-of-core phase (select=%d rss=%d "
                         "identity=%d)\n",
                         hugeResult.selectOk, hugeResult.rssOk,
                         hugeResult.identityOk);
            return 1;
        }
        return 0;
    }

    // N1ish-sized: ~24k candidate signals, Q at the paper's Fig. 10
    // operating point. Smoke mode shrinks everything so the perf ctest
    // label stays fast.
    const size_t n = smoke ? 2500 : 12000;
    const size_t m = smoke ? 2000 : 24000;
    const size_t q = smoke ? 48 : 159;

    std::printf("bench_perf_solver: n=%zu m=%zu q=%zu reps=%d%s\n", n, m,
                q, reps, smoke ? " [smoke]" : "");
    const BitColumnMatrix X = makeToggleMatrix(n, m, 0xa9011c);
    const std::vector<float> y = makeLabels(X, m / 80 + 8, 0x5eed);

    const LayerConfig layers[] = {
        {"baseline", false, false, false},
        {"kernels", true, false, false},
        {"kernels+screen", true, true, false},
        {"all", true, true, true},
    };

    std::vector<RunStats> runs;
    for (const LayerConfig &layer : layers) {
        RunStats stats = runConfig(layer, X, y, q, reps);
        if (!runs.empty())
            stats.supportMatch = stats.support == runs.front().support;
        std::printf("  %-16s %8.3fs  sweeps=%-6zu kkt=%-4zu dots=%-7zu "
                    "points=%zu+%zu  nnz=%zu%s\n",
                    stats.name.c_str(), stats.seconds,
                    stats.diag.totalSweeps, stats.diag.totalKktPasses,
                    stats.diag.totalKktDots, stats.diag.pathPoints,
                    stats.diag.bisections, stats.support.size(),
                    stats.supportMatch ? "" : "  SUPPORT MISMATCH");
        runs.push_back(std::move(stats));
    }

    const double speedup = runs.front().seconds / runs.back().seconds;
    std::printf("speedup (all vs baseline): %.2fx\n", speedup);
    const std::string obs_json = bench::obsDeltaJson(obs_before);

    std::vector<float> centered = y;
    double mean = 0.0;
    for (float v : y)
        mean += v;
    mean /= static_cast<double>(y.size());
    for (float &v : centered)
        v -= static_cast<float>(mean);
    std::vector<KernelRow> kernels;
    const bool kernels_ok =
        runKernelAblation(X, centered, smoke ? 1 : std::max(reps, 3),
                          kernels);

    const char *mode =
        huge ? "full+huge" : (smoke ? "smoke" : "full");
    writeJson(out, mode, n, m, q, runs, speedup, obs_json, huge_json,
              kernels, kernels_ok);
    std::printf("wrote %s\n", out.c_str());

    bool ok = true;
    for (const RunStats &r : runs)
        ok = ok && r.supportMatch;
    if (!ok) {
        std::fprintf(stderr, "FAIL: optimized configurations changed "
                             "the selected support\n");
        return 1;
    }
    if (!kernels_ok) {
        std::fprintf(stderr, "FAIL: a dot kernel differs from the single "
                             "or the portable dot\n");
        return 1;
    }
    if (!huge_ok) {
        std::fprintf(stderr,
                     "FAIL: out-of-core phase (select=%d rss=%d "
                     "identity=%d)\n",
                     hugeResult.selectOk, hugeResult.rssOk,
                     hugeResult.identityOk);
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
