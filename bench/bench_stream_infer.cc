/**
 * @file
 * Streaming pipeline bench: throughput and peak memory of the
 * chunked trace-to-power engine (flow/stream_engine.hh) against the
 * batch paths, on N1ish-shaped synthetic proxy traces.
 *
 * Three claims are measured and gated:
 *
 *  1. Flat memory: streaming a 10x longer trace leaves the engine's
 *     peak buffer bytes (and process RSS) unchanged — the trace is
 *     generated chunk by chunk and never resident. The memory-scaling
 *     runs execute FIRST, before any batch matrix is allocated, so
 *     ru_maxrss reflects the streaming pipeline alone.
 *  2. Quantized throughput: the bit-parallel OPM kernel (one weighted
 *     popcount per column per window segment) streams at >= 100
 *     Mcycles/s single-thread in full mode.
 *  3. Bit identity: streamed samples equal the batch paths exactly
 *     (float per-cycle; quantized windows from the stream, the batch
 *     OpmSimulator::simulate() and the naive ref::opmSimulate()), and
 *     every popcount implementation the host runs produces the same
 *     segment sums as the default dispatch.
 *  4. The per-cycle float kernel (bitkernels weightedSum, behind
 *     ApolloModel::cycleSums): ns per proxy-word of every bit-kernel
 *     implementation at 16,384 rows (one served chunk) and at 1M rows
 *     (smoke: 64k), Q = 159, hot cache, against the per-column loop it
 *     replaced (fill, then one axpy per proxy through the same
 *     implementation). Every output must equal the portable entry
 *     word for word; in full mode no implementation may be slower
 *     than its own per-column loop.
 *
 * Results go to BENCH_stream.json, headed by bench/common's hostJson().
 *
 * Usage: bench_stream_infer [--smoke] [--reps=N] [--out=PATH]
 */

#include <sys/resource.h>

#include <bit>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "apollo.hh"
#include "common.hh"

#include "opm/opm_bitparallel.hh"
#include "ref/reference_kernels.hh"
#include "util/bitvec_kernels.hh"
#include "util/popcnt_kernels.hh"

using namespace apollo;

namespace {

double
nowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
maxRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KB on Linux
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
    // 0 ands = 50% dense .. 5 ands = 1.6%; a few hot columns stay at 0.
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
        // Chunks are served at 64-aligned boundaries, so word k of this
        // chunk is global word first/64 + k — chunk size cannot change
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

/**
 * Deterministic synthetic trace source generating chunks on demand —
 * memory-scaling runs use it so a 10x longer trace allocates nothing
 * extra.
 */
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
        // Keep chunk boundaries 64-aligned so the word-wise generator
        // is chunk-size invariant.
        const size_t aligned = std::max<size_t>(64, max_rows & ~size_t{63});
        const size_t n =
            static_cast<size_t>(std::min<uint64_t>(aligned,
                                                   cycles_ - pos_));
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

/** Materialize the same hash trace as one batch matrix. */
BitColumnMatrix
materialize(uint64_t cycles, size_t q, uint64_t seed)
{
    BitColumnMatrix X;
    fillChunkWords(X, 0, static_cast<size_t>(cycles), q, seed);
    return X;
}

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

struct Timed
{
    double seconds = 1e300;
    StreamStats stats;
};

} // namespace

int
main(int argc, char **argv)
{
    bool smoke = false;
    int reps = 1;
    std::string out = "BENCH_stream.json";
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--smoke") == 0)
            smoke = true;
        else if (std::strncmp(argv[i], "--reps=", 7) == 0)
            reps = std::atoi(argv[i] + 7);
        else if (std::strncmp(argv[i], "--out=", 6) == 0)
            out = argv[i] + 6;
    }

    const uint64_t n = smoke ? 120000 : 2000000;
    const size_t q = smoke ? 48 : 150;
    const uint32_t T = 32;
    const uint64_t seed = 0x57a3a11ULL;

    std::printf("bench_stream_infer: n=%llu q=%zu T=%u reps=%d%s\n",
                static_cast<unsigned long long>(n), q, T, reps,
                smoke ? " [smoke]" : "");

    const auto obs_before = bench::obsCounters();
    const ApolloModel model = makeModel(q, seed);
    const QuantizedModel qm = quantizeModel(model, 10);
    const StreamingInference fengine(model);
    const StreamingInference qengine(qm, T);
    const StreamConfig config; // defaults: 16k chunk, auto in-flight

    // ---- 1. Memory scaling (must run before any batch allocation so
    //         ru_maxrss is untouched by trace-length-sized buffers).
    StreamStats mem1, mem10;
    double rss1 = 0.0, rss10 = 0.0;
    {
        HashChunkReader reader(n, q, seed);
        RingBufferSink sink(256);
        StatusOr<StreamStats> stats = qengine.run(reader, sink, config);
        stats.status().orFatal();
        mem1 = *stats;
        rss1 = maxRssMb();
    }
    {
        HashChunkReader reader(10 * n, q, seed);
        RingBufferSink sink(256);
        StatusOr<StreamStats> stats = qengine.run(reader, sink, config);
        stats.status().orFatal();
        mem10 = *stats;
        rss10 = maxRssMb();
    }
    std::printf("  memory: peak buffers %.2f MB @N, %.2f MB @10N; "
                "RSS %.1f MB -> %.1f MB\n",
                mem1.peakBufferBytes / 1e6, mem10.peakBufferBytes / 1e6,
                rss1, rss10);

    // ---- 2. Throughput + bit identity vs the batch paths.
    const BitColumnMatrix X = materialize(n, q, seed);

    // Quantized: batch simulate() vs streaming, one kernel.
    Timed qbatch, qstream;
    std::vector<float> qbatch_power, qstream_power;
    OpmSimulator sim(qm, T);
    for (int rep = 0; rep < reps; ++rep) {
        const double t0 = nowSeconds();
        qbatch_power = sim.simulate(X);
        qbatch.seconds = std::min(qbatch.seconds, nowSeconds() - t0);
    }
    for (int rep = 0; rep < reps; ++rep) {
        MatrixChunkReader reader(X);
        VectorSink sink;
        const double t0 = nowSeconds();
        StatusOr<StreamStats> stats = qengine.run(reader, sink, config);
        const double secs = nowSeconds() - t0;
        stats.status().orFatal();
        if (secs < qstream.seconds) {
            qstream.seconds = secs;
            qstream.stats = *stats;
        }
        qstream_power = sink.takeValues();
    }
    const bool q_identical = qstream_power == qbatch_power &&
                             qbatch_power == ref::opmSimulate(qm, X, T);
    const double q_speedup = qbatch.seconds / qstream.seconds;

    // Float per-cycle: batch predictProxies vs streaming.
    Timed fbatch, fstream;
    std::vector<float> fbatch_power, fstream_power;
    for (int rep = 0; rep < reps; ++rep) {
        const double t0 = nowSeconds();
        fbatch_power = model.predictProxies(X);
        fbatch.seconds = std::min(fbatch.seconds, nowSeconds() - t0);
    }
    for (int rep = 0; rep < reps; ++rep) {
        MatrixChunkReader reader(X);
        VectorSink sink;
        const double t0 = nowSeconds();
        StatusOr<StreamStats> stats = fengine.run(reader, sink, config);
        const double secs = nowSeconds() - t0;
        stats.status().orFatal();
        if (secs < fstream.seconds) {
            fstream.seconds = secs;
            fstream.stats = *stats;
        }
        fstream_power = sink.takeValues();
    }
    const bool f_identical = fstream_power == fbatch_power;
    const double f_speedup = fbatch.seconds / fstream.seconds;

    const double n_d = static_cast<double>(n);
    std::printf("  quantized: batch %.3fs (%.1f Mcyc/s)  stream %.3fs "
                "(%.1f Mcyc/s)  speedup %.2fx  identical=%s\n",
                qbatch.seconds, n_d / qbatch.seconds / 1e6,
                qstream.seconds, n_d / qstream.seconds / 1e6, q_speedup,
                q_identical ? "yes" : "NO");
    std::printf("  float:     batch %.3fs (%.1f Mcyc/s)  stream %.3fs "
                "(%.1f Mcyc/s)  speedup %.2fx  identical=%s\n",
                fbatch.seconds, n_d / fbatch.seconds / 1e6,
                fstream.seconds, n_d / fstream.seconds / 1e6, f_speedup,
                f_identical ? "yes" : "NO");

    // ---- 3. Kernel ablation: the whole-matrix segment sums under
    //         each popcount implementation the machine can run. Every
    //         variant must equal the default dispatch.
    struct KernelRow
    {
        std::string name;
        double seconds = 1e300;
        bool identical = false;
    };
    std::vector<KernelRow> kernel_rows;
    {
        std::vector<int64_t> want;
        opmSegmentSums(qm, T, 0, X, X.rows(), popkernels::kernels(), want);
        using popkernels::Impl;
        for (const Impl impl : {Impl::Scalar, Impl::Avx2, Impl::Avx512}) {
            if (!popkernels::implAvailable(impl))
                continue;
            KernelRow row;
            row.name = popkernels::implName(impl);
            std::vector<int64_t> segs;
            for (int rep = 0; rep < reps; ++rep) {
                const double t0 = nowSeconds();
                opmSegmentSums(qm, T, 0, X, X.rows(),
                               popkernels::implKernels(impl), segs);
                row.seconds = std::min(row.seconds, nowSeconds() - t0);
            }
            row.identical = segs == want;
            std::printf("  kernel[%s]: %.3fs (%.1f Mcyc/s)  "
                        "identical=%s\n",
                        row.name.c_str(), row.seconds,
                        n_d / row.seconds / 1e6,
                        row.identical ? "yes" : "NO");
            kernel_rows.push_back(std::move(row));
        }
    }

    // ---- 4. Weighted-sum ablation: the per-cycle float kernel per
    //         bit-kernel implementation, against the per-column loop it
    //         replaced. Every output must equal the portable entry.
    struct SumRow
    {
        std::string name;
        size_t rows = 0;
        double nsPerWord = 0.0;
        double loopNsPerWord = 0.0;
        bool identical = false;
    };
    std::vector<SumRow> sum_rows;
    const size_t sum_q = 159;
    {
        const ApolloModel sum_model = makeModel(sum_q, seed ^ 0x5a5a);
        const float start = static_cast<float>(sum_model.intercept);
        using bitkernels::Impl;
        const auto bitsOf = [](const std::vector<float> &v) {
            std::vector<uint32_t> out(v.size());
            for (size_t i = 0; i < v.size(); ++i)
                out[i] = std::bit_cast<uint32_t>(v[i]);
            return out;
        };
        for (const size_t rows :
             {size_t{16384}, smoke ? size_t{65536} : size_t{1} << 20}) {
            BitColumnMatrix Xs;
            fillChunkWords(Xs, 0, rows, sum_q, seed ^ 0x5a5a);
            std::vector<const uint64_t *> cols(sum_q);
            for (size_t c = 0; c < sum_q; ++c)
                cols[c] = Xs.colWords(c);
            const size_t wpc = Xs.wordsPerCol();
            const int sum_reps =
                rows <= 16384 ? (smoke ? 20 : 200) : (smoke ? 5 : 10);
            const double words = static_cast<double>(sum_q * wpc);
            std::vector<float> want(rows), got(rows);
            bitkernels::implKernels(Impl::Portable)
                .weightedSum(cols.data(), sum_model.weights.data(), sum_q,
                             wpc, rows, start, want.data());
            const std::vector<uint32_t> want_bits = bitsOf(want);
            for (const Impl impl : {Impl::Portable, Impl::Avx512}) {
                if (!bitkernels::implAvailable(impl))
                    continue;
                const bitkernels::Kernels &k = bitkernels::implKernels(impl);
                SumRow row;
                row.name = bitkernels::implName(impl);
                row.rows = rows;
                row.identical = true;
                double best = 1e300;
                double best_loop = 1e300;
                for (int rep = 0; rep < sum_reps; ++rep) {
                    double t0 = nowSeconds();
                    k.weightedSum(cols.data(), sum_model.weights.data(),
                                  sum_q, wpc, rows, start, got.data());
                    best = std::min(best, nowSeconds() - t0);
                    row.identical = row.identical && bitsOf(got) == want_bits;
                    t0 = nowSeconds();
                    std::fill(got.begin(), got.end(), start);
                    for (size_t c = 0; c < sum_q; ++c)
                        if (sum_model.weights[c] != 0.0f)
                            k.axpy(cols[c], wpc, rows,
                                   sum_model.weights[c], got.data());
                    best_loop = std::min(best_loop, nowSeconds() - t0);
                    row.identical = row.identical && bitsOf(got) == want_bits;
                }
                row.nsPerWord = best * 1e9 / words;
                row.loopNsPerWord = best_loop * 1e9 / words;
                std::printf("  weighted_sum[%s] %zu x %zu: %.3f ns/proxy-word "
                            "(%.1f us)  per-column loop %.3f  speedup "
                            "%.2fx  identical=%s\n",
                            row.name.c_str(), rows, sum_q, row.nsPerWord,
                            best * 1e6, row.loopNsPerWord,
                            row.loopNsPerWord / row.nsPerWord,
                            row.identical ? "yes" : "NO");
                sum_rows.push_back(std::move(row));
            }
        }
    }

    const double batch_rss = maxRssMb();
    const double mem_ratio =
        static_cast<double>(mem10.peakBufferBytes) /
        static_cast<double>(mem1.peakBufferBytes);

    std::ofstream os(out);
    os << "{\n";
    os << "  \"bench\": \"stream_infer\",\n";
    os << "  \"mode\": \"" << (smoke ? "smoke" : "full") << "\",\n";
    os << "  \"host\": " << bench::hostJson() << ",\n";
    os << "  \"reps\": " << reps << ",\n";
    os << "  \"n\": " << n << ",\n  \"q\": " << q << ",\n  \"T\": " << T
       << ",\n";
    os << "  \"memory\": {\n";
    os << "    \"peak_buffer_bytes_at_n\": " << mem1.peakBufferBytes
       << ",\n";
    os << "    \"peak_buffer_bytes_at_10n\": " << mem10.peakBufferBytes
       << ",\n";
    os << "    \"peak_buffer_ratio_10n\": " << mem_ratio << ",\n";
    os << "    \"stream_rss_mb_at_n\": " << rss1 << ",\n";
    os << "    \"stream_rss_mb_at_10n\": " << rss10 << ",\n";
    os << "    \"rss_mb_after_batch\": " << batch_rss << "\n";
    os << "  },\n";
    os << "  \"quantized\": {\n";
    os << "    \"batch_seconds\": " << qbatch.seconds << ",\n";
    os << "    \"stream_seconds\": " << qstream.seconds << ",\n";
    os << "    \"batch_mcycles_per_sec\": "
       << n_d / qbatch.seconds / 1e6 << ",\n";
    os << "    \"stream_mcycles_per_sec\": "
       << n_d / qstream.seconds / 1e6 << ",\n";
    os << "    \"speedup_stream_vs_batch\": " << q_speedup << ",\n";
    os << "    \"bit_identical\": " << (q_identical ? "true" : "false")
       << "\n  },\n";
    os << "  \"float\": {\n";
    os << "    \"batch_seconds\": " << fbatch.seconds << ",\n";
    os << "    \"stream_seconds\": " << fstream.seconds << ",\n";
    os << "    \"batch_mcycles_per_sec\": "
       << n_d / fbatch.seconds / 1e6 << ",\n";
    os << "    \"stream_mcycles_per_sec\": "
       << n_d / fstream.seconds / 1e6 << ",\n";
    os << "    \"speedup_stream_vs_batch\": " << f_speedup << ",\n";
    os << "    \"bit_identical\": " << (f_identical ? "true" : "false")
       << "\n  },\n";
    os << "  \"kernels\": [\n";
    for (size_t i = 0; i < kernel_rows.size(); ++i) {
        const KernelRow &row = kernel_rows[i];
        os << "    {\"name\": \"" << row.name
           << "\", \"seconds\": " << row.seconds
           << ", \"mcycles_per_sec\": "
           << n_d / row.seconds / 1e6 << ", \"bit_identical\": "
           << (row.identical ? "true" : "false") << "}"
           << (i + 1 < kernel_rows.size() ? "," : "") << "\n";
    }
    os << "  ],\n";
    os << "  \"weighted_sum\": [\n";
    for (size_t i = 0; i < sum_rows.size(); ++i) {
        const SumRow &row = sum_rows[i];
        os << "    {\"impl\": \"" << row.name << "\", \"rows\": " << row.rows
           << ", \"q\": " << sum_q
           << ", \"ns_per_proxy_word\": " << row.nsPerWord
           << ", \"column_loop_ns_per_proxy_word\": " << row.loopNsPerWord
           << ", \"speedup_vs_column_loop\": "
           << row.loopNsPerWord / row.nsPerWord << ", \"bit_identical\": "
           << (row.identical ? "true" : "false") << "}"
           << (i + 1 < sum_rows.size() ? "," : "") << "\n";
    }
    os << "  ],\n";
    os << "  \"obs\": " << bench::obsDeltaJson(obs_before) << "\n";
    os << "}\n";
    std::printf("wrote %s\n", out.c_str());

    // ---- Gates.
    bool ok = true;
    if (!q_identical || !f_identical) {
        std::fprintf(stderr, "FAIL: streamed power differs from the "
                             "batch path or the reference\n");
        ok = false;
    }
    if (mem_ratio > 2.0) {
        std::fprintf(stderr,
                     "FAIL: peak buffers grew %.2fx at 10x trace "
                     "length (expected flat)\n",
                     mem_ratio);
        ok = false;
    }
    if (rss10 > rss1 * 1.5 + 64.0) {
        std::fprintf(stderr,
                     "FAIL: RSS grew from %.1f MB to %.1f MB at 10x "
                     "trace length\n",
                     rss1, rss10);
        ok = false;
    }
    const double q_mcyc = n_d / qstream.seconds / 1e6;
    if (!smoke && q_mcyc < 100.0) {
        std::fprintf(stderr,
                     "FAIL: quantized streaming %.1f Mcyc/s below the "
                     "100 Mcyc/s bit-parallel floor\n",
                     q_mcyc);
        ok = false;
    }
    for (const KernelRow &row : kernel_rows)
        if (!row.identical) {
            std::fprintf(stderr,
                         "FAIL: kernel '%s' segment sums differ from "
                         "the default dispatch\n",
                         row.name.c_str());
            ok = false;
        }
    for (const SumRow &row : sum_rows) {
        if (!row.identical) {
            std::fprintf(stderr,
                         "FAIL: weighted sum '%s' at %zu rows differs "
                         "from the portable entry\n",
                         row.name.c_str(), row.rows);
            ok = false;
        }
        if (!smoke && row.nsPerWord > row.loopNsPerWord) {
            std::fprintf(stderr,
                         "FAIL: weighted sum '%s' at %zu rows is slower "
                         "than its per-column loop (%.3f vs %.3f "
                         "ns/proxy-word)\n",
                         row.name.c_str(), row.rows, row.nsPerWord,
                         row.loopNsPerWord);
            ok = false;
        }
    }
    return ok ? 0 : 1;
}
