/**
 * @file
 * The oracle registry: every production inference / solver /
 * quantization path, registered against its src/ref oracle. Paths that
 * are bit-exact by construction (per-cycle float inference, Eq. (9)
 * windows, integer OPM arithmetic, quantization) compare with exact
 * equality; the iterative solver paths are certified with the
 * independent KKT fixed-point residual plus objective agreement
 * against the naive reference fit, with tolerances derived from the
 * solver's own convergence metric (see checkSolver()).
 */

#include "harness/differential.hh"

#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <limits>

#include "apollo.hh"

#include "activity/toggle_columns.hh"
#include "gen/fitness_eval.hh"
#include "harness/case_gen.hh"
#include "ml/coordinate_descent.hh"
#include "ml/feature_view.hh"
#include "ml/sharded_view.hh"
#include "ml/solver_path.hh"
#include "opm/opm_bitparallel.hh"
#include "opm/opm_simulator.hh"
#include "opm/quantize.hh"
#include "util/bitvec_kernels.hh"
#include "util/popcnt_kernels.hh"
#include "control/droop_controller.hh"
#include "ref/reference_control.hh"
#include "ref/reference_core.hh"
#include "ref/reference_ga.hh"
#include "ref/reference_kernels.hh"
#include "ref/reference_shard.hh"
#include "ref/reference_solver.hh"
#include "trace/shard_store.hh"
#include "trace/stream_reader.hh"
#include "util/logging.hh"
#include "util/thread_pool.hh"

namespace apollo::harness {

namespace {

std::string
fmt(const char *format, ...)
{
    char buf[512];
    va_list ap;
    va_start(ap, format);
    std::vsnprintf(buf, sizeof(buf), format, ap);
    va_end(ap);
    return buf;
}

/** Bit-for-bit float comparison (so -0.0 differs from +0.0); NaN
 *  anywhere is a failure. */
std::optional<std::string>
compareExact(std::span<const float> prod, std::span<const float> want,
             const std::string &shape)
{
    if (prod.size() != want.size())
        return fmt("shape=%s: size mismatch prod=%zu ref=%zu",
                   shape.c_str(), prod.size(), want.size());
    for (size_t i = 0; i < prod.size(); ++i) {
        if (std::bit_cast<uint32_t>(prod[i]) !=
                std::bit_cast<uint32_t>(want[i]) ||
            std::isnan(prod[i]))
            return fmt("shape=%s: element %zu: prod=%a ref=%a",
                       shape.c_str(), i, static_cast<double>(prod[i]),
                       static_cast<double>(want[i]));
    }
    return std::nullopt;
}

/**
 * Smallest width b with |v| < 2^b for every v in [min_sum, max_sum] —
 * the OPM's declared-width convention (every cycle sum's magnitude
 * strictly below 2^cycleSumBits).
 */
uint32_t
requiredMagnitudeBits(int64_t min_sum, int64_t max_sum)
{
    const uint64_t max_abs = std::max(
        static_cast<uint64_t>(min_sum < 0 ? -min_sum : min_sum),
        static_cast<uint64_t>(max_sum < 0 ? -max_sum : max_sum));
    uint32_t bits = 0;
    while (bits < 63 && (uint64_t{1} << bits) <= max_abs)
        bits++;
    return bits;
}

size_t
fullWindows(const InferCase &c)
{
    size_t windows = 0;
    for (const SegmentInfo &seg : c.segments)
        windows += seg.cycles() / c.T;
    return windows;
}

// ---------------------------------------------------------------------
// Float inference paths (exact comparison).
// ---------------------------------------------------------------------

std::optional<std::string>
runBatchProxies(uint64_t seed)
{
    const InferCase c0 = makeInferCase(seed);
    auto check = [](const InferCase &c) -> std::optional<std::string> {
        const std::vector<float> prod = c.model.predictProxies(c.Xq);
        const std::vector<float> want = ref::predictProxies(c.model, c.Xq);
        return compareExact(prod, want, c.shape);
    };
    std::optional<std::string> detail = check(c0);
    if (!detail)
        return std::nullopt;

    // Greedy minimization; the shrunk case keeps failing by
    // construction, so re-check and report its (smaller) detail.
    const std::function<bool(const InferCase &)> fails =
        [&](const InferCase &c) { return check(c).has_value(); };
    const std::vector<std::function<bool(InferCase &)>> mutators = {
        [](InferCase &c) {
            if (c.Xq.rows() <= 1)
                return false;
            c.Xq = takeRows(c.Xq, c.Xq.rows() / 2);
            return true;
        },
        [](InferCase &c) {
            if (c.Xq.cols() <= 1)
                return false;
            const size_t keep = c.Xq.cols() / 2;
            c.Xq = takeCols(c.Xq, keep);
            c.model.weights.resize(keep);
            c.model.proxyIds.resize(keep);
            return true;
        },
        [](InferCase &c) {
            if (c.model.intercept == 0.0)
                return false;
            c.model.intercept = 0.0;
            return true;
        },
    };
    InferCase s = shrinkCase(c0, fails, mutators);
    return *check(s) +
           fmt(" [shrunk to rows=%zu cols=%zu from rows=%zu cols=%zu]",
               s.Xq.rows(), s.Xq.cols(), c0.Xq.rows(), c0.Xq.cols());
}

std::optional<std::string>
runBatchFull(uint64_t seed)
{
    InferCase c = makeInferCase(seed);
    // Scatter the proxy columns through a wider full-design matrix
    // with active decoy columns between them.
    const size_t q = c.Xq.cols();
    const size_t full_cols = 2 * q + 3;
    BitColumnMatrix X(c.Xq.rows(), full_cols);
    ApolloModel scattered = c.model;
    for (size_t j = 0; j < q; ++j) {
        const size_t col = 2 * j + 1;
        scattered.proxyIds[j] = static_cast<uint32_t>(col);
        for (size_t r = 0; r < c.Xq.rows(); ++r)
            if (c.Xq.get(r, j))
                X.setBit(r, col);
    }
    Xoshiro256StarStar rng(hashMix(seed ^ 0xdecaf));
    for (size_t j = 0; j < full_cols; j += 2)
        for (size_t r = 0; r < X.rows(); ++r)
            if (rng.nextDouble() < 0.3)
                X.setBit(r, j);

    const std::vector<float> prod = scattered.predictFull(X);
    const std::vector<float> want = ref::predictFull(scattered, X);
    if (auto d = compareExact(prod, want, c.shape))
        return d;
    // The scatter must not change the result: proxy-layout equality.
    return compareExact(prod, ref::predictProxies(c.model, c.Xq),
                        c.shape + "+scatter-invariance");
}

std::optional<std::string>
runWindowsEq9(uint64_t seed)
{
    const InferCase c = makeInferCase(seed);
    const MultiCycleModel mc{c.model,
                             1 + static_cast<uint32_t>(seed % 7)};
    if (fullWindows(c) == 0) {
        // Production contract: no full window anywhere is an
        // InvalidArgument Status, not a silent empty result.
        StatusOr<std::vector<float>> empty =
            mc.predictWindowsProxies(c.Xq, c.T, c.segments);
        if (empty.ok())
            return fmt("shape=%s: expected InvalidArgument for zero "
                       "windows",
                       c.shape.c_str());
        if (empty.status().code() != StatusCode::InvalidArgument)
            return fmt("shape=%s: zero windows returned '%s'",
                       c.shape.c_str(),
                       empty.status().toString().c_str());
        return std::nullopt;
    }
    StatusOr<std::vector<float>> got =
        mc.predictWindowsProxies(c.Xq, c.T, c.segments);
    if (!got.ok())
        return fmt("shape=%s: predictWindowsProxies failed: %s",
                   c.shape.c_str(), got.status().toString().c_str());
    const std::vector<float> prod = *got;
    const std::vector<float> want =
        ref::predictWindowsProxies(c.model, c.Xq, c.T, c.segments);
    return compareExact(prod, want, c.shape + fmt("+T=%u", c.T));
}

std::optional<std::string>
runStreamPerCycle(uint64_t seed)
{
    const InferCase c = makeInferCase(seed);
    MatrixChunkReader reader(c.Xq);
    VectorSink sink;
    const StreamingInference engine(c.model);
    const StreamConfig config =
        StreamConfig().withChunkCycles(streamChunkCycles(seed));
    auto stats = engine.run(reader, sink, config);
    if (!stats.ok())
        return fmt("shape=%s: run failed: %s", c.shape.c_str(),
                   stats.status().message().c_str());
    return compareExact(sink.values(), ref::predictProxies(c.model, c.Xq),
                        c.shape + fmt("+chunk=%zu", config.chunkCycles));
}

std::optional<std::string>
runStreamWindows(uint64_t seed)
{
    const InferCase c = makeInferCase(seed);
    MatrixChunkReader reader(c.Xq);
    VectorSink sink;
    const StreamingInference engine(c.model);
    const StreamConfig config = StreamConfig()
                                    .withChunkCycles(streamChunkCycles(seed))
                                    .withWindowT(c.T);
    auto stats = engine.run(reader, sink, config);
    if (!stats.ok())
        return fmt("shape=%s: run failed: %s", c.shape.c_str(),
                   stats.status().message().c_str());
    // The stream has no segment metadata: one segment spanning the
    // whole trace is the defined behavior.
    const SegmentInfo whole{"trace", 0, c.Xq.rows()};
    const std::vector<float> want = ref::predictWindowsProxies(
        c.model, c.Xq, c.T, std::span<const SegmentInfo>(&whole, 1));
    return compareExact(sink.values(), want,
                        c.shape + fmt("+T=%u+chunk=%zu", c.T,
                                      config.chunkCycles));
}

// ---------------------------------------------------------------------
// OPM paths (field-exact / bit-exact integer comparison).
// ---------------------------------------------------------------------

std::optional<std::string>
runQuantize(uint64_t seed)
{
    const QuantCase c = makeQuantCase(seed);
    const QuantizedModel prod = apollo::quantizeModel(c.model, c.bits);
    const QuantizedModel want = ref::quantizeModel(c.model, c.bits);
    if (prod.proxyIds != want.proxyIds)
        return fmt("shape=%s: proxyIds differ", c.shape.c_str());
    if (prod.bits != want.bits)
        return fmt("shape=%s: bits prod=%u ref=%u", c.shape.c_str(),
                   prod.bits, want.bits);
    if (prod.scale != want.scale)
        return fmt("shape=%s: scale prod=%a ref=%a", c.shape.c_str(),
                   prod.scale, want.scale);
    if (prod.qintercept != want.qintercept)
        return fmt("shape=%s: qintercept prod=%lld ref=%lld",
                   c.shape.c_str(),
                   static_cast<long long>(prod.qintercept),
                   static_cast<long long>(want.qintercept));
    for (size_t j = 0; j < want.qweights.size(); ++j)
        if (j >= prod.qweights.size() ||
            prod.qweights[j] != want.qweights[j])
            return fmt("shape=%s: qweights[%zu] prod=%d ref=%d bits=%u",
                       c.shape.c_str(), j,
                       j < prod.qweights.size() ? prod.qweights[j] : 0,
                       want.qweights[j], c.bits);
    if (prod.qweights.size() != want.qweights.size())
        return fmt("shape=%s: qweight count prod=%zu ref=%zu",
                   c.shape.c_str(), prod.qweights.size(),
                   want.qweights.size());
    return std::nullopt;
}

std::optional<std::string>
runOpmSimulate(uint64_t seed)
{
    const QuantCase c = makeQuantCase(seed);
    const QuantizedModel qm = apollo::quantizeModel(c.model, c.bits);
    OpmSimulator sim(qm, c.T);

    // The declared hardware widths must cover the exact worst case,
    // including the once-per-cycle quantized intercept.
    const ref::CycleSumBounds bounds = ref::opmCycleSumBounds(qm);
    const uint32_t need =
        requiredMagnitudeBits(bounds.minSum, bounds.maxSum);
    if (sim.cycleSumBits() < need)
        return fmt("shape=%s: cycleSumBits=%u cannot hold worst-case "
                   "sum range [%lld, %lld] (needs %u bits)",
                   c.shape.c_str(), sim.cycleSumBits(),
                   static_cast<long long>(bounds.minSum),
                   static_cast<long long>(bounds.maxSum), need);

    const std::vector<float> prod = sim.simulate(c.Xq);
    const std::vector<float> want = ref::opmSimulate(qm, c.Xq, c.T);
    return compareExact(prod, want,
                        c.shape + fmt("+B=%u+T=%u", c.bits, c.T));
}

std::optional<std::string>
runStreamQuantized(uint64_t seed)
{
    const QuantCase c = makeQuantCase(seed);
    const QuantizedModel qm = apollo::quantizeModel(c.model, c.bits);
    MatrixChunkReader reader(c.Xq);
    VectorSink sink;
    const StreamingInference engine(qm, c.T);
    const StreamConfig config =
        StreamConfig().withChunkCycles(streamChunkCycles(seed));
    auto stats = engine.run(reader, sink, config);
    if (!stats.ok())
        return fmt("shape=%s: run failed: %s", c.shape.c_str(),
                   stats.status().message().c_str());
    return compareExact(sink.values(), ref::opmSimulate(qm, c.Xq, c.T),
                        c.shape + fmt("+B=%u+T=%u+chunk=%zu", c.bits,
                                      c.T, config.chunkCycles));
}

/** Exact int64 comparison (segment sums). */
std::optional<std::string>
compareExactI64(std::span<const int64_t> prod,
                std::span<const int64_t> want, const std::string &shape)
{
    if (prod.size() != want.size())
        return fmt("shape=%s: segment count prod=%zu ref=%zu",
                   shape.c_str(), prod.size(), want.size());
    for (size_t i = 0; i < prod.size(); ++i)
        if (prod[i] != want[i])
            return fmt("shape=%s: segment %zu: prod=%lld ref=%lld",
                       shape.c_str(), i,
                       static_cast<long long>(prod[i]),
                       static_cast<long long>(want[i]));
    return std::nullopt;
}

/**
 * One bit-parallel case, checked at every layer: the raw segment-sum
 * kernels per available implementation and window phase against the
 * naive per-cycle src/ref transcription; the quantized streaming
 * engine against ref::opmSimulate across a varied chunk schedule
 * (windows straddle chunk boundaries whenever the chunk size is not
 * a multiple of T); the float windowed
 * stream against ref::predictWindowsProxies (the refactor must leave
 * the float path bit-identical too); and tau-invariance of Eq. (9)
 * inference for tau in {1, T, T+1}.
 */
std::optional<std::string>
checkBitParallelCase(const BitParallelCase &c, uint64_t seed)
{
    const QuantizedModel qm = apollo::quantizeModel(c.model, c.bits);

    // Raw kernels: every built+runnable impl, phases 0 / 1 / T-1.
    static constexpr popkernels::Impl kImpls[] = {
        popkernels::Impl::Scalar, popkernels::Impl::Avx2,
        popkernels::Impl::Avx512};
    std::vector<int64_t> segs;
    for (const popkernels::Impl impl : kImpls) {
        if (!popkernels::implAvailable(impl))
            continue;
        for (const uint32_t phase0 : {0u, 1u, c.T - 1}) {
            if (phase0 >= c.T)
                continue;
            opmSegmentSums(qm, c.T, phase0, c.Xq, c.Xq.rows(),
                           popkernels::implKernels(impl), segs);
            const std::vector<int64_t> want =
                ref::opmSegmentSums(qm, c.Xq, c.T, phase0);
            if (auto d = compareExactI64(
                    segs, want,
                    c.shape + fmt("+impl=%s+T=%u+phase0=%u",
                                  popkernels::implName(impl), c.T,
                                  phase0)))
                return d;
        }
    }

    // Quantized streaming (default dispatch) against the naive
    // reference.
    const size_t chunk = streamChunkCycles(seed);
    {
        MatrixChunkReader reader(c.Xq);
        VectorSink sink;
        const StreamingInference engine(qm, c.T);
        auto stats = engine.run(reader, sink,
                                StreamConfig().withChunkCycles(chunk));
        const std::string shape =
            c.shape +
            fmt("+stream+B=%u+T=%u+chunk=%zu", c.bits, c.T, chunk);
        if (!stats.ok())
            return fmt("shape=%s: run failed: %s", shape.c_str(),
                       stats.status().message().c_str());
        if (auto d = compareExact(sink.values(),
                                  ref::opmSimulate(qm, c.Xq, c.T), shape))
            return d;
    }

    // Float windowed stream: unchanged by the bit-parallel refactor.
    {
        MatrixChunkReader reader(c.Xq);
        VectorSink sink;
        const StreamingInference engine(c.model);
        const StreamConfig config = StreamConfig()
                                        .withChunkCycles(chunk)
                                        .withWindowT(c.T);
        auto stats = engine.run(reader, sink, config);
        if (!stats.ok())
            return fmt("shape=%s: float run failed: %s",
                       c.shape.c_str(),
                       stats.status().message().c_str());
        const SegmentInfo whole{"trace", 0, c.Xq.rows()};
        const std::vector<float> want_f = ref::predictWindowsProxies(
            c.model, c.Xq, c.T,
            std::span<const SegmentInfo>(&whole, 1));
        if (auto d = compareExact(
                sink.values(), want_f,
                c.shape + fmt("+float+T=%u+chunk=%zu", c.T, chunk)))
            return d;
    }

    // Tau-invariance: tau only affects training; Eq. (9) inference for
    // tau in {1, T, T+1} must match the reference windows exactly.
    const SegmentInfo whole{"trace", 0, c.Xq.rows()};
    const bool have_window = c.Xq.rows() / c.T >= 1;
    const std::vector<float> want_w =
        have_window ? ref::predictWindowsProxies(
                          c.model, c.Xq, c.T,
                          std::span<const SegmentInfo>(&whole, 1))
                    : std::vector<float>{};
    for (const uint32_t tau : {1u, c.T, c.T + 1}) {
        const MultiCycleModel mc{c.model, tau};
        StatusOr<std::vector<float>> got = mc.predictWindowsProxies(
            c.Xq, c.T, std::span<const SegmentInfo>(&whole, 1));
        if (!have_window) {
            if (got.ok())
                return fmt("shape=%s: tau=%u: expected InvalidArgument "
                           "for zero windows",
                           c.shape.c_str(), tau);
            continue;
        }
        if (!got.ok())
            return fmt("shape=%s: tau=%u: predictWindowsProxies "
                       "failed: %s",
                       c.shape.c_str(), tau,
                       got.status().toString().c_str());
        if (auto d = compareExact(*got, want_w,
                                  c.shape + fmt("+tau=%u", tau)))
            return d;
    }
    return std::nullopt;
}

std::optional<std::string>
runStreamBitparallel(uint64_t seed)
{
    const BitParallelCase c0 = makeBitParallelCase(seed);
    auto check = [seed](const BitParallelCase &c) {
        return checkBitParallelCase(c, seed);
    };
    std::optional<std::string> detail = check(c0);
    if (!detail)
        return std::nullopt;

    const std::function<bool(const BitParallelCase &)> fails =
        [&](const BitParallelCase &c) { return check(c).has_value(); };
    const std::vector<std::function<bool(BitParallelCase &)>> mutators = {
        [](BitParallelCase &c) {
            if (c.Xq.rows() <= 1)
                return false;
            c.Xq = takeRows(c.Xq, c.Xq.rows() / 2);
            return true;
        },
        [](BitParallelCase &c) {
            if (c.Xq.cols() <= 1)
                return false;
            const size_t keep = c.Xq.cols() / 2;
            c.Xq = takeCols(c.Xq, keep);
            c.model.weights.resize(keep);
            c.model.proxyIds.resize(keep);
            return true;
        },
        [](BitParallelCase &c) {
            if (c.model.intercept == 0.0)
                return false;
            c.model.intercept = 0.0;
            return true;
        },
    };
    BitParallelCase s = shrinkCase(c0, fails, mutators);
    return *check(s) +
           fmt(" [shrunk to rows=%zu cols=%zu from rows=%zu cols=%zu]",
               s.Xq.rows(), s.Xq.cols(), c0.Xq.rows(), c0.Xq.cols());
}

/**
 * Differential check of the documented quantization error bound: the
 * integer OPM simulation must track the toFloatModel() Eq. (9) float
 * inference within one scale unit (the >> log2(T) truncation) plus
 * float rounding of the weight sums.
 */
std::optional<std::string>
runQuantizeRoundtrip(uint64_t seed)
{
    const QuantCase c = makeQuantCase(seed);
    StatusOr<QuantizedModel> quantized =
        tryQuantizeModel(c.model, c.bits);
    if (!quantized.ok())
        return fmt("shape=%s: tryQuantizeModel failed: %s",
                   c.shape.c_str(),
                   quantized.status().toString().c_str());
    const QuantizedModel &qm = *quantized;
    OpmSimulator sim(qm, c.T);
    const std::vector<float> opm = sim.simulate(c.Xq);

    const ApolloModel fm = qm.toFloatModel();
    const MultiCycleModel mc{fm, 1};
    const SegmentInfo whole{"trace", 0, c.Xq.rows()};
    StatusOr<std::vector<float>> windows = mc.predictWindowsProxies(
        c.Xq, c.T, std::span<const SegmentInfo>(&whole, 1));
    if (!windows.ok()) {
        // Fewer than T cycles: both paths must agree on emptiness.
        if (opm.empty())
            return std::nullopt;
        return fmt("shape=%s: float path empty but OPM emitted %zu "
                   "windows",
                   c.shape.c_str(), opm.size());
    }
    if (windows->size() != opm.size())
        return fmt("shape=%s: window count opm=%zu float=%zu",
                   c.shape.c_str(), opm.size(), windows->size());

    double weight_mass = 0.0;
    for (int32_t qw : qm.qweights)
        weight_mass += std::abs(qw) * qm.scale;
    const double tol = qm.scale +
                       1e-4 * (std::abs(fm.intercept) + weight_mass) +
                       1e-9;
    for (size_t i = 0; i < opm.size(); ++i) {
        const double diff = std::abs(static_cast<double>(opm[i]) -
                                     static_cast<double>((*windows)[i]));
        if (diff > tol)
            return fmt("shape=%s: window %zu opm=%a float=%a diff=%.3e "
                       "> tol=%.3e (B=%u T=%u scale=%a)",
                       c.shape.c_str(), i, static_cast<double>(opm[i]),
                       static_cast<double>((*windows)[i]), diff, tol,
                       c.bits, c.T, qm.scale);
    }
    return std::nullopt;
}

// ---------------------------------------------------------------------
// Solver paths (KKT certificate + objective agreement).
// ---------------------------------------------------------------------

/**
 * Certify a production fit against the naive reference. The KKT slack
 * scales with the column count: the production sweep stops when every
 * coordinate delta (scaled by sqrt(a_j)) is below tol_abs =
 * tol * std(y), and each later same-sweep update can move another
 * column's fixed-point residual by at most tol_abs * sqrt(a_k)
 * (Cauchy-Schwarz on <x_j, x_k>/N), so the post-convergence residual
 * is bounded by O(m) * tol_abs.
 */
std::optional<std::string>
checkSolver(const FeatureView &X, std::span<const float> y,
            const CdConfig &cfg, const CdResult &prod,
            const std::string &shape)
{
    const size_t m = X.cols();
    if (prod.w.size() != m)
        return fmt("shape=%s: weight arity %zu != cols %zu",
                   shape.c_str(), prod.w.size(), m);
    for (size_t j = 0; j < m; ++j) {
        if (!std::isfinite(prod.w[j]))
            return fmt("shape=%s: non-finite w[%zu]", shape.c_str(), j);
        if (cfg.penalty.nonneg && prod.w[j] < 0.0f)
            return fmt("shape=%s: nonneg violated: w[%zu]=%a",
                       shape.c_str(), j,
                       static_cast<double>(prod.w[j]));
        if (X.sumSquares(j) <= 0.0 && prod.w[j] != 0.0f)
            return fmt("shape=%s: dead column %zu got weight %a",
                       shape.c_str(), j,
                       static_cast<double>(prod.w[j]));
    }
    if (!std::isfinite(prod.intercept))
        return fmt("shape=%s: non-finite intercept", shape.c_str());
    if (!prod.converged)
        return std::nullopt; // only invariants for capped fits

    const auto n = static_cast<double>(X.rows());
    double mu = 0.0;
    for (float v : y)
        mu += v;
    mu /= n;
    double var = 0.0;
    for (float v : y)
        var += (v - mu) * (v - mu);
    double y_std = std::sqrt(var / n);
    if (y_std <= 0.0)
        y_std = 1.0;
    const double tol_abs = cfg.tol * y_std;
    const double kkt_slack =
        (4.0 + 2.0 * static_cast<double>(m)) * tol_abs + 1e-12;

    const double kkt = ref::kktViolation(X, y, prod.w, prod.intercept,
                                         cfg.penalty);
    if (kkt > kkt_slack)
        return fmt("shape=%s: KKT violation %.3e > slack %.3e "
                   "(tol_abs=%.3e, m=%zu)",
                   shape.c_str(), kkt, kkt_slack, tol_abs, m);

    const ref::RefFitResult rf = ref::fit(X, y, cfg);
    if (!rf.converged)
        return std::nullopt; // no trustworthy objective target

    std::vector<float> rw(rf.w.begin(), rf.w.end());
    const double obj_prod = ref::objective(X, y, prod.w,
                                           prod.intercept, cfg.penalty);
    const double obj_ref =
        ref::objective(X, y, rw, rf.intercept, cfg.penalty);
    const double obj_scale = 1.0 + std::abs(obj_ref);
    if (cfg.penalty.kind == PenaltyKind::Mcp) {
        // Non-convex: different sweep orders may settle in different
        // coordinate-wise optima; only gross regressions are bugs.
        if (obj_prod > obj_ref + 5e-2 * obj_scale)
            return fmt("shape=%s: MCP objective %.9g far above "
                       "reference %.9g",
                       shape.c_str(), obj_prod, obj_ref);
    } else if (std::abs(obj_prod - obj_ref) > 5e-3 * obj_scale) {
        return fmt("shape=%s: objective prod=%.9g ref=%.9g differ "
                   "beyond tolerance",
                   shape.c_str(), obj_prod, obj_ref);
    }
    return std::nullopt;
}

std::optional<std::string>
runCdBits(uint64_t seed)
{
    const SolverCase sc = makeSolverCase(seed);
    const BitFeatureView X(sc.X);
    CdSolver solver(X, sc.y, CdSolver::Options{.parallel = false});
    const CdResult prod = solver.fit(sc.cfg);
    return checkSolver(X, sc.y, sc.cfg, prod, sc.shape + "+bits");
}

std::optional<std::string>
runCdCounts(uint64_t seed)
{
    const SolverCase sc = makeSolverCase(seed);
    const size_t n = sc.X.rows();
    const size_t m = sc.X.cols();
    // Tau-interval toggle counts in 1..4 wherever the bit case
    // toggled, scaled by 1/tau like the training flow.
    CountColumnMatrix counts(n, m);
    for (size_t j = 0; j < m; ++j)
        for (size_t i = 0; i < n; ++i)
            if (sc.X.get(i, j))
                counts.set(i, j,
                           static_cast<uint8_t>(1 + (i + 3 * j) % 4));
    const CountFeatureView X(counts, 0.25f);
    CdSolver solver(X, sc.y, CdSolver::Options{.parallel = false});
    const CdResult prod = solver.fit(sc.cfg);
    return checkSolver(X, sc.y, sc.cfg, prod, sc.shape + "+counts");
}

std::optional<std::string>
runCdDense(uint64_t seed)
{
    const SolverCase sc = makeSolverCase(seed);
    const size_t n = sc.X.rows();
    const size_t m = sc.X.cols();
    DenseColumnMatrix dense(n, m);
    Xoshiro256StarStar rng(hashMix(seed ^ 0xd15e));
    for (size_t j = 0; j < m; ++j)
        for (size_t i = 0; i < n; ++i)
            if (sc.X.get(i, j))
                dense.set(i, j,
                          static_cast<float>(rng.nextRange(0.1, 1.5)));
    const DenseFeatureView X(dense);
    CdSolver solver(X, sc.y, CdSolver::Options{.parallel = false});
    const CdResult prod = solver.fit(sc.cfg);
    return checkSolver(X, sc.y, sc.cfg, prod, sc.shape + "+dense");
}

std::optional<std::string>
runTargetQ(uint64_t seed)
{
    const TargetQCase tc = makeTargetQCase(seed);
    const BitFeatureView X(tc.X);
    CdSolver solver(X, tc.y, CdSolver::Options{.parallel = false});

    CdConfig base;
    base.penalty.kind = (hashMix(seed ^ 0x51) % 2) == 0
                            ? PenaltyKind::Lasso
                            : PenaltyKind::Mcp;
    base.penalty.nonneg = (hashMix(seed ^ 0x52) % 3) == 0;

    TargetQDiagnostics diag;
    const CdResult res =
        solveForTargetQ(solver, base, tc.targetQ, &diag);
    const std::string shape =
        tc.shape + fmt("+targetQ=%zu", tc.targetQ);

    if (res.nonzeros() > tc.targetQ)
        return fmt("shape=%s: support %zu exceeds target %zu",
                   shape.c_str(), res.nonzeros(), tc.targetQ);
    if (res.nonzeros() == 0)
        return fmt("shape=%s: empty support for informative design",
                   shape.c_str());
    if (!(diag.lambda > 0.0) || !std::isfinite(diag.lambda))
        return fmt("shape=%s: bad search lambda %g", shape.c_str(),
                   diag.lambda);
    for (float w : res.w)
        if (!std::isfinite(w))
            return fmt("shape=%s: non-finite weight", shape.c_str());
    if (base.penalty.nonneg)
        for (float w : res.w)
            if (w < 0.0f)
                return fmt("shape=%s: nonneg violated", shape.c_str());

    if (!diag.trimmed && res.converged) {
        PenaltyConfig at_lambda = base.penalty;
        at_lambda.lambda = diag.lambda;
        const CdConfig cfg_here{.penalty = at_lambda,
                                .tol = base.tol};
        return checkSolver(X, tc.y, cfg_here, res, shape);
    }
    return std::nullopt;
}

/**
 * Out-of-core sharded screen pass (docs/INTERNALS.md §13) against its
 * naive src/ref transcription, at every solver shape class. Checked
 * properties, strongest first:
 *  - the sharded per-column stats are bit-identical to the production
 *    kernels run on the in-RAM matrix (same words, same kernels — the
 *    determinism contract), and within accumulation-order rounding of
 *    the per-bit double reference (popcounts integer-exact);
 *  - the first-path-point strong-rule admission counters transcribe
 *    the solver's own admission arithmetic exactly, and agree with the
 *    naive reference on every column whose decision margin exceeds
 *    the dot-rounding band;
 *  - a seeded first-path-point fit through the mmap-backed view is
 *    bit-identical to the unsharded solver, and its solution carries
 *    an independent naive KKT certificate — in particular every
 *    screened-out (never-swept) column is provably optimal at zero.
 */
std::optional<std::string>
runShardPrefilter(uint64_t seed)
{
    const SolverCase sc = makeSolverCase(seed);
    const size_t n = sc.X.rows();
    const size_t m = sc.X.cols();
    const auto nD = static_cast<double>(n);

    // Shard the case's matrix with seed-varied shard count and write
    // block granularity; clean the files up on every exit path.
    const uint32_t shards = static_cast<uint32_t>(
        1 + hashMix(seed ^ 0x5aad) % std::min<uint64_t>(5, m));
    const size_t block = 1 + hashMix(seed ^ 0xb10c) % 7;
    const auto dir = std::filesystem::temp_directory_path() /
                     fmt("apollo_oracle_shards_%ld",
                         static_cast<long>(::getpid()));
    std::filesystem::create_directories(dir);
    const std::string base =
        (dir / fmt("case_%016llx",
                   static_cast<unsigned long long>(seed)))
            .string();
    struct Cleanup
    {
        std::string base;
        uint32_t shards;
        ~Cleanup()
        {
            for (uint32_t k = 0; k < shards; ++k)
                std::filesystem::remove(shardPath(base, k));
        }
    } cleanup{base, shards};

    const Status saved = saveShardedMatrix(base, sc.X, shards, block);
    if (!saved.ok())
        return fmt("shape=%s: shard write failed: %s", sc.shape.c_str(),
                   saved.toString().c_str());
    StatusOr<MappedShardSet> set = MappedShardSet::open(base);
    if (!set.ok())
        return fmt("shape=%s: shard open failed: %s", sc.shape.c_str(),
                   set.status().toString().c_str());

    ShardedFeatureView view(*set,
                            {.parallel = false, .pool = nullptr});
    if (const Status st = view.screen(sc.y); !st.ok())
        return fmt("shape=%s: screen failed: %s", sc.shape.c_str(),
                   st.toString().c_str());
    const ShardScreenStats &prod = view.stats();
    const std::string shape =
        sc.shape + fmt("+K=%u+block=%zu", shards, block);

    // Bit-identity vs the production kernels on the resident matrix.
    // gradY is taken at the centered cold residual — the labels after
    // the solver's first intercept update: the double label mean
    // narrowed to float, subtracted in float.
    double label_mu = 0.0;
    for (const float v : sc.y)
        label_mu += v;
    label_mu /= nD;
    const auto label_muf = static_cast<float>(label_mu);
    std::vector<float> yc_cold(n);
    for (size_t i = 0; i < n; ++i)
        yc_cold[i] = sc.y[i] - label_muf;
    const BitFeatureView bits(sc.X);
    for (size_t j = 0; j < m; ++j) {
        if (static_cast<double>(prod.popcount[j]) != bits.sumSquares(j))
            return fmt("shape=%s: popcount[%zu]=%llu != kernel %g",
                       shape.c_str(), j,
                       static_cast<unsigned long long>(prod.popcount[j]),
                       bits.sumSquares(j));
        const double kernel_dot = bits.dot(j, yc_cold.data());
        if (prod.popcount[j] > 0 && prod.gradY[j] != kernel_dot)
            return fmt("shape=%s: gradY[%zu]=%a != kernel dot %a",
                       shape.c_str(), j, prod.gradY[j], kernel_dot);
    }
    CdSolver plain(bits, sc.y,
                   CdSolver::Options{.parallel = false});
    if (prod.lambdaMax != plain.lambdaMax())
        return fmt("shape=%s: lambdaMax %a != solver's own pass %a",
                   shape.c_str(), prod.lambdaMax, plain.lambdaMax());

    // Accumulation-order tolerance vs the naive per-bit reference.
    const ref::RefScreenStats want = ref::screenStats(bits, sc.y);
    double ynorm2 = 0.0;
    for (const float v : sc.y)
        ynorm2 += static_cast<double>(v) * v;
    const double ynorm = std::sqrt(ynorm2);
    for (size_t j = 0; j < m; ++j) {
        if (prod.popcount[j] != want.popcount[j])
            return fmt("shape=%s: popcount[%zu] prod=%llu ref=%llu",
                       shape.c_str(), j,
                       static_cast<unsigned long long>(prod.popcount[j]),
                       static_cast<unsigned long long>(want.popcount[j]));
        const double xnorm =
            std::sqrt(static_cast<double>(want.popcount[j]));
        const double tol = 1e-9 * (1.0 + xnorm * ynorm);
        if (std::abs(prod.gradY[j] - want.gradY[j]) > tol)
            return fmt("shape=%s: gradY[%zu] prod=%a ref=%a (tol %.3e)",
                       shape.c_str(), j, prod.gradY[j], want.gradY[j],
                       tol);
    }
    if (std::abs(prod.lambdaMax - want.lambdaMax) >
        1e-9 * (1.0 + want.lambdaMax + ynorm))
        return fmt("shape=%s: lambdaMax prod=%a ref=%a", shape.c_str(),
                   prod.lambdaMax, want.lambdaMax);

    // Admission accounting: the per-shard counters must transcribe the
    // production rule exactly, and agree with the naive reference on
    // every column whose margin clears the dot-rounding band.
    const double factor = kLambdaPathFactor;
    const std::vector<uint64_t> prod_admit =
        prod.admittedAtFirstPoint(factor);
    const std::vector<bool> ref_admit =
        ref::admittedAtFirstPoint(want, n, factor);
    constexpr double kSlack = 1.0 + 1e-8;
    const double thresh_prod =
        (2.0 * factor - 1.0) * prod.lambdaMax * nD;
    const double thresh_ref =
        (2.0 * factor - 1.0) * want.lambdaMax * nD;
    std::vector<uint64_t> recount(shards, 0);
    for (size_t j = 0; j < m; ++j) {
        const bool admitted =
            prod.popcount[j] > 0 &&
            (thresh_prod <= 0.0 ||
             std::abs(prod.gradY[j]) * kSlack >= thresh_prod);
        if (admitted)
            recount[set->shardOf(j)]++;
        const double xnorm =
            std::sqrt(static_cast<double>(want.popcount[j]));
        const double band =
            1e-7 * (1.0 + xnorm * ynorm + thresh_ref);
        const bool borderline =
            std::abs(std::abs(want.gradY[j]) * kSlack - thresh_ref) <=
            band;
        if (!borderline && admitted != ref_admit[j])
            return fmt("shape=%s: admission[%zu] prod=%d ref=%d "
                       "(|gradY|=%a thresh=%a)",
                       shape.c_str(), j, admitted ? 1 : 0,
                       ref_admit[j] ? 1 : 0,
                       std::abs(want.gradY[j]), thresh_ref);
    }
    for (uint32_t k = 0; k < shards; ++k)
        if (prod_admit[k] != recount[k])
            return fmt("shape=%s: shard %u admitted=%llu, per-column "
                       "recount=%llu",
                       shape.c_str(), k,
                       static_cast<unsigned long long>(prod_admit[k]),
                       static_cast<unsigned long long>(recount[k]));

    // First path point: a seeded fit through the mmap-backed view must
    // be bit-identical to the unsharded solver, and the solution must
    // carry an independent naive zero-certificate (every never-swept
    // column is optimal at zero).
    if (prod.lambdaMax <= 0.0)
        return std::nullopt; // constant labels: no path to anchor
    CdConfig cfg = sc.cfg;
    if (cfg.penalty.kind != PenaltyKind::Lasso &&
        cfg.penalty.kind != PenaltyKind::Mcp)
        cfg.penalty.kind = PenaltyKind::Lasso;
    cfg.penalty.lambda = factor * prod.lambdaMax;
    cfg.screen = true;
    cfg.screenLambdaRef = prod.lambdaMax;
    // The seed contract models the centered cold residual an intercept
    // fit screens at (every path driver fits one).
    cfg.fitIntercept = true;

    const CdResult want_fit = plain.fit(cfg);
    SolverSeed seedv;
    seedv.gradY = prod.gradY;
    seedv.lambdaMax = prod.lambdaMax;
    CdSolver sharded(view, sc.y,
                     CdSolver::Options{.parallel = false},
                     std::move(seedv));
    const CdResult got = sharded.fit(cfg);
    if (got.w != want_fit.w || got.intercept != want_fit.intercept)
        return fmt("shape=%s: sharded fit differs from unsharded "
                   "(support %zu vs %zu)",
                   shape.c_str(), got.nonzeros(), want_fit.nonzeros());
    if (got.sweeps != want_fit.sweeps ||
        got.strongSize != want_fit.strongSize)
        return fmt("shape=%s: sharded fit trajectory differs "
                   "(sweeps %u vs %u, strong %u vs %u)",
                   shape.c_str(), got.sweeps, want_fit.sweeps,
                   got.strongSize, want_fit.strongSize);
    return checkSolver(bits, sc.y, cfg, got, shape + "+first-point");
}

// ---------------------------------------------------------------------
// GA training-data generation paths (exact comparison).
// ---------------------------------------------------------------------

/** Exact double comparison; NaN anywhere is a failure. */
std::optional<std::string>
compareExactD(std::span<const double> prod, std::span<const double> want,
              const std::string &shape)
{
    if (prod.size() != want.size())
        return fmt("shape=%s: size mismatch prod=%zu ref=%zu",
                   shape.c_str(), prod.size(), want.size());
    for (size_t i = 0; i < prod.size(); ++i)
        if (prod[i] != want[i] || std::isnan(prod[i]))
            return fmt("shape=%s: element %zu: prod=%a ref=%a",
                       shape.c_str(), i, prod[i], want[i]);
    return std::nullopt;
}

/** Bits [0, count) of @p col against want[first + i], plus the zero tail. */
std::optional<std::string>
compareColumn(const uint64_t *col, const std::vector<uint8_t> &want,
              size_t first, size_t count, const std::string &shape,
              uint32_t sig, int kind)
{
    for (size_t i = 0; i < count; ++i) {
        const bool prod = (col[i >> 6] >> (i & 63)) & 1;
        if (prod != static_cast<bool>(want[first + i]))
            return fmt("shape=%s: sig=%u kind=%d window=[%zu,+%zu) "
                       "row=%zu prod=%d ref=%d",
                       shape.c_str(), sig, kind, first, count,
                       first + i, prod, static_cast<int>(want[first + i]));
    }
    if ((count & 63) && (col[count >> 6] >> (count & 63)) != 0)
        return fmt("shape=%s: sig=%u window=[%zu,+%zu) tail bits set",
                   shape.c_str(), sig, first, count);
    return std::nullopt;
}

std::optional<std::string>
runToggleColumns(uint64_t seed)
{
    const ToggleCase c = makeToggleCase(seed);
    const ActivityEngine engine(c.netlist);
    const size_t m = c.netlist.signalCount();
    std::vector<std::vector<uint8_t>> want(m);
    std::vector<uint32_t> ids(m);
    for (uint32_t sig = 0; sig < m; ++sig) {
        want[sig] =
            ref::toggleColumn(engine, c.frames, sig, c.segmentBeginOf);
        ids[sig] = sig;
    }

    // Every window through one generator (rebinding reuses its
    // scratch) and through the row-blocked driver.
    ToggleColumnGenerator gen(engine);
    BitColumnMatrix blocked;
    for (const auto &[first, count] : c.windows) {
        gen.bind(c.frames, c.segmentBeginOf, first, count);
        std::vector<uint64_t> col(gen.wordCount());
        fillToggleColumns(engine, c.frames, c.segmentBeginOf, first,
                          count, ids, blocked);
        for (uint32_t sig = 0; sig < m; ++sig) {
            const int kind = static_cast<int>(c.netlist.signal(sig).kind);
            gen.fillColumn(sig, col.data());
            if (auto d = compareColumn(col.data(), want[sig], first,
                                       count, c.shape + "+bind", sig,
                                       kind))
                return d;
            if (auto d = compareColumn(blocked.colWords(sig), want[sig],
                                       first, count,
                                       c.shape + "+blocked", sig, kind))
                return d;
        }
    }
    return std::nullopt;
}

/**
 * The row toggle kernel, every available implementation, at every row
 * of every list: bit q against ActivityEngine::toggles (the
 * definition), bits past Q zero.
 */
std::optional<std::string>
runToggleRows(uint64_t seed)
{
    const ToggleRowsCase c = makeToggleRowsCase(seed);
    const ActivityEngine engine(c.netlist);
    for (int k = 0; k < togglekernels::kImplCount; ++k) {
        const auto impl = static_cast<togglekernels::Impl>(k);
        if (!togglekernels::implAvailable(impl))
            continue;
        for (const std::vector<uint32_t> &ids : c.lists) {
            const togglekernels::RowKernel rows(engine, ids, impl);
            std::vector<uint64_t> out(rows.wordCount());
            for (size_t i = 0; i < c.frames.size(); ++i) {
                const size_t begin = c.segmentBeginOf[i];
                std::fill(out.begin(), out.end(), ~0ULL);
                rows.fill(c.frames, i, begin, out.data());
                for (size_t q = 0; q < ids.size(); ++q) {
                    const bool prod = (out[q >> 6] >> (q & 63)) & 1;
                    const bool want =
                        engine.toggles(ids[q], c.frames, i, begin);
                    if (prod != want)
                        return fmt(
                            "shape=%s impl=%s Q=%zu row=%zu begin=%zu "
                            "lane=%zu sig=%u kind=%s: prod=%d ref=%d",
                            c.shape.c_str(),
                            togglekernels::implName(impl), ids.size(), i,
                            begin, q, ids[q],
                            signalKindName(
                                c.netlist.signal(ids[q]).kind),
                            prod, want);
                }
                if ((ids.size() & 63) &&
                    (out.back() >> (ids.size() & 63)) != 0)
                    return fmt("shape=%s impl=%s Q=%zu row=%zu: bits "
                               "past Q set",
                               c.shape.c_str(),
                               togglekernels::implName(impl), ids.size(),
                               i);
            }
        }
    }
    return std::nullopt;
}

std::optional<std::string>
runDatasetBuild(uint64_t seed)
{
    const DatasetBuildCase c = makeDatasetBuildCase(seed);
    DatasetBuilder builder(c.netlist);
    std::vector<uint32_t> begin_of;
    size_t row = 0;
    for (size_t s = 0; s < c.segmentLengths.size(); ++s) {
        const size_t len = c.segmentLengths[s];
        builder.addFrames("seg" + std::to_string(s),
                          std::span(c.frames).subspan(row, len));
        begin_of.insert(begin_of.end(), len,
                        static_cast<uint32_t>(row));
        row += len;
    }
    const Dataset ds = builder.build();
    const Dataset want =
        ref::datasetBuild(c.netlist, builder.engine(), builder.oracle(),
                          c.frames, begin_of);
    const std::string shape =
        c.shape + fmt("+n=%zu+segments=%zu", c.frames.size(),
                      c.segmentLengths.size());

    if (ds.X.rows() != want.X.rows() || ds.X.cols() != want.X.cols())
        return fmt("shape=%s: X is %zux%zu, ref %zux%zu", shape.c_str(),
                   ds.X.rows(), ds.X.cols(), want.X.rows(),
                   want.X.cols());
    for (size_t j = 0; j < ds.X.cols(); ++j)
        for (size_t w = 0; w < ds.X.wordsPerCol(); ++w)
            if (ds.X.colWords(j)[w] != want.X.colWords(j)[w])
                return fmt("shape=%s: X column %zu word %zu: prod=%016llx "
                           "ref=%016llx",
                           shape.c_str(), j, w,
                           static_cast<unsigned long long>(
                               ds.X.colWords(j)[w]),
                           static_cast<unsigned long long>(
                               want.X.colWords(j)[w]));
    if (ds.y.size() != want.y.size())
        return fmt("shape=%s: %zu labels, ref %zu", shape.c_str(),
                   ds.y.size(), want.y.size());
    for (size_t i = 0; i < ds.y.size(); ++i)
        if (std::bit_cast<uint32_t>(ds.y[i]) !=
            std::bit_cast<uint32_t>(want.y[i]))
            return fmt("shape=%s: label %zu: prod=%a ref=%a",
                       shape.c_str(), i, ds.y[i], want.y[i]);
    return std::nullopt;
}

std::optional<std::string>
runFitnessPower(uint64_t seed)
{
    const GaCase c = makeGaCase(seed);
    const ActivityEngine engine(c.netlist);
    const PowerOracle oracle(c.netlist, PowerParams{});
    const std::vector<double> want = ref::fitnessCyclePowers(
        c.netlist, engine, oracle, c.frames, c.stride);
    const double want_avg = ref::fitnessAveragePower(
        c.netlist, engine, oracle, c.frames, c.stride);

    FitnessEvaluator eval(c.netlist, engine, oracle, c.stride);
    std::vector<double> prod;
    eval.cyclePowers(c.frames, prod);
    const std::string shape = c.shape + fmt("+stride=%u", c.stride);
    if (auto d = compareExactD(prod, want, shape))
        return d;
    const double avg = eval.averagePower(c.frames);
    if (avg != want_avg || std::isnan(avg))
        return fmt("shape=%s: average prod=%a ref=%a", shape.c_str(),
                   avg, want_avg);
    return std::nullopt;
}

/** Field-wise frame-set equality, floats by their bits. */
bool
sameRun(const std::vector<ActivityFrame> &a,
        const std::vector<ActivityFrame> &b)
{
    if (a.size() != b.size())
        return false;
    for (size_t i = 0; i < a.size(); ++i) {
        if (a[i].cycle != b[i].cycle)
            return false;
        for (size_t u = 0; u < numUnits; ++u)
            if (a[i].clockEnabled[u] != b[i].clockEnabled[u] ||
                std::bit_cast<uint32_t>(a[i].activity[u]) !=
                    std::bit_cast<uint32_t>(b[i].activity[u]) ||
                std::bit_cast<uint32_t>(a[i].dataToggle[u]) !=
                    std::bit_cast<uint32_t>(b[i].dataToggle[u]))
                return false;
    }
    return true;
}

std::optional<std::string>
runFitnessBatch(uint64_t seed)
{
    const FitnessBatchCase c = makeFitnessBatchCase(seed);
    const ActivityEngine engine(c.netlist);
    const PowerOracle oracle(c.netlist, PowerParams{});
    static ThreadPool pool1(1);
    static ThreadPool pool2(2);
    static ThreadPool pool3(3);
    ThreadPool *const pools[] = {nullptr, &pool1, &pool2, &pool3};

    const std::vector<std::span<const ActivityFrame>> runs(c.runs.begin(),
                                                           c.runs.end());
    const FitnessEvaluator eval(c.netlist, engine, oracle, c.stride);
    std::vector<std::vector<double>> prod;
    const FitnessEvaluator::BatchStats stats =
        eval.cyclePowersBatch(runs, prod, pools[c.threads]);
    if (prod.size() != c.runs.size())
        return fmt("shape=%s: %zu outputs for %zu runs", c.shape.c_str(),
                   prod.size(), c.runs.size());
    for (size_t r = 0; r < c.runs.size(); ++r) {
        const std::vector<double> want = ref::fitnessCyclePowers(
            c.netlist, engine, oracle, c.runs[r], c.stride);
        if (auto d = compareExactD(
                prod[r], want,
                c.shape + fmt("+run=%zu+rows=%zu", r, c.runs[r].size())))
            return d;
    }

    // Each distinct run is scored once; every copy is a dedupe hit.
    size_t distinct = 0;
    for (size_t r = 0; r < c.runs.size(); ++r) {
        bool seen = false;
        for (size_t e = 0; e < r && !seen; ++e)
            seen = sameRun(c.runs[e], c.runs[r]);
        distinct += seen ? 0 : 1;
    }
    if (stats.scored != distinct ||
        stats.duplicates != c.runs.size() - distinct)
        return fmt("shape=%s: scored %zu and deduped %zu of %zu runs, "
                   "%zu distinct",
                   c.shape.c_str(), stats.scored, stats.duplicates,
                   c.runs.size(), distinct);
    return std::nullopt;
}

std::optional<std::string>
runGaPipeline(uint64_t seed)
{
    const GaRunCase c = makeGaRunCase(seed);
    if (c.expectError) {
        const Status st = c.ga.validate();
        if (st.ok())
            return fmt("shape=%s: expected InvalidArgument, got OK",
                       c.shape.c_str());
        if (st.code() != StatusCode::InvalidArgument)
            return fmt("shape=%s: expected InvalidArgument, got %s",
                       c.shape.c_str(), st.toString().c_str());
        return std::nullopt;
    }

    DatasetBuilder builder(c.netlist, c.coreParams);
    GaGenerator ga(builder, c.ga);
    ga.run();
    const std::vector<GaIndividual> &all = ga.all();
    const GaRunStats &stats = ga.stats();
    const std::string &shape = c.shape;

    if (all.size() !=
        static_cast<size_t>(c.ga.populationSize) * c.ga.generations)
        return fmt("shape=%s: %zu individuals, expected %u*%u",
                   shape.c_str(), all.size(), c.ga.populationSize,
                   c.ga.generations);
    if (stats.evaluations != stats.cacheMisses)
        return fmt("shape=%s: evaluations=%llu != misses=%llu",
                   shape.c_str(),
                   static_cast<unsigned long long>(stats.evaluations),
                   static_cast<unsigned long long>(stats.cacheMisses));
    if (stats.cacheHits + stats.cacheMisses != all.size())
        return fmt("shape=%s: hits+misses=%llu != individuals=%zu",
                   shape.c_str(),
                   static_cast<unsigned long long>(stats.cacheHits +
                                                   stats.cacheMisses),
                   all.size());

    // Certify recorded fitness values — cached or not — against an
    // independent serial re-simulation and the src/ref fitness oracle;
    // captured frames must equal the re-simulated ones exactly.
    const size_t step = std::max<size_t>(1, all.size() / 10);
    for (size_t k = 0; k < all.size(); k += step) {
        const GaIndividual &ind = all[k];
        if (ind.id != k)
            return fmt("shape=%s: all()[%zu].id == %zu", shape.c_str(),
                       k, ind.id);
        const Program prog = GaGenerator::toProgram(
            ind, "ga",
            GaGenerator::fitnessIterations(ind.body.size(),
                                           c.ga.fitnessCycles));
        TimingCore core(builder.coreParams());
        std::vector<ActivityFrame> frames;
        core.run(prog, c.ga.fitnessCycles,
                 [&](const ActivityFrame &f) { frames.push_back(f); });
        const double want = ref::fitnessAveragePower(
            c.netlist, builder.engine(), builder.oracle(), frames,
            c.ga.fitnessSignalStride);
        if (ind.avgPower != want || std::isnan(ind.avgPower))
            return fmt("shape=%s: individual %zu (gen %u): fitness "
                       "prod=%a ref=%a",
                       shape.c_str(), k, ind.generation, ind.avgPower,
                       want);

        const std::span<const ActivityFrame> captured =
            ga.capturedFrames(ind.id);
        if (captured.size() != frames.size())
            return fmt("shape=%s: individual %zu: captured %zu frames, "
                       "re-sim %zu",
                       shape.c_str(), k, captured.size(), frames.size());
        for (size_t i = 0; i < frames.size(); ++i) {
            const ActivityFrame &a = captured[i];
            const ActivityFrame &b = frames[i];
            if (a.cycle != b.cycle || a.activity != b.activity ||
                a.clockEnabled != b.clockEnabled ||
                a.dataToggle != b.dataToggle)
                return fmt("shape=%s: individual %zu: captured frame "
                           "%zu differs from re-sim",
                           shape.c_str(), k, i);
        }
    }

    // Selection edge shapes: zero-count and over-count draws.
    if (!ga.selectTrainingSet(0).empty())
        return fmt("shape=%s: selectTrainingSet(0) not empty",
                   shape.c_str());
    const auto over = ga.selectTrainingSet(all.size() + 7);
    if (over.size() != all.size())
        return fmt("shape=%s: over-count selection %zu != %zu",
                   shape.c_str(), over.size(), all.size());
    return std::nullopt;
}

// ---------------------------------------------------------------------
// Control path (droop trigger/engage state machine).
// ---------------------------------------------------------------------

/**
 * A generated controller case: an OPM output stream with a valid mask
 * (all-valid, every-T, or randomly gapped) plus controller parameters.
 * Power walks randomly with occasional spikes so the differenced
 * current crosses the trigger in both directions; the trigger delta is
 * drawn from the same scale so some cases trigger densely (window
 * merging) and some never.
 */
struct ControlCase
{
    std::vector<float> power;
    std::vector<uint8_t> valid;
    ref::ControlParams params;
    ThrottleMode policy = ThrottleMode::Scheme1;
    uint32_t level = 1;
    std::string shape;
};

ControlCase
makeControlCase(uint64_t seed)
{
    Xoshiro256StarStar rng(seed);
    ControlCase c;
    const size_t n = 50 + rng.nextBounded(351);
    c.params.vdd = rng.nextRange(0.6, 0.9);
    c.params.triggerLatency = static_cast<uint32_t>(rng.nextBounded(5));
    c.params.engageCycles =
        1 + static_cast<uint32_t>(rng.nextBounded(8));
    c.params.triggerDelta = rng.nextRange(0.02, 0.8);

    static constexpr ThrottleMode kPolicies[] = {
        ThrottleMode::Scheme1, ThrottleMode::Scheme2,
        ThrottleMode::Scheme3, ThrottleMode::Proportional};
    c.policy = kPolicies[rng.nextBounded(4)];
    c.level = 1 + static_cast<uint32_t>(rng.nextBounded(3));

    const uint64_t valid_shape = rng.nextBounded(3);
    c.valid.assign(n, 1);
    if (valid_shape == 1) {
        const uint32_t T = 1u << (1 + rng.nextBounded(3));
        for (size_t i = 0; i < n; ++i)
            c.valid[i] = ((i + 1) % T == 0) ? 1 : 0;
        c.shape = "everyT" + std::to_string(T);
    } else if (valid_shape == 2) {
        for (size_t i = 0; i < n; ++i)
            c.valid[i] = rng.nextBounded(4) != 0 ? 1 : 0;
        c.shape = "gapped";
    } else {
        c.shape = "all_valid";
    }
    c.shape += "_n" + std::to_string(n);

    double p = rng.nextRange(0.1, 0.6);
    c.power.resize(n);
    for (size_t i = 0; i < n; ++i) {
        p += rng.nextRange(-0.08, 0.08);
        if (rng.nextBounded(12) == 0)
            p += rng.nextRange(0.2, 0.9); // burst onset
        if (rng.nextBounded(12) == 0)
            p -= rng.nextRange(0.2, 0.9); // back to idle
        p = std::clamp(p, 0.05, 1.5);
        c.power[i] = static_cast<float>(p);
    }
    return c;
}

/** Replay one case through DroopController + Throttle vs the naive
 *  reference transcript. */
std::optional<std::string>
checkControlCase(const ControlCase &c)
{
    control::DroopControllerConfig cfg;
    cfg.vdd = c.params.vdd;
    cfg.triggerDelta = c.params.triggerDelta;
    cfg.triggerLatency = c.params.triggerLatency;
    cfg.engageCycles = c.params.engageCycles;
    cfg.policy = c.policy;
    cfg.proportionalLevel = c.level;
    control::DroopController ctl(cfg);
    Throttle throttle;

    const size_t n = c.power.size();
    std::vector<uint8_t> engaged(n, 0);
    for (size_t i = 0; i < n; ++i) {
        if (c.valid[i])
            ctl.observe(i, static_cast<double>(c.power[i]));
        ctl.apply(i, throttle);
        engaged[i] = throttle.engaged() ? 1 : 0;
    }

    const ref::ControlTranscript want =
        ref::droopControlTranscript(c.power, c.valid, c.params);
    if (ctl.triggers() != want.triggers)
        return fmt("shape=%s: triggers prod=%llu ref=%llu",
                   c.shape.c_str(),
                   static_cast<unsigned long long>(ctl.triggers()),
                   static_cast<unsigned long long>(want.triggers));
    for (size_t i = 0; i < n; ++i)
        if (engaged[i] != want.engaged[i])
            return fmt("shape=%s: cycle %zu engaged prod=%d ref=%d "
                       "(L=%u E=%u)",
                       c.shape.c_str(), i, engaged[i], want.engaged[i],
                       c.params.triggerLatency, c.params.engageCycles);
    if (ctl.engagedCycles() != want.engagedCycles)
        return fmt("shape=%s: engagedCycles prod=%llu ref=%llu",
                   c.shape.c_str(),
                   static_cast<unsigned long long>(ctl.engagedCycles()),
                   static_cast<unsigned long long>(want.engagedCycles));
    return std::nullopt;
}

std::optional<std::string>
runDroopTrigger(uint64_t seed)
{
    ControlCase c = makeControlCase(seed);
    std::optional<std::string> detail = checkControlCase(c);
    if (!detail)
        return std::nullopt;

    const std::function<bool(const ControlCase &)> stillFails =
        [](const ControlCase &trial) {
            return checkControlCase(trial).has_value();
        };
    const std::vector<std::function<bool(ControlCase &)>> mutators = {
        [](ControlCase &trial) { // halve the stream
            if (trial.power.size() <= 4)
                return false;
            trial.power.resize(trial.power.size() / 2);
            trial.valid.resize(trial.power.size());
            return true;
        },
        [](ControlCase &trial) { // drop the reaction latency
            if (trial.params.triggerLatency == 0)
                return false;
            trial.params.triggerLatency = 0;
            return true;
        },
        [](ControlCase &trial) { // shortest engage window
            if (trial.params.engageCycles == 1)
                return false;
            trial.params.engageCycles = 1;
            return true;
        },
        [](ControlCase &trial) { // simplest policy
            if (trial.policy == ThrottleMode::Scheme1)
                return false;
            trial.policy = ThrottleMode::Scheme1;
            return true;
        },
    };
    c = shrinkCase(std::move(c), stillFails, mutators);
    detail = checkControlCase(c);
    if (!detail)
        return fmt("shape=%s: shrink lost the failure", c.shape.c_str());
    return fmt("%s [shrunk to n=%zu]", detail->c_str(),
               c.power.size());
}

// ---------------------------------------------------------------------
// Timing core (flat production core vs the reference loop).
// ---------------------------------------------------------------------

/** One run's observable output: every frame and the stats. */
struct CoreTranscript
{
    std::vector<ActivityFrame> frames;
    CoreStats stats;
};

/** Run @p c through @p run, applying its control schedule. */
template <typename Run>
CoreTranscript
transcribe(const CoreCase &c, Run &&run)
{
    CoreTranscript t;
    size_t next = 0;
    const FrameSink sink = [&](const ActivityFrame &f) {
        t.frames.push_back(f);
    };
    const ControlHook hook = [&](const ActivityFrame &, uint64_t cycle,
                                 Throttle &throttle) {
        for (; next < c.control.size() && c.control[next].cycle <= cycle;
             ++next) {
            const CoreControlStep &step = c.control[next];
            if (step.release)
                throttle.release();
            else
                throttle.engage(step.mode, step.level);
        }
    };
    t.stats = run(sink, hook);
    return t;
}

/** Field-by-field comparison (ActivityFrame has padding bytes). */
std::optional<std::string>
compareCoreRuns(const CoreTranscript &prod, const CoreTranscript &want,
                const std::string &shape)
{
    const CoreStats &a = prod.stats;
    const CoreStats &b = want.stats;
    const uint64_t pa[] = {a.cycles,    a.retiredOps, a.branches,
                           a.mispredicts, a.l1iMisses, a.l1dMisses,
                           a.l2Misses};
    const uint64_t pb[] = {b.cycles,    b.retiredOps, b.branches,
                           b.mispredicts, b.l1iMisses, b.l1dMisses,
                           b.l2Misses};
    static const char *kStat[] = {"cycles",    "retiredOps", "branches",
                                  "mispredicts", "l1iMisses", "l1dMisses",
                                  "l2Misses"};
    for (size_t i = 0; i < std::size(pa); ++i)
        if (pa[i] != pb[i])
            return fmt("shape=%s: stats.%s prod=%llu ref=%llu",
                       shape.c_str(), kStat[i],
                       static_cast<unsigned long long>(pa[i]),
                       static_cast<unsigned long long>(pb[i]));
    if (prod.frames.size() != want.frames.size())
        return fmt("shape=%s: %zu frames, ref %zu", shape.c_str(),
                   prod.frames.size(), want.frames.size());
    for (size_t i = 0; i < prod.frames.size(); ++i) {
        const ActivityFrame &f = prod.frames[i];
        const ActivityFrame &g = want.frames[i];
        if (f.cycle != g.cycle)
            return fmt("shape=%s: frame %zu cycle prod=%llu ref=%llu",
                       shape.c_str(), i,
                       static_cast<unsigned long long>(f.cycle),
                       static_cast<unsigned long long>(g.cycle));
        for (size_t u = 0; u < numUnits; ++u) {
            if (std::bit_cast<uint32_t>(f.activity[u]) !=
                    std::bit_cast<uint32_t>(g.activity[u]) ||
                std::bit_cast<uint32_t>(f.dataToggle[u]) !=
                    std::bit_cast<uint32_t>(g.dataToggle[u]) ||
                f.clockEnabled[u] != g.clockEnabled[u])
                return fmt("shape=%s: frame %zu unit %s: prod act=%a "
                           "data=%a en=%d, ref act=%a data=%a en=%d",
                           shape.c_str(), i,
                           unitName(static_cast<UnitId>(u)),
                           static_cast<double>(f.activity[u]),
                           static_cast<double>(f.dataToggle[u]),
                           f.clockEnabled[u],
                           static_cast<double>(g.activity[u]),
                           static_cast<double>(g.dataToggle[u]),
                           g.clockEnabled[u]);
        }
    }
    return std::nullopt;
}

std::optional<std::string>
checkCoreCase(const CoreCase &c)
{
    const CoreTranscript prod = transcribe(
        c, [&](const FrameSink &sink, const ControlHook &hook) {
            return TimingCore(c.params).run(c.program, c.maxCycles, sink,
                                            hook);
        });
    const CoreTranscript want = transcribe(
        c, [&](const FrameSink &sink, const ControlHook &hook) {
            return ref::coreRun(c.params, c.program, c.maxCycles, sink,
                                hook);
        });
    return compareCoreRuns(
        prod, want,
        c.shape + fmt("+throttle=%d+steps=%zu",
                      static_cast<int>(c.params.throttle),
                      c.control.size()));
}

std::optional<std::string>
runCoreFrames(uint64_t seed)
{
    CoreCase c = makeCoreCase(seed);
    std::optional<std::string> detail = checkCoreCase(c);
    if (!detail)
        return std::nullopt;

    const std::function<bool(const CoreCase &)> stillFails =
        [](const CoreCase &trial) {
            return checkCoreCase(trial).has_value();
        };
    const std::vector<std::function<bool(CoreCase &)>> mutators = {
        [](CoreCase &trial) { // halve the budget
            if (trial.maxCycles <= 1 || trial.maxCycles > (1u << 20))
                return false;
            trial.maxCycles /= 2;
            return true;
        },
        [](CoreCase &trial) { // drop the control schedule
            if (trial.control.empty())
                return false;
            trial.control.clear();
            return true;
        },
        [](CoreCase &trial) { // no base throttle
            if (trial.params.throttle == ThrottleMode::None)
                return false;
            trial.params.throttle = ThrottleMode::None;
            return true;
        },
        [](CoreCase &trial) { // no warm-up
            if (trial.params.warmupCycles == 0)
                return false;
            trial.params.warmupCycles = 0;
            return true;
        },
    };
    c = shrinkCase(std::move(c), stillFails, mutators);
    detail = checkCoreCase(c);
    if (!detail)
        return fmt("shape=%s: shrink lost the failure", c.shape.c_str());
    return fmt("%s [shrunk to max_cycles=%llu, %zu control steps]",
               detail->c_str(),
               static_cast<unsigned long long>(c.maxCycles),
               c.control.size());
}

// ---------------------------------------------------------------------
// Packed-bit dot kernels (exact comparison, every implementation).
// ---------------------------------------------------------------------

bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/**
 * Every available bitkernels implementation against ref::dotLaneOrder
 * and ref::dotFastOrder bit for bit — the single exact dot, each
 * column of each batch dot, and the fast dot — plus the fast dot
 * within its dotFastRelErr band of the exact one.
 */
std::optional<std::string>
runBitDots(uint64_t seed)
{
    const BitDotsCase c = makeBitDotsCase(seed);
    const size_t n = c.X.rows();
    const size_t m = c.X.cols();
    const size_t words = c.X.wordsPerCol();
    std::vector<double> want(m);
    std::vector<double> want_fast(m);
    std::vector<double> abs_sum(m, 0.0);
    for (size_t j = 0; j < m; ++j) {
        want[j] = ref::dotLaneOrder(c.X, j, c.dense);
        want_fast[j] = ref::dotFastOrder(c.X, j, c.dense);
        for (size_t i = 0; i < n; ++i)
            if (c.X.get(i, j))
                abs_sum[j] += std::abs(static_cast<double>(c.dense[i]));
    }
    // The exact dot's own rounding is far below 1e-12 of the sum.
    const double band = bitkernels::dotFastRelErr(words) + 1e-12;
    for (int i = 0; i < bitkernels::kImplCount; ++i) {
        const auto impl = static_cast<bitkernels::Impl>(i);
        if (!bitkernels::implAvailable(impl))
            continue;
        const bitkernels::Kernels &k = bitkernels::implKernels(impl);
        const char *name = bitkernels::implName(impl);
        for (size_t j = 0; j < m; ++j) {
            const double got =
                k.dot(c.X.colWords(j), words, n, c.dense.data());
            if (!sameBits(got, want[j]))
                return fmt("shape=%s n=%zu impl=%s col %zu: dot=%a "
                           "ref=%a",
                           c.shape.c_str(), n, name, j, got, want[j]);
            const double fast =
                k.dotFast(c.X.colWords(j), words, n, c.dense.data());
            if (!sameBits(fast, want_fast[j]))
                return fmt("shape=%s n=%zu impl=%s col %zu: fast=%a "
                           "ref=%a",
                           c.shape.c_str(), n, name, j, fast,
                           want_fast[j]);
            if (std::abs(fast - want[j]) > band * abs_sum[j])
                return fmt("shape=%s n=%zu impl=%s col %zu: fast=%a "
                           "off exact=%a by more than %g * %g",
                           c.shape.c_str(), n, name, j, fast, want[j],
                           band, abs_sum[j]);
        }
        for (const std::vector<uint32_t> &batch : c.batches) {
            const uint64_t *ptrs[bitkernels::kDotBatch];
            double out[bitkernels::kDotBatch];
            for (size_t t = 0; t < batch.size(); ++t)
                ptrs[t] = c.X.colWords(batch[t]);
            k.dotBatch(ptrs, batch.size(), words, n, c.dense.data(), out);
            for (size_t t = 0; t < batch.size(); ++t)
                if (!sameBits(out[t], want[batch[t]]))
                    return fmt("shape=%s n=%zu impl=%s batch of %zu, "
                               "slot %zu (col %u): dot=%a ref=%a",
                               c.shape.c_str(), n, name, batch.size(),
                               t, batch[t], out[t], want[batch[t]]);
        }
    }
    return std::nullopt;
}

} // namespace

const std::vector<OracleEntry> &
oracleRegistry()
{
    static const std::vector<OracleEntry> registry = {
        {"infer.batch_proxies", runBatchProxies},
        {"infer.batch_full", runBatchFull},
        {"infer.windows_eq9", runWindowsEq9},
        {"infer.stream_percycle", runStreamPerCycle},
        {"infer.stream_windows", runStreamWindows},
        {"opm.quantize", runQuantize},
        {"opm.quantize_roundtrip", runQuantizeRoundtrip},
        {"opm.simulate", runOpmSimulate},
        {"opm.stream_quantized", runStreamQuantized},
        {"stream.bitparallel_vs_scalar", runStreamBitparallel},
        {"solver.cd_bits", runCdBits},
        {"solver.cd_counts", runCdCounts},
        {"solver.cd_dense", runCdDense},
        {"solver.target_q", runTargetQ},
        {"solver.shard_prefilter", runShardPrefilter},
        {"solver.bit_dots", runBitDots},
        {"gen.toggle_columns", runToggleColumns},
        {"activity.toggle_rows", runToggleRows},
        {"gen.fitness_power", runFitnessPower},
        {"gen.fitness_batch", runFitnessBatch},
        {"gen.ga_pipeline", runGaPipeline},
        {"trace.dataset_build", runDatasetBuild},
        {"control.droop_trigger", runDroopTrigger},
        {"uarch.core_frames", runCoreFrames},
    };
    return registry;
}

} // namespace apollo::harness
