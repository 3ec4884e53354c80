#include "harness/case_gen.hh"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <optional>

#include "activity/activity_engine.hh"
#include "flow/flows.hh"
#include "ml/feature_view.hh"
#include "ref/reference_solver.hh"

namespace apollo::harness {

namespace {

/** Power of two <= bound (>= 1). */
uint32_t
randomPowerOfTwo(Xoshiro256StarStar &rng, uint32_t bound)
{
    uint32_t max_log = 0;
    while ((2u << max_log) <= bound && max_log < 10)
        max_log++;
    return 1u << rng.nextBounded(max_log + 1);
}

/** Split [0, rows) into 1..3 segments (each nonempty). */
std::vector<SegmentInfo>
randomSegments(Xoshiro256StarStar &rng, size_t rows)
{
    std::vector<SegmentInfo> segs;
    if (rows == 0)
        return segs;
    const size_t pieces = 1 + rng.nextBounded(std::min<size_t>(3, rows));
    size_t begin = 0;
    for (size_t p = 0; p < pieces; ++p) {
        const size_t remaining = rows - begin;
        const size_t pieces_left = pieces - p;
        size_t len = remaining / pieces_left;
        if (pieces_left > 1 && len > 1)
            len = 1 + rng.nextBounded(len);
        if (p + 1 == pieces)
            len = remaining;
        segs.push_back({"s" + std::to_string(p), begin, begin + len});
        begin += len;
    }
    return segs;
}

/** Weights with mixed signs, planted zeros, varied magnitudes. */
std::vector<float>
randomWeights(Xoshiro256StarStar &rng, size_t q, bool nonneg = false)
{
    std::vector<float> w(q);
    const double magnitude = rng.nextDouble() < 0.15
                                 ? rng.nextRange(10.0, 1000.0)
                                 : rng.nextRange(0.05, 2.0);
    for (size_t j = 0; j < q; ++j) {
        const double u = rng.nextDouble();
        if (u < 0.2) {
            w[j] = 0.0f; // pruned proxy riding along
        } else {
            double v = rng.nextRange(0.01, magnitude);
            if (!nonneg && rng.nextDouble() < 0.4)
                v = -v;
            w[j] = static_cast<float>(v);
        }
    }
    return w;
}

} // namespace

BitColumnMatrix
randomBits(Xoshiro256StarStar &rng, size_t rows, size_t cols,
           double density)
{
    BitColumnMatrix X(rows, cols);
    for (size_t c = 0; c < cols; ++c)
        for (size_t r = 0; r < rows; ++r)
            if (rng.nextDouble() < density)
                X.setBit(r, c);
    return X;
}

InferCase
makeInferCase(uint64_t seed)
{
    Xoshiro256StarStar rng(hashMix(seed));
    InferCase c;
    const uint64_t shape = hashMix(seed ^ 0x1f3a) % 10;
    // Word and 256-row block edges of the per-cycle kernels.
    static constexpr size_t kBlockEdgeRows[] = {63,  64,  65,  255, 256,
                                                257, 511, 512, 513};

    size_t rows = 16 + rng.nextBounded(500);
    size_t q = 2 + rng.nextBounded(40);
    double density = rng.nextRange(0.02, 0.6);
    switch (shape) {
      case 0: c.shape = "nominal"; break;
      case 1:
        c.shape = "q1";
        q = 1;
        break;
      case 2:
        c.shape = "single-cycle";
        rows = 1;
        break;
      case 3:
        c.shape = "dense";
        density = 0.97;
        break;
      case 4:
        c.shape = "near-empty";
        density = 0.002;
        break;
      case 5:
        c.shape = "empty-trace";
        rows = 0;
        break;
      case 6:
        c.shape = "big-intercept";
        break;
      case 7: c.shape = "many-proxies"; q = 48 + rng.nextBounded(80); break;
      case 8:
        c.shape = "block-edge";
        rows = kBlockEdgeRows[rng.nextBounded(std::size(kBlockEdgeRows))];
        break;
      default:
        // Sparse bits under mostly-zero weights of both signs: many
        // rows must keep the -0.0 intercept, which adding a zero
        // weight would turn into +0.0.
        c.shape = "negzero-intercept";
        density = 0.1;
    }

    c.Xq = randomBits(rng, rows, q, density);
    c.model.proxyIds.resize(q);
    for (size_t j = 0; j < q; ++j)
        c.model.proxyIds[j] = static_cast<uint32_t>(j);
    c.model.weights = randomWeights(rng, q);
    c.model.intercept = shape == 6 ? rng.nextRange(-500.0, 500.0)
                                   : rng.nextRange(-5.0, 5.0);
    if (shape == 9) {
        c.model.intercept = -0.0;
        for (float &w : c.model.weights) {
            const double u = rng.nextDouble();
            if (u < 0.6)
                w = u < 0.3 ? 0.0f : -0.0f;
        }
    }
    c.model.designName = "gen";

    c.segments = randomSegments(rng, rows);
    // Guarantee at least one full window: T bounded by the largest
    // segment (the window oracles rely on this).
    size_t largest = 0;
    for (const SegmentInfo &seg : c.segments)
        largest = std::max(largest, seg.cycles());
    c.T = largest == 0
              ? 1
              : randomPowerOfTwo(rng, static_cast<uint32_t>(largest));
    return c;
}

QuantCase
makeQuantCase(uint64_t seed)
{
    Xoshiro256StarStar rng(hashMix(seed ^ 0x9e3779b9));
    QuantCase c;
    const uint64_t shape = hashMix(seed ^ 0x2b4c) % 6;

    static constexpr uint32_t kBits[] = {2, 3, 4, 6, 8, 10, 12, 16, 24};
    c.bits = kBits[rng.nextBounded(std::size(kBits))];

    size_t q = 1 + rng.nextBounded(32);
    bool zero_weights = false;
    bool big_intercept = false;
    switch (shape) {
      case 0: c.shape = "nominal"; break;
      case 1:
        c.shape = "all-zero-weights";
        zero_weights = true;
        break;
      case 2:
        c.shape = "q1";
        q = 1;
        break;
      case 3:
        c.shape = "b2-saturation";
        c.bits = 2;
        break;
      case 4:
        c.shape = "big-intercept";
        big_intercept = true;
        break;
      default: c.shape = "wide"; q = 40 + rng.nextBounded(60);
    }

    c.model.proxyIds.resize(q);
    for (size_t j = 0; j < q; ++j)
        c.model.proxyIds[j] = static_cast<uint32_t>(j);
    c.model.weights = zero_weights ? std::vector<float>(q, 0.0f)
                                   : randomWeights(rng, q);
    c.model.intercept = big_intercept ? rng.nextRange(-2000.0, 2000.0)
                                      : rng.nextRange(-5.0, 5.0);
    c.model.designName = "gen";

    const size_t rows = 32 + rng.nextBounded(400);
    c.T = randomPowerOfTwo(rng, static_cast<uint32_t>(rows));
    c.Xq = randomBits(rng, rows, q, rng.nextRange(0.05, 0.7));
    return c;
}

SolverCase
makeSolverCase(uint64_t seed)
{
    Xoshiro256StarStar rng(hashMix(seed ^ 0x50f7));
    SolverCase c;
    const uint64_t shape = hashMix(seed ^ 0x3c5d) % 8;

    size_t n = 16 + rng.nextBounded(300);
    size_t m = 2 + rng.nextBounded(46);
    double density = rng.nextRange(0.03, 0.5);
    bool zero_cols = false;
    bool dup_cols = false;
    bool constant_labels = false;
    switch (shape) {
      case 0: c.shape = "nominal"; break;
      case 1:
        c.shape = "zero-columns";
        zero_cols = true;
        break;
      case 2:
        c.shape = "duplicate-columns";
        dup_cols = true;
        break;
      case 3:
        c.shape = "constant-labels";
        constant_labels = true;
        break;
      case 4:
        c.shape = "single-column";
        m = 1;
        break;
      case 5:
        c.shape = "tiny";
        n = 2 + rng.nextBounded(6);
        m = 1 + rng.nextBounded(4);
        break;
      case 6:
        c.shape = "wide";
        m = 64 + rng.nextBounded(80);
        n = 32 + rng.nextBounded(100);
        break;
      default: c.shape = "dense"; density = 0.8;
    }

    c.X = randomBits(rng, n, m, density);
    if (zero_cols)
        for (size_t j = 0; j < m; j += 3)
            for (size_t i = 0; i < n; ++i)
                c.X.set(i, j, false);
    if (dup_cols && m >= 2)
        for (size_t j = 1; j < m; j += 4)
            for (size_t i = 0; i < n; ++i)
                c.X.set(i, j, c.X.get(i, j - 1));

    // Penalty configuration rotates through every family.
    const uint64_t family = hashMix(seed ^ 0x77aa) % 5;
    c.cfg = CdConfig();
    c.cfg.maxSweeps = 600;
    c.cfg.tol = rng.nextDouble() < 0.25 ? 1e-6 : 1e-4;
    c.cfg.penalty.nonneg = rng.nextDouble() < 0.3;
    switch (family) {
      case 0:
        c.cfg.penalty.kind = PenaltyKind::None;
        c.cfg.penalty.lambda = 0.0;
        break;
      case 1:
        c.cfg.penalty.kind = PenaltyKind::Ridge;
        c.cfg.penalty.lambda2 = rng.nextRange(1e-4, 1.0);
        break;
      case 2:
        c.cfg.penalty.kind = PenaltyKind::Lasso;
        break;
      case 3: // elastic net
        c.cfg.penalty.kind = PenaltyKind::Lasso;
        c.cfg.penalty.lambda2 = rng.nextRange(1e-4, 0.1);
        break;
      default:
        c.cfg.penalty.kind = PenaltyKind::Mcp;
        c.cfg.penalty.gamma = rng.nextDouble() < 0.3
                                  ? rng.nextRange(3.0, 6.0)
                                  : 10.0;
    }

    // Labels: planted sparse linear structure + noise (or constant).
    c.y.assign(n, static_cast<float>(rng.nextRange(-2.0, 2.0)));
    if (!constant_labels) {
        const size_t q_true = 1 + rng.nextBounded(std::max<size_t>(
                                      1, std::min<size_t>(m, 8)));
        for (size_t k = 0; k < q_true; ++k) {
            const size_t j = rng.nextBounded(m);
            double beta = rng.nextRange(0.2, 2.0);
            if (!c.cfg.penalty.nonneg && rng.nextDouble() < 0.3)
                beta = -beta;
            for (size_t i = 0; i < n; ++i)
                if (c.X.get(i, j))
                    c.y[i] += static_cast<float>(beta);
        }
        const double noise = rng.nextRange(0.0, 0.1);
        for (size_t i = 0; i < n; ++i)
            c.y[i] += static_cast<float>(noise * rng.nextGaussian());
    }

    // Lambda relative to this case's own naive lambdaMax, computed
    // after labels exist (L1-family only).
    if (c.cfg.penalty.kind == PenaltyKind::Lasso ||
        c.cfg.penalty.kind == PenaltyKind::Mcp) {
        BitFeatureView view(c.X);
        const double lmax = ref::lambdaMax(view, c.y);
        c.cfg.penalty.lambda =
            lmax > 0.0 ? lmax * rng.nextRange(0.02, 0.8) : 0.0;
    }
    return c;
}

TargetQCase
makeTargetQCase(uint64_t seed)
{
    Xoshiro256StarStar rng(hashMix(seed ^ 0x7a9));
    TargetQCase c;
    c.shape = "nominal";

    const size_t n = 120 + rng.nextBounded(280);
    const size_t m = 20 + rng.nextBounded(40);
    c.X = randomBits(rng, n, m, rng.nextRange(0.05, 0.35));

    c.y.assign(n, 1.0f);
    const size_t q_true = 4 + rng.nextBounded(m / 2);
    for (size_t k = 0; k < q_true; ++k) {
        const size_t j = rng.nextBounded(m);
        const double beta = rng.nextRange(0.2, 2.0);
        for (size_t i = 0; i < n; ++i)
            if (c.X.get(i, j))
                c.y[i] += static_cast<float>(beta);
    }
    for (size_t i = 0; i < n; ++i)
        c.y[i] += static_cast<float>(0.05 * rng.nextGaussian());

    c.targetQ = 1 + rng.nextBounded(m / 3);
    return c;
}

BitDotsCase
makeBitDotsCase(uint64_t seed)
{
    Xoshiro256StarStar rng(hashMix(seed ^ 0xb17d07));
    BitDotsCase c;
    static const char *kShapes[] = {"nominal", "sub_word", "one_word",
                                    "tail_word", "long"};
    const size_t shape = rng.nextBounded(5);
    c.shape = kShapes[shape];
    size_t n = 0;
    switch (shape) {
    case 1:
        n = 1 + rng.nextBounded(63);
        break;
    case 2:
        n = 64;
        break;
    case 3:
        n = 64 * (1 + rng.nextBounded(6)) + 1 + rng.nextBounded(63);
        break;
    case 4:
        n = 3000 + rng.nextBounded(2200);
        break;
    default:
        n = 100 + rng.nextBounded(1400);
        break;
    }

    const size_t m = 3 + rng.nextBounded(8);
    c.X.reset(n, m);
    for (size_t j = 0; j < m; ++j) {
        const uint64_t kind = rng.nextBounded(6);
        if (kind == 0)
            continue; // empty
        if (kind == 1) { // all ones
            for (size_t i = 0; i < n; ++i)
                c.X.setBit(i, j);
        } else if (kind == 2) { // single bit
            c.X.setBit(rng.nextBounded(n), j);
        } else if (kind == 3) { // only the last (possibly partial) word
            for (size_t i = (n - 1) / 64 * 64; i < n; ++i)
                if (rng.nextDouble() < 0.5)
                    c.X.setBit(i, j);
        } else if (kind == 4 && j > 0) { // duplicate of an earlier column
            const size_t src = rng.nextBounded(j);
            for (size_t i = 0; i < n; ++i)
                if (c.X.get(i, src))
                    c.X.setBit(i, j);
        } else {
            const double density = rng.nextRange(0.01, 0.9);
            for (size_t i = 0; i < n; ++i)
                if (rng.nextDouble() < density)
                    c.X.setBit(i, j);
        }
    }

    // Mixed magnitudes (1e-6..1e6, both signs), signed zeros and
    // subnormals.
    c.dense.resize(n);
    for (float &v : c.dense) {
        const double u = rng.nextDouble();
        const double sign = rng.nextDouble() < 0.5 ? -1.0 : 1.0;
        if (u < 0.05)
            v = static_cast<float>(sign * 0.0);
        else if (u < 0.10)
            v = static_cast<float>(
                sign * std::ldexp(rng.nextRange(0.0, 1.0), -127));
        else
            v = static_cast<float>(
                sign * rng.nextRange(0.1, 1.0) *
                std::pow(10.0, rng.nextRange(-6.0, 6.0)));
    }

    const size_t nbatches = 1 + rng.nextBounded(6);
    for (size_t b = 0; b < nbatches; ++b) {
        std::vector<uint32_t> batch(1 + rng.nextBounded(bitkernels::kDotBatch));
        for (uint32_t &id : batch)
            id = static_cast<uint32_t>(rng.nextBounded(m));
        c.batches.push_back(std::move(batch));
    }
    return c;
}

BitParallelCase
makeBitParallelCase(uint64_t seed)
{
    Xoshiro256StarStar rng(hashMix(seed ^ 0xb17a));
    BitParallelCase c;
    const uint64_t shape = hashMix(seed ^ 0xb17b) % 8;

    static constexpr uint32_t kBits[] = {2, 4, 8, 10, 12, 16, 24};
    c.bits = kBits[rng.nextBounded(std::size(kBits))];

    size_t rows = 16 + rng.nextBounded(600);
    size_t q = 2 + rng.nextBounded(90);
    double density = rng.nextRange(0.05, 0.6);
    uint32_t T = 0; // 0: derived from rows below
    switch (shape) {
      case 0: c.shape = "nominal"; break;
      case 1: {
        c.shape = "q-word-edge";
        static constexpr size_t kQ[] = {63, 64, 65, 127, 128, 129};
        q = kQ[rng.nextBounded(std::size(kQ))];
        break;
      }
      case 2: {
        c.shape = "rows-word-edge";
        static constexpr size_t kRows[] = {0,   1,   63,  64,  65,
                                           127, 128, 129, 191, 193};
        rows = kRows[rng.nextBounded(std::size(kRows))];
        // Sometimes T > rows: only a trailing partial segment exists.
        if (rng.nextDouble() < 0.35)
            T = 64;
        break;
      }
      case 3:
        c.shape = "legacy-small-T";
        T = 1 + static_cast<uint32_t>(rng.nextBounded(2));
        break;
      case 4: {
        c.shape = "word-aligned-T";
        static constexpr uint32_t kT[] = {64, 128, 256};
        T = kT[rng.nextBounded(std::size(kT))];
        rows = 3 * T + rng.nextBounded(4 * T);
        break;
      }
      case 5:
        c.shape = "T32";
        T = 32;
        rows = 64 + rng.nextBounded(600);
        break;
      case 6:
        c.shape = "dense";
        density = 0.97;
        break;
      default:
        c.shape = "wide";
        q = 140 + rng.nextBounded(24);
    }

    c.model.proxyIds.resize(q);
    for (size_t j = 0; j < q; ++j)
        c.model.proxyIds[j] = static_cast<uint32_t>(j);
    c.model.weights = randomWeights(rng, q);
    c.model.intercept = rng.nextRange(-5.0, 5.0);
    c.model.designName = "gen";

    c.T = T ? T
            : randomPowerOfTwo(
                  rng, static_cast<uint32_t>(std::max<size_t>(rows, 1)));
    c.Xq = randomBits(rng, rows, q, density);
    return c;
}

size_t
streamChunkCycles(uint64_t seed)
{
    static constexpr size_t kChunks[] = {1,  3,   7,    13,   64,
                                         97, 256, 1000, 4096, 16384};
    return kChunks[hashMix(seed ^ 0xc4) % std::size(kChunks)];
}

namespace {

/** A miniature random design: a handful of units with buses and gated
 *  clocks, small enough for hundreds of cases per test run. */
Netlist
miniDesign(Xoshiro256StarStar &rng)
{
    static constexpr UnitId kUnits[] = {
        UnitId::Fetch,  UnitId::Decode,    UnitId::IntAlu,
        UnitId::VecExec, UnitId::LoadStore, UnitId::DCache,
        UnitId::ClockTree, UnitId::Misc,
    };
    DesignConfig cfg;
    cfg.name = "mini";
    cfg.seed = rng();
    cfg.ffPerClockGate = 8; // gated clocks even at tiny unit sizes
    const size_t n_units = 3 + rng.nextBounded(4);
    for (size_t u = 0; u < n_units; ++u) {
        UnitConfig uc;
        uc.unit = kUnits[(rng.nextBounded(std::size(kUnits)) + u) %
                         std::size(kUnits)];
        uc.signals = 8 + static_cast<uint32_t>(rng.nextBounded(32));
        uc.busCount = static_cast<uint32_t>(rng.nextBounded(3));
        uc.busWidth = 4 + static_cast<uint32_t>(rng.nextBounded(5));
        uc.capScale = static_cast<float>(rng.nextRange(0.5, 2.0));
        cfg.units.push_back(uc);
    }
    return DesignBuilder::build(cfg);
}

ActivityFrame
randomFrame(Xoshiro256StarStar &rng, uint64_t cycle, double enable_p,
            bool extreme_act)
{
    ActivityFrame f{};
    f.cycle = cycle;
    for (size_t u = 0; u < numUnits; ++u) {
        if (extreme_act) {
            static constexpr float kEdge[] = {0.0f,    1.0f, 0.999f,
                                              0.9989f, 0.5f, 0.9991f};
            f.activity[u] = kEdge[rng.nextBounded(std::size(kEdge))];
        } else {
            f.activity[u] = static_cast<float>(rng.nextDouble());
        }
        f.clockEnabled[u] = rng.nextDouble() < enable_p;
        f.dataToggle[u] = static_cast<float>(rng.nextDouble());
    }
    return f;
}

} // namespace

GaCase
makeGaCase(uint64_t seed)
{
    Xoshiro256StarStar rng(hashMix(seed ^ 0x6a1));
    GaCase c;
    const uint64_t shape = hashMix(seed ^ 0x6a2) % 8;

    size_t n = 20 + rng.nextBounded(140);
    double enable_p = 0.85;
    bool extreme_act = false;
    bool contiguous = true;
    c.stride = 1 + static_cast<uint32_t>(rng.nextBounded(4));
    switch (shape) {
      case 0: c.shape = "nominal"; break;
      case 1:
        c.shape = "sparse-enable";
        enable_p = 0.15;
        break;
      case 2:
        c.shape = "act-extremes";
        extreme_act = true;
        break;
      case 3:
        c.shape = "noncontiguous-cycles";
        contiguous = false;
        break;
      case 4:
        c.shape = "single-cycle";
        n = 1;
        break;
      case 5: {
        c.shape = "word-boundary";
        static constexpr size_t kEdges[] = {63, 64, 65, 127, 128};
        n = kEdges[rng.nextBounded(std::size(kEdges))];
        break;
      }
      case 6: c.shape = "stride-large"; break; // stride set below
      default:
        c.shape = "long-run";
        n = 256 + rng.nextBounded(300);
    }

    c.netlist = miniDesign(rng);
    if (shape == 6)
        c.stride = static_cast<uint32_t>(c.netlist.signalCount()) + 3;

    uint64_t cycle = rng.nextBounded(1u << 20);
    c.frames.reserve(n);
    for (size_t i = 0; i < n; ++i) {
        c.frames.push_back(randomFrame(rng, cycle, enable_p,
                                       extreme_act));
        cycle += contiguous ? 1 : 1 + rng.nextBounded(5);
    }
    return c;
}

FitnessBatchCase
makeFitnessBatchCase(uint64_t seed)
{
    Xoshiro256StarStar rng(hashMix(seed ^ 0xfb1));
    FitnessBatchCase c;
    c.netlist = miniDesign(rng);
    c.stride = 1 + static_cast<uint32_t>(rng.nextBounded(7));
    c.threads = rng.nextBounded(4);
    const size_t n_runs = 1 + rng.nextBounded(9);
    const bool contiguous = rng.nextBounded(2) == 0;
    const bool sparse = rng.nextBounded(4) == 0;

    // One stamp per row, shared by every run.
    std::vector<uint64_t> stamps(700);
    uint64_t cycle = rng.nextBounded(1u << 20);
    for (uint64_t &s : stamps) {
        s = cycle;
        cycle += contiguous ? 1 : 1 + rng.nextBounded(5);
    }
    size_t copies = 0;
    size_t near = 0;
    for (size_t r = 0; r < n_runs; ++r) {
        const uint64_t kind = r == 0 ? 0 : rng.nextBounded(4);
        if (kind == 1 || kind == 2) {
            // A copy of an earlier run, exact or with one field of one
            // frame changed (or one frame dropped).
            std::vector<ActivityFrame> run =
                c.runs[rng.nextBounded(c.runs.size())];
            if (kind == 2) {
                ActivityFrame &f = run[rng.nextBounded(run.size())];
                const size_t u = rng.nextBounded(numUnits);
                switch (rng.nextBounded(4)) {
                  case 0:
                    f.activity[u] = std::nextafter(f.activity[u], 2.0f);
                    break;
                  case 1: f.dataToggle[u] += 0.25f; break;
                  case 2: f.clockEnabled[u] = !f.clockEnabled[u]; break;
                  default:
                    if (run.size() > 1)
                        run.pop_back();
                    else
                        f.clockEnabled[u] = !f.clockEnabled[u];
                }
                near++;
            } else {
                copies++;
            }
            c.runs.push_back(std::move(run));
            continue;
        }
        static constexpr size_t kEdges[] = {1, 63, 64, 65};
        const size_t n = rng.nextBounded(3) == 0
                             ? kEdges[rng.nextBounded(std::size(kEdges))]
                             : 66 + rng.nextBounded(stamps.size() - 66);
        std::vector<ActivityFrame> run;
        run.reserve(n);
        for (size_t i = 0; i < n; ++i)
            run.push_back(
                randomFrame(rng, stamps[i], sparse ? 0.2 : 0.85, false));
        c.runs.push_back(std::move(run));
    }
    c.shape = "runs=" + std::to_string(n_runs) +
              "+copies=" + std::to_string(copies) +
              "+near=" + std::to_string(near) +
              "+stride=" + std::to_string(c.stride) +
              "+threads=" + std::to_string(c.threads) +
              (contiguous ? "" : "+noncontiguous") +
              (sparse ? "+sparse-enable" : "");
    return c;
}

namespace {

/**
 * Per-cycle segment-begin table over @p n rows: segment lengths drawn
 * from the word edges, plus random lengths when @p random_lengths.
 */
std::vector<uint32_t>
randomSegmentTable(Xoshiro256StarStar &rng, size_t n, bool random_lengths)
{
    static constexpr size_t kEdges[] = {1, 2, 63, 64, 65};
    const size_t choices = std::size(kEdges) + (random_lengths ? 2 : 0);
    std::vector<uint32_t> begin_of;
    begin_of.reserve(n);
    while (begin_of.size() < n) {
        const size_t pick = rng.nextBounded(choices);
        const size_t len = pick < std::size(kEdges)
                               ? kEdges[pick]
                               : 1 + rng.nextBounded(150);
        const auto start = static_cast<uint32_t>(begin_of.size());
        for (size_t k = 0; k < len && begin_of.size() < n; ++k)
            begin_of.push_back(start);
    }
    return begin_of;
}

} // namespace

ToggleCase
makeToggleCase(uint64_t seed)
{
    GaCase ga = makeGaCase(seed);
    Xoshiro256StarStar rng(hashMix(seed ^ 0x70c));
    ToggleCase c;
    c.netlist = std::move(ga.netlist);
    c.frames = std::move(ga.frames);
    const size_t n = c.frames.size();

    const uint64_t seg_shape = hashMix(seed ^ 0x70d) % 4;
    switch (seg_shape) {
      case 0: c.shape = ga.shape + "+one-segment"; break;
      case 1:
        c.shape = ga.shape + "+edge-segments";
        c.segmentBeginOf = randomSegmentTable(rng, n, false);
        break;
      case 2:
        c.shape = ga.shape + "+random-segments";
        c.segmentBeginOf = randomSegmentTable(rng, n, true);
        break;
      default: {
        c.shape = ga.shape + "+restart-cycles";
        c.segmentBeginOf = randomSegmentTable(rng, n, true);
        // Each segment restarts its cycle stamps, as separately
        // simulated programs do.
        uint64_t cycle = 0;
        for (size_t i = 0; i < n; ++i) {
            if (c.segmentBeginOf[i] == i)
                cycle = rng.nextBounded(1u << 20);
            c.frames[i].cycle = cycle++;
        }
      }
    }

    std::vector<size_t> starts = {0};
    for (size_t i = 1; i < c.segmentBeginOf.size(); ++i)
        if (c.segmentBeginOf[i] == i)
            starts.push_back(i);
    c.windows.emplace_back(0, n);
    for (int k = 0; k < 5; ++k) {
        const size_t s = starts[rng.nextBounded(starts.size())];
        size_t first = s;
        size_t min_count = 1;
        switch (rng.nextBounded(3)) {
          case 0: break; // on a segment start
          case 1: first = std::min(s + 1, n - 1); break;
          default: { // straddle a boundary
            const size_t b = starts.size() > 1
                ? starts[1 + rng.nextBounded(starts.size() - 1)]
                : n - 1;
            first = b - std::min<size_t>(b, 1 + rng.nextBounded(70));
            min_count = std::min(n - first, b - first + 1);
          }
        }
        const size_t count =
            min_count + rng.nextBounded(n - first - min_count + 1);
        c.windows.emplace_back(first, count);
    }
    return c;
}

namespace {

/**
 * The input v with f(v) == target bit for bit, stepped one ulp at a
 * time from v0 toward it; nullopt when f steps over the target.
 */
std::optional<float>
solveTie(const std::function<float(float)> &f, float target, float v0)
{
    const float inf = std::numeric_limits<float>::infinity();
    if (!std::isfinite(v0))
        return std::nullopt;
    float v = v0;
    const bool up = f(v) < target;
    for (int step = 0; step < 4096 && f(v) != target; ++step) {
        if ((f(v) < target) != up)
            return std::nullopt;
        v = std::nextafter(v, up ? inf : -inf);
    }
    if (f(v) != target)
        return std::nullopt;
    return v;
}

/**
 * Step row i's source activity (data for a bus bit) until @p sig_id's
 * threshold equals its draw at row i, enabling its unit there; false
 * when no float lands exactly on the draw.
 */
bool
tieSignal(const ActivityEngine &engine, std::vector<ActivityFrame> &frames,
          size_t i, size_t begin, uint32_t sig_id)
{
    const Signal &sig = engine.netlist().signal(sig_id);
    const auto u = static_cast<size_t>(sig.unit);
    const size_t lat = sig.kind == SignalKind::GatedClock ? 0 : sig.latency;
    ActivityFrame &src = frames[i - std::min(lat, i - begin)];
    const float draw = hashToUnitFloat(
        hashCombine(engine.signalDrawSeed(sig_id), frames[i].cycle));
    std::optional<float> v;
    if (sig.kind == SignalKind::GatedClock) {
        v = solveTie(ActivityEngine::gatedClockThreshold, draw,
                     (draw - 0.18f) / 0.82f);
        if (v && *v < 0.999f)
            src.activity[u] = *v;
        else
            v.reset();
    } else if (sig.kind == SignalKind::BusBit) {
        // Open the bus event gate, then tie the bit's draw.
        const float ev = hashToUnitFloat(
            hashCombine(engine.busDrawSeed(sig.busId), frames[i].cycle));
        const float es = engine.netlist()
                             .bus(static_cast<size_t>(sig.busId))
                             .eventSensitivity;
        if (ev < ActivityEngine::busEventThreshold(es, 1.0f))
            v = solveTie(ActivityEngine::busBitThreshold, draw,
                         (draw - 0.35f) / 0.65f);
        if (v) {
            src.activity[u] = 1.0f;
            src.dataToggle[u] = *v;
        }
    } else if (sig.kind != SignalKind::ClockEnable && draw < 0.95f &&
               sig.actSensitivity > 0.0f) {
        const float quiet = 1.0f - sig.dataSensitivity * (1.0f - 0.3f);
        v = solveTie(
            [&](float a) {
                return ActivityEngine::toggleProbability(sig, a, 0.3f);
            },
            draw, (draw - sig.baseRate) / (sig.actSensitivity * quiet));
        if (v) {
            src.activity[u] = *v;
            src.dataToggle[u] = 0.3f;
        }
    }
    if (v)
        frames[i].clockEnabled[u] = true;
    return v.has_value();
}

} // namespace

ToggleRowsCase
makeToggleRowsCase(uint64_t seed)
{
    Xoshiro256StarStar rng(hashMix(seed ^ 0x7a1));
    ToggleRowsCase c;
    c.netlist = miniDesign(rng);
    const ActivityEngine engine(c.netlist);

    static const char *const kFrameShapes[] = {"nominal", "edge-values",
                                               "sparse-enable", "ties"};
    const uint64_t frame_shape = hashMix(seed ^ 0x7a2) % 4;
    const size_t n = 3 + rng.nextBounded(200);
    c.segmentBeginOf = randomSegmentTable(rng, n, rng.nextBounded(2) == 0);
    // Separately simulated programs restart their cycle stamps.
    const bool restart = rng.nextBounded(2) == 0;
    const float inf = std::numeric_limits<float>::infinity();
    const float edge[] = {std::numeric_limits<float>::quiet_NaN(),
                          inf,
                          -inf,
                          -0.0f,
                          0.0f,
                          -0.5f,
                          1.5f,
                          1e30f,
                          -1e-40f,
                          1e-40f,
                          0.999f,
                          std::nextafter(0.999f, 0.0f),
                          1.0f,
                          0.5f};
    uint64_t cycle = rng.nextBounded(1u << 20);
    c.frames.reserve(n);
    for (size_t i = 0; i < n; ++i) {
        if (restart && c.segmentBeginOf[i] == i)
            cycle = rng();
        ActivityFrame f =
            randomFrame(rng, cycle++, frame_shape == 2 ? 0.2 : 0.85, false);
        if (frame_shape == 1)
            for (size_t u = 0; u < numUnits; ++u) {
                f.activity[u] = edge[rng.nextBounded(std::size(edge))];
                f.dataToggle[u] = edge[rng.nextBounded(std::size(edge))];
            }
        c.frames.push_back(f);
    }

    std::vector<uint32_t> by_kind[5];
    std::vector<uint32_t> all;
    for (uint32_t s = 0; s < c.netlist.signalCount(); ++s) {
        by_kind[static_cast<size_t>(c.netlist.signal(s).kind)].push_back(s);
        all.push_back(s);
    }
    static constexpr size_t kQ[] = {1, 15, 16, 17, 63, 64, 65, 159, 160};
    static const char *const kListShapes[] = {"one-kind", "bus-bits",
                                              "every-kind"};
    std::string lists;
    const size_t n_lists = 2 + rng.nextBounded(2);
    for (size_t k = 0; k < n_lists; ++k) {
        const size_t q = kQ[rng.nextBounded(std::size(kQ))];
        const uint64_t list_shape = rng.nextBounded(3);
        const std::vector<uint32_t> *pool = &all;
        std::vector<uint32_t> ids;
        if (list_shape == 0) {
            const auto &kind = by_kind[rng.nextBounded(5)];
            if (!kind.empty())
                pool = &kind;
        } else if (list_shape == 1) {
            if (!by_kind[static_cast<size_t>(SignalKind::BusBit)].empty())
                pool = &by_kind[static_cast<size_t>(SignalKind::BusBit)];
        } else {
            for (const auto &kind : by_kind)
                if (!kind.empty() && ids.size() < q)
                    ids.push_back(kind[rng.nextBounded(kind.size())]);
        }
        while (ids.size() < q)
            ids.push_back((*pool)[rng.nextBounded(pool->size())]);
        for (size_t j = ids.size(); j > 1; --j)
            std::swap(ids[j - 1], ids[rng.nextBounded(j)]);
        lists += std::string("+") + kListShapes[list_shape] + "-q" +
                 std::to_string(q);
        c.lists.push_back(std::move(ids));
    }

    if (frame_shape == 3)
        for (size_t i = 0; i < n; ++i) {
            const std::vector<uint32_t> &ids =
                c.lists[rng.nextBounded(c.lists.size())];
            tieSignal(engine, c.frames, i, c.segmentBeginOf[i],
                      ids[rng.nextBounded(ids.size())]);
        }
    c.shape = std::string(kFrameShapes[frame_shape]) + lists;
    return c;
}

DatasetBuildCase
makeDatasetBuildCase(uint64_t seed)
{
    Xoshiro256StarStar rng(hashMix(seed ^ 0xd5b));
    DatasetBuildCase c;
    const uint64_t shape = hashMix(seed ^ 0xd5c) % 7;

    size_t n = 20 + rng.nextBounded(400);
    double enable_p = 0.85;
    bool extreme_act = false;
    switch (shape) {
      case 0: c.shape = "nominal"; break;
      case 1: c.shape = "one-cycle-segment"; break;
      case 2: {
        c.shape = "word-boundary-total";
        static constexpr size_t kEdges[] = {63, 64, 65, 127, 128,
                                            129, 511, 512, 513};
        n = kEdges[rng.nextBounded(std::size(kEdges))];
        break;
      }
      case 3: c.shape = "one-segment"; break;
      case 4: c.shape = "many-short"; break;
      case 5:
        c.shape = "sparse-enable";
        enable_p = 0.15;
        break;
      default:
        c.shape = "act-extremes";
        extreme_act = true;
    }

    c.netlist = miniDesign(rng);
    uint64_t cycle = rng.nextBounded(1u << 20);
    for (size_t i = 0; i < n; ++i)
        c.frames.push_back(
            randomFrame(rng, cycle++, enable_p, extreme_act));

    size_t left = n;
    if (shape == 1) { // a one-cycle segment somewhere inside
        const size_t before = rng.nextBounded(n);
        if (before)
            c.segmentLengths.push_back(before);
        c.segmentLengths.push_back(1);
        left -= before + 1;
    }
    while (left > 0) {
        size_t len = left;
        if (shape == 4)
            len = 1 + rng.nextBounded(3);
        else if (shape != 3)
            len = 1 + rng.nextBounded(150);
        len = std::min(len, left);
        c.segmentLengths.push_back(len);
        left -= len;
    }
    return c;
}

GaRunCase
makeGaRunCase(uint64_t seed)
{
    Xoshiro256StarStar rng(hashMix(seed ^ 0x6a3));
    GaRunCase c;
    const uint64_t shape = hashMix(seed ^ 0x6a4) % 6;

    c.netlist = miniDesign(rng);
    c.coreParams = CoreParams::defaults();
    c.coreParams.warmupCycles = 16 + rng.nextBounded(48);

    GaConfig &ga = c.ga;
    ga.populationSize = 5 + static_cast<uint32_t>(rng.nextBounded(4));
    ga.generations = 2 + static_cast<uint32_t>(rng.nextBounded(2));
    ga.elites = 1 + static_cast<uint32_t>(
        rng.nextBounded(ga.populationSize / 2));
    ga.bodyMinLen = 4;
    ga.bodyMaxLen = 10;
    ga.fitnessCycles = 40 + rng.nextBounded(50);
    ga.fitnessSignalStride =
        1 + static_cast<uint32_t>(rng.nextBounded(3));
    ga.seed = rng();
    ga.threads = 1 + static_cast<uint32_t>(rng.nextBounded(3));

    switch (shape) {
      case 0: c.shape = "nominal"; break;
      case 1:
        c.shape = "dup-heavy";
        ga.mutationRate = 0.0;
        ga.crossoverRate = 0.0;
        ga.elites = ga.populationSize - 1;
        ga.generations = 3;
        break;
      case 2:
        c.shape = "min-pop";
        ga.populationSize = 4;
        ga.elites = 3;
        ga.tournamentSize = 1;
        break;
      case 3:
        c.shape = "stride-gt-m";
        ga.fitnessSignalStride =
            static_cast<uint32_t>(c.netlist.signalCount()) + 5;
        break;
      case 4: {
        c.shape = "invalid-config";
        c.expectError = true;
        switch (rng.nextBounded(4)) {
          case 0: ga.fitnessSignalStride = 0; break;
          case 1: ga.populationSize = 0; break; // zero population
          case 2: ga.elites = ga.populationSize; break;
          default: ga.fitnessCycles = 0;
        }
        break;
      }
      default:
        c.shape = "global-pool";
        ga.threads = 0;
    }
    return c;
}

namespace {

/** Random cache geometry small enough to keep the MSHRs busy. */
CacheParams
randomCache(Xoshiro256StarStar &rng, bool last_level)
{
    CacheParams c;
    c.lineBytes = 64;
    c.ways = 1u << rng.nextBounded(4);
    c.sizeBytes = c.lineBytes * c.ways *
                  (1u << (2 + rng.nextBounded(last_level ? 10 : 7)));
    c.latency = static_cast<uint32_t>(rng.nextBounded(last_level ? 16 : 5));
    c.mshrs = 1 + static_cast<uint32_t>(rng.nextBounded(8));
    c.fillLatency =
        last_level ? 1 + static_cast<uint32_t>(rng.nextBounded(120)) : 0;
    return c;
}

} // namespace

CoreCase
makeCoreCase(uint64_t seed)
{
    Xoshiro256StarStar rng(hashMix(seed ^ 0xc07e));
    CoreCase c;
    const uint64_t shape = hashMix(seed ^ 0xc07f) % 8;
    auto in = [&](uint32_t lo, uint32_t hi) {
        return lo + static_cast<uint32_t>(rng.nextBounded(hi - lo + 1));
    };

    CoreParams &p = c.params;
    p.fetchWidth = in(1, 8);
    p.decodeWidth = in(1, 8);
    p.issueWidth = in(1, 8);
    p.retireWidth = in(1, 8);
    p.fetchQueueSize = in(1, 32);
    p.issueWindow = in(1, 64);
    p.robSize = in(1, 160);
    p.storeBufferSize = in(1, 16);
    p.numAlus = in(1, 4);
    p.numVecPipes = in(1, 3);
    p.numLsuPorts = in(1, 3);
    p.aluLatency = in(1, 2);
    p.mulLatency = in(1, 6);
    p.divLatency = in(1, 20);
    p.vaddLatency = in(1, 4);
    p.vmulLatency = in(1, 5);
    p.vfmaLatency = in(1, 6);
    p.mispredictPenalty = in(0, 12);
    p.gateAfterIdle = in(0, 4);
    p.warmupCycles = rng.nextBounded(300);
    p.l1i = randomCache(rng, false);
    p.l1d = randomCache(rng, false);
    p.l2 = randomCache(rng, true);
    static constexpr ThrottleMode kModes[] = {
        ThrottleMode::None, ThrottleMode::Scheme1, ThrottleMode::Scheme2,
        ThrottleMode::Scheme3, ThrottleMode::Proportional};
    p.throttle = kModes[rng.nextBounded(std::size(kModes))];

    bool long_workload = rng.nextBounded(3) == 0;
    int iterations = static_cast<int>(in(20, 400));
    c.maxCycles = in(1, 6000);
    switch (shape) {
      case 0: c.shape = "nominal"; break;
      case 1:
        c.shape = "one-entry-queues";
        p.robSize = 1;
        p.issueWindow = 1;
        p.fetchQueueSize = 1;
        p.storeBufferSize = 1;
        break;
      case 2:
        c.shape = "one-entry-some";
        if (rng.nextBounded(2))
            p.robSize = 1;
        if (rng.nextBounded(2))
            p.issueWindow = 1;
        if (rng.nextBounded(2))
            p.fetchQueueSize = 1;
        if (rng.nextBounded(2))
            p.storeBufferSize = 1;
        break;
      case 3:
        c.shape = "no-warmup";
        p.warmupCycles = 0;
        break;
      case 4:
        c.shape = "zero-latency";
        p.aluLatency = 0;
        p.mulLatency = 0;
        p.divLatency = 0;
        p.mispredictPenalty = 0;
        p.l1d.latency = 0;
        p.l1d.mshrs = 1;
        p.l2.mshrs = 1;
        break;
      case 5:
        c.shape = "ends-early";
        long_workload = false;
        iterations = static_cast<int>(in(1, 12));
        c.maxCycles = rng.nextBounded(2)
                          ? std::numeric_limits<uint64_t>::max()
                          : uint64_t{1} << 40;
        break;
      case 6:
        c.shape = "dense-control";
        break;
      default:
        c.shape = "store-forwarding";
        long_workload = false;
        p.numLsuPorts = in(2, 3);
        p.storeBufferSize = in(2, 16);
    }
    c.shape += long_workload ? "+long" : "+loop";

    std::vector<Instruction> body;
    if (shape == 7) {
        // Loads and stores over four words of one line. Stores read
        // registers no load writes, so they issue at once and fill the
        // store buffer, and loads find matches behind its head.
        using namespace asm_helpers;
        const uint32_t len = in(2, 16);
        for (uint32_t i = 0; i < len; ++i) {
            const int reg = static_cast<int>(rng.nextBounded(8));
            const auto off = static_cast<int32_t>(8 * rng.nextBounded(4));
            switch (rng.nextBounded(5)) {
              case 0: body.push_back(ldr(reg, 30, off)); break;
              case 1: body.push_back(vldr(reg, 30, off)); break;
              case 2: body.push_back(vstr(8 + reg, 30, off)); break;
              default: body.push_back(str(8 + reg, 30, off)); break;
            }
        }
    } else if (!long_workload) {
        body = GaGenerator::randomBody(rng, 1, 24);
    }
    if (long_workload)
        c.program = makeLongWorkload("long", in(1000, 6000), rng());
    else
        c.program = Program::makeLoop("loop", body, iterations, rng());

    // Control schedule: engage a random pulsed mode, or release, at
    // random recorded cycles (densely in the dense-control shape).
    const uint64_t horizon = std::min<uint64_t>(c.maxCycles, 6000);
    const uint64_t steps =
        shape == 6 ? 20 + rng.nextBounded(200) : rng.nextBounded(12);
    uint64_t cycle = 0;
    for (uint64_t i = 0; i < steps; ++i) {
        cycle += rng.nextBounded(2 * horizon / (steps + 1) + 1);
        CoreControlStep step;
        step.cycle = cycle;
        step.release = rng.nextBounded(4) == 0;
        step.mode = kModes[1 + rng.nextBounded(std::size(kModes) - 1)];
        step.level = in(1, p.issueWidth + 1);
        c.control.push_back(step);
    }
    return c;
}

} // namespace apollo::harness
