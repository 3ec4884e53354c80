#include "ref/reference_kernels.hh"

#include <algorithm>
#include <cmath>

#include "util/logging.hh"

namespace apollo::ref {

namespace {

/**
 * One cycle's float weighted sum without the intercept: += weights[q]
 * for every set bit, ascending q, zero weights skipped (adding 0.0f is
 * not a no-op for -0.0 inputs, and the production axpy never performs
 * it either).
 */
float
cycleSumFloat(const ApolloModel &model, const BitColumnMatrix &X,
              size_t row, bool proxy_layout)
{
    float acc = 0.0f;
    for (size_t q = 0; q < model.proxyIds.size(); ++q) {
        const size_t col = proxy_layout ? q : model.proxyIds[q];
        if (model.weights[q] != 0.0f && X.get(row, col))
            acc += model.weights[q];
    }
    return acc;
}

std::vector<float>
predictRows(const ApolloModel &model, const BitColumnMatrix &X,
            bool proxy_layout)
{
    APOLLO_REQUIRE(model.proxyIds.size() == model.weights.size(),
                   "model arity mismatch");
    for (uint32_t id : model.proxyIds)
        APOLLO_REQUIRE(proxy_layout || id < X.cols(),
                       "proxy id out of range");
    if (proxy_layout)
        APOLLO_REQUIRE(X.cols() == model.proxyIds.size(),
                       "proxy matrix arity mismatch");
    std::vector<float> out(X.rows());
    for (size_t i = 0; i < X.rows(); ++i) {
        float acc = static_cast<float>(model.intercept);
        for (size_t q = 0; q < model.proxyIds.size(); ++q) {
            const size_t col = proxy_layout ? q : model.proxyIds[q];
            if (model.weights[q] != 0.0f && X.get(i, col))
                acc += model.weights[q];
        }
        out[i] = acc;
    }
    return out;
}

} // namespace

std::vector<float>
predictProxies(const ApolloModel &model, const BitColumnMatrix &Xq)
{
    return predictRows(model, Xq, true);
}

std::vector<float>
predictFull(const ApolloModel &model, const BitColumnMatrix &X)
{
    return predictRows(model, X, false);
}

std::vector<float>
predictWindowsProxies(const ApolloModel &model, const BitColumnMatrix &Xq,
                      uint32_t T, std::span<const SegmentInfo> segments)
{
    APOLLO_REQUIRE(T >= 1, "window size must be positive");
    APOLLO_REQUIRE(Xq.cols() == model.proxyIds.size(),
                   "proxy matrix arity mismatch");
    std::vector<float> out;
    for (const SegmentInfo &seg : segments) {
        const size_t windows = seg.cycles() / T;
        for (size_t w = 0; w < windows; ++w) {
            double acc = 0.0;
            for (uint32_t t = 0; t < T; ++t)
                acc += cycleSumFloat(model, Xq,
                                     seg.begin + w * T + t, true);
            out.push_back(static_cast<float>(
                model.intercept + acc / static_cast<double>(T)));
        }
    }
    return out;
}

QuantizedModel
quantizeModel(const ApolloModel &model, uint32_t bits)
{
    APOLLO_REQUIRE(bits >= 2 && bits <= 24, "bits out of range");
    QuantizedModel qm;
    qm.proxyIds = model.proxyIds;
    qm.bits = bits;

    double max_abs = 0.0;
    for (float w : model.weights)
        max_abs = std::max(max_abs, std::abs(static_cast<double>(w)));
    if (max_abs == 0.0)
        max_abs = 1.0;
    const int64_t qmax = (int64_t{1} << (bits - 1)) - 1;
    qm.scale = max_abs / static_cast<double>(qmax);

    qm.qweights.resize(model.weights.size());
    for (size_t q = 0; q < model.weights.size(); ++q) {
        // Round half away from zero, then saturate at +/- qmax.
        const double exact =
            static_cast<double>(model.weights[q]) / qm.scale;
        int64_t v = static_cast<int64_t>(
            exact >= 0.0 ? std::floor(exact + 0.5)
                         : std::ceil(exact - 0.5));
        v = std::clamp<int64_t>(v, -qmax, qmax);
        qm.qweights[q] = static_cast<int32_t>(v);
    }
    const double exact_b = model.intercept / qm.scale;
    qm.qintercept = static_cast<int64_t>(
        exact_b >= 0.0 ? std::floor(exact_b + 0.5)
                       : std::ceil(exact_b - 0.5));
    return qm;
}

std::vector<float>
opmSimulate(const QuantizedModel &model, const BitColumnMatrix &Xq,
            uint32_t T)
{
    APOLLO_REQUIRE(T >= 1 && (T & (T - 1)) == 0,
                   "T must be a power of two");
    APOLLO_REQUIRE(Xq.cols() == model.proxyCount(),
                   "proxy matrix arity mismatch");
    uint32_t shift = 0;
    while ((uint32_t{1} << shift) < T)
        shift++;

    std::vector<float> out;
    int64_t accumulator = 0;
    uint32_t phase = 0;
    for (size_t i = 0; i < Xq.rows(); ++i) {
        int64_t cycle_sum = model.qintercept;
        for (size_t q = 0; q < Xq.cols(); ++q)
            if (Xq.get(i, q))
                cycle_sum += model.qweights[q];
        accumulator += cycle_sum;
        phase++;
        if (phase == T) {
            out.push_back(static_cast<float>(
                model.dequantize(accumulator >> shift)));
            accumulator = 0;
            phase = 0;
        }
    }
    return out;
}

std::vector<int64_t>
opmSegmentSums(const QuantizedModel &model, const BitColumnMatrix &Xq,
               uint32_t T, uint32_t phase0)
{
    APOLLO_REQUIRE(T >= 1 && phase0 < T, "window phase out of range");
    APOLLO_REQUIRE(Xq.cols() == model.proxyCount(),
                   "proxy matrix arity mismatch");
    std::vector<int64_t> out;
    int64_t seg_sum = 0;
    uint32_t phase = phase0;
    uint32_t in_segment = 0;
    for (size_t i = 0; i < Xq.rows(); ++i) {
        int64_t cycle_sum = model.qintercept;
        for (size_t q = 0; q < Xq.cols(); ++q)
            if (Xq.get(i, q))
                cycle_sum += model.qweights[q];
        seg_sum += cycle_sum;
        in_segment++;
        phase++;
        if (phase == T) {
            out.push_back(seg_sum);
            seg_sum = 0;
            phase = 0;
            in_segment = 0;
        }
    }
    if (in_segment > 0)
        out.push_back(seg_sum);
    return out;
}

CycleSumBounds
opmCycleSumBounds(const QuantizedModel &model)
{
    CycleSumBounds bounds;
    bounds.minSum = bounds.maxSum = model.qintercept;
    for (int32_t qw : model.qweights) {
        if (qw > 0)
            bounds.maxSum += qw;
        else
            bounds.minSum += qw;
    }
    return bounds;
}

double
dotLaneOrder(const BitColumnMatrix &X, size_t col,
             std::span<const float> dense)
{
    APOLLO_REQUIRE(dense.size() >= X.rows(), "dense vector too short");
    double chain[32];
    for (double &c : chain)
        c = 0.0;
    for (size_t row = 0; row < X.rows(); ++row)
        if (X.get(row, col))
            chain[row % 32] += static_cast<double>(dense[row]);
    for (size_t w = 16; w >= 1; w /= 2)
        for (size_t i = 0; i < w; ++i)
            chain[i] = chain[i] + chain[i + w];
    return chain[0];
}

double
dotFastOrder(const BitColumnMatrix &X, size_t col,
             std::span<const float> dense)
{
    APOLLO_REQUIRE(dense.size() >= X.rows(), "dense vector too short");
    float chain[64];
    for (float &c : chain)
        c = 0.0f;
    for (size_t row = 0; row < X.rows(); ++row)
        if (X.get(row, col))
            chain[row % 64] += dense[row];
    for (size_t w = 32; w >= 1; w /= 2)
        for (size_t i = 0; i < w; ++i)
            chain[i] = chain[i] + chain[i + w];
    return static_cast<double>(chain[0]);
}

} // namespace apollo::ref
