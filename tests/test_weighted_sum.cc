/**
 * @file
 * The per-cycle float kernel behind ApolloModel::cycleSums
 * (bitkernels::Kernels::weightedSum): every implementation the host
 * runs, reached through implKernels, must equal ref::predictProxies
 * and ref::predictFull bit for bit. The shapes cover the AVX-512
 * kernel's word and 256-row block edges, proxy counts around its
 * 16-lane groups, zero weights of both signs under a -0.0 intercept
 * (adding a zero weight would turn -0.0 into +0.0), and NaN, infinite
 * and subnormal weights. Outputs are sized exactly `rows`, so a
 * sanitizer build sees any store past the tail; a guarded copy checks
 * the same in every build.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "core/apollo_model.hh"
#include "ref/reference_kernels.hh"
#include "util/bitvec.hh"
#include "util/bitvec_kernels.hh"
#include "util/rng.hh"

namespace apollo {
namespace {

using bitkernels::Impl;

constexpr size_t kRows[] = {0,   1,   63,  64,    65,
                            255, 256, 257, 16384, 16385};
constexpr size_t kProxies[] = {1, 15, 16, 17, 159, 160};

/** Bit patterns, so -0.0 != +0.0 and equal NaNs compare equal. */
std::vector<uint32_t>
bitsOf(const float *v, size_t n)
{
    std::vector<uint32_t> out(n);
    for (size_t i = 0; i < n; ++i)
        out[i] = std::bit_cast<uint32_t>(v[i]);
    return out;
}

/**
 * The host's default NaN, as inf + (-inf) produces it at run time.
 * Using it for NaN weights makes every NaN in a sum the same bits,
 * whichever operand order a compiler picks for the reference's adds.
 */
float
defaultNan()
{
    volatile float inf = std::numeric_limits<float>::infinity();
    return inf + -inf;
}

/** Which special weights a case plants. */
enum class Weights
{
    Plain,    ///< finite weights, zeros of both signs
    Special,  ///< plus NaN, +-inf and subnormals
};

struct Case
{
    ApolloModel model; ///< proxy layout: proxyIds[q] == q
    BitColumnMatrix Xq;
    ApolloModel scattered; ///< the same model over the full matrix
    BitColumnMatrix X;
};

Case
makeCase(size_t rows, size_t q, Weights kind, uint64_t seed)
{
    Xoshiro256StarStar rng(seed);
    Case c;
    c.Xq.reset(rows, q);
    for (size_t j = 0; j < q; ++j) {
        // Mixed densities, with an empty and an all-ones column.
        double density = 0.02 + 0.6 * static_cast<double>(j % 7) / 7.0;
        if (j % 11 == 3)
            density = 0.0;
        if (j % 11 == 4)
            density = 1.1;
        for (size_t r = 0; r < rows; ++r)
            if (rng.nextDouble() < density)
                c.Xq.setBit(r, j);
    }
    c.model.intercept = -0.0;
    c.model.designName = "kernel";
    for (size_t j = 0; j < q; ++j) {
        c.model.proxyIds.push_back(static_cast<uint32_t>(j));
        float w = static_cast<float>(rng.nextRange(-2.0, 2.0));
        const uint64_t pick = rng.nextBounded(8);
        if (pick == 0)
            w = 0.0f;
        else if (pick == 1)
            w = -0.0f;
        c.model.weights.push_back(w);
    }
    if (kind == Weights::Special) {
        const float specials[] = {
            defaultNan(), std::numeric_limits<float>::infinity(),
            -std::numeric_limits<float>::infinity(),
            std::numeric_limits<float>::denorm_min(), -3.0e-40f};
        for (size_t j = 0; j < q; j += 3)
            c.model.weights[j] = specials[(j / 3) % std::size(specials)];
    }

    // The full layout: proxies scattered through decoy columns.
    const size_t full_cols = 2 * q + 3;
    c.X.reset(rows, full_cols);
    c.scattered = c.model;
    for (size_t j = 0; j < q; ++j) {
        const size_t col = full_cols - 2 - 2 * j; // descending ids
        c.scattered.proxyIds[j] = static_cast<uint32_t>(col);
        c.Xq.forEachSetBit(j, [&](size_t r) { c.X.setBit(r, col); });
    }
    for (size_t col = 0; col < full_cols; col += 2)
        for (size_t r = 0; r < rows; ++r)
            if (rng.nextDouble() < 0.5)
                c.X.setBit(r, col);
    return c;
}

std::vector<const uint64_t *>
columnsOf(const ApolloModel &model, const BitColumnMatrix &X)
{
    std::vector<const uint64_t *> cols;
    for (uint32_t id : model.proxyIds)
        cols.push_back(X.colWords(id));
    return cols;
}

/**
 * Run @p k's weighted sum for one layout into an output of exactly
 * `rows` floats, and again into a guarded buffer whose slots past
 * `rows` must stay untouched.
 */
void
expectKernelMatches(const bitkernels::Kernels &k, const char *impl,
                    const ApolloModel &model, const BitColumnMatrix &X,
                    const std::vector<float> &want, const char *layout)
{
    const size_t rows = X.rows();
    const std::vector<const uint64_t *> cols = columnsOf(model, X);
    const float start = static_cast<float>(model.intercept);
    std::vector<float> out(rows);
    k.weightedSum(cols.data(), model.weights.data(), cols.size(),
                  X.wordsPerCol(), rows, start, out.data());
    EXPECT_EQ(bitsOf(out.data(), rows), bitsOf(want.data(), rows))
        << impl << " " << layout << " rows=" << rows
        << " q=" << cols.size();

    constexpr size_t kGuard = 256;
    constexpr uint32_t kSentinel = 0x7fa5a5a5u;
    std::vector<float> guarded(rows + kGuard,
                               std::bit_cast<float>(kSentinel));
    k.weightedSum(cols.data(), model.weights.data(), cols.size(),
                  X.wordsPerCol(), rows, start, guarded.data());
    for (size_t i = rows; i < rows + kGuard; ++i)
        ASSERT_EQ(std::bit_cast<uint32_t>(guarded[i]), kSentinel)
            << impl << " " << layout << " wrote past the tail: rows="
            << rows << " slot " << i;
}

TEST(WeightedSumKernels, EveryImplementationMatchesTheReference)
{
    uint64_t seed = 0x5eed;
    for (const Weights kind : {Weights::Plain, Weights::Special}) {
        for (size_t rows : kRows) {
            for (size_t q : kProxies) {
                const Case c = makeCase(rows, q, kind, ++seed);
                const std::vector<float> want_proxies =
                    ref::predictProxies(c.model, c.Xq);
                const std::vector<float> want_full =
                    ref::predictFull(c.scattered, c.X);
                ASSERT_EQ(bitsOf(want_proxies.data(), rows),
                          bitsOf(want_full.data(), rows));
                for (int i = 0; i < bitkernels::kImplCount; ++i) {
                    const auto impl = static_cast<Impl>(i);
                    if (!bitkernels::implAvailable(impl))
                        continue;
                    const bitkernels::Kernels &k =
                        bitkernels::implKernels(impl);
                    const char *name = bitkernels::implName(impl);
                    expectKernelMatches(k, name, c.model, c.Xq,
                                        want_proxies, "proxies");
                    expectKernelMatches(k, name, c.scattered, c.X,
                                        want_full, "full");
                }
                // The dispatched path every caller takes.
                EXPECT_EQ(bitsOf(c.model.predictProxies(c.Xq).data(), rows),
                          bitsOf(want_proxies.data(), rows));
                EXPECT_EQ(bitsOf(c.scattered.predictFull(c.X).data(), rows),
                          bitsOf(want_full.data(), rows));
                if (HasFailure())
                    return;
            }
        }
    }
}

TEST(WeightedSumKernels, ZeroWeightsKeepANegativeZeroStart)
{
    // Every column fully set, every weight zero: each row must keep
    // the -0.0 start on every implementation.
    BitColumnMatrix X(300, 4);
    for (size_t j = 0; j < 4; ++j)
        for (size_t r = 0; r < 300; ++r)
            X.setBit(r, j);
    const float weights[] = {0.0f, -0.0f, 0.0f, -0.0f};
    const std::vector<const uint64_t *> cols = {
        X.colWords(0), X.colWords(1), X.colWords(2), X.colWords(3)};
    for (int i = 0; i < bitkernels::kImplCount; ++i) {
        const auto impl = static_cast<Impl>(i);
        if (!bitkernels::implAvailable(impl))
            continue;
        std::vector<float> out(300, 1.0f);
        bitkernels::implKernels(impl).weightedSum(
            cols.data(), weights, 4, X.wordsPerCol(), 300, -0.0f,
            out.data());
        for (size_t r = 0; r < 300; ++r)
            ASSERT_TRUE(out[r] == 0.0f && std::signbit(out[r]))
                << bitkernels::implName(impl) << " row " << r;
    }
}

TEST(WeightedSumKernels, DispatchFollowsTheAvx512Rule)
{
    const Impl best = bitkernels::avx512Enabled() ? Impl::Avx512
                                                  : Impl::Portable;
    EXPECT_EQ(bitkernels::weightedSumWords,
              bitkernels::implKernels(best).weightedSum);
}

} // namespace
} // namespace apollo
