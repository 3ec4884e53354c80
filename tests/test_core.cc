/**
 * @file
 * Tests for the APOLLO core library: proxy selection, trainer
 * (selection + relaxation), model serialization, and the multi-cycle
 * APOLLO_tau model including the Eq. (9) rearrangement equivalence.
 */

#include <gtest/gtest.h>

#include <sys/resource.h>

#include <bit>
#include <cmath>
#include <limits>
#include <sstream>

#include "core/apollo_trainer.hh"
#include "core/multi_cycle.hh"
#include "gen/ga_generator.hh"
#include "ml/metrics.hh"
#include "rtl/design_builder.hh"
#include "trace/toggle_trace.hh"
#include "util/logging.hh"

namespace apollo {
namespace {

using namespace asm_helpers;

/** Shared tiny-design train/test datasets (built once). */
struct CoreFixtureData
{
    Netlist netlist = DesignBuilder::build(DesignConfig::tiny());
    Dataset train;
    Dataset test;

    CoreFixtureData()
    {
        DatasetBuilder tb(netlist);
        Xoshiro256StarStar rng(0xc0de);
        for (int i = 0; i < 24; ++i) {
            auto body = GaGenerator::randomBody(rng, 6, 24);
            tb.addProgram(Program::makeLoop("t" + std::to_string(i),
                                            body, 3000, rng()),
                          320);
        }
        train = tb.build();

        DatasetBuilder eb(netlist);
        for (int i = 0; i < 6; ++i) {
            auto body = GaGenerator::randomBody(rng, 6, 24);
            eb.addProgram(Program::makeLoop("e" + std::to_string(i),
                                            body, 3000, rng()),
                          512);
        }
        test = eb.build();
    }
};

const CoreFixtureData &
fixture()
{
    static CoreFixtureData data;
    return data;
}

TEST(ProxySelector, HitsTargetQ)
{
    const auto &fx = fixture();
    BitFeatureView view(fx.train.X);
    ProxySelectorConfig cfg;
    cfg.targetQ = 30;
    const ProxySelection sel = selectProxies(view, fx.train.y, cfg);
    EXPECT_EQ(sel.proxyIds.size(), 30u);
    // Proxy ids ascend and are valid columns.
    for (size_t i = 1; i < sel.proxyIds.size(); ++i)
        EXPECT_LT(sel.proxyIds[i - 1], sel.proxyIds[i]);
    EXPECT_LT(sel.proxyIds.back(), fx.train.signals());
}

TEST(ProxySelector, LassoKindSelectsToo)
{
    const auto &fx = fixture();
    BitFeatureView view(fx.train.X);
    ProxySelectorConfig cfg;
    cfg.targetQ = 25;
    cfg.kind = PenaltyKind::Lasso;
    const ProxySelection sel = selectProxies(view, fx.train.y, cfg);
    EXPECT_EQ(sel.proxyIds.size(), 25u);
}

TEST(ApolloTrainer, RelaxationImprovesAccuracy)
{
    // §4.4: the relaxed model must beat the raw (over-penalized)
    // temporary MCP model on held-out data.
    const auto &fx = fixture();
    ApolloTrainConfig cfg;
    cfg.selection.targetQ = 40;
    const ApolloTrainResult res = trainApollo(fx.train, cfg, "tiny");
    ASSERT_EQ(res.model.proxyCount(), 40u);

    // Raw sparse-model predictions.
    std::vector<float> raw_pred(fx.test.cycles(),
        static_cast<float>(res.selection.sparseModel.intercept));
    for (size_t j = 0; j < res.selection.sparseModel.w.size(); ++j)
        if (res.selection.sparseModel.w[j] != 0.0f)
            fx.test.X.axpyColumn(j, res.selection.sparseModel.w[j],
                                 raw_pred.data());

    const auto relaxed_pred = res.model.predictFull(fx.test.X);
    const double r2_raw = r2Score(fx.test.y, raw_pred);
    const double r2_relaxed = r2Score(fx.test.y, relaxed_pred);
    EXPECT_GT(r2_relaxed, r2_raw);
    EXPECT_GT(r2_relaxed, 0.9);
}

TEST(ApolloTrainer, AccuracyGrowsWithQ)
{
    const auto &fx = fixture();
    double last_r2 = -1.0;
    for (size_t q : {10, 40, 120}) {
        ApolloTrainConfig cfg;
        cfg.selection.targetQ = q;
        const auto res = trainApollo(fx.train, cfg, "tiny");
        const auto pred = res.model.predictFull(fx.test.X);
        const double r2 = r2Score(fx.test.y, pred);
        EXPECT_GT(r2, last_r2) << "Q=" << q;
        last_r2 = r2;
    }
    EXPECT_GT(last_r2, 0.95);
}

TEST(ApolloTrainer, SelectionSubsampleStillWorks)
{
    const auto &fx = fixture();
    ApolloTrainConfig cfg;
    cfg.selection.targetQ = 40;
    cfg.selectionCycleCap = fx.train.cycles() / 3;
    const auto res = trainApollo(fx.train, cfg, "tiny");
    const auto pred = res.model.predictFull(fx.test.X);
    EXPECT_GT(r2Score(fx.test.y, pred), 0.9);
}

TEST(ApolloModel, PredictProxiesMatchesPredictFull)
{
    const auto &fx = fixture();
    ApolloTrainConfig cfg;
    cfg.selection.targetQ = 25;
    const auto res = trainApollo(fx.train, cfg, "tiny");

    const BitColumnMatrix proxy_only =
        fx.test.X.selectColumns(res.model.proxyIds);
    const auto a = res.model.predictFull(fx.test.X);
    const auto b = res.model.predictProxies(proxy_only);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i)
        ASSERT_FLOAT_EQ(a[i], b[i]);
}

TEST(ApolloModel, SaveLoadRoundTrip)
{
    const auto &fx = fixture();
    ApolloTrainConfig cfg;
    cfg.selection.targetQ = 15;
    const auto res = trainApollo(fx.train, cfg, "tiny-design");

    std::stringstream ss;
    res.model.save(ss);
    StatusOr<ApolloModel> read = ApolloModel::load(ss);
    ASSERT_TRUE(read.ok()) << read.status().toString();
    const ApolloModel &loaded = *read;
    EXPECT_EQ(loaded.designName, "tiny-design");
    EXPECT_EQ(loaded.proxyIds, res.model.proxyIds);
    EXPECT_NEAR(loaded.intercept, res.model.intercept, 1e-9);
    ASSERT_EQ(loaded.weights.size(), res.model.weights.size());
    for (size_t q = 0; q < loaded.weights.size(); ++q)
        EXPECT_FLOAT_EQ(loaded.weights[q], res.model.weights[q]);
}

long
peakRssKiB()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return usage.ru_maxrss;
}

TEST(ApolloModel, LoadReadsNoMoreThanTheFileHolds)
{
    // A 34-byte file may declare any proxy count; load must fail as
    // truncated without allocating for it (50M proxies would take
    // ~384 MiB, and 2^62 exceeds vector::max_size).
    const long before = peakRssKiB();
    for (const char *count : {"50000000", "4611686018427387904"}) {
        std::istringstream is(std::string("apollo-model 1\nd\n") + count +
                              " 0\n1 0.5\n");
        const StatusOr<ApolloModel> model = ApolloModel::load(is);
        ASSERT_FALSE(model.ok()) << count;
        EXPECT_EQ(model.status().code(), StatusCode::ParseError) << count;
        EXPECT_NE(model.status().message().find("truncated"),
                  std::string::npos)
            << model.status().toString();
    }
    EXPECT_LT(peakRssKiB() - before, 64 * 1024);
}

TEST(ApolloModel, LoadRejectsDuplicateProxyIds)
{
    std::istringstream is("apollo-model 1\nd\n2 0\n3 0.25\n3 0.5\n");
    const StatusOr<ApolloModel> model = ApolloModel::load(is);
    ASSERT_FALSE(model.ok());
    EXPECT_EQ(model.status().code(), StatusCode::ParseError);
    EXPECT_NE(model.status().message().find("duplicate proxy id 3"),
              std::string::npos)
        << model.status().toString();
}

TEST(ApolloModel, LoadRejectsBadHeadersAndNonFiniteNumbers)
{
    struct Bad
    {
        const char *text;
        const char *why; ///< expected in the status message
    };
    const Bad cases[] = {
        {"", "not an apollo model file"},
        {"apollo-model 2\nd\n0 0\n", "not an apollo model file"},
        {"apollo-modle 1\nd\n0 0\n", "not an apollo model file"},
        {"apollo-model 1\nd\n1\n", "truncated model header"},
        {"apollo-model 1\nd\n-1 0\n", "proxy count"},
        {"apollo-model 1\nd\n1 nan\n3 0.5\n", "intercept 'nan'"},
        {"apollo-model 1\nd\n1 0\n3 nan\n", "weight 'nan'"},
        {"apollo-model 1\nd\n1 0\n3 inf\n", "weight 'inf'"},
        {"apollo-model 1\nd\n1 0\n3 -inf\n", "weight '-inf'"},
        {"apollo-model 1\nd\n1 0\n3 1e99\n", "weight '1e99'"},
        {"apollo-model 1\nd\n1 0\n3 1e\n", "weight '1e'"},
        {"apollo-model 1\nd\n1 0\n-3 0.5\n", "proxy id '-3'"},
        {"apollo-model 1\nd\n1 0\n4294967296 0.5\n", "proxy id"},
        {"apollo-model 1\nd\n2 0\n3 0.5\n", "truncated model file"},
    };
    for (const Bad &bad : cases) {
        std::istringstream is(bad.text);
        const StatusOr<ApolloModel> model = ApolloModel::load(is);
        ASSERT_FALSE(model.ok()) << bad.text;
        EXPECT_EQ(model.status().code(), StatusCode::ParseError) << bad.text;
        EXPECT_NE(model.status().message().find(bad.why), std::string::npos)
            << bad.text << " -> " << model.status().toString();
    }
}

TEST(ApolloModel, SaveLoadKeepsEveryFiniteWeightBitForBit)
{
    ApolloModel model;
    model.designName = "edge";
    model.intercept = -0.0;
    model.proxyIds = {7, 0, 4294967295u, 12, 13};
    model.weights = {-0.0f, std::numeric_limits<float>::denorm_min(),
                     std::numeric_limits<float>::max(), 1e-40f,
                     0.30000001192092896f};
    std::stringstream ss;
    model.save(ss);
    StatusOr<ApolloModel> read = ApolloModel::load(ss);
    ASSERT_TRUE(read.ok()) << read.status().toString();
    EXPECT_EQ(read->proxyIds, model.proxyIds);
    EXPECT_EQ(std::bit_cast<uint64_t>(read->intercept),
              std::bit_cast<uint64_t>(model.intercept));
    for (size_t q = 0; q < model.weights.size(); ++q)
        EXPECT_EQ(std::bit_cast<uint32_t>(read->weights[q]),
                  std::bit_cast<uint32_t>(model.weights[q]))
            << q;
}

TEST(ApolloModel, NamesWithSpacesTabsOrNothingSurviveSaveAndLoad)
{
    for (const char *name : {"", "two words", "tab\there", " padded "}) {
        ApolloModel model;
        model.designName = name;
        model.intercept = 0.5;
        model.proxyIds = {3, 1};
        model.weights = {0.25f, -1.0f};
        std::stringstream ss;
        model.save(ss);
        StatusOr<ApolloModel> read = ApolloModel::load(ss);
        ASSERT_TRUE(read.ok())
            << '"' << name << "\": " << read.status().toString();
        EXPECT_EQ(read->designName, name);
        EXPECT_EQ(read->proxyIds, model.proxyIds);
        EXPECT_EQ(read->weights, model.weights);
        EXPECT_EQ(read->intercept, model.intercept);
    }
}

TEST(ApolloModel, NameLineIsBoundedAndSaveRejectsANewline)
{
    for (size_t len : {size_t{4096}, size_t{4097}}) {
        std::istringstream is("apollo-model 1\n" + std::string(len, 'n') +
                              "\n1 0\n3 0.5\n");
        const StatusOr<ApolloModel> model = ApolloModel::load(is);
        if (len == 4096) {
            ASSERT_TRUE(model.ok()) << model.status().toString();
            EXPECT_EQ(model->designName, std::string(len, 'n'));
            continue;
        }
        ASSERT_FALSE(model.ok());
        EXPECT_EQ(model.status().code(), StatusCode::ParseError);
        EXPECT_NE(model.status().message().find("longer than 4096 bytes"),
                  std::string::npos)
            << model.status().toString();
    }

    ApolloModel model;
    model.designName = "two\nlines";
    std::stringstream ss;
    EXPECT_THROW(model.save(ss), FatalError);
}

TEST(ApolloModel, LoadsTheLayoutSaveHasAlwaysWritten)
{
    std::istringstream is("apollo-model 1\nn1ish\n2 0.5\n7 0.25\n3 -1\n");
    const StatusOr<ApolloModel> model = ApolloModel::load(is);
    ASSERT_TRUE(model.ok()) << model.status().toString();
    EXPECT_EQ(model->designName, "n1ish");
    EXPECT_EQ(model->intercept, 0.5);
    EXPECT_EQ(model->proxyIds, (std::vector<uint32_t>{7, 3}));
    EXPECT_EQ(model->weights, (std::vector<float>{0.25f, -1.0f}));
}

TEST(RelaxProxySet, WorksOnArbitrarySets)
{
    const auto &fx = fixture();
    std::vector<uint32_t> ids = {5, 100, 321, 700, 1100};
    const auto res = relaxProxySet(fx.train, ids, ApolloTrainConfig{});
    EXPECT_EQ(res.model.proxyIds, ids);
    // Low-Q model: not great, but should beat the mean predictor.
    const auto pred = res.model.predictFull(fx.test.X);
    EXPECT_GT(r2Score(fx.test.y, pred), 0.0);
}

TEST(MultiCycle, Eq9RearrangementIsExact)
{
    // The hardware-friendly inference (per-cycle accumulate, shift at
    // the window end) must equal the textbook form (average the
    // tau-interval predictions) bit-for-float.
    const auto &fx = fixture();
    const uint32_t tau = 4;
    const uint32_t T = 16;
    ApolloTrainConfig cfg;
    cfg.selection.targetQ = 20;
    const MultiCycleModel model =
        trainMultiCycle(fx.train, tau, cfg, "tiny");
    ASSERT_EQ(model.tau, tau);

    const auto hw = model.predictWindowsFull(fx.test.X, T,
                                             fx.test.segments)
                        .value();

    // Textbook: average the tau-interval model outputs within each T
    // window, computed via interval aggregation.
    const CountDataset agg = aggregateIntervals(fx.test, tau);
    std::vector<float> textbook;
    const float scale = 1.0f / tau;
    for (const auto &seg : agg.segments) {
        const size_t per_window = T / tau;
        const size_t windows = seg.cycles() / per_window;
        for (size_t w = 0; w < windows; ++w) {
            double acc = 0.0;
            for (size_t k = 0; k < per_window; ++k) {
                const size_t interval = seg.begin + w * per_window + k;
                double p = model.base.intercept;
                for (size_t q = 0; q < model.base.proxyCount(); ++q)
                    p += model.base.weights[q] * scale *
                         agg.X.get(interval, model.base.proxyIds[q]);
                acc += p;
            }
            textbook.push_back(
                static_cast<float>(acc / per_window));
        }
    }

    ASSERT_EQ(hw.size(), textbook.size());
    for (size_t i = 0; i < hw.size(); ++i)
        EXPECT_NEAR(hw[i], textbook[i], 2e-3 + 1e-3 * std::abs(hw[i]))
            << "window " << i;
}

TEST(MultiCycle, WindowLabelsMatchManualAverages)
{
    const auto &fx = fixture();
    const uint32_t T = 8;
    const auto labels = windowAverageLabels(fx.test.y, T,
                                            fx.test.segments)
                            .value();
    // First window of the first segment by hand.
    double acc = 0.0;
    for (uint32_t t = 0; t < T; ++t)
        acc += fx.test.y[fx.test.segments[0].begin + t];
    EXPECT_NEAR(labels[0], acc / T, 1e-5);
}

TEST(MultiCycle, ShortTraceReturnsInvalidArgumentInsteadOfAborting)
{
    // Regression: a trace where every segment is shorter than T used
    // to fall through to an empty-output APOLLO_REQUIRE abort deep in
    // predictWindowsImpl; it is a data error and now surfaces as a
    // Status the caller can handle.
    MultiCycleModel model;
    model.base.intercept = 0.5;
    model.base.proxyIds = {0, 1};
    model.base.weights = {0.25f, 0.125f};

    BitColumnMatrix X;
    X.reset(6, 2);
    X.setBit(0, 0);
    X.setBit(3, 1);
    const std::vector<SegmentInfo> segs = {{"short", 0, 6}};

    const auto pred = model.predictWindowsFull(X, 8, segs);
    ASSERT_FALSE(pred.ok());
    EXPECT_EQ(pred.status().code(), StatusCode::InvalidArgument);

    const std::vector<float> y = {1.f, 2.f, 3.f, 4.f, 5.f, 6.f};
    const auto labels = windowAverageLabels(y, 8, segs);
    ASSERT_FALSE(labels.ok());
    EXPECT_EQ(labels.status().code(), StatusCode::InvalidArgument);

    // T = 0 is invalid as well.
    EXPECT_EQ(model.predictWindowsFull(X, 0, segs).status().code(),
              StatusCode::InvalidArgument);
    EXPECT_EQ(windowAverageLabels(y, 0, segs).status().code(),
              StatusCode::InvalidArgument);
}

TEST(MultiCycle, MismatchedSegmentsReturnOutOfRange)
{
    // Regression: segment bounds beyond the matrix rows / label length
    // walked straight off the data (reading garbage or crashing under
    // ASan); they now return OutOfRange with the offending segment
    // named in the message.
    MultiCycleModel model;
    model.base.intercept = 0.5;
    model.base.proxyIds = {0};
    model.base.weights = {0.25f};

    BitColumnMatrix X;
    X.reset(6, 1);
    const std::vector<SegmentInfo> beyond = {{"beyond", 0, 10}};
    const auto pred = model.predictWindowsFull(X, 2, beyond);
    ASSERT_FALSE(pred.ok());
    EXPECT_EQ(pred.status().code(), StatusCode::OutOfRange);
    EXPECT_NE(pred.status().message().find("beyond"),
              std::string::npos);

    const std::vector<float> y = {1.f, 2.f, 3.f, 4.f, 5.f, 6.f};
    const auto labels = windowAverageLabels(y, 2, beyond);
    ASSERT_FALSE(labels.ok());
    EXPECT_EQ(labels.status().code(), StatusCode::OutOfRange);

    // Inverted segments are invalid-argument data errors.
    const std::vector<SegmentInfo> inverted = {{"inv", 4, 2}};
    EXPECT_EQ(
        model.predictWindowsFull(X, 2, inverted).status().code(),
        StatusCode::InvalidArgument);

    // A well-formed call on the same model still works.
    const std::vector<SegmentInfo> good = {{"good", 0, 6}};
    const auto ok = model.predictWindowsFull(X, 2, good);
    ASSERT_TRUE(ok.ok()) << ok.status().toString();
    EXPECT_EQ(ok->size(), 3u);
}

TEST(MultiCycle, TauEightBeatsExtremesAtLargeT)
{
    // Fig. 11's central claim: an intermediate tau beats both tau=1
    // (average of per-cycle predictions) and tau=T (averaged inputs)
    // for large windows. We check tau=8 is at least as good as the
    // worse of the two extremes minus tolerance (ordering of the best
    // extreme can wobble at tiny scale).
    const auto &fx = fixture();
    const uint32_t T = 32;
    ApolloTrainConfig cfg;
    cfg.selection.targetQ = 24;

    const auto labels = windowAverageLabels(fx.test.y, T,
                                            fx.test.segments)
                            .value();
    auto nrmse_for = [&](uint32_t tau) {
        const MultiCycleModel m =
            trainMultiCycle(fx.train, tau, cfg, "tiny");
        const auto pred =
            m.predictWindowsFull(fx.test.X, T, fx.test.segments)
                .value();
        return nrmse(labels, pred);
    };
    const double e1 = nrmse_for(1);
    const double e8 = nrmse_for(8);
    const double eT = nrmse_for(T);
    // At this tiny scale the ordering between the three is noisy (the
    // tau=8 selection sees 8x fewer samples); the Fig. 11 bench
    // measures the real ordering at N1 scale. Here we only require
    // tau=8 to be competitive and all variants to be accurate.
    EXPECT_LT(e8, 1.35 * std::min(e1, eT));
    EXPECT_LT(e8, 0.1);
    EXPECT_LT(e1, 0.1);
    EXPECT_LT(eT, 0.1);
}

} // namespace
} // namespace apollo
