/**
 * @file
 * Observability subsystem tests (docs/INTERNALS.md §10): registry
 * semantics (exact concurrent counting, histogram bucket edges,
 * deterministic snapshots), trace-span JSON structure, the runtime
 * enable gate, and an end-to-end check that one tiny-design pipeline
 * run populates the documented `apollo.<subsystem>.*` metric names
 * across every instrumented subsystem.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "apollo.hh"
#include "control/closed_loop.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "util/thread_pool.hh"

namespace apollo {
namespace {

/**
 * Minimal structural JSON validation: braces/brackets balance outside
 * string literals and every string closes. Enough to catch truncated
 * or mis-quoted output without a JSON library dependency.
 */
bool
balancedJson(const std::string &s)
{
    std::vector<char> stack;
    bool in_str = false;
    bool esc = false;
    for (char ch : s) {
        if (in_str) {
            if (esc)
                esc = false;
            else if (ch == '\\')
                esc = true;
            else if (ch == '"')
                in_str = false;
            continue;
        }
        if (ch == '"') {
            in_str = true;
        } else if (ch == '{' || ch == '[') {
            stack.push_back(ch);
        } else if (ch == '}') {
            if (stack.empty() || stack.back() != '{')
                return false;
            stack.pop_back();
        } else if (ch == ']') {
            if (stack.empty() || stack.back() != '[')
                return false;
            stack.pop_back();
        }
    }
    return !in_str && stack.empty();
}

size_t
countOccurrences(const std::string &haystack, const std::string &needle)
{
    size_t n = 0;
    for (size_t pos = haystack.find(needle); pos != std::string::npos;
         pos = haystack.find(needle, pos + needle.size()))
        n++;
    return n;
}

TEST(MetricRegistry, ConcurrentCounterIncrementsSumExactly)
{
    obs::Counter &c = obs::MetricRegistry::instance().counter(
        "apollo.test.concurrent");
    c.reset();
    constexpr size_t kAdds = 200000;
    parallelFor(kAdds, [&](size_t i0, size_t i1) {
        for (size_t i = i0; i < i1; ++i)
            c.add(1);
    });
    EXPECT_EQ(c.value(), kAdds);

    // A second round on the same reference (reset must not invalidate).
    c.reset();
    parallelFor(kAdds, [&](size_t i0, size_t i1) {
        for (size_t i = i0; i < i1; ++i)
            c.add(2);
    });
    EXPECT_EQ(c.value(), 2 * kAdds);
}

TEST(MetricRegistry, HistogramBucketBoundaries)
{
    const std::vector<double> bounds = {1.0, 2.0, 5.0};
    obs::Histogram &h = obs::MetricRegistry::instance().histogram(
        "apollo.test.hist_bounds", bounds);
    h.reset();

    // Bucket i counts v <= bounds[i]; boundary values land in the
    // lower bucket, anything past the last bound overflows.
    h.observe(0.5);
    h.observe(1.0);
    h.observe(1.5);
    h.observe(2.0);
    h.observe(3.0);
    h.observe(5.0);
    h.observe(7.0);

    EXPECT_EQ(h.count(), 7u);
    EXPECT_EQ(h.bucketCount(0), 2u); // 0.5, 1.0
    EXPECT_EQ(h.bucketCount(1), 2u); // 1.5, 2.0
    EXPECT_EQ(h.bucketCount(2), 2u); // 3.0, 5.0
    EXPECT_EQ(h.bucketCount(3), 1u); // 7.0 (overflow)
    EXPECT_DOUBLE_EQ(h.sum(), 0.5 + 1.0 + 1.5 + 2.0 + 3.0 + 5.0 + 7.0);
}

TEST(MetricRegistry, HistogramQuantileInterpolatesInsideBuckets)
{
    obs::Histogram h(std::vector<double>{1.0, 2.0, 4.0});
    EXPECT_EQ(obs::histogramQuantile(h, 0.5), 0.0); // empty
    for (double v : {0.5, 1.5, 1.5, 3.0})
        h.observe(v);
    // Ranks 0..4 over buckets (0,1] x1, (1,2] x2, (2,4] x1.
    EXPECT_DOUBLE_EQ(obs::histogramQuantile(h, 0.25), 1.0);
    EXPECT_DOUBLE_EQ(obs::histogramQuantile(h, 0.5), 1.5);
    EXPECT_DOUBLE_EQ(obs::histogramQuantile(h, 0.75), 2.0);
    EXPECT_DOUBLE_EQ(obs::histogramQuantile(h, 1.0), 4.0);
    h.observe(9.0); // overflow reads as the last bound
    EXPECT_DOUBLE_EQ(obs::histogramQuantile(h, 1.0), 4.0);

    const std::span<const double> fine = obs::fineLatencyBounds();
    ASSERT_EQ(fine.size(), 71u);
    EXPECT_DOUBLE_EQ(fine.front(), 1e-6);
    EXPECT_NEAR(fine.back(), 10.0, 1e-12);
    for (size_t i = 1; i < fine.size(); ++i)
        EXPECT_NEAR(fine[i] / fine[i - 1], std::pow(10.0, 0.1), 1e-12);
}

TEST(MetricRegistry, SnapshotIsDeterministicWithSortedKeys)
{
    obs::MetricRegistry &reg = obs::MetricRegistry::instance();
    // Register intentionally out of lexicographic order.
    reg.counter("apollo.test.zzz").add(3);
    reg.counter("apollo.test.aaa").add(1);
    reg.gauge("apollo.test.gauge").set(0.25);

    const std::string snap1 = reg.snapshotJson();
    const std::string snap2 = reg.snapshotJson();
    EXPECT_EQ(snap1, snap2) << "snapshot must be deterministic";
    EXPECT_TRUE(balancedJson(snap1)) << snap1;

    const size_t pos_aaa = snap1.find("apollo.test.aaa");
    const size_t pos_zzz = snap1.find("apollo.test.zzz");
    ASSERT_NE(pos_aaa, std::string::npos);
    ASSERT_NE(pos_zzz, std::string::npos);
    EXPECT_LT(pos_aaa, pos_zzz) << "keys must be sorted";
    EXPECT_NE(snap1.find("\"counters\""), std::string::npos);
    EXPECT_NE(snap1.find("\"gauges\""), std::string::npos);
    EXPECT_NE(snap1.find("\"histograms\""), std::string::npos);
}

TEST(MetricRegistry, ScopedTimerObservesSeconds)
{
    obs::Histogram &h = obs::MetricRegistry::instance().histogram(
        "apollo.test.timer_seconds", obs::latencyBounds());
    h.reset();
    {
        obs::ScopedTimer timer(&h);
    }
    {
        obs::ScopedTimer inert(nullptr); // disabled path must be a no-op
    }
    EXPECT_EQ(h.count(), 1u);
    EXPECT_GE(h.sum(), 0.0);
}

#if APOLLO_OBS
TEST(MetricRegistry, RuntimeDisableGatesTheMacros)
{
    obs::MetricRegistry &reg = obs::MetricRegistry::instance();
    const bool was_enabled = reg.enabled();
    obs::Counter &c = reg.counter("apollo.test.gated");
    c.reset();

    reg.setEnabled(false);
    APOLLO_COUNT("apollo.test.gated", 5);
    EXPECT_EQ(c.value(), 0u) << "disabled registry must drop updates";

    reg.setEnabled(true);
    APOLLO_COUNT("apollo.test.gated", 5);
    EXPECT_EQ(c.value(), 5u);

    reg.setEnabled(was_enabled);
}
#endif

TEST(TraceCollector, SpansProduceLoadableChromeTraceJson)
{
    obs::TraceCollector &tc = obs::TraceCollector::instance();
    const bool was_enabled = tc.enabled();
    tc.clear();
    tc.setEnabled(true);

    const size_t before = tc.eventCount();
    {
        obs::TraceSpan outer("test.outer");
        obs::TraceSpan inner("test.inner", "unit");
    }
    // Spans from worker threads land in per-thread buffers.
    parallelFor(4, [&](size_t i0, size_t i1) {
        for (size_t i = i0; i < i1; ++i)
            obs::TraceSpan span("test.worker");
    });
    EXPECT_EQ(tc.eventCount(), before + 6);

    const std::string json = tc.flushJson();
    tc.setEnabled(was_enabled);

    EXPECT_TRUE(balancedJson(json)) << json;
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"displayTimeUnit\": \"ms\""),
              std::string::npos);
    EXPECT_NE(json.find("\"test.outer\""), std::string::npos);
    EXPECT_NE(json.find("\"test.inner\""), std::string::npos);
    EXPECT_NE(json.find("\"cat\": \"unit\""), std::string::npos);
    // Every event is a complete-span record with the Chrome schema
    // fields; flushJson drained all six.
    EXPECT_EQ(countOccurrences(json, "\"ph\": \"X\""), 6u);
    EXPECT_EQ(countOccurrences(json, "\"ts\": "), 6u);
    EXPECT_EQ(countOccurrences(json, "\"dur\": "), 6u);
    EXPECT_EQ(countOccurrences(json, "\"pid\": "), 6u);
    EXPECT_EQ(countOccurrences(json, "\"tid\": "), 6u);
    EXPECT_EQ(tc.eventCount(), 0u) << "flush drains the buffers";
}

TEST(TraceCollector, DisabledSpansRecordNothing)
{
    obs::TraceCollector &tc = obs::TraceCollector::instance();
    const bool was_enabled = tc.enabled();
    tc.setEnabled(false);
    tc.clear();
    {
        obs::TraceSpan span("test.disabled");
    }
    EXPECT_EQ(tc.eventCount(), 0u);
    tc.setEnabled(was_enabled);
}

#if APOLLO_OBS
/**
 * One in-process pipeline pass over every instrumented subsystem:
 * GA training-data generation (ga + activity), model training
 * (solver), the emulator flow (stream + flow), and OPM quantization +
 * simulation (opm). Verifies the documented metric names show up in
 * counterValues() and in the snapshot, and that the recorded stage
 * spans form valid trace JSON.
 */
TEST(ObsEndToEnd, PipelineRunPopulatesAllSubsystemMetrics)
{
    obs::MetricRegistry &reg = obs::MetricRegistry::instance();
    const bool was_enabled = reg.enabled();
    reg.setEnabled(true);

    obs::TraceCollector &tc = obs::TraceCollector::instance();
    const bool trace_was_enabled = tc.enabled();
    tc.clear();
    tc.setEnabled(true);

    const Netlist netlist = DesignBuilder::build(DesignConfig::tiny());

    // GA + activity: training-set generation.
    TrainingGenOptions opts;
    opts.ga.populationSize = 10;
    opts.ga.generations = 3;
    opts.ga.fitnessCycles = 200;
    opts.benchmarks = 8;
    opts.cyclesEach = 200;
    StatusOr<TrainingGenReport> report =
        generateTrainingSet(netlist, opts);
    ASSERT_TRUE(report.ok()) << report.status().toString();

    // Solver: MCP selection + relaxation.
    ApolloTrainConfig cfg;
    cfg.selection.targetQ = 24;
    const ApolloTrainResult trained =
        trainApollo(report->dataset, cfg, netlist.name());

    // Stream + flow: the emulator flow runs the streaming engine.
    DesignTimeFlows flows(netlist);
    const Program workload = makeLongWorkload("obs_e2e", 4000, 7);
    const FlowReport flow_rep =
        flows.runEmulatorFlow(workload, 2000, trained.model);
    EXPECT_GT(flow_rep.cycles, 0u);

    // OPM: quantization + bit-true simulation.
    const QuantizedModel qm = quantizeModel(trained.model, 10);
    OpmSimulator sim(qm, 1);
    const BitColumnMatrix proxies =
        report->dataset.X.selectColumns(trained.model.proxyIds);
    const auto hw = sim.simulate(proxies);
    EXPECT_EQ(hw.size(), report->dataset.cycles());

    // Control: the closed loop's truth-power oracle.
    DatasetBuilder loop_frames(netlist);
    loop_frames.addProgram(workload, 500);
    control::ClosedLoopRunner runner(netlist, qm);
    EXPECT_EQ(runner.truthPower(loop_frames.frames()).size(),
              loop_frames.frames().size());
    // ... and the droop lab's stages and truth batches.
    ASSERT_TRUE(control::runDroopLab(netlist, trained.model,
                                     control::defaultDroopLabConfig(300))
                    .ok());

    // Serve: a float and a quantized session over two workers.
    {
        auto registry = std::make_shared<serve::ModelRegistry>();
        ASSERT_TRUE(registry->addFloat("f", trained.model).ok());
        ASSERT_TRUE(registry->addQuantizedVariant("q", "f", 10, 32).ok());
        serve::SessionManager manager(registry,
                                      serve::ServeConfig().withThreads(2));
        VectorSink fsink, qsink;
        StatusOr<serve::SessionId> fid =
            manager.createSession({.model = "f"}, &fsink);
        StatusOr<serve::SessionId> qid =
            manager.createSession({.model = "q"}, &qsink);
        ASSERT_TRUE(fid.ok() && qid.ok());
        for (size_t first = 0; first + 256 <= proxies.rows();
             first += 256) {
            ASSERT_TRUE(
                manager.submitChunk(*fid, proxies.sliceRows(first, 256))
                    .ok());
            ASSERT_TRUE(
                manager.submitChunk(*qid, proxies.sliceRows(first, 256))
                    .ok());
        }
        ASSERT_TRUE(manager.closeSession(*fid).ok());
        ASSERT_TRUE(manager.closeSession(*qid).ok());
    }
    for (const char *name : {"apollo.serve.chunk_wait_seconds.float",
                             "apollo.serve.chunk_compute_seconds.float",
                             "apollo.serve.chunk_wait_seconds.quantized",
                             "apollo.serve.chunk_compute_seconds.quantized"})
        EXPECT_GT(reg.histogram(name).count(), 0u) << name;

    const auto counters = reg.counterValues();
    for (const char *name :
         {"apollo.solver.fits", "apollo.solver.path_points",
          "apollo.ga.generations", "apollo.ga.evaluations",
          "apollo.stream.runs", "apollo.stream.chunks",
          "apollo.stream.cycles", "apollo.activity.programs",
          "apollo.activity.cycles", "apollo.activity.datasets_built",
          "apollo.opm.quantizations", "apollo.opm.simulations",
          "apollo.opm.windows", "apollo.flow.runs",
          "apollo.uarch.runs", "apollo.uarch.cycles",
          "apollo.gen.fitness_batches", "apollo.control.truth_runs"}) {
        const auto it = counters.find(name);
        ASSERT_NE(it, counters.end()) << "missing counter: " << name;
        EXPECT_GT(it->second, 0u) << name;
    }
    // Registered on the first batch even when nothing was a duplicate.
    EXPECT_NE(counters.find("apollo.control.truth_dedup"), counters.end());

    const std::string snapshot = reg.snapshotJson();
    EXPECT_TRUE(balancedJson(snapshot));
    for (const char *prefix :
         {"apollo.solver.", "apollo.ga.", "apollo.stream.",
          "apollo.activity.", "apollo.opm.", "apollo.flow.",
          "apollo.uarch.", "apollo.serve."})
        EXPECT_NE(snapshot.find(prefix), std::string::npos)
            << "snapshot lacks subsystem " << prefix;

    const std::string trace_json = tc.flushJson();
    tc.setEnabled(trace_was_enabled);
    reg.setEnabled(was_enabled);

    EXPECT_TRUE(balancedJson(trace_json));
    for (const char *span :
         {"flow.ga_run", "ga.generation", "trace.build",
          "trace.fill_columns", "trace.label_pass", "flow.simulate",
          "stream.run", "control.truth_power", "uarch.run",
          "gen.fitness_batch", "control.simulate", "control.calibrate",
          "control.truth_batch", "control.assemble",
          "control.closed_loop", "control.replay", "ml.path_point",
          "ml.strong_sweep", "ml.active_sweep", "ml.kkt_pass",
          "serve.drain"})
        EXPECT_NE(trace_json.find(span), std::string::npos)
            << "trace lacks span " << span;
}
#endif // APOLLO_OBS

} // namespace
} // namespace apollo
