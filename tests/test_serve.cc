/**
 * @file
 * Serving-layer tests: the model registry's shared-weight entries, the
 * multi-session determinism contract (K concurrent sessions
 * bit-identical to K sequential one-stream runs at any worker count),
 * backpressure, cancellation (including the partial-window slot-reuse
 * regression), the v1 wire codec, and the serve loop's record/replay
 * round trip.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <sstream>
#include <thread>

#include "apollo.hh"
#include "ref/reference_kernels.hh"

namespace apollo {
namespace {

using serve::ModelInfo;
using serve::ModelRegistry;
using serve::ServeConfig;
using serve::SessionId;
using serve::SessionManager;
using serve::SessionOptions;
using serve::SessionSummary;

BitColumnMatrix
randomMatrix(size_t rows, size_t cols, uint64_t seed,
             uint32_t density_pct = 30)
{
    Xoshiro256StarStar rng(seed);
    BitColumnMatrix m(rows, cols);
    for (size_t c = 0; c < cols; ++c)
        for (size_t r = 0; r < rows; ++r)
            if (rng() % 100 < density_pct)
                m.setBit(r, c);
    return m;
}

ApolloModel
randomModel(size_t q, uint64_t seed)
{
    Xoshiro256StarStar rng(seed);
    ApolloModel model;
    model.intercept = 0.37;
    for (size_t i = 0; i < q; ++i) {
        model.proxyIds.push_back(static_cast<uint32_t>(i));
        const double u =
            static_cast<double>(rng() % 2000) / 1000.0 - 1.0;
        model.weights.push_back(
            i % 7 == 3 ? 0.0f : static_cast<float>(u));
    }
    return model;
}

/** Reference: the one-stream engine over the whole trace. */
std::vector<float>
sequentialReference(const StreamingInference &engine,
                    const BitColumnMatrix &Xq,
                    const StreamConfig &config)
{
    MatrixChunkReader reader(Xq);
    VectorSink sink;
    StatusOr<StreamStats> stats = engine.run(reader, sink, config);
    EXPECT_TRUE(stats.ok()) << stats.status().toString();
    return sink.takeValues();
}

/** Split @p Xq into @p chunk_rows-row slices (zero-tail preserved). */
std::vector<BitColumnMatrix>
chunked(const BitColumnMatrix &Xq, size_t chunk_rows)
{
    std::vector<BitColumnMatrix> out;
    for (size_t first = 0; first < Xq.rows(); first += chunk_rows)
        out.push_back(Xq.sliceRows(
            first, std::min(chunk_rows, Xq.rows() - first)));
    return out;
}

// ---------------------------------------------------------------------
// ModelRegistry
// ---------------------------------------------------------------------

TEST(ServeRegistry, RegistersAndLists)
{
    ModelRegistry reg;
    ASSERT_TRUE(reg.addFloat("f32", randomModel(12, 0x11)).ok());
    ASSERT_TRUE(reg.addQuantized("opm", quantizeModel(randomModel(12, 0x22), 8), 32)
                    .ok());
    StatusOr<ModelInfo> variant =
        reg.addQuantizedVariant("f32_q10", "f32", 10, 64);
    ASSERT_TRUE(variant.ok()) << variant.status().toString();
    EXPECT_TRUE(variant->quantized);
    EXPECT_EQ(variant->bits, 10u);
    EXPECT_EQ(variant->windowT, 64u);

    const std::vector<ModelInfo> models = reg.list();
    ASSERT_EQ(models.size(), 3u);
    EXPECT_EQ(models[0].name, "f32");
    EXPECT_EQ(models[1].name, "f32_q10");
    EXPECT_EQ(models[2].name, "opm");
    EXPECT_FALSE(models[0].quantized);

    // The variant shares the base entry's float weights (no copy).
    EXPECT_EQ(reg.find("f32")->model.get(),
              reg.find("f32_q10")->model.get());
}

TEST(ServeRegistry, RejectsBadRegistrations)
{
    ModelRegistry reg;
    ASSERT_TRUE(reg.addFloat("m", randomModel(8, 0x31)).ok());
    // Duplicate name.
    EXPECT_EQ(reg.addFloat("m", randomModel(8, 0x32)).code(),
              StatusCode::InvalidArgument);
    // Unknown base.
    EXPECT_EQ(reg.addQuantizedVariant("v", "nope", 8, 32)
                  .status()
                  .code(),
              StatusCode::InvalidArgument);
    // Non-power-of-two window.
    EXPECT_EQ(reg.addQuantizedVariant("v", "m", 8, 33)
                  .status()
                  .code(),
              StatusCode::InvalidArgument);
    // Empty model.
    EXPECT_EQ(reg.addFloat("e", ApolloModel{}).code(),
              StatusCode::InvalidArgument);
    EXPECT_EQ(reg.size(), 1u);
    EXPECT_EQ(reg.find("nope"), nullptr);
}

// ---------------------------------------------------------------------
// Multi-session determinism: concurrent == sequential, bit for bit
// ---------------------------------------------------------------------

struct SessionPlan
{
    std::string model;
    uint32_t windowT = 0;
    BitColumnMatrix trace;
    std::vector<float> expected;
};

/**
 * Run @p plans as concurrent sessions on a @p threads-worker manager,
 * submitting chunks round-robin, and require every session's sink to
 * match its sequential reference exactly.
 */
void
runDeterminismCase(const std::shared_ptr<ModelRegistry> &reg,
                   std::vector<SessionPlan> plans, size_t threads,
                   size_t chunk_rows)
{
    SessionManager manager(
        std::static_pointer_cast<const ModelRegistry>(reg),
        ServeConfig().withThreads(threads).withMaxQueuedChunks(2));
    EXPECT_EQ(manager.threadCount(), threads);

    std::vector<VectorSink> sinks(plans.size());
    std::vector<SessionId> ids(plans.size());
    std::vector<std::vector<BitColumnMatrix>> chunks(plans.size());
    for (size_t i = 0; i < plans.size(); ++i) {
        StatusOr<SessionId> id = manager.createSession(
            SessionOptions{plans[i].model, plans[i].windowT},
            &sinks[i]);
        ASSERT_TRUE(id.ok()) << id.status().toString();
        ids[i] = *id;
        chunks[i] = chunked(plans[i].trace, chunk_rows);
    }

    // Round-robin submission: all sessions in flight at once.
    bool more = true;
    for (size_t c = 0; more; ++c) {
        more = false;
        for (size_t i = 0; i < plans.size(); ++i) {
            if (c >= chunks[i].size())
                continue;
            more = true;
            Status st =
                manager.submitChunk(ids[i], std::move(chunks[i][c]));
            ASSERT_TRUE(st.ok()) << st.toString();
        }
    }

    for (size_t i = 0; i < plans.size(); ++i) {
        StatusOr<SessionSummary> summary = manager.closeSession(ids[i]);
        ASSERT_TRUE(summary.ok()) << summary.status().toString();
        EXPECT_EQ(summary->cycles, plans[i].trace.rows());
        EXPECT_FALSE(summary->cancelled);
        const std::vector<float> &got = sinks[i].values();
        ASSERT_EQ(got.size(), plans[i].expected.size())
            << "session " << i;
        for (size_t k = 0; k < got.size(); ++k)
            ASSERT_EQ(got[k], plans[i].expected[k])
                << "session " << i << " sample " << k;
        EXPECT_EQ(summary->outputs, got.size());
    }
}

TEST(ServeDeterminism, ConcurrentSessionsMatchSequentialRuns)
{
    const size_t q = 24;
    const ApolloModel fmodel = randomModel(q, 0x41);
    const QuantizedModel qmodel = quantizeModel(fmodel, 9);

    auto reg = std::make_shared<ModelRegistry>();
    ASSERT_TRUE(reg->addFloat("f", fmodel).ok());
    ASSERT_TRUE(reg->addQuantized("opm", qmodel, 32).ok());

    const StreamingInference fengine(fmodel);
    const StreamingInference qengine(qmodel, 32);

    // Eight sessions across the three output modes, distinct traces
    // with non-64-aligned lengths (windows straddle chunk borders).
    std::vector<SessionPlan> plans;
    for (size_t i = 0; i < 8; ++i) {
        SessionPlan plan;
        const size_t rows = 700 + 37 * i;
        plan.trace = randomMatrix(rows, q, 0x1000 + i);
        switch (i % 3) {
        case 0: // per-cycle float
            plan.model = "f";
            plan.expected = sequentialReference(fengine, plan.trace,
                                                StreamConfig());
            break;
        case 1: // Eq. (9) windowed float
            plan.model = "f";
            plan.windowT = 16;
            plan.expected = sequentialReference(
                fengine, plan.trace, StreamConfig().withWindowT(16));
            break;
        default: // quantized OPM
            plan.model = "opm";
            plan.expected = sequentialReference(qengine, plan.trace,
                                                StreamConfig());
            break;
        }
        plans.push_back(std::move(plan));
    }

    for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        std::vector<SessionPlan> copy;
        for (const SessionPlan &p : plans) {
            SessionPlan c;
            c.model = p.model;
            c.windowT = p.windowT;
            c.trace = p.trace;
            c.expected = p.expected;
            copy.push_back(std::move(c));
        }
        runDeterminismCase(reg, std::move(copy), threads, 193);
    }
}

TEST(ServeDeterminism, BitParallelSessionsMatchScalarBaseline)
{
    // Quantized sessions run the bit-parallel 64-cycle kernel. Eight
    // concurrent sessions at every worker count must stay byte-
    // identical to the naive per-cycle ref::opmSimulate — a baseline
    // that shares no code with the popcount kernels. Proxy count
    // (150) and chunk rows (193) are deliberately not multiples of 64,
    // so every chunk boundary carries a partial packed word and a
    // mid-window phase.
    const size_t q = 150;
    const ApolloModel fmodel = randomModel(q, 0x61);
    const QuantizedModel qmodel = quantizeModel(fmodel, 10);

    auto reg = std::make_shared<ModelRegistry>();
    ASSERT_TRUE(reg->addQuantized("opm16", qmodel, 16).ok());
    ASSERT_TRUE(reg->addQuantized("opm32", qmodel, 32).ok());

    std::vector<SessionPlan> plans;
    for (size_t i = 0; i < 8; ++i) {
        SessionPlan plan;
        const size_t rows = 650 + 53 * i;
        plan.trace = randomMatrix(rows, q, 0x2000 + i);
        const uint32_t T = i % 2 ? 32 : 16;
        plan.model = i % 2 ? "opm32" : "opm16";
        plan.expected = ref::opmSimulate(qmodel, plan.trace, T);
        plans.push_back(std::move(plan));
    }

    for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        std::vector<SessionPlan> copy;
        for (const SessionPlan &p : plans) {
            SessionPlan c;
            c.model = p.model;
            c.windowT = p.windowT;
            c.trace = p.trace;
            c.expected = p.expected;
            copy.push_back(std::move(c));
        }
        runDeterminismCase(reg, std::move(copy), threads, 193);
    }
}

TEST(ServeSessions, ConfigRejectsTooManyThreads)
{
    // Checked before SessionManager starts any worker.
    EXPECT_TRUE(ServeConfig().withThreads(kMaxWorkerThreads).validate().ok());
    EXPECT_EQ(
        ServeConfig().withThreads(kMaxWorkerThreads + 1).validate().code(),
        StatusCode::InvalidArgument);
    EXPECT_EQ(ServeConfig().withThreads(SIZE_MAX).validate().code(),
              StatusCode::InvalidArgument);
}

TEST(ServeSessions, ValidatesCreationAndHandles)
{
    auto reg = std::make_shared<ModelRegistry>();
    ASSERT_TRUE(reg->addFloat("f", randomModel(8, 0x51)).ok());
    ASSERT_TRUE(
        reg->addQuantized("opm", quantizeModel(randomModel(8, 0x52), 8), 32)
            .ok());
    SessionManager manager(
        std::static_pointer_cast<const ModelRegistry>(reg),
        ServeConfig().withThreads(1).withMaxSessions(2));

    VectorSink sink;
    // Unknown model / bad windows / missing sink.
    EXPECT_EQ(manager.createSession(SessionOptions{"nope", 0}, &sink)
                  .status()
                  .code(),
              StatusCode::InvalidArgument);
    EXPECT_EQ(manager.createSession(SessionOptions{"f", 3}, &sink)
                  .status()
                  .code(),
              StatusCode::InvalidArgument);
    EXPECT_EQ(manager.createSession(SessionOptions{"opm", 16}, &sink)
                  .status()
                  .code(),
              StatusCode::InvalidArgument);
    EXPECT_EQ(manager.createSession(SessionOptions{"f", 0}, nullptr)
                  .status()
                  .code(),
              StatusCode::InvalidArgument);

    // Slot exhaustion at maxSessions.
    VectorSink s1, s2, s3;
    StatusOr<SessionId> a =
        manager.createSession(SessionOptions{"f", 0}, &s1);
    StatusOr<SessionId> b =
        manager.createSession(SessionOptions{"opm", 32}, &s2);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(manager.createSession(SessionOptions{"f", 0}, &s3)
                  .status()
                  .code(),
              StatusCode::OutOfRange);

    // Wrong arity is rejected per chunk.
    EXPECT_EQ(manager.submitChunk(*a, randomMatrix(64, 5, 0x53)).code(),
              StatusCode::InvalidArgument);

    // A closed session's id goes stale; its slot is reusable.
    ASSERT_TRUE(manager.closeSession(*a).ok());
    EXPECT_EQ(manager.submitChunk(*a, randomMatrix(64, 8, 0x54)).code(),
              StatusCode::InvalidArgument);
    EXPECT_EQ(manager.closeSession(*a).status().code(),
              StatusCode::InvalidArgument);
    StatusOr<SessionId> c =
        manager.createSession(SessionOptions{"f", 0}, &s3);
    ASSERT_TRUE(c.ok());
    EXPECT_NE(c->value, a->value);
    ASSERT_TRUE(manager.closeSession(*c).ok());
    ASSERT_TRUE(manager.closeSession(*b).ok());

    const serve::ServeStats stats = manager.stats();
    EXPECT_EQ(stats.sessionsCreated, 3u);
    EXPECT_EQ(stats.sessionsClosed, 3u);
    EXPECT_EQ(stats.activeSessions, 0u);
    EXPECT_EQ(manager.listModels().size(), 2u);
}

// ---------------------------------------------------------------------
// Backpressure
// ---------------------------------------------------------------------

/** A sink whose first consume() blocks until released. */
class GateSink : public PowerSink
{
  public:
    Status
    consume(uint64_t, std::span<const float> values) override
    {
        std::unique_lock<std::mutex> lock(mu_);
        consumed_ += values.size();
        cv_.wait(lock, [&] { return open_; });
        return Status::okStatus();
    }

    void
    open()
    {
        std::lock_guard<std::mutex> lock(mu_);
        open_ = true;
        cv_.notify_all();
    }

    uint64_t
    consumed()
    {
        std::lock_guard<std::mutex> lock(mu_);
        return consumed_;
    }

  private:
    std::mutex mu_;
    std::condition_variable cv_;
    bool open_ = false;
    uint64_t consumed_ = 0;
};

TEST(ServeBackpressure, SubmitBlocksOnFullQueueAndRecovers)
{
    const size_t q = 8;
    const ApolloModel model = randomModel(q, 0x61);
    auto reg = std::make_shared<ModelRegistry>();
    ASSERT_TRUE(reg->addFloat("f", model).ok());
    SessionManager manager(
        std::static_pointer_cast<const ModelRegistry>(reg),
        ServeConfig().withThreads(1).withMaxQueuedChunks(1));

    GateSink sink;
    StatusOr<SessionId> id =
        manager.createSession(SessionOptions{"f", 0}, &sink);
    ASSERT_TRUE(id.ok());

    const BitColumnMatrix chunk = randomMatrix(64, q, 0x62);
    // Chunk 1 is dequeued by the worker and parks inside consume().
    ASSERT_TRUE(manager.submitChunk(*id, chunk).ok());
    // Wait until the worker actually holds chunk 1.
    while (sink.consumed() == 0)
        std::this_thread::yield();
    // Chunk 2 fills the queue (cap 1).
    ASSERT_TRUE(manager.submitChunk(*id, chunk).ok());

    // Chunk 3 must block: queue full, worker blocked in the sink.
    std::atomic<bool> submitted{false};
    std::thread producer([&] {
        Status st = manager.submitChunk(*id, chunk);
        EXPECT_TRUE(st.ok()) << st.toString();
        submitted = true;
    });
    while (manager.stats().backpressureStalls == 0)
        std::this_thread::yield();
    EXPECT_FALSE(submitted.load());

    sink.open();
    producer.join();
    StatusOr<SessionSummary> summary = manager.closeSession(*id);
    ASSERT_TRUE(summary.ok()) << summary.status().toString();
    EXPECT_EQ(summary->cycles, 3u * 64u);
    EXPECT_EQ(sink.consumed(), 3u * 64u);
    EXPECT_GE(manager.stats().backpressureStalls, 1u);
}

TEST(ServeBackpressure, LateWakerCannotReachClosedOrReusedSlot)
{
    // Regression: a producer parked in submitChunk's backpressure
    // wait must re-validate the session after every wake. Cancel +
    // close (and even re-tenanting of the slot) can all happen while
    // it sleeps; a late waker that trusted its pre-sleep checks would
    // enqueue into a freed slot (null pipeline) or inject its chunk
    // into the slot's next tenant.
    const size_t q = 8;
    const ApolloModel model = randomModel(q, 0xD1);
    auto reg = std::make_shared<ModelRegistry>();
    ASSERT_TRUE(reg->addFloat("f", model).ok());
    SessionManager manager(
        std::static_pointer_cast<const ModelRegistry>(reg),
        ServeConfig().withThreads(1).withMaxSessions(1).withMaxQueuedChunks(
            1));

    const BitColumnMatrix chunk = randomMatrix(64, q, 0xD2);
    const BitColumnMatrix trace = randomMatrix(256, q, 0xD3);
    const StreamingInference engine(model);
    const std::vector<float> expected =
        sequentialReference(engine, trace, StreamConfig());

    for (int iter = 0; iter < 32; ++iter) {
        GateSink gate;
        StatusOr<SessionId> id =
            manager.createSession(SessionOptions{"f", 0}, &gate);
        ASSERT_TRUE(id.ok()) << id.status().toString();
        // Chunk 1 parks in the gated sink, chunk 2 fills the queue.
        ASSERT_TRUE(manager.submitChunk(*id, chunk).ok());
        while (gate.consumed() == 0)
            std::this_thread::yield();
        ASSERT_TRUE(manager.submitChunk(*id, chunk).ok());

        const uint64_t stalls = manager.stats().backpressureStalls;
        std::thread producer([&, id, iter] {
            Status st = manager.submitChunk(*id, chunk);
            // The session is cancelled, closed, and its slot reused
            // underneath the blocked producer: the only acceptable
            // outcomes are Cancelled or a stale-id rejection.
            EXPECT_FALSE(st.ok()) << "iteration " << iter;
            EXPECT_TRUE(st.code() == StatusCode::Cancelled ||
                        st.code() == StatusCode::InvalidArgument)
                << st.toString();
        });
        while (manager.stats().backpressureStalls == stalls)
            std::this_thread::yield();

        ASSERT_TRUE(manager.cancelSession(*id).ok());
        gate.open();
        StatusOr<SessionSummary> closed = manager.closeSession(*id);
        ASSERT_TRUE(closed.ok()) << closed.status().toString();

        // Next tenant of the (sole) slot: its output must stay
        // bit-identical to the sequential reference — a chunk injected
        // by the old producer would skew it.
        VectorSink sink;
        StatusOr<SessionId> tenant =
            manager.createSession(SessionOptions{"f", 0}, &sink);
        ASSERT_TRUE(tenant.ok()) << tenant.status().toString();
        for (BitColumnMatrix &piece : chunked(trace, 64))
            ASSERT_TRUE(
                manager.submitChunk(*tenant, std::move(piece)).ok());
        StatusOr<SessionSummary> summary =
            manager.closeSession(*tenant);
        ASSERT_TRUE(summary.ok()) << summary.status().toString();
        producer.join();
        ASSERT_EQ(sink.values().size(), expected.size());
        for (size_t i = 0; i < expected.size(); ++i)
            ASSERT_EQ(sink.values()[i], expected[i])
                << "iteration " << iter << " sample " << i;
    }
}

// ---------------------------------------------------------------------
// Cancellation + the partial-window slot-reuse regression
// ---------------------------------------------------------------------

TEST(ServeCancel, PipelineEmitResetsPartialWindowOnCancel)
{
    // Engine-level regression: a sink cancel mid-window must not leave
    // accumulator residue in the pipeline.
    const size_t q = 6;
    const ApolloModel model = randomModel(q, 0x71);
    StreamPipeline pipe(model, 4);

    const BitColumnMatrix first = randomMatrix(6, q, 0x72); // 1.5 windows
    ChunkSums sums;
    pipe.computeSums(first, sums);
    CallbackSink cancelling([](uint64_t, std::span<const float>) {
        return Status::cancelled("stop");
    });
    EXPECT_EQ(pipe.emit(sums, cancelling).code(), StatusCode::Cancelled);

    // The next full window must depend only on its own cycles.
    const BitColumnMatrix second = randomMatrix(4, q, 0x73);
    pipe.computeSums(second, sums);
    VectorSink clean;
    ASSERT_TRUE(pipe.emit(sums, clean).ok());

    StreamPipeline fresh(model, 4);
    ChunkSums fresh_sums;
    fresh.computeSums(second, fresh_sums);
    VectorSink reference;
    ASSERT_TRUE(fresh.emit(fresh_sums, reference).ok());
    ASSERT_EQ(clean.values().size(), 1u);
    ASSERT_EQ(reference.values().size(), 1u);
    EXPECT_EQ(clean.values()[0], reference.values()[0]);
}

TEST(ServeCancel, CancelledSlotReusesClean)
{
    const size_t q = 16;
    const ApolloModel model = randomModel(q, 0x81);
    auto reg = std::make_shared<ModelRegistry>();
    ASSERT_TRUE(reg->addFloat("f", model).ok());
    // One slot: the second session necessarily reuses the first's.
    SessionManager manager(
        std::static_pointer_cast<const ModelRegistry>(reg),
        ServeConfig().withThreads(2).withMaxSessions(1));

    // Session 1: sink cancels after the first delivery, mid-window.
    std::atomic<uint64_t> seen{0};
    CallbackSink cancelling(
        [&](uint64_t, std::span<const float> values) {
            seen += values.size();
            return Status::cancelled("enough");
        });
    StatusOr<SessionId> first =
        manager.createSession(SessionOptions{"f", 16}, &cancelling);
    ASSERT_TRUE(first.ok());
    const BitColumnMatrix noise = randomMatrix(200, q, 0x82);
    // 200 cycles = 12.5 windows: cancel leaves a half-full window.
    Status st = manager.submitChunk(*first, noise);
    ASSERT_TRUE(st.ok() || st.code() == StatusCode::Cancelled)
        << st.toString();
    // Once cancelled, further submits report Cancelled.
    for (;;) {
        Status more = manager.submitChunk(*first, noise);
        if (more.code() == StatusCode::Cancelled)
            break;
        ASSERT_TRUE(more.ok()) << more.toString();
    }
    StatusOr<SessionSummary> closed = manager.closeSession(*first);
    ASSERT_TRUE(closed.ok()) << closed.status().toString();
    EXPECT_TRUE(closed->cancelled);
    EXPECT_GT(seen.load(), 0u);

    // Session 2 reuses the slot; its windows must be bit-identical to
    // a sequential run — any leaked accumulator state would skew the
    // first window.
    const BitColumnMatrix trace = randomMatrix(512, q, 0x83);
    const StreamingInference engine(model);
    const std::vector<float> expected = sequentialReference(
        engine, trace, StreamConfig().withWindowT(16));

    VectorSink sink;
    StatusOr<SessionId> second =
        manager.createSession(SessionOptions{"f", 16}, &sink);
    ASSERT_TRUE(second.ok()) << second.status().toString();
    for (BitColumnMatrix &chunk : chunked(trace, 72))
        ASSERT_TRUE(
            manager.submitChunk(*second, std::move(chunk)).ok());
    StatusOr<SessionSummary> summary = manager.closeSession(*second);
    ASSERT_TRUE(summary.ok());
    EXPECT_FALSE(summary->cancelled);
    ASSERT_EQ(sink.values().size(), expected.size());
    for (size_t i = 0; i < expected.size(); ++i)
        ASSERT_EQ(sink.values()[i], expected[i]) << "window " << i;

    EXPECT_EQ(manager.stats().sessionsCancelled, 1u);
}

TEST(ServeCancel, ExplicitCancelDropsQueuedWork)
{
    const size_t q = 8;
    auto reg = std::make_shared<ModelRegistry>();
    ASSERT_TRUE(reg->addFloat("f", randomModel(q, 0x91)).ok());
    SessionManager manager(
        std::static_pointer_cast<const ModelRegistry>(reg),
        ServeConfig().withThreads(1).withMaxQueuedChunks(4));

    GateSink sink;
    StatusOr<SessionId> id =
        manager.createSession(SessionOptions{"f", 0}, &sink);
    ASSERT_TRUE(id.ok());
    const BitColumnMatrix chunk = randomMatrix(64, q, 0x92);
    ASSERT_TRUE(manager.submitChunk(*id, chunk).ok());
    while (sink.consumed() == 0)
        std::this_thread::yield();
    // Two more sit in the queue behind the gated one.
    ASSERT_TRUE(manager.submitChunk(*id, chunk).ok());
    ASSERT_TRUE(manager.submitChunk(*id, chunk).ok());

    ASSERT_TRUE(manager.cancelSession(*id).ok());
    EXPECT_EQ(manager.submitChunk(*id, chunk).code(),
              StatusCode::Cancelled);
    sink.open();
    StatusOr<SessionSummary> summary = manager.closeSession(*id);
    ASSERT_TRUE(summary.ok()) << summary.status().toString();
    EXPECT_TRUE(summary->cancelled);
    // Only the in-flight chunk was processed; the queued two dropped.
    EXPECT_EQ(summary->cycles, 64u);
}

TEST(ServeCancel, FlowReportsCancelledStreams)
{
    // Satellite regression: runEmulatorFlowStreaming surfaces a sink
    // cancel in the report instead of losing it, and a cancelled run
    // leaves no state behind that could skew a later run.
    const Netlist netlist = DesignBuilder::build(DesignConfig::tiny());
    ApolloModel model;
    for (uint32_t i = 0; i < 12; ++i) {
        model.proxyIds.push_back(i * 3);
        model.weights.push_back(0.05f * static_cast<float>(i % 5));
    }
    model.intercept = 0.2;
    Xoshiro256StarStar rng(7);
    const Program prog =
        Program::makeLoop("p", GaGenerator::randomBody(rng, 6, 26),
                          200, 7);

    Flows flows(netlist);
    VectorSink full;
    const FlowReport complete =
        flows.emulatorStreaming(prog, 400, model, full,
                                StreamConfig().withChunkCycles(64));
    EXPECT_FALSE(complete.cancelled);

    size_t budget = full.values().size() / 2;
    std::vector<float> partial;
    CallbackSink limited([&](uint64_t,
                             std::span<const float> values) {
        for (float v : values) {
            if (partial.size() >= budget)
                return Status::cancelled("budget reached");
            partial.push_back(v);
        }
        return Status::okStatus();
    });
    Flows flows2(netlist);
    const FlowReport cancelled =
        flows2.emulatorStreaming(prog, 400, model, limited,
                                 StreamConfig().withChunkCycles(64));
    EXPECT_TRUE(cancelled.cancelled);
    ASSERT_LE(partial.size(), full.values().size());
    for (size_t i = 0; i < partial.size(); ++i)
        ASSERT_EQ(partial[i], full.values()[i]) << "sample " << i;

    // The same Flows object runs clean again after a cancel.
    VectorSink again;
    const FlowReport rerun =
        flows2.emulatorStreaming(prog, 400, model, again,
                                 StreamConfig().withChunkCycles(64));
    EXPECT_FALSE(rerun.cancelled);
    ASSERT_EQ(again.values().size(), full.values().size());
    for (size_t i = 0; i < full.values().size(); ++i)
        ASSERT_EQ(again.values()[i], full.values()[i]);
}

// ---------------------------------------------------------------------
// Wire codec
// ---------------------------------------------------------------------

TEST(ServeWire, RequestsRoundTrip)
{
    serve::WireRequest create;
    create.op = serve::RequestOp::CreateSession;
    create.session = "sess-1";
    create.model = "opm_q8";
    create.windowT = 64;
    StatusOr<serve::WireRequest> back =
        serve::parseRequestLine(serve::encodeRequest(create));
    ASSERT_TRUE(back.ok()) << back.status().toString();
    EXPECT_EQ(back->op, serve::RequestOp::CreateSession);
    EXPECT_EQ(back->session, "sess-1");
    EXPECT_EQ(back->model, "opm_q8");
    EXPECT_EQ(back->windowT, 64u);

    serve::WireRequest submit;
    submit.op = serve::RequestOp::SubmitChunk;
    submit.session = "sess-1";
    submit.bits = randomMatrix(129, 7, 0xA1); // odd tail
    back = serve::parseRequestLine(serve::encodeRequest(submit));
    ASSERT_TRUE(back.ok()) << back.status().toString();
    ASSERT_EQ(back->bits.rows(), 129u);
    ASSERT_EQ(back->bits.cols(), 7u);
    for (size_t c = 0; c < 7; ++c)
        for (size_t r = 0; r < 129; ++r)
            ASSERT_EQ(back->bits.get(r, c), submit.bits.get(r, c));

    for (serve::RequestOp op : {serve::RequestOp::CloseSession,
                                serve::RequestOp::CancelSession}) {
        serve::WireRequest simple;
        simple.op = op;
        simple.session = "x";
        back = serve::parseRequestLine(serve::encodeRequest(simple));
        ASSERT_TRUE(back.ok());
        EXPECT_EQ(back->op, op);
    }
    serve::WireRequest list;
    list.op = serve::RequestOp::ListModels;
    back = serve::parseRequestLine(serve::encodeRequest(list));
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(back->op, serve::RequestOp::ListModels);
}

TEST(ServeWire, RejectsMalformedRequests)
{
    using serve::parseRequestLine;
    // Malformed JSON -> ParseError.
    EXPECT_EQ(parseRequestLine("not json").status().code(),
              StatusCode::ParseError);
    EXPECT_EQ(parseRequestLine("{\"a\":1").status().code(),
              StatusCode::ParseError);
    EXPECT_EQ(
        parseRequestLine("{\"a\":1,\"a\":2}").status().code(),
        StatusCode::ParseError);
    EXPECT_EQ(parseRequestLine("{\"a\":[1]}").status().code(),
              StatusCode::ParseError);
    // Schema violations -> InvalidArgument.
    EXPECT_EQ(parseRequestLine("{\"op\":\"list_models\"}")
                  .status()
                  .code(),
              StatusCode::InvalidArgument);
    EXPECT_EQ(parseRequestLine(
                  "{\"schema_version\":2,\"op\":\"list_models\"}")
                  .status()
                  .code(),
              StatusCode::InvalidArgument);
    EXPECT_EQ(parseRequestLine(
                  "{\"schema_version\":1,\"op\":\"frobnicate\"}")
                  .status()
                  .code(),
              StatusCode::InvalidArgument);
    EXPECT_EQ(
        parseRequestLine("{\"schema_version\":1,\"op\":"
                         "\"close_session\",\"session\":\"a b\"}")
            .status()
            .code(),
        StatusCode::InvalidArgument);
    EXPECT_EQ(
        parseRequestLine("{\"schema_version\":1,\"op\":"
                         "\"list_models\",\"bogus\":1}")
            .status()
            .code(),
        StatusCode::InvalidArgument);

    // Payload length/tail violations -> ParseError.
    EXPECT_EQ(
        parseRequestLine(
            "{\"schema_version\":1,\"op\":\"submit_chunk\","
            "\"session\":\"s\",\"cycles\":64,\"proxies\":1,"
            "\"bits\":\"00\"}")
            .status()
            .code(),
        StatusCode::ParseError);
    // 1 row x 1 proxy with a bit set past row 0.
    EXPECT_EQ(
        parseRequestLine(
            "{\"schema_version\":1,\"op\":\"submit_chunk\","
            "\"session\":\"s\",\"cycles\":1,\"proxies\":1,"
            "\"bits\":\"0000000000000003\"}")
            .status()
            .code(),
        StatusCode::ParseError);
    // Maximal declared dims (2^32 cycles x 2^20 proxies would be a
    // petabyte-scale matrix) with a tiny payload: must be rejected by
    // the length check BEFORE any allocation sized from the dims.
    EXPECT_EQ(
        parseRequestLine(
            "{\"schema_version\":1,\"op\":\"submit_chunk\","
            "\"session\":\"s\",\"cycles\":4294967296,"
            "\"proxies\":1048576,\"bits\":\"00\"}")
            .status()
            .code(),
        StatusCode::ParseError);
}

TEST(ServeWire, BitsHexRoundTrip)
{
    for (size_t rows : {size_t{1}, size_t{63}, size_t{64}, size_t{200}}) {
        const BitColumnMatrix m = randomMatrix(rows, 5, 0xB0 + rows);
        StatusOr<BitColumnMatrix> back =
            serve::decodeBitsHex(serve::encodeBitsHex(m), rows, 5);
        ASSERT_TRUE(back.ok()) << back.status().toString();
        for (size_t c = 0; c < 5; ++c)
            for (size_t r = 0; r < rows; ++r)
                ASSERT_EQ(back->get(r, c), m.get(r, c));
    }
    // Dims whose expected payload size overflows 64 bits must be
    // rejected cleanly, not wrap around into a bogus small size.
    EXPECT_EQ(serve::decodeBitsHex("00", size_t{1} << 40,
                                   size_t{1} << 40)
                  .status()
                  .code(),
              StatusCode::ParseError);
}

// ---------------------------------------------------------------------
// Serve loop: wire end-to-end + record/replay
// ---------------------------------------------------------------------

/** Extract the power samples of one session from a response stream. */
std::vector<float>
powerSamplesFor(const std::string &responses,
                const std::string &session)
{
    std::vector<float> out;
    std::istringstream is(responses);
    std::string line;
    const std::string tag = "\"session\":\"" + session + "\"";
    while (std::getline(is, line)) {
        if (line.find("\"event\":\"power\"") == std::string::npos ||
            line.find(tag) == std::string::npos)
            continue;
        const size_t open = line.find("\"values\":[");
        EXPECT_NE(open, std::string::npos) << line;
        if (open == std::string::npos)
            continue;
        size_t i = open + 10;
        while (i < line.size() && line[i] != ']') {
            char *end = nullptr;
            out.push_back(std::strtof(line.c_str() + i, &end));
            i = static_cast<size_t>(end - line.c_str());
            if (i < line.size() && line[i] == ',')
                i++;
        }
    }
    return out;
}

TEST(ServeLoop, DrivesSessionsAndRecordsReplayableFiles)
{
    const size_t q = 20;
    const ApolloModel fmodel = randomModel(q, 0xC1);
    const QuantizedModel qmodel = quantizeModel(fmodel, 8);
    auto reg = std::make_shared<ModelRegistry>();
    ASSERT_TRUE(reg->addFloat("f", fmodel).ok());
    ASSERT_TRUE(reg->addQuantized("opm", qmodel, 32).ok());

    const BitColumnMatrix trace_a = randomMatrix(500, q, 0xC2);
    const BitColumnMatrix trace_b = randomMatrix(450, q, 0xC3);

    // Interleaved two-session request stream, plus a list_models call
    // and a request-level error (unknown model) that must not stop
    // the loop. Session "b" is left open to exercise EOF auto-close.
    std::ostringstream req;
    {
        serve::WireRequest r;
        r.op = serve::RequestOp::ListModels;
        req << serve::encodeRequest(r);
    }
    req << "{\"schema_version\":1,\"op\":\"create_session\","
           "\"session\":\"bad\",\"model\":\"nope\"}\n";
    for (const auto &[name, model, window] :
         {std::tuple<std::string, std::string, uint32_t>{"a", "opm", 0},
          {"b", "f", 16}}) {
        serve::WireRequest r;
        r.op = serve::RequestOp::CreateSession;
        r.session = name;
        r.model = model;
        r.windowT = window;
        req << serve::encodeRequest(r);
    }
    std::vector<BitColumnMatrix> chunks_a = chunked(trace_a, 97);
    std::vector<BitColumnMatrix> chunks_b = chunked(trace_b, 131);
    for (size_t c = 0; c < std::max(chunks_a.size(), chunks_b.size());
         ++c) {
        for (const auto &[name, chunks] :
             {std::pair<std::string, std::vector<BitColumnMatrix> *>{
                  "a", &chunks_a},
              {"b", &chunks_b}}) {
            if (c >= chunks->size())
                continue;
            serve::WireRequest r;
            r.op = serve::RequestOp::SubmitChunk;
            r.session = name;
            r.bits = (*chunks)[c];
            req << serve::encodeRequest(r);
        }
    }
    {
        serve::WireRequest r;
        r.op = serve::RequestOp::CloseSession;
        r.session = "a";
        req << serve::encodeRequest(r);
    }

    const std::filesystem::path record_dir =
        std::filesystem::temp_directory_path() /
        "apollo_serve_test_rec";
    std::filesystem::remove_all(record_dir);

    serve::ServeLoopOptions options;
    options.config.threads = 2;
    options.recordDir = record_dir.string();
    std::istringstream in(req.str());
    std::ostringstream out;
    StatusOr<serve::ServeLoopReport> report = serve::runServeLoop(
        std::static_pointer_cast<const ModelRegistry>(reg), in, out,
        options);
    ASSERT_TRUE(report.ok()) << report.status().toString();
    EXPECT_EQ(report->sessionsCreated, 2u);
    EXPECT_EQ(report->errors, 1u); // the unknown-model create
    EXPECT_EQ(report->autoClosed, 1u); // session "b" at EOF
    const std::string live = out.str();
    EXPECT_NE(live.find("\"event\":\"models\""), std::string::npos);
    EXPECT_NE(live.find("\"code\":\"invalid_argument\""),
              std::string::npos);

    // Live outputs match the one-stream engine exactly.
    std::vector<float> live_a, live_b;
    {
        SCOPED_TRACE("live");
        powerSamplesFor(live, "a").swap(live_a);
        powerSamplesFor(live, "b").swap(live_b);
    }
    const StreamingInference qengine(qmodel, 32);
    const StreamingInference fengine(fmodel);
    const std::vector<float> want_a =
        sequentialReference(qengine, trace_a, StreamConfig());
    const std::vector<float> want_b = sequentialReference(
        fengine, trace_b, StreamConfig().withWindowT(16));
    ASSERT_EQ(live_a.size(), want_a.size());
    ASSERT_EQ(live_b.size(), want_b.size());
    for (size_t i = 0; i < want_a.size(); ++i)
        ASSERT_EQ(live_a[i], want_a[i]) << "a[" << i << "]";
    for (size_t i = 0; i < want_b.size(); ++i)
        ASSERT_EQ(live_b[i], want_b[i]) << "b[" << i << "]";

    // Each record file replays standalone to bit-identical samples —
    // including auto-closed "b", whose record must carry the implied
    // close.
    for (const std::string &name : {std::string("a"), std::string("b")}) {
        std::ifstream rec(record_dir / (name + ".ndjson"));
        ASSERT_TRUE(rec.is_open()) << name;
        std::ostringstream replay_out;
        StatusOr<serve::ServeLoopReport> replay =
            serve::runServeLoop(
                std::static_pointer_cast<const ModelRegistry>(reg),
                rec, replay_out, {});
        ASSERT_TRUE(replay.ok()) << replay.status().toString();
        EXPECT_EQ(replay->errors, 0u);
        EXPECT_EQ(replay->autoClosed, 0u) << name;
        std::vector<float> replayed;
        powerSamplesFor(replay_out.str(), name).swap(replayed);
        const std::vector<float> &want = name == "a" ? want_a : want_b;
        ASSERT_EQ(replayed.size(), want.size()) << name;
        for (size_t i = 0; i < want.size(); ++i)
            ASSERT_EQ(replayed[i], want[i])
                << name << "[" << i << "]";
    }
    std::filesystem::remove_all(record_dir);
}

TEST(ServeLoop, RecordOpenFailureStillDrainsOpenSessions)
{
    // Regression: the record-file-open error path used to return out
    // of runServeLoop while other sessions were still open, tearing
    // down the sinks and output mutex before the manager's workers
    // stopped using them. The error must funnel through the shared
    // EOF drain: every live session closed, then IoError returned.
    const size_t q = 8;
    const ApolloModel model = randomModel(q, 0xE1);
    auto reg = std::make_shared<ModelRegistry>();
    ASSERT_TRUE(reg->addFloat("f", model).ok());

    const std::filesystem::path record_dir =
        std::filesystem::temp_directory_path() /
        "apollo_serve_test_badrec";
    std::filesystem::remove_all(record_dir);
    // A directory squatting on session "b"'s record path makes its
    // ofstream open fail while "a" has chunks in flight.
    std::filesystem::create_directories(record_dir / "b.ndjson");

    const BitColumnMatrix trace = randomMatrix(320, q, 0xE2);
    std::ostringstream req;
    {
        serve::WireRequest r;
        r.op = serve::RequestOp::CreateSession;
        r.session = "a";
        r.model = "f";
        req << serve::encodeRequest(r);
    }
    for (const BitColumnMatrix &piece : chunked(trace, 64)) {
        serve::WireRequest r;
        r.op = serve::RequestOp::SubmitChunk;
        r.session = "a";
        r.bits = piece;
        req << serve::encodeRequest(r);
    }
    {
        serve::WireRequest r;
        r.op = serve::RequestOp::CreateSession;
        r.session = "b";
        r.model = "f";
        req << serve::encodeRequest(r);
    }

    serve::ServeLoopOptions options;
    options.config.threads = 2;
    options.recordDir = record_dir.string();
    std::istringstream in(req.str());
    std::ostringstream out;
    StatusOr<serve::ServeLoopReport> report = serve::runServeLoop(
        std::static_pointer_cast<const ModelRegistry>(reg), in, out,
        options);
    ASSERT_FALSE(report.ok());
    EXPECT_EQ(report.status().code(), StatusCode::IoError);

    // Session "a" was still drained and closed: its record file got
    // the implied close and replays standalone to the exact samples.
    const StreamingInference engine(model);
    const std::vector<float> want =
        sequentialReference(engine, trace, StreamConfig());
    std::ifstream rec(record_dir / "a.ndjson");
    ASSERT_TRUE(rec.is_open());
    std::ostringstream replay_out;
    StatusOr<serve::ServeLoopReport> replay = serve::runServeLoop(
        std::static_pointer_cast<const ModelRegistry>(reg), rec,
        replay_out, {});
    ASSERT_TRUE(replay.ok()) << replay.status().toString();
    std::vector<float> replayed;
    powerSamplesFor(replay_out.str(), "a").swap(replayed);
    ASSERT_EQ(replayed.size(), want.size());
    for (size_t i = 0; i < want.size(); ++i)
        ASSERT_EQ(replayed[i], want[i]) << "a[" << i << "]";
    std::filesystem::remove_all(record_dir);
}

} // namespace
} // namespace apollo
