/**
 * @file
 * Streaming pipeline tests: chunked readers (matrix slices, APTR
 * files, VCD), the streaming inference engine's bit-identity with the
 * batch paths (per-cycle float, Eq. (9) windows, quantized OPM), sink
 * behaviors, Status error paths of the data loaders, and the public
 * Inference/Trainer facade.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>

#include "apollo.hh"
#include "ref/reference_kernels.hh"

namespace apollo {
namespace {

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
        // Mixed-sign weights with some exact zeros (pruned proxies).
        const double u =
            static_cast<double>(rng() % 2000) / 1000.0 - 1.0;
        model.weights.push_back(
            i % 7 == 3 ? 0.0f : static_cast<float>(u));
    }
    return model;
}

std::vector<float>
streamToVector(const StreamingInference &engine,
               const BitColumnMatrix &Xq, const StreamConfig &config)
{
    MatrixChunkReader reader(Xq);
    VectorSink sink;
    StatusOr<StreamStats> stats = engine.run(reader, sink, config);
    EXPECT_TRUE(stats.ok()) << stats.status().toString();
    return sink.takeValues();
}

TEST(SliceRows, MatchesPerBitCopy)
{
    const BitColumnMatrix m = randomMatrix(517, 9, 0x51);
    for (const auto &[first, n] :
         {std::pair<size_t, size_t>{0, 517}, {0, 64}, {1, 64},
          {63, 130}, {64, 64}, {100, 1}, {511, 6}, {517, 0}}) {
        const BitColumnMatrix s = m.sliceRows(first, n);
        ASSERT_EQ(s.rows(), n);
        ASSERT_EQ(s.cols(), m.cols());
        for (size_t c = 0; c < m.cols(); ++c) {
            for (size_t r = 0; r < n; ++r)
                ASSERT_EQ(s.get(r, c), m.get(first + r, c))
                    << "first=" << first << " r=" << r << " c=" << c;
            // Zero-tail contract for the packed kernels.
            if (n > 0 && (n & 63) != 0) {
                const uint64_t *w = s.colWords(c);
                ASSERT_EQ(w[s.wordsPerCol() - 1] >> (n & 63), 0u);
            }
        }
    }
}

TEST(StreamInfer, PerCycleBitIdenticalAcrossChunkSizes)
{
    const size_t n = 1000, q = 70;
    const BitColumnMatrix Xq = randomMatrix(n, q, 0xA1);
    const ApolloModel model = randomModel(q, 0xB2);
    const std::vector<float> batch = model.predictProxies(Xq);

    const StreamingInference engine(model);
    for (const size_t chunk : {size_t{1}, size_t{3}, size_t{64},
                               size_t{127}, size_t{1000}, n + 57}) {
        const std::vector<float> streamed = streamToVector(
            engine, Xq, StreamConfig().withChunkCycles(chunk));
        ASSERT_EQ(streamed.size(), batch.size());
        for (size_t i = 0; i < n; ++i)
            ASSERT_EQ(streamed[i], batch[i])
                << "chunk=" << chunk << " i=" << i;
    }
}

TEST(StreamInfer, WindowedBitIdenticalForPaperTaus)
{
    const size_t n = 1536, q = 48;
    const BitColumnMatrix Xq = randomMatrix(n, q, 0xC3);
    const ApolloModel model = randomModel(q, 0xD4);
    const MultiCycleModel mc{model, 1};
    const StreamingInference engine(model);

    for (const uint32_t T : {2u, 8u, 128u}) {
        const SegmentInfo whole{"", 0, n};
        const std::vector<float> batch =
            mc.predictWindowsProxies(
                  Xq, T, std::span<const SegmentInfo>(&whole, 1))
                .value();
        // 127 is coprime with every T, so windows straddle chunks.
        const std::vector<float> streamed = streamToVector(
            engine, Xq,
            StreamConfig().withChunkCycles(127).withWindowT(T));
        ASSERT_EQ(streamed.size(), batch.size()) << "T=" << T;
        for (size_t i = 0; i < batch.size(); ++i)
            ASSERT_EQ(streamed[i], batch[i]) << "T=" << T;
    }
}

TEST(StreamInfer, QuantizedBitIdenticalToOpmSimulator)
{
    const size_t n = 900, q = 55;
    const BitColumnMatrix Xq = randomMatrix(n, q, 0xE5);
    const QuantizedModel qm = quantizeModel(randomModel(q, 0xF6), 10);

    for (const uint32_t T : {1u, 4u, 32u}) {
        // The naive per-cycle reference shares no code with the
        // popcount kernels behind both the stream and simulate().
        const std::vector<float> batch = ref::opmSimulate(qm, Xq, T);
        ASSERT_EQ(OpmSimulator(qm, T).simulate(Xq), batch) << "T=" << T;
        const StreamingInference engine(qm, T);
        for (const size_t chunk : {size_t{1}, size_t{77}, size_t{1000}}) {
            const std::vector<float> streamed = streamToVector(
                engine, Xq, StreamConfig().withChunkCycles(chunk));
            ASSERT_EQ(streamed.size(), batch.size());
            for (size_t i = 0; i < batch.size(); ++i)
                ASSERT_EQ(streamed[i], batch[i])
                    << "T=" << T << " chunk=" << chunk;
        }
    }
}

TEST(StreamInfer, DeterministicAcrossChunksInFlight)
{
    const size_t n = 2048, q = 33;
    const BitColumnMatrix Xq = randomMatrix(n, q, 0x17);
    const StreamingInference engine(randomModel(q, 0x28));

    const std::vector<float> one = streamToVector(
        engine, Xq,
        StreamConfig().withChunkCycles(100).withChunksInFlight(1));
    for (const size_t k : {size_t{2}, size_t{5}, size_t{16}}) {
        const std::vector<float> many = streamToVector(
            engine, Xq,
            StreamConfig().withChunkCycles(100).withChunksInFlight(k));
        ASSERT_EQ(many, one) << "chunksInFlight=" << k;
    }
}

TEST(StreamInfer, StatsAccounting)
{
    const size_t n = 500, q = 20;
    const BitColumnMatrix Xq = randomMatrix(n, q, 0x39);
    const StreamingInference engine(randomModel(q, 0x4A));

    MatrixChunkReader reader(Xq);
    VectorSink sink;
    StatusOr<StreamStats> stats = engine.run(
        reader, sink, StreamConfig().withChunkCycles(128));
    ASSERT_TRUE(stats.ok());
    EXPECT_EQ(stats->cycles, n);
    EXPECT_EQ(stats->outputs, n);
    EXPECT_EQ(stats->chunks, (n + 127) / 128);
    EXPECT_GT(stats->peakBufferBytes, 0u);
    EXPECT_FALSE(stats->cancelled);
}

TEST(StreamInfer, ConfigAndArityErrors)
{
    const BitColumnMatrix Xq = randomMatrix(64, 8, 0x5B);
    const StreamingInference engine(randomModel(8, 0x6C));
    MatrixChunkReader reader(Xq);
    VectorSink sink;

    StatusOr<StreamStats> bad_chunk =
        engine.run(reader, sink, StreamConfig().withChunkCycles(0));
    ASSERT_FALSE(bad_chunk.ok());
    EXPECT_EQ(bad_chunk.status().code(), StatusCode::InvalidArgument);

    StatusOr<StreamStats> bad_T =
        engine.run(reader, sink, StreamConfig().withWindowT(3));
    ASSERT_FALSE(bad_T.ok());
    EXPECT_EQ(bad_T.status().code(), StatusCode::InvalidArgument);

    const StreamingInference other(randomModel(9, 0x7D));
    MatrixChunkReader reader2(Xq);
    StatusOr<StreamStats> arity = other.run(reader2, sink, {});
    ASSERT_FALSE(arity.ok());
    EXPECT_EQ(arity.status().code(), StatusCode::InvalidArgument);
}

/** Fills 128-row chunks but reports half the rows it filled. */
class UnderreportingReader : public ProxyChunkReader
{
  public:
    explicit UnderreportingReader(const BitColumnMatrix &Xq) : Xq_(Xq) {}

    size_t proxyCount() const override { return Xq_.cols(); }

    StatusOr<size_t>
    next(size_t, ProxyChunk &chunk) override
    {
        const size_t n = std::min<size_t>(128, Xq_.rows() - pos_);
        chunk.firstCycle = pos_;
        Xq_.sliceRowsInto(pos_, n, chunk.bits);
        pos_ += n;
        return n / 2;
    }

  private:
    const BitColumnMatrix &Xq_;
    size_t pos_ = 0;
};

TEST(StreamInfer, RejectsReaderRowCountMismatch)
{
    // Sized from the reported count, the windowed float sums of such
    // a chunk were written past their end.
    const BitColumnMatrix Xq = randomMatrix(512, 8, 0x8E);
    const ApolloModel model = randomModel(8, 0x9F);
    const StreamingInference float_engine(model);
    const StreamingInference q_engine(quantizeModel(model, 10), 4);
    for (const uint32_t T : {4u, 0u}) {
        for (const StreamingInference *engine : {&float_engine, &q_engine}) {
            UnderreportingReader reader(Xq);
            VectorSink sink;
            StatusOr<StreamStats> stats = engine->run(
                reader, sink,
                StreamConfig().withChunkCycles(128).withWindowT(T));
            ASSERT_FALSE(stats.ok())
                << "T=" << T << " quantized=" << (engine == &q_engine);
            EXPECT_EQ(stats.status().code(), StatusCode::InvalidArgument);
        }
    }
}

TEST(StreamSinks, CallbackCancelStopsGracefully)
{
    const size_t n = 4096, q = 10;
    const BitColumnMatrix Xq = randomMatrix(n, q, 0x8E);
    const StreamingInference engine(randomModel(q, 0x9F));

    size_t seen = 0;
    CallbackSink sink([&](uint64_t, std::span<const float> values) {
        seen += values.size();
        if (seen >= 512)
            return Status::cancelled("enough");
        return Status::okStatus();
    });
    MatrixChunkReader reader(Xq);
    StatusOr<StreamStats> stats =
        engine.run(reader, sink, StreamConfig().withChunkCycles(256));
    ASSERT_TRUE(stats.ok()) << stats.status().toString();
    EXPECT_TRUE(stats->cancelled);
    EXPECT_LT(stats->cycles, n);
    EXPECT_GE(seen, 512u);
}

TEST(StreamSinks, RingBufferKeepsLatest)
{
    const size_t n = 700, q = 12;
    const BitColumnMatrix Xq = randomMatrix(n, q, 0xAB);
    const ApolloModel model = randomModel(q, 0xBC);
    const std::vector<float> batch = model.predictProxies(Xq);

    RingBufferSink sink(100);
    MatrixChunkReader reader(Xq);
    StatusOr<StreamStats> stats = StreamingInference(model).run(
        reader, sink, StreamConfig().withChunkCycles(64));
    ASSERT_TRUE(stats.ok());
    EXPECT_EQ(sink.totalSeen(), n);
    EXPECT_EQ(sink.firstIndex(), n - 100);
    const std::vector<float> kept = sink.latest();
    ASSERT_EQ(kept.size(), 100u);
    for (size_t i = 0; i < kept.size(); ++i)
        EXPECT_EQ(kept[i], batch[n - 100 + i]);
}

TEST(StreamSinks, CsvWritesIndexedRows)
{
    const BitColumnMatrix Xq = randomMatrix(10, 5, 0xCD);
    std::ostringstream os;
    CsvPowerSink sink(os);
    MatrixChunkReader reader(Xq);
    StatusOr<StreamStats> stats = StreamingInference(
        randomModel(5, 0xDE)).run(reader, sink,
                                  StreamConfig().withChunkCycles(4));
    ASSERT_TRUE(stats.ok());
    std::istringstream lines(os.str());
    std::string line;
    ASSERT_TRUE(std::getline(lines, line));
    EXPECT_EQ(line, "index,power");
    size_t count = 0;
    while (std::getline(lines, line)) {
        EXPECT_EQ(line.find(std::to_string(count) + ","), 0u);
        count++;
    }
    EXPECT_EQ(count, 10u);
}

TEST(ProxyTraceFormat, RoundTripAndStreamedInference)
{
    const size_t n = 1234, q = 31;
    const BitColumnMatrix Xq = randomMatrix(n, q, 0xEF);
    const std::string path = "stream_roundtrip.aptr";
    ASSERT_TRUE(saveProxyTraceFile(path, Xq, 200).ok());

    ProxyTraceFileReader reader(path);
    ProxyChunk chunk;
    BitColumnMatrix rebuilt(n, q);
    size_t rows = 0;
    for (;;) {
        StatusOr<size_t> got = reader.next(97, chunk);
        ASSERT_TRUE(got.ok()) << got.status().toString();
        if (*got == 0)
            break;
        ASSERT_EQ(chunk.firstCycle, rows);
        for (size_t c = 0; c < q; ++c)
            for (size_t r = 0; r < *got; ++r)
                if (chunk.bits.get(r, c))
                    rebuilt.setBit(rows + r, c);
        rows += *got;
    }
    ASSERT_EQ(rows, n);
    ASSERT_EQ(reader.totalCycles(), n);
    for (size_t c = 0; c < q; ++c)
        for (size_t r = 0; r < n; ++r)
            ASSERT_EQ(rebuilt.get(r, c), Xq.get(r, c));

    // Inference straight off the file matches the in-memory batch.
    const ApolloModel model = randomModel(q, 0xF0);
    ProxyTraceFileReader reader2(path);
    VectorSink sink;
    StatusOr<StreamStats> stats = StreamingInference(model).run(
        reader2, sink, StreamConfig().withChunkCycles(333));
    ASSERT_TRUE(stats.ok());
    EXPECT_EQ(sink.values(), model.predictProxies(Xq));
    std::remove(path.c_str());
}

TEST(ProxyTraceFormat, RejectsMalformedInput)
{
    ProxyChunk chunk;

    std::istringstream bad_magic("NOPE....");
    ProxyTraceReader r1(bad_magic);
    StatusOr<size_t> got = r1.next(10, chunk);
    ASSERT_FALSE(got.ok());
    EXPECT_EQ(got.status().code(), StatusCode::ParseError);

    // Valid header+block, then cut the stream mid-block.
    std::ostringstream os;
    {
        ProxyTraceWriter writer(os, 3);
        ASSERT_TRUE(writer.append(randomMatrix(100, 3, 0x11)).ok());
        ASSERT_TRUE(writer.finish().ok());
    }
    const std::string full = os.str();
    std::istringstream truncated(full.substr(0, full.size() / 2));
    ProxyTraceReader r2(truncated);
    Status err = Status::okStatus();
    for (;;) {
        StatusOr<size_t> step = r2.next(64, chunk);
        if (!step.ok()) {
            err = step.status();
            break;
        }
        ASSERT_NE(*step, 0u) << "truncated stream parsed to EOF";
    }
    EXPECT_EQ(err.code(), StatusCode::IoError);

    // Writer rejects arity mismatches.
    std::ostringstream os2;
    ProxyTraceWriter writer(os2, 4);
    EXPECT_EQ(writer.append(randomMatrix(8, 5, 0x22)).code(),
              StatusCode::InvalidArgument);
}

TEST(VcdStreaming, MatchesBatchParser)
{
    const Netlist netlist = DesignBuilder::build(DesignConfig::tiny());
    std::vector<uint32_t> signals;
    for (uint32_t s = 0; s < 17; ++s)
        signals.push_back(s * 3);

    const size_t cycles = 400;
    Xoshiro256StarStar rng(0x33);
    std::ostringstream os;
    VcdWriter writer(os, netlist, signals);
    writer.writeHeader();
    for (size_t i = 0; i < cycles; ++i) {
        BitVector toggled(signals.size());
        for (size_t k = 0; k < signals.size(); ++k)
            if (rng() % 100 < 25)
                toggled.set(k, true);
        writer.writeCycle(toggled);
    }
    writer.finish();
    const std::string vcd = os.str();

    std::istringstream batch_is(vcd);
    const VcdTrace batch = parseVcd(batch_is);

    std::istringstream stream_is(vcd);
    VcdChunkReader reader(stream_is);
    ProxyChunk chunk;
    size_t rows = 0;
    BitColumnMatrix rebuilt;
    for (;;) {
        StatusOr<size_t> got = reader.next(59, chunk);
        ASSERT_TRUE(got.ok()) << got.status().toString();
        if (*got == 0)
            break;
        if (rebuilt.rows() == 0)
            rebuilt.reset(cycles, reader.proxyCount());
        ASSERT_EQ(chunk.firstCycle, rows);
        for (size_t c = 0; c < chunk.proxies(); ++c)
            for (size_t r = 0; r < *got; ++r)
                if (chunk.bits.get(r, c))
                    rebuilt.setBit(rows + r, c);
        rows += *got;
    }
    ASSERT_EQ(reader.names(), batch.names);
    ASSERT_EQ(rows, batch.toggles.rows());
    for (size_t c = 0; c < batch.toggles.cols(); ++c)
        for (size_t r = 0; r < batch.toggles.rows(); ++r)
            ASSERT_EQ(rebuilt.get(r, c), batch.toggles.get(r, c))
                << "r=" << r << " c=" << c;
}

TEST(VcdStreaming, RejectsMalformedInput)
{
    ProxyChunk chunk;

    std::istringstream no_vars("$enddefinitions $end\n#0\n");
    VcdChunkReader r1(no_vars);
    StatusOr<size_t> got = r1.next(10, chunk);
    ASSERT_FALSE(got.ok());
    EXPECT_EQ(got.status().code(), StatusCode::ParseError);

    const std::string header = "$var wire 1 ! sig_a $end\n"
                               "$enddefinitions $end\n";
    std::istringstream unknown_id(header + "#0\n1\" \n#5\n");
    VcdChunkReader r2(unknown_id);
    got = r2.next(10, chunk);
    ASSERT_FALSE(got.ok());
    EXPECT_EQ(got.status().code(), StatusCode::ParseError);

    std::istringstream backwards(header + "#4\n1!\n#2\n0!\n");
    VcdChunkReader r3(backwards);
    got = r3.next(10, chunk);
    ASSERT_FALSE(got.ok());
    EXPECT_EQ(got.status().code(), StatusCode::ParseError);
}

TEST(LoaderStatus, DatasetTryVariants)
{
    StatusOr<Dataset> missing = tryLoadDatasetFile("no/such/file.apds");
    ASSERT_FALSE(missing.ok());
    EXPECT_EQ(missing.status().code(), StatusCode::IoError);

    std::istringstream junk("not a dataset at all");
    StatusOr<Dataset> parse = tryLoadDataset(junk);
    ASSERT_FALSE(parse.ok());
    EXPECT_EQ(parse.status().code(), StatusCode::ParseError);

    // The throwing wrappers stay FatalError-compatible.
    std::istringstream junk2("not a dataset at all");
    EXPECT_THROW(loadDataset(junk2), FatalError);

    // Round-trip through the try* path.
    Dataset ds;
    ds.X = randomMatrix(96, 6, 0x44);
    ds.y.assign(96, 1.5f);
    ds.segments.push_back({"seg", 0, 96});
    std::stringstream buf;
    ASSERT_TRUE(trySaveDataset(buf, ds).ok());
    StatusOr<Dataset> back = tryLoadDataset(buf);
    ASSERT_TRUE(back.ok()) << back.status().toString();
    EXPECT_EQ(back->cycles(), 96u);
    EXPECT_EQ(back->segments.size(), 1u);

    std::istringstream vcd_junk("no vars here");
    StatusOr<VcdTrace> vcd = tryParseVcd(vcd_junk);
    ASSERT_FALSE(vcd.ok());
    EXPECT_EQ(vcd.status().code(), StatusCode::ParseError);
}

TEST(PublicApi, InferenceFacadeMatchesSubstrate)
{
    const size_t n = 600, q = 24;
    const BitColumnMatrix Xq = randomMatrix(n, q, 0x55);
    const ApolloModel model = randomModel(q, 0x66);

    const Inference inf(model);
    EXPECT_FALSE(inf.quantized());
    EXPECT_EQ(inf.predict(Xq), model.predictProxies(Xq));

    const SegmentInfo whole{"", 0, n};
    const MultiCycleModel mc{model, 1};
    EXPECT_EQ(inf.predictWindows(Xq, 8),
              mc.predictWindowsProxies(
                    Xq, 8, std::span<const SegmentInfo>(&whole, 1))
                  .value());

    MatrixChunkReader reader(Xq);
    VectorSink sink;
    StatusOr<StreamStats> stats = inf.stream(reader, sink);
    ASSERT_TRUE(stats.ok());
    EXPECT_EQ(sink.values(), model.predictProxies(Xq));

    const QuantizedModel qm = quantizeModel(model, 10);
    const Inference opm(qm, 4);
    EXPECT_TRUE(opm.quantized());
    EXPECT_EQ(opm.predict(Xq), ref::opmSimulate(qm, Xq, 4));
}

TEST(PublicApi, TrainOptionsValidateEagerly)
{
    EXPECT_THROW(TrainOptions().targetQ(0), FatalError);
    EXPECT_THROW(TrainOptions().gamma(1.0), FatalError);
    EXPECT_THROW(TrainOptions().relaxRidge(-1.0), FatalError);

    const TrainOptions opts = TrainOptions()
                                  .targetQ(40)
                                  .gamma(6.0)
                                  .nonneg(true)
                                  .relaxRidge(1e-2)
                                  .selectionCycleCap(5000)
                                  .screen(false)
                                  .parallel(false);
    EXPECT_EQ(opts.config().selection.targetQ, 40u);
    EXPECT_EQ(opts.config().selection.gamma, 6.0);
    EXPECT_TRUE(opts.config().selection.nonneg);
    EXPECT_TRUE(opts.config().relaxNonneg);
    EXPECT_EQ(opts.config().relaxRidge, 1e-2);
    EXPECT_EQ(opts.config().selectionCycleCap, 5000u);
    EXPECT_FALSE(opts.config().selection.screen);
    EXPECT_FALSE(opts.config().selection.parallel);
}

TEST(EmulatorFlow, StreamingBackboneMatchesBatchTrace)
{
    const Netlist netlist = DesignBuilder::build(DesignConfig::tiny());
    ApolloModel model;
    Xoshiro256StarStar rng(0x77);
    for (uint32_t s = 0; s < netlist.signalCount(); s += 5) {
        model.proxyIds.push_back(s);
        model.weights.push_back(
            static_cast<float>(rng() % 1000) / 1000.0f);
    }
    model.intercept = 0.25;

    const Program prog = makeLongWorkload("flowcheck", 3000);
    DesignTimeFlows flows(netlist);
    const FlowReport streamed = flows.runEmulatorFlow(prog, 2500, model);

    // Reference: materialize the proxy trace, batch-predict.
    DatasetBuilder builder(netlist);
    builder.addProgram(prog, 2500);
    const BitColumnMatrix proxies = DatasetBuilder::traceProxies(
        builder.engine(), builder.frames(), model.proxyIds,
        builder.segmentBeginTable());
    EXPECT_EQ(streamed.power, model.predictProxies(proxies));
    EXPECT_EQ(streamed.cycles, builder.frames().size());

    // Sink-based variant: report carries no power, sink gets it all.
    VectorSink sink;
    const FlowReport sunk = flows.runEmulatorFlowStreaming(
        prog, 2500, model, sink, StreamConfig().withChunkCycles(512));
    EXPECT_TRUE(sunk.power.empty());
    EXPECT_EQ(sink.values(), streamed.power);
}

TEST(EmulatorFlow, FrameChunksConcatenateToTraceProxies)
{
    // Three segments (one of a single cycle); every chunk size yields
    // the rows of the whole-trace traceProxies output.
    const Netlist netlist = DesignBuilder::build(DesignConfig::tiny());
    DatasetBuilder builder(netlist);
    builder.addProgram(makeLongWorkload("a", 3000, 1), 700);
    builder.addProgram(makeLongWorkload("b", 3000, 2), 1);
    builder.addProgram(makeLongWorkload("c", 3000, 3), 650);
    std::vector<uint32_t> ids;
    for (uint32_t s = 0; s < netlist.signalCount(); s += 5)
        ids.push_back(s);
    const BitColumnMatrix whole = DatasetBuilder::traceProxies(
        builder.engine(), builder.frames(), ids,
        builder.segmentBeginTable());
    ASSERT_EQ(whole.rows(), 1351u);

    for (const size_t rows : {1, 63, 64, 65, 1000}) {
        FrameProxyChunkReader reader(builder.engine(), builder.frames(),
                                     ids, builder.segmentBeginTable());
        ProxyChunk chunk;
        size_t pos = 0;
        for (;;) {
            const StatusOr<size_t> got = reader.next(rows, chunk);
            ASSERT_TRUE(got.ok()) << got.status().toString();
            if (*got == 0)
                break;
            ASSERT_EQ(chunk.firstCycle, pos);
            for (size_t q = 0; q < ids.size(); ++q)
                for (size_t i = 0; i < *got; ++i)
                    ASSERT_EQ(chunk.bits.get(i, q), whole.get(pos + i, q))
                        << "chunk rows=" << rows << " row=" << pos + i
                        << " sig=" << ids[q];
            pos += *got;
        }
        EXPECT_EQ(pos, whole.rows()) << "chunk rows=" << rows;
    }
}

} // namespace
} // namespace apollo
