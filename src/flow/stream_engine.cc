#include "flow/stream_engine.hh"

#include <algorithm>
#include <bit>
#include <chrono>
#include <ostream>

#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "opm/opm_bitparallel.hh"
#include "opm/opm_simulator.hh"
#include "util/popcnt_kernels.hh"
#include "util/thread_pool.hh"

namespace apollo {

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** One in-flight chunk plus its per-cycle sums. */
struct Slot
{
    ProxyChunk chunk;
    ChunkSums sums;

    uint64_t
    bufferBytes() const
    {
        return chunk.bits.byteSize() + sums.bufferBytes();
    }
};

/** Wraps a sink to attribute time spent inside consume(). */
class TimedSink : public PowerSink
{
  public:
    TimedSink(PowerSink &inner, double &seconds)
        : inner_(inner), seconds_(seconds)
    {}

    Status
    consume(uint64_t first_index, std::span<const float> values) override
    {
        auto t0 = Clock::now();
        Status st = inner_.consume(first_index, values);
        seconds_ += secondsSince(t0);
        return st;
    }

  private:
    PowerSink &inner_;
    double &seconds_;
};

} // namespace

StreamPipeline::StreamPipeline(const ApolloModel &model, uint32_t window_T)
    : model_(&model), windowT_(window_T)
{
    APOLLO_REQUIRE(!model.proxyIds.empty(), "empty model");
    APOLLO_REQUIRE(model.weights.size() == model.proxyIds.size(),
                   "model weight/proxy arity mismatch");
    if (window_T > 0)
        fold_.emplace(window_T, model.intercept);
}

StreamPipeline::StreamPipeline(const QuantizedModel &model, uint32_t T)
    : qmodel_(&model), windowT_(T)
{
    // The simulator runs the width/argument checks eagerly (invalid T
    // or an empty model is a configuration error) and carries the
    // per-stream accumulator state.
    sim_.emplace(model, T);
}

size_t
StreamPipeline::proxyCount() const
{
    return qmodel_ ? qmodel_->proxyCount() : model_->proxyCount();
}

void
StreamPipeline::computeSums(const BitColumnMatrix &bits,
                            ChunkSums &out) const
{
    out.rows = bits.rows();
    if (qmodel_) {
        // Bit-parallel: one weighted popcount pass per column, 64
        // cycles per word, directly onto the stream's window grid
        // (out.windowPhase0). Never materializes per-cycle rows or
        // sums.
        opmSegmentSums(*qmodel_, windowT_, out.windowPhase0, bits,
                       bits.rows(), popkernels::kernels(), out.segSums);
    } else {
        // Per-cycle predictions, or in windowed mode the weighted sums
        // without intercept (the window fold adds it once per window).
        out.fsums.resize(bits.rows());
        model_->cycleSums(bits, ApolloModel::Layout::Proxies,
                          windowT_ > 0
                              ? 0.0f
                              : static_cast<float>(model_->intercept),
                          out.fsums);
    }
}

Status
StreamPipeline::emit(const ChunkSums &sums, PowerSink &sink)
{
    Status sunk = Status::okStatus();
    cycles_ += sums.rows;
    if (qmodel_ || fold_) {
        staging_.clear();
        if (qmodel_) {
            // Replay the precomputed segment sums: the chunk's
            // leading segment continues the window the previous chunk
            // left open (the accumulator carried it), so the phases
            // must agree.
            APOLLO_ASSERT(sums.rows == 0 ||
                              sim_->phase() == sums.windowPhase0,
                          "bit-parallel chunk emitted out of stream "
                          "order");
            sim_->replaySegments(sums.segSums, sums.rows, staging_);
        } else {
            fold_->push(std::span<const float>(sums.fsums.data(),
                                               sums.rows),
                        staging_);
        }
        if (!staging_.empty())
            sunk = sink.consume(outputs_, staging_);
        outputs_ += staging_.size();
    } else {
        sunk = sink.consume(
            sums.firstCycle,
            std::span<const float>(sums.fsums.data(), sums.rows));
        outputs_ += sums.rows;
    }
    if (sunk.code() == StatusCode::Cancelled) {
        // A cancelled stream must leave no partial-window residue: a
        // session slot reusing this pipeline would otherwise fold the
        // dead stream's accumulator into its first window.
        if (fold_)
            fold_->reset();
        if (sim_)
            sim_->reset();
    }
    return sunk;
}

void
StreamPipeline::reset()
{
    if (fold_)
        fold_->reset();
    if (sim_)
        sim_->reset();
    cycles_ = 0;
    outputs_ = 0;
}

Status
StreamConfig::validate() const
{
    if (chunkCycles == 0)
        return Status::invalidArgument("chunkCycles must be positive");
    if (windowT != 0 && !std::has_single_bit(windowT))
        return Status::invalidArgument("windowT must be a power of two, "
                                       "got ",
                                       windowT);
    return Status::okStatus();
}

RingBufferSink::RingBufferSink(size_t capacity) : capacity_(capacity)
{
    APOLLO_REQUIRE(capacity > 0, "ring buffer needs capacity > 0");
}

Status
RingBufferSink::consume(uint64_t, std::span<const float> values)
{
    totalSeen_ += values.size();
    // Only the last capacity_ values of a large batch can survive.
    const size_t keep = std::min(values.size(), capacity_);
    if (keep < values.size())
        ring_.clear();
    for (size_t i = values.size() - keep; i < values.size(); ++i) {
        if (ring_.size() == capacity_)
            ring_.pop_front();
        ring_.push_back(values[i]);
    }
    return Status::okStatus();
}

std::vector<float>
RingBufferSink::latest() const
{
    return std::vector<float>(ring_.begin(), ring_.end());
}

CsvPowerSink::CsvPowerSink(std::ostream &os, bool header) : os_(os)
{
    if (header)
        os_ << "index,power\n";
}

Status
CsvPowerSink::consume(uint64_t first_index, std::span<const float> values)
{
    for (size_t i = 0; i < values.size(); ++i)
        os_ << first_index + i << ',' << values[i] << '\n';
    if (!os_)
        return Status::ioError("CSV power sink write failed");
    return Status::okStatus();
}

Status
CsvPowerSink::finish(uint64_t)
{
    os_.flush();
    if (!os_)
        return Status::ioError("CSV power sink flush failed");
    return Status::okStatus();
}

StreamingInference::StreamingInference(ApolloModel model)
    : model_(std::move(model))
{
    APOLLO_REQUIRE(!model_.proxyIds.empty(), "empty model");
    APOLLO_REQUIRE(model_.weights.size() == model_.proxyIds.size(),
                   "model weight/proxy arity mismatch");
}

StreamingInference::StreamingInference(QuantizedModel model, uint32_t T)
    : qmodel_(std::move(model)), qwindowT_(T)
{
    // Construct a simulator once to run the width/argument checks
    // eagerly (invalid T or an empty model is a configuration error).
    OpmSimulator checker(*qmodel_, T);
    (void)checker;
}

size_t
StreamingInference::proxyCount() const
{
    return qmodel_ ? qmodel_->proxyCount() : model_.proxyCount();
}

StatusOr<StreamStats>
StreamingInference::run(ProxyChunkReader &reader, PowerSink &sink,
                        const StreamConfig &config) const
{
    if (Status s = config.validate(); !s.ok())
        return s;

    const bool quantized = qmodel_.has_value();
    if (quantized && config.windowT != 0 && config.windowT != qwindowT_)
        return Status::invalidArgument(
            "quantized engine runs at its construction window T=",
            qwindowT_, ", config requested ", config.windowT);
    const uint32_t T = quantized ? qwindowT_ : config.windowT;

    // Arity is validated per chunk below: file/VCD readers only learn
    // their proxy count after the first read.
    const size_t q = proxyCount();

    const size_t in_flight =
        config.chunksInFlight
            ? config.chunksInFlight
            : std::max<size_t>(2, ThreadPool::global().threadCount());

    APOLLO_TRACE_SPAN("stream.run");
    APOLLO_GAUGE_SET("apollo.stream.chunks_in_flight",
                     static_cast<double>(in_flight));

    std::vector<Slot> slots(in_flight);
    StreamStats stats;

    // All sequential state carried across chunks (the float Eq. 9
    // window accumulator, the OPM accumulator) lives in the pipeline;
    // this run owns a fresh one, so runs never see each other's state.
    StreamPipeline pipe = quantized ? StreamPipeline(*qmodel_, T)
                                    : StreamPipeline(model_, T);

    // Sink time is the backpressure signal: a slow consumer shows up
    // here, not in the compute stages.
    double sink_seconds = 0.0;
    TimedSink timed_sink(sink, sink_seconds);

    bool at_end = false;
    // Cycles handed to the pipeline so far: the window phase of each
    // chunk's first row is known before the parallel compute stage
    // runs, because slots fill sequentially.
    uint64_t stream_pos = 0;
    while (!at_end && !stats.cancelled) {
        // 1) Fill slots. Readers are sequential by contract, so reads
        //    are not parallelized; compute below is.
        size_t filled = 0;
        auto t0 = Clock::now();
        while (filled < in_flight) {
            Slot &slot = slots[filled];
            StatusOr<size_t> got =
                reader.next(config.chunkCycles, slot.chunk);
            if (!got.ok())
                return got.status();
            if (*got == 0) {
                at_end = true;
                break;
            }
            if (*got != slot.chunk.rows())
                return Status::invalidArgument(
                    "reader reported ", *got, " rows for a chunk of ",
                    slot.chunk.rows());
            if (slot.chunk.proxies() != q)
                return Status::invalidArgument(
                    "reader serves ", slot.chunk.proxies(),
                    " proxies, model expects ", q);
            slot.sums.firstCycle = slot.chunk.firstCycle;
            slot.sums.windowPhase0 =
                T ? static_cast<uint32_t>(stream_pos % T) : 0;
            stream_pos += *got;
            stats.chunks++;
            stats.cycles += *got;
            stats.traceBytes += slot.chunk.bits.byteSize();
            filled++;
        }
        stats.readSeconds += secondsSince(t0);
        if (filled == 0)
            break;

        // 2) Per-cycle sums for all filled slots, slot-parallel. The
        //    compute stage is pure per chunk, so the split cannot
        //    change values.
        auto t1 = Clock::now();
        parallelFor(filled, [&](size_t s0, size_t s1) {
            for (size_t s = s0; s < s1; ++s)
                pipe.computeSums(slots[s].chunk.bits, slots[s].sums);
        });

        // 3) Ordered emission: replay slot results in cycle order
        //    through the sequential pipeline state.
        for (size_t s = 0; s < filled && !stats.cancelled; ++s) {
            Status sunk = pipe.emit(slots[s].sums, timed_sink);
            if (!sunk.ok()) {
                if (sunk.code() == StatusCode::Cancelled)
                    stats.cancelled = true;
                else
                    return sunk;
            }
        }
        stats.outputs = pipe.outputs();
        stats.inferSeconds += secondsSince(t1);

        uint64_t held = 0;
        for (const Slot &slot : slots)
            held += slot.bufferBytes();
        held += pipe.bufferBytes();
        stats.peakBufferBytes = std::max(stats.peakBufferBytes, held);
    }

    if (Status fin = sink.finish(stats.outputs); !fin.ok() &&
        fin.code() != StatusCode::Cancelled)
        return fin;

    APOLLO_COUNT("apollo.stream.runs", 1);
    APOLLO_COUNT("apollo.stream.chunks", stats.chunks);
    APOLLO_COUNT("apollo.stream.cycles", stats.cycles);
    APOLLO_COUNT("apollo.stream.outputs", stats.outputs);
    if (stats.cancelled)
        APOLLO_COUNT("apollo.stream.cancelled", 1);
    if (APOLLO_OBS_ON()) {
        if (stats.inferSeconds > 0.0)
            APOLLO_GAUGE_SET("apollo.stream.cycles_per_sec",
                             static_cast<double>(stats.cycles) /
                                 stats.inferSeconds);
        APOLLO_OBSERVE("apollo.stream.sink_seconds", sink_seconds,
                       ::apollo::obs::latencyBounds());
    }
    return stats;
}

} // namespace apollo
