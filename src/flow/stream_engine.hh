/**
 * @file
 * Bounded-memory streaming inference: the trace-to-power pipeline that
 * turns any ProxyChunkReader (trace/stream_reader.hh) into a stream of
 * power samples delivered to a PowerSink, without ever holding the full
 * trace or the full output in memory.
 *
 * The engine works in rounds: it reads up to chunksInFlight chunks,
 * computes each chunk's per-cycle sums in parallel (the chunks are
 * independent), then replays the results through the sequential
 * window/accumulator state in cycle order. Results are bit-identical to
 * the batch paths:
 *
 *  - per-cycle float: each chunk worker calls the one per-cycle float
 *    kernel, ApolloModel::cycleSums, that the batch predictProxies()
 *    uses, and per output element the float additions (intercept, then
 *    w_q per set bit in ascending q) do not depend on row chunking;
 *  - windowed float (Eq. 9): the same kernel started at 0, as in
 *    MultiCycleModel::predictWindowsProxies, then the same WindowFold
 *    (core/multi_cycle.hh), carried across chunk boundaries, emitting
 *    float(intercept + acc/T) every T cycles;
 *  - quantized: integer sums are exact in any evaluation order, so
 *    the parallel stage computes one weighted-popcount sum per
 *    T-cycle window segment (opmSegmentSums) and the ordered
 *    OpmSimulator::stepSegment replay equals OpmSimulator::simulate(),
 *    which runs the same kernel over the whole matrix.
 *
 * Peak memory is O(chunksInFlight * chunkCycles * Q / 8) regardless of
 * trace length (StreamStats::peakBufferBytes reports the engine's
 * accounting; bench/bench_stream_infer.cc checks it stays flat at 10x
 * the trace length).
 */

#ifndef APOLLO_FLOW_STREAM_ENGINE_HH
#define APOLLO_FLOW_STREAM_ENGINE_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <iosfwd>
#include <optional>
#include <span>
#include <vector>

#include "core/apollo_model.hh"
#include "core/multi_cycle.hh"
#include "opm/opm_simulator.hh"
#include "opm/quantize.hh"
#include "trace/stream_reader.hh"
#include "util/status.hh"

namespace apollo {

/**
 * Tuning knobs for a streaming run. Defaults are chosen so that one
 * in-flight chunk (16384 cycles x Q bits plus one float per cycle)
 * fits comfortably in L2 on current cores:
 *
 *   chunkCycles    16384  rows per chunk served to the workers
 *   chunksInFlight 0      auto: max(2, worker threads)
 *   windowT        0      per-cycle output; a power of two T enables
 *                         Eq. (9) window averaging (float engine only —
 *                         the quantized engine fixes T at construction)
 *
 * Setters validate eagerly and chain:
 *   StreamConfig().withChunkCycles(4096).withWindowT(32)
 */
struct StreamConfig
{
    size_t chunkCycles = 1 << 14;
    size_t chunksInFlight = 0;
    uint32_t windowT = 0;

    StreamConfig &
    withChunkCycles(size_t cycles)
    {
        chunkCycles = cycles;
        return *this;
    }

    StreamConfig &
    withChunksInFlight(size_t chunks)
    {
        chunksInFlight = chunks;
        return *this;
    }

    StreamConfig &
    withWindowT(uint32_t T)
    {
        windowT = T;
        return *this;
    }

    /** Ok, or InvalidArgument naming the offending field. */
    Status validate() const;
};

/**
 * Receives power samples in order. @p first_index is the global index
 * of values[0]: a cycle index in per-cycle mode, a window index in
 * windowed/quantized mode. Returning a non-ok Status stops the run;
 * StatusCode::Cancelled stops it gracefully (the engine still calls
 * finish() and reports stats), any other code aborts with that error.
 */
class PowerSink
{
  public:
    virtual ~PowerSink() = default;

    virtual Status consume(uint64_t first_index,
                           std::span<const float> values) = 0;

    /** Called once after the last consume() with the sample total. */
    virtual Status finish(uint64_t) { return Status::okStatus(); }
};

/** Collects every sample into a vector (tests, short traces). */
class VectorSink : public PowerSink
{
  public:
    Status
    consume(uint64_t, std::span<const float> values) override
    {
        values_.insert(values_.end(), values.begin(), values.end());
        return Status::okStatus();
    }

    const std::vector<float> &values() const { return values_; }
    std::vector<float> takeValues() { return std::move(values_); }

  private:
    std::vector<float> values_;
};

/** Forwards every batch of samples to a callback. */
class CallbackSink : public PowerSink
{
  public:
    using Fn = std::function<Status(uint64_t, std::span<const float>)>;

    explicit CallbackSink(Fn fn) : fn_(std::move(fn)) {}

    Status
    consume(uint64_t first_index, std::span<const float> values) override
    {
        return fn_(first_index, values);
    }

  private:
    Fn fn_;
};

/**
 * Keeps only the most recent @p capacity samples — the runtime
 * introspection shape: a power-management agent polling a rolling
 * window of OPM output.
 */
class RingBufferSink : public PowerSink
{
  public:
    explicit RingBufferSink(size_t capacity);

    Status consume(uint64_t first_index,
                   std::span<const float> values) override;

    /** Samples currently held, oldest first. */
    std::vector<float> latest() const;
    /** Global index of the oldest held sample. */
    uint64_t firstIndex() const { return totalSeen_ - ring_.size(); }
    uint64_t totalSeen() const { return totalSeen_; }

  private:
    size_t capacity_;
    std::deque<float> ring_;
    uint64_t totalSeen_ = 0;
};

/** Writes "index,power" CSV rows as samples arrive. */
class CsvPowerSink : public PowerSink
{
  public:
    /** @p os is kept by reference. */
    explicit CsvPowerSink(std::ostream &os, bool header = true);

    Status consume(uint64_t first_index,
                   std::span<const float> values) override;
    Status finish(uint64_t total) override;

  private:
    std::ostream &os_;
};

/**
 * One chunk's precomputed per-cycle sums — the output of the pure,
 * thread-safe compute stage of the pipeline. Float engines fill
 * fsums (weighted sums, no intercept in windowed mode; full
 * prediction in per-cycle mode). The quantized engine fills segSums
 * (one exact integer adder-tree sum per T-cycle window segment,
 * computed bit-parallel from the packed 64-cycle words).
 *
 * windowPhase0 is the stream's window phase at the chunk's first row
 * (firstCycle mod T for consecutive chunks from phase zero); callers
 * must set it before computeSums() so the bit-parallel stage splits
 * segments on the stream's window grid, not the chunk's. A window
 * that straddles the chunk boundary becomes a trailing partial
 * segment here and a leading one in the next chunk; the simulator's
 * accumulator carries it across.
 */
struct ChunkSums
{
    size_t rows = 0;
    uint64_t firstCycle = 0;
    uint32_t windowPhase0 = 0;
    std::vector<float> fsums;
    std::vector<int64_t> segSums;

    uint64_t
    bufferBytes() const
    {
        return fsums.capacity() * sizeof(float) +
               segSums.capacity() * sizeof(int64_t);
    }
};

/**
 * The per-stream trace-to-power pipeline, split into its two stages so
 * that one shared thread pool can multiplex many concurrent streams
 * (src/serve/session_manager.hh) over the exact same arithmetic the
 * one-stream StreamingInference engine runs:
 *
 *  - computeSums() is a pure function of one chunk (no pipeline state
 *    touched), safe to evaluate for many chunks / many pipelines in
 *    parallel;
 *  - emit() replays precomputed sums *in cycle order* through the
 *    sequential window/OPM state and delivers samples to a sink.
 *
 * Because all carried state (window accumulator + phase, OPM
 * accumulator) lives here and nowhere else, a stream's output depends
 * only on its own chunk sequence — which is what makes K concurrent
 * serving sessions bit-identical to K sequential runs at any thread
 * count. The referenced models are kept by pointer, so every stream
 * over one registry entry shares the same immutable weights (the
 * quantized pipeline's OpmSimulator additionally carries its own
 * small fixed-point copy as part of the accumulator state). Callers
 * guarantee the model outlives the pipeline.
 */
class StreamPipeline
{
  public:
    /**
     * Float-weight pipeline: per-cycle output, or Eq. (9) windows when
     * @p window_T > 0 (power of two, validated by the callers).
     */
    explicit StreamPipeline(const ApolloModel &model,
                            uint32_t window_T = 0);

    /**
     * Quantized bit-true OPM pipeline (one sample per T-cycle
     * window). The compute stage runs bit-parallel: one weighted
     * popcount pass per column per chunk (opm/opm_bitparallel.hh,
     * with the process-wide dispatch of util/popcnt_kernels.hh).
     */
    StreamPipeline(const QuantizedModel &model, uint32_t T);

    bool quantized() const { return qmodel_ != nullptr; }
    size_t proxyCount() const;
    uint32_t windowT() const { return windowT_; }

    /** Cycles consumed and samples emitted so far (across chunks). */
    uint64_t cycles() const { return cycles_; }
    uint64_t outputs() const { return outputs_; }

    /**
     * Stage 1 (pure): per-cycle sums of every row of @p bits into
     * @p out (out.rows = bits.rows()). Does not read or write pipeline
     * state, so concurrent calls on one pipeline are safe. Quantized
     * pipelines read out.windowPhase0 (set it to the stream's window
     * phase at the chunk's first row before calling; a fresh
     * pipeline's first chunk is phase 0, the default).
     */
    void computeSums(const BitColumnMatrix &bits, ChunkSums &out) const;

    /**
     * Stage 2 (sequential): advance the window/OPM state through
     * @p sums and deliver completed samples to @p sink. Chunks must be
     * emitted in cycle order. Returns the sink's status; on
     * StatusCode::Cancelled the partial-window state is RESET so a
     * later stream over a reused pipeline cannot inherit it.
     */
    Status emit(const ChunkSums &sums, PowerSink &sink);

    /** Drop all carried state (fresh-stream condition, counters zeroed). */
    void reset();

    /** Engine-owned staging bytes (peak-buffer accounting). */
    uint64_t
    bufferBytes() const
    {
        return staging_.capacity() * sizeof(float);
    }

  private:
    const ApolloModel *model_ = nullptr;
    const QuantizedModel *qmodel_ = nullptr;
    uint32_t windowT_ = 0;
    std::optional<OpmSimulator> sim_;
    std::optional<WindowFold> fold_;
    uint64_t cycles_ = 0;
    uint64_t outputs_ = 0;
    std::vector<float> staging_;
};

/** Accounting for one streaming run. */
struct StreamStats
{
    uint64_t cycles = 0;   ///< trace cycles consumed
    uint64_t outputs = 0;  ///< power samples delivered to the sink
    uint64_t chunks = 0;   ///< chunks read
    double readSeconds = 0.0;   ///< time inside reader.next()
    double inferSeconds = 0.0;  ///< compute + ordered emission time
    uint64_t traceBytes = 0;    ///< packed proxy-trace bytes streamed
    /** High-water mark of engine-owned buffers (chunks + sums). */
    uint64_t peakBufferBytes = 0;
    bool cancelled = false;  ///< a sink returned Cancelled
};

/**
 * The streaming inference engine. Construct once per model; run() is
 * const and carries no state between calls, so one engine can serve
 * many traces.
 */
class StreamingInference
{
  public:
    /**
     * Float-weight engine over a proxy-layout trace. Output mode is
     * per-cycle, or Eq. (9) windows when config.windowT > 0.
     */
    explicit StreamingInference(ApolloModel model);

    /**
     * Quantized fixed-point engine: bit-true OPM evaluation (one
     * sample per T-cycle window, T a power of two), matching
     * OpmSimulator::simulate() exactly.
     */
    StreamingInference(QuantizedModel model, uint32_t T);

    size_t proxyCount() const;

    /**
     * Pump @p reader to exhaustion through @p sink. Returns run stats,
     * or the first reader/sink/config error. A reader whose next()
     * reports a nonzero row count other than chunk.rows(), or a
     * proxy count other than the model's, is an InvalidArgument.
     */
    StatusOr<StreamStats> run(ProxyChunkReader &reader, PowerSink &sink,
                              const StreamConfig &config = {}) const;

  private:
    ApolloModel model_;
    std::optional<QuantizedModel> qmodel_;
    uint32_t qwindowT_ = 0;
};

} // namespace apollo

#endif // APOLLO_FLOW_STREAM_ENGINE_HH
