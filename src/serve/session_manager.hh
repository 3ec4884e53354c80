/**
 * @file
 * The multi-session power-introspection server core: N concurrent
 * trace-to-power sessions multiplexed over one shared worker pool.
 *
 * Each session is an independent stream with the same contract as the
 * one-stream engine (flow/stream_engine.hh): chunks of packed proxy
 * toggle bits go in, power samples come out of a caller-owned
 * PowerSink, and StatusCode::Cancelled from the sink stops the
 * session gracefully. What the manager adds is the multiplexing:
 *
 *  - async ingestion: submitChunk() enqueues and returns; compute and
 *    sink delivery happen on the shared workers;
 *  - per-session state: the window/OPM accumulator state
 *    (StreamPipeline) is per session and carried across chunks, so a
 *    session's output is bit-identical to running its chunk sequence
 *    through StreamingInference alone — at ANY worker count
 *    (tests/test_serve.cc pins this);
 *  - strand execution: a session is processed by at most one worker
 *    at a time, in submission order, with a per-dispatch chunk budget
 *    so no session starves the others;
 *  - backpressure: each session's input queue is bounded
 *    (ServeConfig::maxQueuedChunks); submitChunk() blocks until the
 *    workers drain the queue, and every blocked entry counts into
 *    apollo.serve.backpressure_stalls;
 *  - shared models: sessions resolve a ModelRegistry entry at
 *    creation and share its immutable weights;
 *  - slot reuse: session ids carry a generation, so a stale id to a
 *    reused slot is InvalidArgument, never silent cross-talk, and a
 *    freed slot's pipeline state is destroyed (a cancelled session's
 *    partial window can never leak into the next session).
 *
 * Obs surface (`apollo.serve.*`): active_sessions and queue_depth
 * gauges, sessions/chunks/cycles/outputs/backpressure_stalls
 * counters, chunks_per_sec gauge refreshed as sessions close, and per
 * engine (`.float`, `.quantized`) two histograms over
 * obs::fineLatencyBounds(): chunk_wait_seconds (submit to a worker's
 * dequeue) and chunk_compute_seconds (computeSums plus emit). Each
 * strand drain is one `serve.drain` trace span.
 */

#ifndef APOLLO_SERVE_SESSION_MANAGER_HH
#define APOLLO_SERVE_SESSION_MANAGER_HH

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "flow/stream_engine.hh"
#include "serve/model_registry.hh"
#include "util/status.hh"

namespace apollo::serve {

/** Serving-layer tuning knobs. Setters validate via validate(). */
struct ServeConfig
{
    /** Worker threads; 0 = hardware_concurrency (at least 1); at most
     *  kMaxWorkerThreads (util/thread_pool.hh). */
    size_t threads = 0;
    /** Session slot table size (concurrent session bound). */
    size_t maxSessions = 64;
    /** Per-session input queue bound — the backpressure depth. */
    size_t maxQueuedChunks = 4;

    ServeConfig &
    withThreads(size_t n)
    {
        threads = n;
        return *this;
    }

    ServeConfig &
    withMaxSessions(size_t n)
    {
        maxSessions = n;
        return *this;
    }

    ServeConfig &
    withMaxQueuedChunks(size_t n)
    {
        maxQueuedChunks = n;
        return *this;
    }

    /** Ok, or InvalidArgument naming the offending field. */
    Status validate() const;
};

/** Per-session creation options. */
struct SessionOptions
{
    /** Registry name of the model to serve. */
    std::string model;
    /**
     * Float-engine Eq. (9) window (power of two; 0 = per-cycle).
     * Quantized entries always run at their registered window T; a
     * non-zero value here must match it.
     */
    uint32_t windowT = 0;
};

/**
 * Opaque session handle: slot index + generation. A closed session's
 * id never aliases the slot's next tenant.
 */
struct SessionId
{
    uint64_t value = 0;

    bool valid() const { return value != 0; }
    bool operator==(const SessionId &) const = default;
};

/** Final accounting returned by closeSession(). */
struct SessionSummary
{
    std::string model;
    uint64_t cycles = 0;
    uint64_t chunks = 0;
    uint64_t outputs = 0;
    /** The sink (or cancelSession) stopped the stream early. */
    bool cancelled = false;
};

/** Manager-wide counters (a consistent snapshot of the atomics). */
struct ServeStats
{
    uint64_t sessionsCreated = 0;
    uint64_t sessionsClosed = 0;
    uint64_t sessionsCancelled = 0;
    uint64_t chunks = 0;
    uint64_t cycles = 0;
    uint64_t outputs = 0;
    uint64_t backpressureStalls = 0;
    size_t activeSessions = 0;
    size_t queuedChunks = 0;
};

/**
 * The session manager. Construct once per service, create/feed/close
 * sessions from any thread. Sinks are caller-owned, must outlive
 * their session until closeSession() returns, and are invoked from
 * worker threads (one at a time per session, in cycle order).
 *
 * Destroying the manager with sessions still open abandons them:
 * queued chunks are dropped and PowerSink::finish() is not called —
 * close sessions first for a clean shutdown.
 */
class SessionManager
{
  public:
    explicit SessionManager(std::shared_ptr<const ModelRegistry> registry,
                            ServeConfig config = {});
    ~SessionManager();

    SessionManager(const SessionManager &) = delete;
    SessionManager &operator=(const SessionManager &) = delete;

    /**
     * Open a session against a registered model. InvalidArgument for
     * unknown models or bad window options, OutOfRange when all
     * maxSessions slots are occupied.
     */
    StatusOr<SessionId> createSession(const SessionOptions &options,
                                      PowerSink *sink);

    /**
     * Enqueue one chunk of packed proxy toggle bits (columns in the
     * model's proxy order). Blocks while the session's queue is full.
     * Returns Cancelled once the session has been cancelled, or the
     * first non-Cancelled sink error.
     */
    Status submitChunk(SessionId id, BitColumnMatrix bits);

    /**
     * Stop a session early: queued chunks are dropped, in-flight work
     * finishes, later submits return Cancelled. closeSession() still
     * runs the normal drain/finish path.
     */
    Status cancelSession(SessionId id);

    /**
     * Drain the session, call the sink's finish(), free the slot, and
     * return the final accounting. The first non-Cancelled sink error
     * (from consume or finish) is returned instead — the slot is
     * freed either way.
     */
    StatusOr<SessionSummary> closeSession(SessionId id);

    /** Registry metadata passthrough (the ListModels call). */
    std::vector<ModelInfo> listModels() const;

    ServeStats stats() const;
    size_t threadCount() const { return workers_.size(); }
    const ServeConfig &config() const { return config_; }

  private:
    struct PendingChunk
    {
        BitColumnMatrix bits;
        uint64_t firstCycle = 0;
        /** When submitChunk queued it (set only while metrics are on). */
        std::chrono::steady_clock::time_point enqueued;
    };

    struct Session
    {
        std::mutex mu;
        std::condition_variable cv;
        uint32_t generation = 1;
        bool open = false;
        bool closing = false;
        bool cancelled = false;
        /** A worker owns this session (strand token). */
        bool scheduled = false;
        std::deque<PendingChunk> queue;
        std::shared_ptr<const ModelEntry> entry;
        std::optional<StreamPipeline> pipe;
        ChunkSums sums; ///< per-session compute scratch
        PowerSink *sink = nullptr;
        Status sinkError;
        uint64_t acceptedCycles = 0;
        uint64_t chunksIn = 0;
        std::chrono::steady_clock::time_point createdAt;
    };

    void workerLoop();
    void processSession(size_t slot);
    void scheduleLocked(Session &session, size_t slot);
    /** nullptr + status when the id is stale/invalid. */
    Session *resolve(SessionId id, Status *error);

    std::shared_ptr<const ModelRegistry> registry_;
    ServeConfig config_;

    std::vector<std::unique_ptr<Session>> slots_;

    std::mutex mu_; ///< guards runQueue_, freeSlots_, shutdown_
    std::condition_variable workCv_;
    std::deque<size_t> runQueue_;
    std::vector<size_t> freeSlots_;
    bool shutdown_ = false;

    std::vector<std::thread> workers_;

    std::atomic<uint64_t> sessionsCreated_{0};
    std::atomic<uint64_t> sessionsClosed_{0};
    std::atomic<uint64_t> sessionsCancelled_{0};
    std::atomic<uint64_t> chunksIn_{0};
    std::atomic<uint64_t> cyclesIn_{0};
    std::atomic<uint64_t> outputs_{0};
    std::atomic<uint64_t> backpressureStalls_{0};
    std::atomic<size_t> activeSessions_{0};
    std::atomic<size_t> queuedChunks_{0};
};

} // namespace apollo::serve

#endif // APOLLO_SERVE_SESSION_MANAGER_HH
