#include "serve/session_manager.hh"

#include <algorithm>

#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "util/thread_pool.hh"

namespace apollo::serve {

namespace {

/**
 * Chunks one worker dispatch may drain from a session before handing
 * the session back to the tail of the run queue. Keeps one firehose
 * session from starving the others without giving up batching.
 */
constexpr size_t kDrainBudget = 4;

using Clock = std::chrono::steady_clock;

/** One chunk's queue wait and compute-plus-emit time, per engine. */
void
observeChunk([[maybe_unused]] bool quantized,
             [[maybe_unused]] double wait_s,
             [[maybe_unused]] double compute_s)
{
    [[maybe_unused]] const std::span<const double> bounds =
        obs::fineLatencyBounds();
    if (quantized) {
        APOLLO_OBSERVE("apollo.serve.chunk_wait_seconds.quantized", wait_s,
                       bounds);
        APOLLO_OBSERVE("apollo.serve.chunk_compute_seconds.quantized",
                       compute_s, bounds);
    } else {
        APOLLO_OBSERVE("apollo.serve.chunk_wait_seconds.float", wait_s,
                       bounds);
        APOLLO_OBSERVE("apollo.serve.chunk_compute_seconds.float",
                       compute_s, bounds);
    }
}

uint64_t
encodeId(size_t slot, uint32_t generation)
{
    // generation starts at 1, so encoded ids are never 0 (invalid).
    return (static_cast<uint64_t>(generation) << 32) |
           static_cast<uint64_t>(slot);
}

} // namespace

Status
ServeConfig::validate() const
{
    if (maxSessions == 0)
        return Status::invalidArgument("maxSessions must be positive");
    if (maxQueuedChunks == 0)
        return Status::invalidArgument(
            "maxQueuedChunks must be positive");
    if (threads > kMaxWorkerThreads)
        return Status::invalidArgument("threads must be at most ",
                                       kMaxWorkerThreads, ", got ",
                                       threads);
    return Status::okStatus();
}

SessionManager::SessionManager(
    std::shared_ptr<const ModelRegistry> registry, ServeConfig config)
    : registry_(std::move(registry)), config_(config)
{
    APOLLO_REQUIRE(registry_ != nullptr,
                   "SessionManager needs a model registry");
    if (Status st = config_.validate(); !st.ok())
        fatal(st.message());

    slots_.reserve(config_.maxSessions);
    freeSlots_.reserve(config_.maxSessions);
    for (size_t i = 0; i < config_.maxSessions; ++i)
        slots_.push_back(std::make_unique<Session>());
    // Hand out low slot indices first (stable, debuggable ids).
    for (size_t i = config_.maxSessions; i-- > 0;)
        freeSlots_.push_back(i);

    size_t threads = config_.threads;
    if (threads == 0)
        threads = std::max(1u, std::thread::hardware_concurrency());
    workers_.reserve(threads);
    for (size_t i = 0; i < threads; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

SessionManager::~SessionManager()
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        shutdown_ = true;
    }
    workCv_.notify_all();
    for (std::thread &w : workers_)
        w.join();
}

StatusOr<SessionId>
SessionManager::createSession(const SessionOptions &options,
                              PowerSink *sink)
{
    if (sink == nullptr)
        return Status::invalidArgument("session needs a power sink");
    std::shared_ptr<const ModelEntry> entry =
        registry_->find(options.model);
    if (!entry)
        return Status::invalidArgument("unknown model '", options.model,
                                       "'");
    if (entry->quantized()) {
        if (options.windowT != 0 && options.windowT != entry->windowT)
            return Status::invalidArgument(
                "quantized model '", options.model,
                "' runs at its registered window T=", entry->windowT,
                ", session requested ", options.windowT);
    } else if (options.windowT != 0 &&
               !std::has_single_bit(options.windowT)) {
        return Status::invalidArgument(
            "windowT must be a power of two, got ", options.windowT);
    }

    size_t slot;
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (freeSlots_.empty())
            return Status::outOfRange("all ", config_.maxSessions,
                                      " session slots are in use");
        slot = freeSlots_.back();
        freeSlots_.pop_back();
    }

    Session &session = *slots_[slot];
    std::lock_guard<std::mutex> lock(session.mu);
    session.open = true;
    session.closing = false;
    session.cancelled = false;
    session.scheduled = false;
    session.queue.clear();
    session.entry = entry;
    if (entry->quantized())
        session.pipe.emplace(*entry->qmodel, entry->windowT);
    else
        session.pipe.emplace(*entry->model, options.windowT);
    session.sink = sink;
    session.sinkError = Status::okStatus();
    session.acceptedCycles = 0;
    session.chunksIn = 0;
    session.createdAt = std::chrono::steady_clock::now();

    sessionsCreated_.fetch_add(1, std::memory_order_relaxed);
    const size_t active =
        activeSessions_.fetch_add(1, std::memory_order_relaxed) + 1;
    APOLLO_COUNT("apollo.serve.sessions", 1);
    APOLLO_GAUGE_SET("apollo.serve.active_sessions",
                     static_cast<double>(active));
    return SessionId{encodeId(slot, session.generation)};
}

SessionManager::Session *
SessionManager::resolve(SessionId id, Status *error)
{
    const size_t slot = static_cast<uint32_t>(id.value);
    if (!id.valid() || slot >= slots_.size()) {
        *error = Status::invalidArgument("invalid session id");
        return nullptr;
    }
    return slots_[slot].get();
}

Status
SessionManager::submitChunk(SessionId id, BitColumnMatrix bits)
{
    Status bad = Status::okStatus();
    Session *session = resolve(id, &bad);
    if (!session)
        return bad;
    const uint32_t generation = static_cast<uint32_t>(id.value >> 32);
    const size_t slot = static_cast<uint32_t>(id.value);

    std::unique_lock<std::mutex> lock(session->mu);
    if (!session->open || session->generation != generation)
        return Status::invalidArgument("stale session id");
    if (bits.cols() != session->entry->proxyCount())
        return Status::invalidArgument(
            "chunk carries ", bits.cols(), " proxies, model '",
            session->entry->name, "' expects ",
            session->entry->proxyCount());
    bool stalled = false;
    for (;;) {
        // Re-checked after EVERY wake: a producer parked on
        // backpressure can sleep across cancel+close (and even the
        // slot's re-tenanting); it must never enqueue into a freed
        // slot or the next tenant.
        if (!session->open || session->generation != generation)
            return Status::invalidArgument("stale session id");
        if (session->cancelled)
            return Status::cancelled("session cancelled");
        if (!session->sinkError.ok())
            return session->sinkError;
        if (session->closing)
            return Status::invalidArgument(
                "session is closing; no further chunks");
        if (session->queue.size() < config_.maxQueuedChunks)
            break;
        // Backpressure: the sink side is behind; block the producer
        // until a worker drains the queue.
        if (!stalled) {
            stalled = true;
            backpressureStalls_.fetch_add(1,
                                          std::memory_order_relaxed);
            APOLLO_COUNT("apollo.serve.backpressure_stalls", 1);
        }
        session->cv.wait(lock);
    }

    const size_t rows = bits.rows();
    if (rows == 0)
        return Status::okStatus();

    PendingChunk chunk;
    chunk.firstCycle = session->acceptedCycles;
    chunk.bits = std::move(bits);
    if (APOLLO_OBS_ON())
        chunk.enqueued = Clock::now();
    session->acceptedCycles += rows;
    session->chunksIn++;
    session->queue.push_back(std::move(chunk));
    scheduleLocked(*session, slot);

    chunksIn_.fetch_add(1, std::memory_order_relaxed);
    cyclesIn_.fetch_add(rows, std::memory_order_relaxed);
    const size_t depth =
        queuedChunks_.fetch_add(1, std::memory_order_relaxed) + 1;
    APOLLO_COUNT("apollo.serve.chunks", 1);
    APOLLO_COUNT("apollo.serve.cycles", rows);
    APOLLO_GAUGE_SET("apollo.serve.queue_depth",
                     static_cast<double>(depth));
    return Status::okStatus();
}

Status
SessionManager::cancelSession(SessionId id)
{
    Status bad = Status::okStatus();
    Session *session = resolve(id, &bad);
    if (!session)
        return bad;
    const uint32_t generation = static_cast<uint32_t>(id.value >> 32);

    std::lock_guard<std::mutex> lock(session->mu);
    if (!session->open || session->generation != generation)
        return Status::invalidArgument("stale session id");
    if (!session->cancelled) {
        session->cancelled = true;
        sessionsCancelled_.fetch_add(1, std::memory_order_relaxed);
        APOLLO_COUNT("apollo.serve.cancelled", 1);
    }
    // Drop queued work; the chunk a worker already popped finishes.
    queuedChunks_.fetch_sub(session->queue.size(),
                            std::memory_order_relaxed);
    session->queue.clear();
    session->cv.notify_all();
    return Status::okStatus();
}

StatusOr<SessionSummary>
SessionManager::closeSession(SessionId id)
{
    Status bad = Status::okStatus();
    Session *session = resolve(id, &bad);
    if (!session)
        return bad;
    const uint32_t generation = static_cast<uint32_t>(id.value >> 32);
    const size_t slot = static_cast<uint32_t>(id.value);

    std::unique_lock<std::mutex> lock(session->mu);
    if (!session->open || session->generation != generation)
        return Status::invalidArgument("stale session id");
    if (session->closing)
        return Status::invalidArgument("session already closing");
    session->closing = true;
    session->cv.notify_all();
    // Drain: queued chunks flow through the workers (unless cancelled,
    // which already emptied the queue), then the strand token drops.
    session->cv.wait(lock, [&] {
        return session->queue.empty() && !session->scheduled;
    });

    SessionSummary summary;
    summary.model = session->entry->name;
    summary.cycles = session->pipe->cycles();
    summary.chunks = session->chunksIn;
    summary.outputs = session->pipe->outputs();
    summary.cancelled = session->cancelled;
    Status sink_error = session->sinkError;

    // No worker can touch the session now (queue empty, not scheduled,
    // closing blocks new submits), so finish() is race-free here.
    Status fin = session->sink->finish(summary.outputs);

    if (APOLLO_OBS_ON()) {
        const double seconds =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - session->createdAt)
                .count();
        if (seconds > 0.0 && summary.chunks > 0)
            APOLLO_GAUGE_SET("apollo.serve.chunks_per_sec",
                             static_cast<double>(summary.chunks) /
                                 seconds);
    }

    // Free the slot: bump the generation so the old id goes stale, and
    // destroy the pipeline so no window/OPM state survives into the
    // slot's next tenant. closing/cancelled stay sticky until
    // createSession re-tenants the slot, so a late backpressure waker
    // always sees closed-or-closing state, never a fresh-looking slot.
    session->open = false;
    session->generation++;
    session->pipe.reset();
    session->entry.reset();
    session->sink = nullptr;
    session->sinkError = Status::okStatus();
    session->sums = ChunkSums{};
    session->acceptedCycles = 0;
    session->chunksIn = 0;

    sessionsClosed_.fetch_add(1, std::memory_order_relaxed);
    const size_t active =
        activeSessions_.fetch_sub(1, std::memory_order_relaxed) - 1;
    APOLLO_COUNT("apollo.serve.sessions_closed", 1);
    APOLLO_GAUGE_SET("apollo.serve.active_sessions",
                     static_cast<double>(active));
    {
        std::lock_guard<std::mutex> qlock(mu_);
        freeSlots_.push_back(slot);
    }

    if (!sink_error.ok())
        return sink_error;
    if (!fin.ok() && fin.code() != StatusCode::Cancelled)
        return fin;
    return summary;
}

std::vector<ModelInfo>
SessionManager::listModels() const
{
    return registry_->list();
}

ServeStats
SessionManager::stats() const
{
    ServeStats out;
    out.sessionsCreated =
        sessionsCreated_.load(std::memory_order_relaxed);
    out.sessionsClosed = sessionsClosed_.load(std::memory_order_relaxed);
    out.sessionsCancelled =
        sessionsCancelled_.load(std::memory_order_relaxed);
    out.chunks = chunksIn_.load(std::memory_order_relaxed);
    out.cycles = cyclesIn_.load(std::memory_order_relaxed);
    out.outputs = outputs_.load(std::memory_order_relaxed);
    out.backpressureStalls =
        backpressureStalls_.load(std::memory_order_relaxed);
    out.activeSessions = activeSessions_.load(std::memory_order_relaxed);
    out.queuedChunks = queuedChunks_.load(std::memory_order_relaxed);
    return out;
}

void
SessionManager::scheduleLocked(Session &session, size_t slot)
{
    if (session.scheduled)
        return;
    session.scheduled = true;
    {
        std::lock_guard<std::mutex> lock(mu_);
        runQueue_.push_back(slot);
    }
    workCv_.notify_one();
}

void
SessionManager::workerLoop()
{
    for (;;) {
        size_t slot;
        {
            std::unique_lock<std::mutex> lock(mu_);
            workCv_.wait(lock, [&] {
                return shutdown_ || !runQueue_.empty();
            });
            if (shutdown_)
                return;
            slot = runQueue_.front();
            runQueue_.pop_front();
        }
        processSession(slot);
    }
}

void
SessionManager::processSession(size_t slot)
{
    APOLLO_TRACE_SPAN("serve.drain");
    Session &session = *slots_[slot];
    size_t budget = kDrainBudget;
    for (;;) {
        PendingChunk chunk;
        {
            std::unique_lock<std::mutex> lock(session.mu);
            if (session.queue.empty()) {
                // Strand token drops; submitChunk re-schedules.
                session.scheduled = false;
                session.cv.notify_all();
                return;
            }
            if (budget == 0) {
                // Fairness: hand the session back to the tail of the
                // run queue, keeping the strand token so no second
                // worker can enter meanwhile.
                std::lock_guard<std::mutex> qlock(mu_);
                runQueue_.push_back(slot);
                workCv_.notify_one();
                return;
            }
            chunk = std::move(session.queue.front());
            session.queue.pop_front();
            const size_t depth =
                queuedChunks_.fetch_sub(1, std::memory_order_relaxed) -
                1;
            APOLLO_GAUGE_SET("apollo.serve.queue_depth",
                             static_cast<double>(depth));
            // A producer blocked on backpressure can refill the slot.
            session.cv.notify_all();
        }
        budget--;
        const bool timed =
            APOLLO_OBS_ON() && chunk.enqueued != Clock::time_point{};
        const Clock::time_point dequeued =
            timed ? Clock::now() : Clock::time_point{};

        // Compute + ordered emission outside the lock: the strand
        // token guarantees exclusive access to pipe/sums/sink, and
        // submitChunk never touches them.
        const uint64_t before = session.pipe->outputs();
        session.sums.firstCycle = chunk.firstCycle;
        // The bit-parallel compute stage needs the stream's window
        // phase at the chunk's first row; chunks are accepted and
        // processed in order from cycle 0, so firstCycle is it.
        const uint32_t window_T = session.pipe->windowT();
        session.sums.windowPhase0 =
            window_T ? static_cast<uint32_t>(chunk.firstCycle % window_T)
                     : 0;
        session.pipe->computeSums(chunk.bits, session.sums);
        Status sunk = session.pipe->emit(session.sums, *session.sink);
        const uint64_t emitted = session.pipe->outputs() - before;
        if (timed)
            observeChunk(
                session.entry->quantized(),
                std::chrono::duration<double>(dequeued - chunk.enqueued)
                    .count(),
                std::chrono::duration<double>(Clock::now() - dequeued)
                    .count());
        if (emitted > 0) {
            outputs_.fetch_add(emitted, std::memory_order_relaxed);
            APOLLO_COUNT("apollo.serve.outputs", emitted);
        }

        if (!sunk.ok()) {
            std::lock_guard<std::mutex> lock(session.mu);
            if (sunk.code() == StatusCode::Cancelled) {
                if (!session.cancelled) {
                    session.cancelled = true;
                    sessionsCancelled_.fetch_add(
                        1, std::memory_order_relaxed);
                    APOLLO_COUNT("apollo.serve.cancelled", 1);
                }
            } else if (session.sinkError.ok()) {
                session.sinkError = sunk;
            }
            queuedChunks_.fetch_sub(session.queue.size(),
                                    std::memory_order_relaxed);
            session.queue.clear();
            session.cv.notify_all();
        }
    }
}

} // namespace apollo::serve
