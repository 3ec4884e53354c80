/**
 * @file
 * Lightweight tracing (docs/INTERNALS.md §10): RAII `TraceSpan`s record
 * complete ("ph":"X") events into thread-local buffers; `flushJson()`
 * drains every buffer into a Chrome `trace_event` JSON document that
 * chrome://tracing and Perfetto load directly.
 *
 * Tracing is off by default (unlike metrics): a disabled span costs one
 * relaxed atomic load. Span names and categories must be string
 * literals — events store the pointers, not copies.
 */

#ifndef APOLLO_OBS_TRACE_HH
#define APOLLO_OBS_TRACE_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.hh" // concat macros
#include "util/status.hh"

namespace apollo::obs {

/** One complete span, timestamps in microseconds since process start. */
struct TraceEvent
{
    const char *name = nullptr;
    const char *category = nullptr;
    uint64_t tsMicros = 0;
    uint64_t durMicros = 0;
    uint32_t tid = 0;
};

/** Microseconds since the process-wide steady-clock epoch. */
uint64_t nowMicros();

/** Process-wide sink for span events. */
class TraceCollector
{
  public:
    static TraceCollector &instance();

    bool
    enabled() const
    {
        return enabled_.load(std::memory_order_relaxed);
    }

    void
    setEnabled(bool on)
    {
        enabled_.store(on, std::memory_order_relaxed);
    }

    /** Append to the calling thread's buffer (auto-registered). */
    void record(const TraceEvent &event);

    /** Events recorded so far across all threads (drains nothing). */
    size_t eventCount() const;

    /**
     * Drain every thread buffer into a Chrome trace_event JSON
     * document: {"traceEvents": [...], "displayTimeUnit": "ms"}.
     */
    std::string flushJson();

    /** flushJson() to a file. */
    Status writeJson(const std::string &path);

    /** Drop all buffered events. */
    void clear();

  private:
    TraceCollector() = default;

    struct ThreadBuffer
    {
        std::mutex mu;
        std::vector<TraceEvent> events;
        uint32_t tid = 0;
    };

    ThreadBuffer &localBuffer();

    mutable std::mutex mu_;
    std::vector<std::shared_ptr<ThreadBuffer>> buffers_;
    uint32_t nextTid_ = 1;
    std::atomic<bool> enabled_{false};
};

/**
 * RAII span: captures the start time if tracing is enabled at
 * construction and records one "X" event at scope exit.
 */
class TraceSpan
{
  public:
    explicit TraceSpan(const char *name, const char *category = "apollo")
        : name_(name), category_(category),
          active_(TraceCollector::instance().enabled()),
          startMicros_(active_ ? nowMicros() : 0)
    {}

    TraceSpan(const TraceSpan &) = delete;
    TraceSpan &operator=(const TraceSpan &) = delete;

    ~TraceSpan()
    {
        if (!active_)
            return;
        TraceEvent event;
        event.name = name_;
        event.category = category_;
        event.tsMicros = startMicros_;
        event.durMicros = nowMicros() - startMicros_;
        TraceCollector::instance().record(event);
    }

  private:
    const char *name_;
    const char *category_;
    bool active_;
    uint64_t startMicros_;
};

} // namespace apollo::obs

/** Trace the enclosing scope as a span named @p name (literal). */
#define APOLLO_TRACE_SPAN(name)                                          \
    ::apollo::obs::TraceSpan APOLLO_OBS_CONCAT(apollo_obs_span_,         \
                                               __LINE__)(name)

#endif // APOLLO_OBS_TRACE_HH
