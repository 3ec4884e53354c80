/**
 * @file
 * In-memory span recorder for the end-to-end bench. The bench wraps
 * every call it makes into a library layer in a span named
 * "<layer>.<call>", where <layer> is the src/ module that does the
 * work (gen, trace, uarch, ml, core, opm, flow, serve, control, util).
 * The root span of one operation is "bench.<workload>", and the serve
 * load generator's own work is "loadgen.*".
 *
 * Spans nest on the recording thread: a span opened while another is
 * open becomes its child. A disabled recorder records nothing, so the
 * untraced run pays one branch per call. Span names must be string
 * literals; the recorder stores the pointers.
 *
 * The fold turns the span list into per-name and per-layer self time:
 * a span's duration minus the time its children cover. The root's self
 * time is the harness time no layer span accounts for; coverage() is
 * one minus its share.
 */

#ifndef APOLLO_BENCH_E2E_SPANS_HH
#define APOLLO_BENCH_E2E_SPANS_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace e2e {

/** One recorded call. Times are seconds since the recorder's epoch. */
struct Span
{
    const char *name = nullptr;
    double start = 0.0;
    double end = 0.0;
    /** Index of the enclosing span, -1 for a root. */
    int64_t parent = -1;
    /** Request the call served (program index, session/chunk pair). */
    uint64_t request = 0;

    double duration() const { return end - start; }
};

/** Folded totals of the spans sharing one name (or one layer). */
struct SpanTotals
{
    double total = 0.0;
    double self = 0.0;
    uint64_t count = 0;
};

class SpanRecorder
{
  public:
    explicit SpanRecorder(bool enabled = false);

    SpanRecorder(const SpanRecorder &) = delete;
    SpanRecorder &operator=(const SpanRecorder &) = delete;

    bool enabled() const { return enabled_; }
    /** Switch recording; only between operations, never inside a span. */
    void setEnabled(bool on) { enabled_ = on; }

    /** RAII span around one call; records nothing when disabled. */
    class Scope
    {
      public:
        Scope(SpanRecorder &recorder, const char *name, uint64_t request);
        ~Scope();

        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        SpanRecorder *recorder_ = nullptr;
        int64_t index_ = -1;
    };

    Scope
    span(const char *name, uint64_t request = 0)
    {
        return Scope(*this, name, request);
    }

    /** Run @p fn inside a span and return its result. */
    template <typename Fn>
    decltype(auto)
    call(const char *name, uint64_t request, Fn &&fn)
    {
        Scope scope(*this, name, request);
        return fn();
    }

    const std::vector<Span> &spans() const { return spans_; }

    /** Totals and self time per span name. */
    std::map<std::string, SpanTotals> foldByName() const;

    /** Totals and self time per layer (name up to the first '.'). */
    std::map<std::string, SpanTotals> foldByLayer() const;

    /**
     * Share of the time of the spans named @p root that their child
     * spans cover (1.0 = every instant is attributed to a layer).
     */
    double coverage(const char *root) const;

    /**
     * Write the spans as Chrome trace_event JSON (chrome://tracing,
     * Perfetto). Returns false when the file cannot be written.
     */
    bool writeChromeTrace(const std::string &path) const;

  private:
    double now() const;
    std::vector<double> childTime() const;

    bool enabled_;
    std::chrono::steady_clock::time_point epoch_;
    std::vector<Span> spans_;
    /** Innermost open span, -1 when none is open. */
    int64_t open_ = -1;
};

} // namespace e2e

#endif // APOLLO_BENCH_E2E_SPANS_HH
