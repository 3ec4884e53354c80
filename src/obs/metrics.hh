/**
 * @file
 * Process-wide metrics registry (docs/INTERNALS.md §10): monotonic
 * counters, gauges, and fixed-bucket histograms, all lock-free on the
 * hot path, registered lazily by name under the
 * `apollo.<subsystem>.<metric>` scheme.
 *
 * One runtime gate keeps the cost of an *unused* registry at a branch
 * on a relaxed atomic load: MetricRegistry::setEnabled(false)
 * short-circuits the macros before any lookup or atomic RMW happens.
 *
 * Instrumentation sites use the APOLLO_COUNT / APOLLO_GAUGE_SET /
 * APOLLO_OBSERVE / APOLLO_SCOPED_TIMER macros below; metric names must
 * be string literals (the registry keeps its own copy, but counter
 * references are cached in block-scope statics per call site).
 */

#ifndef APOLLO_OBS_METRICS_HH
#define APOLLO_OBS_METRICS_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace apollo::obs {

/** Monotonic counter; add() is a relaxed atomic fetch-add. */
class Counter
{
  public:
    void
    add(uint64_t n = 1)
    {
        value_.fetch_add(n, std::memory_order_relaxed);
    }

    uint64_t
    value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

    void
    reset()
    {
        value_.store(0, std::memory_order_relaxed);
    }

  private:
    std::atomic<uint64_t> value_{0};
};

/** Last-write-wins instantaneous value (e.g. pool occupancy). */
class Gauge
{
  public:
    void
    set(double v)
    {
        value_.store(v, std::memory_order_relaxed);
    }

    double
    value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

    void
    reset()
    {
        value_.store(0.0, std::memory_order_relaxed);
    }

  private:
    std::atomic<double> value_{0.0};
};

/**
 * Fixed-bucket histogram. Bucket i counts observations with
 * v <= bounds[i]; one extra overflow bucket catches the rest. Bounds
 * are fixed at registration, so observe() is a linear scan over a
 * handful of doubles plus one relaxed fetch-add.
 */
class Histogram
{
  public:
    explicit Histogram(std::span<const double> bounds);

    void observe(double v);

    uint64_t
    count() const
    {
        return count_.load(std::memory_order_relaxed);
    }

    double sum() const;

    std::span<const double>
    bounds() const
    {
        return bounds_;
    }

    /** i in [0, bounds().size()]; the last index is the overflow. */
    uint64_t
    bucketCount(size_t i) const
    {
        return buckets_[i].load(std::memory_order_relaxed);
    }

    void reset();

  private:
    std::vector<double> bounds_;
    std::unique_ptr<std::atomic<uint64_t>[]> buckets_;
    std::atomic<uint64_t> count_{0};
    std::atomic<double> sum_{0.0};
};

/** Default histogram bounds for wall-clock seconds. */
std::span<const double> latencyBounds();
/** Default bounds for ratios in [0, 1] (e.g. toggle density). */
std::span<const double> ratioBounds();
/** Default bounds for small counts (sweeps per lambda etc.). */
std::span<const double> countBounds();

/**
 * Wall-clock seconds at ten buckets per decade (1e-6 * 10^(i/10), 1 us
 * to 10 s), fine enough to read percentiles from: adjacent bounds are
 * 26% apart.
 */
std::span<const double> fineLatencyBounds();

/**
 * The @p q quantile (0..1) of @p hist's observations, interpolated
 * linearly inside the bucket that holds it (a bucket's lower edge is
 * the previous bound, or 0). Observations in the overflow bucket read
 * as the last bound; an empty histogram reads 0.
 */
double histogramQuantile(const Histogram &hist, double q);

/**
 * RAII wall-clock timer: records elapsed seconds into a histogram on
 * destruction. A null histogram makes the timer inert (the disabled
 * path).
 */
class ScopedTimer
{
  public:
    explicit ScopedTimer(Histogram *hist)
        : hist_(hist),
          t0_(hist ? std::chrono::steady_clock::now()
                   : std::chrono::steady_clock::time_point{})
    {}

    ScopedTimer(const ScopedTimer &) = delete;
    ScopedTimer &operator=(const ScopedTimer &) = delete;

    ~ScopedTimer()
    {
        if (hist_)
            hist_->observe(std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - t0_)
                               .count());
    }

  private:
    Histogram *hist_;
    std::chrono::steady_clock::time_point t0_;
};

/**
 * The process-wide registry. Metric objects are heap-allocated and
 * never destroyed before process exit, so references handed out by
 * counter()/gauge()/histogram() stay valid forever (reset() zeroes
 * values without invalidating them).
 */
class MetricRegistry
{
  public:
    static MetricRegistry &instance();

    /** The runtime gate every instrumentation macro checks first. */
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

    /** Find-or-create; thread-safe. */
    Counter &counter(std::string_view name);
    Gauge &gauge(std::string_view name);
    /** @p bounds applies only on first registration (empty = latency). */
    Histogram &histogram(std::string_view name,
                         std::span<const double> bounds = {});

    /** Registered counters and their current values, sorted by name. */
    std::map<std::string, uint64_t> counterValues() const;

    /**
     * Deterministic JSON snapshot: {"counters": {...}, "gauges": {...},
     * "histograms": {...}} with keys sorted lexicographically.
     */
    std::string snapshotJson() const;

    /** Zero every metric value (registrations survive). */
    void reset();

  private:
    MetricRegistry() = default;

    mutable std::mutex mu_;
    std::map<std::string, std::unique_ptr<Counter>, std::less<>>
        counters_;
    std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
    std::map<std::string, std::unique_ptr<Histogram>, std::less<>>
        histograms_;
    std::atomic<bool> enabled_{true};
};

} // namespace apollo::obs

#define APOLLO_OBS_CONCAT_IMPL(a, b) a##b
#define APOLLO_OBS_CONCAT(a, b) APOLLO_OBS_CONCAT_IMPL(a, b)

/** True when metrics are runtime-enabled. */
#define APOLLO_OBS_ON()                                                  \
    (::apollo::obs::MetricRegistry::instance().enabled())

/** Add @p n to counter @p name (string literal). */
#define APOLLO_COUNT(name, n)                                            \
    do {                                                                 \
        if (APOLLO_OBS_ON()) {                                           \
            static ::apollo::obs::Counter &apollo_obs_counter =          \
                ::apollo::obs::MetricRegistry::instance().counter(name); \
            apollo_obs_counter.add(static_cast<uint64_t>(n));            \
        }                                                                \
    } while (0)

/** Set gauge @p name to @p v. */
#define APOLLO_GAUGE_SET(name, v)                                        \
    do {                                                                 \
        if (APOLLO_OBS_ON()) {                                           \
            static ::apollo::obs::Gauge &apollo_obs_gauge =              \
                ::apollo::obs::MetricRegistry::instance().gauge(name);   \
            apollo_obs_gauge.set(static_cast<double>(v));                \
        }                                                                \
    } while (0)

/** Observe @p v in histogram @p name with @p bounds (span). */
#define APOLLO_OBSERVE(name, v, bounds)                                  \
    do {                                                                 \
        if (APOLLO_OBS_ON()) {                                           \
            static ::apollo::obs::Histogram &apollo_obs_hist =           \
                ::apollo::obs::MetricRegistry::instance().histogram(     \
                    name, bounds);                                       \
            apollo_obs_hist.observe(static_cast<double>(v));             \
        }                                                                \
    } while (0)

/** Time the enclosing scope into latency histogram @p name. */
#define APOLLO_SCOPED_TIMER(name)                                        \
    ::apollo::obs::ScopedTimer APOLLO_OBS_CONCAT(apollo_obs_timer_,      \
                                                 __LINE__)(              \
        APOLLO_OBS_ON()                                                  \
            ? &::apollo::obs::MetricRegistry::instance().histogram(     \
                  name)                                                  \
            : nullptr)

#endif // APOLLO_OBS_METRICS_HH
