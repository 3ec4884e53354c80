#include "obs/metrics.hh"

#include <algorithm>
#include <array>
#include <cinttypes>
#include <cmath>
#include <cstdio>

namespace apollo::obs {

namespace {

constexpr std::array<double, 9> kLatencyBounds = {
    1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0, 100.0};

constexpr std::array<double, 9> kRatioBounds = {
    0.01, 0.02, 0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 1.0};

constexpr std::array<double, 10> kCountBounds = {
    1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0, 1000.0};

/** 1e-6 * 10^(i/10) for i = 0..70: 1 us to 10 s. */
const std::array<double, 71> kFineLatencyBounds = [] {
    std::array<double, 71> bounds{};
    for (size_t i = 0; i < bounds.size(); ++i)
        bounds[i] = 1e-6 * std::pow(10.0, static_cast<double>(i) / 10.0);
    return bounds;
}();

void
atomicAddDouble(std::atomic<double> &target, double delta)
{
    double cur = target.load(std::memory_order_relaxed);
    while (!target.compare_exchange_weak(cur, cur + delta,
                                         std::memory_order_relaxed))
        ;
}

/**
 * JSON number formatting: counters print as integers, doubles with
 * enough digits to round-trip but no locale dependence.
 */
std::string
jsonDouble(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
jsonEscape(const std::string &s)
{
    // Metric names are plain identifiers; escape defensively anyway.
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        if (c == '"' || c == '\\')
            out.push_back('\\');
        out.push_back(c);
    }
    return out;
}

} // namespace

std::span<const double>
latencyBounds()
{
    return kLatencyBounds;
}

std::span<const double>
ratioBounds()
{
    return kRatioBounds;
}

std::span<const double>
countBounds()
{
    return kCountBounds;
}

std::span<const double>
fineLatencyBounds()
{
    return kFineLatencyBounds;
}

double
histogramQuantile(const Histogram &hist, double q)
{
    const std::span<const double> bounds = hist.bounds();
    uint64_t total = 0;
    for (size_t i = 0; i <= bounds.size(); ++i)
        total += hist.bucketCount(i);
    if (total == 0 || bounds.empty())
        return 0.0;
    const double rank = std::clamp(q, 0.0, 1.0) * static_cast<double>(total);
    double below = 0.0;
    for (size_t i = 0; i < bounds.size(); ++i) {
        const auto n = static_cast<double>(hist.bucketCount(i));
        if (n > 0.0 && below + n >= rank) {
            const double lo = i == 0 ? 0.0 : bounds[i - 1];
            return lo + (bounds[i] - lo) * std::max(rank - below, 0.0) / n;
        }
        below += n;
    }
    return bounds.back();
}

Histogram::Histogram(std::span<const double> bounds)
    : bounds_(bounds.begin(), bounds.end()),
      buckets_(new std::atomic<uint64_t>[bounds.size() + 1])
{
    for (size_t i = 0; i <= bounds_.size(); ++i)
        buckets_[i].store(0, std::memory_order_relaxed);
}

void
Histogram::observe(double v)
{
    size_t i = 0;
    while (i < bounds_.size() && v > bounds_[i])
        i++;
    buckets_[i].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    atomicAddDouble(sum_, v);
}

double
Histogram::sum() const
{
    return sum_.load(std::memory_order_relaxed);
}

void
Histogram::reset()
{
    for (size_t i = 0; i <= bounds_.size(); ++i)
        buckets_[i].store(0, std::memory_order_relaxed);
    count_.store(0, std::memory_order_relaxed);
    sum_.store(0.0, std::memory_order_relaxed);
}

MetricRegistry &
MetricRegistry::instance()
{
    // Leaked on purpose: instrumentation sites cache references in
    // function-local statics whose destruction order is unknowable.
    static MetricRegistry *registry = new MetricRegistry();
    return *registry;
}

Counter &
MetricRegistry::counter(std::string_view name)
{
    std::lock_guard<std::mutex> lock(mu_);
    auto it = counters_.find(name);
    if (it == counters_.end())
        it = counters_
                 .emplace(std::string(name), std::make_unique<Counter>())
                 .first;
    return *it->second;
}

Gauge &
MetricRegistry::gauge(std::string_view name)
{
    std::lock_guard<std::mutex> lock(mu_);
    auto it = gauges_.find(name);
    if (it == gauges_.end())
        it = gauges_
                 .emplace(std::string(name), std::make_unique<Gauge>())
                 .first;
    return *it->second;
}

Histogram &
MetricRegistry::histogram(std::string_view name,
                          std::span<const double> bounds)
{
    std::lock_guard<std::mutex> lock(mu_);
    auto it = histograms_.find(name);
    if (it == histograms_.end())
        it = histograms_
                 .emplace(std::string(name),
                          std::make_unique<Histogram>(
                              bounds.empty() ? latencyBounds() : bounds))
                 .first;
    return *it->second;
}

std::map<std::string, uint64_t>
MetricRegistry::counterValues() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::map<std::string, uint64_t> out;
    for (const auto &[name, counter] : counters_)
        out.emplace(name, counter->value());
    return out;
}

std::string
MetricRegistry::snapshotJson() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::string out = "{\n  \"counters\": {";
    bool first = true;
    for (const auto &[name, counter] : counters_) {
        out += first ? "\n" : ",\n";
        first = false;
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%" PRIu64, counter->value());
        out += "    \"" + jsonEscape(name) + "\": " + buf;
    }
    out += first ? "},\n" : "\n  },\n";

    out += "  \"gauges\": {";
    first = true;
    for (const auto &[name, gauge] : gauges_) {
        out += first ? "\n" : ",\n";
        first = false;
        out += "    \"" + jsonEscape(name) +
               "\": " + jsonDouble(gauge->value());
    }
    out += first ? "},\n" : "\n  },\n";

    out += "  \"histograms\": {";
    first = true;
    for (const auto &[name, hist] : histograms_) {
        out += first ? "\n" : ",\n";
        first = false;
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%" PRIu64, hist->count());
        out += "    \"" + jsonEscape(name) + "\": {\"count\": " + buf +
               ", \"sum\": " + jsonDouble(hist->sum()) +
               ", \"bounds\": [";
        const auto bounds = hist->bounds();
        for (size_t i = 0; i < bounds.size(); ++i) {
            if (i)
                out += ", ";
            out += jsonDouble(bounds[i]);
        }
        out += "], \"buckets\": [";
        for (size_t i = 0; i <= bounds.size(); ++i) {
            if (i)
                out += ", ";
            std::snprintf(buf, sizeof(buf), "%" PRIu64,
                          hist->bucketCount(i));
            out += buf;
        }
        out += "]}";
    }
    out += first ? "}\n" : "\n  }\n";
    out += "}\n";
    return out;
}

void
MetricRegistry::reset()
{
    std::lock_guard<std::mutex> lock(mu_);
    for (auto &[name, counter] : counters_)
        counter->reset();
    for (auto &[name, gauge] : gauges_)
        gauge->reset();
    for (auto &[name, hist] : histograms_)
        hist->reset();
}

} // namespace apollo::obs
