#include "activity/toggle_columns.hh"

#include <algorithm>

#include "util/logging.hh"
#include "util/thread_pool.hh"

namespace apollo {

void
requireSegmentTable(std::span<const uint32_t> segment_begin_of,
                    size_t frame_count, size_t first, size_t count)
{
    APOLLO_REQUIRE(first <= frame_count && count <= frame_count - first,
                   "rows ", first, "+", count, " exceed ", frame_count,
                   " frames");
    if (segment_begin_of.empty())
        return;
    APOLLO_REQUIRE(segment_begin_of.size() == frame_count,
                   "segment table has ", segment_begin_of.size(),
                   " entries for ", frame_count, " frames");
    for (size_t r = first; r < first + count; ++r) {
        const size_t b = segment_begin_of[r];
        APOLLO_REQUIRE(b == r || (b < r && b == segment_begin_of[r - 1]),
                       "segment table entry ", r, " is ", b);
    }
}

ToggleColumnGenerator::ToggleColumnGenerator(const ActivityEngine &engine,
                                             togglekernels::Impl impl)
    : engine_(engine), fill_(togglekernels::implFill(impl))
{
    const Netlist &netlist = engine.netlist();
    for (size_t s = 0; s < netlist.signalCount(); ++s)
        maxLatency_ = std::max<size_t>(maxLatency_,
                                       netlist.signal(s).latency);
}

void
ToggleColumnGenerator::bind(std::span<const ActivityFrame> frames,
                            std::span<const uint32_t> segment_begin_of,
                            size_t first, size_t count)
{
    requireSegmentTable(segment_begin_of, frames.size(), first, count);
    n_ = count;
    words_ = (n_ + 63) / 64;
    // Every per-row array covers whole words: the kernels read 16
    // rows per vector lane group.
    const size_t rows = words_ * 64;

    // The unit arrays start `history` frames before the window so a
    // window opening mid-segment still sees its lookback sources.
    const size_t history = std::min(maxLatency_, first);
    unitRows_ = history + rows;
    actU_.assign(numUnits * unitRows_, 0.0f);
    dataU_.assign(numUnits * unitRows_, 0.0f);
    for (size_t k = 0; k < history + n_; ++k) {
        const ActivityFrame &f = frames[first - history + k];
        for (size_t u = 0; u < numUnits; ++u) {
            actU_[u * unitRows_ + k] = f.activity[u];
            dataU_[u * unitRows_ + k] = f.dataToggle[u];
        }
    }

    cycles_.assign(rows, 0);
    enabledMask_.assign(numUnits * words_, 0);
    prevEnabledMask_.assign(numUnits * words_, 0);
    lookback_.resize((maxLatency_ + 1) * rows);
    for (size_t i = 0; i < n_; ++i) {
        const size_t r = first + i;
        cycles_[i] = frames[r].cycle;
        const size_t begin =
            segment_begin_of.empty() ? 0 : segment_begin_of[r];
        const uint64_t bit = 1ULL << (i & 63);
        for (size_t u = 0; u < numUnits; ++u) {
            if (frames[r].clockEnabled[u])
                enabledMask_[u * words_ + (i >> 6)] |= bit;
            // The pre-segment (reset) state is defined as enabled.
            if (begin == r || frames[r - 1].clockEnabled[u])
                prevEnabledMask_[u * words_ + (i >> 6)] |= bit;
        }
        for (size_t lat = 0; lat <= maxLatency_; ++lat)
            lookback_[lat * rows + i] = static_cast<uint32_t>(
                history + i - std::min(lat, r - begin));
    }
    // Padding rows are masked off; stepping on by one keeps the last
    // group's source rows in range and consecutive.
    for (size_t lat = 0; lat <= maxLatency_; ++lat)
        for (size_t i = n_; i < rows; ++i)
            lookback_[lat * rows + i] = lookback_[lat * rows + i - 1] + 1;

    busMasks_.clear();
}

togglekernels::Column
ToggleColumnGenerator::unitColumn(const Signal &sig, size_t latency) const
{
    const auto u = static_cast<size_t>(sig.unit);
    togglekernels::Column c;
    c.cycles = cycles_.data();
    c.src = lookback_.data() + latency * words_ * 64;
    c.act = actU_.data() + u * unitRows_;
    c.data = dataU_.data() + u * unitRows_;
    c.mask = enabledMask_.data() + u * words_;
    c.words = words_;
    return c;
}

const uint64_t *
ToggleColumnGenerator::busEventMask(const Signal &sig)
{
    const auto u = static_cast<size_t>(sig.unit);
    const uint64_t key =
        (static_cast<uint64_t>(sig.busId) << 16) |
        (static_cast<uint64_t>(u) << 8) | sig.latency;
    auto it = busMasks_.find(key);
    if (it != busMasks_.end())
        return it->second.data();

    togglekernels::Column c = unitColumn(sig, sig.latency);
    c.rule = togglekernels::Rule::BusEvent;
    c.seed = engine_.busDrawSeed(sig.busId);
    c.eventSensitivity =
        engine_.netlist().bus(static_cast<size_t>(sig.busId))
            .eventSensitivity;
    std::vector<uint64_t> mask(words_);
    fill_(c, mask.data());
    return busMasks_.emplace(key, std::move(mask))
        .first->second.data();
}

void
ToggleColumnGenerator::fillColumn(uint32_t sig_id, uint64_t *out)
{
    APOLLO_ASSERT(n_ > 0, "bind() first");

    const Signal &sig = engine_.netlist().signal(sig_id);
    if (sig.kind == SignalKind::ClockEnable) {
        const auto u = static_cast<size_t>(sig.unit);
        const uint64_t *en = enabledMask_.data() + u * words_;
        const uint64_t *prev = prevEnabledMask_.data() + u * words_;
        for (size_t w = 0; w < words_; ++w)
            out[w] = en[w] ^ prev[w];
        return;
    }

    // A gated clock reads its window's own rows, whatever its latency.
    const bool gated = sig.kind == SignalKind::GatedClock;
    togglekernels::Column c = unitColumn(sig, gated ? 0 : sig.latency);
    c.seed = engine_.signalDrawSeed(sig_id);
    if (gated) {
        c.rule = togglekernels::Rule::GatedClock;
    } else if (sig.kind == SignalKind::BusBit) {
        c.rule = togglekernels::Rule::BusBit;
        c.mask = busEventMask(sig);
    } else { // FlipFlop / CombWire
        c.rule = togglekernels::Rule::Toggle;
        c.sig = &sig;
    }
    fill_(c, out);
}

void
fillToggleColumns(const ActivityEngine &engine,
                  std::span<const ActivityFrame> frames,
                  std::span<const uint32_t> segment_begin_of,
                  size_t first, size_t count,
                  std::span<const uint32_t> sig_ids, BitColumnMatrix &out)
{
    // ~4 blocks per worker; the cap bounds a worker's bind scratch
    // (~160 bytes per row) however long the trace is.
    constexpr size_t kMaxBlockRows = 4096;
    out.reset(count, sig_ids.size());
    const size_t slots = 4 * ThreadPool::global().threadCount();
    const size_t block = std::clamp<size_t>(
        ((count + slots - 1) / slots + 63) & ~size_t{63}, 64,
        kMaxBlockRows);
    // One generator per pool chunk: its bind scratch is reused.
    parallelFor(sig_ids.empty() ? 0 : (count + block - 1) / block,
                [&](size_t b0, size_t b1) {
        ToggleColumnGenerator gen(engine);
        for (size_t b = b0; b < b1; ++b) {
            const size_t row0 = b * block;
            gen.bind(frames, segment_begin_of, first + row0,
                     std::min(block, count - row0));
            for (size_t k = 0; k < sig_ids.size(); ++k)
                gen.fillColumn(sig_ids[k],
                               out.colWordsMutable(k) + row0 / 64);
        }
    });
}

} // namespace apollo
