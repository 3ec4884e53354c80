#include "activity/toggle_columns.hh"

#include <algorithm>
#include <cstring>

#include "util/hash_kernels.hh"
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

ToggleColumnGenerator::ToggleColumnGenerator(const ActivityEngine &engine)
    : engine_(engine)
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
    cycle0_ = n_ ? frames[first].cycle : 0;

    // The unit arrays start `history` frames before the window so a
    // window opening mid-segment still sees its lookback sources.
    const size_t history = std::min(maxLatency_, first);
    unitRows_ = history + n_;
    actU_.resize(numUnits * unitRows_);
    dataU_.resize(numUnits * unitRows_);
    for (size_t k = 0; k < unitRows_; ++k) {
        const ActivityFrame &f = frames[first - history + k];
        for (size_t u = 0; u < numUnits; ++u) {
            actU_[u * unitRows_ + k] = f.activity[u];
            dataU_[u * unitRows_ + k] = f.dataToggle[u];
        }
    }

    contiguousCycles_ = true;
    cycles_.resize(n_);
    enabledMask_.assign(numUnits * words_, 0);
    prevEnabledMask_.assign(numUnits * words_, 0);
    lookback_.resize((maxLatency_ + 1) * n_);
    for (size_t i = 0; i < n_; ++i) {
        const size_t r = first + i;
        cycles_[i] = frames[r].cycle;
        if (cycles_[i] != cycle0_ + i)
            contiguousCycles_ = false;
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
            lookback_[lat * n_ + i] = static_cast<uint32_t>(
                history + i - std::min(lat, r - begin));
    }

    draws_.resize(n_);
    busMasks_.clear();
}

void
ToggleColumnGenerator::drawColumn(uint64_t seed)
{
    if (contiguousCycles_)
        hashkernels::unitDraws(seed, cycle0_, n_, draws_.data());
    else
        hashkernels::unitDrawsAt(seed, cycles_.data(), n_,
                                 draws_.data());
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

    const Bus &bus =
        engine_.netlist().bus(static_cast<size_t>(sig.busId));
    std::vector<uint64_t> mask(words_, 0);
    drawColumn(engine_.busDrawSeed(sig.busId));
    const float *act = actU_.data() + u * unitRows_;
    const uint32_t *src = lookback_.data() + sig.latency * n_;
    for (size_t i = 0; i < n_; ++i) {
        const float p_event = ActivityEngine::busEventThreshold(
            bus.eventSensitivity, act[src[i]]);
        if (draws_[i] < p_event)
            mask[i >> 6] |= 1ULL << (i & 63);
    }
    return busMasks_.emplace(key, std::move(mask))
        .first->second.data();
}

void
ToggleColumnGenerator::fillColumn(uint32_t sig_id, uint64_t *out)
{
    APOLLO_ASSERT(n_ > 0, "bind() first");

    const Signal &sig = engine_.netlist().signal(sig_id);
    const auto u = static_cast<size_t>(sig.unit);
    const uint64_t *en = enabledMask_.data() + u * words_;
    const float *act = actU_.data() + u * unitRows_;
    const float *data = dataU_.data() + u * unitRows_;
    const uint32_t *src = lookback_.data() + sig.latency * n_;
    std::memset(out, 0, words_ * sizeof(uint64_t));

    switch (sig.kind) {
      case SignalKind::ClockEnable: {
        const uint64_t *prev = prevEnabledMask_.data() + u * words_;
        for (size_t w = 0; w < words_; ++w)
            out[w] = en[w] ^ prev[w];
        return;
      }

      case SignalKind::GatedClock: {
        drawColumn(engine_.signalDrawSeed(sig_id));
        act += unitRows_ - n_; // the window's own rows
        for (size_t i = 0; i < n_; ++i) {
            const bool t = act[i] >= 0.999f ||
                draws_[i] < ActivityEngine::gatedClockThreshold(act[i]);
            out[i >> 6] |= static_cast<uint64_t>(t) << (i & 63);
        }
        break;
      }

      case SignalKind::BusBit: {
        const uint64_t *ev = busEventMask(sig);
        drawColumn(engine_.signalDrawSeed(sig_id));
        for (size_t i = 0; i < n_; ++i) {
            const bool t = draws_[i] <
                ActivityEngine::busBitThreshold(data[src[i]]);
            out[i >> 6] |= static_cast<uint64_t>(t) << (i & 63);
        }
        for (size_t w = 0; w < words_; ++w)
            out[w] &= ev[w];
        break;
      }

      default: { // FlipFlop / CombWire
        drawColumn(engine_.signalDrawSeed(sig_id));
        for (size_t i = 0; i < n_; ++i) {
            const float p = ActivityEngine::toggleProbability(
                sig, act[src[i]], data[src[i]]);
            out[i >> 6] |=
                static_cast<uint64_t>(draws_[i] < p) << (i & 63);
        }
        break;
      }
    }

    for (size_t w = 0; w < words_; ++w)
        out[w] &= en[w];
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
    // One generator per pool chunk: fillColumn shares draw scratch.
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
