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
    const std::span<const ActivityFrame> run[] = {frames};
    bindRows(run, segment_begin_of, first, count);
}

void
ToggleColumnGenerator::bindRuns(
    std::span<const std::span<const ActivityFrame>> runs, size_t first,
    size_t count)
{
    APOLLO_REQUIRE(!runs.empty(), "bindRuns needs at least one run");
    size_t longest = 0;
    for (const std::span<const ActivityFrame> run : runs)
        longest = std::max(longest, run.size());
    APOLLO_REQUIRE(first <= longest && count <= longest - first, "rows ",
                   first, "+", count, " exceed the longest of ",
                   runs.size(), " runs (", longest, " frames)");
    bindRows(runs, {}, first, count);
}

void
ToggleColumnGenerator::bindRows(
    std::span<const std::span<const ActivityFrame>> runs,
    std::span<const uint32_t> segment_begin_of, size_t first,
    size_t count)
{
    runs_ = runs.size();
    n_ = count;
    words_ = (n_ + 63) / 64;
    // Every per-row array covers whole words: the kernels read 16
    // rows per vector lane group.
    const size_t rows = words_ * 64;

    // The unit arrays start `history` frames before the window so a
    // window opening mid-segment still sees its lookback sources.
    const size_t history = std::min(maxLatency_, first);
    unitRows_ = history + rows;
    actU_.assign(runs_ * numUnits * unitRows_, 0.0f);
    dataU_.assign(runs_ * numUnits * unitRows_, 0.0f);
    for (size_t r = 0; r < runs_; ++r) {
        const std::span<const ActivityFrame> frames = runs[r];
        float *act = actU_.data() + r * numUnits * unitRows_;
        float *data = dataU_.data() + r * numUnits * unitRows_;
        const size_t end = std::min(frames.size(), first + n_);
        for (size_t k = 0; first - history + k < end; ++k) {
            const ActivityFrame &f = frames[first - history + k];
            for (size_t u = 0; u < numUnits; ++u) {
                act[u * unitRows_ + k] = f.activity[u];
                data[u * unitRows_ + k] = f.dataToggle[u];
            }
        }
    }

    cycles_.assign(rows, 0);
    enabledMask_.assign(runs_ * numUnits * words_, 0);
    prevEnabledMask_.assign(runs_ * numUnits * words_, 0);
    lookback_.resize((maxLatency_ + 1) * rows);
    for (size_t i = 0; i < n_; ++i) {
        const size_t row = first + i;
        const size_t begin =
            segment_begin_of.empty() ? 0 : segment_begin_of[row];
        const uint64_t bit = 1ULL << (i & 63);
        bool stamped = false;
        for (size_t r = 0; r < runs_; ++r) {
            const std::span<const ActivityFrame> frames = runs[r];
            if (row >= frames.size())
                continue;
            if (!stamped) {
                cycles_[i] = frames[row].cycle;
                stamped = true;
            } else {
                APOLLO_REQUIRE(frames[row].cycle == cycles_[i], "run ", r,
                               " stamps row ", row, " with cycle ",
                               frames[row].cycle, ", an earlier run with ",
                               cycles_[i]);
            }
            uint64_t *en = enabledMask_.data() + r * numUnits * words_ +
                           (i >> 6);
            uint64_t *prev = prevEnabledMask_.data() +
                             r * numUnits * words_ + (i >> 6);
            for (size_t u = 0; u < numUnits; ++u) {
                if (frames[row].clockEnabled[u])
                    en[u * words_] |= bit;
                // The pre-segment (reset) state is defined as enabled.
                if (begin == row || frames[row - 1].clockEnabled[u])
                    prev[u * words_] |= bit;
            }
        }
        for (size_t lat = 0; lat <= maxLatency_; ++lat)
            lookback_[lat * rows + i] = static_cast<uint32_t>(
                history + i - std::min(lat, row - begin));
    }
    // Padding rows are masked off; stepping on by one keeps the last
    // group's source rows in range and consecutive.
    for (size_t lat = 0; lat <= maxLatency_; ++lat)
        for (size_t i = n_; i < rows; ++i)
            lookback_[lat * rows + i] = lookback_[lat * rows + i - 1] + 1;

    busMasks_.clear();
    bindings_.resize(runs_);
    busOuts_.resize(runs_);
}

inline const togglekernels::Binding *
ToggleColumnGenerator::unitBindings(size_t unit, const uint64_t *masks,
                                    uint64_t *const *outs)
{
    for (size_t r = 0; r < runs_; ++r) {
        const size_t ru = r * numUnits + unit;
        bindings_[r] = {actU_.data() + ru * unitRows_,
                        dataU_.data() + ru * unitRows_,
                        masks ? masks + r * words_
                              : enabledMask_.data() + ru * words_,
                        outs[r]};
    }
    return bindings_.data();
}

inline togglekernels::Column
ToggleColumnGenerator::column(size_t latency,
                              const togglekernels::Binding *bindings) const
{
    togglekernels::Column c;
    c.cycles = cycles_.data();
    c.src = lookback_.data() + latency * words_ * 64;
    c.words = words_;
    c.bindings = bindings;
    c.bindingCount = runs_;
    return c;
}

const uint64_t *
ToggleColumnGenerator::busEventMasks(const Signal &sig)
{
    const auto u = static_cast<size_t>(sig.unit);
    const uint64_t key =
        (static_cast<uint64_t>(sig.busId) << 16) |
        (static_cast<uint64_t>(u) << 8) | sig.latency;
    auto it = busMasks_.find(key);
    if (it != busMasks_.end())
        return it->second.data();

    std::vector<uint64_t> masks(runs_ * words_);
    for (size_t r = 0; r < runs_; ++r)
        busOuts_[r] = masks.data() + r * words_;
    togglekernels::Column c =
        column(sig.latency, unitBindings(u, nullptr, busOuts_.data()));
    c.rule = togglekernels::Rule::BusEvent;
    c.seed = engine_.busDrawSeed(sig.busId);
    c.eventSensitivity =
        engine_.netlist().bus(static_cast<size_t>(sig.busId))
            .eventSensitivity;
    fill_(c);
    return busMasks_.emplace(key, std::move(masks))
        .first->second.data();
}

inline void
ToggleColumnGenerator::fillClockEnable(size_t unit, size_t run,
                                       uint64_t *out) const
{
    const size_t ru = run * numUnits + unit;
    const uint64_t *en = enabledMask_.data() + ru * words_;
    const uint64_t *prev = prevEnabledMask_.data() + ru * words_;
    for (size_t w = 0; w < words_; ++w)
        out[w] = en[w] ^ prev[w];
}

inline void
ToggleColumnGenerator::fillSignal(uint32_t sig_id, const Signal &sig,
                                  const togglekernels::Binding *bindings)
{
    // A gated clock reads its window's own rows, whatever its latency.
    const bool gated = sig.kind == SignalKind::GatedClock;
    togglekernels::Column c = column(gated ? 0 : sig.latency, bindings);
    c.seed = engine_.signalDrawSeed(sig_id);
    if (gated) {
        c.rule = togglekernels::Rule::GatedClock;
    } else if (sig.kind == SignalKind::BusBit) {
        c.rule = togglekernels::Rule::BusBit;
    } else { // FlipFlop / CombWire
        c.rule = togglekernels::Rule::Toggle;
        c.sig = &sig;
    }
    fill_(c);
}

void
ToggleColumnGenerator::fillColumn(uint32_t sig_id, uint64_t *out)
{
    APOLLO_ASSERT(n_ > 0 && runs_ == 1, "fillColumn needs a one-run bind");

    const Signal &sig = engine_.netlist().signal(sig_id);
    const auto u = static_cast<size_t>(sig.unit);
    if (sig.kind == SignalKind::ClockEnable)
        return fillClockEnable(u, 0, out);
    const togglekernels::Binding one{
        actU_.data() + u * unitRows_, dataU_.data() + u * unitRows_,
        sig.kind == SignalKind::BusBit ? busEventMasks(sig)
                                       : enabledMask_.data() + u * words_,
        out};
    fillSignal(sig_id, sig, &one);
}

void
ToggleColumnGenerator::fillColumns(uint32_t sig_id, uint64_t *const *outs)
{
    APOLLO_ASSERT(n_ > 0, "bind first");

    const Signal &sig = engine_.netlist().signal(sig_id);
    const auto u = static_cast<size_t>(sig.unit);
    if (sig.kind == SignalKind::ClockEnable) {
        for (size_t r = 0; r < runs_; ++r)
            fillClockEnable(u, r, outs[r]);
        return;
    }
    const uint64_t *bus_masks =
        sig.kind == SignalKind::BusBit ? busEventMasks(sig) : nullptr;
    fillSignal(sig_id, sig, unitBindings(u, bus_masks, outs));
}

size_t
toggleBlockRows(size_t rows, size_t workers)
{
    constexpr size_t kMaxBlockRows = 4096;
    const size_t slots = workers > 1 ? 4 * workers : 1;
    return std::clamp<size_t>(((rows + slots - 1) / slots + 63) &
                                  ~size_t{63},
                              64, kMaxBlockRows);
}

void
fillToggleColumns(const ActivityEngine &engine,
                  std::span<const ActivityFrame> frames,
                  std::span<const uint32_t> segment_begin_of,
                  size_t first, size_t count,
                  std::span<const uint32_t> sig_ids, BitColumnMatrix &out)
{
    out.reset(count, sig_ids.size());
    const size_t block =
        toggleBlockRows(count, ThreadPool::global().threadCount());
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
