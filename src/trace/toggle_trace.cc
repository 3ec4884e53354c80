#include "trace/toggle_trace.hh"

#include <algorithm>

#include "activity/toggle_columns.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "power/label_accumulator.hh"
#include "util/logging.hh"
#include "util/thread_pool.hh"

namespace apollo {

namespace {

/**
 * Most frames one addProgram call reserves ahead of the run (about
 * 700 MiB of address space): a max_cycles near UINT64_MAX must not
 * request an impossible allocation. Longer runs grow past it.
 */
constexpr uint64_t kMaxReservedFrames = uint64_t{1} << 22;

} // namespace

DatasetBuilder::DatasetBuilder(const Netlist &netlist,
                               const CoreParams &core_params,
                               const PowerParams &power_params)
    : netlist_(netlist), coreParams_(core_params), engine_(netlist),
      oracle_(netlist, power_params)
{}

CoreStats
DatasetBuilder::addProgram(const Program &prog, uint64_t max_cycles)
{
    return addProgram(prog, max_cycles, coreParams_.throttle);
}

CoreStats
DatasetBuilder::addProgram(const Program &prog, uint64_t max_cycles,
                           ThrottleMode throttle)
{
    CoreParams params = coreParams_;
    params.throttle = throttle;
    TimingCore core(params);

    // Reserve the whole run up front, and at least double, so that a
    // build from many programs stays linear in total frames.
    const size_t want =
        frames_.size() + std::min(max_cycles, kMaxReservedFrames);
    if (want > frames_.capacity())
        frames_.reserve(std::max(want, 2 * frames_.capacity()));

    SegmentInfo seg;
    seg.name = prog.name();
    seg.begin = frames_.size();
    CoreStats stats = core.run(prog, max_cycles,
        [&](const ActivityFrame &f) { frames_.push_back(f); });
    seg.end = frames_.size();
    segments_.push_back(seg);
    APOLLO_COUNT("apollo.activity.programs", 1);
    APOLLO_COUNT("apollo.activity.cycles", seg.end - seg.begin);
    return stats;
}

void
DatasetBuilder::addFrames(const std::string &name,
                          std::span<const ActivityFrame> frames)
{
    APOLLO_REQUIRE(!frames.empty(), "no frames to add");
    SegmentInfo seg;
    seg.name = name;
    seg.begin = frames_.size();
    frames_.insert(frames_.end(), frames.begin(), frames.end());
    seg.end = frames_.size();
    segments_.push_back(seg);
    APOLLO_COUNT("apollo.activity.frames", frames.size());
}

std::vector<uint32_t>
DatasetBuilder::segmentBeginTable() const
{
    std::vector<uint32_t> begin_of(frames_.size(), 0);
    for (const SegmentInfo &seg : segments_)
        for (size_t i = seg.begin; i < seg.end; ++i)
            begin_of[i] = static_cast<uint32_t>(seg.begin);
    return begin_of;
}

Dataset
DatasetBuilder::build() const
{
    APOLLO_TRACE_SPAN("trace.build");
    const size_t n = frames_.size();
    const size_t m = netlist_.signalCount();
    APOLLO_REQUIRE(n > 0, "no programs added");

    Dataset ds;
    ds.segments = segments_;
    std::vector<uint32_t> all_ids(m);
    for (size_t c = 0; c < m; ++c)
        all_ids[c] = static_cast<uint32_t>(c);
    {
        APOLLO_TRACE_SPAN("trace.fill_columns");
        fillToggleColumns(engine_, frames_, segmentBeginTable(), 0, n,
                          all_ids, ds.X);
    }

    // Labels: the one ground-truth kernel over row blocks of the built
    // columns; a row's sum does not depend on the blocking.
    ds.y.resize(n);
    {
        APOLLO_TRACE_SPAN("trace.label_pass");
        const LabelAccumulator proto(netlist_, oracle_);
        const size_t block =
            toggleBlockRows(n, ThreadPool::global().threadCount());
        parallelFor((n + block - 1) / block, [&](size_t b0, size_t b1) {
            LabelAccumulator acc(proto);
            std::vector<double> power(block);
            for (size_t b = b0; b < b1; ++b) {
                const size_t row0 = b * block;
                const size_t rows = std::min(block, n - row0);
                acc.begin(std::span(frames_).subspan(row0, rows));
                acc.add(all_ids, ds.X.colWords(0) + row0 / 64,
                        ds.X.wordsPerCol());
                acc.finish(1.0, row0, power.data());
                for (size_t i = 0; i < rows; ++i)
                    ds.y[row0 + i] = static_cast<float>(power[i]);
            }
        });
    }
    APOLLO_COUNT("apollo.activity.datasets_built", 1);
    if (APOLLO_OBS_ON() && m > 0) {
        uint64_t ones = 0;
        for (size_t c = 0; c < m; ++c)
            ones += ds.X.colPopcount(c);
        APOLLO_OBSERVE("apollo.activity.toggle_density",
                       static_cast<double>(ones) /
                           (static_cast<double>(n) *
                            static_cast<double>(m)),
                       ::apollo::obs::ratioBounds());
    }
    return ds;
}

BitColumnMatrix
DatasetBuilder::traceProxies(const ActivityEngine &engine,
                             std::span<const ActivityFrame> frames,
                             std::span<const uint32_t> proxy_ids,
                             std::span<const uint32_t> segment_begin_of)
{
    BitColumnMatrix bits;
    fillToggleColumns(engine, frames, segment_begin_of, 0, frames.size(),
                      proxy_ids, bits);
    return bits;
}

} // namespace apollo
