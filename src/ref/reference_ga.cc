#include "ref/reference_ga.hh"

namespace apollo::ref {

std::vector<uint8_t>
toggleColumn(const ActivityEngine &engine,
             std::span<const ActivityFrame> frames, uint32_t sig_id,
             std::span<const uint32_t> segment_begin_of)
{
    std::vector<uint8_t> out(frames.size(), 0);
    for (size_t i = 0; i < frames.size(); ++i) {
        const size_t begin =
            segment_begin_of.empty() ? 0 : segment_begin_of[i];
        out[i] = engine.toggles(sig_id, frames, i, begin) ? 1 : 0;
    }
    return out;
}

Dataset
datasetBuild(const Netlist &netlist, const ActivityEngine &engine,
             const PowerOracle &oracle,
             std::span<const ActivityFrame> frames,
             std::span<const uint32_t> segment_begin_of)
{
    const size_t n = frames.size();
    const size_t m = netlist.signalCount();
    Dataset ds;
    ds.X.reset(n, m);
    ds.y.resize(n);
    for (size_t i = 0; i < n; ++i) {
        double sum = 0.0;
        for (size_t j = 0; j < m; ++j) {
            const auto sig_id = static_cast<uint32_t>(j);
            if (!engine.toggles(sig_id, frames, i, segment_begin_of[i]))
                continue;
            ds.X.setBit(i, j);
            sum += oracle.signalContribution(sig_id, frames[i]);
        }
        ds.y[i] = static_cast<float>(oracle.finalize(sum, i));
    }
    return ds;
}

std::vector<double>
fitnessCyclePowers(const Netlist &netlist, const ActivityEngine &engine,
                   const PowerOracle &oracle,
                   std::span<const ActivityFrame> frames, uint32_t stride)
{
    const size_t m = netlist.signalCount();
    const size_t n = frames.size();
    std::vector<double> out(n);
    for (size_t i = 0; i < n; ++i) {
        double sum = 0.0;
        for (size_t j = 0; j < m; j += stride) {
            const auto sig_id = static_cast<uint32_t>(j);
            if (engine.toggles(sig_id, frames, i, 0))
                sum += oracle.signalContribution(sig_id, frames[i]);
        }
        out[i] =
            oracle.finalize(sum * static_cast<double>(stride), i);
    }
    return out;
}

double
fitnessAveragePower(const Netlist &netlist, const ActivityEngine &engine,
                    const PowerOracle &oracle,
                    std::span<const ActivityFrame> frames,
                    uint32_t stride)
{
    if (frames.empty())
        return 0.0;
    const std::vector<double> powers =
        fitnessCyclePowers(netlist, engine, oracle, frames, stride);
    double total = 0.0;
    for (double p : powers)
        total += p;
    return total / static_cast<double>(powers.size());
}

} // namespace apollo::ref
