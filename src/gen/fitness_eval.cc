#include "gen/fitness_eval.hh"

#include "util/logging.hh"

namespace apollo {

FitnessEvaluator::FitnessEvaluator(const Netlist &netlist,
                                   const ActivityEngine &engine,
                                   const PowerOracle &oracle,
                                   const FitnessOptions &options)
    : netlist_(netlist), engine_(engine), oracle_(oracle),
      options_(options), gen_(engine), acc_(netlist, oracle)
{
    APOLLO_REQUIRE(options.signalStride >= 1, "stride must be positive");
}

void
FitnessEvaluator::cyclePowers(std::span<const ActivityFrame> frames,
                              std::vector<double> &out)
{
    if (frames.empty()) {
        out.clear();
        return;
    }
    if (!options_.vectorized) {
        cyclePowersScalar(frames, out);
        return;
    }

    const size_t m = netlist_.signalCount();
    const uint32_t stride = options_.signalStride;
    gen_.bind(frames, {}, 0, frames.size());
    colWords_.resize(gen_.wordCount());
    acc_.begin(frames.size());
    for (size_t c = 0; c < m; c += stride) {
        const auto sig_id = static_cast<uint32_t>(c);
        gen_.fillColumn(sig_id, colWords_.data());
        acc_.addColumn(sig_id, colWords_.data());
    }
    acc_.finish(frames, static_cast<double>(stride), out);
}

void
FitnessEvaluator::cyclePowersScalar(std::span<const ActivityFrame> frames,
                                    std::vector<double> &out)
{
    // Same accumulation order as the vectorized path, one cycle at a
    // time: float base/per-unit glitch sums over ascending strided
    // signals, double combine over ascending units, then finalize.
    const size_t m = netlist_.signalCount();
    const uint32_t stride = options_.signalStride;
    const size_t n = frames.size();
    out.resize(n);
    for (size_t i = 0; i < n; ++i) {
        float base = 0.0f;
        float glitch[numUnits] = {};
        for (size_t c = 0; c < m; c += stride) {
            const auto sig_id = static_cast<uint32_t>(c);
            if (!engine_.toggles(sig_id, frames, i, 0))
                continue;
            base += acc_.baseWeight(sig_id);
            const float gw = acc_.glitchWeight(sig_id);
            if (gw != 0.0f) {
                const auto u = static_cast<size_t>(
                    netlist_.signal(sig_id).unit);
                glitch[u] += gw;
            }
        }
        double sum = static_cast<double>(base);
        for (size_t u = 0; u < numUnits; ++u)
            sum += static_cast<double>(frames[i].activity[u]) *
                   static_cast<double>(glitch[u]);
        out[i] =
            oracle_.finalize(sum * static_cast<double>(stride), i);
    }
}

double
FitnessEvaluator::averagePower(std::span<const ActivityFrame> frames)
{
    if (frames.empty())
        return 0.0;
    cyclePowers(frames, powers_);
    double total = 0.0;
    for (double p : powers_)
        total += p;
    return total / static_cast<double>(powers_.size());
}

} // namespace apollo
