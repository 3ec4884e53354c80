#include "gen/fitness_eval.hh"

#include "util/logging.hh"

namespace apollo {

FitnessEvaluator::FitnessEvaluator(const Netlist &netlist,
                                   const ActivityEngine &engine,
                                   const PowerOracle &oracle,
                                   uint32_t signal_stride)
    : signals_(netlist.signalCount()), stride_(signal_stride),
      gen_(engine), acc_(netlist, oracle)
{
    APOLLO_REQUIRE(signal_stride >= 1, "stride must be positive");
}

void
FitnessEvaluator::cyclePowers(std::span<const ActivityFrame> frames,
                              std::vector<double> &out)
{
    if (frames.empty()) {
        out.clear();
        return;
    }
    gen_.bind(frames, {}, 0, frames.size());
    colWords_.resize(gen_.wordCount());
    acc_.begin(frames.size());
    for (size_t c = 0; c < signals_; c += stride_) {
        const auto sig_id = static_cast<uint32_t>(c);
        gen_.fillColumn(sig_id, colWords_.data());
        acc_.addColumn(sig_id, colWords_.data());
    }
    acc_.finish(frames, static_cast<double>(stride_), out);
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
