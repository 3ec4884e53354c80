#include "power/oracle_accumulator.hh"

#include <algorithm>

#include "util/bitvec_kernels.hh"
#include "util/logging.hh"

namespace apollo {

OracleAccumulator::OracleAccumulator(const Netlist &netlist,
                                     const PowerOracle &oracle)
    : oracle_(oracle)
{
    const size_t m = netlist.signalCount();
    auto w = std::make_shared<Weights>();
    w->base.resize(m);
    w->glitch.resize(m);
    w->unit.resize(m);
    const double half_v2 = oracle.halfVddSquared();
    const double gf = oracle.params().glitchFactor;
    for (size_t j = 0; j < m; ++j) {
        const Signal &sig = netlist.signal(j);
        w->base[j] = static_cast<float>(half_v2 * sig.cap);
        w->glitch[j] =
            (sig.kind == SignalKind::CombWire && sig.glitchDepth > 0)
                ? static_cast<float>(half_v2 * gf * sig.cap *
                                     sig.glitchDepth)
                : 0.0f;
        w->unit[j] = static_cast<uint8_t>(sig.unit);
    }
    weights_ = std::move(w);
}

void
OracleAccumulator::begin(size_t runs, size_t n_cycles)
{
    runs_ = runs;
    n_ = n_cycles;
    words_ = (n_ + 63) / 64;
    baseAcc_.assign(runs_ * n_, 0.0f);
    glitchAcc_.resize(numUnits * runs_ * n_);
    unitUsed_.assign(numUnits, false);
}

void
OracleAccumulator::addColumn(uint32_t sig_id, size_t run,
                             const uint64_t *words)
{
    bitkernels::axpyWords(words, words_, n_, weights_->base[sig_id],
                          baseAcc_.data() + run * n_);
    const float gw = weights_->glitch[sig_id];
    if (gw != 0.0f) {
        const size_t u = weights_->unit[sig_id];
        float *unit_acc = glitchAcc_.data() + u * runs_ * n_;
        if (!unitUsed_[u]) {
            unitUsed_[u] = true;
            std::fill(unit_acc, unit_acc + runs_ * n_, 0.0f);
        }
        bitkernels::axpyWords(words, words_, n_, gw,
                              unit_acc + run * n_);
    }
}

void
OracleAccumulator::finish(size_t run,
                          std::span<const ActivityFrame> frames,
                          size_t first_row, double scale,
                          double *out) const
{
    APOLLO_REQUIRE(run < runs_ && frames.size() <= n_,
                   "finish: run ", run, " of ", runs_, ", ",
                   frames.size(), " frames for ", n_, " rows");
    const float *base = baseAcc_.data() + run * n_;
    for (size_t i = 0; i < frames.size(); ++i) {
        double sum = static_cast<double>(base[i]);
        for (size_t u = 0; u < numUnits; ++u) {
            if (!unitUsed_[u])
                continue;
            sum += static_cast<double>(frames[i].activity[u]) *
                   static_cast<double>(
                       glitchAcc_[(u * runs_ + run) * n_ + i]);
        }
        out[i] = oracle_.finalize(sum * scale, first_row + i);
    }
}

} // namespace apollo
