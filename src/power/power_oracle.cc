#include "power/power_oracle.hh"

#include <cmath>

#include "util/logging.hh"
#include "util/rng.hh"

namespace apollo {

PowerOracle::PowerOracle(const Netlist &netlist, const PowerParams &params)
    : netlist_(netlist), params_(params),
      halfV2_(0.5 * params.vdd * params.vdd),
      noiseSeed_(hashMix(netlist.seed() ^ 0x90153ULL))
{}

double
PowerOracle::signalContribution(uint32_t sig_id,
                                const ActivityFrame &frame) const
{
    const Signal &sig = netlist_.signal(sig_id);
    double c = sig.cap;
    if (sig.kind == SignalKind::CombWire && sig.glitchDepth > 0) {
        // Glitch energy grows with logic depth and with how active the
        // unit is (more input arrival skew) — a nonlinear residual the
        // linear proxy model cannot capture exactly.
        c += params_.glitchFactor * sig.cap * sig.glitchDepth *
             frame.act(sig.unit);
    }
    return halfV2_ * c;
}

double
PowerOracle::finalize(double contribution_sum, uint64_t cycle_key) const
{
    double p = contribution_sum;
    p += params_.shortCircuitFactor * contribution_sum;
    p += params_.leakFraction * netlist_.totalCap() * halfV2_;
    // Mild multiplicative measurement noise (two-hash triangular draw,
    // cheap and deterministic).
    const uint64_t h = hashCombine(noiseSeed_, cycle_key);
    const double u = hashToUnitFloat(h) + hashToUnitFloat(hashMix(h)) -
                     1.0; // triangular in (-1, 1)
    p *= 1.0 + params_.noiseSigma * 1.6 * u;
    return p * params_.outputScale;
}

double
PowerOracle::leakagePower() const
{
    return params_.leakFraction * netlist_.totalCap() * halfV2_ *
           params_.outputScale;
}

} // namespace apollo
