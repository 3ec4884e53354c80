#include "droop/droop.hh"

#include <algorithm>
#include <cmath>

#include "util/logging.hh"

namespace apollo {

std::vector<double>
currentFromPower(std::span<const float> power, double vdd)
{
    APOLLO_REQUIRE(vdd > 0.0, "vdd must be positive");
    std::vector<double> current(power.size());
    for (size_t i = 0; i < power.size(); ++i)
        current[i] = power[i] / vdd;
    return current;
}

std::vector<double>
deltaI(std::span<const double> current)
{
    std::vector<double> di(current.size(), 0.0);
    for (size_t i = 1; i < current.size(); ++i)
        di[i] = current[i] - current[i - 1];
    return di;
}

namespace {

double
pearsonD(std::span<const double> a, std::span<const double> b)
{
    const size_t n = a.size();
    double ma = 0.0;
    double mb = 0.0;
    for (size_t i = 0; i < n; ++i) {
        ma += a[i];
        mb += b[i];
    }
    ma /= static_cast<double>(n);
    mb /= static_cast<double>(n);
    double cov = 0.0;
    double va = 0.0;
    double vb = 0.0;
    for (size_t i = 0; i < n; ++i) {
        cov += (a[i] - ma) * (b[i] - mb);
        va += (a[i] - ma) * (a[i] - ma);
        vb += (b[i] - mb) * (b[i] - mb);
    }
    if (va <= 0.0 || vb <= 0.0)
        return 0.0;
    return cov / std::sqrt(va * vb);
}

} // namespace

double
percentileCut(std::span<const double> values, double q)
{
    APOLLO_REQUIRE(!values.empty(), "percentile cut of empty series");
    APOLLO_REQUIRE(q >= 0.0 && q <= 1.0,
                   "percentile must be in [0, 1], got ", q);
    // `<` orders no NaN, so neither a sort nor a selection would be
    // defined on one.
    for (size_t i = 0; i < values.size(); ++i)
        APOLLO_REQUIRE(!std::isnan(values[i]),
                       "percentile cut of a series with NaN at index ", i);
    std::vector<double> order(values.begin(), values.end());
    const size_t index = std::min(
        order.size() - 1,
        static_cast<size_t>(q * static_cast<double>(order.size() - 1)));
    std::nth_element(order.begin(), order.begin() + index, order.end());
    return order[index];
}

DidtAnalysis
analyzeDidt(std::span<const float> truth_power,
            std::span<const float> est_power, double vdd,
            double deep_percentile)
{
    APOLLO_REQUIRE(truth_power.size() == est_power.size(),
                   "trace arity mismatch");
    // n == 3 would feed pearsonD two-sample inputs below (subspan(1)
    // of a 3-entry delta series), which are always degenerate.
    APOLLO_REQUIRE(truth_power.size() >= 4,
                   "dI/dt analysis needs at least 4 samples, got ",
                   truth_power.size());
    APOLLO_REQUIRE(deep_percentile >= 0.0 && deep_percentile <= 1.0,
                   "deep_percentile must be in [0, 1], got ",
                   deep_percentile);
    const std::vector<double> i_truth =
        currentFromPower(truth_power, vdd);
    const std::vector<double> i_est = currentFromPower(est_power, vdd);
    const std::vector<double> di_truth = deltaI(i_truth);
    const std::vector<double> di_est = deltaI(i_est);

    DidtAnalysis out;
    out.pearsonDeltaI =
        pearsonD(std::span(di_truth).subspan(1),
                 std::span(di_est).subspan(1));

    for (size_t i = 1; i < di_truth.size(); ++i) {
        const bool tp = di_truth[i] >= 0.0;
        const bool ep = di_est[i] >= 0.0;
        if (tp && ep)
            out.quadPosPos++;
        else if (tp && !ep)
            out.quadPosNeg++;
        else if (!tp && ep)
            out.quadNegPos++;
        else
            out.quadNegNeg++;
    }

    // Deep events: |truth dI| above the requested percentile.
    std::vector<double> mags;
    mags.reserve(di_truth.size() - 1);
    for (size_t i = 1; i < di_truth.size(); ++i)
        mags.push_back(std::abs(di_truth[i]));
    const double cut = percentileCut(mags, deep_percentile);

    std::vector<double> deep_truth;
    std::vector<double> deep_est;
    for (size_t i = 1; i < di_truth.size(); ++i) {
        if (std::abs(di_truth[i]) >= cut) {
            deep_truth.push_back(di_truth[i]);
            deep_est.push_back(di_est[i]);
        }
    }
    if (deep_truth.size() > 2)
        out.deepEventPearson = pearsonD(deep_truth, deep_est);

    // Droop precursors: top-decile positive truth steps; does the OPM
    // estimate also land in its own top decile?
    const double est_hi =
        percentileCut(std::span(di_est).subspan(1), 0.90);
    const double truth_hi =
        percentileCut(std::span(di_truth).subspan(1), 0.90);

    uint64_t deep_pos = 0;
    uint64_t caught = 0;
    for (size_t i = 1; i < di_truth.size(); ++i) {
        if (di_truth[i] >= truth_hi) {
            deep_pos++;
            if (di_est[i] >= est_hi)
                caught++;
        }
    }
    out.deepDroopRecall =
        deep_pos ? static_cast<double>(caught) / deep_pos : 0.0;
    return out;
}

DroopSimResult
simulateDroop(std::span<const float> power, const PdnParams &pdn_params,
              double droop_threshold)
{
    PdnModel pdn(pdn_params);
    const std::vector<double> current =
        currentFromPower(power, pdn_params.vdd);

    DroopSimResult res;
    res.voltage.reserve(current.size());
    res.minVoltage = pdn_params.vdd;
    for (double i : current) {
        const double v = pdn.step(i);
        res.voltage.push_back(v);
        res.minVoltage = std::min(res.minVoltage, v);
        res.maxOvershoot =
            std::max(res.maxOvershoot, v - pdn_params.vdd);
        if (v < droop_threshold)
            res.droopCycles++;
    }
    return res;
}

DroopSimResult
simulateWithMitigation(std::span<const float> truth_power,
                       std::span<const float> est_power,
                       const PdnParams &pdn_params,
                       double droop_threshold, double trigger_delta,
                       double stretch_factor, uint32_t stretch_cycles)
{
    APOLLO_REQUIRE(truth_power.size() == est_power.size(),
                   "trace arity mismatch");
    APOLLO_REQUIRE(stretch_factor > 0.0 && stretch_factor <= 1.0,
                   "stretch factor must be in (0, 1]");
    // A non-positive trigger fires on every flat or falling sample and
    // a zero stretch window never throttles despite the trigger —
    // both silently defeat the mitigation, so reject them like
    // analyzeDidt rejects out-of-range percentiles.
    APOLLO_REQUIRE(trigger_delta > 0.0,
                   "trigger delta must be positive, got ", trigger_delta);
    APOLLO_REQUIRE(stretch_cycles > 0,
                   "stretch window must be at least 1 cycle");
    PdnModel pdn(pdn_params);

    DroopSimResult res;
    res.voltage.reserve(truth_power.size());
    res.minVoltage = pdn_params.vdd;

    double prev_est_current = 0.0;
    uint32_t stretch_left = 0;
    double effective_prev = 0.0;

    for (size_t i = 0; i < truth_power.size(); ++i) {
        // The OPM watches its own estimate (2-cycle latency folded into
        // the trigger by reacting to the previous sample's delta).
        const double est_current = est_power[i] / pdn_params.vdd;
        const double est_delta =
            i ? est_current - prev_est_current : 0.0;
        prev_est_current = est_current;
        if (est_delta > trigger_delta)
            stretch_left = stretch_cycles;

        double current = truth_power[i] / pdn_params.vdd;
        if (stretch_left > 0) {
            // Adaptive clocking: the stretched clock spreads the same
            // work over more time, capping the current ramp.
            const double cap =
                effective_prev + trigger_delta * stretch_factor;
            current = std::min(current, cap);
            stretch_left--;
            res.throttledCycles++;
        }
        effective_prev = current;

        const double v = pdn.step(current);
        res.voltage.push_back(v);
        res.minVoltage = std::min(res.minVoltage, v);
        res.maxOvershoot =
            std::max(res.maxOvershoot, v - pdn_params.vdd);
        if (v < droop_threshold)
            res.droopCycles++;
    }
    return res;
}

} // namespace apollo
