#include "control/droop_controller.hh"

#include <algorithm>
#include <cmath>

#include "util/logging.hh"

namespace apollo::control {

Status
DroopControllerConfig::validate() const
{
    if (!(vdd > 0.0) || !std::isfinite(vdd))
        return Status::invalidArgument(
            "controller vdd must be positive and finite, got ", vdd);
    if (policy == ThrottleMode::None)
        return Status::okStatus();
    if (!(triggerDelta > 0.0) || !std::isfinite(triggerDelta))
        return Status::invalidArgument(
            "controller trigger delta must be positive and finite, got ",
            triggerDelta);
    if (engageCycles == 0)
        return Status::invalidArgument(
            "controller engage window must be at least 1 cycle");
    if (policy == ThrottleMode::Proportional && proportionalLevel == 0)
        return Status::invalidArgument(
            "proportional policy needs an issue cap of at least 1");
    return Status::okStatus();
}

DroopController::DroopController(const DroopControllerConfig &config)
    : cfg_(config)
{
    const Status st = cfg_.validate();
    APOLLO_REQUIRE(st.ok(), "invalid controller config: ", st.message());
}

void
DroopController::observe(uint64_t cycle, double est_power)
{
    const double current = est_power / cfg_.vdd;
    const bool trigger =
        havePrev_ && (current - prevCurrent_) > cfg_.triggerDelta;
    prevCurrent_ = current;
    havePrev_ = true;
    if (!trigger || cfg_.policy == ThrottleMode::None)
        return;

    triggers_++;
    const uint64_t start = cycle + 1 + cfg_.triggerLatency;
    const uint64_t end = start + cfg_.engageCycles - 1;
    if (state_ == TriggerState::Idle) {
        engageAt_ = start;
        releaseAfter_ = end;
        state_ = TriggerState::Armed;
    } else {
        releaseAfter_ = std::max(releaseAfter_, end);
    }
}

void
DroopController::apply(uint64_t cycle, Throttle &throttle)
{
    const uint64_t next = cycle + 1;
    if (state_ == TriggerState::Armed && next >= engageAt_) {
        state_ = TriggerState::Engaged;
        throttle.engage(cfg_.policy, cfg_.proportionalLevel);
    }
    if (state_ == TriggerState::Engaged) {
        if (next > releaseAfter_) {
            throttle.release();
            state_ = TriggerState::Idle;
        } else {
            engagedCycles_++;
        }
    }
}

} // namespace apollo::control
