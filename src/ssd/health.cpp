#include "ssd/health.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "obs/trace.hpp"

namespace parabit::ssd {

const char *
healthStateName(HealthState s)
{
    switch (s) {
      case HealthState::kHealthy: return "healthy";
      case HealthState::kDegraded: return "degraded";
      case HealthState::kReadOnly: return "read-only";
      case HealthState::kFailed: return "failed";
    }
    return "?";
}

DeviceHealth::DeviceHealth(const HealthConfig &cfg) : cfg_(cfg)
{
    stateGauge_.set(0.0);
    pressureGauge_.set(0.0);
}

double
DeviceHealth::escalateThreshold(HealthState s) const
{
    switch (s) {
      case HealthState::kDegraded: return cfg_.degradedThreshold;
      case HealthState::kReadOnly: return cfg_.readOnlyThreshold;
      case HealthState::kFailed: return cfg_.failedThreshold;
      case HealthState::kHealthy: break;
    }
    return 0.0; // healthy has no entry threshold
}

void
DeviceHealth::pump(Tick now)
{
    if (powerLost_)
        return; // frozen mid-cut; the clock resumes after recovery
    if (now > now_) {
        const Tick dt = now - now_;
        pressure_ *= std::exp2(-static_cast<double>(dt) /
                               static_cast<double>(cfg_.pressureHalfLife));
        now_ = now;
    }
    pressureGauge_.set(pressure_);
    evaluate();
}

void
DeviceHealth::charge(double weight)
{
    if (powerLost_)
        return;
    pressure_ += weight;
    pressureGauge_.set(pressure_);
    evaluate();
}

void
DeviceHealth::evaluate()
{
    // Escalate one step at a time, as far as the pressure justifies
    // right now (a huge burst may cross several thresholds in one
    // charge; each step is still recorded as its own transition).
    while (state_ != HealthState::kFailed) {
        const auto next =
            static_cast<HealthState>(static_cast<std::uint8_t>(state_) + 1);
        if (pressure_ < escalateThreshold(next))
            break;
        transitionTo(next);
    }
    // De-escalate at most one step per evaluation: dwell long enough in
    // the state, and fall clear below its own entry threshold by the
    // hysteresis margin.  kFailed is terminal.
    if (state_ != HealthState::kHealthy && state_ != HealthState::kFailed &&
        now_ - enteredAt_ >= cfg_.minDwell &&
        pressure_ <= escalateThreshold(state_) * (1.0 - kHysteresis))
        transitionTo(
            static_cast<HealthState>(static_cast<std::uint8_t>(state_) - 1));
}

void
DeviceHealth::transitionTo(HealthState to)
{
    const HealthState from = state_;
    transitions_.push_back(
        HealthTransition{from, to, now_, pressure_, powerLost_});
    if (obs::TraceSink *sink = obs::TraceSink::global()) {
        // Span = the completed occupancy of the state being left.
        const Tick s0 = std::max(enteredAt_, healthSpanEnd_);
        const Tick s1 = std::max(now_, s0);
        healthSpanEnd_ = s1;
        sink->span(sink->track("device", "health"), healthStateName(from),
                   s0, s1,
                   {{"to", healthStateName(to), true},
                    {"pressure", std::to_string(pressure_), false}});
    }
    state_ = to;
    maxState_ = std::max(maxState_, to);
    enteredAt_ = now_;
    admittedWritesSinceEntry_ = 0;
    ++transitionsCount_;
    stateGauge_.set(static_cast<double>(static_cast<std::uint8_t>(to)));
}

void
DeviceHealth::auditInvariants(InvariantReport &r) const
{
    if (!r.check(std::isfinite(pressure_) && pressure_ >= 0.0))
        r.fail("health.budget.range",
               "pressure " + std::to_string(pressure_),
               "the pressure budget must stay finite and non-negative");
    for (std::size_t i = 0; i < transitions_.size(); ++i) {
        const HealthTransition &t = transitions_[i];
        const int step = static_cast<int>(t.to) - static_cast<int>(t.from);
        if (!r.check(step == 1 || step == -1))
            r.fail("health.budget.range",
                   "transition " + std::to_string(i),
                   std::string(healthStateName(t.from)) + " -> " +
                       healthStateName(t.to) +
                       " skipped a state (transitions move one step)");
        if (!r.check(!t.powerLost))
            r.fail("health.transition.powerlost",
                   "transition " + std::to_string(i),
                   std::string(healthStateName(t.from)) + " -> " +
                       healthStateName(t.to) +
                       " fired while power was lost (the machine must "
                       "freeze across a cut)");
    }
    if (!r.check(state_ < HealthState::kReadOnly ||
                 admittedWritesSinceEntry_ == 0))
        r.fail("health.readonly.writes",
               std::string("state ") + healthStateName(state_),
               std::to_string(admittedWritesSinceEntry_) +
                   " host write(s) admitted since entering a "
                   "write-rejecting state");
}

bool
DeviceHealth::debugCorruptPressure()
{
    pressure_ = -1.0;
    return true;
}

bool
DeviceHealth::debugForgeTransitionWhilePowerLost()
{
    transitions_.push_back(HealthTransition{HealthState::kHealthy,
                                            HealthState::kDegraded, now_,
                                            pressure_, true});
    return true;
}

bool
DeviceHealth::debugCorruptReadOnlyAdmit()
{
    state_ = HealthState::kReadOnly;
    admittedWritesSinceEntry_ = 1;
    return true;
}

} // namespace parabit::ssd
