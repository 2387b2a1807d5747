#include "faults/fleet_fault_plan.hpp"

#include <iterator>

#include "common/error.hpp"
#include "faults/fault_grammar.hpp"

namespace dragster::faults {

namespace {

using grammar::kCount;
using grammar::kFraction;
using grammar::kLimit;
using grammar::KindRule;
using grammar::Target;
using grammar::Value;

// One row per FleetFaultKind, in enum order: name, windowed, value,
// default, range, target.  netdelay scales whole slots, hence integral.
constexpr KindRule kRules[] = {
    {"nodecrash", false, Value::kImplicit, 1.0, kCount, Target::kNone},
    {"nodedrain", true, Value::kImplicit, 1.0, kCount, Target::kNone},
    {"budgetcut", true, Value::kRequired, 0.0, kFraction, Target::kNone},
    {"jobcrash", false, Value::kNone, 0.0, {}, Target::kRequired},
    {"netpart", true, Value::kNone, 0.0, {}, Target::kOptional},
    {"netdrop", true, Value::kRequired, 0.0, kFraction, Target::kOptional},
    {"netdelay", true, Value::kRequired, 0.0, {2.0, false, kLimit, true}, Target::kOptional},
};
static_assert(std::size(kRules) == static_cast<std::size_t>(FleetFaultKind::kNetDelay) + 1);

constexpr grammar::Grammar<FleetFaultEvent> kGrammar({kRules, "fleet fault event", "job"},
                                                     &FleetFaultEvent::job);

}  // namespace

const char* to_string(FleetFaultKind kind) { return kGrammar.name(kind); }

std::string FleetFaultEvent::to_string() const { return kGrammar.format(*this); }

FleetFaultPlan::FleetFaultPlan(std::vector<FleetFaultEvent> events) : events_(std::move(events)) {
  kGrammar.validate(events_);
}

FleetFaultPlan FleetFaultPlan::parse(const std::string& spec) {
  return FleetFaultPlan(kGrammar.parse(spec));
}

FleetFaultPlan FleetFaultPlan::sample(common::Rng& rng, const SampleOptions& options) {
  DRAGSTER_REQUIRE(options.warmup_slots <= options.horizon_slots, "warmup exceeds horizon");
  DRAGSTER_REQUIRE(options.max_window_slots >= 1, "window must be at least one slot");
  DRAGSTER_REQUIRE(options.cut_fraction > 0.0 && options.cut_fraction < 1.0,
                   "cut fraction must be in (0, 1)");
  DRAGSTER_REQUIRE(options.jobcrash_prob <= 0.0 || !options.jobs.empty(),
                   "jobcrash sampling needs candidate job names");

  auto pick_window = [&]() {
    return static_cast<std::size_t>(
        rng.uniform_int(1, static_cast<std::int64_t>(options.max_window_slots)));
  };

  std::vector<FleetFaultEvent> events;
  std::size_t crashed = 0;
  for (std::size_t slot = options.warmup_slots; slot < options.horizon_slots; ++slot) {
    if (crashed < options.max_crash_nodes && rng.bernoulli(options.nodecrash_prob)) {
      events.push_back({FleetFaultKind::kNodeCrash, slot, 1, 1.0, ""});
      ++crashed;
    }
    if (rng.bernoulli(options.nodedrain_prob))
      events.push_back({FleetFaultKind::kNodeDrain, slot, pick_window(), 1.0, ""});
    if (rng.bernoulli(options.budgetcut_prob))
      events.push_back(
          {FleetFaultKind::kBudgetCut, slot, pick_window(), options.cut_fraction, ""});
    if (rng.bernoulli(options.jobcrash_prob)) {
      const auto index = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(options.jobs.size()) - 1));
      events.push_back({FleetFaultKind::kJobCrash, slot, 1, 0.0, options.jobs[index]});
    }
    // The net draws are gated on the probability so plans sampled with the
    // pre-transport defaults consume exactly the pre-transport draw sequence
    // (bit-identical sampled chaos for existing seeds).
    if (options.netpart_prob > 0.0 && rng.bernoulli(options.netpart_prob))
      events.push_back({FleetFaultKind::kNetPartition, slot, pick_window(), 0.0, ""});
    if (options.netdrop_prob > 0.0 && rng.bernoulli(options.netdrop_prob))
      events.push_back({FleetFaultKind::kNetDrop, slot, pick_window(), options.drop_fraction, ""});
    if (options.netdelay_prob > 0.0 && rng.bernoulli(options.netdelay_prob))
      events.push_back(
          {FleetFaultKind::kNetDelay, slot, pick_window(), options.delay_multiplier, ""});
  }
  return FleetFaultPlan(std::move(events));
}

bool FleetFaultPlan::touches_nodes() const noexcept {
  for (const FleetFaultEvent& event : events_)
    if (event.kind == FleetFaultKind::kNodeCrash || event.kind == FleetFaultKind::kNodeDrain)
      return true;
  return false;
}

std::string FleetFaultPlan::to_string() const { return kGrammar.join(events_); }

}  // namespace dragster::faults
