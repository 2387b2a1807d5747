#include "faults/fleet_fault_plan.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <sstream>
#include <string_view>

#include "common/error.hpp"

namespace dragster::faults {

const char* to_string(FleetFaultKind kind) {
  switch (kind) {
    case FleetFaultKind::kNodeCrash: return "nodecrash";
    case FleetFaultKind::kNodeDrain: return "nodedrain";
    case FleetFaultKind::kBudgetCut: return "budgetcut";
    case FleetFaultKind::kJobCrash: return "jobcrash";
    case FleetFaultKind::kNetPartition: return "netpart";
    case FleetFaultKind::kNetDrop: return "netdrop";
    case FleetFaultKind::kNetDelay: return "netdelay";
  }
  return "unknown";
}

namespace {

FleetFaultKind kind_from_string(const std::string& word) {
  if (word == "nodecrash") return FleetFaultKind::kNodeCrash;
  if (word == "nodedrain") return FleetFaultKind::kNodeDrain;
  if (word == "budgetcut") return FleetFaultKind::kBudgetCut;
  if (word == "jobcrash") return FleetFaultKind::kJobCrash;
  if (word == "netpart") return FleetFaultKind::kNetPartition;
  if (word == "netdrop") return FleetFaultKind::kNetDrop;
  if (word == "netdelay") return FleetFaultKind::kNetDelay;
  DRAGSTER_REQUIRE(false, "unknown fleet fault kind '" + word + "'");
  return FleetFaultKind::kNodeCrash;  // unreachable: the REQUIRE above throws
}

void check_event(FleetFaultEvent& event) {
  DRAGSTER_REQUIRE(event.duration_slots >= 1, "fleet fault duration must be at least one slot");
  switch (event.kind) {
    case FleetFaultKind::kNodeCrash:
    case FleetFaultKind::kNodeDrain:
      // draglint:allow(DL004 0.0 is the exact value-absent sentinel, never a computed result)
      if (event.value == 0.0) event.value = 1.0;  // default: one node
      DRAGSTER_REQUIRE(event.value >= 1.0 && event.value == std::floor(event.value),
                       "node count must be a positive integer");
      DRAGSTER_REQUIRE(event.job.empty(),
                       std::string(to_string(event.kind)) + " takes no ':job' target");
      break;
    case FleetFaultKind::kBudgetCut:
      DRAGSTER_REQUIRE(event.value > 0.0 && event.value < 1.0,
                       "budgetcut fraction must be in (0, 1)");
      DRAGSTER_REQUIRE(event.job.empty(), "budgetcut takes no ':job' target");
      break;
    case FleetFaultKind::kJobCrash:
      DRAGSTER_REQUIRE(!event.job.empty(), "jobcrash needs a ':job' target");
      // draglint:allow(DL004 0.0 is the exact value-absent sentinel, never a computed result)
      DRAGSTER_REQUIRE(event.value == 0.0, "jobcrash takes no '*value'");
      DRAGSTER_REQUIRE(event.duration_slots == 1, "jobcrash is instantaneous");
      break;
    case FleetFaultKind::kNetPartition:
      // draglint:allow(DL004 0.0 is the exact value-absent sentinel, never a computed result)
      DRAGSTER_REQUIRE(event.value == 0.0, "netpart takes no '*value'");
      break;
    case FleetFaultKind::kNetDrop:
      DRAGSTER_REQUIRE(event.value > 0.0 && event.value < 1.0,
                       "netdrop fraction must be in (0, 1)");
      break;
    case FleetFaultKind::kNetDelay:
      DRAGSTER_REQUIRE(event.value >= 2.0 && event.value == std::floor(event.value),
                       "netdelay multiplier scales whole slots: integer >= 2");
      break;
  }
}

/// Same lexical rules as the single-job grammar: plain digits with at most
/// one decimal point, bounds-checked before any integral cast.
double parse_number(const std::string& text, std::size_t& pos) {
  const std::size_t start = pos;
  int dots = 0;
  while (pos < text.size() && (std::isdigit(static_cast<unsigned char>(text[pos])) != 0 ||
                               text[pos] == '.')) {
    if (text[pos] == '.') ++dots;
    ++pos;
  }
  const std::string token = text.substr(start, pos - start);
  DRAGSTER_REQUIRE(!token.empty(), "expected a number in fleet fault event '" + text + "'");
  DRAGSTER_REQUIRE(dots <= 1 && token != ".",
                   "bad number '" + token + "' in fleet fault event '" + text + "'");
  double value = 0.0;
  try {
    value = std::stod(token);
  } catch (const std::exception&) {
    DRAGSTER_REQUIRE(false, "bad number '" + token + "' in fleet fault event '" + text + "'");
  }
  DRAGSTER_REQUIRE(std::isfinite(value) && value < 1e9,
                   "number '" + token + "' out of range in fleet fault event '" + text + "'");
  return value;
}

std::size_t parse_index(const std::string& text, std::size_t& pos, const char* what) {
  const std::size_t start = pos;
  const double value = parse_number(text, pos);
  const std::string token = text.substr(start, pos - start);
  DRAGSTER_REQUIRE(value == std::floor(value), std::string(what) + " '" + token +
                                                   "' must be an integer in fleet fault event '" +
                                                   text + "'");
  return static_cast<std::size_t>(value);
}

FleetFaultEvent parse_event(const std::string& text) {
  FleetFaultEvent event;
  const std::size_t at = text.find('@');
  DRAGSTER_REQUIRE(at != std::string::npos,
                   "fleet fault event '" + text + "' is missing '@slot'");
  event.kind = kind_from_string(text.substr(0, at));

  std::size_t pos = at + 1;
  event.slot = parse_index(text, pos, "slot");
  bool saw_duration = false;
  bool saw_value = false;
  while (pos < text.size()) {
    const char tag = text[pos++];
    if (tag == '+') {
      DRAGSTER_REQUIRE(!saw_duration, "repeated '+duration' in fleet fault event '" + text + "'");
      saw_duration = true;
      event.duration_slots = parse_index(text, pos, "duration");
    } else if (tag == '*') {
      DRAGSTER_REQUIRE(!saw_value, "repeated '*value' in fleet fault event '" + text + "'");
      saw_value = true;
      event.value = parse_number(text, pos);
    } else if (tag == ':') {
      event.job = text.substr(pos);
      pos = text.size();
      DRAGSTER_REQUIRE(!event.job.empty(), "empty job name in '" + text + "'");
    } else {
      DRAGSTER_REQUIRE(false, std::string("unexpected '") + tag + "' in fleet fault event '" +
                                  text + "'");
    }
  }
  // A *typed* modifier an event would ignore is a spec bug and must not
  // parse, mirroring the single-job grammar's explicit-modifier checks.
  if (saw_value) {
    // draglint:allow(DL004 rejecting the literal spec token '*0': exact comparison intended)
    DRAGSTER_REQUIRE(event.value != 0.0, "explicit '*0' in fleet fault event '" + text + "'");
    DRAGSTER_REQUIRE(event.kind != FleetFaultKind::kJobCrash,
                     "jobcrash takes no '*value' in '" + text + "'");
    DRAGSTER_REQUIRE(event.kind != FleetFaultKind::kNetPartition,
                     "netpart takes no '*value' in '" + text + "'");
  }
  if (saw_duration) {
    const bool windowed = event.kind == FleetFaultKind::kNodeDrain ||
                          event.kind == FleetFaultKind::kBudgetCut ||
                          event.kind == FleetFaultKind::kNetPartition ||
                          event.kind == FleetFaultKind::kNetDrop ||
                          event.kind == FleetFaultKind::kNetDelay;
    DRAGSTER_REQUIRE(windowed, std::string(to_string(event.kind)) +
                                   " is instantaneous and takes no '+duration' in '" + text +
                                   "'");
  }
  if (event.kind == FleetFaultKind::kBudgetCut)
    DRAGSTER_REQUIRE(saw_value, "budgetcut needs an explicit '*fraction' in '" + text + "'");
  if (event.kind == FleetFaultKind::kNetDrop)
    DRAGSTER_REQUIRE(saw_value, "netdrop needs an explicit '*fraction' in '" + text + "'");
  if (event.kind == FleetFaultKind::kNetDelay)
    DRAGSTER_REQUIRE(saw_value, "netdelay needs an explicit '*multiplier' in '" + text + "'");
  check_event(event);
  return event;
}

}  // namespace

std::string FleetFaultEvent::to_string() const {
  std::ostringstream oss;
  oss << faults::to_string(kind) << '@' << slot;
  if (duration_slots != 1) oss << '+' << duration_slots;
  const bool node_kind =
      kind == FleetFaultKind::kNodeCrash || kind == FleetFaultKind::kNodeDrain;
  const bool valued_net_kind =
      kind == FleetFaultKind::kNetDrop || kind == FleetFaultKind::kNetDelay;
  // draglint:allow(DL004 1.0 is the normalized node-count default; parse() re-normalizes it)
  if (kind == FleetFaultKind::kBudgetCut || valued_net_kind || (node_kind && value != 1.0)) {
    // Shortest fixed-notation digits: parse() reads them back to the same
    // double, and it takes no exponent.
    char buf[400];  // holds any finite double in fixed notation
    const char* end = std::to_chars(buf, buf + sizeof(buf), value, std::chars_format::fixed).ptr;
    oss << '*' << std::string_view(buf, end);
  }
  if (!job.empty()) oss << ':' << job;
  return oss.str();
}

FleetFaultPlan::FleetFaultPlan(std::vector<FleetFaultEvent> events) : events_(std::move(events)) {
  for (FleetFaultEvent& event : events_) check_event(event);
  std::stable_sort(events_.begin(), events_.end(),
                   [](const FleetFaultEvent& a, const FleetFaultEvent& b) {
                     return a.slot < b.slot;
                   });
  for (std::size_t i = 0; i < events_.size(); ++i) {
    for (std::size_t j = i + 1; j < events_.size() && events_[j].slot == events_[i].slot; ++j) {
      DRAGSTER_REQUIRE(events_[j].kind != events_[i].kind || events_[j].job != events_[i].job,
                       "duplicate fleet fault event '" + events_[i].to_string() + "'");
    }
  }
}

FleetFaultPlan FleetFaultPlan::parse(const std::string& spec) {
  std::vector<FleetFaultEvent> events;
  std::size_t start = 0;
  while (start <= spec.size()) {
    std::size_t end = spec.find(';', start);
    if (end == std::string::npos) end = spec.size();
    const std::string piece = spec.substr(start, end - start);
    if (!piece.empty()) events.push_back(parse_event(piece));
    if (end == spec.size()) break;
    start = end + 1;
  }
  return FleetFaultPlan(std::move(events));
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

std::string FleetFaultPlan::to_string() const {
  std::string out;
  for (const FleetFaultEvent& event : events_) {
    if (!out.empty()) out += ';';
    out += event.to_string();
  }
  return out;
}

}  // namespace dragster::faults
