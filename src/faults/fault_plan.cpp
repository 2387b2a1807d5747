#include "faults/fault_plan.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <sstream>
#include <string_view>

#include "common/error.hpp"

namespace dragster::faults {

const char* to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::kPodCrash: return "crash";
    case FaultKind::kStraggler: return "straggler";
    case FaultKind::kCheckpointFailure: return "ckptfail";
    case FaultKind::kMetricDropout: return "dropout";
    case FaultKind::kControllerCrash: return "ctrlcrash";
    case FaultKind::kSchedulerOutage: return "schedfail";
    case FaultKind::kSchedulerDelay: return "scheddelay";
  }
  return "unknown";
}

namespace {

FaultKind kind_from_string(const std::string& word) {
  if (word == "crash") return FaultKind::kPodCrash;
  if (word == "straggler") return FaultKind::kStraggler;
  if (word == "ckptfail") return FaultKind::kCheckpointFailure;
  if (word == "dropout") return FaultKind::kMetricDropout;
  if (word == "ctrlcrash") return FaultKind::kControllerCrash;
  if (word == "schedfail") return FaultKind::kSchedulerOutage;
  if (word == "scheddelay") return FaultKind::kSchedulerDelay;
  DRAGSTER_REQUIRE(false, "unknown fault kind '" + word + "'");
  return FaultKind::kPodCrash;  // unreachable: the REQUIRE above throws
}

void check_event(FaultEvent& event) {
  DRAGSTER_REQUIRE(event.duration_slots >= 1, "fault duration must be at least one slot");
  switch (event.kind) {
    case FaultKind::kPodCrash:
      // draglint:allow(DL004 0.0 is the exact value-absent sentinel, never a computed result)
      if (event.value == 0.0) event.value = 1.0;  // default: one pod
      DRAGSTER_REQUIRE(event.value >= 1.0, "crash needs at least one pod");
      DRAGSTER_REQUIRE(!event.op.empty(), "crash needs a target operator");
      break;
    case FaultKind::kMetricDropout:
      DRAGSTER_REQUIRE(!event.op.empty(), "dropout needs a target operator");
      break;
    case FaultKind::kStraggler:
      DRAGSTER_REQUIRE(!event.op.empty(), "straggler needs a target operator");
      DRAGSTER_REQUIRE(event.value > 0.0 && event.value < 1.0,
                       "straggler factor must be in (0, 1)");
      break;
    case FaultKind::kCheckpointFailure:
      DRAGSTER_REQUIRE(event.value >= 1.0, "ckptfail needs at least one failed attempt");
      break;
    case FaultKind::kControllerCrash:
      DRAGSTER_REQUIRE(event.op.empty(), "ctrlcrash takes no ':operator' target");
      DRAGSTER_REQUIRE(event.duration_slots == 1, "ctrlcrash has no duration window");
      break;
    case FaultKind::kSchedulerOutage:
      DRAGSTER_REQUIRE(event.op.empty(), "schedfail takes no ':operator' target");
      // draglint:allow(DL004 0.0 is the exact value-absent sentinel, never a computed result)
      DRAGSTER_REQUIRE(event.value == 0.0, "schedfail takes no '*value'");
      break;
    case FaultKind::kSchedulerDelay:
      DRAGSTER_REQUIRE(event.op.empty(), "scheddelay takes no ':operator' target");
      DRAGSTER_REQUIRE(event.value > 1.0,
                       "scheddelay multiplier must be greater than 1");
      break;
  }
}

/// Parses a non-negative number starting at `pos`; advances `pos`.  The
/// token must be plain digits with at most one decimal point — anything else
/// (a '-' sign, a second dot, an exponent) is rejected with the token
/// quoted, and the value is bounds-checked before any integral cast.
double parse_number(const std::string& text, std::size_t& pos) {
  const std::size_t start = pos;
  int dots = 0;
  while (pos < text.size() && (std::isdigit(static_cast<unsigned char>(text[pos])) != 0 ||
                               text[pos] == '.')) {
    if (text[pos] == '.') ++dots;
    ++pos;
  }
  const std::string token = text.substr(start, pos - start);
  DRAGSTER_REQUIRE(!token.empty(), "expected a number in fault event '" + text + "'");
  DRAGSTER_REQUIRE(dots <= 1 && token != ".",
                   "bad number '" + token + "' in fault event '" + text + "'");
  double value = 0.0;
  try {
    value = std::stod(token);
  } catch (const std::exception&) {
    DRAGSTER_REQUIRE(false, "bad number '" + token + "' in fault event '" + text + "'");
  }
  DRAGSTER_REQUIRE(std::isfinite(value) && value < 1e9,
                   "number '" + token + "' out of range in fault event '" + text + "'");
  return value;
}

/// Slot indices and durations must be whole numbers; "crash@5.5" truncating
/// silently would misfire the event.
std::size_t parse_index(const std::string& text, std::size_t& pos, const char* what) {
  const std::size_t start = pos;
  const double value = parse_number(text, pos);
  const std::string token = text.substr(start, pos - start);
  DRAGSTER_REQUIRE(value == std::floor(value), std::string(what) + " '" + token +
                                                   "' must be an integer in fault event '" +
                                                   text + "'");
  return static_cast<std::size_t>(value);
}

FaultEvent parse_event(const std::string& text) {
  FaultEvent event;
  const std::size_t at = text.find('@');
  DRAGSTER_REQUIRE(at != std::string::npos, "fault event '" + text + "' is missing '@slot'");
  event.kind = kind_from_string(text.substr(0, at));
  // Defaults chosen so the short forms read naturally.
  if (event.kind == FaultKind::kStraggler) event.value = 0.25;
  if (event.kind == FaultKind::kCheckpointFailure) event.value = 1.0;
  if (event.kind == FaultKind::kSchedulerDelay) event.value = 2.0;

  std::size_t pos = at + 1;
  event.slot = parse_index(text, pos, "slot");
  bool saw_duration = false;
  bool saw_value = false;
  while (pos < text.size()) {
    const char tag = text[pos++];
    if (tag == '+') {
      DRAGSTER_REQUIRE(!saw_duration, "repeated '+duration' in fault event '" + text + "'");
      saw_duration = true;
      event.duration_slots = parse_index(text, pos, "duration");
    } else if (tag == '*') {
      DRAGSTER_REQUIRE(!saw_value, "repeated '*value' in fault event '" + text + "'");
      saw_value = true;
      event.value = parse_number(text, pos);
    } else if (tag == ':') {
      event.op = text.substr(pos);
      pos = text.size();
      DRAGSTER_REQUIRE(!event.op.empty(), "empty operator name in '" + text + "'");
    } else {
      DRAGSTER_REQUIRE(false, std::string("unexpected '") + tag + "' in fault event '" +
                                  text + "'");
    }
  }
  // Explicit-modifier checks live here, not in check_event(): programmatic
  // construction keeps its defaulting contract (crash value 0 -> one pod),
  // but a *typed* modifier that the event ignores or that would be silently
  // re-interpreted is a spec bug and must not parse.
  if (saw_value) {
    // draglint:allow(DL004 rejecting the literal spec token '*0': exact comparison intended)
    DRAGSTER_REQUIRE(event.value != 0.0, "explicit '*0' in fault event '" + text + "'");
    switch (event.kind) {
      case FaultKind::kPodCrash:
        DRAGSTER_REQUIRE(event.value == std::floor(event.value),
                         "crash pod count must be an integer in '" + text + "'");
        break;
      case FaultKind::kCheckpointFailure:
        DRAGSTER_REQUIRE(event.value == std::floor(event.value),
                         "ckptfail retry count must be an integer in '" + text + "'");
        break;
      case FaultKind::kMetricDropout:
        DRAGSTER_REQUIRE(false, "dropout takes no '*value' in '" + text + "'");
        break;
      case FaultKind::kControllerCrash:
        DRAGSTER_REQUIRE(false, "ctrlcrash takes no '*value' in '" + text + "'");
        break;
      case FaultKind::kSchedulerOutage:
        DRAGSTER_REQUIRE(false, "schedfail takes no '*value' in '" + text + "'");
        break;
      case FaultKind::kStraggler:
      case FaultKind::kSchedulerDelay:
        break;  // range-checked in check_event()
    }
  }
  if (saw_duration) {
    const bool windowed = event.kind == FaultKind::kStraggler ||
                          event.kind == FaultKind::kMetricDropout ||
                          event.kind == FaultKind::kSchedulerOutage ||
                          event.kind == FaultKind::kSchedulerDelay;
    DRAGSTER_REQUIRE(windowed, std::string(to_string(event.kind)) +
                                   " is instantaneous and takes no '+duration' in '" + text +
                                   "'");
  }
  check_event(event);
  return event;
}

}  // namespace

std::string FaultEvent::to_string() const {
  std::ostringstream oss;
  oss << faults::to_string(kind) << '@' << slot;
  if (duration_slots != 1) oss << '+' << duration_slots;
  if (kind == FaultKind::kStraggler || kind == FaultKind::kCheckpointFailure ||
      kind == FaultKind::kSchedulerDelay ||
      // draglint:allow(DL004 1.0 is the normalized pod-count default; parse() re-normalizes it)
      (kind == FaultKind::kPodCrash && value != 1.0)) {
    // Shortest fixed-notation digits: parse() reads them back to the same
    // double, and it takes no exponent.
    char buf[400];  // holds any finite double in fixed notation
    const char* end = std::to_chars(buf, buf + sizeof(buf), value, std::chars_format::fixed).ptr;
    oss << '*' << std::string_view(buf, end);
  }
  if (!op.empty()) oss << ':' << op;
  return oss.str();
}

FaultPlan::FaultPlan(std::vector<FaultEvent> events) : events_(std::move(events)) {
  for (FaultEvent& event : events_) check_event(event);
  std::stable_sort(events_.begin(), events_.end(),
                   [](const FaultEvent& a, const FaultEvent& b) { return a.slot < b.slot; });
  // Two copies of the same (kind, slot, op) event would double-fire: the
  // injector applies both, and the duplicate is invisible in to_string()
  // output read casually.  Plans are tiny, so the quadratic scan is fine.
  for (std::size_t i = 0; i < events_.size(); ++i) {
    for (std::size_t j = i + 1; j < events_.size() && events_[j].slot == events_[i].slot; ++j) {
      DRAGSTER_REQUIRE(events_[j].kind != events_[i].kind || events_[j].op != events_[i].op,
                       "duplicate fault event '" + events_[i].to_string() + "'");
    }
  }
}

FaultPlan FaultPlan::parse(const std::string& spec) {
  std::vector<FaultEvent> events;
  std::size_t start = 0;
  while (start <= spec.size()) {
    std::size_t end = spec.find(';', start);
    if (end == std::string::npos) end = spec.size();
    const std::string piece = spec.substr(start, end - start);
    if (!piece.empty()) events.push_back(parse_event(piece));
    if (end == spec.size()) break;
    start = end + 1;
  }
  return FaultPlan(std::move(events));
}

FaultPlan FaultPlan::sample(common::Rng& rng, const SampleOptions& options) {
  DRAGSTER_REQUIRE(!options.operators.empty(), "sample() needs candidate operators");
  DRAGSTER_REQUIRE(options.warmup_slots <= options.horizon_slots, "warmup exceeds horizon");
  DRAGSTER_REQUIRE(options.straggler_factor > 0.0 && options.straggler_factor < 1.0,
                   "straggler factor must be in (0, 1)");
  DRAGSTER_REQUIRE(options.max_window_slots >= 1, "window must be at least one slot");

  auto pick_op = [&]() -> const std::string& {
    const auto index = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(options.operators.size()) - 1));
    return options.operators[index];
  };
  auto pick_window = [&]() {
    return static_cast<std::size_t>(
        rng.uniform_int(1, static_cast<std::int64_t>(options.max_window_slots)));
  };

  std::vector<FaultEvent> events;
  for (std::size_t slot = options.warmup_slots; slot < options.horizon_slots; ++slot) {
    if (rng.bernoulli(options.crash_prob))
      events.push_back({FaultKind::kPodCrash, slot, 1, 0.0, pick_op()});
    if (rng.bernoulli(options.straggler_prob))
      events.push_back(
          {FaultKind::kStraggler, slot, pick_window(), options.straggler_factor, pick_op()});
    if (rng.bernoulli(options.ckptfail_prob))
      events.push_back({FaultKind::kCheckpointFailure, slot, 1,
                        static_cast<double>(options.ckpt_retries), ""});
    if (rng.bernoulli(options.dropout_prob))
      events.push_back({FaultKind::kMetricDropout, slot, pick_window(), 0.0, pick_op()});
    if (rng.bernoulli(options.ctrlcrash_prob))
      events.push_back({FaultKind::kControllerCrash, slot, 1, 0.0, ""});
    if (rng.bernoulli(options.schedfail_prob))
      events.push_back({FaultKind::kSchedulerOutage, slot, pick_window(), 0.0, ""});
    if (rng.bernoulli(options.scheddelay_prob))
      events.push_back(
          {FaultKind::kSchedulerDelay, slot, pick_window(), options.scheddelay_factor, ""});
  }
  return FaultPlan(std::move(events));
}

std::string FaultPlan::to_string() const {
  std::string out;
  for (const FaultEvent& event : events_) {
    if (!out.empty()) out += ';';
    out += event.to_string();
  }
  return out;
}

}  // namespace dragster::faults
