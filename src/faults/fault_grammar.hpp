// The one engine behind both fault-spec languages.
//
// FaultPlan (one job) and FleetFaultPlan (the cluster) share the grammar
//
//   spec   := event (';' event)*
//   event  := kind '@' slot ['+' duration] ['*' value] [':' target]
//
// and differ only in their kinds.  Each language is therefore a table of
// KindRule rows, indexed by its kind enum, plus the words its messages use
// and its target field.  check_rule() enforces a row on every event, parsed
// or built in code; parse_spec() adds only the lexical rules and the rules
// about modifiers the text spells out ('*0', a missing required '*', a '+'
// on an instantaneous kind).  Every event check_rule() accepts prints,
// through format_event(), to a spec that parses back to the same event bit
// for bit.
//
// Private to src/faults: callers use FaultPlan and FleetFaultPlan.
#pragma once

#include <algorithm>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"

namespace dragster::faults::grammar {

/// What a kind does with '*value'.
enum class Value {
  kNone,      ///< takes none; the field stays 0 and is never printed
  kOptional,  ///< an omitted '*' means the default; always printed
  kImplicit,  ///< kOptional, and 0 in code means the default too; printed unless default
  kRequired,  ///< the spec must spell '*value'; always printed
};

/// Whether a kind takes a ':target'.
enum class Target { kNone, kOptional, kRequired };

/// Accepted values: [lo, hi), or (lo, hi) when lo_open.
struct Range {
  double lo = 0.0;
  bool lo_open = false;
  double hi = 0.0;
  bool integral = false;
};

/// Slots, durations and values all stay below this bound, so every
/// integral cast downstream (pod counts, retry counts, slot arithmetic) fits.
inline constexpr double kLimit = 1e9;

inline constexpr Range kCount{1.0, false, kLimit, true};  ///< whole numbers >= 1
inline constexpr Range kFraction{0.0, true, 1.0, false};  ///< (0, 1)

struct KindRule {
  const char* name;
  /// Takes '+duration'; otherwise the event lasts one slot.
  bool windowed;
  Value value;
  /// The value an omitted '*' stands for.
  double fallback;
  /// Ignored for Value::kNone.
  Range range;
  Target target;
};

/// One spec language: its kind rows, indexed by the kind enum, and the
/// words its messages use.
struct Language {
  std::span<const KindRule> kinds;
  const char* noun;         ///< "fault event" / "fleet fault event"
  const char* target_name;  ///< "operator" / "job"
};

/// An event as the text spells it, before it becomes a typed event.
struct ParsedEvent {
  std::size_t kind = 0;
  std::size_t slot = 0;
  std::size_t duration_slots = 1;
  double value = 0.0;
  std::string target;
};

/// The events of `spec`, with omitted values set to their defaults but not
/// yet checked against their rows.
[[nodiscard]] std::vector<ParsedEvent> parse_spec(const Language& language,
                                                  const std::string& spec);

/// Throws dragster::Error unless the event satisfies its kind's row; fills
/// an implicit default and clears a -0 on the way.
void check_rule(const Language& language, std::size_t kind, std::size_t slot,
                std::size_t duration_slots, double& value, const std::string& target);

[[nodiscard]] std::string format_event(const Language& language, std::size_t kind,
                                       std::size_t slot, std::size_t duration_slots,
                                       double value, const std::string& target);

/// Binds a Language to an aggregate event type whose fields are, in order,
/// `kind, slot, duration_slots, value, <target>`.
template <class Event>
class Grammar {
 public:
  using Kind = decltype(Event::kind);

  constexpr Grammar(Language language, std::string Event::*target)
      : language_(language), target_(target) {}

  [[nodiscard]] const char* name(Kind kind) const {
    const auto index = static_cast<std::size_t>(kind);
    return index < language_.kinds.size() ? language_.kinds[index].name : "unknown";
  }

  [[nodiscard]] std::string format(const Event& event) const {
    return format_event(language_, static_cast<std::size_t>(event.kind), event.slot,
                        event.duration_slots, event.value, event.*target_);
  }

  /// Checks every event against its row, sorts by slot (stable), and
  /// rejects a repeated (kind, slot, target): the injector would fire it
  /// twice.  Plans are tiny, so the scan is quadratic.
  void validate(std::vector<Event>& events) const {
    for (Event& event : events)
      check_rule(language_, static_cast<std::size_t>(event.kind), event.slot,
                 event.duration_slots, event.value, event.*target_);
    std::stable_sort(events.begin(), events.end(),
                     [](const Event& a, const Event& b) { return a.slot < b.slot; });
    for (std::size_t i = 0; i < events.size(); ++i) {
      for (std::size_t j = i + 1; j < events.size() && events[j].slot == events[i].slot; ++j) {
        DRAGSTER_REQUIRE(
            events[j].kind != events[i].kind || events[j].*target_ != events[i].*target_,
            std::string("duplicate ") + language_.noun + " '" + format(events[i]) + "'");
      }
    }
  }

  [[nodiscard]] std::vector<Event> parse(const std::string& spec) const {
    std::vector<Event> events;
    for (ParsedEvent& parsed : parse_spec(language_, spec))
      events.push_back({static_cast<Kind>(parsed.kind), parsed.slot, parsed.duration_slots,
                        parsed.value, std::move(parsed.target)});
    return events;
  }

  [[nodiscard]] std::string join(const std::vector<Event>& events) const {
    std::string out;
    for (const Event& event : events) {
      if (!out.empty()) out += ';';
      out += format(event);
    }
    return out;
  }

 private:
  Language language_;
  std::string Event::*target_;
};

}  // namespace dragster::faults::grammar
