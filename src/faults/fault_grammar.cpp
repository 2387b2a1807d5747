#include "faults/fault_grammar.hpp"

#include <cctype>
#include <charconv>
#include <cmath>

namespace dragster::faults::grammar {

namespace {

const KindRule& row(const Language& language, std::size_t kind) {
  DRAGSTER_REQUIRE(kind < language.kinds.size(), std::string("unknown kind in ") + language.noun);
  return language.kinds[kind];
}

bool is_absent(double value) {
  // draglint:allow(DL004 0 is the exact value-absent sentinel, never a computed result)
  return value == 0.0;
}

/// Shortest fixed-notation digits: parse_number() reads them back to the
/// same double, and it takes no exponent.
std::string format_value(double value) {
  char buf[400];  // holds any finite double in fixed notation
  char* end = std::to_chars(buf, buf + sizeof(buf), value, std::chars_format::fixed).ptr;
  return std::string(buf, end);
}

/// Parses a non-negative number starting at `pos`; advances `pos`.  The
/// token must be plain digits with at most one decimal point — anything else
/// (a '-' sign, a second dot, an exponent) is rejected with the token
/// quoted, and the value is bounds-checked before any integral cast.
double parse_number(const std::string& text, std::size_t& pos, const std::string& quoted) {
  const std::size_t start = pos;
  int dots = 0;
  while (pos < text.size() && (std::isdigit(static_cast<unsigned char>(text[pos])) != 0 ||
                               text[pos] == '.')) {
    if (text[pos] == '.') ++dots;
    ++pos;
  }
  const std::string token = text.substr(start, pos - start);
  DRAGSTER_REQUIRE(!token.empty(), "expected a number in " + quoted);
  DRAGSTER_REQUIRE(dots <= 1 && token != ".", "bad number '" + token + "' in " + quoted);
  double value = 0.0;
  try {
    value = std::stod(token);
  } catch (const std::exception&) {
    DRAGSTER_REQUIRE(false, "bad number '" + token + "' in " + quoted);
  }
  DRAGSTER_REQUIRE(std::isfinite(value) && value < kLimit,
                   "number '" + token + "' out of range in " + quoted);
  return value;
}

/// Slot indices and durations must be whole numbers; "crash@5.5" truncating
/// silently would misfire the event.
std::size_t parse_index(const std::string& text, std::size_t& pos, const char* what,
                        const std::string& quoted) {
  const std::size_t start = pos;
  const double value = parse_number(text, pos, quoted);
  DRAGSTER_REQUIRE(value == std::floor(value), std::string(what) + " '" +
                                                   text.substr(start, pos - start) +
                                                   "' must be an integer in " + quoted);
  return static_cast<std::size_t>(value);
}

ParsedEvent parse_event(const Language& language, const std::string& text) {
  const std::string quoted = std::string(language.noun) + " '" + text + "'";
  const std::size_t at = text.find('@');
  DRAGSTER_REQUIRE(at != std::string::npos, quoted + " is missing '@slot'");
  const std::string word = text.substr(0, at);
  ParsedEvent event;
  while (event.kind < language.kinds.size() && word != language.kinds[event.kind].name)
    ++event.kind;
  DRAGSTER_REQUIRE(event.kind < language.kinds.size(),
                   "unknown kind '" + word + "' in " + quoted);
  std::size_t pos = at + 1;
  event.slot = parse_index(text, pos, "slot", quoted);
  bool saw_duration = false;
  bool saw_value = false;
  while (pos < text.size()) {
    const char tag = text[pos++];
    if (tag == '+') {
      DRAGSTER_REQUIRE(!saw_duration, "repeated '+duration' in " + quoted);
      saw_duration = true;
      event.duration_slots = parse_index(text, pos, "duration", quoted);
    } else if (tag == '*') {
      DRAGSTER_REQUIRE(!saw_value, "repeated '*value' in " + quoted);
      saw_value = true;
      event.value = parse_number(text, pos, quoted);
    } else if (tag == ':') {
      event.target = text.substr(pos);
      pos = text.size();
      DRAGSTER_REQUIRE(!event.target.empty(),
                       std::string("empty ") + language.target_name + " name in " + quoted);
    } else {
      DRAGSTER_REQUIRE(false, std::string("unexpected '") + tag + "' in " + quoted);
    }
  }
  // What the text spells out must mean what it says: an explicit '*0'
  // would otherwise read as "the default", and an ignored '+duration' as a
  // window.  The value and target rules themselves live in check_rule().
  const KindRule& rule = language.kinds[event.kind];
  if (saw_value) {
    DRAGSTER_REQUIRE(!is_absent(event.value), "explicit '*0' in " + quoted);
  } else {
    DRAGSTER_REQUIRE(rule.value != Value::kRequired,
                     std::string(rule.name) + " needs an explicit '*value' in " + quoted);
    event.value = rule.fallback;
  }
  DRAGSTER_REQUIRE(!saw_duration || rule.windowed,
                   std::string(rule.name) + " is instantaneous and takes no '+duration' in " +
                       quoted);
  return event;
}

}  // namespace

std::vector<ParsedEvent> parse_spec(const Language& language, const std::string& spec) {
  std::vector<ParsedEvent> events;
  std::size_t start = 0;
  while (start <= spec.size()) {
    std::size_t end = spec.find(';', start);
    if (end == std::string::npos) end = spec.size();
    if (end > start) events.push_back(parse_event(language, spec.substr(start, end - start)));
    start = end + 1;
  }
  return events;
}

void check_rule(const Language& language, std::size_t kind, std::size_t slot,
                std::size_t duration_slots, double& value, const std::string& target) {
  const KindRule& rule = row(language, kind);
  const std::string name = rule.name;
  DRAGSTER_REQUIRE(static_cast<double>(slot) < kLimit, name + " slot must be below 1e9");
  DRAGSTER_REQUIRE(duration_slots >= 1 && static_cast<double>(duration_slots) < kLimit,
                   name + " duration must be in [1, 1e9) slots");
  DRAGSTER_REQUIRE(rule.windowed || duration_slots == 1,
                   name + " is instantaneous and has no duration window");
  if (rule.value == Value::kNone) {
    DRAGSTER_REQUIRE(is_absent(value), name + " takes no '*value'");
    value = 0.0;  // -0 too: the printed form has no sign to keep
  } else {
    if (rule.value == Value::kImplicit && is_absent(value)) value = rule.fallback;
    const Range& range = rule.range;
    // isnormal() also rules out the subnormals, whose digits stod() rejects.
    const bool in_range = std::isnormal(value) &&
                          (range.lo_open ? value > range.lo : value >= range.lo) &&
                          value < range.hi && (!range.integral || value == std::floor(value));
    DRAGSTER_REQUIRE(in_range, name + " value " + format_value(value) + " is not " +
                                   (range.integral ? "a whole number " : "") + "in " +
                                   (range.lo_open ? "(" : "[") + format_value(range.lo) + ", " +
                                   format_value(range.hi) + ")");
  }
  const std::string target_name = language.target_name;
  DRAGSTER_REQUIRE(rule.target != Target::kRequired || !target.empty(),
                   name + " needs a ':" + target_name + "' target");
  DRAGSTER_REQUIRE(rule.target != Target::kNone || target.empty(),
                   name + " takes no ':" + target_name + "' target");
  DRAGSTER_REQUIRE(target.find(';') == std::string::npos,
                   target_name + " name '" + target + "' must not contain ';'");
}

std::string format_event(const Language& language, std::size_t kind, std::size_t slot,
                         std::size_t duration_slots, double value, const std::string& target) {
  const KindRule& rule = row(language, kind);
  std::string out = std::string(rule.name) + '@' + std::to_string(slot);
  if (duration_slots != 1) out += '+' + std::to_string(duration_slots);
  const bool implicit = rule.value == Value::kImplicit && value == rule.fallback;
  if (rule.value != Value::kNone && !implicit) out += '*' + format_value(value);
  if (!target.empty()) out += ':' + target;
  return out;
}

}  // namespace dragster::faults::grammar
