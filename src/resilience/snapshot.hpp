// Versioned, deterministic serialization of controller state.
//
// The control plane must survive process loss the way the data plane survives
// pod loss: everything the controller has learned — GP observations, dual
// multipliers, throughput-learner weights, normalization scales, the last
// commanded configuration — is written into a snapshot a restarted process
// can restore from, with *bit-identical* subsequent decisions (the fig9
// acceptance bar).  Determinism drives the format:
//
//   dragster-snapshot v1
//   [section-name]
//   key f 0x1.8p+3          <- doubles as C99 hexfloats (lossless round trip)
//   key u 12                <- unsigned integer
//   key i -3                <- signed integer
//   key s free text         <- string (rest of line)
//   key fv 2 0x1p+0 0x1p+1  <- double vector (count-prefixed)
//   key iv 2 4 7            <- integer vector
//   !checksum <fnv1a64 of everything above>
//
// Sections appear in the order they were written; keys are unique within a
// section.  The Cholesky factor of each GP is deliberately NOT serialized,
// nor is any other derived posterior state (z = L^{-1}(y - m), alpha, the
// tracked grid columns): observations are replayed into a fresh posterior on
// restore in one pass, so the factor is rebuilt by the exact same
// incremental-extension sequence that built it originally (identical
// floating-point operation order => identical bits).
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

namespace dragster::resilience {

inline constexpr int kSnapshotVersion = 1;

class SnapshotWriter {
 public:
  /// Starts a new section; subsequent fields land in it.  Section names must
  /// be unique within a snapshot.
  void begin_section(const std::string& name);

  void field(const std::string& key, double value);
  void field(const std::string& key, std::int64_t value);
  void field(const std::string& key, std::uint64_t value);
  void field(const std::string& key, const std::string& value);
  void field(const std::string& key, std::span<const double> values);
  void field(const std::string& key, std::span<const int> values);

  /// Finalizes the document (header + body + checksum line).
  [[nodiscard]] std::string str() const;

 private:
  void line(const std::string& key, const std::string& typed_payload);

  std::string body_;
  std::string current_section_;
  std::vector<std::string> seen_sections_;
  std::map<std::string, int> keys_in_section_;
};

class SnapshotReader {
 public:
  /// Parses and validates a snapshot document: header, version, checksum.
  /// Throws dragster::Error on any corruption.
  explicit SnapshotReader(const std::string& text);

  [[nodiscard]] bool has_section(const std::string& name) const;
  /// Positions the reader in `name`; throws if the section is absent.
  void enter_section(const std::string& name);

  // Typed getters read from the current section and throw on a missing key
  // or a type-tag mismatch.
  [[nodiscard]] double get_double(const std::string& key) const;
  [[nodiscard]] std::int64_t get_int(const std::string& key) const;
  [[nodiscard]] std::uint64_t get_uint(const std::string& key) const;
  [[nodiscard]] std::string get_string(const std::string& key) const;
  [[nodiscard]] std::vector<double> get_doubles(const std::string& key) const;
  [[nodiscard]] std::vector<int> get_ints(const std::string& key) const;

  [[nodiscard]] bool has_key(const std::string& key) const;
  [[nodiscard]] const std::vector<std::string>& sections() const noexcept {
    return section_order_;
  }

 private:
  struct Field {
    char tag = '?';
    std::string payload;
  };
  using Section = std::map<std::string, Field>;

  [[nodiscard]] const Field& lookup(const std::string& key, char tag) const;

  std::map<std::string, Section> sections_;
  std::vector<std::string> section_order_;
  const Section* current_ = nullptr;
  std::string current_name_;
};

/// Implemented by controllers (and their stateful sub-modules' owners) that
/// can externalize their full decision state.  `load_state` overwrites the
/// object's state in place — restoring into a freshly initialized controller
/// and restoring into the surviving object after a simulated crash are
/// equivalent by construction.
class Snapshotable {
 public:
  virtual ~Snapshotable() = default;
  virtual void save_state(SnapshotWriter& writer) const = 0;
  virtual void load_state(SnapshotReader& reader) = 0;
};

/// FNV-1a 64-bit over `text` — the snapshot integrity checksum.
[[nodiscard]] std::uint64_t fnv1a64(const std::string& text);

/// Lossless double <-> string via C99 hexfloats.
[[nodiscard]] std::string encode_double(double value);
[[nodiscard]] double decode_double(const std::string& text);

}  // namespace dragster::resilience
