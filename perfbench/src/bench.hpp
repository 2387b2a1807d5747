// Shared types of the repository benchmark (see perfbench/README.md).
//
// An episode is one complete, fixed-size run of a workload: construct it,
// step it for its whole horizon, finish it, score it and check it.  The
// untraced run repeats episodes until its time budget is spent; the traced
// run adds a traced episode, a lane sweep and the layer replays.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/controller.hpp"
#include "experiments/scenario.hpp"
#include "fleet/fleet.hpp"
#include "obs/registry.hpp"
#include "streamsim/engine.hpp"

namespace perfbench {

using namespace dragster;
using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// FNV-1a 64 over the bit patterns of every value folded in, so two runs
/// digest equal only if every scored quantity is bit-identical.
class Digest {
 public:
  void add(double value) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof bits);
    add_u64(bits);
  }
  void add_u64(std::uint64_t value) {
    for (int i = 0; i < 8; ++i) byte(static_cast<unsigned char>(value >> (8 * i)));
  }
  void add(const std::string& text) {
    for (unsigned char c : text) byte(c);
    add_u64(text.size());
  }
  [[nodiscard]] std::uint64_t value() const noexcept { return hash_; }

 private:
  void byte(unsigned char c) {
    hash_ ^= c;
    hash_ *= 0x100000001b3ULL;
  }
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

[[nodiscard]] std::string hex(std::uint64_t value);
[[nodiscard]] double median(std::vector<double> values);

/// Control-quality figures of one episode.  All are simulated quantities,
/// so they are bit-identical for a given seed.
struct Quality {
  double oracle_ratio = 0.0;        ///< tuples processed / oracle tuples
  double near_optimal_share = 0.0;  ///< job-slots within 10% of the oracle
  double cost_per_gtuple = 0.0;     ///< $ per 1e9 tuples
  double slo_miss_share = 0.0;      ///< job-slots over the SLO / job-slots run
  double convergence_min = 0.0;     ///< mean minutes to converge per window
  double slots_to_recover = 0.0;    ///< fleet-recovery analytic (fleet faults only)
};

struct Episode {
  double setup_s = 0.0;               ///< construction through the first slot
  std::vector<double> slot_ms;        ///< wall time of every later step()
  std::vector<double> job_slots;      ///< job-slots completed by each later step()
  std::size_t job_slots_total = 0;    ///< job-slots run, first slot included
  Quality quality;
  std::uint64_t digest = 0;
  std::vector<std::string> failures;  ///< correctness checks that failed
  fleet::FleetResult fleet;           ///< fleet episodes only
};

/// One job driven through experiments::ScenarioRunner: the yahoo_long job
/// itself, or a single-job twin of a fleet member.
struct SingleJob {
  std::unique_ptr<streamsim::Engine> engine;
  std::unique_ptr<core::Controller> controller;
  experiments::ScenarioOptions options;
  std::string workload;
  double slo_s = 0.0;
  double slot_minutes = 0.0;
  /// Convergence windows [from, to): one per offered-load phase.
  std::vector<std::pair<std::size_t, std::size_t>> windows;
};

enum class Size { kFull, kTiny };

/// One benchmark workload, built from a seed.
class Workload {
 public:
  virtual ~Workload() = default;
  [[nodiscard]] virtual bool is_fleet() const = 0;
  /// Pool lanes the end-to-end metrics are measured at.
  [[nodiscard]] virtual std::size_t lanes() const = 0;
  /// Percentile slot_ms_tail reports (see tail_of in main.cpp).
  [[nodiscard]] virtual double tail_percentile() const = 0;
  /// One full episode, timed.  With a registry the run publishes its
  /// metrics and trace counters there.
  [[nodiscard]] virtual Episode run(obs::Registry* registry) const = 0;
  /// Jobs the traced run replays layer calls on: the workload's own job, or
  /// single-job twins of a sample of fleet members.
  [[nodiscard]] virtual std::vector<SingleJob> probe_jobs() const = 0;
};

[[nodiscard]] std::unique_ptr<Workload> make_workload(const std::string& name,
                                                      std::uint64_t seed, Size size);

/// Steps `job` to its horizon through `driven` (its controller or a
/// decorator around it), calling `after_step` after every step().  Setup
/// time is measured from `start`.
[[nodiscard]] Episode run_single(SingleJob& job, core::Controller& driven,
                                 obs::Registry* registry, Clock::time_point start,
                                 const std::function<void()>& after_step = {});

/// Folds independent trials into one episode: pooled slot times, median
/// set-up, mean quality, a digest over the trial digests, and (fleets) every
/// trial's jobs and fired faults.
[[nodiscard]] Episode merge_trials(std::vector<Episode> trials);

/// Per-layer figures of the traced run, by metric name.
using LayerMetrics = std::map<std::string, double>;

/// Runs the probe jobs through the timing decorator (publishing to
/// `registry`, which may be null) and replays the layer functions on their
/// live controllers; adds the core/experiments/gp/online/dag/oracle/
/// resilience metrics to `out` and returns the probe jobs' episodes.
std::vector<Episode> replay_layers(const Workload& workload, obs::Registry* registry,
                                   LayerMetrics& out);

/// Sums the samples of every family in a Prometheus text exposition.
[[nodiscard]] std::map<std::string, double> sum_families(const std::string& exposition);

}  // namespace perfbench
