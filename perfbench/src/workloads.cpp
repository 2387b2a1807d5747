// The three benchmark workloads, their scoring and their correctness checks.
//
//   yahoo_long   one Yahoo job (six operators, the paper's Fig. 3 DAG) under
//                Dragster(saddle); the offered rate flips low/high every 30
//                slots over a long horizon.  Each operator's GP gains an
//                observation per slot and each flip forces a fresh oracle
//                solve, so gp/linalg and the largest-DAG saddle solve
//                dominate; fleet, parallel and transport do nothing.
//   fleet_1k     1000 fault-free Nexmark-mix jobs (the fig11 fleet) under the
//                pressure arbiter: many small saddle/flow solves, engine
//                micro-steps, arbitration plus ledger sync, pool fan-out.
//   fleet_chaos  a few hundred supervised, managed jobs, half of them
//                transported, cycling four controllers, with node, budget
//                and network chaos over per-job checkpoint and controller
//                crashes: the fleet loop's recovery paths.
#include <algorithm>
#include <cmath>
#include <cstdio>

#include "bench.hpp"
#include "core/dragster_controller.hpp"
#include "faults/recovery.hpp"
#include "streamsim/rate_schedule.hpp"
#include "workloads/workloads.hpp"

namespace perfbench {

std::string hex(std::uint64_t value) {
  char buffer[19];
  std::snprintf(buffer, sizeof buffer, "%016llx", static_cast<unsigned long long>(value));
  return buffer;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : 0.5 * (values[mid - 1] + values[mid]);
}

namespace {

bool finite_slot(const experiments::SlotSummary& s) {
  for (double v : {s.start_seconds, s.throughput_rate, s.effective_rate, s.tuples, s.cost,
                   s.cost_rate, s.pause_s, s.latency_s, s.oracle_throughput})
    if (!std::isfinite(v)) return false;
  return true;
}

void digest_run(Digest& digest, const experiments::RunResult& run) {
  digest.add(run.controller);
  digest.add_u64(run.slots.size());
  for (const experiments::SlotSummary& s : run.slots) {
    for (double v : {s.throughput_rate, s.effective_rate, s.tuples, s.cost, s.pause_s,
                     s.latency_s, s.oracle_throughput})
      digest.add(v);
    digest.add_u64((s.near_optimal ? 1U : 0U) | (s.fault_active ? 2U : 0U) |
                   (s.checkpoint_aborted ? 4U : 0U));
    for (int tasks : s.tasks) digest.add_u64(static_cast<std::uint64_t>(tasks));
  }
  digest.add(run.total_tuples);
  digest.add(run.total_cost);
}

/// Checks one job's slots; `label` prefixes each failure message.
void check_run(const experiments::RunResult& run, int max_tasks, const std::string& label,
               std::vector<std::string>& failures) {
  for (const experiments::SlotSummary& s : run.slots) {
    const std::string where = label + " slot " + std::to_string(s.slot);
    if (!finite_slot(s)) failures.push_back(where + ": non-finite value");
    if (s.tuples < 0.0 || s.cost < 0.0 || s.latency_s < 0.0)
      failures.push_back(where + ": negative tuples, cost or latency");
    if (!(s.oracle_throughput > 0.0)) failures.push_back(where + ": oracle throughput not > 0");
    for (int tasks : s.tasks)
      if (tasks < 1 || tasks > max_tasks) failures.push_back(where + ": tasks out of bounds");
  }
}

/// Mean minutes to converge per window; a window that never converges is
/// charged its full length.
double mean_convergence(const std::vector<experiments::SlotSummary>& slots,
                        const std::vector<std::pair<std::size_t, std::size_t>>& windows,
                        double slot_minutes) {
  double sum = 0.0;
  for (const auto& [from, to] : windows) {
    const auto minutes = experiments::convergence_minutes(slots, from, to, slot_minutes);
    sum += minutes ? *minutes : static_cast<double>(to - from) * slot_minutes;
  }
  return windows.empty() ? 0.0 : sum / static_cast<double>(windows.size());
}

}  // namespace

Episode run_single(SingleJob& job, core::Controller& driven, obs::Registry* registry,
                   Clock::time_point start, const std::function<void()>& after_step) {
  Episode episode;
  experiments::ScenarioRunner runner(*job.engine, driven, job.options, job.workload, nullptr,
                                     nullptr, registry, nullptr);
  runner.step();
  episode.setup_s = seconds_since(start);
  if (after_step) after_step();
  for (std::size_t t = 1; t < job.options.slots; ++t) {
    const Clock::time_point begin = Clock::now();
    runner.step();
    episode.slot_ms.push_back(1e3 * seconds_since(begin));
    episode.job_slots.push_back(1.0);
    if (after_step) after_step();
  }
  const experiments::RunResult run = runner.finish();
  episode.job_slots_total = run.slots.size();

  if (run.slots.size() != job.options.slots)
    episode.failures.push_back("ran " + std::to_string(run.slots.size()) + " of " +
                               std::to_string(job.options.slots) + " slots");
  check_run(run, job.engine->options().max_tasks, job.workload, episode.failures);

  double oracle_tuples = 0.0;
  std::size_t near = 0;
  std::size_t misses = 0;
  for (const experiments::SlotSummary& s : run.slots) {
    oracle_tuples += s.oracle_throughput * job.engine->options().slot_duration_s;
    near += s.near_optimal ? 1 : 0;
    misses += s.latency_s > job.slo_s ? 1 : 0;
  }
  const auto n = static_cast<double>(std::max<std::size_t>(run.slots.size(), 1));
  episode.quality.oracle_ratio = run.total_tuples / oracle_tuples;
  episode.quality.near_optimal_share = static_cast<double>(near) / n;
  episode.quality.cost_per_gtuple = 1e9 * run.total_cost / run.total_tuples;
  episode.quality.slo_miss_share = static_cast<double>(misses) / n;
  episode.quality.convergence_min = mean_convergence(run.slots, job.windows, job.slot_minutes);

  Digest digest;
  digest_run(digest, run);
  episode.digest = digest.value();
  return episode;
}

Episode merge_trials(std::vector<Episode> trials) {
  Episode merged;
  std::vector<double> setup;
  Digest digest;
  const auto n = static_cast<double>(trials.size());
  for (Episode& trial : trials) {
    setup.push_back(trial.setup_s);
    merged.slot_ms.insert(merged.slot_ms.end(), trial.slot_ms.begin(), trial.slot_ms.end());
    merged.job_slots.insert(merged.job_slots.end(), trial.job_slots.begin(),
                            trial.job_slots.end());
    merged.job_slots_total += trial.job_slots_total;
    merged.failures.insert(merged.failures.end(), trial.failures.begin(), trial.failures.end());
    digest.add_u64(trial.digest);
    // Trials run equal horizons, so the mean of the shares is the pooled share.
    merged.quality.oracle_ratio += trial.quality.oracle_ratio / n;
    merged.quality.near_optimal_share += trial.quality.near_optimal_share / n;
    merged.quality.cost_per_gtuple += trial.quality.cost_per_gtuple / n;
    merged.quality.slo_miss_share += trial.quality.slo_miss_share / n;
    merged.quality.convergence_min += trial.quality.convergence_min / n;
    merged.quality.slots_to_recover += trial.quality.slots_to_recover / n;
    // Fleet trials: keep every job and fired fault, so trace counters sum
    // over the episode.
    for (fleet::JobOutcome& job : trial.fleet.jobs) merged.fleet.jobs.push_back(std::move(job));
    merged.fleet.fleet_faults.insert(merged.fleet.fleet_faults.end(),
                                     trial.fleet.fleet_faults.begin(),
                                     trial.fleet.fleet_faults.end());
  }
  merged.setup_s = median(setup);
  merged.digest = digest.value();
  return merged;
}

namespace {

// ---------------------------------------------------------------------------
// yahoo_long
// ---------------------------------------------------------------------------

class YahooLong final : public Workload {
 public:
  YahooLong(std::uint64_t seed, Size size)
      : seed_(seed),
        slots_(size == Size::kTiny ? 60 : 300),
        trials_(size == Size::kTiny ? 2 : 8) {}

  [[nodiscard]] bool is_fleet() const override { return false; }
  // The single-threaded baseline of the suite.
  [[nodiscard]] std::size_t lanes() const override { return 1; }
  [[nodiscard]] double tail_percentile() const override { return 99.0; }

  [[nodiscard]] Episode run(obs::Registry* registry) const override {
    std::vector<Episode> trials;
    for (std::size_t k = 0; k < trials_; ++k) {
      const Clock::time_point start = Clock::now();
      SingleJob job = make_trial(k);
      trials.push_back(run_single(job, *job.controller, registry, start));
    }
    return merge_trials(std::move(trials));
  }

  [[nodiscard]] std::vector<SingleJob> probe_jobs() const override {
    std::vector<SingleJob> jobs;
    for (std::size_t k = 0; k < trials_; ++k) jobs.push_back(make_trial(k));
    return jobs;
  }

 private:
  static constexpr std::size_t kFlipSlots = 30;
  static constexpr double kSloSeconds = 60.0;

  /// Trial k: the one Yahoo job, its engine seeded from substream k of the
  /// run's seed.  A single job's quality figures swing with the engine
  /// noise (a few SLO misses more or less after a flip); the mean over
  /// independent trials is what stays put from seed to seed.
  [[nodiscard]] SingleJob make_trial(std::size_t k) const {
    const workloads::WorkloadSpec spec = workloads::yahoo();
    const streamsim::EngineOptions engine_options;
    // AlternatingRate serves its first argument first: start in the low
    // phase, flip every kFlipSlots slots.
    std::map<dag::NodeId, std::unique_ptr<streamsim::RateSchedule>> schedules;
    for (const auto& [id, high] : spec.high_rate)
      schedules[id] = std::make_unique<streamsim::AlternatingRate>(
          spec.low_rate.at(id), high, kFlipSlots * engine_options.slot_duration_s);
    SingleJob job;
    job.engine = std::make_unique<streamsim::Engine>(spec.make_engine_with(
        std::move(schedules), engine_options, fleet::FleetScheduler::job_seed(seed_, k)));
    job.controller = std::make_unique<core::DragsterController>(core::DragsterOptions{});
    job.options.slots = slots_;
    job.workload = spec.name;
    job.slo_s = kSloSeconds;
    job.slot_minutes = engine_options.slot_duration_s / 60.0;
    for (std::size_t from = 0; from < slots_; from += kFlipSlots)
      job.windows.emplace_back(from, std::min(from + kFlipSlots, slots_));
    return job;
  }

  std::uint64_t seed_;
  std::size_t slots_;
  std::size_t trials_;
};

// ---------------------------------------------------------------------------
// Fleets
// ---------------------------------------------------------------------------

/// The fig11 mix: jobs cycle Group, AsyncIO, Join, Window; every third runs
/// hot (1.5x the low rate), every third in a lull (0.35x).
fleet::JobSpec mix_job(std::size_t i) {
  static const std::vector<workloads::WorkloadSpec> suite = [] {
    std::vector<workloads::WorkloadSpec> s = workloads::nexmark_suite();
    s.pop_back();  // WordCount: its floor need would drown the allocation signal
    return s;
  }();
  fleet::JobSpec spec;
  spec.name = "job-" + std::to_string(i);
  spec.workload = suite[i % suite.size()];
  const double band = i % 3 == 0 ? 1.5 : i % 3 == 2 ? 0.35 : 1.0;
  for (auto& [src, rate] : spec.workload.low_rate) rate *= band;
  spec.high_rate = false;
  spec.slo.max_latency_s = 30.0;
  spec.engine.slot_duration_s = 60.0;
  spec.engine.sample_interval_s = 60.0;
  return spec;
}

long long floor_pods(const std::vector<fleet::JobSpec>& specs) {
  long long floors = 0;
  for (const fleet::JobSpec& spec : specs) floors += spec.floor_pods();
  return floors;
}

class FleetWorkload : public Workload {
 public:
  FleetWorkload(std::uint64_t seed, std::size_t jobs, std::size_t slots, std::size_t trials,
                double tail_percentile)
      : jobs_(jobs),
        slots_(slots),
        seed_(seed),
        trials_(trials),
        tail_percentile_(tail_percentile) {}

  [[nodiscard]] bool is_fleet() const override { return true; }
  [[nodiscard]] std::size_t lanes() const override { return 2; }
  [[nodiscard]] double tail_percentile() const override { return tail_percentile_; }

  /// One episode: `trials_` independent fleets, the fleet seed of trial k
  /// taken from substream k of the run's seed.
  [[nodiscard]] Episode run(obs::Registry* registry) const override {
    std::vector<Episode> trials;
    for (std::size_t k = 0; k < trials_; ++k)
      trials.push_back(run_trial(registry, fleet::FleetScheduler::job_seed(seed_, k)));
    return merge_trials(std::move(trials));
  }

  [[nodiscard]] std::vector<SingleJob> probe_jobs() const override {
    const std::uint64_t seed = fleet::FleetScheduler::job_seed(seed_, 0);
    const std::vector<fleet::JobSpec> specs = make_specs(seed);
    const fleet::FleetOptions options = make_options(specs, seed);
    // Twins run under an even share of the fleet budget, unsupervised and
    // without actuation, transport or faults: the probe times the control
    // layers, the fleet episodes time the fleet loop.
    const int share = std::max(1, options.budget_pods / static_cast<int>(specs.size()));
    const online::Budget budget =
        fleet::FleetScheduler::pods_budget(share, options.pod_price_per_hour);
    std::vector<SingleJob> jobs;
    for (std::size_t i = 0; i < specs.size() && jobs.size() < kProbeJobs; ++i) {
      fleet::JobSpec spec = specs[i];
      if (spec.controller.rfind("Dragster", 0) != 0) continue;
      spec.supervised = false;
      SingleJob job;
      job.engine = std::make_unique<streamsim::Engine>(spec.workload.make_engine(
          spec.high_rate, spec.engine, fleet::FleetScheduler::job_seed(seed, i)));
      job.controller = fleet::make_job_controller(spec, budget);
      job.options.slots = slots_;
      job.options.budget = budget;
      job.workload = spec.workload.name;
      job.slo_s = spec.slo.max_latency_s;
      job.slot_minutes = spec.engine.slot_duration_s / 60.0;
      job.windows.emplace_back(0, slots_);
      jobs.push_back(std::move(job));
    }
    return jobs;
  }

 protected:
  [[nodiscard]] virtual std::vector<fleet::JobSpec> make_specs(std::uint64_t seed) const = 0;
  [[nodiscard]] virtual fleet::FleetOptions make_options(const std::vector<fleet::JobSpec>& specs,
                                                         std::uint64_t seed) const = 0;

  std::size_t jobs_;
  std::size_t slots_;

 private:
  static constexpr std::size_t kProbeJobs = 8;
  std::uint64_t seed_;
  std::size_t trials_;
  double tail_percentile_;

  [[nodiscard]] Episode run_trial(obs::Registry* registry, std::uint64_t seed) const {
    Episode episode;
    const Clock::time_point start = Clock::now();
    std::vector<fleet::JobSpec> specs = make_specs(seed);
    const fleet::FleetOptions options = make_options(specs, seed);
    fleet::FleetScheduler scheduler(std::move(specs), options, registry);
    scheduler.step();
    episode.setup_s = seconds_since(start);
    for (std::size_t t = 1; t < slots_; ++t) {
      const Clock::time_point begin = Clock::now();
      scheduler.step();
      episode.slot_ms.push_back(1e3 * seconds_since(begin));
    }
    episode.fleet = scheduler.finish();
    score(episode);
    return episode;
  }

  void score(Episode& episode) const {
    const fleet::FleetResult& result = episode.fleet;
    std::vector<std::string>& failures = episode.failures;
    if (result.slots.size() != slots_)
      failures.push_back("fleet ran " + std::to_string(result.slots.size()) + " slots");
    if (!result.limits_respected) failures.push_back("fleet limits_respected is false");

    Digest digest;
    double oracle_tuples = 0.0;
    double job_tuples = 0.0;
    double convergence = 0.0;
    std::size_t job_slots = 0;
    std::size_t near = 0;
    std::size_t misses = 0;
    std::size_t jobs_scored = 0;
    const fleet::JobSpec ref = mix_job(0);  // slot length, max tasks and SLO are fleet-wide
    const double slot_s = ref.engine.slot_duration_s;
    for (const fleet::JobOutcome& job : result.jobs) {
      digest.add(job.name);
      digest.add(fleet::to_string(job.state));
      digest.add_u64(job.slo_misses);
      digest_run(digest, job.run);
      if (job.run.slots.empty()) continue;
      check_run(job.run, ref.engine.max_tasks, job.name, failures);
      std::size_t job_misses = 0;
      for (const experiments::SlotSummary& s : job.run.slots) {
        oracle_tuples += s.oracle_throughput * slot_s;
        near += s.near_optimal ? 1 : 0;
        job_misses += s.latency_s > ref.slo.max_latency_s ? 1 : 0;
      }
      if (job_misses != job.slo_misses)
        failures.push_back(job.name + ": SLO misses recounted " + std::to_string(job_misses) +
                           " != reported " + std::to_string(job.slo_misses));
      misses += job_misses;
      job_slots += job.run.slots.size();
      job_tuples += job.run.total_tuples;
      convergence += mean_convergence(job.run.slots, {{0, job.run.slots.size()}}, slot_s / 60.0);
      ++jobs_scored;
    }
    for (const fleet::FleetSlot& s : result.slots) {
      if (!s.within_limits) failures.push_back("slot " + std::to_string(s.slot) + ": limits");
      if (!s.nodes_within_capacity)
        failures.push_back("slot " + std::to_string(s.slot) + ": node over capacity");
      for (double v : {s.spend_rate, s.throughput, s.tuples})
        if (!std::isfinite(v))
          failures.push_back("slot " + std::to_string(s.slot) + ": non-finite");
      for (long long v : {static_cast<long long>(s.total_pods), s.granted_pods,
                          static_cast<long long>(s.slo_misses),
                          static_cast<long long>(s.running_jobs),
                          static_cast<long long>(s.parked_jobs),
                          static_cast<long long>(s.effective_budget)})
        digest.add_u64(static_cast<std::uint64_t>(v));
      digest.add(s.tuples);
    }
    if (misses != result.total_slo_misses)
      failures.push_back("fleet SLO misses recounted " + std::to_string(misses) +
                         " != reported " + std::to_string(result.total_slo_misses));
    if (std::abs(job_tuples - result.total_tuples) > 1e-9 * std::max(1.0, result.total_tuples))
      failures.push_back("fleet tuples differ from the sum over jobs");
    digest.add(result.total_tuples);
    digest.add(result.total_cost);
    digest.add_u64(result.fleet_faults.size());

    // Job-slots completed by each timed (non-first) step.
    for (std::size_t t = 1; t < result.slots.size(); ++t)
      episode.job_slots.push_back(static_cast<double>(result.slots[t].running_jobs));
    episode.job_slots_total = job_slots;

    const auto n = static_cast<double>(std::max<std::size_t>(job_slots, 1));
    episode.quality.oracle_ratio = result.total_tuples / oracle_tuples;
    episode.quality.near_optimal_share = static_cast<double>(near) / n;
    episode.quality.cost_per_gtuple = 1e9 * result.total_cost / result.total_tuples;
    episode.quality.slo_miss_share = static_cast<double>(misses) / n;
    episode.quality.convergence_min =
        jobs_scored == 0 ? 0.0 : convergence / static_cast<double>(jobs_scored);
    episode.quality.slots_to_recover = slots_to_recover(result);
    digest.add(episode.quality.slots_to_recover);
    episode.digest = digest.value();
  }

  /// The fig12 analytic: per fired fleet fault, slots until the healthy
  /// fraction is back near its pre-fault level (never = the rest of the run).
  [[nodiscard]] double slots_to_recover(const fleet::FleetResult& result) const {
    std::vector<faults::FleetHealthSlot> health;
    for (const fleet::FleetSlot& s : result.slots) {
      faults::FleetHealthSlot h;
      h.healthy_jobs =
          static_cast<double>(s.running_jobs > s.slo_misses ? s.running_jobs - s.slo_misses : 0);
      h.active_jobs = static_cast<double>(s.running_jobs + s.parked_jobs);
      health.push_back(h);
    }
    double total = 0.0;
    for (const faults::FleetRecoveryStats& stats :
         faults::analyze_fleet_recovery(result.fleet_faults, health))
      total += static_cast<double>(stats.slots_to_recover ? *stats.slots_to_recover
                                                          : slots_ - stats.fault.slot);
    return total;
  }
};

class Fleet1k final : public FleetWorkload {
 public:
  Fleet1k(std::uint64_t seed, Size size)
      : FleetWorkload(seed, size == Size::kTiny ? 12 : 1000, size == Size::kTiny ? 6 : 16, 1,
                      90.0) {}

 protected:
  [[nodiscard]] std::vector<fleet::JobSpec> make_specs(std::uint64_t /*seed*/) const override {
    std::vector<fleet::JobSpec> specs;
    specs.reserve(jobs_);
    for (std::size_t i = 0; i < jobs_; ++i) specs.push_back(mix_job(i));
    return specs;
  }

  [[nodiscard]] fleet::FleetOptions make_options(const std::vector<fleet::JobSpec>& specs,
                                                 std::uint64_t seed) const override {
    fleet::FleetOptions options;
    options.slots = slots_;
    // fig11's tight budget: floors plus 1.75 surplus pods per job.
    options.budget_pods = static_cast<int>(floor_pods(specs) +
                                           (7 * static_cast<long long>(specs.size())) / 4);
    options.arbiter.mode = fleet::ArbiterMode::kPressure;
    options.limits.max_total_pods = options.budget_pods;
    options.seed = seed;
    return options;
  }
};

class FleetChaos final : public FleetWorkload {
 public:
  FleetChaos(std::uint64_t seed, Size size)
      : FleetWorkload(seed, size == Size::kTiny ? 16 : 200, 40, size == Size::kTiny ? 2 : 8,
                      99.0) {}

 protected:
  [[nodiscard]] std::vector<fleet::JobSpec> make_specs(std::uint64_t seed) const override {
    static const std::vector<std::string> controllers{"Dragster", "Dragster(ogd)", "DS2",
                                                      "Dhalion"};
    std::vector<fleet::JobSpec> specs;
    specs.reserve(jobs_);
    for (std::size_t i = 0; i < jobs_; ++i) {
      fleet::JobSpec spec = mix_job(i);
      // i / 4 so every controller meets every workload of the four-job cycle.
      spec.controller = controllers[(i / 4) % controllers.size()];
      spec.supervised = true;
      // Managed with instant scheduling: with pending-pod latency, a node
      // crash can drive ActuationManager's partial apply past max_tasks
      // (a known defect, see perfbench/README.md), which aborts the run.
      spec.managed = true;
      if (i % 2 == 0) {
        spec.transported = true;
        spec.transport.telemetry.drop_prob = 0.05;
        spec.transport.command.drop_prob = 0.05;
        spec.transport.ack.drop_prob = 0.05;
      }
      // Per-job chaos placed from the seed: a flaky checkpoint for every
      // job, a controller crash for every other one.
      const std::size_t k = static_cast<std::size_t>(seed % 1000);
      spec.fault_plan = "ckptfail@" + std::to_string(3 + (7 * i + k) % 30) + "*2";
      if (i % 2 == 1) spec.fault_plan += ";ctrlcrash@" + std::to_string(5 + (11 * i + 3 * k) % 30);
      specs.push_back(std::move(spec));
    }
    return specs;
  }

  [[nodiscard]] fleet::FleetOptions make_options(const std::vector<fleet::JobSpec>& specs,
                                                 std::uint64_t seed) const override {
    constexpr int kPodsPerNode = 4;
    fleet::FleetOptions options;
    options.slots = slots_;
    // fig12's roomier budget (floors plus 3 pods per job), so the health
    // dips come from the chaos, not from provisioning.
    options.budget_pods =
        static_cast<int>(floor_pods(specs) + 3 * static_cast<long long>(specs.size()));
    options.arbiter.mode = fleet::ArbiterMode::kPressure;
    options.limits.max_total_pods = options.budget_pods;
    options.seed = seed;
    options.node_count = (options.budget_pods + kPodsPerNode - 1) / kPodsPerNode + 2;
    options.node_capacity = kPodsPerNode;
    options.chaos = "nodecrash@8*" + std::to_string(std::max(1, options.node_count / 6)) +
                    ";budgetcut@16+4*0.5;netpart@22+3;netdrop@28+6*0.4";
    return options;
  }
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed, Size size) {
  if (name == "yahoo_long") return std::make_unique<YahooLong>(seed, size);
  if (name == "fleet_1k") return std::make_unique<Fleet1k>(seed, size);
  if (name == "fleet_chaos") return std::make_unique<FleetChaos>(seed, size);
  return nullptr;
}

}  // namespace perfbench
