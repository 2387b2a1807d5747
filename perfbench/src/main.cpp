// Entry point of the repository benchmark (see perfbench/README.md).
//
//   perfbench --workload yahoo_long|fleet_1k|fleet_chaos --seed N
//             --seconds S --trace 0|1 [--size full|tiny] [--corrupt-digest]
//
// --trace 0 repeats untraced episodes for S seconds (at least three) and
// prints the end-to-end metrics; --trace 1 runs one untraced reference
// episode, a traced episode, the lane sweep and the layer replays, and
// prints the per-layer metrics.  The last stdout line is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// --size tiny shrinks every workload for the self-test; --corrupt-digest
// flips one digest before it is compared, so the check must fail.
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <utility>

#include "bench.hpp"
#include "parallel/task_pool.hpp"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  Size size = Size::kFull;
  bool corrupt_digest = false;
};

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--corrupt-digest") {
      args.corrupt_digest = true;
      continue;
    }
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
      have_seed = true;
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") throw std::invalid_argument("--trace takes 0 or 1");
      args.trace = value == "1";
    } else if (flag == "--size") {
      if (value != "full" && value != "tiny") throw std::invalid_argument("--size: full|tiny");
      args.size = value == "tiny" ? Size::kTiny : Size::kFull;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (args.workload.empty() || !have_seed)
    throw std::invalid_argument("--workload and --seed are required");
  if (!(args.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  return args;
}

/// The workload's tail percentile of the pooled steady-slot times.  Each
/// workload fixes the percentile that keeps at least ten samples beyond it
/// at the benchmark's run length, so the reported percentile does not jump
/// with the episode count; runs too short for it fall back to the highest
/// step of a fixed ladder that still has ten samples beyond it.
struct Tail {
  double percentile = 50.0;
  double value = 0.0;
  std::size_t samples = 0;
  std::size_t beyond = 0;
};

Tail tail_of(std::vector<double> values, double preferred) {
  Tail tail;
  tail.samples = values.size();
  if (values.empty()) return tail;
  std::sort(values.begin(), values.end());
  for (double p : {preferred, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0, 50.0}) {
    if (p > preferred) continue;
    // Nearest rank: the value at rank ceil(p/100 * n).
    const auto rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(values.size())));
    const std::size_t index = std::max<std::size_t>(rank, 1) - 1;
    const std::size_t beyond = values.size() - 1 - index;
    if (beyond >= 10 || p == 50.0) {
      tail.percentile = p;
      tail.value = values[index];
      tail.beyond = beyond;
      return tail;
    }
  }
  return tail;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

struct Output {
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  std::vector<std::string> failures;
  std::size_t attempted = 0;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, {value, unit}});
  }
  void check_digest(const std::string& what, std::uint64_t expected, std::uint64_t actual) {
    std::printf("digest %-28s %s %s %s\n", what.c_str(), hex(actual).c_str(),
                expected == actual ? "==" : "!=", hex(expected).c_str());
    if (expected != actual) failures.push_back("digest mismatch: " + what);
  }
  void absorb(const Episode& episode, const std::string& label) {
    attempted += episode.job_slots_total;
    for (const std::string& failure : episode.failures)
      failures.push_back(label + ": " + failure);
  }

  int print() const {
    for (const std::string& failure : failures) std::printf("CHECK FAILED: %s\n", failure.c_str());
    const bool correct = failures.empty();
    std::string json = "{\"correct\": " + std::string(correct ? "true" : "false") +
                       ", \"attempted\": " + std::to_string(attempted) +
                       ", \"failed\": " + std::to_string(correct ? 0 : attempted) +
                       ", \"metrics\": {";
    bool first = true;
    for (const auto& [name, value_unit] : metrics) {
      char value[64];
      std::snprintf(value, sizeof value, "%.17g", value_unit.first);
      std::printf("%-28s %-18s %s\n", name.c_str(), value, value_unit.second.c_str());
      json += (first ? "\"" : ", \"") + name + "\": {\"value\": " + value +
              ", \"unit\": \"" + value_unit.second + "\"}";
      first = false;
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    return correct ? 0 : 1;
  }
};

int run_untraced(const Workload& workload, const Args& args) {
  constexpr std::size_t kMinEpisodes = 3;
  parallel::TaskPool::set_global_threads(workload.lanes());
  Output out;
  std::vector<Episode> episodes;
  const Clock::time_point start = Clock::now();
  double peak_mb = 0.0;
  while (episodes.size() < kMinEpisodes || seconds_since(start) < args.seconds) {
    episodes.push_back(workload.run(nullptr));
    out.absorb(episodes.back(), "episode " + std::to_string(episodes.size()));
    // The first episode's peak: later episodes reuse (and fragment) the
    // freed heap, so the process peak would grow with the run length.
    if (episodes.size() == 1) peak_mb = peak_rss_mb();
    episodes.back().fleet = fleet::FleetResult{};  // only the traced run reads it
  }
  // Every episode of a run replays the same inputs: same seed, same bytes.
  if (args.corrupt_digest) episodes.back().digest ^= 1;
  for (std::size_t e = 1; e < episodes.size(); ++e)
    out.check_digest("episode " + std::to_string(e + 1) + " vs 1", episodes[0].digest,
                     episodes[e].digest);

  std::vector<double> setup;
  std::vector<double> slot_ms;
  double job_slots = 0.0;
  double step_seconds = 0.0;
  for (const Episode& episode : episodes) {
    setup.push_back(episode.setup_s);
    slot_ms.insert(slot_ms.end(), episode.slot_ms.begin(), episode.slot_ms.end());
    for (std::size_t t = 0; t < episode.slot_ms.size(); ++t) {
      job_slots += episode.job_slots[t];
      step_seconds += episode.slot_ms[t] / 1e3;
    }
  }
  std::printf("episode slot_ms p50:");
  for (const Episode& episode : episodes) std::printf(" %.3f", median(episode.slot_ms));
  std::printf("\n");
  const Tail tail = tail_of(slot_ms, workload.tail_percentile());
  const Quality& q = episodes.front().quality;
  std::printf("episodes %zu, lanes %zu, result digest %s\n", episodes.size(), workload.lanes(),
              hex(episodes.front().digest).c_str());
  std::printf("slot_ms_tail is p%g of %zu steady slots (%zu beyond it)\n", tail.percentile,
              tail.samples, tail.beyond);
  out.add("setup_s", median(setup), "s");
  out.add("slot_ms_p50", median(slot_ms), "ms");
  out.add("slot_ms_tail", tail.value, "ms");
  out.add("slots_per_s", step_seconds > 0.0 ? job_slots / step_seconds : 0.0, "1/s");
  out.add("peak_rss_mb", peak_mb, "MB");
  out.add("oracle_ratio", q.oracle_ratio, "ratio");
  out.add("near_optimal_share", q.near_optimal_share, "ratio");
  out.add("cost_per_gtuple", q.cost_per_gtuple, "usd/Gtuple");
  out.add("slo_miss_share", q.slo_miss_share, "ratio");
  out.add("convergence_min", q.convergence_min, "min");
  return out.print();
}

int run_traced(const Workload& workload, const Args& args) {
  Output out;
  const std::size_t lanes = workload.lanes();
  parallel::TaskPool::set_global_threads(lanes);
  const Episode reference = workload.run(nullptr);
  out.absorb(reference, "untraced episode");

  // Traced episode: the fleet publishes into a registry; the single job is
  // driven through the timing decorator with the layer replays.
  obs::Registry registry;
  LayerMetrics layers;
  std::vector<Episode> probes = replay_layers(
      workload, workload.is_fleet() ? nullptr : &registry, layers);
  for (const Episode& probe : probes) out.absorb(probe, "probe job");
  Episode traced = workload.is_fleet() ? workload.run(&registry) : merge_trials(std::move(probes));
  if (workload.is_fleet()) out.absorb(traced, "traced episode");
  if (args.corrupt_digest) traced.digest ^= 1;
  out.check_digest("traced vs untraced", reference.digest, traced.digest);

  // Lane sweep at 1, 2 and nproc lanes; every lane count must reproduce the
  // reference bytes.
  const std::size_t nproc = parallel::TaskPool::hardware_threads(64);
  std::map<std::size_t, double> slot_p50{{lanes, median(reference.slot_ms)}};
  for (std::size_t sweep : {std::size_t{1}, std::size_t{2}, nproc}) {
    if (slot_p50.count(sweep) != 0) continue;
    parallel::TaskPool::set_global_threads(sweep);
    const Episode episode = workload.run(nullptr);
    out.absorb(episode, std::to_string(sweep) + "-lane episode");
    out.check_digest(std::to_string(sweep) + " lanes vs " + std::to_string(lanes),
                     reference.digest, episode.digest);
    slot_p50[sweep] = median(episode.slot_ms);
  }
  parallel::TaskPool::set_global_threads(lanes);
  const double speedup = slot_p50[1] / slot_p50[nproc];
  // Karp-Flatt: the serial fraction implied by the speedup at n lanes.
  const double n = static_cast<double>(nproc);
  const double serial = nproc > 1 ? (1.0 / speedup - 1.0 / n) / (1.0 - 1.0 / n) : 1.0;

  std::size_t snapshots = 0, restores = 0, issued = 0, retried = 0, rolled_back = 0;
  for (const fleet::JobOutcome& job : reference.fleet.jobs) {
    if (job.run.supervisor) {
      snapshots += job.run.supervisor->snapshots_taken;
      restores += job.run.supervisor->restores;
    }
    for (const actuation::OperatorStats& op : job.run.actuation) {
      issued += op.issued;
      retried += op.retried;
      rolled_back += op.rolled_back;
    }
  }
  const std::map<std::string, double> families = sum_families(registry.expose());
  const auto family = [&](const std::string& name) {
    const auto it = families.find(name);
    return it == families.end() ? 0.0 : it->second;
  };

  std::printf("lanes %zu, nproc %zu, result digest %s\n", lanes, nproc,
              hex(reference.digest).c_str());
  out.add("core.on_slot_ms", layers["core.on_slot_ms"], "ms");
  out.add("experiments.step_self_ms", layers["experiments.step_self_ms"], "ms");
  out.add("gp.observations", layers["gp.observations"], "count");
  out.add("gp.acquisition_us", layers["gp.acquisition_us"], "us");
  out.add("gp.add_observation_us", layers["gp.add_observation_us"], "us");
  out.add("online.saddle_solve_us", layers["online.saddle_solve_us"], "us");
  out.add("online.ogd_step_us", layers["online.ogd_step_us"], "us");
  out.add("dag.flow_solve_ns", layers["dag.flow_solve_ns"], "ns");
  out.add("dag.lagrangian_ns", layers["dag.lagrangian_ns"], "ns");
  out.add("dag.value_vs_taped", layers["dag.value_vs_taped"], "ratio");
  out.add("experiments.oracle_solves", layers["experiments.oracle_solves"], "count");
  out.add("experiments.oracle_ms", layers["experiments.oracle_ms"], "ms");
  out.add("fleet.slot_ms_1lane", slot_p50[1], "ms");
  out.add("fleet.slot_ms_2lane", slot_p50[2], "ms");
  out.add("fleet.slot_ms_nproc", slot_p50[nproc], "ms");
  out.add("fleet.nproc", n, "count");
  out.add("fleet.lane_speedup", speedup, "ratio");
  out.add("fleet.serial_share", serial, "ratio");
  out.add("resilience.snapshots", static_cast<double>(snapshots), "count");
  out.add("resilience.restores", static_cast<double>(restores), "count");
  out.add("resilience.snapshot_bytes", layers["resilience.snapshot_bytes"], "bytes");
  out.add("resilience.snapshot_us", layers["resilience.snapshot_us"], "us");
  out.add("resilience.restore_us", layers["resilience.restore_us"], "us");
  out.add("actuation.epochs_issued", static_cast<double>(issued), "count");
  out.add("actuation.retried", static_cast<double>(retried), "count");
  out.add("actuation.rolled_back", static_cast<double>(rolled_back), "count");
  out.add("transport.command_retries", family("transport_command_retries_total"), "count");
  out.add("transport.commands_deduped", family("transport_commands_deduped_total"), "count");
  out.add("transport.commands_exhausted", family("transport_commands_exhausted_total"), "count");
  out.add("transport.breaker_transitions", family("transport_breaker_transitions_total"),
          "count");
  out.add("transport.rule_fallback_slots", family("transport_rule_fallback_slots_total"),
          "count");
  out.add("faults.injected", family("scenario_faults_total"), "count");
  out.add("faults.fleet_faults", static_cast<double>(reference.fleet.fleet_faults.size()),
          "count");
  out.add("faults.slots_to_recover", reference.quality.slots_to_recover, "slots");
  out.add("obs.tracing_overhead", median(traced.slot_ms) / median(reference.slot_ms), "ratio");
  return out.print();
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  try {
    const Args args = parse_args(argc, argv);
    const std::unique_ptr<Workload> workload = make_workload(args.workload, args.seed, args.size);
    if (!workload) throw std::invalid_argument("unknown workload " + args.workload);
    return args.trace ? run_traced(*workload, args) : run_untraced(*workload, args);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: %s\n", error.what());
    return 2;
  }
}
