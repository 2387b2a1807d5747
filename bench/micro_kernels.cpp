// Microbenchmarks for the library's hot kernels, in two modes:
//
//  1. Google-benchmark (default): GP posterior updates/predictions at growing
//     history sizes, acquisition argmax over candidate grids, DAG flow solves,
//     Lagrangian gradients and values, the saddle-point solve, and the simulator's
//     micro-step rate.  All google-benchmark flags pass through.
//
//  2. Speed harness (`--json PATH` and/or `--checks PATH`): the deterministic
//     reference-vs-optimized comparison behind bench/baselines/BENCH_speed.json.
//     Each entry times the reference code path against the batched, blocked
//     or tape-free kernel that replaced it, verifies the two produce
//     BIT-IDENTICAL results, and records an FNV-1a checksum over the result
//     bits.  `--checks` writes a timing-free JSON of just the checksums: CI
//     runs it at --threads 1 and --threads 8 and cmp's the bytes, which is
//     the machine-checkable statement that thread count never leaks into
//     computed values.
//
//   ./micro_kernels --json BENCH_speed.json [--checks checks.json]
//                   [--threads 0] [--fleet-jobs 1000] [--fleet-slots 4]
//                   [--seed 7]
#include <benchmark/benchmark.h>

#include <bit>
#include <chrono>  // wall-clock timings are bench output, never simulated state
#include <cinttypes>
#include <cmath>
#include <cstring>
#include <fstream>
#include <string_view>
#include <thread>  // hardware_concurrency for the hardware stanza of BENCH_speed.json

#include "baselines/oracle.hpp"
#include "bench_util.hpp"
#include "common/rng.hpp"
#include "dag/flow_solver.hpp"
#include "fleet/fleet.hpp"
#include "gp/acquisition.hpp"
#include "gp/gaussian_process.hpp"
#include "online/saddle_point.hpp"
#include "workloads/workloads.hpp"

namespace {

using namespace dragster;

gp::GaussianProcess make_gp(std::size_t observations, std::uint64_t seed = 1) {
  gp::GaussianProcess gp(
      std::make_unique<gp::SquaredExponentialKernel>(2.25, std::vector{2.5}), 0.0064, 1.0);
  common::Rng rng(seed);
  for (std::size_t i = 0; i < observations; ++i)
    gp.add_observation({static_cast<double>(1 + i % 10)}, rng.normal(1.0, 0.2));
  return gp;
}

void BM_GpAddObservation(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    gp::GaussianProcess gp = make_gp(n);
    state.ResumeTiming();
    gp.add_observation({4.0}, 1.1);
    benchmark::DoNotOptimize(gp.num_observations());
  }
}
BENCHMARK(BM_GpAddObservation)->Arg(10)->Arg(50)->Arg(200);

void BM_GpPredict(benchmark::State& state) {
  const gp::GaussianProcess gp = make_gp(static_cast<std::size_t>(state.range(0)));
  const std::vector<double> x{5.0};
  for (auto _ : state) {
    const auto post = gp.predict(x);
    benchmark::DoNotOptimize(post.mean);
  }
}
BENCHMARK(BM_GpPredict)->Arg(10)->Arg(50)->Arg(200);

void BM_AcquisitionArgmax(benchmark::State& state) {
  const gp::GaussianProcess gp = make_gp(30);
  const auto grid = gp::integer_grid(1, 1, static_cast<int>(state.range(0)));
  for (auto _ : state) {
    const auto pick = gp::select_target_tracking_ucb(gp, grid, 1.2, 10.0);
    benchmark::DoNotOptimize(pick->index);
  }
}
BENCHMARK(BM_AcquisitionArgmax)->Arg(10)->Arg(100);

void BM_FlowSolveYahoo(benchmark::State& state) {
  const auto spec = workloads::yahoo();
  const dag::FlowSolver flow(spec.dag);
  std::vector<double> rates(spec.dag.node_count(), 0.0);
  rates[spec.dag.sources()[0]] = 90'000.0;
  std::vector<double> caps(spec.dag.node_count(), 50'000.0);
  for (auto _ : state) benchmark::DoNotOptimize(flow.app_throughput(rates, caps));
}
BENCHMARK(BM_FlowSolveYahoo);

void BM_LagrangianGradientYahoo(benchmark::State& state) {
  const auto spec = workloads::yahoo();
  const dag::FlowSolver flow(spec.dag);
  const std::size_t n = spec.dag.node_count();
  std::vector<double> rates(n, 0.0);
  rates[spec.dag.sources()[0]] = 90'000.0;
  std::vector<double> caps(n, 50'000.0);
  std::vector<double> lambda(n, 0.5);
  std::vector<double> demand(n, 60'000.0);
  for (auto _ : state) {
    const auto lr = flow.lagrangian(rates, caps, lambda, demand);
    benchmark::DoNotOptimize(lr.value);
  }
}
BENCHMARK(BM_LagrangianGradientYahoo);

void BM_LagrangianValueYahoo(benchmark::State& state) {
  const auto spec = workloads::yahoo();
  const dag::FlowSolver flow(spec.dag);
  const std::size_t n = spec.dag.node_count();
  std::vector<double> rates(n, 0.0);
  rates[spec.dag.sources()[0]] = 90'000.0;
  std::vector<double> caps(n, 50'000.0);
  std::vector<double> lambda(n, 0.5);
  std::vector<double> demand(n, 60'000.0);
  dag::FlowSolver::Scratch scratch;
  for (auto _ : state)
    benchmark::DoNotOptimize(flow.lagrangian_value(rates, caps, lambda, demand, scratch));
}
BENCHMARK(BM_LagrangianValueYahoo);

void BM_SaddlePointSolveYahoo(benchmark::State& state) {
  const auto spec = workloads::yahoo();
  const dag::FlowSolver flow(spec.dag);
  const std::size_t n = spec.dag.node_count();
  std::vector<double> rates(n, 0.0);
  rates[spec.dag.sources()[0]] = 90'000.0;
  std::vector<double> lambda(n, 0.2);
  std::vector<double> start(n, 30'000.0);
  std::vector<double> demand(n, 40'000.0);
  online::SaddlePointOptions options;
  options.y_max = 3e5;
  const online::SaddlePointSolver solver(options);
  for (auto _ : state) {
    const auto y = solver.solve(flow, rates, lambda, start, demand);
    benchmark::DoNotOptimize(y[2]);
  }
}
BENCHMARK(BM_SaddlePointSolveYahoo);

void BM_EngineSlotYahoo(benchmark::State& state) {
  const auto spec = workloads::yahoo();
  streamsim::EngineOptions options;
  options.slot_duration_s = 600.0;
  streamsim::Engine engine = spec.make_engine(true, options, 7);
  for (auto _ : state) {
    const auto& report = engine.run_slot();
    benchmark::DoNotOptimize(report.tuples_processed);
  }
  state.SetItemsProcessed(state.iterations() * 600);  // micro-steps per slot
}
BENCHMARK(BM_EngineSlotYahoo);

void BM_OracleExhaustiveWordcount(benchmark::State& state) {
  const auto spec = workloads::wordcount();
  streamsim::EngineOptions options;
  options.capacity_noise = 0.0;
  streamsim::Engine engine = spec.make_engine(true, options, 1);
  const baselines::Oracle oracle(engine);
  for (auto _ : state) {
    const auto result = oracle.optimal_at(0.0, online::Budget::unlimited(0.10));
    benchmark::DoNotOptimize(result.throughput);
  }
}
BENCHMARK(BM_OracleExhaustiveWordcount);

void BM_OracleScalingSearchYahoo(benchmark::State& state) {
  const auto spec = workloads::yahoo();
  streamsim::EngineOptions options;
  options.capacity_noise = 0.0;
  streamsim::Engine engine = spec.make_engine(true, options, 1);
  const baselines::Oracle oracle(engine);
  for (auto _ : state) {
    const auto result = oracle.optimal_at(0.0, online::Budget::unlimited(0.10));
    benchmark::DoNotOptimize(result.throughput);
  }
}
BENCHMARK(BM_OracleScalingSearchYahoo);

// ---------------------------------------------------------------------------
// Speed harness (--json / --checks).
// ---------------------------------------------------------------------------

/// FNV-1a over 64-bit words; doubles fold in by bit pattern, so the checksum
/// changes iff any result bit changes.
constexpr std::uint64_t kFnvOffset = 14695981039346656037ULL;

std::uint64_t fnv1a(std::uint64_t hash, std::uint64_t word) {
  for (int byte = 0; byte < 8; ++byte) {
    hash ^= (word >> (8 * byte)) & 0xffULL;
    hash *= 1099511628211ULL;
  }
  return hash;
}

std::uint64_t fnv1a(std::uint64_t hash, double value) {
  return fnv1a(hash, std::bit_cast<std::uint64_t>(value));
}

std::uint64_t checksum_span(std::uint64_t hash, std::span<const double> values) {
  for (const double v : values) hash = fnv1a(hash, v);
  return hash;
}

std::string hex64(std::uint64_t value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "0x%016" PRIx64, value);
  return buffer;
}

/// Best-of-`reps` per-call wall-clock.  Calibrates the inner iteration count
/// so one rep runs >= `rep_ns`, then reports min(rep elapsed / iters): the
/// minimum is the noise-robust estimator on a shared machine.
template <typename Fn>
double time_per_call_ns(Fn&& fn, double rep_ns = 2e7, int reps = 5) {
  using clock = std::chrono::steady_clock;  // bench-only timing
  auto elapsed_ns = [&](std::size_t iters) {
    const auto begin = clock::now();  // bench-only timing
    for (std::size_t i = 0; i < iters; ++i) fn();
    const auto end = clock::now();  // bench-only timing
    return std::chrono::duration<double, std::nano>(end - begin).count();
  };
  std::size_t iters = 1;
  double once = elapsed_ns(iters);
  while (once < rep_ns / 4.0 && iters < (1ULL << 30)) {
    iters *= 2;
    once = elapsed_ns(iters);
  }
  double best = once / static_cast<double>(iters);
  for (int r = 1; r < reps; ++r)
    best = std::min(best, elapsed_ns(iters) / static_cast<double>(iters));
  return best;
}

struct KernelReport {
  std::string name;
  std::size_t work = 0;        ///< problem size (rows, RHS, candidates, ...)
  double reference_ns = 0.0;   ///< scalar path this kernel replaced
  double optimized_ns = 0.0;   ///< batched/blocked kernel
  bool bit_identical = false;  ///< reference and optimized outputs match bitwise
  std::uint64_t checksum = 0;  ///< FNV-1a over the optimized result bits
};

bool bytes_equal(std::span<const double> a, std::span<const double> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// Kernel-row sweep: one query point against n stored inputs.  Reference is
/// the per-pair virtual `kernel(x_i, y)` loop predict() used before eval_row
/// existed; optimized is Kernel::eval_row's fused distance loop.
KernelReport bench_kernel_row(bool timed) {
  constexpr std::size_t kPoints = 4096;
  constexpr std::size_t kDim = 8;
  const gp::SquaredExponentialKernel kernel(2.25, std::vector<double>(kDim, 2.5));
  const gp::Kernel& vtable = kernel;  // virtual dispatch, exactly like the old loop
  common::Rng rng(11);
  std::vector<double> xs(kPoints * kDim);
  std::vector<double> y(kDim);
  for (double& v : xs) v = rng.uniform(1.0, 10.0);
  for (double& v : y) v = rng.uniform(1.0, 10.0);

  std::vector<double> ref(kPoints);
  std::vector<double> opt(kPoints);
  auto reference = [&] {
    for (std::size_t i = 0; i < kPoints; ++i)
      ref[i] = vtable(std::span<const double>(xs).subspan(i * kDim, kDim), y);
    benchmark::DoNotOptimize(ref.data());
  };
  auto optimized = [&] {
    vtable.eval_row(xs, kPoints, y, opt);
    benchmark::DoNotOptimize(opt.data());
  };
  reference();
  optimized();

  KernelReport report{"kernel_row", kPoints};
  report.bit_identical = bytes_equal(ref, opt);
  report.checksum = checksum_span(kFnvOffset, opt);
  if (timed) {
    report.reference_ns = time_per_call_ns(reference);
    report.optimized_ns = time_per_call_ns(optimized);
  }
  return report;
}

/// Multi-RHS forward substitution.  Reference is one solve_lower per column
/// (a latency-bound dependency chain that re-streams the whole factor per
/// right-hand side); optimized is the blocked solve_lower_multi.
KernelReport bench_solve_lower_multi(bool timed) {
  constexpr std::size_t kN = 256;
  constexpr std::size_t kRhs = 256;
  linalg::Matrix a(kN, kN);
  for (std::size_t i = 0; i < kN; ++i)
    for (std::size_t j = 0; j < kN; ++j)
      a(i, j) = std::exp(-std::abs(static_cast<double>(i) - static_cast<double>(j)) / 32.0);
  const linalg::Cholesky chol(a);
  common::Rng rng(13);
  std::vector<double> b(kN * kRhs);
  for (double& v : b) v = rng.uniform(-1.0, 1.0);

  std::vector<double> ref(kN * kRhs);
  std::vector<double> opt(kN * kRhs);
  auto reference = [&] {
    linalg::Vector column(kN);
    for (std::size_t r = 0; r < kRhs; ++r) {
      std::memcpy(column.data(), b.data() + r * kN, kN * sizeof(double));
      const linalg::Vector z = chol.solve_lower(column);
      std::memcpy(ref.data() + r * kN, z.data(), kN * sizeof(double));
    }
    benchmark::DoNotOptimize(ref.data());
  };
  auto optimized = [&] {
    chol.solve_lower_multi(b, kRhs, opt);
    benchmark::DoNotOptimize(opt.data());
  };
  reference();
  optimized();

  KernelReport report{"solve_lower_multi", kRhs};
  report.bit_identical = bytes_equal(ref, opt);
  report.checksum = checksum_span(kFnvOffset, opt);
  if (timed) {
    report.reference_ns = time_per_call_ns(reference);
    report.optimized_ns = time_per_call_ns(optimized);
  }
  return report;
}

gp::GaussianProcess make_wide_gp(std::size_t observations, std::size_t dim,
                                 std::uint64_t seed) {
  gp::GaussianProcess gp(
      std::make_unique<gp::SquaredExponentialKernel>(2.25, std::vector<double>(dim, 2.5)),
      0.0064, 1.0);
  common::Rng rng(seed);
  for (std::size_t i = 0; i < observations; ++i) {
    std::vector<double> x(dim);
    for (double& v : x) v = rng.uniform(1.0, 10.0);
    gp.add_observation(std::move(x), rng.normal(1.0, 0.2));
  }
  return gp;
}

/// Batched posterior.  Reference is the per-query predict() loop the
/// controller's candidate scoring used before predict_batch; optimized is one
/// predict_batch call (one kernel-row sweep + one multi-RHS solve).
KernelReport bench_predict_batch(bool timed) {
  constexpr std::size_t kObs = 256;
  constexpr std::size_t kDim = 4;
  constexpr std::size_t kQueries = 512;
  const gp::GaussianProcess gp = make_wide_gp(kObs, kDim, 17);
  common::Rng rng(19);
  std::vector<double> xs(kQueries * kDim);
  for (double& v : xs) v = rng.uniform(1.0, 10.0);

  std::vector<gp::Posterior> ref(kQueries);
  std::vector<gp::Posterior> opt(kQueries);
  auto reference = [&] {
    for (std::size_t q = 0; q < kQueries; ++q)
      ref[q] = gp.predict(std::span<const double>(xs).subspan(q * kDim, kDim));
    benchmark::DoNotOptimize(ref.data());
  };
  auto optimized = [&] {
    gp.predict_batch(xs, kQueries, opt);
    benchmark::DoNotOptimize(opt.data());
  };
  reference();
  optimized();

  bool identical = true;
  std::uint64_t checksum = kFnvOffset;
  for (std::size_t q = 0; q < kQueries; ++q) {
    identical = identical &&
                std::bit_cast<std::uint64_t>(ref[q].mean) ==
                    std::bit_cast<std::uint64_t>(opt[q].mean) &&
                std::bit_cast<std::uint64_t>(ref[q].variance) ==
                    std::bit_cast<std::uint64_t>(opt[q].variance);
    checksum = fnv1a(checksum, opt[q].mean);
    checksum = fnv1a(checksum, opt[q].variance);
  }
  KernelReport report{"predict_batch", kQueries};
  report.bit_identical = identical;
  report.checksum = checksum;
  if (timed) {
    report.reference_ns = time_per_call_ns(reference);
    report.optimized_ns = time_per_call_ns(optimized);
  }
  return report;
}

/// Acquisition argmax over an integer grid.  Reference is
/// select_target_tracking_ucb (predict per candidate); optimized batches the
/// posteriors then folds the identical score with the identical strict
/// first-max tie-break, as DragsterController::select_configs now does.
KernelReport bench_acquisition_argmax(bool timed) {
  constexpr std::size_t kObs = 256;
  constexpr std::size_t kDim = 2;
  constexpr double kTarget = 1.2;
  constexpr double kBeta = 10.0;
  const gp::GaussianProcess gp = make_wide_gp(kObs, kDim, 23);
  const std::vector<gp::Candidate> grid = gp::integer_grid(kDim, 1, 32);
  std::vector<double> xs(grid.size() * kDim);
  for (std::size_t i = 0; i < grid.size(); ++i)
    std::memcpy(xs.data() + i * kDim, grid[i].data(), kDim * sizeof(double));

  std::optional<gp::AcquisitionResult> ref;
  std::size_t opt_index = 0;
  double opt_score = 0.0;
  std::vector<gp::Posterior> posts(grid.size());
  auto reference = [&] {
    ref = gp::select_target_tracking_ucb(gp, grid, kTarget, kBeta);
    benchmark::DoNotOptimize(ref->index);
  };
  auto optimized = [&] {
    gp.predict_batch(xs, grid.size(), posts);
    bool any = false;
    for (std::size_t i = 0; i < grid.size(); ++i) {
      const double score = -std::abs(posts[i].mean - kTarget) + kBeta * posts[i].variance;
      if (!any || score > opt_score) {
        any = true;
        opt_index = i;
        opt_score = score;
      }
    }
    benchmark::DoNotOptimize(opt_index);
  };
  reference();
  optimized();

  KernelReport report{"acquisition_argmax", grid.size()};
  report.bit_identical = ref.has_value() && ref->index == opt_index &&
                         std::bit_cast<std::uint64_t>(ref->score) ==
                             std::bit_cast<std::uint64_t>(opt_score);
  report.checksum = fnv1a(fnv1a(kFnvOffset, static_cast<std::uint64_t>(opt_index)), opt_score);
  if (timed) {
    report.reference_ns = time_per_call_ns(reference);
    report.optimized_ns = time_per_call_ns(optimized);
  }
  return report;
}

/// The saddle-point objective L(y, lambda) on the Yahoo DAG over a sweep of
/// capacity vectors.  Reference is the taped FlowSolver::lagrangian(...).value
/// the coordinate search used to call; optimized is the tape-free
/// lagrangian_value with one reused scratch, as SaddlePointSolver::solve now
/// calls it.
KernelReport bench_lagrangian_value(bool timed) {
  constexpr std::size_t kPoints = 64;
  const auto spec = workloads::yahoo();
  const dag::FlowSolver flow(spec.dag);
  const std::size_t n = spec.dag.node_count();
  std::vector<double> rates(n, 0.0);
  rates[spec.dag.sources()[0]] = 90'000.0;
  std::vector<double> lambda(n, 0.0);
  std::vector<double> demand(n, 0.0);
  common::Rng rng(29);
  for (dag::NodeId id : spec.dag.operators()) {
    lambda[id] = rng.uniform(0.005, 1.0);
    demand[id] = rng.uniform(2e4, 1e5);
  }
  std::vector<std::vector<double>> caps(kPoints, std::vector<double>(n, 0.0));
  for (std::vector<double>& cap : caps)
    for (dag::NodeId id : spec.dag.operators()) cap[id] = rng.uniform(1e4, 2e5);

  std::vector<double> ref(kPoints);
  std::vector<double> opt(kPoints);
  dag::FlowSolver::Scratch scratch;
  auto reference = [&] {
    for (std::size_t i = 0; i < kPoints; ++i)
      ref[i] = flow.lagrangian(rates, caps[i], lambda, demand).value;
    benchmark::DoNotOptimize(ref.data());
  };
  auto optimized = [&] {
    for (std::size_t i = 0; i < kPoints; ++i)
      opt[i] = flow.lagrangian_value(rates, caps[i], lambda, demand, scratch);
    benchmark::DoNotOptimize(opt.data());
  };
  reference();
  optimized();

  KernelReport report{"lagrangian_value", kPoints};
  report.bit_identical = bytes_equal(ref, opt);
  report.checksum = checksum_span(kFnvOffset, opt);
  if (timed) {
    report.reference_ns = time_per_call_ns(reference);
    report.optimized_ns = time_per_call_ns(optimized);
  }
  return report;
}

/// Posterior over the controller's configuration grid (tasks 1..10 x three
/// cpu options) after observations on that grid.  Reference is predict_batch
/// on an untracked copy (kernel rows + multi-RHS forward solve, O(n^2) per
/// candidate); optimized is the same call on a GP that tracks the grid
/// (O(n) per candidate), as DragsterController::select_configs now runs it.
KernelReport bench_tracked_posterior(bool timed) {
  constexpr std::size_t kObs = 256;
  constexpr std::size_t kDim = 2;
  std::vector<double> grid;
  for (double cpu : {0.5, 1.0, 2.0})
    for (int tasks = 1; tasks <= 10; ++tasks) {
      grid.push_back(static_cast<double>(tasks));
      grid.push_back(cpu);
    }
  const std::size_t count = grid.size() / kDim;
  // Same seeded observations on the grid; `track_grid` tracks it first, so
  // its cached columns grow one element per observation.
  auto observed_gp = [&](bool track_grid) {
    gp::GaussianProcess gp(
        std::make_unique<gp::SquaredExponentialKernel>(2.25, std::vector<double>{2.5, 0.75}),
        0.0064, 1.0);
    if (track_grid) gp.track(grid, count);
    common::Rng rng(31);
    const auto last = static_cast<std::int64_t>(count) - 1;
    for (std::size_t i = 0; i < kObs; ++i) {
      const auto at = static_cast<std::size_t>(rng.uniform_int(0, last));
      gp.add_observation({grid[at * kDim], grid[at * kDim + 1]}, rng.normal(1.0, 0.2));
    }
    return gp;
  };
  const gp::GaussianProcess untracked = observed_gp(false);
  const gp::GaussianProcess tracked = observed_gp(true);

  std::vector<gp::Posterior> ref(count);
  std::vector<gp::Posterior> opt(count);
  auto reference = [&] {
    untracked.predict_batch(grid, count, ref);
    benchmark::DoNotOptimize(ref.data());
  };
  auto optimized = [&] {
    tracked.predict_batch(grid, count, opt);
    benchmark::DoNotOptimize(opt.data());
  };
  reference();
  optimized();

  bool identical = true;
  std::uint64_t checksum = kFnvOffset;
  for (std::size_t q = 0; q < count; ++q) {
    identical = identical &&
                std::bit_cast<std::uint64_t>(ref[q].mean) ==
                    std::bit_cast<std::uint64_t>(opt[q].mean) &&
                std::bit_cast<std::uint64_t>(ref[q].variance) ==
                    std::bit_cast<std::uint64_t>(opt[q].variance);
    checksum = fnv1a(checksum, opt[q].mean);
    checksum = fnv1a(checksum, opt[q].variance);
  }
  KernelReport report{"tracked_posterior", count};
  report.bit_identical = identical;
  report.checksum = checksum;
  if (timed) {
    report.reference_ns = time_per_call_ns(reference);
    report.optimized_ns = time_per_call_ns(optimized);
  }
  return report;
}

// --- fleet slot latency -----------------------------------------------------

/// Compact clone of fig11_fleet's fleet builder (hot/normal/lull thirds over
/// the Nexmark-style suite minus WordCount) so the slot-latency entry steps
/// the same kind of fleet the figure does.
std::vector<fleet::JobSpec> make_speed_fleet(std::size_t n) {
  std::vector<workloads::WorkloadSpec> suite = workloads::nexmark_suite();
  suite.pop_back();  // WordCount last in suite order
  std::vector<fleet::JobSpec> specs;
  specs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    fleet::JobSpec spec;
    spec.name = "job-" + std::to_string(i);
    spec.workload = suite[i % suite.size()];
    if (i % 3 == 0)
      for (auto& [src, rate] : spec.workload.low_rate) rate *= 1.5;
    if (i % 3 == 2)
      for (auto& [src, rate] : spec.workload.low_rate) rate *= 0.35;
    spec.high_rate = false;
    spec.controller = "Dragster";
    spec.slo.max_latency_s = 30.0;
    spec.engine.slot_duration_s = 60.0;
    spec.engine.sample_interval_s = 60.0;
    specs.push_back(std::move(spec));
  }
  return specs;
}

std::uint64_t checksum_fleet(const fleet::FleetResult& result) {
  std::uint64_t hash = kFnvOffset;
  hash = fnv1a(hash, result.total_tuples);
  hash = fnv1a(hash, result.total_cost);
  hash = fnv1a(hash, static_cast<std::uint64_t>(result.total_slo_misses));
  hash = fnv1a(hash, static_cast<std::uint64_t>(result.admissions));
  hash = fnv1a(hash, static_cast<std::uint64_t>(result.rejections));
  hash = fnv1a(hash, static_cast<std::uint64_t>(result.evictions));
  hash = fnv1a(hash, static_cast<std::uint64_t>(result.limits_respected ? 1 : 0));
  for (const fleet::FleetSlot& slot : result.slots) {
    hash = fnv1a(hash, static_cast<std::uint64_t>(slot.total_pods));
    hash = fnv1a(hash, static_cast<std::uint64_t>(slot.slo_misses));
    hash = fnv1a(hash, slot.tuples);
    hash = fnv1a(hash, slot.throughput);
  }
  return hash;
}

struct FleetReport {
  std::size_t jobs = 0;
  std::size_t slots = 0;
  std::size_t threads = 0;  ///< lanes in the parallel arm
  double serial_ms_per_slot = 0.0;
  double parallel_ms_per_slot = 0.0;
  bool deterministic = false;  ///< serial and parallel results byte-identical
  std::uint64_t checksum = 0;
};

struct FleetTimed {
  double ms_per_slot = 0.0;
  std::uint64_t checksum = 0;
};

FleetTimed run_fleet_once(std::size_t jobs, std::size_t slots, std::uint64_t seed) {
  using clock = std::chrono::steady_clock;  // bench-only timing
  std::vector<fleet::JobSpec> specs = make_speed_fleet(jobs);
  fleet::FleetOptions options;
  options.slots = slots;
  long long floors = 0;
  for (const fleet::JobSpec& spec : specs) floors += spec.floor_pods();
  options.budget_pods =
      static_cast<int>(floors + (7 * static_cast<long long>(specs.size())) / 4);
  options.arbiter.mode = fleet::ArbiterMode::kPressure;
  options.limits.max_total_pods = options.budget_pods;
  options.seed = seed;
  fleet::FleetScheduler scheduler(std::move(specs), options, nullptr);
  // The admission slot constructs every bundle and is serial by design; time
  // the steady-state slots after it, which is where the pool fans out.
  scheduler.step();
  const auto begin = clock::now();  // bench-only timing
  for (std::size_t t = 1; t < slots; ++t) scheduler.step();
  const auto end = clock::now();  // bench-only timing
  FleetTimed timed;
  timed.ms_per_slot = std::chrono::duration<double, std::milli>(end - begin).count() /
                      static_cast<double>(slots - 1);
  timed.checksum = checksum_fleet(scheduler.finish());
  return timed;
}

/// Steps the same fleet twice — pool pinned serial, then at `threads` lanes —
/// and reports both per-slot latencies plus the byte-level determinism
/// verdict (the two FleetResult checksums must agree).
FleetReport bench_fleet_slot(std::size_t jobs, std::size_t slots, std::size_t threads,
                             std::uint64_t seed) {
  FleetReport report;
  report.jobs = jobs;
  report.slots = slots;
  report.threads = threads;
  parallel::TaskPool::set_global_threads(1);
  const FleetTimed serial = run_fleet_once(jobs, slots, seed);
  parallel::TaskPool::set_global_threads(threads);
  const FleetTimed parallel_arm = run_fleet_once(jobs, slots, seed);
  parallel::TaskPool::set_global_threads(0);
  report.serial_ms_per_slot = serial.ms_per_slot;
  report.parallel_ms_per_slot = parallel_arm.ms_per_slot;
  report.deterministic = serial.checksum == parallel_arm.checksum;
  report.checksum = serial.checksum;
  return report;
}

double safe_speedup(double reference, double optimized) {
  return optimized > 0.0 ? reference / optimized : 0.0;
}

int speed_harness(const common::Flags& flags) {
  const std::string json_path = flags.get("json", std::string());
  const std::string checks_path = flags.get("checks", std::string());
  const auto fleet_jobs = static_cast<std::size_t>(flags.get("fleet-jobs", std::int64_t{1000}));
  const auto fleet_slots = static_cast<std::size_t>(flags.get("fleet-slots", std::int64_t{4}));
  const auto seed = static_cast<std::uint64_t>(flags.get("seed", std::int64_t{7}));
  bench::configure_threads(flags);
  const bool timed = !json_path.empty();

  bench::print_header("micro_kernels speed harness", seed);
  std::vector<KernelReport> kernels;
  kernels.push_back(bench_kernel_row(timed));
  kernels.push_back(bench_solve_lower_multi(timed));
  kernels.push_back(bench_predict_batch(timed));
  kernels.push_back(bench_acquisition_argmax(timed));
  kernels.push_back(bench_lagrangian_value(timed));
  kernels.push_back(bench_tracked_posterior(timed));

  common::Table table({"kernel", "work", "reference ns", "optimized ns", "speedup", "bits"});
  bool all_identical = true;
  for (const KernelReport& k : kernels) {
    all_identical = all_identical && k.bit_identical;
    table.add_row({k.name, std::to_string(k.work),
                   timed ? common::Table::num(k.reference_ns, 1) : "-",
                   timed ? common::Table::num(k.optimized_ns, 1) : "-",
                   timed ? common::Table::num(safe_speedup(k.reference_ns, k.optimized_ns), 2)
                         : "-",
                   k.bit_identical ? "identical" : "MISMATCH"});
  }
  std::printf("%s\n", table.to_string().c_str());

  FleetReport fleet;
  if (fleet_jobs > 0) {
    const std::size_t lanes = std::max<std::size_t>(2, parallel::TaskPool::hardware_threads(8));
    fleet = bench_fleet_slot(fleet_jobs, fleet_slots, lanes, seed);
    std::printf(
        "fleet slot: %zu jobs, %zu slots — serial %.1f ms/slot, %zu-lane %.1f "
        "ms/slot, deterministic: %s\n\n",
        fleet.jobs, fleet.slots, fleet.serial_ms_per_slot, fleet.threads,
        fleet.parallel_ms_per_slot, fleet.deterministic ? "yes" : "NO");
    all_identical = all_identical && fleet.deterministic;
  }

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << "{\n  \"bench\": \"micro_kernels_speed\",\n";
    out << "  \"seed\": " << seed << ",\n";
    out << "  \"hardware\": {\"hardware_threads\": " << std::thread::hardware_concurrency()
        << ", \"kernel_simd\": \"" << DRAGSTER_KERNEL_SIMD_NAME << "\"},\n";
    out << "  \"kernels\": [\n";
    char buffer[64];
    for (std::size_t i = 0; i < kernels.size(); ++i) {
      const KernelReport& k = kernels[i];
      out << "    {\"name\": \"" << k.name << "\", \"work\": " << k.work;
      std::snprintf(buffer, sizeof(buffer), "%.1f", k.reference_ns);
      out << ", \"reference_ns\": " << buffer;
      std::snprintf(buffer, sizeof(buffer), "%.1f", k.optimized_ns);
      out << ", \"optimized_ns\": " << buffer;
      std::snprintf(buffer, sizeof(buffer), "%.2f",
                    safe_speedup(k.reference_ns, k.optimized_ns));
      out << ", \"speedup\": " << buffer;
      out << ", \"bit_identical\": " << (k.bit_identical ? "true" : "false");
      out << ", \"checksum\": \"" << hex64(k.checksum) << "\"}"
          << (i + 1 < kernels.size() ? "," : "") << "\n";
    }
    out << "  ],\n";
    out << "  \"fleet\": {\"jobs\": " << fleet.jobs << ", \"slots\": " << fleet.slots
        << ", \"threads\": " << fleet.threads;
    std::snprintf(buffer, sizeof(buffer), "%.1f", fleet.serial_ms_per_slot);
    out << ", \"serial_ms_per_slot\": " << buffer;
    std::snprintf(buffer, sizeof(buffer), "%.1f", fleet.parallel_ms_per_slot);
    out << ", \"parallel_ms_per_slot\": " << buffer;
    std::snprintf(buffer, sizeof(buffer), "%.2f",
                  safe_speedup(fleet.serial_ms_per_slot, fleet.parallel_ms_per_slot));
    out << ", \"speedup\": " << buffer;
    out << ", \"deterministic\": " << (fleet.deterministic ? "true" : "false");
    out << ", \"checksum\": \"" << hex64(fleet.checksum) << "\"}\n}\n";
    std::printf("speed report written to %s\n", json_path.c_str());
  }

  if (!checks_path.empty()) {
    // Timing-free: only computed-result checksums, so two runs at different
    // --threads must produce byte-identical files (the CI cmp gate).
    std::ofstream out(checks_path);
    out << "{\n  \"bench\": \"micro_kernels_checks\",\n";
    out << "  \"seed\": " << seed << ",\n  \"kernels\": [\n";
    for (std::size_t i = 0; i < kernels.size(); ++i) {
      const KernelReport& k = kernels[i];
      out << "    {\"name\": \"" << k.name << "\", \"bit_identical\": "
          << (k.bit_identical ? "true" : "false") << ", \"checksum\": \"" << hex64(k.checksum)
          << "\"}" << (i + 1 < kernels.size() ? "," : "") << "\n";
    }
    out << "  ],\n";
    out << "  \"fleet\": {\"jobs\": " << fleet.jobs << ", \"slots\": " << fleet.slots
        << ", \"deterministic\": " << (fleet.deterministic ? "true" : "false")
        << ", \"checksum\": \"" << hex64(fleet.checksum) << "\"}\n}\n";
    std::printf("checksums written to %s\n", checks_path.c_str());
  }

  std::printf("reference and optimized kernels bit-identical: %s\n",
              all_identical ? "PASS" : "FAIL");
  return all_identical ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  bool harness = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg(argv[i]);
    if (arg.rfind("--json", 0) == 0 || arg.rfind("--checks", 0) == 0) harness = true;
  }
  if (harness) {
    const common::Flags flags(argc, argv);
    return speed_harness(flags);
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
