// Differential oracles: each fast path is run against the slow reference it
// replaced on seeded random DAGs and inputs, and the two must agree bit for
// bit (compared as uint64 bit patterns, so NaN == NaN and -0.0 != +0.0).
//
//  * ThroughputFn::eval vs eval_var(...).value (the tape);
//  * FlowSolver::lagrangian_value vs lagrangian(...).value (the tape);
//  * FlowSolver::solve vs a test-local copy of the stand-alone walk it
//    replaced (std::min, unclamped infinite capacity) on finite inputs;
//  * SaddlePointSolver::solve vs a test-local copy of the coordinate search
//    that evaluates its objective through the taped lagrangian;
//  * GaussianProcess with tracked query points (cached O(n) posterior,
//    extend_solved, incremental z) vs the same GP with nothing tracked;
//  * Cholesky::extend_solved vs extend, and solve vs a test-local copy of the
//    dense forward/back substitution it replaced.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "autodiff/tape.hpp"
#include "common/rng.hpp"
#include "dag/flow_solver.hpp"
#include "dag/throughput_fn.hpp"
#include "gp/gaussian_process.hpp"
#include "gp/kernel.hpp"
#include "linalg/cholesky.hpp"
#include "online/saddle_point.hpp"
#include "resilience/snapshot.hpp"
#include "random_dag.hpp"

namespace dragster {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// The taped value of `fn` on constant inputs.
double taped_eval(const dag::ThroughputFn& fn, const std::vector<double>& inputs) {
  autodiff::Tape tape;
  std::vector<autodiff::Var> vars;
  for (double v : inputs) vars.push_back(tape.constant(v));
  return fn.eval_var(tape, vars).value();
}

TEST(ValueRules, MinMaxValueFollowTheTapeOnTiesAndNaN) {
  const double cases[][2] = {{1.0, 2.0}, {2.0, 1.0},   {0.0, -0.0},  {-0.0, 0.0},
                             {kNaN, 1.0}, {1.0, kNaN}, {kInf, 1e18}, {kNaN, kNaN}};
  for (const auto& c : cases) {
    autodiff::Tape tape;
    const autodiff::Var a = tape.constant(c[0]);
    const autodiff::Var b = tape.constant(c[1]);
    EXPECT_EQ(bits(autodiff::min(c[0], c[1])), bits(autodiff::min(a, b).value()));
    EXPECT_EQ(bits(autodiff::max(c[0], c[1])), bits(autodiff::max(a, b).value()));
  }
  // The rule the value path must NOT use: std::min keeps the first operand
  // when the second is NaN, the tape propagates the NaN.
  EXPECT_FALSE(std::isnan(std::min(1.0, kNaN)));
  EXPECT_TRUE(std::isnan(autodiff::min(1.0, kNaN)));
}

TEST(ValueRules, EvalMatchesEvalVarForEveryForm) {
  const dag::LinearFn linear({0.5, 2.0});
  const dag::MinWeightedFn min_weighted({2.0, 0.5});
  const dag::TanhFn tanh_fn(100.0, {0.01, 0.02});
  const dag::CustomFn custom(2, [](autodiff::Tape& tape, std::span<const autodiff::Var> e) {
    return tape.sqrt(e[0]) + e[1];
  });
  const std::vector<std::vector<double>> inputs = {
      {10.0, 20.0}, {0.0, 0.0}, {kNaN, 5.0}, {5.0, kNaN}, {kInf, 1.0}, {1.0, kInf}};
  for (const dag::ThroughputFn* fn :
       std::vector<const dag::ThroughputFn*>{&linear, &min_weighted, &tanh_fn, &custom}) {
    for (const auto& in : inputs) {
      if (fn == &custom && std::isnan(in[0])) continue;  // sqrt(NaN) is rejected on the tape
      SCOPED_TRACE(fn->name());
      EXPECT_EQ(bits(fn->eval(in)), bits(taped_eval(*fn, in)));
    }
  }
  // MinWeightedFn::eval follows the tape's min rule: a NaN operand wins.
  EXPECT_TRUE(std::isnan(min_weighted.eval(std::vector{5.0, kNaN})));
}

TEST(LagrangianValue, BitIdenticalToTheTapeOnRandomDags) {
  common::Rng rng(20261017);
  std::size_t cases = 0;
  std::size_t nan_values = 0;
  std::size_t with_inf_capacity = 0;
  for (int d = 0; d < 300; ++d) {
    const dag::StreamDag graph = testing::random_dag(rng);
    const dag::FlowSolver flow(graph);
    dag::FlowSolver::Scratch scratch;  // reused across draws, as the saddle solve does
    for (int draw = 0; draw < 10; ++draw) {
      const testing::PlannerInputs in = testing::random_inputs(rng, graph);
      const double taped =
          flow.lagrangian(in.source_rates, in.capacity, in.lambda, in.observed_demand).value;
      const double value = flow.lagrangian_value(in.source_rates, in.capacity, in.lambda,
                                                 in.observed_demand, scratch);
      ASSERT_EQ(bits(value), bits(taped))
          << "dag " << d << " draw " << draw << ": value " << value << " taped " << taped;
      ++cases;
      if (std::isnan(value)) ++nan_values;
      for (dag::NodeId id : graph.operators())
        if (std::isinf(in.capacity[id])) {
          ++with_inf_capacity;
          break;
        }
    }
  }
  EXPECT_EQ(cases, 3000u);
  // The draws really reach the edge cases the comparison is about.
  EXPECT_GT(nan_values, 100u);
  EXPECT_GT(with_inf_capacity, 500u);
}

TEST(LagrangianValue, ScratchCarriesNoStateBetweenDags) {
  common::Rng rng(7);
  const dag::StreamDag big = testing::random_dag(rng, 12);
  const dag::StreamDag small = testing::random_dag(rng, 2);
  const testing::PlannerInputs big_in = testing::random_inputs(rng, big);
  const testing::PlannerInputs small_in = testing::random_inputs(rng, small);
  const dag::FlowSolver big_flow(big);
  const dag::FlowSolver small_flow(small);
  dag::FlowSolver::Scratch shared;
  dag::FlowSolver::Scratch fresh;
  (void)big_flow.lagrangian_value(big_in.source_rates, big_in.capacity, big_in.lambda,
                                  big_in.observed_demand, shared);
  EXPECT_EQ(bits(small_flow.lagrangian_value(small_in.source_rates, small_in.capacity,
                                             small_in.lambda, small_in.observed_demand, shared)),
            bits(small_flow.lagrangian_value(small_in.source_rates, small_in.capacity,
                                             small_in.lambda, small_in.observed_demand, fresh)));
}

/// FlowSolver::solve as it was before the walk was shared with the tape:
/// std::min truncation, infinite capacity left unclamped, and source edges
/// truncated at alpha * infinity.
dag::FlowResult reference_flow(const dag::StreamDag& graph, std::span<const double> source_rates,
                               std::span<const double> capacity) {
  const std::size_t n = graph.node_count();
  dag::FlowResult result;
  result.edge_flow.assign(graph.edge_count(), 0.0);
  result.node_inflow.assign(n, 0.0);
  result.node_demand.assign(n, 0.0);
  result.node_outflow.assign(n, 0.0);
  for (dag::NodeId id : graph.topo_order()) {
    const dag::Component& comp = graph.component(id);
    if (comp.kind == dag::ComponentKind::kSink) {
      for (std::size_t eidx : graph.in_edges(id)) result.node_inflow[id] += result.edge_flow[eidx];
      continue;
    }
    std::vector<double> inputs;
    if (comp.kind == dag::ComponentKind::kSource) {
      inputs.push_back(source_rates[id]);
    } else {
      for (std::size_t eidx : graph.in_edges(id)) inputs.push_back(result.edge_flow[eidx]);
      for (double v : inputs) result.node_inflow[id] += v;
    }
    const double y = comp.kind == dag::ComponentKind::kOperator ? capacity[id] : kInf;
    for (std::size_t eidx : graph.out_edges(id)) {
      const dag::Edge& edge = graph.edge(eidx);
      const double demand = edge.fn->eval(inputs);
      result.node_demand[id] += demand;
      const double flow = std::min(edge.alpha * y, demand);
      result.edge_flow[eidx] = flow;
      result.node_outflow[id] += flow;
    }
  }
  result.app_throughput = result.node_inflow[graph.sink()];
  return result;
}

/// The old walk computed alpha * infinity on source edges, which is NaN for
/// alpha == 0 where the shared walk passes the demand through.
bool has_zero_alpha_source_edge(const dag::StreamDag& graph) {
  for (dag::NodeId id : graph.sources())
    for (std::size_t eidx : graph.out_edges(id))
      if (graph.edge(eidx).alpha == 0.0) return true;
  return false;
}

void expect_same_bits(const std::vector<double>& a, const std::vector<double>& b,
                      const char* field) {
  ASSERT_EQ(a.size(), b.size()) << field;
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_EQ(bits(a[i]), bits(b[i])) << field << "[" << i << "]: " << a[i] << " vs " << b[i];
}

TEST(FlowSolveDifferential, SolveMatchesTheStandaloneWalkOnFiniteInputs) {
  common::Rng rng(5150);
  std::size_t compared = 0;
  for (int d = 0; d < 300; ++d) {
    const dag::StreamDag graph = testing::random_dag(rng);
    if (has_zero_alpha_source_edge(graph)) continue;
    const dag::FlowSolver flow(graph);
    for (int draw = 0; draw < 5; ++draw) {
      // Finite, non-NaN rates and capacities, zeros included: the domain
      // where the clamp and the min rule cannot tell the two walks apart.
      const std::size_t n = graph.node_count();
      std::vector<double> rates(n, kNaN);
      std::vector<double> capacity(n, kNaN);
      for (dag::NodeId id : graph.sources())
        rates[id] = rng.bernoulli(0.15) ? 0.0 : rng.uniform(0.0, 1e5);
      for (dag::NodeId id : graph.operators())
        capacity[id] = rng.bernoulli(0.1) ? 0.0 : rng.uniform(0.0, 2e5);

      SCOPED_TRACE("dag " + std::to_string(d) + " draw " + std::to_string(draw));
      const dag::FlowResult fast = flow.solve(rates, capacity);
      const dag::FlowResult slow = reference_flow(graph, rates, capacity);
      expect_same_bits(fast.edge_flow, slow.edge_flow, "edge_flow");
      expect_same_bits(fast.node_inflow, slow.node_inflow, "node_inflow");
      expect_same_bits(fast.node_demand, slow.node_demand, "node_demand");
      expect_same_bits(fast.node_outflow, slow.node_outflow, "node_outflow");
      EXPECT_EQ(bits(fast.app_throughput), bits(slow.app_throughput));
      EXPECT_EQ(bits(flow.app_throughput(rates, capacity)), bits(slow.app_throughput));
      ++compared;
    }
  }
  EXPECT_GT(compared, 1000u);
}

TEST(FlowSolveDifferential, ValuePathsMatchTheTapeOnEveryInput) {
  // solve(), app_throughput() and the taped sensitivity() share one walk, so
  // they agree bit for bit on every draw, NaN and infinity included.
  common::Rng rng(8128);
  for (int d = 0; d < 200; ++d) {
    const dag::StreamDag graph = testing::random_dag(rng);
    const dag::FlowSolver flow(graph);
    for (int draw = 0; draw < 5; ++draw) {
      const testing::PlannerInputs in = testing::random_inputs(rng, graph);
      const dag::Sensitivity taped = flow.sensitivity(in.source_rates, in.capacity);
      const dag::FlowResult solved = flow.solve(in.source_rates, in.capacity);
      ASSERT_EQ(bits(solved.app_throughput), bits(taped.throughput)) << "dag " << d;
      ASSERT_EQ(bits(flow.app_throughput(in.source_rates, in.capacity)), bits(taped.throughput));
      for (dag::NodeId id : graph.operators()) {
        double constraint = solved.node_demand[id] - in.capacity[id];
        if (!std::isfinite(constraint)) constraint = -1e18;
        ASSERT_EQ(bits(constraint), bits(taped.constraint[id])) << "dag " << d << " node " << id;
      }
    }
  }
}

/// SaddlePointSolver::solve as it was before the value-only objective: the
/// same floored multipliers, clamped start and coordinate ternary search, with
/// every objective evaluation recorded on a tape.
std::vector<double> reference_solve(const online::SaddlePointOptions& options,
                                    const dag::FlowSolver& flow,
                                    std::span<const double> source_rates,
                                    std::span<const double> lambda,
                                    std::span<const double> y_start,
                                    std::span<const double> observed_demand) {
  const dag::StreamDag& graph = flow.dag();
  const std::size_t n = graph.node_count();
  auto is_op = [&](dag::NodeId id) {
    return graph.component(id).kind == dag::ComponentKind::kOperator;
  };
  std::vector<double> lam(n, 0.0);
  for (dag::NodeId id = 0; id < n; ++id)
    if (is_op(id)) lam[id] = std::max(lambda[id], options.lambda_floor);
  std::vector<double> y(y_start.begin(), y_start.end());
  for (dag::NodeId id = 0; id < n; ++id)
    if (is_op(id)) y[id] = std::clamp(y[id], options.y_min, options.y_max);

  auto objective = [&](const std::vector<double>& cap) {
    double value = flow.lagrangian(source_rates, cap, lam, observed_demand).value;
    for (dag::NodeId id = 0; id < n; ++id)
      if (is_op(id)) value -= options.capacity_regularization * cap[id];
    return value;
  };
  for (int round = 0; round < options.rounds; ++round) {
    double moved = 0.0;
    for (dag::NodeId id : graph.topo_order()) {
      if (!is_op(id)) continue;
      double lo = options.y_min;
      double hi = options.y_max;
      for (int it = 0; it < options.ternary_iterations && hi - lo > 1e-9 * options.y_max; ++it) {
        const double m1 = lo + (hi - lo) / 3.0;
        const double m2 = hi - (hi - lo) / 3.0;
        y[id] = m1;
        const double v1 = objective(y);
        y[id] = m2;
        const double v2 = objective(y);
        if (v1 > v2) {
          hi = m2;
        } else {
          lo = m1;
        }
      }
      const double candidate = 0.5 * (lo + hi);
      moved = std::max(moved, std::abs(candidate - y[id]));
      y[id] = candidate;
    }
    if (moved < 1e-6 * options.y_max) break;
  }
  return y;
}

TEST(SaddlePointDifferential, SolveIsBitIdenticalToTheTapedReference) {
  common::Rng rng(424242);
  online::SaddlePointOptions options;
  options.y_max = 3e5;
  options.rounds = 4;
  options.ternary_iterations = 24;
  const online::SaddlePointSolver solver(options);
  for (int d = 0; d < 40; ++d) {
    const dag::StreamDag graph = testing::random_dag(rng, 6);
    const dag::FlowSolver flow(graph);
    for (int draw = 0; draw < 3; ++draw) {
      const testing::PlannerInputs in = testing::random_inputs(rng, graph);
      std::vector<double> y_start(graph.node_count(), kNaN);
      for (dag::NodeId id : graph.operators()) y_start[id] = rng.uniform(0.0, 4e5);
      const std::vector<double> fast =
          solver.solve(flow, in.source_rates, in.lambda, y_start, in.observed_demand);
      const std::vector<double> slow = reference_solve(options, flow, in.source_rates, in.lambda,
                                                       y_start, in.observed_demand);
      ASSERT_EQ(fast.size(), slow.size());
      for (std::size_t i = 0; i < fast.size(); ++i)
        ASSERT_EQ(bits(fast[i]), bits(slow[i]))
            << "dag " << d << " draw " << draw << " node " << i;
    }
  }
}

// ---------------------------------------------------------------------------
// GP fast path: tracked grid points vs the untracked reference.
// ---------------------------------------------------------------------------

struct GpSetup {
  bool matern = false;
  std::size_t dim = 1;
  double noise = 0.0064;
};

gp::GaussianProcess make_gp(const GpSetup& setup) {
  std::vector<double> lengthscales{2.5};
  if (setup.dim == 2) lengthscales.push_back(0.75);
  std::unique_ptr<gp::Kernel> kernel;
  if (setup.matern)
    kernel = std::make_unique<gp::Matern52Kernel>(2.25, lengthscales);
  else
    kernel = std::make_unique<gp::SquaredExponentialKernel>(2.25, lengthscales);
  return gp::GaussianProcess(std::move(kernel), setup.noise, 1.0);
}

/// The controller's configuration grid: tasks 1..10, times cpu options in 2-D.
std::vector<double> config_grid(std::size_t dim) {
  std::vector<double> xs;
  for (double cpu : dim == 2 ? std::vector<double>{0.5, 1.0, 2.0} : std::vector<double>{0.0})
    for (int tasks = 1; tasks <= 10; ++tasks) {
      xs.push_back(static_cast<double>(tasks));
      if (dim == 2) xs.push_back(cpu);
    }
  return xs;
}

/// Corner queries the tracked lookup must tell apart by bit pattern: NaN,
/// both signed zeros and an off-grid point.
std::vector<double> corner_points(std::size_t dim) {
  if (dim == 1) return {kNaN, -0.0, 0.0, 3.5};
  return {kNaN, 1.0, -0.0, 1.0, 0.0, 1.0, 3.0, -0.0, 3.0, 0.0, 3.5, 1.5};
}

void expect_same_vector(std::span<const double> fast, std::span<const double> ref,
                        const std::string& what) {
  ASSERT_EQ(fast.size(), ref.size()) << what;
  for (std::size_t i = 0; i < fast.size(); ++i)
    ASSERT_EQ(bits(fast[i]), bits(ref[i])) << what << " [" << i << "]";
}

/// Factor, z, alpha and the posterior at every query (predict and
/// predict_batch) must match bit for bit.
void expect_same_gp(const gp::GaussianProcess& fast, const gp::GaussianProcess& ref,
                    std::span<const double> queries, const std::string& where) {
  SCOPED_TRACE(where);
  ASSERT_EQ(fast.num_observations(), ref.num_observations());
  ASSERT_EQ(fast.cholesky() == nullptr, ref.cholesky() == nullptr);
  if (ref.cholesky() != nullptr)
    expect_same_vector(fast.cholesky()->packed(), ref.cholesky()->packed(), "factor");
  expect_same_vector(fast.whitened_targets(), ref.whitened_targets(), "z");
  expect_same_vector(fast.alpha(), ref.alpha(), "alpha");

  const std::size_t d = fast.kernel().dimension();
  const std::size_t count = queries.size() / d;
  std::vector<gp::Posterior> fast_batch(count);
  std::vector<gp::Posterior> ref_batch(count);
  fast.predict_batch(queries, count, fast_batch);
  ref.predict_batch(queries, count, ref_batch);
  for (std::size_t q = 0; q < count; ++q) {
    const gp::Posterior fast_one = fast.predict(queries.subspan(q * d, d));
    const gp::Posterior ref_one = ref.predict(queries.subspan(q * d, d));
    ASSERT_EQ(bits(fast_one.mean), bits(ref_one.mean)) << "query " << q;
    ASSERT_EQ(bits(fast_one.variance), bits(ref_one.variance)) << "query " << q;
    ASSERT_EQ(bits(fast_batch[q].mean), bits(ref_one.mean)) << "batch query " << q;
    ASSERT_EQ(bits(fast_batch[q].variance), bits(ref_one.variance)) << "batch query " << q;
    ASSERT_EQ(bits(ref_batch[q].mean), bits(ref_one.mean)) << "reference batch " << q;
  }
}

/// Draws the next observation: usually a grid point (the controller's
/// case, so extend_solved runs), sometimes an off-grid one.
std::vector<double> draw_input(common::Rng& rng, std::size_t dim) {
  std::vector<double> x{static_cast<double>(rng.uniform_int(1, 10))};
  if (rng.uniform() < 0.15) x[0] += 0.25;
  constexpr double kCpu[] = {0.5, 1.0, 2.0};
  if (dim == 2) x.push_back(kCpu[rng.uniform_int(0, 2)]);
  return x;
}

TEST(GpTrackedDifferential, SeededSequencesMatchTheUntrackedGp) {
  const GpSetup setups[] = {{false, 1}, {true, 1}, {false, 2}, {true, 2}};
  std::uint64_t seed = 9100;
  for (const GpSetup& setup : setups) {
    for (int run = 0; run < 3; ++run) {
      common::Rng rng(++seed);
      const std::vector<double> grid = config_grid(setup.dim);
      const std::vector<double> corners = corner_points(setup.dim);
      std::vector<double> queries = grid;
      queries.insert(queries.end(), corners.begin(), corners.end());
      const std::size_t d = setup.dim;

      gp::GaussianProcess ref = make_gp(setup);
      gp::GaussianProcess early = make_gp(setup);  // tracks before any observation
      gp::GaussianProcess late = make_gp(setup);   // tracks after the 50th
      early.track(grid, grid.size() / d);
      early.track(corners, corners.size() / d);
      early.track(grid, grid.size() / d);  // idempotent
      std::unique_ptr<gp::GaussianProcess> copied;
      gp::GaussianProcess assigned = make_gp(setup);

      for (int step = 1; step <= 120; ++step) {
        const std::vector<double> x = draw_input(rng, d);
        const double y = rng.normal(1.0, 0.2);
        ref.add_observation(x, y);
        early.add_observation(x, y);
        late.add_observation(x, y);
        if (copied) copied->add_observation(x, y);
        if (step > 70) assigned.add_observation(x, y);

        if (step == 50) late.track(grid, grid.size() / d);
        if (step == 30) copied = std::make_unique<gp::GaussianProcess>(early);
        if (step == 70) assigned = early;
        if (step == 90) {
          ref.reset();
          early.reset();
          late.reset();
          copied->reset();
          assigned.reset();
          expect_same_gp(early, ref, queries, "after reset");
        }
        if (step % 10 == 0 || step < 4) {
          const std::string where = "seed " + std::to_string(seed) + " step " + std::to_string(step);
          expect_same_gp(early, ref, queries, where + " early");
          expect_same_gp(late, ref, queries, where + " late");
          if (copied) expect_same_gp(*copied, ref, queries, where + " copy");
          if (step >= 70) expect_same_gp(assigned, ref, queries, where + " assigned");
        }
      }

      // A snapshot of the reference restored into a GP that tracks points
      // before the load: the one-pass restore extends the tracked columns.
      resilience::SnapshotWriter writer;
      writer.begin_section("gp");
      ref.save_state(writer);
      gp::GaussianProcess restored = make_gp(setup);
      restored.track(grid, grid.size() / d);
      resilience::SnapshotReader reader(writer.str());
      reader.enter_section("gp");
      restored.load_state(reader);
      expect_same_gp(restored, ref, queries, "restored");
    }
  }
}

TEST(GpTrackedDifferential, RepeatedInputsThroughTheJitterBranch) {
  // A noise variance far below the signal's ulp makes every repeat of an
  // input a zero pivot, so Cholesky's escalating jitter guards each extend.
  const GpSetup setup{false, 1, 1e-300};
  const std::vector<double> grid = config_grid(1);
  gp::GaussianProcess ref = make_gp(setup);
  gp::GaussianProcess fast = make_gp(setup);
  fast.track(grid, grid.size());
  const double inputs[] = {3.0, 3.0, 7.0, 3.0, 7.0, 7.0};
  for (double x : inputs) {
    ref.add_observation({x}, 1.0 + 0.01 * x);
    fast.add_observation({x}, 1.0 + 0.01 * x);
    expect_same_gp(fast, ref, grid, "x=" + std::to_string(x));
  }
  // The jitter branch really ran: some pivot is far below sqrt(signal).
  const linalg::Cholesky& chol = *ref.cholesky();
  double smallest = kInf;
  for (std::size_t i = 0; i < chol.size(); ++i) smallest = std::min(smallest, chol.row(i)[i]);
  EXPECT_LT(smallest, 1e-3);
}

// ---------------------------------------------------------------------------
// Cholesky: the packed factor's fast entry points vs their references.
// ---------------------------------------------------------------------------

linalg::Matrix random_spd(common::Rng& rng, std::size_t n) {
  linalg::Matrix b(n, n);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < n; ++c) b(r, c) = rng.normal();
  linalg::Matrix a = b * b.transposed();
  for (std::size_t i = 0; i < n; ++i) a(i, i) += 0.5;
  return a;
}

/// The dense solve the packed factor replaced: forward then back
/// substitution over the n x n factor.
linalg::Vector dense_solve(const linalg::Matrix& l, const linalg::Vector& b) {
  const std::size_t n = l.rows();
  linalg::Vector z(n);
  for (std::size_t i = 0; i < n; ++i) {
    double value = b[i];
    for (std::size_t k = 0; k < i; ++k) value -= l(i, k) * z[k];
    z[i] = value / l(i, i);
  }
  linalg::Vector x(n);
  for (std::size_t ii = n; ii-- > 0;) {
    double value = z[ii];
    for (std::size_t k = ii + 1; k < n; ++k) value -= l(k, ii) * x[k];
    x[ii] = value / l(ii, ii);
  }
  return x;
}

TEST(CholeskyDifferential, ExtendSolvedAndSolveMatchTheirReferences) {
  common::Rng rng(777);
  for (int trial = 0; trial < 30; ++trial) {
    const std::size_t n = 2 + static_cast<std::size_t>(trial) % 12;
    const linalg::Matrix a = random_spd(rng, n + 1);
    linalg::Matrix lead(n, n);
    for (std::size_t r = 0; r < n; ++r)
      for (std::size_t c = 0; c < n; ++c) lead(r, c) = a(r, c);
    linalg::Vector col(n);
    for (std::size_t r = 0; r < n; ++r) col[r] = a(r, n);

    linalg::Cholesky by_extend(lead);
    linalg::Cholesky by_solved(lead);
    by_extend.extend(col, a(n, n));
    const linalg::Vector r = by_solved.solve_lower(col);
    by_solved.extend_solved(r, linalg::dot(r, r), a(n, n));
    expect_same_vector(by_solved.packed(), by_extend.packed(), "trial " + std::to_string(trial));

    linalg::Vector b(n + 1);
    for (double& v : b) v = rng.uniform(-2.0, 2.0);
    expect_same_vector(by_extend.solve(b), dense_solve(by_extend.factor(), b),
                       "solve, trial " + std::to_string(trial));
    expect_same_vector(by_extend.solve(b), by_extend.solve_upper(by_extend.solve_lower(b)),
                       "solve_upper(solve_lower), trial " + std::to_string(trial));
  }
}

}  // namespace
}  // namespace dragster
