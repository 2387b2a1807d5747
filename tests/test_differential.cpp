// Differential oracles: each fast path is run against the slow reference it
// replaced on seeded random DAGs and inputs, and the two must agree bit for
// bit (compared as uint64 bit patterns, so NaN == NaN and -0.0 != +0.0).
//
//  * FlowSolver::lagrangian_value vs lagrangian(...).value (the tape);
//  * SaddlePointSolver::solve vs a test-local copy of the coordinate search
//    that evaluates its objective through the taped lagrangian.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "autodiff/tape.hpp"
#include "common/rng.hpp"
#include "dag/flow_solver.hpp"
#include "dag/throughput_fn.hpp"
#include "online/saddle_point.hpp"
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
    EXPECT_EQ(bits(autodiff::min_value(c[0], c[1])), bits(autodiff::min(a, b).value()));
    EXPECT_EQ(bits(autodiff::max_value(c[0], c[1])), bits(autodiff::max(a, b).value()));
  }
  // The rule the value path must NOT use: std::min keeps the first operand
  // when the second is NaN, the tape propagates the NaN.
  EXPECT_FALSE(std::isnan(std::min(1.0, kNaN)));
  EXPECT_TRUE(std::isnan(autodiff::min_value(1.0, kNaN)));
}

TEST(ValueRules, EvalAsTapedMatchesEvalVarForEveryForm) {
  const dag::LinearFn linear({0.5, 2.0});
  const dag::MinWeightedFn min_weighted({2.0, 0.5});
  const dag::TanhFn tanh_fn(100.0, {0.01, 0.02});
  const dag::CustomFn custom(
      2, [](std::span<const double> e) { return std::sqrt(e[0]) + e[1]; },
      [](autodiff::Tape& tape, std::span<const autodiff::Var> e) {
        return tape.sqrt(e[0]) + e[1];
      });
  const std::vector<std::vector<double>> inputs = {
      {10.0, 20.0}, {0.0, 0.0}, {kNaN, 5.0}, {5.0, kNaN}, {kInf, 1.0}, {1.0, kInf}};
  for (const dag::ThroughputFn* fn :
       std::vector<const dag::ThroughputFn*>{&linear, &min_weighted, &tanh_fn, &custom}) {
    for (const auto& in : inputs) {
      if (fn == &custom && std::isnan(in[0])) continue;  // sqrt(NaN) is rejected on the tape
      SCOPED_TRACE(fn->name());
      EXPECT_EQ(bits(fn->eval_as_taped(in)), bits(taped_eval(*fn, in)));
    }
  }
  // MinWeightedFn::eval keeps std::min's rule, so only eval_as_taped is exact.
  EXPECT_FALSE(std::isnan(min_weighted.eval(std::vector{5.0, kNaN})));
  EXPECT_TRUE(std::isnan(min_weighted.eval_as_taped(std::vector{5.0, kNaN})));
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

}  // namespace
}  // namespace dragster
