// Seeded random stream DAGs and planner inputs for differential tests: a fast
// path and its reference implementation are run on the same draws and must
// agree bit for bit.
//
// Topologies are valid by construction: sources come first, every operator
// draws 1-3 distinct predecessors among earlier nodes, every source feeds at
// least one operator, and terminal operators either drain into an explicit
// sink or are left for validate() to funnel into a virtual sink.  Edge
// functions mix LinearFn, MinWeightedFn and TanhFn; split weights are either
// implicit (equal shares) or an explicit random partition that may contain
// zeros.  The input draws deliberately hit the edge cases: zero, infinite
// and NaN source rates (NaN flows reach the min() truncations), zero and
// infinite capacities, lambda == 0, and NaN or infinite observed demand.
#pragma once

#include <algorithm>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "dag/stream_dag.hpp"
#include "dag/throughput_fn.hpp"

namespace dragster::testing {

/// Weights for one edge function: mostly positive, sometimes exactly zero.
inline std::vector<double> random_weights(common::Rng& rng, std::size_t arity, double lo,
                                          double hi) {
  std::vector<double> weights(arity);
  for (double& w : weights) w = rng.bernoulli(0.1) ? 0.0 : rng.uniform(lo, hi);
  return weights;
}

inline std::unique_ptr<dag::ThroughputFn> random_fn(common::Rng& rng, std::size_t arity) {
  switch (rng.uniform_int(0, 2)) {
    case 0: return std::make_unique<dag::LinearFn>(random_weights(rng, arity, 0.1, 3.0));
    case 1: return std::make_unique<dag::MinWeightedFn>(random_weights(rng, arity, 0.1, 3.0));
    default:
      return std::make_unique<dag::TanhFn>(rng.uniform(1e3, 2e5),
                                           random_weights(rng, arity, 1e-6, 1e-4));
  }
}

/// A validated random DAG with up to `max_operators` operators.
inline dag::StreamDag random_dag(common::Rng& rng, int max_operators = 8) {
  const auto sources = static_cast<std::size_t>(rng.uniform_int(1, 3));
  const auto operators = static_cast<std::size_t>(rng.uniform_int(1, max_operators));
  const std::size_t nodes = sources + operators;

  // Edge list first: each function's arity is its emitter's in-degree, which
  // is only known once every edge is drawn.
  std::vector<std::pair<std::size_t, std::size_t>> edges;
  std::vector<std::size_t> in_degree(nodes, 0);
  std::vector<bool> emits(nodes, false);
  for (std::size_t to = sources; to < nodes; ++to) {
    const auto want = static_cast<std::size_t>(rng.uniform_int(1, 3));
    std::vector<std::size_t> preds;
    for (std::size_t k = 0; k < want; ++k) {
      const auto from =
          static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(to) - 1));
      if (std::find(preds.begin(), preds.end(), from) == preds.end()) preds.push_back(from);
    }
    for (std::size_t from : preds) {
      edges.emplace_back(from, to);
      in_degree[to] += 1;
      emits[from] = true;
    }
  }
  for (std::size_t src = 0; src < sources; ++src) {
    if (emits[src]) continue;
    const auto to = static_cast<std::size_t>(
        rng.uniform_int(static_cast<std::int64_t>(sources), static_cast<std::int64_t>(nodes) - 1));
    edges.emplace_back(src, to);
    in_degree[to] += 1;
    emits[src] = true;
  }

  // Terminal operators drain into one explicit sink, or, when each has a
  // single input, sometimes into the virtual sink validate() synthesizes
  // (its identity edges need in-degree 1).
  bool single_input_terminals = true;
  for (std::size_t op = sources; op < nodes; ++op)
    if (!emits[op] && in_degree[op] != 1) single_input_terminals = false;
  const bool explicit_sink = !single_input_terminals || rng.bernoulli(0.5);
  if (explicit_sink) {
    for (std::size_t op = sources; op < nodes; ++op) {
      if (emits[op]) continue;
      edges.emplace_back(op, nodes);
      emits[op] = true;
    }
  }

  auto name = [](char prefix, std::size_t i) {
    std::string out(1, prefix);
    out += std::to_string(i);
    return out;
  };
  dag::StreamDag dag;
  for (std::size_t i = 0; i < sources; ++i) (void)dag.add_source(name('s', i));
  for (std::size_t i = 0; i < operators; ++i) (void)dag.add_operator(name('o', i));
  if (explicit_sink) (void)dag.add_sink("sink");

  // Explicit split weights: a random partition of 1 (zeros allowed) for some
  // emitters, implicit equal shares for the rest.
  std::vector<std::vector<std::optional<double>>> alphas(nodes);
  std::vector<std::size_t> out_degree(nodes, 0);
  for (const auto& [from, to] : edges) out_degree[from] += 1;
  for (std::size_t node = 0; node < nodes; ++node) {
    if (out_degree[node] == 0) continue;
    if (!rng.bernoulli(0.4)) {
      alphas[node].assign(out_degree[node], std::nullopt);
      continue;
    }
    std::vector<double> raw(out_degree[node]);
    double total = 0.0;
    for (double& r : raw) {
      r = rng.bernoulli(0.2) ? 0.0 : rng.uniform(0.1, 1.0);
      total += r;
    }
    double assigned = 0.0;
    for (std::size_t k = 0; k + 1 < raw.size(); ++k) {
      const double share = total > 0.0 ? raw[k] / total : 0.0;
      alphas[node].emplace_back(share);
      assigned += share;
    }
    alphas[node].emplace_back(std::max(0.0, 1.0 - assigned));
  }

  std::vector<std::size_t> next_alpha(nodes, 0);
  for (const auto& [from, to] : edges) {
    const std::size_t arity = from < sources ? 1 : in_degree[from];
    dag.add_edge(from, to, random_fn(rng, arity), alphas[from][next_alpha[from]++]);
  }
  dag.validate();
  return dag;
}

/// Node-indexed inputs for one Lagrangian evaluation on `dag`.
struct PlannerInputs {
  std::vector<double> source_rates;
  std::vector<double> capacity;
  std::vector<double> lambda;
  std::vector<double> observed_demand;
};

inline PlannerInputs random_inputs(common::Rng& rng, const dag::StreamDag& dag) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  const std::size_t n = dag.node_count();
  // Entries outside a vector's node kind must never be read; NaN there would
  // surface in the value if they were.
  PlannerInputs in{std::vector<double>(n, kNaN), std::vector<double>(n, kNaN),
                   std::vector<double>(n, kNaN), std::vector<double>(n, kNaN)};
  for (dag::NodeId id : dag.sources()) {
    const double pick = rng.uniform();
    in.source_rates[id] = pick < 0.03 ? kNaN : pick < 0.06 ? kInf : pick < 0.2 ? 0.0
                                                                      : rng.uniform(0.0, 1e5);
  }
  for (dag::NodeId id : dag.operators()) {
    const double pick = rng.uniform();
    in.capacity[id] = pick < 0.15 ? kInf : pick < 0.25 ? 0.0 : rng.uniform(0.0, 2e5);
    in.lambda[id] = rng.bernoulli(0.25) ? 0.0 : rng.uniform(0.0, 2.0);
    const double d = rng.uniform();
    in.observed_demand[id] = d < 0.1 ? kNaN : d < 0.15 ? kInf : rng.uniform(0.0, 2e5);
  }
  return in;
}

}  // namespace dragster::testing
