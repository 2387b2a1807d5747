#include "dag/flow_solver.hpp"

#include <cmath>

#include "autodiff/tape.hpp"
#include "common/error.hpp"

namespace dragster::dag {
namespace {

using autodiff::Var;

// Infinite capacities would poison min() partials, so eq. (4) clamps them to
// a huge finite stand-in (the gradient through that branch is zero anyway).
double finite_capacity(double capacity) { return std::isfinite(capacity) ? capacity : 1e18; }

// The two scalars eq. (4) is evaluated on: plain doubles for values...
struct Values {
  std::span<const double> capacity;

  static double constant(double v) { return v; }
  [[nodiscard]] double y(NodeId id) const { return finite_capacity(capacity[id]); }
  static double demand(const ThroughputFn& fn, std::span<const double> inputs) {
    return fn.eval(inputs);
  }
};

// ...and tape Vars, one variable per operator capacity, for gradients.  The
// tape is a direct member, so a Taped cannot move and its Vars stay valid.
struct Taped {
  autodiff::Tape tape;
  std::vector<Var> y_var;  // node-indexed (operators only)

  Taped(const StreamDag& dag, std::span<const double> capacity) : y_var(dag.node_count()) {
    for (NodeId id : dag.operators()) y_var[id] = tape.variable(finite_capacity(capacity[id]));
  }
  Var constant(double v) { return tape.constant(v); }
  [[nodiscard]] Var y(NodeId id) const { return y_var[id]; }
  Var demand(const ThroughputFn& fn, std::span<const Var> inputs) {
    return fn.eval_var(tape, inputs);
  }
};

// Eq. (4) in topological order, written once for both scalars.  Fills
// `edge_flow` (edge-indexed), adds each node's pre-truncation demand into
// `node_demand` when given, and returns the sink inflow f_t(y).  Sources pass
// their demand through; an operator edge carries min(alpha * y, demand) under
// the tape's min rule.
template <class S, class T>
T flow_walk(const StreamDag& dag, S& s, std::span<const double> source_rates,
            std::vector<T>& edge_flow, std::vector<T>& inputs,
            std::vector<T>* node_demand = nullptr) {
  edge_flow.assign(dag.edge_count(), T{});
  const NodeId sink = dag.sink();
  T sink_inflow = s.constant(0.0);
  for (NodeId id : dag.topo_order()) {
    const ComponentKind kind = dag.component(id).kind;
    if (kind == ComponentKind::kSink) {
      if (id == sink)
        for (std::size_t eidx : dag.in_edges(id)) sink_inflow = sink_inflow + edge_flow[eidx];
      continue;
    }

    // The input vector h_{i,j} consumes: the offered rate for a source, the
    // realized in-edge flows for an operator.
    inputs.clear();
    if (kind == ComponentKind::kSource) {
      inputs.push_back(s.constant(source_rates[id]));
    } else {
      for (std::size_t eidx : dag.in_edges(id)) inputs.push_back(edge_flow[eidx]);
    }

    const bool is_operator = kind == ComponentKind::kOperator;
    const T y = is_operator ? s.y(id) : T{};
    for (std::size_t eidx : dag.out_edges(id)) {
      const Edge& edge = dag.edge(eidx);
      const T demand = s.demand(*edge.fn, inputs);
      if (node_demand != nullptr) (*node_demand)[id] = (*node_demand)[id] + demand;
      edge_flow[eidx] = is_operator ? autodiff::min(y * edge.alpha, demand) : demand;
    }
  }
  return sink_inflow;
}

// L = f(y) - sum_i lambda_i * max(0, observed_demand_i - y_i) (paper eq. 13),
// for both scalars.  The hinge keeps the multiplier from pushing y past the
// point where the constraint is already satisfied (complementary slackness
// during transients); the *signed* constraint values are still reported for
// the eq. (15) dual update, so lambda decays when operators are
// over-provisioned.
template <class S, class T>
T hinge_lagrangian(const StreamDag& dag, S& s, T lagr, std::span<const double> lambda,
                   std::span<const double> observed_demand) {
  for (NodeId id : dag.operators()) {
    // draglint:allow(DL004 sparsity skip: an exactly-zero multiplier contributes nothing)
    if (lambda[id] == 0.0) continue;
    const T zero = s.constant(0.0);
    const T slack = s.constant(observed_demand[id]) - s.y(id);
    lagr = lagr - autodiff::max(zero, slack) * lambda[id];
  }
  return lagr;
}

}  // namespace

FlowSolver::FlowSolver(const StreamDag& dag) : dag_(dag) {
  DRAGSTER_REQUIRE(dag.validated(), "FlowSolver requires a validated DAG");
}

FlowResult FlowSolver::solve(std::span<const double> source_rates,
                             std::span<const double> capacity) const {
  const std::size_t n = dag_.node_count();
  DRAGSTER_REQUIRE(source_rates.size() == n && capacity.size() == n,
                   "source_rates/capacity must be node-indexed");

  FlowResult result;
  result.node_demand.assign(n, 0.0);
  Values s{capacity};
  std::vector<double> inputs;
  result.app_throughput =
      flow_walk(dag_, s, source_rates, result.edge_flow, inputs, &result.node_demand);

  result.node_inflow.assign(n, 0.0);
  result.node_outflow.assign(n, 0.0);
  for (NodeId id = 0; id < n; ++id) {
    for (std::size_t eidx : dag_.in_edges(id)) result.node_inflow[id] += result.edge_flow[eidx];
    for (std::size_t eidx : dag_.out_edges(id)) result.node_outflow[id] += result.edge_flow[eidx];
  }
  return result;
}

double FlowSolver::app_throughput(std::span<const double> source_rates,
                                  std::span<const double> capacity) const {
  const std::size_t n = dag_.node_count();
  DRAGSTER_REQUIRE(source_rates.size() == n && capacity.size() == n,
                   "source_rates/capacity must be node-indexed");
  Values s{capacity};
  std::vector<double> edge_flow;
  std::vector<double> inputs;
  return flow_walk(dag_, s, source_rates, edge_flow, inputs);
}

Sensitivity FlowSolver::sensitivity(std::span<const double> source_rates,
                                    std::span<const double> capacity) const {
  const std::size_t n = dag_.node_count();
  DRAGSTER_REQUIRE(source_rates.size() == n && capacity.size() == n,
                   "source_rates/capacity must be node-indexed");

  Taped s(dag_, capacity);
  std::vector<Var> edge_flow;
  std::vector<Var> inputs;
  std::vector<Var> node_demand(n, s.constant(0.0));
  const Var f = flow_walk(dag_, s, source_rates, edge_flow, inputs, &node_demand);

  Sensitivity out;
  out.throughput = f.value();
  out.dthroughput_dy.assign(n, 0.0);
  out.constraint.assign(n, 0.0);

  const std::vector<double> adjoint = s.tape.gradient(f);
  for (NodeId id : dag_.operators()) {
    out.dthroughput_dy[id] = adjoint[s.y_var[id].index()];
    out.constraint[id] = node_demand[id].value() - capacity[id];
    if (!std::isfinite(out.constraint[id])) out.constraint[id] = -1e18;
  }
  return out;
}

LagrangianResult FlowSolver::lagrangian(std::span<const double> source_rates,
                                        std::span<const double> capacity,
                                        std::span<const double> lambda,
                                        std::span<const double> observed_demand) const {
  const std::size_t n = dag_.node_count();
  DRAGSTER_REQUIRE(source_rates.size() == n && capacity.size() == n && lambda.size() == n &&
                       observed_demand.size() == n,
                   "source_rates/capacity/lambda/observed_demand must be node-indexed");

  Taped s(dag_, capacity);
  std::vector<Var> edge_flow;
  std::vector<Var> inputs;
  const Var f = flow_walk(dag_, s, source_rates, edge_flow, inputs);
  const Var lagr = hinge_lagrangian(dag_, s, f, lambda, observed_demand);

  LagrangianResult out;
  out.value = lagr.value();
  out.throughput = f.value();
  out.dvalue_dy.assign(n, 0.0);
  out.constraint.assign(n, 0.0);

  const std::vector<double> adjoint = s.tape.gradient(lagr);
  for (NodeId id : dag_.operators()) {
    out.dvalue_dy[id] = adjoint[s.y_var[id].index()];
    out.constraint[id] = observed_demand[id] - capacity[id];
    if (!std::isfinite(out.constraint[id])) out.constraint[id] = -1e18;
  }
  return out;
}

double FlowSolver::lagrangian_value(std::span<const double> source_rates,
                                    std::span<const double> capacity,
                                    std::span<const double> lambda,
                                    std::span<const double> observed_demand,
                                    Scratch& scratch) const {
  const std::size_t n = dag_.node_count();
  DRAGSTER_REQUIRE(source_rates.size() == n && capacity.size() == n && lambda.size() == n &&
                       observed_demand.size() == n,
                   "source_rates/capacity/lambda/observed_demand must be node-indexed");

  Values s{capacity};
  const double f = flow_walk(dag_, s, source_rates, scratch.edge_flow, scratch.inputs);
  return hinge_lagrangian(dag_, s, f, lambda, observed_demand);
}

}  // namespace dragster::dag
