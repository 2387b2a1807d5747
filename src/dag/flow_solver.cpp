#include "dag/flow_solver.hpp"

#include <cmath>
#include <limits>

#include "autodiff/tape.hpp"
#include "common/error.hpp"

namespace dragster::dag {

FlowSolver::FlowSolver(const StreamDag& dag) : dag_(dag) {
  DRAGSTER_REQUIRE(dag.validated(), "FlowSolver requires a validated DAG");
}

FlowResult FlowSolver::solve(std::span<const double> source_rates,
                             std::span<const double> capacity) const {
  const std::size_t n = dag_.node_count();
  DRAGSTER_REQUIRE(source_rates.size() == n && capacity.size() == n,
                   "source_rates/capacity must be node-indexed");

  FlowResult result;
  result.edge_flow.assign(dag_.edge_count(), 0.0);
  result.node_inflow.assign(n, 0.0);
  result.node_demand.assign(n, 0.0);
  result.node_outflow.assign(n, 0.0);

  for (NodeId id : dag_.topo_order()) {
    const Component& comp = dag_.component(id);
    if (comp.kind == ComponentKind::kSink) {
      for (std::size_t eidx : dag_.in_edges(id)) result.node_inflow[id] += result.edge_flow[eidx];
      continue;
    }

    // Assemble the input vector h_{i,j} consumes: the offered rate for a
    // source, the realized in-edge flows for an operator.
    std::vector<double> inputs;
    if (comp.kind == ComponentKind::kSource) {
      inputs.push_back(source_rates[id]);
    } else {
      inputs.reserve(dag_.in_edges(id).size());
      for (std::size_t eidx : dag_.in_edges(id)) inputs.push_back(result.edge_flow[eidx]);
      for (double v : inputs) result.node_inflow[id] += v;
    }

    const double y = comp.kind == ComponentKind::kOperator
                         ? capacity[id]
                         : std::numeric_limits<double>::infinity();
    for (std::size_t eidx : dag_.out_edges(id)) {
      const Edge& edge = dag_.edge(eidx);
      const double demand = edge.fn->eval(inputs);
      result.node_demand[id] += demand;
      const double flow = std::min(edge.alpha * y, demand);
      result.edge_flow[eidx] = flow;
      result.node_outflow[id] += flow;
    }
  }

  result.app_throughput = result.node_inflow[dag_.sink()];
  return result;
}

double FlowSolver::app_throughput(std::span<const double> source_rates,
                                  std::span<const double> capacity) const {
  return solve(source_rates, capacity).app_throughput;
}

namespace {

// Infinite capacities would poison min() partials; the taped flow clamps them
// to a huge finite stand-in (the gradient through that branch is zero anyway)
// and the value path must clamp identically.
double finite_capacity(double capacity) { return std::isfinite(capacity) ? capacity : 1e18; }

// Shared tape construction for sensitivity() and lagrangian(): records the
// truncated-flow composition with one Var per operator capacity.
struct TapedFlow {
  // Vars store a Tape*, so the tape must have a stable address.
  std::unique_ptr<autodiff::Tape> tape = std::make_unique<autodiff::Tape>();
  std::vector<autodiff::Var> y_var;        // node-indexed (operators only)
  std::vector<autodiff::Var> node_demand;  // node-indexed
  autodiff::Var sink_inflow;
};

TapedFlow build_taped_flow(const StreamDag& dag, std::span<const double> source_rates,
                           std::span<const double> capacity) {
  const std::size_t n = dag.node_count();
  TapedFlow tf;
  autodiff::Tape& tape = *tf.tape;
  tf.y_var.resize(n);
  for (NodeId id = 0; id < n; ++id) {
    if (dag.component(id).kind == ComponentKind::kOperator)
      tf.y_var[id] = tape.variable(finite_capacity(capacity[id]));
  }

  std::vector<autodiff::Var> edge_flow(dag.edge_count());
  tf.node_demand.resize(n);
  for (NodeId id = 0; id < n; ++id) tf.node_demand[id] = tape.constant(0.0);

  tf.sink_inflow = tape.constant(0.0);
  const NodeId sink = dag.sink();

  for (NodeId id : dag.topo_order()) {
    const Component& comp = dag.component(id);
    if (comp.kind == ComponentKind::kSink) {
      if (id == sink)
        for (std::size_t eidx : dag.in_edges(id))
          tf.sink_inflow = tf.sink_inflow + edge_flow[eidx];
      continue;
    }

    std::vector<autodiff::Var> inputs;
    if (comp.kind == ComponentKind::kSource) {
      inputs.push_back(tape.constant(source_rates[id]));
    } else {
      inputs.reserve(dag.in_edges(id).size());
      for (std::size_t eidx : dag.in_edges(id)) inputs.push_back(edge_flow[eidx]);
    }

    for (std::size_t eidx : dag.out_edges(id)) {
      const Edge& edge = dag.edge(eidx);
      const autodiff::Var demand = edge.fn->eval_var(tape, inputs);
      tf.node_demand[id] = tf.node_demand[id] + demand;
      if (comp.kind == ComponentKind::kOperator) {
        edge_flow[eidx] = autodiff::min(tf.y_var[id] * edge.alpha, demand);
      } else {
        edge_flow[eidx] = demand;  // sources are not capacity-limited
      }
    }
  }
  return tf;
}

}  // namespace

Sensitivity FlowSolver::sensitivity(std::span<const double> source_rates,
                                    std::span<const double> capacity) const {
  const std::size_t n = dag_.node_count();
  DRAGSTER_REQUIRE(source_rates.size() == n && capacity.size() == n,
                   "source_rates/capacity must be node-indexed");

  TapedFlow tf = build_taped_flow(dag_, source_rates, capacity);

  Sensitivity out;
  out.throughput = tf.sink_inflow.value();
  out.dthroughput_dy.assign(n, 0.0);
  out.constraint.assign(n, 0.0);

  const std::vector<double> adjoint = tf.tape->gradient(tf.sink_inflow);
  for (NodeId id = 0; id < n; ++id) {
    if (dag_.component(id).kind != ComponentKind::kOperator) continue;
    out.dthroughput_dy[id] = adjoint[tf.y_var[id].index()];
    out.constraint[id] = tf.node_demand[id].value() - capacity[id];
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

  TapedFlow tf = build_taped_flow(dag_, source_rates, capacity);

  // L = f(y) - sum_i lambda_i * max(0, observed_demand_i - y_i).
  // The hinge keeps the multiplier from pushing y past the point where the
  // constraint is already satisfied (complementary slackness during
  // transients); the *signed* constraint values are still reported for the
  // eq. (15) dual update, so lambda decays when operators are
  // over-provisioned.
  autodiff::Var lagr = tf.sink_inflow;
  for (NodeId id = 0; id < n; ++id) {
    if (dag_.component(id).kind != ComponentKind::kOperator) continue;
    // draglint:allow(DL004 sparsity skip: an exactly-zero multiplier contributes nothing)
    if (lambda[id] == 0.0) continue;
    const autodiff::Var zero = tf.tape->constant(0.0);
    const autodiff::Var demand = tf.tape->constant(observed_demand[id]);
    lagr = lagr - autodiff::max(zero, demand - tf.y_var[id]) * lambda[id];
  }

  LagrangianResult out;
  out.value = lagr.value();
  out.throughput = tf.sink_inflow.value();
  out.dvalue_dy.assign(n, 0.0);
  out.constraint.assign(n, 0.0);

  const std::vector<double> adjoint = tf.tape->gradient(lagr);
  for (NodeId id = 0; id < n; ++id) {
    if (dag_.component(id).kind != ComponentKind::kOperator) continue;
    out.dvalue_dy[id] = adjoint[tf.y_var[id].index()];
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

  // Mirrors build_taped_flow() and lagrangian() step for step; see the header.
  std::vector<double>& edge_flow = scratch.edge_flow;
  std::vector<double>& inputs = scratch.inputs;
  edge_flow.assign(dag_.edge_count(), 0.0);
  const NodeId sink = dag_.sink();
  double sink_inflow = 0.0;

  for (NodeId id : dag_.topo_order()) {
    const ComponentKind kind = dag_.component(id).kind;
    if (kind == ComponentKind::kSink) {
      if (id == sink)
        for (std::size_t eidx : dag_.in_edges(id)) sink_inflow = sink_inflow + edge_flow[eidx];
      continue;
    }

    inputs.clear();
    if (kind == ComponentKind::kSource) {
      inputs.push_back(source_rates[id]);
    } else {
      for (std::size_t eidx : dag_.in_edges(id)) inputs.push_back(edge_flow[eidx]);
    }

    const double y = kind == ComponentKind::kOperator ? finite_capacity(capacity[id]) : 0.0;
    for (std::size_t eidx : dag_.out_edges(id)) {
      const Edge& edge = dag_.edge(eidx);
      const double demand = edge.fn->eval_as_taped(inputs);
      edge_flow[eidx] =
          kind == ComponentKind::kOperator ? autodiff::min_value(y * edge.alpha, demand) : demand;
    }
  }

  double lagr = sink_inflow;
  for (NodeId id : dag_.operators()) {
    // draglint:allow(DL004 sparsity skip: an exactly-zero multiplier contributes nothing)
    if (lambda[id] == 0.0) continue;
    const double slack = observed_demand[id] - finite_capacity(capacity[id]);
    lagr = lagr - autodiff::max_value(0.0, slack) * lambda[id];
  }
  return lagr;
}

}  // namespace dragster::dag
