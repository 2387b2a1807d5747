// Steady-state flow propagation through the stream DAG (paper eq. 4) and
// the application-throughput function f_t(y) with its gradient.
//
// This is the *analytic* model the controller plans with; the streamsim
// module adds buffers, noise and time.  Flows are computed in topological
// order: each operator's demand toward successor j is h_{i,j}(inputs) and
// the realized flow is min(alpha_{i,j} * y_i, demand); sources pass their
// demand through.  That walk is written once, as a template over the scalar:
// solve(), app_throughput() and lagrangian_value() run it on doubles, and
// sensitivity() and lagrangian() record it on an autodiff tape for the
// gradient.  Both use the tape's rules -- infinite capacity clamped to 1e18,
// and min/max as autodiff::min/max, which pick the first operand on ties and
// propagate NaN (std::min/std::max keep the first operand) -- so every value
// is bit-identical to the taped one.
#pragma once

#include <span>
#include <vector>

#include "dag/stream_dag.hpp"

namespace dragster::dag {

struct FlowResult {
  std::vector<double> edge_flow;    ///< realized e_j^i per edge index
  std::vector<double> node_inflow;  ///< total received throughput per node
  std::vector<double> node_demand;  ///< sum_j h_{i,j}(inputs) per node (pre-truncation)
  std::vector<double> node_outflow; ///< total emitted throughput per node
  double app_throughput = 0.0;      ///< inflow at the sink = f_t(y)
};

struct LagrangianResult {
  double value = 0.0;               ///< L_t(y, lambda) (paper eq. 13)
  double throughput = 0.0;          ///< f_t(y) term
  std::vector<double> dvalue_dy;    ///< dL/dy_i per node id
  std::vector<double> constraint;   ///< l_i(y_i) per node id
};

struct Sensitivity {
  double throughput = 0.0;
  /// d f_t / d y_i per node id (zero for sources/sinks) — the bottleneck
  /// signal: a positive entry means more capacity there raises throughput.
  std::vector<double> dthroughput_dy;
  /// Soft-constraint values l_i(y_i) = demand_i - y_i per node id
  /// (paper eq. 11); meaningful for operators only.
  std::vector<double> constraint;
};

class FlowSolver {
 public:
  /// Caller-owned buffers for lagrangian_value(); reused across calls, so a
  /// warm Scratch makes the call allocation-free.  Use one per thread.
  struct Scratch {
    std::vector<double> edge_flow;  ///< realized flow per edge index
    std::vector<double> inputs;     ///< the input vector one h_{i,j} consumes
  };

  /// The DAG must be validated and must outlive the solver.
  explicit FlowSolver(const StreamDag& dag);

  /// `source_rates` and `capacity` are node-indexed (size node_count);
  /// only source entries of `source_rates` and operator entries of
  /// `capacity` are read.  Infinite capacity is expressed with
  /// std::numeric_limits<double>::infinity() and planned as 1e18.
  [[nodiscard]] FlowResult solve(std::span<const double> source_rates,
                                 std::span<const double> capacity) const;

  /// f_t(y): sink inflow only (cheaper than a full FlowResult).
  [[nodiscard]] double app_throughput(std::span<const double> source_rates,
                                      std::span<const double> capacity) const;

  /// Gradient and constraints via reverse-mode autodiff over the same walk
  /// (min handled by active-branch subgradients).
  [[nodiscard]] Sensitivity sensitivity(std::span<const double> source_rates,
                                        std::span<const double> capacity) const;

  /// Per-slot Lagrangian L(y, lambda) = f(y) - sum_i lambda_i l_i(y_i)
  /// (paper eq. 13) with its full gradient in y — the objective the online
  /// saddle-point step (eq. 14) maximizes.
  ///
  /// Following the paper's eq. (11), the constraint uses the *observed*
  /// demand Sum_j h_{i,j}(e_i) as a per-slot constant (`observed_demand`,
  /// node-indexed: typically last slot's measured demand plus buffered
  /// backlog to drain), NOT the model demand as a function of y — otherwise
  /// the maximizer can "relieve" a downstream constraint by throttling the
  /// upstream operator, which is never what a scaler should plan.
  /// `lambda` is node-indexed; only operator entries are read.
  [[nodiscard]] LagrangianResult lagrangian(std::span<const double> source_rates,
                                            std::span<const double> capacity,
                                            std::span<const double> lambda,
                                            std::span<const double> observed_demand) const;

  /// lagrangian(...).value without the tape or the gradient — the objective
  /// the saddle-point search evaluates ~100 times per slot.  The same walk
  /// and hinge on doubles, so the result is bit-identical to the taped
  /// value, NaN included.
  [[nodiscard]] double lagrangian_value(std::span<const double> source_rates,
                                        std::span<const double> capacity,
                                        std::span<const double> lambda,
                                        std::span<const double> observed_demand,
                                        Scratch& scratch) const;

  [[nodiscard]] const StreamDag& dag() const noexcept { return dag_; }

 private:
  const StreamDag& dag_;
};

}  // namespace dragster::dag
