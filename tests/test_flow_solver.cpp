// Tests for the truncated-flow solver (paper eq. 4), the throughput function
// f_t(y), its autodiff sensitivity, and the Lagrangian (eq. 13).
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/rng.hpp"
#include "dag/flow_solver.hpp"
#include "dag/throughput_fn.hpp"

namespace dragster::dag {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

struct ChainFixture {
  StreamDag dag;
  NodeId src, a, b, sink;

  ChainFixture(double sel_a = 2.0, double sel_b = 1.0) {
    src = dag.add_source("src");
    a = dag.add_operator("a");
    b = dag.add_operator("b");
    sink = dag.add_sink("sink");
    dag.add_edge(src, a, selectivity_fn(1.0));
    dag.add_edge(a, b, selectivity_fn(sel_a));
    dag.add_edge(b, sink, selectivity_fn(sel_b));
    dag.validate();
  }

  std::vector<double> rates(double r) const {
    std::vector<double> v(dag.node_count(), 0.0);
    v[src] = r;
    return v;
  }
  std::vector<double> caps(double ya, double yb) const {
    std::vector<double> v(dag.node_count(), 0.0);
    v[a] = ya;
    v[b] = yb;
    return v;
  }
};

TEST(FlowSolver, UnconstrainedChainPropagatesSelectivity) {
  ChainFixture fx;
  const FlowSolver flow(fx.dag);
  const FlowResult r = flow.solve(fx.rates(100.0), fx.caps(kInf, kInf));
  EXPECT_DOUBLE_EQ(r.app_throughput, 200.0);
  EXPECT_DOUBLE_EQ(r.node_inflow[fx.b], 200.0);
  EXPECT_DOUBLE_EQ(r.node_demand[fx.a], 200.0);
}

TEST(FlowSolver, CapacityTruncatesPerEquation4) {
  ChainFixture fx;
  const FlowSolver flow(fx.dag);
  // a capped at 150 (demand 200); b unconstrained: sink gets 150.
  const FlowResult r = flow.solve(fx.rates(100.0), fx.caps(150.0, kInf));
  EXPECT_DOUBLE_EQ(r.app_throughput, 150.0);
  // b's demand equals what it actually received.
  EXPECT_DOUBLE_EQ(r.node_demand[fx.b], 150.0);
}

TEST(FlowSolver, DownstreamBottleneckDominates) {
  ChainFixture fx;
  const FlowSolver flow(fx.dag);
  const FlowResult r = flow.solve(fx.rates(100.0), fx.caps(kInf, 80.0));
  EXPECT_DOUBLE_EQ(r.app_throughput, 80.0);
}

TEST(FlowSolver, ThroughputMonotoneInCapacity) {
  ChainFixture fx;
  const FlowSolver flow(fx.dag);
  double prev = -1.0;
  for (double y = 20.0; y <= 260.0; y += 40.0) {
    const double f = flow.app_throughput(fx.rates(100.0), fx.caps(y, y));
    EXPECT_GE(f, prev);
    prev = f;
  }
  EXPECT_DOUBLE_EQ(prev, 200.0);  // saturates at demand
}

TEST(FlowSolver, AlphaSplitsCapacityAmongSuccessors) {
  StreamDag dag;
  const NodeId src = dag.add_source("s");
  const NodeId op = dag.add_operator("o");
  const NodeId k1 = dag.add_sink("k1");
  const NodeId k2 = dag.add_sink("k2");
  dag.add_edge(src, op, identity_fn());
  dag.add_edge(op, k1, selectivity_fn(1.0), 0.25);
  dag.add_edge(op, k2, selectivity_fn(1.0), 0.75);
  dag.validate();
  const FlowSolver flow(dag);
  std::vector<double> rates(dag.node_count(), 0.0);
  rates[src] = 100.0;
  std::vector<double> caps(dag.node_count(), 0.0);
  caps[op] = 80.0;  // demand per edge is 100, split caps at 20/60
  const FlowResult r = flow.solve(rates, caps);
  EXPECT_DOUBLE_EQ(r.edge_flow[dag.out_edges(op)[0]], 20.0);
  EXPECT_DOUBLE_EQ(r.edge_flow[dag.out_edges(op)[1]], 60.0);
}

TEST(FlowSolver, JoinUsesMinWeighted) {
  StreamDag dag;
  const NodeId s1 = dag.add_source("auctions");
  const NodeId s2 = dag.add_source("bids");
  const NodeId join = dag.add_operator("join");
  const NodeId sink = dag.add_sink("sink");
  dag.add_edge(s1, join, identity_fn());
  dag.add_edge(s2, join, identity_fn());
  dag.add_edge(join, sink, std::make_unique<MinWeightedFn>(std::vector{1.0, 0.5}));
  dag.validate();
  const FlowSolver flow(dag);
  std::vector<double> rates(dag.node_count(), 0.0);
  rates[s1] = 30.0;
  rates[s2] = 40.0;  // weighted: min(30, 20) = 20
  std::vector<double> caps(dag.node_count(), 0.0);
  caps[join] = kInf;
  EXPECT_DOUBLE_EQ(flow.app_throughput(rates, caps), 20.0);
}

TEST(FlowSolver, SensitivityIdentifiesBottleneck) {
  ChainFixture fx;
  const FlowSolver flow(fx.dag);
  // a is the binding constraint: 150 < demand 200, b has slack.
  const Sensitivity s = flow.sensitivity(fx.rates(100.0), fx.caps(150.0, 400.0));
  EXPECT_GT(s.dthroughput_dy[fx.a], 0.5);
  EXPECT_DOUBLE_EQ(s.dthroughput_dy[fx.b], 0.0);
  EXPECT_DOUBLE_EQ(s.throughput, 150.0);
  // Constraints (eq. 11): demand - capacity.
  EXPECT_DOUBLE_EQ(s.constraint[fx.a], 50.0);
  EXPECT_DOUBLE_EQ(s.constraint[fx.b], 150.0 - 400.0);
}

TEST(FlowSolver, SensitivityMatchesFiniteDifference) {
  ChainFixture fx(1.5, 0.8);
  const FlowSolver flow(fx.dag);
  common::Rng rng(5);
  for (int trial = 0; trial < 20; ++trial) {
    const double ya = rng.uniform(20.0, 300.0);
    const double yb = rng.uniform(20.0, 300.0);
    const Sensitivity s = flow.sensitivity(fx.rates(100.0), fx.caps(ya, yb));
    const double h = 1e-5;
    const double fd_a = (flow.app_throughput(fx.rates(100.0), fx.caps(ya + h, yb)) -
                         flow.app_throughput(fx.rates(100.0), fx.caps(ya - h, yb))) /
                        (2.0 * h);
    // Skip kink points where the subgradient legitimately differs.
    const double fd_a2 = (flow.app_throughput(fx.rates(100.0), fx.caps(ya + h, yb)) -
                          flow.app_throughput(fx.rates(100.0), fx.caps(ya, yb))) /
                         h;
    if (std::abs(fd_a - fd_a2) < 1e-6) {
      EXPECT_NEAR(s.dthroughput_dy[fx.a], fd_a, 1e-5) << "ya=" << ya << " yb=" << yb;
    }
  }
}

TEST(FlowSolver, LagrangianValueMatchesDefinition) {
  ChainFixture fx;
  const FlowSolver flow(fx.dag);
  const auto rates = fx.rates(100.0);
  const auto caps = fx.caps(150.0, 90.0);
  std::vector<double> lambda(fx.dag.node_count(), 0.0);
  lambda[fx.a] = 2.0;
  lambda[fx.b] = 3.0;
  std::vector<double> demand(fx.dag.node_count(), 0.0);
  demand[fx.a] = 200.0;  // hinge: 2*(200-150) = 100
  demand[fx.b] = 50.0;   // hinge inactive: capacity 90 > 50
  const LagrangianResult lr = flow.lagrangian(rates, caps, lambda, demand);
  EXPECT_DOUBLE_EQ(lr.throughput, 90.0);
  EXPECT_DOUBLE_EQ(lr.value, 90.0 - 100.0);
  EXPECT_DOUBLE_EQ(lr.constraint[fx.a], 50.0);
  EXPECT_DOUBLE_EQ(lr.constraint[fx.b], -40.0);
}

TEST(FlowSolver, LagrangianGradientIncludesMultiplier) {
  ChainFixture fx;
  const FlowSolver flow(fx.dag);
  const auto rates = fx.rates(100.0);
  const auto caps = fx.caps(150.0, 300.0);
  std::vector<double> lambda(fx.dag.node_count(), 0.0);
  lambda[fx.a] = 2.0;
  std::vector<double> demand(fx.dag.node_count(), 0.0);
  demand[fx.a] = 200.0;  // active hinge at a (150 < 200)
  const LagrangianResult lr = flow.lagrangian(rates, caps, lambda, demand);
  // dL/dy_a = df/dy_a (=1, binding) + lambda (=2, hinge active).
  EXPECT_NEAR(lr.dvalue_dy[fx.a], 3.0, 1e-9);
}

TEST(FlowSolver, LagrangianReducesToThroughputWithZeroLambda) {
  ChainFixture fx;
  const FlowSolver flow(fx.dag);
  const auto rates = fx.rates(50.0);
  const auto caps = fx.caps(70.0, 70.0);
  const std::vector<double> lambda(fx.dag.node_count(), 0.0);
  const std::vector<double> demand(fx.dag.node_count(), 1e9);
  const LagrangianResult lr = flow.lagrangian(rates, caps, lambda, demand);
  EXPECT_DOUBLE_EQ(lr.value, lr.throughput);
}

TEST(FlowSolver, ZeroSourceRateGivesZeroFlow) {
  ChainFixture fx;
  const FlowSolver flow(fx.dag);
  const FlowResult r = flow.solve(fx.rates(0.0), fx.caps(100.0, 100.0));
  EXPECT_DOUBLE_EQ(r.app_throughput, 0.0);
}

TEST(FlowSolver, ZeroAlphaEdgeWithInfiniteCapacityCarriesNoFlow) {
  // a splits toward b (alpha 1) and straight to the sink (alpha 0).  With
  // infinite capacity the alpha-0 edge must carry 0, not 0 * inf = NaN.
  StreamDag dag;
  const NodeId src = dag.add_source("src");
  const NodeId a = dag.add_operator("a");
  const NodeId b = dag.add_operator("b");
  const NodeId sink = dag.add_sink("sink");
  dag.add_edge(src, a, identity_fn());
  dag.add_edge(a, b, identity_fn(), 1.0);
  dag.add_edge(a, sink, identity_fn(), 0.0);
  dag.add_edge(b, sink, identity_fn());
  dag.validate();
  const std::size_t a_to_sink = dag.out_edges(a)[1];

  const FlowSolver flow(dag);
  std::vector<double> rates(dag.node_count(), 0.0);
  rates[src] = 100.0;
  const std::vector<double> caps(dag.node_count(), kInf);
  const FlowResult r = flow.solve(rates, caps);
  EXPECT_EQ(r.edge_flow[a_to_sink], 0.0);
  EXPECT_EQ(r.app_throughput, 100.0);
  EXPECT_EQ(flow.app_throughput(rates, caps), 100.0);
  EXPECT_EQ(r.node_inflow[sink], 100.0);
  EXPECT_EQ(r.node_outflow[a], 100.0);
}

TEST(FlowSolver, RejectsWrongSizes) {
  ChainFixture fx;
  const FlowSolver flow(fx.dag);
  EXPECT_THROW(flow.solve(std::vector<double>{1.0}, fx.caps(1.0, 1.0)),
               std::invalid_argument);
}

// Property: for random chains, flow is conserved: every operator's outflow
// never exceeds capacity nor demand, and sink inflow equals last outflow.
class RandomChainFlow : public ::testing::TestWithParam<int> {};

TEST_P(RandomChainFlow, TruncationInvariants) {
  common::Rng rng(static_cast<std::uint64_t>(GetParam()) * 31 + 1);
  StreamDag dag;
  const NodeId src = dag.add_source("src");
  const int ops = 1 + static_cast<int>(rng.uniform_int(0, 4));
  std::vector<NodeId> chain{src};
  for (int i = 0; i < ops; ++i) chain.push_back(dag.add_operator("op" + std::to_string(i)));
  const NodeId sink = dag.add_sink("sink");
  chain.push_back(sink);
  for (std::size_t i = 0; i + 1 < chain.size(); ++i)
    dag.add_edge(chain[i], chain[i + 1], selectivity_fn(rng.uniform(0.3, 2.5)));
  dag.validate();

  const FlowSolver flow(dag);
  std::vector<double> rates(dag.node_count(), 0.0);
  rates[src] = rng.uniform(10.0, 1000.0);
  std::vector<double> caps(dag.node_count(), 0.0);
  for (NodeId id : dag.operators()) caps[id] = rng.uniform(5.0, 800.0);

  const FlowResult r = flow.solve(rates, caps);
  for (NodeId id : dag.operators()) {
    EXPECT_LE(r.node_outflow[id], caps[id] + 1e-9);
    EXPECT_LE(r.node_outflow[id], r.node_demand[id] + 1e-9);
  }
  EXPECT_DOUBLE_EQ(r.app_throughput, r.node_inflow[dag.sink()]);
  // Monotonicity: doubling all capacities cannot reduce throughput.
  std::vector<double> caps2 = caps;
  for (double& c : caps2) c *= 2.0;
  EXPECT_GE(flow.app_throughput(rates, caps2), r.app_throughput - 1e-9);
}

INSTANTIATE_TEST_SUITE_P(RandomChains, RandomChainFlow, ::testing::Range(0, 25));

}  // namespace
}  // namespace dragster::dag
