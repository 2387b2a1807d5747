// Per-layer timing from outside the library: a forwarding Controller
// decorator times on_slot, and after every slot the layer functions are
// replayed on the controller's live state (GP acquisition and update, the
// saddle-point and OGD primal steps, flow solves, the oracle, snapshots).
// Replays run between steps and on copies where a call mutates, so the
// probed run computes exactly what an unprobed run computes.
#include <algorithm>
#include <cmath>
#include <sstream>

#include "baselines/oracle.hpp"
#include "bench.hpp"
#include "core/dragster_controller.hpp"
#include "dag/flow_solver.hpp"
#include "gp/acquisition.hpp"
#include "online/ogd.hpp"
#include "online/saddle_point.hpp"
#include "resilience/snapshot.hpp"

namespace perfbench {
namespace {

/// Forwards every Controller call to `inner`, timing on_slot.
class TimedController final : public core::Controller {
 public:
  explicit TimedController(core::Controller& inner) : inner_(inner) {}

  [[nodiscard]] std::string name() const override { return inner_.name(); }
  void set_observability(obs::Registry* registry) override {
    inner_.set_observability(registry);
  }
  void initialize(const streamsim::JobMonitor& monitor,
                  streamsim::ScalingActuator& actuator) override {
    inner_.initialize(monitor, actuator);
  }
  void on_slot(const streamsim::JobMonitor& monitor,
               streamsim::ScalingActuator& actuator) override {
    const Clock::time_point begin = Clock::now();
    inner_.on_slot(monitor, actuator);
    last_ms_ = 1e3 * seconds_since(begin);
  }
  void set_budget(const online::Budget& budget) override { inner_.set_budget(budget); }
  [[nodiscard]] double budget_pressure() const override { return inner_.budget_pressure(); }

  [[nodiscard]] double last_on_slot_ms() const noexcept { return last_ms_; }

 private:
  core::Controller& inner_;
  double last_ms_ = 0.0;
};

/// Sum and count of one replayed call's duration.
struct Timing {
  double total = 0.0;
  std::size_t calls = 0;

  template <typename Fn>
  void time(Fn&& fn, std::size_t reps = 1) {
    const Clock::time_point begin = Clock::now();
    for (std::size_t r = 0; r < reps; ++r) fn();
    total += seconds_since(begin);
    calls += reps;
  }
  [[nodiscard]] double mean(double scale) const {
    return calls == 0 ? 0.0 : scale * total / static_cast<double>(calls);
  }
};

/// Keeps replayed results observable so the calls are not optimized away.
volatile double g_sink = 0.0;

struct Replays {
  Timing acquisition, add_observation, saddle, ogd, flow, lagrangian, value, taped;
  std::vector<double> oracle_ms;
  std::size_t oracle_solves = 0;
  double gp_observations = 0.0;
  std::vector<double> snapshot_bytes, snapshot_us, restore_us;
};

constexpr std::size_t kFlowReps = 16;

/// Replays the level-1 and level-2 layer calls on the controller's state
/// after one slot.
void replay_slot(const core::DragsterController& controller, const streamsim::Engine& engine,
                 std::size_t slot, Replays& out) {
  const dag::StreamDag& dag = controller.planning_dag();
  const streamsim::SlotReport& report = engine.last_report();
  const std::size_t n = dag.node_count();
  const dag::FlowSolver flow(dag);
  std::vector<double> rates(n, 0.0);
  for (dag::NodeId id : dag.sources()) rates[id] = report.source_rate[id];
  const std::vector<double>& y_est = controller.last_capacity_estimates();
  const std::vector<double>& lambda = controller.lambda();
  std::vector<double> demand(n, 0.0);
  double scale = 1000.0;
  for (dag::NodeId id : dag.operators()) {
    demand[id] = report.per_node[id].demand_rate;
    scale = std::max({scale, y_est[id], demand[id]});
  }

  online::SaddlePointOptions sp;
  sp.y_max = 3.0 * scale;
  const online::SaddlePointSolver saddle(sp);
  out.saddle.time([&] { g_sink = saddle.solve(flow, rates, lambda, y_est, demand)[0]; });

  const core::DragsterOptions& options = controller.options();
  online::OgdOptions og;
  og.eta = options.eta_relative * scale;
  og.y_max = 3.0 * scale;
  og.capacity_regularization = options.ogd_regularization;
  const online::OgdSolver ogd(og);
  std::vector<double> floored = lambda;
  for (dag::NodeId id : dag.operators())
    floored[id] = std::max(floored[id], options.ogd_lambda_floor);
  const std::vector<double>& y_prev = controller.last_targets();
  out.ogd.time([&] { g_sink = ogd.step(flow, rates, floored, y_prev, demand)[0]; });

  out.flow.time([&] { g_sink = flow.solve(rates, y_est).app_throughput; }, kFlowReps);
  out.lagrangian.time([&] { g_sink = flow.lagrangian(rates, y_est, lambda, demand).value; },
                      kFlowReps);
  out.value.time([&] { g_sink = flow.app_throughput(rates, y_est); }, kFlowReps);
  out.taped.time([&] { g_sink = flow.sensitivity(rates, y_est).throughput; }, kFlowReps);

  const int max_tasks = engine.options().max_tasks;
  const std::vector<gp::Candidate> grid = gp::integer_grid(1, 1, max_tasks);
  const double joint = std::min(std::pow(static_cast<double>(max_tasks),
                                         static_cast<double>(dag.operators().size())),
                                1e12);
  const double beta = options.beta_scale *
                      gp::ucb_beta(static_cast<std::size_t>(joint), slot, options.delta);
  for (dag::NodeId id : dag.operators()) {
    const gp::GaussianProcess* model = controller.gp_for(id);
    if (model == nullptr || model->num_observations() == 0) continue;
    // A representative normalized target: the mean observed capacity.
    double target = 0.0;
    for (double y : model->targets()) target += y;
    target /= static_cast<double>(model->num_observations());
    out.acquisition.time([&] {
      const auto best = gp::select_target_tracking_ucb(*model, grid, target, beta);
      g_sink = best ? best->score : 0.0;
    });
    gp::GaussianProcess copy(*model);
    const std::vector<double> x{static_cast<double>(engine.tasks(id))};
    out.add_observation.time([&] { copy.add_observation(x, target); });
  }
}

/// End-of-run replays: one oracle solve per distinct offered load, and a
/// snapshot save/restore round trip of the controller.
void replay_end(core::DragsterController& controller, const streamsim::Engine& engine,
                const online::Budget& budget, const std::vector<double>& mid_slots,
                Replays& out) {
  const baselines::Oracle oracle(engine);
  std::vector<std::vector<long long>> seen;
  for (double at : mid_slots) {
    std::vector<long long> key;
    for (dag::NodeId id : engine.dag().sources())
      key.push_back(std::llround(engine.offered_rate(id, at)));
    if (std::find(seen.begin(), seen.end(), key) != seen.end()) continue;
    seen.push_back(key);
    const Clock::time_point begin = Clock::now();
    g_sink = oracle.optimal_at(at, budget).throughput;
    out.oracle_ms.push_back(1e3 * seconds_since(begin));
  }
  out.oracle_solves += seen.size();

  for (const dag::NodeId id : controller.planning_dag().operators())
    if (const gp::GaussianProcess* model = controller.gp_for(id))
      out.gp_observations += static_cast<double>(model->num_observations());

  // Restoring the state just saved leaves the controller unchanged.
  for (int rep = 0; rep < 5; ++rep) {
    Clock::time_point begin = Clock::now();
    resilience::SnapshotWriter writer;
    controller.save_state(writer);
    const std::string text = writer.str();
    out.snapshot_us.push_back(1e6 * seconds_since(begin));
    out.snapshot_bytes.push_back(static_cast<double>(text.size()));
    begin = Clock::now();
    resilience::SnapshotReader reader(text);
    controller.load_state(reader);
    out.restore_us.push_back(1e6 * seconds_since(begin));
  }
}

}  // namespace

std::vector<Episode> replay_layers(const Workload& workload, obs::Registry* registry,
                                   LayerMetrics& out) {
  Replays replays;
  std::vector<double> on_slot_ms;
  std::vector<double> step_self_ms;
  std::vector<Episode> episodes;
  std::vector<SingleJob> jobs = workload.probe_jobs();
  for (SingleJob& job : jobs) {
    auto* dragster = dynamic_cast<core::DragsterController*>(job.controller.get());
    TimedController timed(*job.controller);
    std::vector<double> job_on_slot;
    std::vector<double> mid_slots;
    std::size_t calls = 0;
    const auto after_step = [&] {
      const streamsim::SlotReport& report = job.engine->last_report();
      mid_slots.push_back(report.start_seconds + 0.5 * report.duration_s);
      if (calls++ > 0) job_on_slot.push_back(timed.last_on_slot_ms());
      if (dragster != nullptr) replay_slot(*dragster, *job.engine, calls, replays);
    };
    Episode episode = run_single(job, timed, registry, Clock::now(), after_step);
    for (std::size_t i = 0; i < episode.slot_ms.size(); ++i) {
      on_slot_ms.push_back(job_on_slot[i]);
      step_self_ms.push_back(episode.slot_ms[i] - job_on_slot[i]);
    }
    if (dragster != nullptr)
      replay_end(*dragster, *job.engine, job.options.budget, mid_slots, replays);
    episodes.push_back(std::move(episode));
  }
  const auto jobs_probed = static_cast<double>(std::max<std::size_t>(jobs.size(), 1));
  out["core.on_slot_ms"] = median(on_slot_ms);
  out["experiments.step_self_ms"] = median(step_self_ms);
  out["gp.observations"] = replays.gp_observations / jobs_probed;
  out["gp.acquisition_us"] = replays.acquisition.mean(1e6);
  out["gp.add_observation_us"] = replays.add_observation.mean(1e6);
  out["online.saddle_solve_us"] = replays.saddle.mean(1e6);
  out["online.ogd_step_us"] = replays.ogd.mean(1e6);
  out["dag.flow_solve_ns"] = replays.flow.mean(1e9);
  out["dag.lagrangian_ns"] = replays.lagrangian.mean(1e9);
  out["dag.value_vs_taped"] = replays.value.total > 0.0 ? replays.taped.total / replays.value.total
                                                        : 0.0;
  out["experiments.oracle_solves"] = static_cast<double>(replays.oracle_solves) / jobs_probed;
  out["experiments.oracle_ms"] = median(replays.oracle_ms);
  out["resilience.snapshot_bytes"] = median(replays.snapshot_bytes);
  out["resilience.snapshot_us"] = median(replays.snapshot_us);
  out["resilience.restore_us"] = median(replays.restore_us);
  return episodes;
}

std::map<std::string, double> sum_families(const std::string& exposition) {
  std::map<std::string, double> sums;
  std::istringstream lines(exposition);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty() || line[0] == '#') continue;
    const std::size_t name_end = line.find_first_of("{ ");
    const std::size_t value_start = line.rfind(' ');
    if (name_end == std::string::npos || value_start == std::string::npos) continue;
    sums[line.substr(0, name_end)] += std::stod(line.substr(value_start + 1));
  }
  return sums;
}

}  // namespace perfbench
