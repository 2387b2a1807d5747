// Actuation-layer tests: the epoch fence (dedupe / amend / supersede), the
// Pending -> Running pod lifecycle with partial-apply top-ups, admission
// rejection with retry/backoff and last-known-good rollback, deadline
// timeouts, crash reconciliation, the every-epoch-terminates invariant,
// snapshot round trips of in-flight operations, and the interplay with
// DragsterController repair and the ControllerSupervisor.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>

#include "actuation/actuation.hpp"
#include "common/error.hpp"
#include "core/dragster_controller.hpp"
#include "resilience/snapshot.hpp"
#include "resilience/supervisor.hpp"
#include "streamsim/engine.hpp"

namespace dragster::actuation {
namespace {

// Source(rate) -> worker -> sink with a linear USL surface and no noise —
// the same rig the fault tests use, so actuation effects are attributable.
struct ChaosSim {
  dag::NodeId src, op, sink;
  std::unique_ptr<streamsim::Engine> engine;

  explicit ChaosSim(double rate, int tasks = 1, std::uint64_t seed = 1) {
    dag::StreamDag dag;
    src = dag.add_source("src");
    op = dag.add_operator("worker");
    sink = dag.add_sink("sink");
    dag.add_edge(src, op, dag::identity_fn());
    dag.add_edge(op, sink, dag::identity_fn());
    dag.validate();
    streamsim::UslParams usl;
    usl.per_task_rate = 1000.0;
    usl.contention = 0.0;
    usl.coherence = 0.0;
    std::map<dag::NodeId, streamsim::UslParams> usl_map{{op, usl}};
    std::map<dag::NodeId, std::unique_ptr<streamsim::RateSchedule>> schedules;
    schedules[src] = std::make_unique<streamsim::ConstantRate>(rate);
    streamsim::EngineOptions options;
    options.slot_duration_s = 120.0;
    options.checkpoint_pause_s = 10.0;
    options.capacity_noise = 0.0;
    options.step_noise = 0.0;
    options.cpu_read_noise = 0.0;
    options.source_noise = 0.0;
    engine = std::make_unique<streamsim::Engine>(std::move(dag), std::move(usl_map),
                                                 std::move(schedules), options, seed);
    if (tasks != 1) {
      engine->set_tasks(op, tasks);
      engine->run_slot();  // absorb the initial reconfiguration pause
    }
  }
};

/// Every issued epoch must terminate in exactly one of {applied, rolled-back,
/// superseded} or still be the (single) live operation, and the audit trail
/// must agree with the per-operator counters.
void expect_epoch_invariant(const ActuationManager& manager) {
  struct Counts {
    std::size_t applied = 0, rolled_back = 0, superseded = 0, in_flight = 0, total = 0;
  };
  std::map<dag::NodeId, Counts> counts;
  for (const EpochRecord& record : manager.records()) {
    Counts& c = counts[record.op];
    c.total += 1;
    switch (record.outcome) {
      case EpochOutcome::kApplied: c.applied += 1; break;
      case EpochOutcome::kRolledBack: c.rolled_back += 1; break;
      case EpochOutcome::kSuperseded: c.superseded += 1; break;
      case EpochOutcome::kInFlight:
        c.in_flight += 1;
        // A non-terminal record must be THE live operation, same epoch.
        ASSERT_TRUE(manager.in_flight(record.op));
        ASSERT_TRUE(manager.in_flight_info(record.op).has_value());
        EXPECT_EQ(manager.in_flight_info(record.op)->epoch, record.epoch);
        break;
    }
  }
  for (const OperatorStats& stats : manager.operator_stats()) {
    const Counts& c = counts[stats.op];
    SCOPED_TRACE("operator " + stats.name);
    EXPECT_LE(c.in_flight, 1u);  // at most one live epoch per operator
    EXPECT_EQ(stats.issued, c.total);
    EXPECT_EQ(stats.applied, c.applied);
    EXPECT_EQ(stats.rolled_back, c.rolled_back);
    EXPECT_EQ(stats.superseded, c.superseded);
    EXPECT_EQ(stats.issued, c.applied + c.rolled_back + c.superseded + c.in_flight);
    if (!manager.in_flight(stats.op)) {
      EXPECT_EQ(c.in_flight, 0u);
    }
  }
}

const OperatorStats& stats_for(const std::vector<OperatorStats>& all, dag::NodeId op) {
  for (const OperatorStats& stats : all)
    if (stats.op == op) return stats;
  throw dragster::Error("no stats for operator");
}

// ---------------------------------------------------------------------------
// Pass-through and the basic pod lifecycle.
// ---------------------------------------------------------------------------

TEST(ActuationManager, InstantManagerAppliesWithinTheCall) {
  ChaosSim sim(800.0);
  ActuationManager manager(*sim.engine, ActuationOptions{}, 5);

  manager.set_tasks(sim.op, 4);
  EXPECT_EQ(sim.engine->tasks(sim.op), 4);
  EXPECT_FALSE(manager.in_flight(sim.op));
  EXPECT_EQ(manager.applied_tasks(sim.op), 4);
  EXPECT_EQ(manager.last_known_good_tasks(sim.op), 4);

  const OperatorStats stats = stats_for(manager.operator_stats(), sim.op);
  EXPECT_EQ(stats.issued, 1u);
  EXPECT_EQ(stats.applied, 1u);
  EXPECT_DOUBLE_EQ(stats.mean_slots_to_running(), 0.0);

  // Re-issuing the applied configuration is absorbed by the fence.
  manager.set_tasks(sim.op, 4);
  EXPECT_EQ(stats_for(manager.operator_stats(), sim.op).issued, 1u);
  expect_epoch_invariant(manager);
}

TEST(ActuationManager, PendingPodsBecomeRunningAfterTheLatency) {
  ChaosSim sim(800.0);
  ActuationOptions options;
  options.sched_latency_mean_slots = 2.0;
  ActuationManager manager(*sim.engine, options, 5);

  manager.set_tasks(sim.op, 4);
  EXPECT_EQ(sim.engine->tasks(sim.op), 1);  // nothing Running yet
  EXPECT_TRUE(manager.in_flight(sim.op));
  EXPECT_EQ(manager.in_flight_info(sim.op)->pods_pending, 3u);
  EXPECT_EQ(sim.engine->cluster().pending_pods("worker"), 3);

  manager.begin_slot();  // pods age to 1 < 2
  EXPECT_EQ(sim.engine->tasks(sim.op), 1);
  EXPECT_TRUE(manager.in_flight(sim.op));

  manager.begin_slot();  // pods age to 2 >= 2: all Running
  EXPECT_EQ(sim.engine->tasks(sim.op), 4);
  EXPECT_FALSE(manager.in_flight(sim.op));
  EXPECT_EQ(sim.engine->cluster().pending_pods("worker"), 0);

  const OperatorStats stats = stats_for(manager.operator_stats(), sim.op);
  EXPECT_EQ(stats.applied, 1u);
  EXPECT_DOUBLE_EQ(stats.mean_slots_to_running(), 2.0);
  EXPECT_EQ(manager.last_known_good_tasks(sim.op), 4);
  expect_epoch_invariant(manager);
}

TEST(ActuationManager, ScaleDownReleasesPodsWithinTheCall) {
  ChaosSim sim(800.0, /*tasks=*/6);
  ActuationOptions options;
  options.sched_latency_mean_slots = 3.0;  // slow scheduler, irrelevant down
  ActuationManager manager(*sim.engine, options, 5);

  manager.set_tasks(sim.op, 2);
  EXPECT_EQ(sim.engine->tasks(sim.op), 2);
  EXPECT_FALSE(manager.in_flight(sim.op));
  EXPECT_EQ(stats_for(manager.operator_stats(), sim.op).applied, 1u);
  expect_epoch_invariant(manager);
}

TEST(ActuationManager, PartialAppliesTopUpAndConverge) {
  // With jitter the pods land across several slots; every seed must converge
  // and at least one seed must show a strictly partial intermediate state.
  bool saw_partial = false;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    ChaosSim sim(800.0);
    ActuationOptions options;
    options.sched_latency_mean_slots = 1.5;
    options.sched_latency_jitter = 0.5;
    options.deadline_slots = 10;
    ActuationManager manager(*sim.engine, options, seed);

    manager.set_tasks(sim.op, 6);
    for (int slot = 0; slot < 6 && manager.in_flight(sim.op); ++slot) {
      manager.begin_slot();
      const int tasks = sim.engine->tasks(sim.op);
      if (tasks > 1 && tasks < 6) saw_partial = true;
      sim.engine->run_slot();
    }
    EXPECT_EQ(sim.engine->tasks(sim.op), 6);
    EXPECT_FALSE(manager.in_flight(sim.op));
    EXPECT_EQ(stats_for(manager.operator_stats(), sim.op).retried, 0u);
    expect_epoch_invariant(manager);
  }
  EXPECT_TRUE(saw_partial);
}

// ---------------------------------------------------------------------------
// Epoch fence: amend and supersede.
// ---------------------------------------------------------------------------

TEST(ActuationManager, NewerDecisionSupersedesAndCancelsPendingPods) {
  ChaosSim sim(800.0);
  ActuationOptions options;
  options.sched_latency_mean_slots = 3.0;
  ActuationManager manager(*sim.engine, options, 5);

  manager.set_tasks(sim.op, 5);
  EXPECT_EQ(sim.engine->cluster().pending_pods("worker"), 4);
  manager.begin_slot();  // a different round, so the next command supersedes

  manager.set_tasks(sim.op, 2);
  // Epoch 1 is dead; its four pods were cancelled, epoch 2 wants one pod.
  ASSERT_GE(manager.records().size(), 2u);
  EXPECT_EQ(manager.records()[0].outcome, EpochOutcome::kSuperseded);
  EXPECT_EQ(manager.in_flight_info(sim.op)->epoch, 2u);
  EXPECT_EQ(sim.engine->cluster().pending_pods("worker"), 1);

  for (int slot = 0; slot < 4; ++slot) manager.begin_slot();
  EXPECT_EQ(sim.engine->tasks(sim.op), 2);  // the engine never saw 5
  EXPECT_FALSE(manager.in_flight(sim.op));

  const OperatorStats stats = stats_for(manager.operator_stats(), sim.op);
  EXPECT_EQ(stats.issued, 2u);
  EXPECT_EQ(stats.superseded, 1u);
  EXPECT_EQ(stats.applied, 1u);
  expect_epoch_invariant(manager);
}

TEST(ActuationManager, SameRoundCommandsAmendOneEpoch) {
  // set_pod_spec followed by set_tasks in the same decision round must fold
  // into one epoch and land as one atomic reconfiguration.
  ChaosSim sim(800.0, /*tasks=*/2);
  ActuationOptions options;
  options.sched_latency_mean_slots = 1.0;
  options.deadline_slots = 5;
  ActuationManager manager(*sim.engine, options, 5);

  const cluster::PodSpec big{2.0, 4.0};
  manager.set_pod_spec(sim.op, big);
  manager.set_tasks(sim.op, 4);
  ASSERT_EQ(manager.records().size(), 1u);
  EXPECT_EQ(manager.records()[0].desired_tasks, 4);
  EXPECT_TRUE(manager.in_flight_info(sim.op)->spec_change);
  // A spec change replaces the whole deployment: four replacement pods.
  EXPECT_EQ(manager.in_flight_info(sim.op)->pods_pending, 4u);
  EXPECT_EQ(sim.engine->cluster().pending_pods("worker"), 4);

  manager.begin_slot();  // all replacements Running: atomic swap
  EXPECT_EQ(sim.engine->tasks(sim.op), 4);
  EXPECT_TRUE(sim.engine->pod_spec(sim.op) == big);
  EXPECT_FALSE(manager.in_flight(sim.op));
  EXPECT_EQ(stats_for(manager.operator_stats(), sim.op).issued, 1u);
  expect_epoch_invariant(manager);
}

// ---------------------------------------------------------------------------
// Admission gate, retry/backoff, rollback.
// ---------------------------------------------------------------------------

TEST(ActuationManager, AdmissionOutageExhaustsRetriesThenRollsBack) {
  ChaosSim sim(800.0);
  ActuationOptions options;
  options.deadline_slots = 1;
  options.max_retries = 1;
  options.backoff_base_slots = 1.0;
  options.backoff_jitter_slots = 0.0;
  ActuationManager manager(*sim.engine, options, 5);

  manager.set_admission_outage(true);
  manager.set_tasks(sim.op, 4);
  // Attempt 1 was rejected; the retry is armed behind a one-slot backoff.
  EXPECT_TRUE(manager.in_flight(sim.op));
  EXPECT_FALSE(manager.in_flight_info(sim.op)->admitted);
  EXPECT_EQ(sim.engine->tasks(sim.op), 1);

  manager.begin_slot();  // backoff expires, attempt 2 rejected -> exhausted
  EXPECT_FALSE(manager.in_flight(sim.op));
  EXPECT_EQ(sim.engine->tasks(sim.op), 1);  // held at last-known-good

  const OperatorStats stats = stats_for(manager.operator_stats(), sim.op);
  EXPECT_EQ(stats.issued, 1u);
  EXPECT_EQ(stats.rolled_back, 1u);
  EXPECT_EQ(stats.retried, 1u);
  EXPECT_EQ(stats.admission_rejects, 2u);
  expect_epoch_invariant(manager);
}

TEST(ActuationManager, RetrySucceedsOnceTheOutageClears) {
  ChaosSim sim(800.0);
  ActuationOptions options;
  options.max_retries = 2;
  options.backoff_base_slots = 1.0;
  options.backoff_jitter_slots = 0.0;
  ActuationManager manager(*sim.engine, options, 5);

  manager.set_admission_outage(true);
  manager.set_tasks(sim.op, 4);
  EXPECT_EQ(sim.engine->tasks(sim.op), 1);

  manager.set_admission_outage(false);
  manager.begin_slot();  // retry is admitted; zero latency applies instantly
  EXPECT_EQ(sim.engine->tasks(sim.op), 4);
  EXPECT_FALSE(manager.in_flight(sim.op));

  const OperatorStats stats = stats_for(manager.operator_stats(), sim.op);
  EXPECT_EQ(stats.applied, 1u);
  EXPECT_EQ(stats.retried, 1u);
  EXPECT_EQ(stats.admission_rejects, 1u);
  EXPECT_DOUBLE_EQ(stats.mean_slots_to_running(), 1.0);
  expect_epoch_invariant(manager);
}

TEST(ActuationManager, PodCapRejectsScaleUpsBeyondTheLimit) {
  ChaosSim sim(800.0);
  ActuationOptions options;
  options.admission.max_total_pods = 4;
  options.max_retries = 0;  // reject -> immediate rollback
  ActuationManager manager(*sim.engine, options, 5);

  manager.set_tasks(sim.op, 4);  // exactly at the cap: admitted
  EXPECT_EQ(sim.engine->tasks(sim.op), 4);

  manager.set_tasks(sim.op, 5);  // one over: rejected, rolled back to 4
  EXPECT_EQ(sim.engine->tasks(sim.op), 4);
  EXPECT_FALSE(manager.in_flight(sim.op));

  const OperatorStats stats = stats_for(manager.operator_stats(), sim.op);
  EXPECT_EQ(stats.applied, 1u);
  EXPECT_EQ(stats.rolled_back, 1u);
  EXPECT_EQ(stats.admission_rejects, 1u);
  expect_epoch_invariant(manager);
}

TEST(ActuationManager, SpendCapRejectsScaleUpsBeyondTheBudgetRate) {
  ChaosSim sim(800.0);
  ActuationOptions options;
  // Standard pricing: $0.10/h per standard pod, so 4 pods fit and 5 do not.
  options.admission.max_cost_rate_per_hour = 0.45;
  options.max_retries = 0;
  ActuationManager manager(*sim.engine, options, 5);

  manager.set_tasks(sim.op, 4);
  EXPECT_EQ(sim.engine->tasks(sim.op), 4);
  manager.set_tasks(sim.op, 5);
  EXPECT_EQ(sim.engine->tasks(sim.op), 4);
  EXPECT_EQ(stats_for(manager.operator_stats(), sim.op).rolled_back, 1u);
  expect_epoch_invariant(manager);
}

TEST(ActuationManager, DeadlineTimeoutRetriesThenRollsBack) {
  ChaosSim sim(800.0);
  ActuationOptions options;
  options.sched_latency_mean_slots = 5.0;  // pods never land inside the deadline
  options.deadline_slots = 2;
  options.max_retries = 1;
  options.backoff_base_slots = 1.0;
  options.backoff_jitter_slots = 0.0;
  ActuationManager manager(*sim.engine, options, 5);

  manager.set_tasks(sim.op, 3);
  for (int slot = 0; slot < 5; ++slot) manager.begin_slot();
  // Attempt 1 timed out at age 2, the retry backed off one slot, attempt 2
  // timed out at age 2: retries exhausted, rolled back.
  EXPECT_FALSE(manager.in_flight(sim.op));
  EXPECT_EQ(sim.engine->tasks(sim.op), 1);

  const OperatorStats stats = stats_for(manager.operator_stats(), sim.op);
  EXPECT_EQ(stats.rolled_back, 1u);
  EXPECT_EQ(stats.retried, 1u);
  EXPECT_EQ(stats.admission_rejects, 0u);
  expect_epoch_invariant(manager);
}

TEST(ActuationManager, LatencyMultiplierStretchesScheduling) {
  ChaosSim sim(800.0);
  ActuationOptions options;
  options.sched_latency_mean_slots = 1.0;
  options.deadline_slots = 10;
  ActuationManager manager(*sim.engine, options, 5);

  manager.set_latency_multiplier(3.0);  // the scheddelay fault seam
  manager.set_tasks(sim.op, 3);
  manager.begin_slot();
  manager.begin_slot();
  EXPECT_TRUE(manager.in_flight(sim.op));  // would have landed at 1x
  manager.begin_slot();
  EXPECT_EQ(sim.engine->tasks(sim.op), 3);
  EXPECT_FALSE(manager.in_flight(sim.op));
  EXPECT_DOUBLE_EQ(stats_for(manager.operator_stats(), sim.op).mean_slots_to_running(), 3.0);
}

// ---------------------------------------------------------------------------
// Reconciliation against engine truth.
// ---------------------------------------------------------------------------

TEST(ActuationManager, CrashMidFlightIsToppedUpWithoutCountingARetry) {
  ChaosSim sim(2500.0, /*tasks=*/3);
  ActuationOptions options;
  options.sched_latency_mean_slots = 2.0;
  options.deadline_slots = 10;
  ActuationManager manager(*sim.engine, options, 5);

  manager.set_tasks(sim.op, 5);  // two pods Pending
  manager.begin_slot();
  sim.engine->inject_pod_failure(sim.op);  // 3 -> 2 Running mid-flight
  ASSERT_EQ(sim.engine->tasks(sim.op), 2);

  for (int slot = 0; slot < 6 && manager.in_flight(sim.op); ++slot) manager.begin_slot();
  // The two requested pods landed AND the crashed one was re-requested by the
  // reconcile pass — all within the same epoch, with no retry counted.
  EXPECT_EQ(sim.engine->tasks(sim.op), 5);
  const OperatorStats stats = stats_for(manager.operator_stats(), sim.op);
  EXPECT_EQ(stats.issued, 1u);
  EXPECT_EQ(stats.applied, 1u);
  EXPECT_EQ(stats.retried, 0u);
  expect_epoch_invariant(manager);
}

TEST(ActuationManager, EngineRisingUnderAPendingScaleUpNeverOvershootsTheTarget) {
  // A scale-down, then a node crash tears pods away, and the reconfiguration
  // aborts on a failed checkpoint: the engine returns to its pre-scale-down
  // count *after* the reconcile pass adopted the post-crash one.  The next
  // scale-up is therefore sized from a stale mirror, and once the engine
  // truth is re-adopted the requested pods exceed what the target needs.
  // Landing all of them used to push the engine past max_tasks (10) and make
  // Engine::set_tasks throw.
  ChaosSim sim(2500.0, /*tasks=*/5);
  ActuationOptions options;
  options.sched_latency_mean_slots = 2.0;
  options.deadline_slots = 10;
  ActuationManager manager(*sim.engine, options, 5);

  manager.begin_slot();
  manager.set_tasks(sim.op, 3);  // scale-down, within the call; rollback point 5
  ASSERT_EQ(sim.engine->tasks(sim.op), 3);

  sim.engine->inject_pod_failure(sim.op);  // node crash: 3 -> 1
  sim.engine->inject_pod_failure(sim.op);
  sim.engine->arm_checkpoint_failure(3);
  manager.begin_slot();  // reconcile adopts 1
  ASSERT_EQ(manager.applied_tasks(sim.op), 1);
  const streamsim::SlotReport& aborted = sim.engine->run_slot();
  ASSERT_TRUE(aborted.checkpoint_aborted);
  ASSERT_EQ(sim.engine->tasks(sim.op), 5);  // the abort restored the pre-crash count

  manager.set_tasks(sim.op, 9);  // sized from the stale mirror: 8 pods
  EXPECT_EQ(sim.engine->cluster().pending_pods("worker"), 8);

  manager.begin_slot();  // adopts 5; only 4 pods are still needed
  EXPECT_EQ(manager.applied_tasks(sim.op), 5);
  EXPECT_EQ(manager.in_flight_info(sim.op)->pods_pending, 4u);
  EXPECT_EQ(sim.engine->cluster().pending_pods("worker"), 4);

  EXPECT_NO_THROW(manager.begin_slot());  // the pods land: 5 + 4, not 5 + 8
  EXPECT_EQ(sim.engine->tasks(sim.op), 9);
  EXPECT_EQ(manager.applied_tasks(sim.op), 9);
  EXPECT_FALSE(manager.in_flight(sim.op));
  EXPECT_EQ(sim.engine->cluster().pending_pods("worker"), 0);
  const OperatorStats stats = stats_for(manager.operator_stats(), sim.op);
  EXPECT_EQ(stats.applied, 2u);
  EXPECT_EQ(stats.retried, 0u);
  expect_epoch_invariant(manager);
}

TEST(ActuationManager, EngineReachingTheTargetOnItsOwnEndsTheScaleUp) {
  // Same drift, but the aborted checkpoint lands the engine at or above the
  // pending target: nothing is left to schedule, so the operation completes
  // (scaling down to the target when the engine overshot it).
  for (const int target : {5, 4}) {
    SCOPED_TRACE("target " + std::to_string(target));
    ChaosSim sim(2500.0, /*tasks=*/5);
    ActuationOptions options;
    options.sched_latency_mean_slots = 2.0;
    options.deadline_slots = 10;
    ActuationManager manager(*sim.engine, options, 5);

    manager.begin_slot();
    manager.set_tasks(sim.op, 3);
    sim.engine->inject_pod_failure(sim.op);
    sim.engine->inject_pod_failure(sim.op);
    sim.engine->arm_checkpoint_failure(3);
    manager.begin_slot();
    sim.engine->run_slot();
    ASSERT_EQ(sim.engine->tasks(sim.op), 5);

    manager.set_tasks(sim.op, target);  // stale mirror 1: requests target - 1 pods
    ASSERT_TRUE(manager.in_flight(sim.op));
    manager.begin_slot();
    EXPECT_EQ(sim.engine->tasks(sim.op), target);
    EXPECT_FALSE(manager.in_flight(sim.op));
    EXPECT_EQ(sim.engine->cluster().pending_pods("worker"), 0);
    expect_epoch_invariant(manager);
  }
}

TEST(ActuationManager, ScriptedChaosKeepsTheInvariant) {
  // A mixed script: supersedes, an admission-outage window, a pod crash and
  // scale-downs.  Whatever happens, every epoch must terminate exactly once
  // and the applied mirror must track the engine.
  ChaosSim sim(1200.0);
  ActuationOptions options;
  options.sched_latency_mean_slots = 1.5;
  options.sched_latency_jitter = 0.4;
  options.deadline_slots = 2;
  options.max_retries = 1;
  options.backoff_base_slots = 1.0;
  options.backoff_jitter_slots = 0.5;
  ActuationManager manager(*sim.engine, options, 9);

  const int targets[] = {4, 2, 6, 3, 5, 1, 4};
  std::size_t next_target = 0;
  for (int slot = 0; slot < 16; ++slot) {
    if (slot == 4) manager.set_admission_outage(true);
    if (slot == 7) manager.set_admission_outage(false);
    manager.begin_slot();
    // Right after the reconcile pass the applied mirror tracks the engine
    // (a mid-slot pod crash legitimately diverges them until the next pass).
    EXPECT_EQ(manager.applied_tasks(sim.op), sim.engine->tasks(sim.op));
    if (slot % 2 == 0 && next_target < std::size(targets))
      manager.set_tasks(sim.op, targets[next_target++]);
    if (slot == 9) sim.engine->inject_pod_failure(sim.op);
    sim.engine->run_slot();
    expect_epoch_invariant(manager);
  }
  const OperatorStats stats = stats_for(manager.operator_stats(), sim.op);
  EXPECT_EQ(stats.issued, std::size(targets));
  EXPECT_GE(stats.superseded + stats.rolled_back, 1u);
  expect_epoch_invariant(manager);
}

// ---------------------------------------------------------------------------
// Snapshot round trip.
// ---------------------------------------------------------------------------

TEST(ActuationSnapshot, InFlightOperationRoundTripsBitIdentically) {
  ActuationOptions options;
  options.sched_latency_mean_slots = 2.0;
  options.sched_latency_jitter = 0.3;
  options.deadline_slots = 8;
  ChaosSim sim1(1200.0, 1, 7), sim2(1200.0, 1, 7);
  ActuationManager m1(*sim1.engine, options, 11);
  ActuationManager m2(*sim2.engine, options, 11);

  auto step = [](ChaosSim& sim, ActuationManager& manager) {
    manager.begin_slot();
    sim.engine->run_slot();
  };

  // Drive both twins identically into the middle of a rescale.
  m1.set_tasks(sim1.op, 6);
  m2.set_tasks(sim2.op, 6);
  step(sim1, m1);
  step(sim2, m2);
  ASSERT_TRUE(m1.in_flight(sim1.op));

  resilience::SnapshotWriter writer1;
  m1.save_state(writer1);
  const std::string snapshot = writer1.str();

  // Restore into a FRESH manager bound to the twin engine: the pending
  // operation (drawn latencies, ages, attempt state) must round-trip to the
  // bit — re-serializing yields the identical document.
  ActuationManager m3(*sim2.engine, options, 11);
  resilience::SnapshotReader reader(snapshot);
  m3.load_state(reader);
  resilience::SnapshotWriter writer2;
  m3.save_state(writer2);
  EXPECT_EQ(snapshot, writer2.str());
  ASSERT_TRUE(m3.in_flight(sim2.op));
  EXPECT_EQ(m3.in_flight_info(sim2.op)->pods_pending, m1.in_flight_info(sim1.op)->pods_pending);

  // Both continue on the exact same trajectory, including a later command.
  for (int slot = 0; slot < 5; ++slot) {
    step(sim1, m1);
    step(sim2, m3);
    SCOPED_TRACE("slot " + std::to_string(slot));
    EXPECT_EQ(sim1.engine->tasks(sim1.op), sim2.engine->tasks(sim2.op));
    EXPECT_EQ(m1.applied_tasks(sim1.op), m3.applied_tasks(sim2.op));
    EXPECT_EQ(m1.in_flight(sim1.op), m3.in_flight(sim2.op));
  }
  m1.set_tasks(sim1.op, 3);
  m3.set_tasks(sim2.op, 3);
  for (int slot = 0; slot < 3; ++slot) {
    step(sim1, m1);
    step(sim2, m3);
  }
  EXPECT_EQ(sim1.engine->tasks(sim1.op), sim2.engine->tasks(sim2.op));

  const OperatorStats a = stats_for(m1.operator_stats(), sim1.op);
  const OperatorStats b = stats_for(m3.operator_stats(), sim2.op);
  EXPECT_EQ(a.issued, b.issued);
  EXPECT_EQ(a.applied, b.applied);
  EXPECT_EQ(a.rolled_back, b.rolled_back);
  EXPECT_EQ(a.retried, b.retried);
  EXPECT_DOUBLE_EQ(a.slots_to_running_sum, b.slots_to_running_sum);
  expect_epoch_invariant(m1);
  expect_epoch_invariant(m3);
}

TEST(ActuationSnapshot, LoadRejectsAForeignSeed) {
  ChaosSim sim(800.0);
  ActuationManager source(*sim.engine, ActuationOptions{}, 11);
  resilience::SnapshotWriter writer;
  source.save_state(writer);

  ActuationManager target(*sim.engine, ActuationOptions{}, 12);
  resilience::SnapshotReader reader(writer.str());
  EXPECT_THROW(target.load_state(reader), Error);
}

// ---------------------------------------------------------------------------
// Interplay with the controller and the supervisor.
// ---------------------------------------------------------------------------

TEST(ActuationManager, RepairDoesNotSpamEpochsWhileARescaleIsInFlight) {
  ChaosSim sim(2500.0, /*tasks=*/4);
  core::DragsterOptions dopts;
  dopts.include_backlog_in_demand = false;  // keep the target rate-based while degraded
  core::DragsterController controller{dopts};
  controller.initialize(sim.engine->monitor(), *sim.engine);
  for (int slot = 0; slot < 3; ++slot) {
    sim.engine->run_slot();
    controller.on_slot(sim.engine->monitor(), *sim.engine);
  }
  const int commanded = controller.commanded_tasks(sim.op);
  ASSERT_EQ(sim.engine->tasks(sim.op), commanded);
  ASSERT_GE(commanded, 3);

  // Switch actuation to an async manager, then lose two pods.
  ActuationOptions options;
  options.sched_latency_mean_slots = 2.0;
  options.deadline_slots = 10;
  ActuationManager manager(*sim.engine, options, 5);
  sim.engine->inject_pod_failure(sim.op);
  sim.engine->inject_pod_failure(sim.op);

  const int slots = 8;
  for (int slot = 0; slot < slots; ++slot) {
    manager.begin_slot();
    sim.engine->run_slot();
    controller.on_slot(sim.engine->monitor(), manager);
  }
  // The repair went out as one epoch; while pods were Pending,
  // repair_lost_pods held off (in_flight fence) and per-slot re-commands
  // were absorbed by the target dedupe.  Epochs may still appear when the
  // controller genuinely re-decides, but never one per slot.
  EXPECT_GE(manager.records().size(), 1u);
  EXPECT_LT(manager.records().size(), static_cast<std::size_t>(slots) - 1);
  if (!manager.in_flight(sim.op)) {
    // Eventual consistency: the engine carries exactly what was commanded.
    EXPECT_EQ(sim.engine->tasks(sim.op), controller.commanded_tasks(sim.op));
  }
  EXPECT_GE(sim.engine->tasks(sim.op), 2);  // the damage was repaired
  expect_epoch_invariant(manager);
}

/// Commands a fixed task count for one operator every slot — the simplest
/// controller that exercises re-issue behavior.
class HoldController final : public core::Controller {
 public:
  HoldController(dag::NodeId op, int target) : op_(op), target_(target) {}
  [[nodiscard]] std::string name() const override { return "hold"; }
  void on_slot(const streamsim::JobMonitor&, streamsim::ScalingActuator& actuator) override {
    actuator.set_tasks(op_, target_);
  }

 private:
  dag::NodeId op_;
  int target_;
};

TEST(SupervisorActuation, InFlightRescaleDoesNotCountAsFlapping) {
  ChaosSim sim(1200.0);
  ActuationOptions aopts;
  aopts.sched_latency_mean_slots = 6.0;  // rescale spans many slots
  aopts.deadline_slots = 10;
  ActuationManager manager(*sim.engine, aopts, 5);

  resilience::SupervisorOptions sopts;
  sopts.flap_window = 2;  // hair trigger: any two consecutive real changes trip
  sopts.flap_warmup = 1;
  resilience::ControllerSupervisor supervised(std::make_unique<HoldController>(sim.op, 6),
                                              sopts);
  supervised.initialize(sim.engine->monitor(), manager);

  for (int slot = 0; slot < 6; ++slot) {
    manager.begin_slot();
    sim.engine->run_slot();
    supervised.on_slot(sim.engine->monitor(), manager);
  }
  // The controller re-commanded 6 every slot, but only the first created an
  // epoch; holding course through a slow actuation is not flapping.
  EXPECT_EQ(supervised.stats().invariant_trips, 0u);
  EXPECT_EQ(supervised.state(), resilience::SupervisorState::kHealthy);
  EXPECT_EQ(stats_for(manager.operator_stats(), sim.op).issued, 1u);
  expect_epoch_invariant(manager);
}

TEST(SupervisorActuation, SafeModeHoldsLastKnownGoodNotTheHalfAppliedConfig) {
  ChaosSim sim(1200.0, /*tasks=*/3);
  ActuationOptions aopts;
  aopts.sched_latency_mean_slots = 3.0;
  aopts.sched_latency_jitter = 0.4;  // pods straggle in: partial applies
  aopts.deadline_slots = 10;
  ActuationManager manager(*sim.engine, aopts, 5);

  resilience::SupervisorOptions sopts;
  sopts.snapshot_every = 1;
  resilience::ControllerSupervisor supervised(std::make_unique<HoldController>(sim.op, 6),
                                              sopts);
  supervised.initialize(sim.engine->monitor(), manager);

  for (int slot = 0; slot < 10; ++slot) {
    manager.begin_slot();
    sim.engine->run_slot();
    if (slot == 1) supervised.inject_crash();  // lands while pods are Pending
    supervised.on_slot(sim.engine->monitor(), manager);
    // Safe mode re-issues the last committed decision (6).  The fence absorbs
    // it into the live epoch, so the half-applied intermediate count never
    // becomes a target of its own.
    for (const EpochRecord& record : manager.records())
      EXPECT_EQ(record.desired_tasks, 6);
  }
  EXPECT_EQ(supervised.stats().crashes_injected, 1u);
  EXPECT_EQ(supervised.state(), resilience::SupervisorState::kHealthy);
  ASSERT_EQ(manager.records().size(), 1u);  // one epoch start to finish
  EXPECT_EQ(manager.records()[0].outcome, EpochOutcome::kApplied);
  EXPECT_EQ(sim.engine->tasks(sim.op), 6);
  EXPECT_EQ(manager.last_known_good_tasks(sim.op), 6);
  expect_epoch_invariant(manager);
}

// ---------------------------------------------------------------------------
// Guard rails.
// ---------------------------------------------------------------------------

TEST(ActuationManager, RejectsInvalidOptionsAndTargets) {
  ChaosSim sim(800.0);
  ActuationOptions bad;
  bad.sched_latency_jitter = 1.0;
  EXPECT_THROW(ActuationManager(*sim.engine, bad, 1), Error);
  bad = ActuationOptions{};
  bad.deadline_slots = 0;
  EXPECT_THROW(ActuationManager(*sim.engine, bad, 1), Error);

  ActuationManager manager(*sim.engine, ActuationOptions{}, 1);
  EXPECT_THROW(manager.set_tasks(sim.op, 0), Error);
  EXPECT_THROW(manager.set_tasks(sim.src, 2), Error);  // not an operator
  EXPECT_THROW(manager.set_latency_multiplier(0.0), Error);
}

}  // namespace
}  // namespace dragster::actuation
