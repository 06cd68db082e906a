// Failure-detector coverage: heartbeat bookkeeping, detection-latency
// bounds, false suspicion + reconciliation (with the auditor's
// ledger-digest check), quarantine (including ChainScheduler slot
// denial), suspicion-timeout validation, and the oracle-parity
// guarantee — detector on + no chaos must be timing-identical to the
// pre-detector model.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "cluster/chaos.hpp"
#include "cluster/detector.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/scheduler.hpp"
#include "fixtures.hpp"
#include "mapred/slot_broker.hpp"
#include "workloads/scenario.hpp"

namespace rcmp {
namespace {

using namespace rcmp::literals;
using cluster::DetectionKind;
using cluster::DetectorConfig;
using cluster::FailureDetector;
using cluster::FaultEvent;
using cluster::FaultMode;
using cluster::FaultSchedule;
using core::Strategy;
using testfx::chaos_config;
using testfx::reference_for;
using testfx::spec_of;
using testfx::strat;
using Fixture = testfx::SimFixture;
using workloads::Scenario;

/// A bare cluster + detector, with helpers to schedule faults and run
/// the simulation to a horizon (the detector's heartbeat loop would
/// otherwise keep the event queue alive forever).
struct DetectorFixture {
  explicit DetectorFixture(std::uint32_t nodes = 4,
                           DetectorConfig cfg = {})
      : cluster(f.sim, f.net, spec_of(nodes)), det(f.sim, cluster, cfg) {
    det.on_detection([this](cluster::NodeId n, DetectionKind kind) {
      detections.emplace_back(n, kind);
    });
    det.on_reconcile(
        [this](cluster::NodeId n) { reconciled.push_back(n); });
  }

  void run_until(SimTime horizon) {
    det.start();
    f.sim.schedule_after(horizon, [this] { det.stop(); });
    f.sim.run();
  }

  Fixture f;
  cluster::Cluster cluster;
  FailureDetector det;
  std::vector<std::pair<cluster::NodeId, DetectionKind>> detections;
  std::vector<cluster::NodeId> reconciled;
};

TEST(Detector, HeartbeatsArriveEveryIntervalFromEveryNode) {
  DetectorConfig cfg;
  cfg.heartbeat_interval = 3.0;
  DetectorFixture d(/*nodes=*/4, cfg);
  d.run_until(30.0);
  // 4 nodes emit at t=3,6,...,30 — the t=30 emission races the stop()
  // event, so expect at least the first nine rounds.
  EXPECT_GE(d.det.heartbeats_received(), 4u * 9u);
  EXPECT_EQ(d.det.heartbeats_dropped(), 0u);
  EXPECT_EQ(d.det.suspicions(), 0u);
  EXPECT_TRUE(d.detections.empty());
}

TEST(Detector, DeadNodeDetectedWithinTimeoutPlusOneInterval) {
  DetectorConfig cfg;
  cfg.heartbeat_interval = 3.0;
  cfg.suspicion_timeout = 12.0;
  DetectorFixture d(/*nodes=*/4, cfg);
  const SimTime kill_time = 10.0;
  d.f.sim.schedule_after(kill_time, [&] { d.cluster.kill(1); });
  d.run_until(60.0);

  ASSERT_EQ(d.detections.size(), 1u);
  EXPECT_EQ(d.detections[0].first, 1u);
  EXPECT_EQ(d.detections[0].second, DetectionKind::kDeadNode);
  EXPECT_EQ(d.det.suspicions(), 1u);
  EXPECT_EQ(d.det.false_suspicions(), 0u);
  // The deadline is armed from the LAST heartbeat and the failure lands
  // somewhere inside the following interval, so the observed detection
  // latency is bounded by timeout ± one heartbeat interval.
  EXPECT_GE(d.det.last_time_to_detect(),
            cfg.suspicion_timeout - cfg.heartbeat_interval - 1e-9);
  EXPECT_LE(d.det.last_time_to_detect(),
            cfg.suspicion_timeout + cfg.heartbeat_interval + 1e-9);
}

TEST(Detector, DroppedHeartbeatsFalselySuspectThenReconcile) {
  DetectorConfig cfg;
  cfg.heartbeat_interval = 3.0;
  cfg.suspicion_timeout = 9.0;
  DetectorFixture d(/*nodes=*/4, cfg);
  // Suppress node 2's heartbeats for longer than the timeout: the
  // master must falsely suspect it, then lift the suspicion when the
  // heartbeats come back.
  d.f.sim.schedule_after(5.0, [&] { d.det.drop_heartbeats(2, 20.0); });
  d.run_until(60.0);

  ASSERT_EQ(d.detections.size(), 1u);
  EXPECT_EQ(d.detections[0].first, 2u);
  EXPECT_EQ(d.detections[0].second, DetectionKind::kFalseSuspicion);
  EXPECT_EQ(d.det.false_suspicions(), 1u);
  EXPECT_EQ(d.reconciled, (std::vector<cluster::NodeId>{2}));
  EXPECT_FALSE(d.det.suspected(2));
  EXPECT_GT(d.det.heartbeats_dropped(), 0u);
  // A false suspicion is not a detection: the latency stat never moved.
  EXPECT_LT(d.det.last_time_to_detect(), 0.0);
}

TEST(Detector, PartitionedNodeSuspectedAndReconciledOnHeal) {
  DetectorConfig cfg;
  cfg.heartbeat_interval = 3.0;
  cfg.suspicion_timeout = 9.0;
  DetectorFixture d(/*nodes=*/4, cfg);
  d.f.sim.schedule_after(5.0, [&] { d.cluster.set_partitioned(3, true); });
  d.f.sim.schedule_after(30.0,
                         [&] { d.cluster.set_partitioned(3, false); });
  d.run_until(60.0);

  ASSERT_EQ(d.detections.size(), 1u);
  EXPECT_EQ(d.detections[0].second, DetectionKind::kFalseSuspicion);
  EXPECT_EQ(d.reconciled, (std::vector<cluster::NodeId>{3}));
  EXPECT_TRUE(d.det.schedulable(3));
}

TEST(Detector, StorageLossRidesTheNextHeartbeat) {
  DetectorConfig cfg;
  cfg.heartbeat_interval = 3.0;
  cfg.suspicion_timeout = 12.0;
  DetectorFixture d(/*nodes=*/4, cfg);
  const SimTime fail_time = 7.0;
  d.f.sim.schedule_after(fail_time, [&] { d.cluster.fail_disk(1); });
  d.run_until(40.0);

  ASSERT_EQ(d.detections.size(), 1u);
  EXPECT_EQ(d.detections[0].second, DetectionKind::kStorageLoss);
  // The DataNode reports the swap in its next heartbeat (t=9).
  EXPECT_LE(d.det.last_time_to_detect(), cfg.heartbeat_interval + 1e-9);
  EXPECT_EQ(d.det.suspicions(), 0u);
}

TEST(Detector, FailureOnSuspectedNodeIsDeliveredExactlyOnce) {
  DetectorConfig cfg;
  cfg.heartbeat_interval = 3.0;
  cfg.suspicion_timeout = 9.0;
  DetectorFixture d(/*nodes=*/4, cfg);
  // Node 1 is falsely suspected (no heartbeat, no armed deadline), and
  // only THEN actually dies: neither a heartbeat nor a deadline will
  // ever report the kill, so the delayed re-detection path must — once.
  d.f.sim.schedule_after(2.0, [&] { d.det.drop_heartbeats(1, 200.0); });
  d.f.sim.schedule_after(30.0, [&] { d.cluster.kill(1); });
  d.run_until(120.0);

  ASSERT_EQ(d.detections.size(), 2u);
  EXPECT_EQ(d.detections[0].second, DetectionKind::kFalseSuspicion);
  EXPECT_EQ(d.detections[1].second, DetectionKind::kDeadNode);
  EXPECT_EQ(d.detections[1].first, 1u);
  EXPECT_TRUE(d.reconciled.empty());
  EXPECT_FALSE(d.det.suspected(1));
}

TEST(Detector, NonPositiveSuspicionTimeoutIsConfigError) {
  // Never silently arm a zero-second (or negative) deadline.
  EXPECT_DOUBLE_EQ(DetectorFixture(/*nodes=*/2).det.suspicion_timeout(),
                   30.0);
  for (SimTime timeout : {0.0, -3.0}) {
    DetectorConfig cfg;
    cfg.suspicion_timeout = timeout;
    EXPECT_THROW(DetectorFixture(/*nodes=*/2, cfg), ConfigError);
  }
}

TEST(Detector, QuarantineAfterThresholdButNeverTheLastNode) {
  DetectorConfig cfg;
  cfg.quarantine_threshold = 3;
  DetectorFixture d(/*nodes=*/3, cfg);
  d.det.start();
  for (int i = 0; i < 3; ++i) d.det.record_task_failure(0);
  EXPECT_TRUE(d.det.quarantined(0));
  EXPECT_FALSE(d.det.schedulable(0));
  EXPECT_EQ(d.det.quarantines(), 1u);
  for (int i = 0; i < 3; ++i) d.det.record_task_failure(1);
  EXPECT_TRUE(d.det.quarantined(1));
  // Node 2 is the last schedulable compute node: blacklisting it would
  // wedge the cluster, so the threshold is ignored.
  for (int i = 0; i < 10; ++i) d.det.record_task_failure(2);
  EXPECT_FALSE(d.det.quarantined(2));
  EXPECT_TRUE(d.det.schedulable(2));
  EXPECT_EQ(d.det.task_failures(2), 10u);
  d.det.stop();
  d.f.sim.run();
}

TEST(Detector, ChainSchedulerDeniesSlotsOnQuarantinedNodes) {
  Fixture f;
  cluster::Cluster cluster(f.sim, f.net, spec_of(4));
  dfs::NameNode dfs(cluster, 64_MiB, 1);
  DetectorConfig cfg;
  cfg.quarantine_threshold = 2;
  FailureDetector det(f.sim, cluster, cfg);
  core::ChainScheduler sched(f.sim, cluster, dfs, nullptr);
  sched.set_detector(&det);
  mapred::MapOutputStore store;
  const std::uint32_t chain = sched.add_chain(1.0, 1, &store);
  mapred::SlotBroker& broker = sched.broker(chain);
  // may_acquire only grants to admitted chains; run the admission event.
  sched.submit(chain, 0.0, [] {});
  f.sim.run();

  EXPECT_TRUE(broker.may_acquire(2, mapred::SlotKind::kMap));
  det.record_task_failure(2);
  det.record_task_failure(2);
  ASSERT_TRUE(det.quarantined(2));
  // Quarantine denies new slots on the node; the rest still grant.
  EXPECT_FALSE(broker.may_acquire(2, mapred::SlotKind::kMap));
  EXPECT_FALSE(broker.may_acquire(2, mapred::SlotKind::kReduce));
  EXPECT_TRUE(broker.may_acquire(1, mapred::SlotKind::kMap));
}

// --- scenario-level integration --------------------------------------

TEST(DetectorScenario, NoChaosIsTimingIdenticalToOracle) {
  auto cfg = chaos_config(/*nodes=*/6, /*chain=*/4);
  cfg.trace_capacity = 1 << 16;

  Scenario oracle(cfg);
  const auto oracle_result = oracle.run(strat(Strategy::kRcmpSplit));
  ASSERT_TRUE(oracle_result.completed);
  const std::string oracle_trace = oracle.obs().tracer.export_jsonl();

  auto det_cfg = cfg;
  det_cfg.detector.enabled = true;
  Scenario detected(det_cfg);
  const auto det_result = detected.run(strat(Strategy::kRcmpSplit));
  ASSERT_TRUE(det_result.completed);

  // Heartbeats are control-plane only: with no chaos the detector never
  // suspects anything and the run is indistinguishable from oracle mode
  // — same timing, same trace, same output bytes.
  EXPECT_DOUBLE_EQ(det_result.total_time, oracle_result.total_time);
  EXPECT_EQ(detected.obs().tracer.export_jsonl(), oracle_trace);
  EXPECT_EQ(detected.final_output_checksum(),
            oracle.final_output_checksum());
  ASSERT_NE(detected.detector(), nullptr);
  EXPECT_EQ(detected.detector()->suspicions(), 0u);
  EXPECT_GT(detected.detector()->heartbeats_received(), 0u);
}

TEST(DetectorScenario, KillSeenThroughHeartbeatsChainStillCorrect) {
  auto cfg = chaos_config();
  const auto reference = reference_for(cfg);
  cfg.detector.enabled = true;

  FaultSchedule plan;
  FaultEvent ev;
  ev.mode = FaultMode::kKill;
  ev.at_job_ordinal = 2;
  ev.delay = 15.0;
  plan.events.push_back(ev);

  Scenario s(cfg);
  const auto r = s.run_chaos(strat(Strategy::kRcmpSplit), std::move(plan));
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(s.final_output_checksum(), reference);

  const FailureDetector* d = s.detector();
  ASSERT_NE(d, nullptr);
  EXPECT_GE(d->suspicions(), 1u);
  EXPECT_EQ(d->false_suspicions(), 0u);
  EXPECT_GE(d->last_time_to_detect(), 0.0);
  EXPECT_LE(d->last_time_to_detect(),
            d->suspicion_timeout() + d->heartbeat_interval() + 1e-9);
  EXPECT_GE(s.obs().metrics.counter("detector.suspicions"), 1u);
  EXPECT_EQ(s.obs().metrics.counter("audit.violations"), 0u);
}

TEST(DetectorScenario, HeartbeatLossReconcilesByteIdentical) {
  auto cfg = chaos_config();
  const auto reference = reference_for(cfg);
  cfg.detector.enabled = true;
  // The node is perfectly healthy throughout — only its heartbeats are
  // lost — so the reconciled ledgers must be byte-identical to never
  // having suspected it. The auditor's digest check enforces exactly
  // that (and throws AuditError on drift). The check is only exact when
  // nothing commits between suspicion and reconcile, so the drill keeps
  // the suspicion window shorter than the replan's job-setup time:
  // heartbeats every second, suppressed for barely longer than the
  // suspicion timeout.
  cfg.detector.audit_reconcile = true;
  cfg.detector.heartbeat_interval = 1.0;
  cfg.detector.suspicion_timeout = 10.0;

  FaultSchedule plan;
  FaultEvent ev;
  ev.mode = FaultMode::kHeartbeatLoss;
  ev.at_job_ordinal = 3;
  ev.delay = 15.0;
  ev.downtime = 11.5;
  plan.events.push_back(ev);

  Scenario s(cfg);
  const auto r = s.run_chaos(strat(Strategy::kRcmpSplit), std::move(plan));
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(s.final_output_checksum(), reference);

  const FailureDetector* d = s.detector();
  ASSERT_NE(d, nullptr);
  EXPECT_GE(d->false_suspicions(), 1u);
  EXPECT_GE(d->reconciliations(), 1u);
  ASSERT_NE(s.auditor(), nullptr);
  EXPECT_GE(s.auditor()->reconcile_checks(), 1u);
  EXPECT_EQ(s.obs().metrics.counter("audit.violations"), 0u);
  EXPECT_GE(s.obs().metrics.counter("detector.reconciliations"), 1u);
}

TEST(DetectorScenario, NetworkPartitionHealsWithCorrectOutput) {
  auto cfg = chaos_config();
  const auto reference = reference_for(cfg);
  cfg.detector.enabled = true;

  FaultSchedule plan;
  FaultEvent ev;
  ev.mode = FaultMode::kNetworkPartition;
  ev.at_job_ordinal = 3;
  ev.delay = 15.0;
  ev.downtime = 60.0;
  plan.events.push_back(ev);

  Scenario s(cfg);
  const auto r = s.run_chaos(strat(Strategy::kRcmpSplit), std::move(plan));
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(s.final_output_checksum(), reference);
  ASSERT_NE(s.detector(), nullptr);
  EXPECT_GE(s.detector()->suspicions(), 1u);
  EXPECT_GE(s.detector()->reconciliations(), 1u);
  EXPECT_EQ(s.obs().metrics.counter("audit.violations"), 0u);
}

TEST(DetectorScenario, SameSeedDetectorChaosRunsAreByteIdentical) {
  auto one_run = [](std::string* trace, std::string* metrics,
                    double* total_time) {
    auto cfg = chaos_config();
    cfg.detector.enabled = true;
    cfg.trace_capacity = 1 << 16;
    cluster::RandomScheduleOptions opt;
    opt.events = 4;
    opt.p_network_partition = 0.2;
    opt.p_heartbeat_loss = 0.2;
    opt.p_kill = 0.15;
    opt.p_transient = 0.15;
    opt.p_disk = 0.1;
    opt.p_compute = 0.1;
    opt.p_rack = 0.0;
    opt.p_corrupt_partition = 0.05;
    Scenario s(cfg);
    const auto r = s.run_chaos(strat(Strategy::kRcmpSplit),
                               cluster::random_schedule(opt, 4242));
    ASSERT_TRUE(r.completed);
    *trace = s.obs().tracer.export_jsonl();
    *metrics = s.obs().metrics.dump_json();
    *total_time = r.total_time;
  };
  std::string trace_a, metrics_a, trace_b, metrics_b;
  double time_a = 0.0, time_b = 0.0;
  one_run(&trace_a, &metrics_a, &time_a);
  one_run(&trace_b, &metrics_b, &time_b);
  EXPECT_FALSE(trace_a.empty());
  EXPECT_EQ(trace_a, trace_b);
  EXPECT_EQ(metrics_a, metrics_b);
  EXPECT_DOUBLE_EQ(time_a, time_b);
}

// --- retry-backoff jitter (EngineConfig::retry_backoff_jitter) -------

namespace jitterfx {

struct JitterRun {
  std::string trace;
  double makespan = 0.0;
  mapred::Checksum checksum;
};

inline JitterRun jitter_run(double jitter, FaultSchedule schedule) {
  auto cfg = chaos_config();
  cfg.detector.enabled = true;
  cfg.trace_capacity = 1 << 16;
  cfg.engine.retry_backoff_jitter = jitter;
  Scenario s(cfg);
  const auto r = s.run_chaos(strat(Strategy::kRcmpSplit),
                             std::move(schedule));
  EXPECT_TRUE(r.completed);
  return {s.obs().tracer.export_jsonl(), r.total_time,
          s.final_output_checksum()};
}

inline FaultSchedule kill_at(std::uint32_t ordinal) {
  FaultSchedule schedule;
  schedule.events.push_back(FaultEvent{FaultMode::kKill, ordinal, 15.0});
  return schedule;
}

}  // namespace jitterfx

TEST(RetryJitter, ArmedJitterDrawsNothingWithoutRetries) {
  // The decorrelated draw happens per *failed* attempt; a failure-free
  // detector run with jitter armed must stay byte-identical to the
  // jitter-off default.
  const auto off = jitterfx::jitter_run(0.0, {});
  const auto on = jitterfx::jitter_run(1.0, {});
  EXPECT_FALSE(off.trace.empty());
  EXPECT_EQ(on.trace, off.trace);
  EXPECT_DOUBLE_EQ(on.makespan, off.makespan);
}

TEST(RetryJitter, JitteredRetriesAreSeedDeterministicAndCorrect) {
  // Same seed, same jitter, real retries (a kill under the detector):
  // two runs are byte-identical, and the jittered schedule changes
  // timing only — the output bytes match the unjittered run.
  const auto a = jitterfx::jitter_run(0.7, jitterfx::kill_at(2));
  const auto b = jitterfx::jitter_run(0.7, jitterfx::kill_at(2));
  EXPECT_FALSE(a.trace.empty());
  EXPECT_EQ(a.trace, b.trace);
  EXPECT_DOUBLE_EQ(a.makespan, b.makespan);
  const auto plain = jitterfx::jitter_run(0.0, jitterfx::kill_at(2));
  EXPECT_EQ(a.checksum, plain.checksum);
}

// --- reducer retry budget (EngineConfig::max_task_attempts) -----------

// A reducer spends its attempt budget. A compute fault on node 0 freezes
// reducer 0 of the second job; detection re-queues it behind its retry
// backoff, so the next scheduling pass defers it, and it restarts on
// node 1. A second compute fault freezes it there, and with
// max_task_attempts = 2 its second charge exhausts the budget, which
// escalates to a replan. The pin holds the makespan's bits and digests
// of the trace and metrics dump (testfx::Pin); re-capture only in a
// change meant to move simulated behaviour.
TEST(RetryPins, ReducerSpendsItsAttemptBudget) {
  auto cfg = testfx::traced(chaos_config(8, 4));
  cfg.detector.enabled = true;
  cfg.engine.max_task_attempts = 2;
  Scenario s(cfg);
  FaultSchedule schedule;
  schedule.events.push_back(FaultEvent{FaultMode::kCompute, 2, 15.5, 0});
  schedule.events.push_back(FaultEvent{FaultMode::kCompute, 2, 47.0, 1});
  const auto r = s.run_chaos(strat(Strategy::kRcmpSplit), schedule);
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(r.replans, 1u);
  const std::string trace = s.obs().tracer.export_jsonl();
  const std::string reexec =
      R"("ev":"task_reexec","kind":1,"node":1,"job":1,"i":0,)";
  EXPECT_NE(trace.find(reexec), std::string::npos);
  testfx::expect_pin(r, s, {0x1.195b76a62c882p+7, 0x5504cbe80c1c33a1ULL,
                           0x95673cbaecb5fa09ULL});
}

// --- shuffle flushes and unserved sources ----------------------------

/// Slot broker that grants one slot per node and kind, except that
/// reduce slots stay closed until the test opens them.
class GatedReduceSlots final : public mapred::SlotBroker {
 public:
  explicit GatedReduceSlots(std::uint32_t nodes)
      : free_{std::vector<int>(nodes, 1), std::vector<int>(nodes, 1)} {}
  bool may_acquire(cluster::NodeId n, mapred::SlotKind k) const override {
    if (k == mapred::SlotKind::kReduce && !reduce_open) return false;
    return free_[static_cast<int>(k)][n] > 0;
  }
  void acquire(cluster::NodeId n, mapred::SlotKind k) override {
    --free_[static_cast<int>(k)][n];
  }
  void release(cluster::NodeId n, mapred::SlotKind k) override {
    ++free_[static_cast<int>(k)][n];
  }
  void release_all() override {}
  void set_demand(mapred::SlotKind, bool) override {}

  bool reduce_open = false;

 private:
  std::vector<int> free_[2];
};

// A reducer's ready batch from node 0 is over the flush threshold when
// node 0 stops serving (partitioned, engine not yet told). The
// reducer's startup flush skips it, and so does the threshold flush of
// the next mapper completion. Once node 0 serves again, the threshold
// flush after a later mapper completion must fetch that batch, before
// the map phase ends, exactly once, and the output must match the input.
TEST(ShuffleFlush, DueBatchSkippedWhileUnservedIsFetchedOnceAfterHeal) {
  testfx::EngineFixture f(/*nodes=*/4, /*blocks_per_node=*/1,
                          /*input_replication=*/2);
  // Any non-empty batch is due: the threshold floors at one byte.
  f.cfg.shuffle_flush_fraction = 1e-12;
  // Stragglers: node 0's mapper finishes by t = 2.5, node 1's at about
  // t = 4.1 (node 0 unserved), node 3's at about t = 5 (node 0 healed),
  // node 2's at about t = 8.5 (the map phase ends).
  f.cluster.set_cpu_factor(1, 14.0);
  f.cluster.set_cpu_factor(3, 20.0);
  f.cluster.set_cpu_factor(2, 40.0);

  workloads::IdentityMapper mapper;
  workloads::IdentityReducer reducer;
  std::vector<mapred::Record> all;
  Rng rng(11);
  for (cluster::NodeId n = 0; n < 4; ++n) {
    std::vector<mapred::Record> part;
    for (int i = 0; i < 40; ++i) part.push_back({rng(), rng()});
    all.insert(all.end(), part.begin(), part.end());
    f.payloads.append(f.input, n, part, /*block_count=*/1);
  }

  cluster::FailureDetector det(f.sim, f.cluster, DetectorConfig{});
  GatedReduceSlots slots(4);
  obs::Observability obs;
  obs.tracer.enable(1 << 12);
  mapred::Env env = f.env();
  env.detector = &det;  // source_serving() now honours reachability
  env.slots = &slots;
  env.obs = &obs;

  auto spec = f.make_spec(/*reducers=*/4);
  spec.mapper = &mapper;
  spec.reducer = &reducer;
  const auto out = spec.output;
  mapred::JobRun run(env, std::move(spec), mapred::RecomputeDirective{},
                     f.cfg, 1, 7, [](mapred::JobRun&) {});
  run.start();
  f.sim.schedule_at(3.0, [&] { f.cluster.set_partitioned(0, true); });
  f.sim.schedule_at(3.5, [&] {
    slots.reduce_open = true;
    run.poke();
  });
  f.sim.schedule_at(4.5, [&] { f.cluster.set_partitioned(0, false); });
  f.sim.run();

  ASSERT_TRUE(run.finished());
  ASSERT_EQ(run.result().status, mapred::JobResult::Status::kCompleted);
  // Completion means every reducer's unfetched count drained to 0.
  EXPECT_EQ(f.payloads.file_checksum(out, 4), mapred::checksum_of(all));
  EXPECT_DOUBLE_EQ(run.result().shuffle_bytes,
                   static_cast<double>(all.size() * f.cfg.record_bytes));

  std::uint32_t from_node0 = 0;
  for (const obs::TraceEvent& ev : obs.tracer.events()) {
    if (ev.type != static_cast<std::uint8_t>(obs::EventType::kShuffleFetch) ||
        ev.node != 0) {
      continue;
    }
    ++from_node0;
    EXPECT_GT(ev.time, 4.5);
    EXPECT_LT(ev.time, run.result().map_phase_end);
  }
  EXPECT_EQ(from_node0, 4u);  // one coalesced fetch per reducer
}

}  // namespace
}  // namespace rcmp
