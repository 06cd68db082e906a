// Bit-exact pins on the middleware's persistence decisions: where a
// job's output persists (replicated every k-th job, spaced by Young's
// interval, kept on the disk or memory tier) and what a coordinator
// crash resets under an adaptive policy.
//
// Each pin holds the makespan's exact bits plus a 64-bit FNV-1a digest
// of the JSONL trace and of the metrics dump. The expected values are
// captures from the code before the middleware's persistence paths
// were folded into one decision step: any change to which outputs
// persist where, or to the order of the events that follow, moves them.
// Re-capture (and say why) only in a change meant to move simulated
// behaviour.
#include <gtest/gtest.h>

#include "cluster/chaos.hpp"
#include "core/policy.hpp"
#include "fixtures.hpp"
#include "workloads/scenario.hpp"

namespace rcmp {
namespace {

using cluster::FaultEvent;
using cluster::FaultMode;
using cluster::FaultSchedule;
using testfx::chaos_config;
using testfx::expect_pin;
using testfx::fail_at;
using testfx::strat;
using testfx::traced;
using workloads::Scenario;

// (a) Static hybrid: jobs 3 and 6 are replication points, and the
// storage below each is reclaimed once it completes. One kill lands
// after the first point, so the cascade stops there.
TEST(PersistencePins, EveryThirdJobWithReclaimAndOneFailure) {
  Scenario s(traced(workloads::payload_config(6, 7, 256)));
  auto strategy = strat(core::Strategy::kRcmpSplit);
  strategy.hybrid_every = 3;
  strategy.reclaim_after_replication = true;
  const auto r = s.run(strategy, fail_at({5}));
  ASSERT_TRUE(r.completed);
  EXPECT_GT(r.replans, 0u);
  expect_pin(r, s, {0x1.5ba0232f87086p+7, 0xdc02af76391a8402ULL,
                    0xf2a68259eb4e0067ULL});
}

// (b) Two-way dynamic hybrid: replication points spaced by Young's
// interval at a (deliberately high) 20 failures per node-day.
TEST(PersistencePins, TwoWayYoungWithOneFailure) {
  Scenario s(traced(workloads::payload_config(6, 7, 256)));
  auto strategy = strat(core::Strategy::kRcmpSplit);
  strategy.hybrid_dynamic = true;
  strategy.node_failure_rate_per_day = 20.0;
  const auto r = s.run(strategy, fail_at({5}));
  ASSERT_TRUE(r.completed);
  EXPECT_GT(r.replication_points, 0u);
  EXPECT_GT(r.replans, 0u);
  expect_pin(r, s, {0x1.b90d05deb4942p+7, 0xa16b2e05a22e5ae1ULL,
                    0x842cbfaeaf5ca94fULL});
}

// (c) Three-way dynamic hybrid: memory tier on a RAM cluster, so each
// initial output is replicated, persisted to disk, or kept in RAM. A
// compute-only fault wipes the victim's RAM while its disk survives.
TEST(PersistencePins, ThreeWayYoungWithComputeOnlyFault) {
  auto cfg = traced(chaos_config(/*nodes=*/8, /*chain=*/7));
  cfg.cluster.ram_bytes = 1ULL << 30;
  Scenario s(cfg);
  auto strategy = strat(core::Strategy::kRcmpSplit);
  strategy.memory_tier = true;
  strategy.hybrid_dynamic = true;
  strategy.node_failure_rate_per_day = 20.0;
  FaultSchedule schedule;
  schedule.events.push_back(FaultEvent{FaultMode::kCompute, 5, 10.0});
  const auto r = s.run_chaos(strategy, schedule);
  ASSERT_TRUE(r.completed);
  std::uint32_t on_disk = 0;
  std::uint32_t in_memory = 0;
  for (std::uint32_t l = 0; l < cfg.chain_length; ++l) {
    const dfs::FileId f = s.middleware().output_file(l);
    if (s.dfs().replication(f) != 1) continue;
    if (s.dfs().file_tier(f) == cluster::StorageTier::kDisk) ++on_disk;
    if (s.dfs().file_tier(f) == cluster::StorageTier::kMemory) ++in_memory;
  }
  // The disk-persistence branch is reached, and not every output.
  EXPECT_GT(on_disk, 0u);
  EXPECT_GT(in_memory, 0u);
  EXPECT_GT(s.obs().metrics.counter("storage.tier.promotions"), 0u);
  expect_pin(r, s, {0x1.500d9946755fap+7, 0xe29e60fa2c2a67bdULL,
                    0x15c29955123ae998ULL});
}

// (c') As (c), with replication priced at 1.2 of a job's time: the
// replication interval is then more than twice the disk interval, so
// disk points follow a disk point before the next replication point.
// Decisions that read the replication timer for the disk point move
// the makespan.
TEST(PersistencePins, ThreeWayYoungDiskTimerRunsApart) {
  auto cfg = traced(chaos_config(/*nodes=*/8, /*chain=*/7));
  cfg.cluster.ram_bytes = 1ULL << 30;
  Scenario s(cfg);
  auto strategy = strat(core::Strategy::kRcmpSplit);
  strategy.memory_tier = true;
  strategy.hybrid_dynamic = true;
  strategy.node_failure_rate_per_day = 20.0;
  strategy.hybrid_replication_overhead = 1.2;
  FaultSchedule schedule;
  schedule.events.push_back(FaultEvent{FaultMode::kCompute, 5, 10.0});
  const auto r = s.run_chaos(strategy, schedule);
  ASSERT_TRUE(r.completed);
  EXPECT_GT(r.replication_points, 0u);
  expect_pin(r, s, {0x1.500e0853cf31p+7, 0xeb603267f81157daULL,
                    0xf00a1cfc34c14c7fULL});
}

// (d) Oracle pre-replication across a coordinator crash: the crash
// wipes the pending policy overrides and re-clones the policy, and the
// journal replay resumes the chain.
TEST(PersistencePins, OraclePolicyAcrossMasterCrash) {
  auto cfg = traced(chaos_config(/*nodes=*/8, /*chain=*/6));
  cfg.journal = true;
  Scenario s(cfg);
  FaultSchedule schedule;
  schedule.events.push_back(FaultEvent{FaultMode::kKill, 3, 15.0});
  schedule.events.push_back(FaultEvent{FaultMode::kMasterCrash, 5, 10.0});
  schedule.events.push_back(FaultEvent{FaultMode::kKill, 8, 15.0});
  core::PolicyParams params;
  for (const FaultEvent& ev : schedule.events) {
    params.oracle_fault_ordinals.push_back(ev.at_job_ordinal);
    params.oracle_fault_kinds.push_back(
        static_cast<std::uint32_t>(ev.mode));
  }
  auto strategy = strat(core::Strategy::kRcmpSplit);
  strategy.policy = core::make_policy("oracle", params);
  const auto r = s.run_chaos(strategy, schedule);
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(r.master_crashes, 1u);
  EXPECT_GT(r.policy_pre_replications, 0u);
  EXPECT_EQ(s.obs().metrics.counter("audit.violations"), 0u);
  expect_pin(r, s, {0x1.f8efdb3e0e196p+6, 0x3f5aa2925058b243ULL,
                    0xa34d671806d28b17ULL});
}

// (d') Binocular turns reducer speculation on at chain admission only,
// and a coordinator crash clears that override: runs after the
// recovery schedule no speculation checks. The metrics dump sees it
// (sim.cancelled counts the checks cancelled at each run's end) while
// the trace does not.
TEST(PersistencePins, BinocularOverrideClearedByMasterCrash) {
  auto cfg = traced(chaos_config(/*nodes=*/8, /*chain=*/6));
  cfg.journal = true;
  Scenario s(cfg);
  FaultSchedule schedule;
  schedule.events.push_back(FaultEvent{FaultMode::kMasterCrash, 3, 10.0});
  auto strategy = strat(core::Strategy::kRcmpSplit);
  strategy.policy = core::make_policy("binocular");
  const auto r = s.run_chaos(strategy, schedule);
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(r.master_crashes, 1u);
  EXPECT_EQ(r.policy_decisions, 1u);
  expect_pin(r, s, {0x1.a911588033ea5p+6, 0xac901a7cccab3c7ULL,
                    0x6e218dbcbd629cf1ULL});
}

}  // namespace
}  // namespace rcmp
