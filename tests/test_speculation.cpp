// Speculative execution under injected stragglers (paper §III-A):
// duplicates race the original; replication's (narrow) benefit is that
// a duplicate can read a different input replica.
#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <sstream>

#include "fixtures.hpp"
#include "workloads/scenario.hpp"

namespace rcmp {
namespace {

using core::Strategy;
using core::StrategyConfig;
using workloads::Scenario;

StrategyConfig strat(Strategy s) {
  StrategyConfig cfg;
  cfg.strategy = s;
  return cfg;
}

std::uint32_t total_launched(const core::ChainResult& r) {
  std::uint32_t n = 0;
  for (const auto& run : r.runs) n += run.speculative_launched;
  return n;
}
std::uint32_t total_won(const core::ChainResult& r) {
  std::uint32_t n = 0;
  for (const auto& run : r.runs) n += run.speculative_won;
  return n;
}

TEST(Speculation, OffByDefault) {
  Scenario s(workloads::tiny_config(5, 3));
  const auto r = s.run(strat(Strategy::kRcmpSplit));
  EXPECT_EQ(total_launched(r), 0u);
}

TEST(Speculation, RescuesCpuStraggler) {
  // Compute-dominant workload so the straggling CPU is the bottleneck.
  auto cfg = workloads::tiny_config(6, 3);
  cfg.engine.map_cpu_rate = 50e6;
  double without, with;
  std::uint32_t won = 0;
  {
    Scenario s(cfg);
    s.cluster().set_cpu_factor(2, 40.0);  // one pathologically slow CPU
    without = s.run(strat(Strategy::kRcmpSplit)).total_time;
  }
  {
    auto cfg2 = cfg;
    cfg2.engine.speculative_execution = true;
    Scenario s(cfg2);
    s.cluster().set_cpu_factor(2, 40.0);
    const auto r = s.run(strat(Strategy::kRcmpSplit));
    with = r.total_time;
    won = total_won(r);
  }
  EXPECT_GT(won, 0u);
  EXPECT_LT(with, without);
}

TEST(Speculation, WonNeverExceedsLaunched) {
  auto cfg = workloads::tiny_config(6, 3);
  cfg.engine.speculative_execution = true;
  cfg.engine.speculative_slowness = 1.1;  // aggressive
  Scenario s(cfg);
  s.cluster().set_cpu_factor(1, 10.0);
  const auto r = s.run(strat(Strategy::kRcmpSplit));
  ASSERT_TRUE(r.completed);
  EXPECT_LE(total_won(r), total_launched(r));
}

TEST(Speculation, ReplicatedInputLetsDuplicateDodgeSlowDisk) {
  // An I/O-bound straggler: with a single input replica the duplicate
  // must stream from the same slow disk, so speculation cannot shorten
  // the map phase much; with extra replicas the duplicate dodges the
  // bad drive. (§III-A: "This benefit only applies when the slowness is
  // caused by inefficiencies in reading input data.")
  auto map_phase = [](std::uint32_t input_replication, bool speculate) {
    auto cfg = workloads::tiny_config(6, 1);  // single job
    cfg.input_replication = input_replication;
    cfg.engine.speculative_execution = speculate;
    cfg.engine.speculative_check_interval = 2.0;
    Scenario s(cfg);
    s.cluster().degrade_disk(3, 50.0);  // a truly bad drive
    const auto r = s.run(strat(Strategy::kRcmpSplit));
    EXPECT_TRUE(r.completed);
    const auto& run = r.runs.at(0);
    return run.map_phase_end - run.start_time;
  };
  const double off1 = map_phase(1, false);
  const double on1 = map_phase(1, true);
  const double off3 = map_phase(3, false);
  const double on3 = map_phase(3, true);
  // Replicated input: speculation rescues the straggler's local task
  // by reading a healthy replica.
  EXPECT_LT(on3, off3 * 0.8);
  // Single replica: the duplicate streams from the same slow disk —
  // no comparable rescue.
  EXPECT_GT(on1, off1 * 0.8);
}

TEST(Speculation, PayloadOutputStaysCorrect) {
  // Winner-only registration: duplicates must never double-emit.
  mapred::Checksum ref;
  {
    Scenario s(workloads::payload_config(6, 3));
    ASSERT_TRUE(s.run(strat(Strategy::kRcmpSplit)).completed);
    ref = s.final_output_checksum();
  }
  auto cfg = workloads::payload_config(6, 3);
  cfg.engine.speculative_execution = true;
  cfg.engine.speculative_slowness = 1.2;
  cfg.engine.speculative_check_interval = 0.2;  // payload jobs are short
  cfg.engine.map_cpu_rate = 2e6;  // compute-dominant at payload scale
  Scenario s(cfg);
  s.cluster().set_cpu_factor(0, 300.0);
  const auto r = s.run(strat(Strategy::kRcmpSplit));
  ASSERT_TRUE(r.completed);
  EXPECT_GT(total_won(r), 0u);
  EXPECT_EQ(s.final_output_checksum(), ref);
}

TEST(Speculation, SurvivesFailuresToo) {
  mapred::Checksum ref;
  {
    Scenario s(workloads::payload_config(6, 4));
    ASSERT_TRUE(s.run(strat(Strategy::kRcmpSplit)).completed);
    ref = s.final_output_checksum();
  }
  auto cfg = workloads::payload_config(6, 4);
  cfg.engine.speculative_execution = true;
  Scenario s(cfg);
  s.cluster().set_cpu_factor(1, 25.0);
  cluster::FailurePlan plan;
  plan.at_job_ordinals = {3};
  const auto r = s.run(strat(Strategy::kRcmpSplit), plan);
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(s.final_output_checksum(), ref);
}

TEST(Speculation, HealthyClusterLaunchesFewDuplicates) {
  auto cfg = workloads::tiny_config(6, 3);
  cfg.engine.speculative_execution = true;
  Scenario s(cfg);
  const auto r = s.run(strat(Strategy::kRcmpSplit));
  ASSERT_TRUE(r.completed);
  // Homogeneous tasks: nothing is 1.8x slower than average.
  EXPECT_EQ(total_launched(r), 0u);
}


// --- same-seed pins ----------------------------------------------------
//
// Speculation under detector chaos: backups race their running attempt
// while partitions, heartbeat loss and kills land. The expected values
// are hexfloat captures of makespan, launched/won backup counts and (for
// payload scenes) the final checksum; any change to when backups launch,
// which replica they read, when they are dropped or in which order
// their flows are cancelled moves them. Re-capture only in a change
// meant to move simulated behaviour, and say why.

struct SpecPin {
  std::uint64_t seed;
  double total_time;
  std::uint32_t launched;
  std::uint32_t won;
  mapred::Checksum checksum;  // zero for virtual-size scenes
};

void expect_pin(workloads::ScenarioConfig cfg,
                cluster::RandomScheduleOptions opt, const SpecPin& pin,
                const std::function<void(cluster::Cluster&)>& slow) {
  cfg.detector.enabled = true;
  cfg.seed = pin.seed;
  Scenario s(cfg);
  slow(s.cluster());
  const auto r = s.run_chaos(strat(Strategy::kRcmpSplit),
                             cluster::random_schedule(opt, pin.seed));
  ASSERT_TRUE(r.completed);
  const mapred::Checksum sum =
      cfg.payload ? s.final_output_checksum() : mapred::Checksum{};
  // On a mismatch, print the run as a pin row.
  std::ostringstream row;
  row << "{" << pin.seed << ", " << std::hexfloat << r.total_time
      << std::dec << ", " << total_launched(r) << ", " << total_won(r)
      << ", {0x" << std::hex << sum.md5_acc << "ull, 0x" << sum.sum_acc
      << "ull, 0x" << sum.key_acc << "ull, " << std::dec << sum.count
      << "}}";
  SCOPED_TRACE(row.str());
  EXPECT_EQ(std::memcmp(&r.total_time, &pin.total_time, sizeof(double)), 0);
  EXPECT_EQ(total_launched(r), pin.launched);
  EXPECT_EQ(total_won(r), pin.won);
  EXPECT_EQ(sum, pin.checksum);
}

cluster::RandomScheduleOptions pin_options() {
  cluster::RandomScheduleOptions opt;
  opt.events = 4;
  opt.max_ordinal = 4;
  opt.p_rack = 0.0;
  opt.p_network_partition = 0.25;
  opt.p_heartbeat_loss = 0.1;
  return opt;
}

workloads::ScenarioConfig cpu_straggler_config(bool reducers) {
  auto cfg = testfx::chaos_config(8, 4);
  cfg.engine.speculative_execution = true;
  cfg.engine.speculative_reducers = reducers;
  cfg.engine.speculative_slowness = 1.2;
  cfg.engine.speculative_check_interval = 0.2;
  cfg.engine.map_cpu_rate = 2e6;
  cfg.engine.reduce_cpu_rate = 2e6;
  return cfg;
}

// (a) Reducer backups: map and reducer speculation, one 20x CPU. Every
// backup launched here is a reducer's (no map is slow enough).
TEST(SpeculationPins, ReducerBackupsUnderDetectorChaos) {
  const SpecPin pins[] = {
      {1, 0x1.556816fc10c1cp+7, 1, 1,
       {0xfae38f6c443b4986ull, 0xff60ddull, 0x114a89bfb0a3f52bull, 2048}},
      {2, 0x1.016a39efc5846p+7, 2, 2,
       {0x53bd900a30d33e58ull, 0xfef1caull, 0x48cf41a5ed80c366ull, 2048}},
      {3, 0x1.3a98757bf1c78p+7, 2, 2,
       {0x6acc28d898a5cf0ull, 0xfe9645ull, 0x904d81e473c22db5ull, 2048}},
  };
  for (const SpecPin& pin : pins) {
    SCOPED_TRACE(pin.seed);
    expect_pin(cpu_straggler_config(true), pin_options(), pin,
               [&](cluster::Cluster& c) {
                 c.set_cpu_factor(pin.seed % 8, 20.0);
               });
  }
}

// (b) Map backups: map speculation only, one 300x CPU.
TEST(SpeculationPins, MapBackupsUnderDetectorChaos) {
  const SpecPin pins[] = {
      {1, 0x1.6bda8de089844p+7, 2, 2,
       {0xfae38f6c443b4986ull, 0xff60ddull, 0x114a89bfb0a3f52bull, 2048}},
      {2, 0x1.28dc96f13ed96p+7, 2, 2,
       {0x53bd900a30d33e58ull, 0xfef1caull, 0x48cf41a5ed80c366ull, 2048}},
      {3, 0x1.95ebf937c9de6p+7, 2, 2,
       {0x6acc28d898a5cf0ull, 0xfe9645ull, 0x904d81e473c22db5ull, 2048}},
  };
  for (const SpecPin& pin : pins) {
    SCOPED_TRACE(pin.seed);
    expect_pin(cpu_straggler_config(false), pin_options(), pin,
               [&](cluster::Cluster& c) {
                 c.set_cpu_factor(pin.seed % 8, 300.0);
               });
  }
}

// (c) Virtual slow disk with triply replicated input: map backups dodge
// the bad drive by reading another replica. Seed 14 is the run where a
// backup that read only from serving replicas would finish differently.
TEST(SpeculationPins, MapBackupsDodgeSlowDiskUnderDetectorChaos) {
  auto cfg = workloads::tiny_config(8, 4);
  cfg.input_replication = 3;
  cfg.engine.speculative_execution = true;
  cfg.engine.speculative_check_interval = 2.0;
  cfg.engine.map_cpu_rate = 50e6;
  auto opt = pin_options();
  opt.p_corrupt_partition = 0.0;
  const SpecPin pins[] = {
      {1, 0x1.d60b447ae5d84p+12, 10, 5, {}},
      {14, 0x1.069c3d9a5a64dp+13, 18, 6, {}},
  };
  for (const SpecPin& pin : pins) {
    SCOPED_TRACE(pin.seed);
    expect_pin(cfg, opt, pin,
               [&](cluster::Cluster& c) {
                 c.degrade_disk(pin.seed % 8, 50.0);
               });
  }
}

// --- slot ledger -----------------------------------------------------

// Backups that win hand the running attempt's slot back; backups that
// lose hand back their own. Neither may return a slot the run does not
// hold, and a finished run must hold none: release_all() at finish would
// otherwise hide a leaked or doubly returned slot.
TEST(SpeculationSlots, WinnersAndLosersReturnExactlyTheSlotsTheyHold) {
  testfx::EngineFixture f(/*nodes=*/5, /*blocks_per_node=*/8,
                          /*input_replication=*/3, /*map_slots=*/2,
                          /*reduce_slots=*/1);
  testfx::CountingSlotBroker slots(f.cluster, 2, 1);
  f.slots = &slots;
  f.cfg.speculative_execution = true;
  f.cfg.speculative_reducers = true;
  f.cfg.speculative_slowness = 1.2;
  f.cfg.speculative_check_interval = 0.5;
  f.cfg.map_cpu_rate = 50e6;
  f.cfg.reduce_cpu_rate = 50e6;
  // One pathological and one mildly slow node: the run launches map and
  // reducer backups, and some of them lose their race.
  f.cluster.set_cpu_factor(2, 40.0);
  f.cluster.set_cpu_factor(4, 3.0);
  const auto& run = f.run(f.make_spec(5));
  ASSERT_TRUE(run.finished());
  const auto& res = run.result();
  EXPECT_GT(res.speculative_won, 0u);
  EXPECT_GT(res.speculative_launched, res.speculative_won);
  EXPECT_EQ(slots.bad_releases, 0u);
  EXPECT_EQ(slots.acquires, slots.releases);
  EXPECT_EQ(slots.held_at_release_all, std::vector<std::uint32_t>{0});
}

}  // namespace
}  // namespace rcmp
