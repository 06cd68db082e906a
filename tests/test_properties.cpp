// Property-based tests (parameterized sweeps) over the core invariants:
//
//  P1. Correctness: for ANY strategy and ANY failure schedule, the final
//      output's record multiset equals the failure-free reference.
//  P2. Conservation: with the paper's 1/1/1 ratios, every completed run
//      moves input-many bytes through the shuffle and writes
//      input-many bytes of output.
//  P3. Determinism: a (seed, config) pair reproduces a run exactly.
//  P4. Scheduling: per-node concurrency never exceeds the slot counts.
//  P5. Minimality: a single failure recomputes at most the damaged
//      reducers x split tasks per job, and cascades exactly to the
//      interrupted job.
//  P6. The flow network always drains, for arbitrary random workloads.
#include <gtest/gtest.h>

#include <map>
#include <ostream>

#include "workloads/scenario.hpp"

namespace rcmp {
namespace {

using core::Strategy;
using core::StrategyConfig;
using mapred::JobResult;
using workloads::Scenario;

// ---------------------------------------------------------------------
// P1: checksum invariance across strategies x failure schedules
// ---------------------------------------------------------------------

struct ChecksumCase {
  const char* name;
  Strategy strategy;
  std::uint32_t split_factor;  // 0 = auto
  bool reuse;
  std::vector<std::uint32_t> failures;
};

// Print the case by name, as for ConservationCase below.
void PrintTo(const ChecksumCase& c, std::ostream* os) { *os << c.name; }

class ChecksumInvariance : public ::testing::TestWithParam<ChecksumCase> {};

TEST_P(ChecksumInvariance, FinalOutputMatchesFailureFreeReference) {
  const auto& c = GetParam();
  const auto cfg = workloads::payload_config(6, 4);

  mapred::Checksum ref;
  {
    Scenario s(cfg);
    StrategyConfig sc;
    sc.strategy = Strategy::kRcmpSplit;
    ASSERT_TRUE(s.run(sc).completed);
    ref = s.final_output_checksum();
    ASSERT_GT(ref.count, 0u);
  }

  Scenario s(cfg);
  StrategyConfig sc;
  sc.strategy = c.strategy;
  sc.split_factor = c.split_factor;
  sc.reuse_map_outputs = c.reuse;
  if (c.strategy == Strategy::kReplication) sc.replication = 2;
  cluster::FailurePlan plan;
  plan.at_job_ordinals = c.failures;
  const auto r = s.run(sc, plan);
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(s.final_output_checksum(), ref);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ChecksumInvariance,
    ::testing::Values(
        ChecksumCase{"split_auto_fail2", Strategy::kRcmpSplit, 0, true, {2}},
        ChecksumCase{"split_auto_fail3", Strategy::kRcmpSplit, 0, true, {3}},
        ChecksumCase{"split_auto_fail4", Strategy::kRcmpSplit, 0, true, {4}},
        ChecksumCase{"split2_fail3", Strategy::kRcmpSplit, 2, true, {3}},
        ChecksumCase{"split3_fail4", Strategy::kRcmpSplit, 3, true, {4}},
        ChecksumCase{"split5_fail4", Strategy::kRcmpSplit, 5, true, {4}},
        ChecksumCase{"nosplit_fail2", Strategy::kRcmpNoSplit, 1, true, {2}},
        ChecksumCase{"nosplit_fail4", Strategy::kRcmpNoSplit, 1, true, {4}},
        ChecksumCase{"scatter_fail3", Strategy::kRcmpScatter, 1, true, {3}},
        ChecksumCase{"noreuse_fail3", Strategy::kRcmpSplit, 0, false, {3}},
        ChecksumCase{"double_fail_2_2", Strategy::kRcmpSplit, 0, true,
                     {2, 2}},
        ChecksumCase{"double_fail_2_4", Strategy::kRcmpSplit, 0, true,
                     {2, 4}},
        ChecksumCase{"double_fail_3_5", Strategy::kRcmpSplit, 0, true,
                     {3, 5}},
        ChecksumCase{"nested_fail_4_6", Strategy::kRcmpSplit, 0, true,
                     {4, 6}},
        ChecksumCase{"optimistic_fail3", Strategy::kOptimistic, 0, true,
                     {3}},
        ChecksumCase{"optimistic_fail4", Strategy::kOptimistic, 0, true,
                     {4}},
        ChecksumCase{"repl2_fail2", Strategy::kReplication, 0, true, {2}},
        ChecksumCase{"repl2_fail4", Strategy::kReplication, 0, true, {4}},
        ChecksumCase{"hybridish_nosplit_fail4", Strategy::kRcmpNoSplit, 1,
                     false, {4}}),
    [](const ::testing::TestParamInfo<ChecksumCase>& info) {
      return info.param.name;
    });

// ---------------------------------------------------------------------
// P2: byte conservation under the 1/1/1 ratio
// ---------------------------------------------------------------------

struct ConservationCase {
  const char* name;
  std::uint32_t nodes;
  std::uint32_t chain;
  Strategy strategy;
  std::vector<std::uint32_t> failures;
};

// Print the case by name: gtest's default byte dump would put the
// address of `name` into the test's listed name, which then changes
// with every change to the binary's layout.
void PrintTo(const ConservationCase& c, std::ostream* os) { *os << c.name; }

class ByteConservation
    : public ::testing::TestWithParam<ConservationCase> {};

TEST_P(ByteConservation, ShuffleAndOutputMatchInput) {
  const auto& c = GetParam();
  Scenario s(workloads::tiny_config(c.nodes, c.chain));
  StrategyConfig sc;
  sc.strategy = c.strategy;
  if (c.strategy == Strategy::kReplication) sc.replication = 2;
  cluster::FailurePlan plan;
  plan.at_job_ordinals = c.failures;
  const auto r = s.run(sc, plan);
  ASSERT_TRUE(r.completed);

  const double input =
      static_cast<double>(s.dfs().file_size(s.input_file()));
  for (const auto& run : r.runs) {
    if (run.status != JobResult::Status::kCompleted) continue;
    if (run.was_recompute) {
      // Recompute regenerates a subset; bytes bounded by the full job.
      EXPECT_LE(run.output_bytes, input * 1.01);
      EXPECT_GT(run.output_bytes, 0.0);
    } else {
      EXPECT_NEAR(run.output_bytes, input, input * 0.02);
      EXPECT_NEAR(run.shuffle_bytes, input, input * 0.02);
    }
  }
  // Final chain output equals the input volume.
  const auto last = s.middleware().output_file(c.chain - 1);
  EXPECT_NEAR(static_cast<double>(s.dfs().file_size(last)), input,
              input * 0.02);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ByteConservation,
    ::testing::Values(
        ConservationCase{"small_clean", 4, 3, Strategy::kRcmpSplit, {}},
        ConservationCase{"mid_clean", 8, 4, Strategy::kRcmpSplit, {}},
        ConservationCase{"repl_clean", 5, 4, Strategy::kReplication, {}},
        ConservationCase{"split_fail", 6, 4, Strategy::kRcmpSplit, {3}},
        ConservationCase{"nosplit_fail", 6, 4, Strategy::kRcmpNoSplit,
                         {4}},
        ConservationCase{"scatter_fail", 6, 4, Strategy::kRcmpScatter,
                         {3}},
        ConservationCase{"optimistic_fail", 6, 4, Strategy::kOptimistic,
                         {3}},
        ConservationCase{"double_fail", 7, 5, Strategy::kRcmpSplit,
                         {2, 4}}),
    [](const ::testing::TestParamInfo<ConservationCase>& info) {
      return info.param.name;
    });

// ---------------------------------------------------------------------
// P3: determinism
// ---------------------------------------------------------------------

class Determinism
    : public ::testing::TestWithParam<std::tuple<int, bool>> {};

TEST_P(Determinism, SameSeedSameRun) {
  const auto [seed, with_failure] = GetParam();
  auto run_once = [&] {
    auto cfg = workloads::tiny_config(5, 4);
    cfg.seed = static_cast<std::uint64_t>(seed);
    Scenario s(cfg);
    StrategyConfig sc;
    sc.strategy = Strategy::kRcmpSplit;
    cluster::FailurePlan plan;
    if (with_failure) plan.at_job_ordinals = {3};
    return s.run(sc, plan);
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_DOUBLE_EQ(a.total_time, b.total_time);
  EXPECT_EQ(a.jobs_started, b.jobs_started);
  ASSERT_EQ(a.runs.size(), b.runs.size());
  for (std::size_t i = 0; i < a.runs.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.runs[i].duration(), b.runs[i].duration());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, Determinism,
    ::testing::Combine(::testing::Values(1, 7, 42, 1337),
                       ::testing::Bool()));

// ---------------------------------------------------------------------
// P4: slot discipline
// ---------------------------------------------------------------------

class SlotDiscipline
    : public ::testing::TestWithParam<std::tuple<int, int, bool>> {};

TEST_P(SlotDiscipline, ConcurrencyNeverExceedsSlots) {
  const auto [map_slots, reduce_slots, with_failure] = GetParam();
  auto cfg = workloads::tiny_config(5, 3);
  cfg.cluster.map_slots = static_cast<std::uint32_t>(map_slots);
  cfg.cluster.reduce_slots = static_cast<std::uint32_t>(reduce_slots);
  Scenario s(cfg);
  StrategyConfig sc;
  sc.strategy = Strategy::kRcmpSplit;
  cluster::FailurePlan plan;
  if (with_failure) plan.at_job_ordinals = {2};
  const auto r = s.run(sc, plan);
  ASSERT_TRUE(r.completed);

  auto check = [](const std::vector<mapred::TaskTiming>& timings,
                  int limit) {
    std::map<cluster::NodeId, std::vector<std::pair<double, double>>> per;
    for (const auto& t : timings) per[t.node].emplace_back(t.start, t.end);
    for (auto& [node, spans] : per) {
      for (const auto& a : spans) {
        int overlap = 0;
        for (const auto& b : spans) {
          if (b.first <= a.first && a.first < b.second) ++overlap;
        }
        EXPECT_LE(overlap, limit);
      }
    }
  };
  for (const auto& run : r.runs) {
    if (run.status != JobResult::Status::kCompleted) continue;
    check(run.map_timings, map_slots);
    check(run.reduce_timings, reduce_slots);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SlotDiscipline,
    ::testing::Combine(::testing::Values(1, 2, 4),
                       ::testing::Values(1, 2), ::testing::Bool()));

// ---------------------------------------------------------------------
// P5: recomputation minimality per failure position
// ---------------------------------------------------------------------

class CascadeShape : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(CascadeShape, FailureAtJobKRecomputesKMinusOneJobs) {
  const std::uint32_t fail_at = GetParam();
  const std::uint32_t chain = 5;
  Scenario s(workloads::tiny_config(6, chain));
  StrategyConfig sc;
  sc.strategy = Strategy::kRcmpSplit;
  cluster::FailurePlan plan;
  plan.at_job_ordinals = {fail_at};
  const auto r = s.run(sc, plan);
  ASSERT_TRUE(r.completed);

  std::uint32_t recomputes = 0, cancelled = 0;
  for (const auto& run : r.runs) {
    if (run.status == JobResult::Status::kCancelled) ++cancelled;
    if (run.was_recompute &&
        run.status == JobResult::Status::kCompleted) {
      ++recomputes;
      // Damaged reducers only: one node lost of 6 => at most
      // ceil(reducers/6) partitions, each split into <= alive-1 tasks.
      EXPECT_LE(run.reducers_executed, 1u * (6 - 1));
    }
  }
  EXPECT_EQ(cancelled, 1u);
  EXPECT_EQ(recomputes, fail_at - 1);
  EXPECT_EQ(r.jobs_started, chain + recomputes + 1);
}

INSTANTIATE_TEST_SUITE_P(Sweep, CascadeShape,
                         ::testing::Values(2u, 3u, 4u, 5u));

// ---------------------------------------------------------------------
// P6: flow network fuzz — always drains
// ---------------------------------------------------------------------

class FlowFuzz : public ::testing::TestWithParam<int> {};

TEST_P(FlowFuzz, RandomWorkloadsDrain) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  sim::Simulation sim;
  res::FlowNetwork net(sim);
  std::vector<res::LinkId> links;
  const int nlinks = 5 + static_cast<int>(rng.below(20));
  for (int i = 0; i < nlinks; ++i) {
    res::LinkSpec spec;
    spec.name = "l";
    spec.capacity = 1e6 * (1 + rng.below(100));
    spec.contention_alpha = rng.uniform() * 0.8;
    spec.contention_threshold = 1.0 + rng.uniform() * 4.0;
    links.push_back(net.add_link(spec));
  }
  int completed = 0;
  const int nflows = 50 + static_cast<int>(rng.below(200));
  for (int i = 0; i < nflows; ++i) {
    res::FlowSpec fs;
    const int plen = 1 + static_cast<int>(rng.below(4));
    for (int p = 0; p < plen; ++p) {
      fs.path.push_back(links[rng.below(links.size())]);
      fs.weights.push_back(0.5 + rng.uniform() * 2.0);
    }
    fs.bytes = 1 + rng.below(100'000'000);
    fs.tail_latency = rng.uniform() * 5.0;
    fs.on_complete = [&completed] { ++completed; };
    const double start = rng.uniform() * 50.0;
    sim.schedule_at(start, [&net, fs = std::move(fs)]() mutable {
      net.start_flow(std::move(fs));
    });
  }
  sim.set_max_events(10'000'000);
  sim.run();
  EXPECT_EQ(completed, nflows);
  EXPECT_EQ(net.active_flows(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Sweep, FlowFuzz, ::testing::Range(0, 12));

// ---------------------------------------------------------------------
// P7: random failure schedules always recover with correct data
// ---------------------------------------------------------------------

class RandomFailures : public ::testing::TestWithParam<int> {};

TEST_P(RandomFailures, ChecksumSurvivesRandomSchedules) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 77 + 5);
  const auto cfg = workloads::payload_config(7, 5);

  mapred::Checksum ref;
  {
    Scenario s(cfg);
    StrategyConfig sc;
    sc.strategy = Strategy::kRcmpSplit;
    ASSERT_TRUE(s.run(sc).completed);
    ref = s.final_output_checksum();
  }

  cluster::FailurePlan plan;
  const int nfail = 1 + static_cast<int>(rng.below(2));
  for (int i = 0; i < nfail; ++i) {
    plan.at_job_ordinals.push_back(
        2 + static_cast<std::uint32_t>(rng.below(7)));
  }
  Scenario s(cfg);
  StrategyConfig sc;
  sc.strategy = Strategy::kRcmpSplit;
  const auto r = s.run(sc, plan);
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(s.final_output_checksum(), ref);
}

INSTANTIATE_TEST_SUITE_P(Sweep, RandomFailures, ::testing::Range(0, 10));

}  // namespace
}  // namespace rcmp

// ---------------------------------------------------------------------
// P8: the functional (payload) execution mode must not perturb the
// performance model — with 1:1 UDFs and record-derived sizes equal to
// the virtual sizes, both modes simulate identical timings.
// ---------------------------------------------------------------------

namespace rcmp {
namespace {

using core::Strategy;
using core::StrategyConfig;
using workloads::Scenario;

class PayloadVirtualEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(PayloadVirtualEquivalence, SameTimeline) {
  const int nodes = GetParam();
  auto base = workloads::payload_config(static_cast<std::uint32_t>(nodes),
                                        3, /*records_per_node=*/512);
  StrategyConfig sc;
  sc.strategy = Strategy::kRcmpSplit;

  auto virt = base;
  virt.payload = false;  // identical total sizes, no records
  const double t_payload = Scenario(base).run(sc).total_time;
  const double t_virtual = Scenario(virt).run(sc).total_time;
  // Payload mode partitions real records by hash, so per-reducer bucket
  // sizes deviate from the virtual mode's exact uniform split by
  // O(sqrt(records)); timings agree to within that imbalance.
  EXPECT_NEAR(t_payload, t_virtual, t_virtual * 0.02);
}

INSTANTIATE_TEST_SUITE_P(Sweep, PayloadVirtualEquivalence,
                         ::testing::Values(3, 5, 8));

// P9: checksum invariance across cluster shapes (nodes x chain length).
class ShapeSweep
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(ShapeSweep, FailureRecoveryPreservesData) {
  const auto [nodes, chain] = GetParam();
  const auto cfg = workloads::payload_config(
      static_cast<std::uint32_t>(nodes),
      static_cast<std::uint32_t>(chain));
  StrategyConfig sc;
  sc.strategy = Strategy::kRcmpSplit;

  mapred::Checksum ref;
  {
    Scenario s(cfg);
    ASSERT_TRUE(s.run(sc).completed);
    ref = s.final_output_checksum();
  }
  Scenario s(cfg);
  cluster::FailurePlan plan;
  plan.at_job_ordinals = {static_cast<std::uint32_t>(chain)};
  const auto r = s.run(sc, plan);
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(s.final_output_checksum(), ref);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ShapeSweep,
    ::testing::Combine(::testing::Values(3, 4, 6, 9),
                       ::testing::Values(2, 4, 6)));

}  // namespace
}  // namespace rcmp
