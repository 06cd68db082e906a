// Tests for the observability subsystem (src/obs): tracer ring +
// deterministic exports, metrics registry, the invariant auditor, and
// regression tests for the accounting bugs the auditor was built to
// flag (eviction arithmetic, unverifiable shuffle buckets, dynamic
// hybrid NaN intervals, mid-job storage sampling).
#include <gtest/gtest.h>

#include <cmath>

#include "mapred/map_output_store.hpp"
#include "obs/audit.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "workloads/multi_scenario.hpp"
#include "workloads/scenario.hpp"

namespace rcmp {
namespace {

using core::Strategy;
using core::StrategyConfig;
using workloads::Scenario;

StrategyConfig rcmp_split() {
  StrategyConfig cfg;
  cfg.strategy = Strategy::kRcmpSplit;
  return cfg;
}

cluster::FailurePlan fail_at(std::vector<std::uint32_t> ords) {
  cluster::FailurePlan plan;
  plan.at_job_ordinals = std::move(ords);
  return plan;
}

// --- tracer ring -----------------------------------------------------

TEST(Tracer, DisabledCapturesNothing) {
  obs::Tracer t;
  t.emit(1.0, obs::EventType::kFailure, obs::kKindKill, 3, obs::kNoField,
         obs::kNoField, 0.0);
  EXPECT_FALSE(t.enabled());
  EXPECT_EQ(t.size(), 0u);
  EXPECT_TRUE(t.export_jsonl().empty());
}

TEST(Tracer, RingOverwritesOldestAndCountsDrops) {
  obs::Tracer t;
  t.enable(4);
  for (std::uint32_t i = 0; i < 6; ++i) {
    t.emit(static_cast<double>(i), obs::EventType::kTaskStart,
           obs::kKindMap, 0, 0, i, 0.0);
  }
  EXPECT_EQ(t.size(), 4u);
  EXPECT_EQ(t.dropped(), 2u);
  const auto evs = t.events();
  ASSERT_EQ(evs.size(), 4u);
  // Oldest-first: events 0 and 1 were overwritten.
  EXPECT_EQ(evs.front().index, 2u);
  EXPECT_EQ(evs.back().index, 5u);
  // Re-enabling clears the ring.
  t.enable(4);
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.dropped(), 0u);
}

TEST(Tracer, JsonlAndChromeGolden) {
  obs::Tracer t;
  t.enable(8);
  t.emit(0.5, obs::EventType::kJobStart, 0, obs::kNoField, 2, 1, 0.0);
  // A finished map task becomes a Chrome "X" slice: start = time-value.
  t.emit(3.25, obs::EventType::kTaskFinish, obs::kKindMap, 4, 2, 7, 1.5);
  EXPECT_EQ(t.export_jsonl(),
            "{\"t\":0.5,\"ev\":\"job_start\",\"kind\":0,\"node\":-1,"
            "\"job\":2,\"i\":1,\"v\":0}\n"
            "{\"t\":3.25,\"ev\":\"task_finish\",\"kind\":0,\"node\":4,"
            "\"job\":2,\"i\":7,\"v\":1.5}\n");
  EXPECT_EQ(t.export_chrome(),
            "{\"traceEvents\":[{\"name\":\"job_start\",\"ph\":\"i\","
            "\"s\":\"g\",\"ts\":500000.000,\"pid\":0,\"tid\":0},\n"
            "{\"name\":\"map j2 #7\",\"ph\":\"X\",\"ts\":1750000.000,"
            "\"dur\":1500000.000,\"pid\":4,\"tid\":0}]}\n");
}

TEST(Tracer, ScenarioWithoutTraceCapacityStaysSilent) {
  Scenario s(workloads::tiny_config(5, 3));
  const auto r = s.run(rcmp_split());
  ASSERT_TRUE(r.completed);
  EXPECT_FALSE(s.obs().tracer.enabled());
  EXPECT_EQ(s.obs().tracer.size(), 0u);
}

TEST(Tracer, SameSeedRunsExportByteIdenticalTraces) {
  auto traced_run = [](std::string* jsonl, std::string* chrome) {
    auto cfg = workloads::payload_config(6, 4, 256);
    cfg.trace_capacity = 1 << 16;
    Scenario s(cfg);
    const auto r = s.run(rcmp_split(), fail_at({2, 3}));
    ASSERT_TRUE(r.completed);
    *jsonl = s.obs().tracer.export_jsonl();
    *chrome = s.obs().tracer.export_chrome();
  };
  std::string j1, c1, j2, c2;
  traced_run(&j1, &c1);
  traced_run(&j2, &c2);
  EXPECT_FALSE(j1.empty());
  EXPECT_FALSE(c1.empty());
  EXPECT_EQ(j1, j2);
  EXPECT_EQ(c1, c2);
  // The trace saw the injected failures and the recomputation.
  EXPECT_NE(j1.find("\"ev\":\"failure\""), std::string::npos);
  EXPECT_NE(j1.find("\"ev\":\"replan\""), std::string::npos);
  EXPECT_NE(j1.find("\"ev\":\"task_reexec\""), std::string::npos);
}

// --- metrics registry ------------------------------------------------

TEST(Metrics, CountersGaugesHistograms) {
  obs::MetricsRegistry m;
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.counter("missing"), 0u);
  EXPECT_EQ(m.find_gauge("missing"), nullptr);
  m.add("a");
  m.add("a", 4);
  m.set_gauge("g", 2.5);
  m.observe("h", 1.0);
  m.observe("h", 3.0);
  EXPECT_EQ(m.counter("a"), 5u);
  ASSERT_NE(m.find_gauge("g"), nullptr);
  EXPECT_DOUBLE_EQ(*m.find_gauge("g"), 2.5);
  ASSERT_NE(m.find_histogram("h"), nullptr);
  EXPECT_EQ(m.find_histogram("h")->count(), 2u);
  EXPECT_DOUBLE_EQ(m.find_histogram("h")->mean(), 2.0);
  // Golden dump: a single-sample histogram keeps every percentile exact
  // (interpolated percentiles of multi-sample sets are not integers).
  obs::MetricsRegistry g;
  g.add("a", 5);
  g.set_gauge("g", 2.5);
  g.observe("h", 2.0);
  EXPECT_EQ(g.dump_json(),
            "{\"counters\":{\"a\":5},\"gauges\":{\"g\":2.5},"
            "\"histograms\":{\"h\":{\"count\":1,\"mean\":2,\"min\":2,"
            "\"max\":2,\"p50\":2,\"p90\":2,\"p99\":2}}}\n");
}

TEST(Metrics, ChainResultIsMirroredAtCompletion) {
  Scenario s(workloads::tiny_config(5, 4));
  const auto r = s.run(rcmp_split(), fail_at({2}));
  ASSERT_TRUE(r.completed);
  const auto& m = s.obs().metrics;
  ASSERT_NE(m.find_gauge("chain.completed"), nullptr);
  EXPECT_DOUBLE_EQ(*m.find_gauge("chain.completed"), 1.0);
  EXPECT_DOUBLE_EQ(*m.find_gauge("chain.jobs_started"),
                   static_cast<double>(r.jobs_started));
  EXPECT_DOUBLE_EQ(*m.find_gauge("chain.replans"),
                   static_cast<double>(r.replans));
  EXPECT_DOUBLE_EQ(*m.find_gauge("chain.peak_storage_bytes"),
                   static_cast<double>(r.peak_storage));
  ASSERT_NE(m.find_histogram("jobs.duration_seconds"), nullptr);
  EXPECT_GT(m.find_histogram("jobs.duration_seconds")->count(), 0u);
}

TEST(Metrics, SimulatorCountersArePublishedAtScenarioEnd) {
  Scenario s(workloads::tiny_config(5, 4));
  ASSERT_TRUE(s.run(rcmp_split(), fail_at({2})).completed);
  const auto& m = s.obs().metrics;
  const sim::Simulation& sim = s.sim();
  const res::FlowNetwork& net = s.env().net;
  EXPECT_GT(sim.events_processed(), 0u);
  EXPECT_GT(net.fill_rounds(), 0u);
  EXPECT_EQ(m.counter("sim.events"), sim.events_processed());
  EXPECT_EQ(m.counter("sim.cancelled"), sim.events_cancelled());
  ASSERT_NE(m.find_gauge("sim.peak_pending"), nullptr);
  EXPECT_EQ(*m.find_gauge("sim.peak_pending"),
            static_cast<double>(sim.peak_pending()));
  EXPECT_EQ(m.counter("net.realloc_passes"), net.reallocations());
  EXPECT_EQ(m.counter("net.flows_reallocated"), net.flows_reallocated());
  EXPECT_EQ(m.counter("net.fill_rounds"), net.fill_rounds());
}

// Failure-free, every mapper verifies its input block once and every
// reducer verifies each mapper's bucket once, so each of the 4 x 64
// records is digested twice per job.
TEST(Metrics, PayloadIntegrityCountersArePublishedAtScenarioEnd) {
  Scenario s(workloads::payload_config(4, 2, 64));
  const core::ChainResult r = s.run(rcmp_split());
  ASSERT_TRUE(r.completed);
  const auto& m = s.obs().metrics;
  const auto& blocks = s.payloads().integrity();
  const auto& buckets = s.env().map_outputs.integrity();
  EXPECT_EQ(m.counter("payload.checks"), blocks.checks + buckets.checks);
  EXPECT_EQ(m.counter("payload.checked_records"),
            blocks.records + buckets.records);
  std::uint64_t maps = 0, fetches = 0;
  for (const auto& run : r.runs) {
    maps += run.mappers_executed;
    fetches += std::uint64_t{run.mappers_executed} * run.reducers_executed;
  }
  EXPECT_EQ(blocks.checks, maps);
  EXPECT_EQ(buckets.checks, fetches);
  EXPECT_EQ(m.counter("payload.checks"), 170u);
  EXPECT_EQ(m.counter("payload.checked_records"), 2u * 2u * 4u * 64u);
}

TEST(Metrics, MultiScenarioPublishesSimulatorCounters) {
  workloads::MultiScenarioConfig cfg;
  cfg.base = workloads::payload_config(6, 2, 64);
  cfg.chains = 2;
  workloads::MultiScenario ms(cfg);
  for (const auto& r : ms.run(rcmp_split())) ASSERT_TRUE(r.completed);
  const auto& m = ms.obs().metrics;
  EXPECT_EQ(m.counter("sim.events"), ms.sim().events_processed());
  EXPECT_EQ(m.counter("sim.cancelled"), ms.sim().events_cancelled());
  ASSERT_NE(m.find_gauge("sim.peak_pending"), nullptr);
  EXPECT_EQ(*m.find_gauge("sim.peak_pending"),
            static_cast<double>(ms.sim().peak_pending()));
  EXPECT_GT(m.counter("net.realloc_passes"), 0u);
  EXPECT_GT(m.counter("net.flows_reallocated"), 0u);
  // Every tenant's store is summed: 2 chains x 2 jobs, each digesting
  // the 6 x 64 records at map input and again at shuffle fetch.
  EXPECT_EQ(m.counter("payload.checked_records"), 2u * 2u * 2u * 6u * 64u);
}

// --- invariant auditor -----------------------------------------------

TEST(Auditor, CleanRunsPassAndCountChecks) {
  Scenario s(workloads::tiny_config(5, 4));
  const auto r = s.run(rcmp_split(), fail_at({3}));
  ASSERT_TRUE(r.completed);
  ASSERT_NE(s.auditor(), nullptr);
  EXPECT_GT(s.auditor()->checks_run(), 0u);
  // A recomputation under RCMP reuses persisted map outputs, and every
  // reuse decision flows through the Fig. 5 legality check.
  EXPECT_GT(s.auditor()->reuse_checks(), 0u);
  EXPECT_EQ(s.obs().metrics.counter("audit.checks"),
            s.auditor()->checks_run());
}

TEST(Auditor, CatchesCorruptedDfsLedger) {
  Scenario s(workloads::tiny_config(5, 3));
  s.dfs().debug_corrupt_ledger(0, 512);
  EXPECT_THROW(s.run(rcmp_split()), obs::AuditError);
}

TEST(Auditor, CatchesCorruptedMapOutputLedger) {
  Scenario s(workloads::tiny_config(5, 3));
  s.map_outputs().debug_corrupt_ledger(1000);
  EXPECT_THROW(s.run(rcmp_split()), obs::AuditError);
}

TEST(Auditor, ReportsViolationCounterBeforeThrowing) {
  Scenario s(workloads::tiny_config(5, 3));
  s.dfs().debug_corrupt_ledger(1, 64);
  EXPECT_THROW(s.run(rcmp_split()), obs::AuditError);
  EXPECT_GT(s.obs().metrics.counter("audit.violations"), 0u);
}

TEST(Auditor, Fig5ViolationIsFatalWhenEnforced) {
  Scenario s(workloads::tiny_config(5, 3));
  obs::ReuseCheck stale{/*logical_job=*/0, /*input_partition=*/0,
                        /*block_index=*/0, /*stored_layout_version=*/1,
                        /*current_layout_version=*/2,
                        /*fig5_enforced=*/true};
  EXPECT_THROW(s.obs().check_reuse(stale), obs::AuditError);
  // With the rule deliberately disabled the check records but tolerates.
  stale.fig5_enforced = false;
  EXPECT_NO_THROW(s.obs().check_reuse(stale));
}

TEST(Auditor, DisabledByConfig) {
  auto cfg = workloads::tiny_config(5, 3);
  cfg.audit = false;
  Scenario s(cfg);
  EXPECT_EQ(s.auditor(), nullptr);
  s.dfs().debug_corrupt_ledger(0, 512);  // nobody is watching
  const auto r = s.run(rcmp_split());
  EXPECT_TRUE(r.completed);
}

// --- satellite regressions -------------------------------------------

// evict_upto used to accumulate freed bytes in a double; the integer
// ledger must free and report exact byte counts.
TEST(MapOutputStoreRegression, EvictReportsExactIntegerBytes) {
  mapred::MapOutputStore store;
  const double sizes[] = {1000.6, 2000.4, 3000.5};
  Bytes charged = 0;
  for (std::uint32_t i = 0; i < 3; ++i) {
    mapred::MapOutput out;
    out.node = i;
    out.total_bytes = sizes[i];
    charged += static_cast<Bytes>(std::llround(sizes[i]));
    store.put(mapred::MapOutputKey{7, 0, i}, std::move(out));
  }
  EXPECT_EQ(store.total_used(), charged);
  EXPECT_EQ(store.used_for_job(7), charged);
  // Ask for one byte: exactly one output (the highest key) goes.
  const Bytes freed = store.evict_upto(7, 1);
  EXPECT_EQ(freed, static_cast<Bytes>(std::llround(3000.5)));
  EXPECT_EQ(store.total_used(), charged - freed);
  // Ask for everything: the report matches the ledger delta exactly.
  const Bytes rest = store.evict_upto(7, ~Bytes{0});
  EXPECT_EQ(rest, charged - freed);
  EXPECT_EQ(store.total_used(), 0u);
  EXPECT_TRUE(store.audit_ledger().empty());
}

// bucket_intact() used to return true for any partition index at or
// beyond bucket_sums.size() — an unverifiable read passed silently.
TEST(MapOutputStoreRegression, MissingChecksumIsNeverIntact) {
  mapred::MapOutputStore store;
  mapred::MapOutput out;
  out.node = 0;
  out.total_bytes = 64.0;
  out.buckets.resize(2);
  out.buckets[0].push_back(mapred::Record{1, 2});
  out.buckets[1].push_back(mapred::Record{3, 4});
  // Pre-seeded sums for only the first bucket suppress auto-capture.
  out.bucket_sums.push_back(mapred::BlockDigest::of(out.buckets[0]));
  const mapred::MapOutputKey key{1, 0, 0};
  store.put(key, std::move(out));

  EXPECT_EQ(store.bucket_state(key, 0), mapred::BucketState::kIntact);
  EXPECT_EQ(store.bucket_state(key, 1), mapred::BucketState::kMissingSum);
  EXPECT_FALSE(store.bucket_intact(key, 1));
  // Out-of-range partitions are just as unverifiable.
  EXPECT_EQ(store.bucket_state(key, 9), mapred::BucketState::kMissingSum);
}

// The dynamic hybrid's Young's-interval check with a zero failure rate
// and zero replication overhead used to compute sqrt(0 * inf) = NaN;
// the hardened version treats an infinite MTBF as "never replicate".
TEST(DynamicHybridRegression, ZeroFailureRateNeverReplicates) {
  auto run_with = [](double rate, double overhead) {
    Scenario s(workloads::tiny_config(5, 6));
    StrategyConfig cfg = rcmp_split();
    cfg.hybrid_dynamic = true;
    cfg.node_failure_rate_per_day = rate;
    cfg.hybrid_replication_overhead = overhead;
    return s.run(cfg);
  };
  const auto nan_case = run_with(0.0, 0.0);
  ASSERT_TRUE(nan_case.completed);
  EXPECT_EQ(nan_case.replication_points, 0u);
  const auto inf_case = run_with(0.0, 0.3);
  ASSERT_TRUE(inf_case.completed);
  EXPECT_EQ(inf_case.replication_points, 0u);
}

// peak_storage used to be sampled only at job boundaries: a chain that
// dies inside its first job reported peak_storage == 0 even though the
// DFS held the whole source input. Failure events and shuffle
// completions now sample too.
TEST(StorageSamplingRegression, PeakSampledEvenWhenChainDiesEarly) {
  auto cfg = workloads::tiny_config(5, 3);
  cfg.input_replication = 1;  // any storage loss kills the source
  Scenario s(cfg);
  const auto r = s.run(rcmp_split(), fail_at({1}));
  EXPECT_FALSE(r.completed);
  EXPECT_EQ(r.fail_reason, core::ChainResult::FailReason::kSourceDataLost);
  EXPECT_GT(r.peak_storage, 0u);
}

TEST(StorageSamplingRegression, ShuffleCompletionsSampleMidJob) {
  Scenario s(workloads::tiny_config(5, 3));
  const auto r = s.run(rcmp_split());
  ASSERT_TRUE(r.completed);
  // One sample per submit + per boundary + final would be ~2*jobs+2;
  // per-reducer shuffle-completion samples push well past that.
  const std::uint64_t samples = s.obs().metrics.counter("storage.samples");
  EXPECT_GT(samples, 2u * r.jobs_started + 2u);
}

}  // namespace
}  // namespace rcmp
