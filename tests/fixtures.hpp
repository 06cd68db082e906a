// Shared test fixtures and builders.
//
// Before this header existed, test_engine/test_middleware/test_chaos/
// test_recompute each carried private copies of the same helpers with
// subtly different defaults (EngineFixture built 4-node clusters while
// the scenario tests used 5). Everything lives here now, with one
// canonical small-cluster size (kDefaultNodes) shared by every suite.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <ios>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cluster/chaos.hpp"
#include "cluster/failure_injector.hpp"
#include "common/hash.hpp"
#include "core/middleware.hpp"
#include "mapred/engine.hpp"
#include "obs/obs.hpp"
#include "workloads/multi_scenario.hpp"
#include "workloads/scenario.hpp"
#include "workloads/udfs.hpp"

namespace rcmp::testfx {

using namespace rcmp::literals;

/// Canonical small-cluster size for unit tests (matches tiny_config's
/// default node count).
inline constexpr std::uint32_t kDefaultNodes = 5;

inline core::StrategyConfig strat(core::Strategy s,
                                  std::uint32_t repl = 1) {
  core::StrategyConfig cfg;
  cfg.strategy = s;
  cfg.replication = repl;
  return cfg;
}

inline cluster::FailurePlan fail_at(std::vector<std::uint32_t> ords) {
  cluster::FailurePlan plan;
  plan.at_job_ordinals = std::move(ords);
  return plan;
}

/// Runs completed during a chain, by kind.
struct RunKinds {
  std::vector<const mapred::JobResult*> initial, recompute, cancelled;
};

inline RunKinds classify(const core::ChainResult& r) {
  RunKinds k;
  for (const auto& run : r.runs) {
    if (run.status == mapred::JobResult::Status::kCancelled) {
      k.cancelled.push_back(&run);
    } else if (run.was_recompute) {
      k.recompute.push_back(&run);
    } else {
      k.initial.push_back(&run);
    }
  }
  return k;
}

/// The failure-drill chaos testbed: two racks, payload records, enough
/// input-replication headroom that three storage-loss events provably
/// cannot destroy a source partition.
inline workloads::ScenarioConfig chaos_config(std::uint32_t nodes = 8,
                                              std::uint32_t chain = 5) {
  auto cfg = workloads::payload_config(nodes, chain,
                                       /*records_per_node=*/256);
  cfg.cluster.racks = 2;
  cfg.input_replication = 4;
  return cfg;
}

/// A bit-exact pin on one scenario run: the makespan's exact bits plus
/// a 64-bit FNV-1a digest of the JSONL trace and of the metrics dump.
struct Pin {
  double makespan;
  std::uint64_t trace_digest;
  std::uint64_t metrics_digest;
};

inline void expect_pin(const core::ChainResult& r, workloads::Scenario& s,
                       const Pin& want) {
  const double makespan = r.total_time;
  EXPECT_EQ(std::memcmp(&makespan, &want.makespan, sizeof(double)), 0)
      << std::hexfloat << makespan << " != " << want.makespan;
  const std::string trace = s.obs().tracer.export_jsonl();
  ASSERT_FALSE(trace.empty());
  EXPECT_EQ(fnv1a(trace), want.trace_digest)
      << std::hex << "0x" << fnv1a(trace);
  const std::string metrics = s.obs().metrics.dump_json();
  EXPECT_EQ(fnv1a(metrics), want.metrics_digest)
      << std::hex << "0x" << fnv1a(metrics);
}

/// `cfg` with a trace buffer large enough for a pinned run.
inline workloads::ScenarioConfig traced(workloads::ScenarioConfig cfg) {
  cfg.trace_capacity = 1 << 16;
  return cfg;
}

/// Fault-free reference checksum for a payload scenario config.
inline mapred::Checksum reference_for(
    const workloads::ScenarioConfig& cfg) {
  workloads::Scenario s(cfg);
  EXPECT_TRUE(s.run(strat(core::Strategy::kRcmpSplit)).completed);
  return s.final_output_checksum();
}

inline std::uint32_t sum_corrupt_blocks(const core::ChainResult& r) {
  std::uint32_t n = 0;
  for (const auto& run : r.runs) n += run.corrupt_blocks_detected;
  return n;
}

inline std::uint32_t sum_corrupt_map_outputs(const core::ChainResult& r) {
  std::uint32_t n = 0;
  for (const auto& run : r.runs) n += run.corrupt_map_outputs_detected;
  return n;
}

/// Bare simulation + flow network, for tests that build their own
/// cluster.
struct SimFixture {
  sim::Simulation sim;
  res::FlowNetwork net{sim};
};

inline cluster::ClusterSpec spec_of(std::uint32_t nodes,
                                    std::uint32_t racks = 1) {
  cluster::ClusterSpec spec;
  spec.nodes = nodes;
  spec.racks = racks;
  return spec;
}

/// Slot broker that grants a node's full slot complement to one run and
/// keeps a ledger of what that run holds. A release on a node where the
/// run holds nothing is counted as a bad release; release_all() records
/// how many slots were still held when it was called.
class CountingSlotBroker final : public mapred::SlotBroker {
 public:
  CountingSlotBroker(const cluster::Cluster& cluster,
                     std::uint32_t map_slots, std::uint32_t reduce_slots)
      : cluster_(cluster),
        cap_{map_slots, reduce_slots},
        held_{std::vector<std::uint32_t>(cluster.size(), 0),
              std::vector<std::uint32_t>(cluster.size(), 0)} {}

  bool may_acquire(cluster::NodeId n, mapred::SlotKind k) const override {
    return cluster_.compute_alive(n) && cluster_.is_compute_node(n) &&
           held_[idx(k)][n] < cap_[idx(k)];
  }
  void acquire(cluster::NodeId n, mapred::SlotKind k) override {
    EXPECT_TRUE(may_acquire(n, k));
    ++held_[idx(k)][n];
    ++acquires;
  }
  void release(cluster::NodeId n, mapred::SlotKind k) override {
    if (!cluster_.compute_alive(n)) return;  // forfeited at the failure
    if (held_[idx(k)][n] == 0) {
      ++bad_releases;
      return;
    }
    --held_[idx(k)][n];
    ++releases;
  }
  void release_all() override {
    held_at_release_all.push_back(held());
    for (auto& per_kind : held_) std::fill(per_kind.begin(), per_kind.end(), 0);
  }
  void set_demand(mapred::SlotKind, bool) override {}

  std::uint32_t held() const {
    std::uint32_t n = 0;
    for (const auto& per_kind : held_)
      for (std::uint32_t h : per_kind) n += h;
    return n;
  }

  std::uint32_t acquires = 0;
  std::uint32_t releases = 0;
  std::uint32_t bad_releases = 0;
  std::vector<std::uint32_t> held_at_release_all;

 private:
  static int idx(mapred::SlotKind k) { return static_cast<int>(k); }
  const cluster::Cluster& cluster_;
  std::uint32_t cap_[2];
  std::vector<std::uint32_t> held_[2];
};

/// Drives a single JobRun directly, without the middleware.
struct EngineFixture {
  explicit EngineFixture(std::uint32_t nodes = kDefaultNodes,
                         std::uint32_t blocks_per_node = 4,
                         std::uint32_t input_replication = 1,
                         std::uint32_t map_slots = 1,
                         std::uint32_t reduce_slots = 1)
      : net(sim),
        cluster(sim, net, make_cluster(nodes, map_slots, reduce_slots)),
        dfs(cluster, 64_MiB, 123) {
    cfg.detect_timeout = 30.0;
    cfg.task_startup = 0.2;
    cfg.job_setup_time = 1.0;
    cfg.map_cpu_rate = 400e6;
    cfg.reduce_cpu_rate = 400e6;

    input = dfs.create_file("input", nodes, input_replication);
    for (cluster::NodeId n = 0; n < nodes; ++n) {
      const Bytes bytes = static_cast<Bytes>(blocks_per_node) * 64_MiB;
      dfs.commit_partition(
          input, n,
          dfs.plan_write(input, n, bytes,
                         dfs::PlacementPolicy::kLocalFirst));
    }
  }

  static cluster::ClusterSpec make_cluster(std::uint32_t nodes,
                                           std::uint32_t map_slots,
                                           std::uint32_t reduce_slots) {
    cluster::ClusterSpec spec;
    spec.nodes = nodes;
    spec.disk_bw = 100e6;
    spec.nic_bw = 10e9 / 8;
    spec.map_slots = map_slots;
    spec.reduce_slots = reduce_slots;
    return spec;
  }

  mapred::Env env() {
    mapred::Env e{sim, net, cluster, dfs, outputs, payloads};
    e.slots = slots;
    return e;
  }

  mapred::JobSpec make_spec(std::uint32_t reducers,
                            std::uint32_t out_repl = 1) {
    mapred::JobSpec spec;
    spec.name = "test-job";
    spec.logical_id = 0;
    spec.set_input(input);
    spec.output = dfs.create_file("out", reducers, out_repl);
    spec.num_reducers = reducers;
    return spec;
  }

  /// Run a job to completion; returns the finished JobRun.
  mapred::JobRun& run(mapred::JobSpec spec,
                      mapred::RecomputeDirective dir = {}) {
    runs.push_back(std::make_unique<mapred::JobRun>(
        env(), std::move(spec), std::move(dir), cfg, next_ordinal++, 7,
        [](mapred::JobRun&) {}));
    runs.back()->start();
    sim.run();
    return *runs.back();
  }

  sim::Simulation sim;
  res::FlowNetwork net;
  cluster::Cluster cluster;
  dfs::NameNode dfs;
  mapred::MapOutputStore outputs;
  mapred::PayloadStore payloads;
  mapred::EngineConfig cfg;
  /// Optional slot arbiter for run(); nullptr keeps the engine's private
  /// slot accounting.
  mapred::SlotBroker* slots = nullptr;
  dfs::FileId input = dfs::kInvalidFile;
  std::uint32_t next_ordinal = 1;
  std::vector<std::unique_ptr<mapred::JobRun>> runs;
};

/// Payload-backed multi-tenant config: `chains` copies of the
/// payload_config chain shape on one shared cluster.
inline workloads::MultiScenarioConfig multi_config(
    std::uint32_t chains, std::uint32_t nodes = 6,
    std::uint32_t chain_length = 3,
    std::uint32_t records_per_node = 128) {
  workloads::MultiScenarioConfig cfg;
  cfg.base = workloads::payload_config(nodes, chain_length,
                                       records_per_node);
  cfg.chains = chains;
  return cfg;
}

/// kRcmpSplit with the shared result cache armed.
inline core::StrategyConfig cache_strategy() {
  auto s = strat(core::Strategy::kRcmpSplit);
  s.result_cache = true;
  return s;
}

/// Multi-tenant config where every chain reads the *same* dataset —
/// the 100%-overlap result-cache scene. Chains are admitted one at a
/// time so later tenants arrive after earlier ones published.
inline workloads::MultiScenarioConfig cache_multi_config(
    std::uint32_t chains, std::uint32_t nodes = 6,
    std::uint32_t chain_length = 3,
    std::uint32_t records_per_node = 128) {
  auto cfg = multi_config(chains, nodes, chain_length, records_per_node);
  cfg.dataset_ids.assign(chains, 0xDA7AULL);
  cfg.max_concurrent = 1;
  return cfg;
}

/// The forced-spill pressure scene (bench_memtier's second scene,
/// downsized): RAM sized far below the per-node working set, so
/// mid-chain writes must demote older memory blocks to disk. Pair with
/// a memory_tier strategy and assert storage.tier.spills > 0.
inline workloads::ScenarioConfig spill_pressure_config(
    std::uint32_t nodes = 8, std::uint32_t chain = 4) {
  auto cfg = chaos_config(nodes, chain);
  cfg.cluster.ram_bytes = 16 * 1024;  // vs a ~64 KiB working set
  return cfg;
}

/// Shared storage budget tight enough to force cross-chain eviction:
/// a quarter off the peak an unconstrained run of the same config
/// reached (test_scheduler's original recipe, shared by the
/// differential and cache suites).
inline Bytes tight_budget(const std::vector<core::ChainResult>& results) {
  Bytes peak = 0;
  for (const auto& res : results) {
    EXPECT_TRUE(res.completed);
    peak = std::max(peak, res.peak_storage);
  }
  EXPECT_GT(peak, 0u);
  return peak - peak / 4;
}

/// tight_budget for call sites without their own unconstrained run.
inline Bytes tight_shared_budget(workloads::MultiScenarioConfig cfg,
                                 const core::StrategyConfig& strategy) {
  workloads::MultiScenario free_run(cfg);
  return tight_budget(free_run.run(strategy));
}

/// Seed count for randomized sweeps: RCMP_FUZZ_SEEDS overrides the
/// local default (CI nightly/sanitizer jobs export 200+).
inline std::uint32_t fuzz_seed_count(std::uint32_t local_default) {
  const char* env = std::getenv("RCMP_FUZZ_SEEDS");
  if (env == nullptr) return local_default;
  const long v = std::strtol(env, nullptr, 10);
  return v > 0 ? static_cast<std::uint32_t>(v) : local_default;
}

}  // namespace rcmp::testfx
