// Scenario: one fully wired experiment — simulation, flow network,
// cluster, DFS, stores, the paper's chain workload, a failure plan and a
// strategy — run start to finish.
//
// A Scenario is one-shot: construct, optionally tweak, call run() once.
// Benches and tests construct a fresh Scenario per data point, which is
// also what guarantees statistical independence across seeds.
#pragma once

#include <memory>
#include <optional>

#include "cluster/chaos.hpp"
#include "cluster/failure_injector.hpp"
#include "core/journal.hpp"
#include "core/middleware.hpp"
#include "core/result_cache.hpp"
#include "obs/audit.hpp"
#include "workloads/presets.hpp"
#include "workloads/udfs.hpp"

namespace rcmp::workloads {

class Scenario {
 public:
  explicit Scenario(ScenarioConfig cfg);

  /// Run the chain to completion under a strategy, with optional
  /// injected failures. Returns the chain result; throws if the
  /// simulation deadlocks before the chain completes.
  core::ChainResult run(core::StrategyConfig strategy,
                        cluster::FailurePlan failures = {});

  /// Run under a typed FaultSchedule (the chaos engine) instead of the
  /// paper's ordinal kill plan. Corruption events are wired to the
  /// scenario's stores: kCorruptPartition flips data in a random
  /// *intermediate* chain output (never the final one — nothing re-reads
  /// it, so corruption there is undetectable by read-path verification),
  /// kCorruptMapOutput flips a persisted map-output bucket.
  core::ChainResult run_chaos(core::StrategyConfig strategy,
                              cluster::FaultSchedule schedule);

  // --- introspection for tests and benches ---------------------------
  mapred::Env env() {
    mapred::Env e{sim_,         net_,       cluster_, dfs_,
                  map_outputs_, payloads_, &obs_};
    e.detector = detector_.get();
    return e;
  }
  sim::Simulation& sim() { return sim_; }
  cluster::Cluster& cluster() { return cluster_; }
  dfs::NameNode& dfs() { return dfs_; }
  mapred::MapOutputStore& map_outputs() { return map_outputs_; }
  mapred::PayloadStore& payloads() { return payloads_; }
  dfs::FileId input_file() const { return input_; }
  const ScenarioConfig& config() const { return cfg_; }
  core::Middleware& middleware() { return *middleware_; }
  cluster::FailureInjector* injector() { return injector_.get(); }
  cluster::ChaosEngine* chaos() { return chaos_.get(); }
  obs::Observability& obs() { return obs_; }
  /// Null when ScenarioConfig::audit is false.
  obs::Auditor* auditor() { return auditor_.get(); }
  /// Null when ScenarioConfig::detector.enabled is false.
  cluster::FailureDetector* detector() { return detector_.get(); }
  /// Null unless run with StrategyConfig::result_cache set.
  core::ResultCache* result_cache() { return result_cache_.get(); }
  /// Null unless ScenarioConfig::journal is set.
  core::DecisionJournal* journal() { return journal_.get(); }

  /// Crash and recover the coordinator now: middleware state is
  /// destroyed, the shared registries (result cache, detector beliefs)
  /// are reset, and the chain resumes by replaying the journal against
  /// the surviving cluster ledger. False when there is nothing to crash
  /// (no journal, chain finished / not yet started). ChaosEngine's
  /// kMasterCrash events land here.
  bool crash_master();

  /// Crash-point fuzzing: seal the journal at record `at_record`
  /// (0-based; that append and everything after it is lost) and crash
  /// the master. The crash itself is deferred through the event queue so
  /// destruction never happens re-entrantly inside the appending call.
  void arm_master_crash(std::uint64_t at_record);

  /// Payload mode: checksum of the final job's output records.
  mapred::Checksum final_output_checksum();
  /// Payload mode: checksum of the source input records.
  mapred::Checksum input_checksum();
  dfs::FileId final_output_file() const;

  /// The chain templates (exposed so tests can customize before run()).
  core::ChainSpec& chain() { return chain_; }

 private:
  void generate_input();
  core::TenantContext make_tenant(const core::StrategyConfig& strategy);
  core::ChainResult drive_to_completion();
  bool corrupt_random_partition(Rng& rng);

  ScenarioConfig cfg_;
  sim::Simulation sim_;
  res::FlowNetwork net_;
  cluster::Cluster cluster_;
  dfs::NameNode dfs_;
  mapred::MapOutputStore map_outputs_;
  mapred::PayloadStore payloads_;
  // Declared after every audited subsystem (so hooks die first) and
  // before the middleware (which installs a hook at construction).
  obs::Observability obs_;
  std::unique_ptr<obs::Auditor> auditor_;
  /// Constructed (when enabled) before the middleware so its cluster
  /// handlers run first: suspicion state is current when engines react.
  std::unique_ptr<cluster::FailureDetector> detector_;
  Rng rng_;

  ChainMapper mapper_;
  ChainReducer reducer_;
  core::ChainSpec chain_;
  dfs::FileId input_ = dfs::kInvalidFile;

  /// Constructed lazily in run()/run_chaos() when the strategy enables
  /// the result cache; declared before the middleware that borrows
  /// through it.
  std::unique_ptr<core::ResultCache> result_cache_;
  /// Constructed when ScenarioConfig::journal is set; declared before
  /// the middleware that appends to it.
  std::unique_ptr<core::DecisionJournal> journal_;
  std::unique_ptr<core::Middleware> middleware_;
  std::unique_ptr<cluster::FailureInjector> injector_;
  std::unique_ptr<cluster::ChaosEngine> chaos_;
  bool ran_ = false;
};

/// Publish the simulator-core host counters into `m` once a scenario's
/// simulation has drained: sim.events, sim.cancelled, net.realloc_passes,
/// net.flows_reallocated and net.fill_rounds as counters, and
/// sim.peak_pending as a gauge.
void publish_sim_metrics(obs::MetricsRegistry& m, const sim::Simulation& sim,
                         const res::FlowNetwork& net);

/// Add one store's read-path integrity work into `m` as the counters
/// payload.checks and payload.checked_records (call once per store).
void publish_payload_metrics(obs::MetricsRegistry& m,
                             const mapred::IntegrityCounters& c);

/// Convenience: run one scenario end to end and return the result.
core::ChainResult run_scenario(const ScenarioConfig& cfg,
                               core::StrategyConfig strategy,
                               cluster::FailurePlan failures = {});

}  // namespace rcmp::workloads
