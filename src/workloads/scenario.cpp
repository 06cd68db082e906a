#include "workloads/scenario.hpp"

#include "common/error.hpp"
#include "common/log.hpp"

namespace rcmp::workloads {

Scenario::Scenario(ScenarioConfig cfg)
    : cfg_(cfg),
      net_(sim_),
      cluster_(sim_, net_, cfg_.cluster),
      dfs_(cluster_, cfg_.block_size, cfg_.seed ^ 0xdf5dULL),
      rng_(cfg_.seed) {
  if (cfg_.trace_capacity > 0) obs_.tracer.enable(cfg_.trace_capacity);
  cluster_.set_tracer(&obs_.tracer);
  if (cfg_.journal) journal_ = std::make_unique<core::DecisionJournal>();
  // RAM tier (ClusterSpec::ram_bytes > 0): the store charges the
  // cluster's physical RAM ledger in namespace 1 (0 is the DFS).
  if (cluster_.ram_enabled()) map_outputs_.attach_ram(&cluster_, 1);
  if (cfg_.audit) {
    obs::Auditor::Refs refs;
    refs.sim = &sim_;
    refs.net = &net_;
    refs.cluster = &cluster_;
    refs.dfs = &dfs_;
    refs.map_outputs = &map_outputs_;
    refs.payloads = &payloads_;
    auditor_ = std::make_unique<obs::Auditor>(refs, obs_);
  }
  if (cfg_.detector.enabled) {
    detector_ = std::make_unique<cluster::FailureDetector>(
        sim_, cluster_, cfg_.detector, &obs_);
    if (cfg_.detector.audit_reconcile && auditor_ != nullptr) {
      // Registered before the middleware's handlers (run() constructs
      // it later), so the digest is captured before the engine reacts
      // to the suspicion and checked before it re-adopts outputs —
      // both of which must leave the ledgers untouched anyway.
      detector_->on_detection(
          [this](cluster::NodeId n, cluster::DetectionKind kind) {
            if (kind == cluster::DetectionKind::kFalseSuspicion) {
              auditor_->note_suspicion(n);
            }
          });
      detector_->on_reconcile(
          [this](cluster::NodeId n) { auditor_->check_reconcile(n); });
    }
  }

  generate_input();

  chain_.jobs.reserve(cfg_.chain_length);
  for (std::uint32_t j = 0; j < cfg_.chain_length; ++j) {
    core::JobTemplate t;
    t.name = "job" + std::to_string(j + 1);
    t.num_reducers = cfg_.reducers_per_job;  // 0 = auto (one wave)
    t.map_output_ratio = 1.0;                // the paper's 1/1/1 ratio
    t.reduce_output_ratio = 1.0;
    t.udf_id = kChainUdfId;
    if (cfg_.payload) {
      t.mapper = &mapper_;
      t.reducer = &reducer_;
    }
    chain_.jobs.push_back(std::move(t));
  }
}

void Scenario::generate_input() {
  // "randomly generated, triple replicated, binary input data",
  // distributed evenly: one partition local to each storage node (in
  // the collocated default, every node).
  const auto storage = cluster_.alive_storage_nodes();
  const auto nodes = static_cast<std::uint32_t>(storage.size());
  input_ = dfs_.create_file("input", nodes, cfg_.input_replication);
  for (std::uint32_t p = 0; p < nodes; ++p) {
    const cluster::NodeId writer = storage[p];
    const auto plan = dfs_.plan_write(input_, writer, cfg_.per_node_input,
                                      dfs::PlacementPolicy::kLocalFirst);
    dfs_.commit_partition(input_, p, plan);
    if (cfg_.payload) {
      const std::uint64_t count =
          cfg_.per_node_input / cfg_.engine.record_bytes;
      std::vector<mapred::Record> records;
      records.reserve(count);
      for (std::uint64_t r = 0; r < count; ++r) {
        records.push_back(mapred::Record{rng_(), rng_()});
      }
      payloads_.append(input_, p, std::move(records),
                       static_cast<std::uint32_t>(plan.size()));
    }
  }
}

core::TenantContext Scenario::make_tenant(
    const core::StrategyConfig& strategy) {
  core::TenantContext tenant;
  if (strategy.result_cache) {
    result_cache_ = std::make_unique<core::ResultCache>(dfs_, sim_, &obs_);
    tenant.result_cache = result_cache_.get();
    tenant.dataset_id = cfg_.dataset_id;
  }
  tenant.journal = journal_.get();
  return tenant;
}

core::ChainResult Scenario::run(core::StrategyConfig strategy,
                                cluster::FailurePlan failures) {
  RCMP_CHECK_MSG(!ran_, "Scenario is one-shot; construct a fresh one");
  ran_ = true;

  middleware_ = std::make_unique<core::Middleware>(
      env(), chain_, input_, strategy, cfg_.engine, rng_.fork_seed(),
      make_tenant(strategy));

  if (!failures.at_job_ordinals.empty()) {
    injector_ = std::make_unique<cluster::FailureInjector>(
        cluster_, failures, rng_.fork_seed());
    middleware_->on_job_start(
        [this](std::uint32_t ordinal) { injector_->notify_job_start(ordinal); });
  }

  return drive_to_completion();
}

core::ChainResult Scenario::run_chaos(core::StrategyConfig strategy,
                                      cluster::FaultSchedule schedule) {
  RCMP_CHECK_MSG(!ran_, "Scenario is one-shot; construct a fresh one");
  ran_ = true;

  // Reject master-crash events up front when no journal is attached: a
  // crashed coordinator without a write-ahead journal cannot recover.
  cluster::validate_fault_schedule(schedule, journal_ != nullptr);

  middleware_ = std::make_unique<core::Middleware>(
      env(), chain_, input_, strategy, cfg_.engine, rng_.fork_seed(),
      make_tenant(strategy));

  chaos_ = std::make_unique<cluster::ChaosEngine>(
      cluster_, std::move(schedule), rng_.fork_seed());
  chaos_->set_detector(detector_.get());
  chaos_->set_master_crasher([this] { return crash_master(); });
  chaos_->set_partition_corrupter(
      [this](Rng& rng) { return corrupt_random_partition(rng); });
  chaos_->set_map_output_corrupter(
      [this](Rng& rng) { return map_outputs_.corrupt_one(rng); });
  middleware_->on_job_start(
      [this](std::uint32_t ordinal) { chaos_->notify_job_start(ordinal); });

  return drive_to_completion();
}

core::ChainResult Scenario::drive_to_completion() {
  if (detector_ != nullptr) detector_->start();
  core::ChainResult result;
  middleware_->run([this, &result](const core::ChainResult& r) {
    result = r;
    // Silence heartbeats once the chain is decided so the simulation
    // can drain instead of ticking forever.
    if (detector_ != nullptr) detector_->stop();
  });
  sim_.run();
  RCMP_CHECK_MSG(middleware_->finished(),
                 "simulation drained before the chain completed "
                 "(engine deadlock)");
  publish_sim_metrics(obs_.metrics, sim_, net_);
  publish_payload_metrics(obs_.metrics, payloads_.integrity());
  publish_payload_metrics(obs_.metrics, map_outputs_.integrity());
  return result;
}

void publish_sim_metrics(obs::MetricsRegistry& m, const sim::Simulation& sim,
                         const res::FlowNetwork& net) {
  m.add("sim.events", sim.events_processed());
  m.add("sim.cancelled", sim.events_cancelled());
  m.set_gauge("sim.peak_pending", static_cast<double>(sim.peak_pending()));
  m.add("net.realloc_passes", net.reallocations());
  m.add("net.flows_reallocated", net.flows_reallocated());
  m.add("net.fill_rounds", net.fill_rounds());
}

void publish_payload_metrics(obs::MetricsRegistry& m,
                             const mapred::IntegrityCounters& c) {
  m.add("payload.checks", c.checks);
  m.add("payload.checked_records", c.records);
}

bool Scenario::crash_master() {
  if (journal_ == nullptr || middleware_ == nullptr) return false;
  // Order matters: destroy the middleware's volatile state first, then
  // wipe the shared registries it believed in (the cache's in-memory
  // index, the detector's suspicion/quarantine beliefs), then replay —
  // the reset detector must be clean BEFORE replay restores journaled
  // quarantines.
  if (!middleware_->crash_master()) return false;
  if (result_cache_ != nullptr) result_cache_->master_crash_reset();
  if (detector_ != nullptr) detector_->master_crash_reset();
  middleware_->recover_from_journal();
  return true;
}

void Scenario::arm_master_crash(std::uint64_t at_record) {
  RCMP_CHECK_MSG(journal_ != nullptr,
                 "arm_master_crash needs ScenarioConfig::journal");
  journal_->arm_crash(at_record, [this] {
    // Defer through the queue: the sealing append sits somewhere inside
    // the coordinator's own call stack, and destroying that state
    // re-entrantly would be use-after-free by design.
    sim_.schedule_after(0.0, [this] { crash_master(); });
  });
}

bool Scenario::corrupt_random_partition(Rng& rng) {
  // Candidates: written, still-available partitions of the chain's
  // *intermediate* outputs. The final output is excluded — nothing
  // re-reads it, so read-path verification could never catch the flip
  // and the campaign's final checksum would be silently wrong.
  std::vector<std::pair<dfs::FileId, dfs::PartitionIndex>> candidates;
  const auto njobs = static_cast<std::uint32_t>(chain_.jobs.size());
  for (std::uint32_t l = 0; l + 1 < njobs; ++l) {
    const dfs::FileId f = middleware_->output_file(l);
    if (!dfs_.file_exists(f)) continue;
    for (dfs::PartitionIndex p = 0; p < dfs_.num_partitions(f); ++p) {
      if (!dfs_.partition(f, p).written) continue;
      if (!dfs_.partition_available(f, p)) continue;
      candidates.emplace_back(f, p);
    }
  }
  if (candidates.empty()) return false;
  const auto [f, p] = candidates[rng.below(candidates.size())];
  if (cfg_.payload && payloads_.has(f, p)) {
    return payloads_.corrupt_record(f, p);
  }
  dfs_.mark_corrupt(f, p);
  return true;
}

dfs::FileId Scenario::final_output_file() const {
  RCMP_CHECK(middleware_ != nullptr);
  return middleware_->output_file(
      static_cast<std::uint32_t>(chain_.jobs.size() - 1));
}

mapred::Checksum Scenario::final_output_checksum() {
  RCMP_CHECK(cfg_.payload);
  const dfs::FileId f = final_output_file();
  return payloads_.file_checksum(f, dfs_.num_partitions(f));
}

mapred::Checksum Scenario::input_checksum() {
  RCMP_CHECK(cfg_.payload);
  return payloads_.file_checksum(input_, dfs_.num_partitions(input_));
}

core::ChainResult run_scenario(const ScenarioConfig& cfg,
                               core::StrategyConfig strategy,
                               cluster::FailurePlan failures) {
  Scenario s(cfg);
  return s.run(strategy, std::move(failures));
}

}  // namespace rcmp::workloads
