#include "scenes.hpp"

#include <algorithm>
#include <exception>
#include <optional>
#include <utility>
#include <vector>

#include "common/hash.hpp"
#include "common/units.hpp"
#include "oracle.hpp"
#include "workloads/multi_scenario.hpp"
#include "workloads/scenario.hpp"

namespace perfbench {

namespace {

using rcmp::Bytes;
using rcmp::core::ChainResult;
using rcmp::core::Strategy;
using rcmp::core::StrategyConfig;
using rcmp::mapred::Checksum;
using rcmp::mapred::Record;
using rcmp::workloads::MultiScenario;
using rcmp::workloads::MultiScenarioConfig;
using rcmp::workloads::Scenario;
using rcmp::workloads::ScenarioConfig;

using namespace rcmp::literals;

// --- workload parameters ---------------------------------------------

/// payload_chaos: RAM tier per node, below the ~1 MiB per-node working
/// set of 4096 records/node so persisted outputs spill to disk.
constexpr Bytes kChaosRamBytes = 512_KiB;
/// multi_tenant: fixed shared storage budget, 0.75x the scene's 128 MiB
/// unconstrained peak (the tests' tight_budget rule).
constexpr Bytes kTenantBudget = 96_MiB;
/// Repro (a): RAM tier per node with 8 memory-tier tenants.
constexpr Bytes kReproRamBytes = 64_KiB;
/// Repro (b): shared budget at about 0.55x the 16-tenant unconstrained
/// peak.
constexpr Bytes kReproBudget = 96_MiB;
constexpr std::uint64_t kSharedDataset = 0xDA7AULL;

StrategyConfig strategy_of(Strategy s, std::uint32_t replication = 1) {
  StrategyConfig cfg;
  cfg.strategy = s;
  cfg.replication = replication;
  return cfg;
}

struct SingleScene {
  ScenarioConfig cfg;
  StrategyConfig strategy;
  rcmp::cluster::FailurePlan failures;
  std::optional<rcmp::cluster::FaultSchedule> chaos;
};

SingleScene single_scene(Workload w, std::uint64_t seed) {
  SingleScene s;
  switch (w) {
    case Workload::kPaperDco:
      // Fig. 8c's headline cell: RCMP SPLIT, one node killed 15 s into
      // job 7 of the 7-job DCO chain.
      s.cfg = rcmp::workloads::dco_config();
      s.strategy = strategy_of(Strategy::kRcmpSplit);
      s.failures.at_job_ordinals = {7};
      break;
    case Workload::kPaperRepl:
      // Fig. 8a's largest slowdown: Hadoop REPL-3, failure-free.
      s.cfg = rcmp::workloads::dco_config();
      s.strategy = strategy_of(Strategy::kReplication, 3);
      break;
    case Workload::kPayloadChaos: {
      s.cfg = rcmp::workloads::payload_config(8, 7, 4096);
      s.cfg.cluster.racks = 2;
      s.cfg.input_replication = 4;
      s.cfg.cluster.ram_bytes = kChaosRamBytes;
      s.cfg.detector.enabled = true;
      s.cfg.journal = true;
      s.strategy = strategy_of(Strategy::kRcmpSplit);
      s.strategy.memory_tier = true;
      // Four sampled faults, none correlated (no rack kills), plus one
      // coordinator crash.
      rcmp::cluster::RandomScheduleOptions opt;
      opt.events = 4;
      opt.max_ordinal = 7;
      opt.p_rack = 0.0;
      opt.p_network_partition = 0.05;
      opt.p_heartbeat_loss = 0.05;
      auto schedule = rcmp::cluster::random_schedule(opt, seed);
      rcmp::cluster::FaultEvent crash;
      crash.mode = rcmp::cluster::FaultMode::kMasterCrash;
      crash.at_job_ordinal = 3 + static_cast<std::uint32_t>(seed % 4);
      crash.delay = 5.0;
      schedule.events.push_back(crash);
      s.chaos = std::move(schedule);
      break;
    }
    case Workload::kMultiTenant:
      break;  // multi_scene()
  }
  s.cfg.seed = seed;
  return s;
}

struct MultiScene {
  MultiScenarioConfig cfg;
  StrategyConfig strategy;
};

MultiScene multi_scene(std::uint64_t seed) {
  MultiScene s;
  s.cfg.base = rcmp::workloads::payload_config(8, 4, 512);
  s.cfg.base.seed = seed;
  s.cfg.chains = 16;
  s.cfg.max_concurrent = 4;
  s.cfg.shared_storage_budget = kTenantBudget;
  // Even tenants read one shared dataset (cache hits once a sibling
  // published); odd tenants read private inputs with caching off.
  for (std::uint32_t c = 0; c < s.cfg.chains; ++c) {
    s.cfg.dataset_ids.push_back(c % 2 == 0 ? kSharedDataset : 0);
  }
  s.strategy = strategy_of(Strategy::kRcmpSplit);
  s.strategy.result_cache = true;
  return s;
}

MultiScene repro_scene(Repro r, std::uint64_t seed) {
  MultiScene s;
  s.strategy = strategy_of(Strategy::kRcmpSplit);
  switch (r) {
    case Repro::kRamLedgerDrift:
      s.cfg.base = rcmp::workloads::payload_config(8, 4, 256);
      s.cfg.base.cluster.ram_bytes = kReproRamBytes;
      s.cfg.chains = 8;
      s.strategy.memory_tier = true;
      break;
    case Repro::kUnregisteredMapper:
      s.cfg.base = rcmp::workloads::payload_config(8, 4, 512);
      s.cfg.chains = 16;
      s.cfg.shared_storage_budget = kReproBudget;
      break;
  }
  s.cfg.base.seed = seed;
  return s;
}

/// Times one phase of an op into `acc`, with a span when tracing.
class Phase {
 public:
  Phase(const OpOptions& opt, const char* name, int parent,
        std::int64_t& acc)
      : acc_(acc), log_(opt.trace ? opt.log : nullptr) {
    if (log_ != nullptr) span_ = log_->open(opt.op_id, name, parent);
    t0_ = now_ns();
  }
  ~Phase() {
    acc_ += now_ns() - t0_;
    if (log_ != nullptr) log_->close(span_);
  }
  Phase(const Phase&) = delete;
  Phase& operator=(const Phase&) = delete;
  int span() const { return span_; }

 private:
  std::int64_t& acc_;
  SpanLog* log_;
  int span_ = -1;
  std::int64_t t0_ = 0;
};

std::uint64_t digest_of(const Checksum& c, std::uint64_t acc) {
  acc = rcmp::hash_combine(acc, c.md5_acc);
  acc = rcmp::hash_combine(acc, c.sum_acc);
  acc = rcmp::hash_combine(acc, c.key_acc);
  return rcmp::hash_combine(acc, c.count);
}

void add_chain(LayerCounts& c, const ChainResult& r) {
  c.replans += r.replans;
  c.restarts += r.restarts;
  c.jobs_started += r.jobs_started;
  c.master_replays += r.master_crashes;
  c.peak_storage_bytes = std::max<std::uint64_t>(c.peak_storage_bytes,
                                                 r.peak_storage);
  for (const auto& run : r.runs) {
    c.mappers_executed += run.mappers_executed;
    c.reducers_executed += run.reducers_executed;
    c.mappers_reused += run.mappers_reused;
    c.corrupt_detected +=
        run.corrupt_blocks_detected + run.corrupt_map_outputs_detected;
  }
}

template <class Sc>
void add_shared(LayerCounts& c, Sc& sc) {
  c.events = sc.sim().events_processed();
  c.cancelled = sc.sim().events_cancelled();
  c.peak_pending = sc.sim().peak_pending();
  c.realloc_passes = sc.cluster().net().reallocations();
  c.flows_reallocated = sc.cluster().net().flows_reallocated();
  c.ram_spills = sc.obs().metrics.counter("storage.tier.spills");
  if (auto* d = sc.detector()) {
    c.suspicions = d->suspicions();
    c.false_suspicions = d->false_suspicions();
  }
  if (auto* cache = sc.result_cache()) {
    c.cache_hits = cache->hits();
    c.cache_misses = cache->misses();
  }
  if (auto* chaos = sc.chaos()) {
    c.faults_injected += chaos->counts().injected();
  }
}

void run_single(Workload w, std::uint64_t seed, const OpOptions& opt,
                int root, OpOutcome& out) {
  SingleScene scene = single_scene(w, seed);
  // Declared before the scenario, which borrows them.
  std::vector<TimedMapper> timed_mappers;
  std::vector<TimedReducer> timed_reducers;
  std::optional<Scenario> sc;
  {
    Phase p(opt, "setup", root, out.setup_ns);
    sc.emplace(scene.cfg);
  }
  std::vector<Record> input;
  if (scene.cfg.payload) {
    Phase p(opt, "verify", root, out.verify_ns);
    input = gather_records(sc->payloads(), sc->dfs(), sc->input_file());
  }
  if (opt.trace) {
    auto& jobs = sc->chain().jobs;
    timed_mappers.reserve(jobs.size());  // no reallocation: jobs point in
    timed_reducers.reserve(jobs.size());
    for (auto& job : jobs) {
      if (job.mapper == nullptr) continue;  // virtual scenes run no UDFs
      job.mapper = &timed_mappers.emplace_back(*job.mapper, out.probe);
      job.reducer = &timed_reducers.emplace_back(*job.reducer, out.probe);
    }
    wrap_auditor_hooks(sc->obs(), out.probe);
  }
  ChainResult r;
  {
    Phase p(opt, "run", root, out.run_ns);
    out.probe.run_span = p.span();
    r = scene.chaos ? sc->run_chaos(scene.strategy, *scene.chaos)
                    : sc->run(scene.strategy, scene.failures);
  }
  {
    Phase p(opt, "verify", root, out.verify_ns);
    add_shared(out.counts, *sc);
    add_chain(out.counts, r);
    if (auto* inj = sc->injector()) {
      out.counts.faults_injected += inj->injected();
    }
    out.makespan_s = r.total_time;
    out.replans = r.replans;
    if (!r.completed) {
      out.error = "chain did not complete: " + r.fail_detail;
    } else if (scene.cfg.payload) {
      const Checksum got = sc->final_output_checksum();
      const Checksum want = oracle_checksum(input, scene.cfg.chain_length);
      out.digest = digest_of(got, 0);
      if (got != want) {
        out.error = "final checksum differs from the eager oracle";
      } else if (opt.self_check) {
        const auto f = sc->final_output_file();
        if (sc->payloads().corrupt_record(f, 0)) {
          out.self_check_flagged = sc->final_output_checksum() != want;
        }
      }
    }
    out.ok = out.error.empty();
  }
}

struct OracleMemo {
  std::vector<std::pair<Checksum, Checksum>> by_input;
  Checksum get(const std::vector<Record>& input, std::uint32_t chain_length) {
    const Checksum in = rcmp::mapred::checksum_of(input);
    for (const auto& [k, v] : by_input) {
      if (k == in) return v;
    }
    by_input.emplace_back(in, oracle_checksum(input, chain_length));
    return by_input.back().second;
  }
};

void run_multi(const MultiScene& scene, const OpOptions& opt, int root,
               OpOutcome& out) {
  std::optional<MultiScenario> ms;
  {
    Phase p(opt, "setup", root, out.setup_ns);
    ms.emplace(scene.cfg);
  }
  std::vector<std::vector<Record>> inputs;
  {
    Phase p(opt, "verify", root, out.verify_ns);
    for (std::uint32_t c = 0; c < ms->num_chains(); ++c) {
      inputs.push_back(
          gather_records(ms->payloads(), ms->dfs(), ms->input_file(c)));
    }
  }
  if (opt.trace) wrap_auditor_hooks(ms->obs(), out.probe);
  std::vector<ChainResult> results;
  {
    Phase p(opt, "run", root, out.run_ns);
    out.probe.run_span = p.span();
    results = ms->run(scene.strategy);
  }
  {
    Phase p(opt, "verify", root, out.verify_ns);
    add_shared(out.counts, *ms);
    auto& sched = ms->scheduler();
    out.counts.sched_denials = sched.total_denials();
    out.counts.sched_pokes = sched.pokes_run();
    out.counts.sched_evicted_bytes = sched.evicted_bytes();
    OracleMemo oracle;
    for (std::uint32_t c = 0; c < ms->num_chains(); ++c) {
      const ChainResult& r = results[c];
      add_chain(out.counts, r);
      out.counts.sched_grants += sched.grants(c);
      out.makespan_s = std::max(out.makespan_s, r.total_time);
      out.replans += r.replans;
      if (!out.error.empty()) continue;
      if (!r.completed) {
        out.error = "tenant " + std::to_string(c) +
                    " did not complete: " + r.fail_detail;
        continue;
      }
      const Checksum got = ms->final_output_checksum(c);
      out.digest = digest_of(got, out.digest);
      if (got != oracle.get(inputs[c], scene.cfg.base.chain_length)) {
        out.error = "tenant " + std::to_string(c) +
                    " final checksum differs from the eager oracle";
      }
    }
    out.ok = out.error.empty();
    // Only after every tenant is verified: a cache hit may make several
    // tenants' final outputs one shared file.
    if (out.ok && opt.self_check) {
      const auto f = ms->final_output_file(0);
      if (ms->payloads().corrupt_record(f, 0)) {
        out.self_check_flagged =
            ms->final_output_checksum(0) !=
            oracle.get(inputs[0], scene.cfg.base.chain_length);
      }
    }
  }
}

/// Runs `body`, turning anything it throws (AuditError, RCMP_CHECK's
/// InvariantError, ConfigError) into a failed outcome.
template <class F>
OpOutcome guarded(const OpOptions& opt, F&& body) {
  OpOutcome out;
  out.probe.log = opt.trace ? opt.log : nullptr;
  out.probe.op = opt.op_id;
  const int root =
      out.probe.log != nullptr ? out.probe.log->open(opt.op_id, "op", -1) : -1;
  try {
    body(out, root);
  } catch (const std::exception& e) {
    out.ok = false;
    out.error = e.what();
  }
  if (root >= 0) {
    const OpProbe& p = out.probe;
    p.log->aggregate({p.op, "udf", p.udf_calls, p.udf_ns, p.run_span});
    p.log->aggregate({p.op, "audit.fetch_check", p.fetch_checks,
                      p.fetch_check_ns, p.run_span});
    p.log->close(root);
  }
  return out;
}

}  // namespace

const char* workload_name(Workload w) {
  switch (w) {
    case Workload::kPaperDco: return "paper_dco";
    case Workload::kPaperRepl: return "paper_repl";
    case Workload::kPayloadChaos: return "payload_chaos";
    case Workload::kMultiTenant: return "multi_tenant";
  }
  return "?";
}

std::optional<Workload> parse_workload(std::string_view name) {
  for (Workload w : kAllWorkloads) {
    if (name == workload_name(w)) return w;
  }
  return std::nullopt;
}

const char* repro_name(Repro r) {
  switch (r) {
    case Repro::kRamLedgerDrift: return "repro_ram_ledger_drift";
    case Repro::kUnregisteredMapper: return "repro_unregistered_mapper";
  }
  return "?";
}

OpOutcome run_op(Workload w, std::uint64_t op_seed, const OpOptions& opt) {
  return guarded(opt, [&](OpOutcome& out, int root) {
    if (w == Workload::kMultiTenant) {
      run_multi(multi_scene(op_seed), opt, root, out);
    } else {
      run_single(w, op_seed, opt, root, out);
    }
  });
}

OpOutcome run_repro(Repro r, std::uint64_t seed) {
  const OpOptions untimed;
  return guarded(untimed, [&](OpOutcome& out, int root) {
    run_multi(repro_scene(r, seed), untimed, root, out);
  });
}

}  // namespace perfbench
