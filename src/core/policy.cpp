#include "core/policy.hpp"

#include <algorithm>

#include "cluster/chaos.hpp"
#include "common/error.hpp"

namespace rcmp::core {

namespace {

/// Does a fault of this kind (cluster::FaultMode value) destroy
/// persisted data or kill a process holding it? Heartbeat loss and
/// network partitions leave every byte intact — an oracle that
/// replicates for them is paying for insurance against nothing.
bool fault_destroys_data(std::uint32_t kind) {
  switch (static_cast<cluster::FaultMode>(kind)) {
    case cluster::FaultMode::kHeartbeatLoss:
    case cluster::FaultMode::kNetworkPartition:
      return false;
    default:
      return true;
  }
}

}  // namespace

const char* policy_hook_name(PolicyHook h) {
  switch (h) {
    case PolicyHook::kChainAdmission: return "admission";
    case PolicyHook::kJobBoundary: return "boundary";
    case PolicyHook::kFailure: return "failure";
    case PolicyHook::kTaskRetry: return "retry";
  }
  return "unknown";
}

// ---------------------------------------------------------------------
// OraclePolicy
// ---------------------------------------------------------------------

OraclePolicy::OraclePolicy(std::vector<std::uint32_t> fault_ordinals,
                           std::uint32_t replication,
                           std::vector<std::uint32_t> fault_kinds)
    : replication_(replication) {
  RCMP_CHECK_MSG(
      fault_kinds.empty() || fault_kinds.size() == fault_ordinals.size(),
      "oracle fault kinds must align with fault ordinals");
  fault_ordinals_.reserve(fault_ordinals.size());
  for (std::size_t i = 0; i < fault_ordinals.size(); ++i) {
    if (fault_kinds.empty() || fault_destroys_data(fault_kinds[i])) {
      fault_ordinals_.push_back(fault_ordinals[i]);
    }
  }
  std::sort(fault_ordinals_.begin(), fault_ordinals_.end());
  fault_ordinals_.erase(
      std::unique(fault_ordinals_.begin(), fault_ordinals_.end()),
      fault_ordinals_.end());
}

PolicyDecision OraclePolicy::on_job_boundary(const PolicyContext& ctx) {
  PolicyDecision d;
  // The submission being decided gets ordinal jobs_started + 1. If a
  // fault arms at the ordinal right after it, this output is the last
  // one that can still be persisted in time — replicate it.
  const std::uint32_t ordinal = ctx.jobs_started + 1;
  const bool fault_next = std::binary_search(
      fault_ordinals_.begin(), fault_ordinals_.end(), ordinal + 1);
  if (fault_next && !ctx.recompute && ctx.storage_headroom()) {
    d.replicate_now = true;
    d.replication = replication_;
  }
  return d;
}

// ---------------------------------------------------------------------
// AtlasAdaptivePolicy
// ---------------------------------------------------------------------

AtlasAdaptivePolicy::AtlasAdaptivePolicy(AtlasPolicyConfig cfg)
    : cfg_(cfg) {}

std::unique_ptr<IPolicy> AtlasAdaptivePolicy::clone() const {
  // Configuration only: a clone starts with fresh per-chain state.
  return std::make_unique<AtlasAdaptivePolicy>(cfg_);
}

double AtlasAdaptivePolicy::window_signal(const PolicyContext& ctx) {
  const std::uint32_t d_fail = ctx.failures_observed - seen_failures_;
  const std::uint32_t d_susp = ctx.suspicions - seen_suspicions_;
  const std::uint32_t d_quar = ctx.quarantines - seen_quarantines_;
  const std::uint64_t d_recv = ctx.heartbeats_received - seen_hb_received_;
  const std::uint64_t d_drop = ctx.heartbeats_dropped - seen_hb_dropped_;
  seen_failures_ = ctx.failures_observed;
  seen_suspicions_ = ctx.suspicions;
  seen_quarantines_ = ctx.quarantines;
  seen_hb_received_ = ctx.heartbeats_received;
  seen_hb_dropped_ = ctx.heartbeats_dropped;
  const double drop_rate =
      d_drop == 0 ? 0.0
                  : static_cast<double>(d_drop) /
                        static_cast<double>(d_recv + d_drop);
  return cfg_.failure_weight * d_fail + cfg_.suspicion_weight * d_susp +
         cfg_.quarantine_weight * d_quar + cfg_.jitter_weight * drop_rate;
}

PolicyDecision AtlasAdaptivePolicy::retry_stance() const {
  PolicyDecision d;
  if (risk_ >= cfg_.risk_threshold) {
    d.max_task_attempts = cfg_.bad_window_attempts;
  } else if (clean_windows_ >= cfg_.clean_windows_to_relax &&
             cfg_.relaxed_attempts > 0) {
    d.max_task_attempts = cfg_.relaxed_attempts;
  }
  return d;
}

PolicyDecision AtlasAdaptivePolicy::on_job_boundary(
    const PolicyContext& ctx) {
  const double signal = window_signal(ctx);
  risk_ = cfg_.decay * risk_ + signal;
  if (signal > 0.0) {
    clean_windows_ = 0;
  } else {
    ++clean_windows_;
  }
  PolicyDecision d = retry_stance();
  if (risk_ >= cfg_.risk_threshold && !ctx.recompute &&
      ctx.storage_headroom()) {
    d.replicate_now = true;
    d.replication = cfg_.replication;
  }
  return d;
}

PolicyDecision AtlasAdaptivePolicy::on_failure(const PolicyContext& ctx) {
  // Absorb the signal immediately (no decay mid-window) so the very
  // next boundary already sees the elevated risk.
  risk_ += window_signal(ctx);
  clean_windows_ = 0;
  PolicyDecision d = retry_stance();
  // The bad window is open *now*: ask for a replication point while the
  // replan is still queuing work. The middleware holds the request
  // through the recompute runs and lands it on the first initial
  // submission after the failure — the recompute frontier — so the next
  // failure's cascade stops there.
  if (risk_ >= cfg_.risk_threshold && ctx.storage_headroom()) {
    d.replicate_now = true;
    d.replication = cfg_.replication;
  }
  return d;
}

PolicyDecision AtlasAdaptivePolicy::on_task_retry(
    const PolicyContext& ctx) {
  (void)ctx;  // stance is a function of accumulated window state only
  return retry_stance();
}

// ---------------------------------------------------------------------
// BinocularSpeculationPolicy
// ---------------------------------------------------------------------

BinocularSpeculationPolicy::BinocularSpeculationPolicy(
    BinocularPolicyConfig cfg)
    : cfg_(cfg) {}

PolicyDecision BinocularSpeculationPolicy::on_chain_admission(
    const PolicyContext& ctx) {
  (void)ctx;
  PolicyDecision d;
  d.speculate_reducers = true;
  return d;
}

bool BinocularSpeculationPolicy::allow_reduce_speculation(
    const PolicyContext& ctx, const mapred::ReduceSpecCandidate& cand) {
  (void)ctx;
  // Both eyes: the straggler, having already run `elapsed`, is expected
  // to need about as long again (the standard pessimistic heuristic);
  // the duplicate pays startup plus one average reduce. Race only when
  // the expected save covers the spend with cost_ratio to spare.
  const double expected_duplicate =
      cand.startup_cost + cand.avg_reduce_time;
  const double expected_remaining = cand.elapsed;
  return expected_remaining > cfg_.cost_ratio * expected_duplicate;
}

// ---------------------------------------------------------------------
// registry
// ---------------------------------------------------------------------

const std::vector<std::string>& builtin_policy_names() {
  static const std::vector<std::string> names = {"static", "oracle",
                                                 "atlas", "binocular"};
  return names;
}

std::shared_ptr<IPolicy> make_policy(const std::string& name,
                                     const PolicyParams& params) {
  if (!(params.atlas.risk_threshold > 0.0)) {
    throw ConfigError("atlas risk threshold must be positive");
  }
  if (params.atlas.decay < 0.0 || params.atlas.decay >= 1.0) {
    throw ConfigError("atlas risk decay must be in [0, 1)");
  }
  if (params.atlas.failure_weight < 0.0 ||
      params.atlas.suspicion_weight < 0.0 ||
      params.atlas.quarantine_weight < 0.0 ||
      params.atlas.jitter_weight < 0.0) {
    throw ConfigError("atlas risk weights must be non-negative");
  }
  if (params.atlas.replication < 2 || params.replication < 2) {
    throw ConfigError(
        "a policy replication point needs replication >= 2");
  }
  if (!(params.binocular.cost_ratio > 0.0)) {
    throw ConfigError("speculation cost ratio must be positive");
  }
  if (!params.oracle_fault_kinds.empty() &&
      params.oracle_fault_kinds.size() !=
          params.oracle_fault_ordinals.size()) {
    throw ConfigError(
        "oracle fault kinds must be empty or match the fault ordinals "
        "one-to-one");
  }
  if (name == "static") return std::make_shared<StaticPolicy>();
  if (name == "oracle") {
    return std::make_shared<OraclePolicy>(params.oracle_fault_ordinals,
                                          params.replication,
                                          params.oracle_fault_kinds);
  }
  if (name == "atlas") {
    return std::make_shared<AtlasAdaptivePolicy>(params.atlas);
  }
  if (name == "binocular") {
    return std::make_shared<BinocularSpeculationPolicy>(params.binocular);
  }
  throw ConfigError("unknown policy: " + name +
                    " (expected static|oracle|atlas|binocular)");
}

}  // namespace rcmp::core
