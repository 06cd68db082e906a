// Chaos-trace backtest harness for resilience policies.
//
// A backtest replays the same seed-deterministic chaos scenes under
// every policy (core/policy.hpp) and scores each (scene, policy) pair:
// makespan, replans/restarts, wasted work, peak persisted bytes, policy
// decision counts, and invariant violations caught by the auditor. The
// resulting scoreboard is how an adaptive policy earns its keep — it
// must beat the static baseline on failure-heavy scenes without
// regressing the calm ones, with OraclePolicy marking the upper bound.
//
// Determinism: a scene carries a concrete FaultSchedule and a seeded
// ScenarioConfig, every (scene, policy) run constructs a fresh Scenario,
// and scoreboard_json formats with fixed precision — reruns of the same
// corpus are byte-identical (pinned by tests and the nightly CI job).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/chaos.hpp"
#include "common/units.hpp"
#include "core/policy.hpp"
#include "core/strategy.hpp"
#include "workloads/presets.hpp"

namespace rcmp::analysis {

/// One replayable experiment: a seeded scenario, a concrete chaos
/// schedule, and the static strategy every policy starts from.
struct BacktestScene {
  std::string name;
  workloads::ScenarioConfig scenario;
  cluster::FaultSchedule schedule;
  core::StrategyConfig strategy;
};

/// Score of one (scene, policy) run.
struct PolicyScore {
  std::string scene;
  std::string policy;

  bool completed = false;
  SimTime makespan = 0.0;
  std::uint32_t jobs_started = 0;
  std::uint32_t replans = 0;
  std::uint32_t restarts = 0;
  std::uint32_t failures_observed = 0;
  /// Simulated seconds burned by runs that did not complete (cancelled
  /// or aborted by data loss) — the recomputation tax a policy can
  /// shrink by persisting the right outputs at the right time.
  double wasted_work_seconds = 0.0;
  /// Max persisted bytes observed at job boundaries — what the policy
  /// spent on replication to buy the makespan.
  Bytes peak_storage = 0;
  std::uint32_t replication_points = 0;

  // Policy-engine activity (all zero for the static shim).
  std::uint32_t policy_decisions = 0;
  std::uint32_t policy_pre_replications = 0;
  std::uint32_t policy_speculation_gated = 0;

  /// Invariant violations: AuditError raised during the run (the run
  /// scores as not completed).
  std::uint32_t violations = 0;
};

struct BacktestReport {
  std::vector<PolicyScore> rows;  // scene-major, policy order preserved
};

/// The 1-based job ordinals at which a schedule arms faults (sorted,
/// unique) — OraclePolicy's future knowledge.
std::vector<std::uint32_t> fault_ordinals(
    const cluster::FaultSchedule& schedule);

/// The schedule's raw per-event (ordinal, fault-mode) knowledge, aligned
/// index-by-index and unsorted — what the oracle needs to tell a
/// data-destroying kill apart from benign heartbeat jitter.
void fault_knowledge(const cluster::FaultSchedule& schedule,
                     std::vector<std::uint32_t>* ordinals,
                     std::vector<std::uint32_t>* kinds);

/// Replay one scene under one named policy ("static" may also be spelled
/// "" — both run StaticPolicy). Oracle automatically receives the
/// scene's fault ordinals.
PolicyScore run_scene(const BacktestScene& scene,
                      const std::string& policy_name,
                      const core::PolicyParams& params = {});

/// Replay every scene under every policy, scene-major.
BacktestReport run_backtest(const std::vector<BacktestScene>& scenes,
                            const std::vector<std::string>& policies,
                            const core::PolicyParams& params = {});

/// The checked-in corpus the nightly job replays: a calm scene, a
/// single kill, a failure-heavy cascade, and a pure heartbeat-jitter
/// scene (detector enabled everywhere so adaptive policies have
/// signals to read).
std::vector<BacktestScene> default_corpus(std::uint64_t seed = 42);

/// Deterministic scoreboard JSON (fixed precision, scene-major row
/// order) — byte-identical across same-seed reruns.
std::string scoreboard_json(const BacktestReport& report);

/// Human-readable scoreboard table.
std::string scoreboard_table(const BacktestReport& report);

}  // namespace rcmp::analysis
