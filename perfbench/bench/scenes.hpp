// The benchmark's workloads ("scenes") and the op that runs one of them.
//
// An op is one scenario: constructed, simulated to completion, then
// verified. run_op() times set-up and simulation separately from the
// benchmark's own verification, reads the per-layer counters the
// simulator already exposes, and in traced mode installs the delegating
// UDF and auditor-hook timers from probes.hpp.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "mapred/record.hpp"
#include "probes.hpp"

namespace perfbench {

enum class Workload { kPaperDco, kPaperRepl, kPayloadChaos, kMultiTenant };

inline constexpr Workload kAllWorkloads[] = {
    Workload::kPaperDco, Workload::kPaperRepl, Workload::kPayloadChaos,
    Workload::kMultiTenant};

const char* workload_name(Workload w);
std::optional<Workload> parse_workload(std::string_view name);

/// The two defect reproductions run (untimed) beside multi_tenant.
enum class Repro { kRamLedgerDrift, kUnregisteredMapper };
inline constexpr Repro kAllRepros[] = {Repro::kRamLedgerDrift,
                                       Repro::kUnregisteredMapper};
const char* repro_name(Repro r);

/// Counters read after an op from the simulator's public accessors.
/// Multi-tenant scenes sum over tenants (maximum for peak storage).
struct LayerCounts {
  // sim
  std::uint64_t events = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t peak_pending = 0;
  // resources
  std::uint64_t realloc_passes = 0;
  std::uint64_t flows_reallocated = 0;
  // mapred
  std::uint64_t mappers_executed = 0;
  std::uint64_t reducers_executed = 0;
  std::uint64_t mappers_reused = 0;
  std::uint64_t corrupt_detected = 0;
  // dfs
  std::uint64_t peak_storage_bytes = 0;
  // cluster
  std::uint64_t faults_injected = 0;
  std::uint64_t suspicions = 0;
  std::uint64_t false_suspicions = 0;
  std::uint64_t ram_spills = 0;
  // core
  std::uint64_t replans = 0;
  std::uint64_t restarts = 0;
  std::uint64_t jobs_started = 0;
  std::uint64_t master_replays = 0;
  std::uint64_t sched_grants = 0;
  std::uint64_t sched_denials = 0;
  std::uint64_t sched_pokes = 0;
  std::uint64_t sched_evicted_bytes = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
};

struct OpOutcome {
  bool ok = false;
  /// Why the op failed: exception text, incomplete chain or checksum
  /// mismatch against the eager oracle.
  std::string error;
  std::int64_t setup_ns = 0;
  std::int64_t run_ns = 0;
  std::int64_t verify_ns = 0;  // the benchmark's own check, never op time

  /// Deterministic outputs, compared with the golden file.
  double makespan_s = 0.0;  // maximum over tenants
  std::uint32_t replans = 0;
  std::uint64_t digest = 0;  // final payload checksums; 0 for virtual scenes

  LayerCounts counts;
  OpProbe probe;  // child-span totals (traced ops only)
  /// Self-check: a corrupted output record was flagged by the verifier.
  bool self_check_flagged = false;
};

struct OpOptions {
  /// Install the delegating UDF and auditor-hook timers and record spans.
  bool trace = false;
  SpanLog* log = nullptr;
  std::uint32_t op_id = 0;
  /// After a verified payload op, corrupt one final-output record and
  /// require the verifier to flag it.
  bool self_check = false;
};

OpOutcome run_op(Workload w, std::uint64_t op_seed, const OpOptions& opt);

/// Run one defect reproduction at `seed`; never traced or timed.
OpOutcome run_repro(Repro r, std::uint64_t seed);

}  // namespace perfbench
