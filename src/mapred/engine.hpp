// The MapReduce job execution engine.
//
// A JobRun executes one job (initial run or recomputation run) on the
// simulated cluster, end to end: map scheduling with locality, map
// input reads, UDF compute, local map-output writes, the shuffle (with
// map-phase overlap for early reducer waves), reduce compute, and the
// replicated DFS output write. Failures freeze work immediately (the
// physical effect) but are acted upon only after the Master's detection
// timeout (the knowledge effect), matching the paper's 15 s inject /
// 30 s detect methodology.
//
// Recomputation runs honor a RecomputeDirective: only damaged output
// partitions are regenerated, persisted map outputs are reused when the
// reuse rules allow, and reducers may be hash-split into finer tasks
// (the paper's core contribution, §IV-B).
//
// Every map and reduce task runs as attempts: one running attempt and,
// under speculation, at most one backup racing it; the first to finish
// wins.
//
// Ownership: the middleware (src/core) constructs one JobRun per
// submission and keeps it alive until the simulation ends; JobRun
// callbacks are guarded by attempt id so cancelled work can never
// resurrect.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/detector.hpp"
#include "common/rng.hpp"
#include "dfs/namenode.hpp"
#include "mapred/job.hpp"
#include "mapred/map_output_store.hpp"
#include "mapred/payload_store.hpp"
#include "mapred/slot_broker.hpp"
#include "obs/obs.hpp"
#include "resources/flow_network.hpp"
#include "sim/simulation.hpp"

namespace rcmp::mapred {

/// The substrate a job runs on. All references must outlive the JobRun.
struct Env {
  sim::Simulation& sim;
  res::FlowNetwork& net;
  cluster::Cluster& cluster;
  dfs::NameNode& dfs;
  MapOutputStore& map_outputs;
  PayloadStore& payloads;
  /// Optional observability sink (tracer + metrics + audit hooks);
  /// nullptr disables all emission at the cost of one pointer compare
  /// per site.
  obs::Observability* obs = nullptr;
  /// Optional shared-cluster slot arbiter. nullptr (the default) keeps
  /// the engine's private sole-ownership slot accounting.
  SlotBroker* slots = nullptr;
  /// 1-based chain tag stamped into trace events under multi-tenancy;
  /// 0 leaves events untagged (single-tenant exports are unchanged).
  std::uint16_t chain_tag = 0;
  /// Optional heartbeat failure detector. nullptr (the default) keeps
  /// the oracle detection model: the engine trusts storage_alive() alone
  /// and never consults suspicion, quarantine, or retry backoff. Must
  /// stay after the positional members so existing aggregate
  /// initializers stay valid.
  cluster::FailureDetector* detector = nullptr;
  /// Policy seams, installed by core::Middleware (mapred cannot depend
  /// on core). Unset functions keep the exact pre-policy behavior.
  ///
  /// Consulted per prospective reducer-speculation launch after the
  /// slowness test passes; returning false vetoes the backup.
  std::function<bool(const ReduceSpecCandidate&)> reduce_spec_gate = {};
  /// Consulted per task-attempt charge for the effective attempt budget
  /// (0 = unlimited); unset uses EngineConfig::max_task_attempts.
  std::function<std::uint32_t(std::uint32_t attempts)> retry_budget = {};
};

class JobRun {
 public:
  /// Invoked exactly once, when the run completes or aborts (never for
  /// cancelled runs).
  using DoneCallback = std::function<void(JobRun&)>;

  JobRun(Env env, JobSpec spec, RecomputeDirective directive,
         EngineConfig cfg, std::uint32_t ordinal, std::uint64_t seed,
         DoneCallback on_done);

  JobRun(const JobRun&) = delete;
  JobRun& operator=(const JobRun&) = delete;

  /// Begin execution at the current simulated time.
  void start();

  /// Shared-cluster nudge: capacity freed elsewhere (another chain
  /// released a slot, a node rejoined) — try to place pending tasks.
  void poke() { schedule_tasks(); }

  /// Middleware notification: a node just died (physical effect). Stops
  /// all work touching the node but defers decisions to detection.
  void on_node_killed(cluster::NodeId n);

  /// Compute-only failure: tasks on `n` freeze, but its DataNode keeps
  /// serving persisted data — fetches from it continue, its map outputs
  /// stay reusable, and writes targeting it proceed.
  void on_compute_failed(cluster::NodeId n);

  /// Disk-only failure: everything persisted on `n` is gone (fetches
  /// sourced there stop, writes targeting it stall until detection), but
  /// tasks on `n` keep running and its slots stay usable.
  void on_disk_failed(cluster::NodeId n);

  /// A previously failed node rejoined with an empty disk: its slot
  /// complement becomes available to subsequent waves immediately.
  void on_node_recovered(cluster::NodeId n);

  enum class FailureOutcome { kRecovered, kNeedsAbort };
  /// Master detected the failure (kill + detection timeout). Either
  /// recovers via task re-execution (inputs still available: the
  /// replication path) or reports that required data is gone.
  FailureOutcome on_detected_failure(cluster::NodeId n);

  /// Detector mode: the master (possibly falsely) suspects `n` dead.
  /// Freezes its tasks and stops trusting data served from it — all
  /// master-side bookkeeping; the node's physical state is untouched, so
  /// on_node_reconciled() can undo everything.
  void on_suspected(cluster::NodeId n);

  /// Detector mode: a suspected node heartbeated again before its
  /// replacement work committed. Re-admit its slots and persisted map
  /// outputs, cancelling spurious re-executions still in flight.
  void on_node_reconciled(cluster::NodeId n);

  /// Detector mode: node `n` became unreachable (network partition).
  /// In-flight reads/fetches sourced there fail over to surviving
  /// replicas or re-queue with retry backoff; writes are unaffected
  /// (see detector.hpp: the data plane models partitions read-side).
  void on_source_unreachable(cluster::NodeId n);

  /// Detector mode: the partition healed; data on `n` serves again.
  void on_source_reachable(cluster::NodeId n);

  /// Cancel the run: all in-flight work stops, partial output partitions
  /// and this attempt's persisted map outputs are discarded (the paper's
  /// RCMP "discards the partial results computed before the failure").
  void cancel();

  bool running() const { return state_ == RunState::kRunning; }
  bool finished() const { return state_ == RunState::kFinished; }
  const JobResult& result() const { return result_; }
  const JobSpec& spec() const { return spec_; }
  const RecomputeDirective& directive() const { return directive_; }

 private:
  enum class RunState { kCreated, kRunning, kFinished, kCancelled };

  enum class TaskState : std::uint8_t {
    kPending,  // waiting for a slot
    kRunning,  // the running attempt holds a slot (see Attempt::phase)
    kDone,     // map: output registered; reduce: output committed
    kReused,   // map only: persisted output from a previous run, as-is
    kFrozen,   // was running on a node that died; awaiting detection
  };

  /// Where an attempt is. A map attempt starts, reads its input block,
  /// computes and writes its output. A reducer's running attempt starts,
  /// fetches its shuffle input (kReading), computes and writes its DFS
  /// output. A reducer backup starts, pulls the running attempt's
  /// fetched bytes (kReading) and computes.
  enum class Phase : std::uint8_t { kStarting, kReading, kComputing, kWriting };

  /// One execution of a task on one node, holding one slot there. A task
  /// has its running attempt and at most one speculative backup; the
  /// first to finish wins and the other hands back its own slot.
  struct Attempt {
    /// Stale-callback guard, unique within the run; 0 = no attempt.
    std::uint32_t id = 0;
    cluster::NodeId node = cluster::kInvalidNode;
    cluster::NodeId read_src = cluster::kInvalidNode;  // input source
    Phase phase = Phase::kStarting;
    res::FlowId flow = res::kInvalidFlow;
    sim::EventId ev = sim::kInvalidEvent;
    /// Reducer output: one replica stream per target of the block being
    /// written.
    std::vector<res::FlowId> write_flows;
    double out_bytes = 0.0;  // output bytes (set at compute end)
    /// Payload mode: UDF output staged between compute and the end of
    /// the map-output write.
    std::vector<std::vector<Record>> buckets;
  };

  /// What map and reduce tasks share: the lifecycle state, the retry
  /// accounting and the attempts.
  struct Task {
    TaskState state = TaskState::kPending;
    // Detector-mode retry state (untouched without a detector).
    std::uint32_t attempts = 0;  // re-queues charged to this task
    SimTime not_before = 0.0;    // retry backoff gate
    SimTime start_time = -1.0;
    SimTime end_time = -1.0;
    /// The running attempt. Once a map task is done (or reused) it keeps
    /// the output's node and size.
    Attempt run;
    std::unique_ptr<Attempt> backup;  // speculative copy racing `run`

    /// The running attempt is in phase `p`.
    bool in(Phase p) const {
      return state == TaskState::kRunning && run.phase == p;
    }
  };

  struct MapTask : Task {
    dfs::FileId input_file = dfs::kInvalidFile;
    std::uint32_t input_index = 0;  // which of JobSpec::inputs
    std::uint32_t input_partition = 0;
    std::uint32_t block_index = 0;
    std::uint64_t block_id = 0;
    Bytes input_bytes = 0;
    std::uint64_t input_layout_version = 0;

    bool executed = false;  // ran (at least once) in this run
    /// Detector mode: the task is being re-executed only because its
    /// intact persisted output sits on a suspected/unreachable node;
    /// reconciliation can cancel the re-execution and readopt the output.
    bool spurious = false;

    /// Map-output identity: the partition coordinate encodes which
    /// input file the block belongs to (multi-input DAG jobs).
    MapOutputKey key(std::uint32_t logical_job) const {
      return MapOutputKey{logical_job,
                          (input_index << 16) | input_partition,
                          block_index};
    }
  };

  enum class ContribState : std::uint8_t {
    kWaiting,   // mapper output not (or no longer) available
    kReady,     // available, buffered for a coalesced fetch
    kInflight,  // fetch flow running
    kFetched,   // bytes are on the reducer's node
  };

  /// A reducer backup races only the compute: it pulls the fetched bytes
  /// from the running attempt's node and redoes the compute; first to
  /// finish the compute wins.
  struct ReduceTask : Task {
    std::uint32_t partition = 0;     // initial-granularity output partition
    std::uint32_t split_index = 0;   // 0 when split_factor == 1

    std::vector<ContribState> contrib;  // one per map task
    std::uint32_t unfetched = 0;
    double fetched_bytes = 0.0;
    /// Serialized per-transfer latency owed before the reduce phase
    /// (n_transfers * shuffle_tail_latency / fetch_parallelism).
    SimTime tail_debt = 0.0;
    // Ready-buffer per source node: bytes and mapper indices awaiting a
    // coalesced fetch flow.
    std::vector<double> ready_bytes;                 // [node]
    std::vector<std::vector<std::uint32_t>> ready;   // [node] -> mappers
    /// Sources whose ready batch reached the flush threshold but has
    /// not been fetched (buffered since the last flush, or skipped as
    /// not serving). A superset: entries whose batch was rewound or
    /// reset are dropped when a flush visits them.
    std::vector<cluster::NodeId> flush_due;

    std::vector<Record> gathered;  // payload mode
    std::vector<dfs::NameNode::PlannedBlock> planned;
    std::uint32_t next_block = 0;
    std::uint32_t outstanding_writes = 0;
    bool write_blocked = false;  // a replica target died mid-write
    std::vector<Record> out_records;
  };

  struct FetchFlow {
    std::uint32_t reducer = 0;
    std::uint32_t attempt = 0;  // the reducer's running attempt id
    cluster::NodeId src = cluster::kInvalidNode;
    std::vector<std::uint32_t> mappers;
    /// Per-mapper share of `bytes`, parallel to `mappers` — needed when
    /// one mapper of a coalesced fetch is invalidated mid-flight.
    std::vector<double> mapper_bytes;
    double bytes = 0.0;
    res::FlowId flow = res::kInvalidFlow;
  };

  // --- setup ---------------------------------------------------------
  void bootstrap();  // runs after job_setup_time
  void build_map_tasks();
  void build_reduce_tasks();
  bool map_output_reusable(const MapOutputKey& key,
                           std::uint64_t layout_version) const;

  // --- scheduling ----------------------------------------------------
  void schedule_tasks();
  void schedule_maps();
  void schedule_reduces();
  /// Detector mode: take the tasks whose retry-backoff gate is still
  /// closed out of `pending` (they sit out this pass) and arm one poke
  /// at the earliest gate expiry. Returns the deferred tasks.
  std::vector<std::uint32_t> defer_backed_off(
      SlotKind kind, std::vector<std::uint32_t>& pending);
  void assign_task(SlotKind kind, std::uint32_t i, cluster::NodeId n);

  // --- attempts ----------------------------------------------------------
  Task& task(SlotKind kind, std::uint32_t i);
  /// Take a `kind` slot on `n`, open a fresh attempt of task i there and
  /// schedule its start-up.
  Attempt launch_attempt(SlotKind kind, std::uint32_t i, cluster::NodeId n);
  /// The task's attempt with this id, or nullptr when it is stale.
  Attempt* find_attempt(Task& t, std::uint32_t id);
  /// Stop an attempt's event and flows and discard its staged output.
  void cancel_attempt_work(Attempt& a);
  /// Drop a backup (no-op when there is none), returning its slot.
  void drop_backup(std::unique_ptr<Attempt>& backup, SlotKind kind);
  /// Drop every map and reducer backup.
  void drop_backups();

  // --- map task state machine ----------------------------------------
  cluster::NodeId pick_read_source(
      const std::vector<cluster::NodeId>& locs, cluster::NodeId reader);
  /// alive_locations() filtered by source_serving() — replicas the
  /// master would actually read from right now.
  std::vector<cluster::NodeId> serving_locations(
      std::uint64_t block_id) const;
  // The four phase steps serve the running attempt and the backup alike.
  void map_startup_done(std::uint32_t m, std::uint32_t id);
  /// Dispatch (or re-dispatch after a source failover) an attempt's
  /// input read. The running attempt reads only serving replicas; it
  /// freezes on total loss and re-queues with backoff when replicas
  /// exist but none serves. A backup reads any live replica and is
  /// dropped when none is left.
  void start_map_read(std::uint32_t m, Attempt& a);
  void map_read_done(std::uint32_t m, std::uint32_t id);
  void map_compute_done(std::uint32_t m, std::uint32_t id);
  /// The first attempt to finish its write completes the task.
  void map_write_done(std::uint32_t m, std::uint32_t id);
  void complete_map_task(std::uint32_t m);
  void register_map_output(std::uint32_t m);
  /// Effective tier for this job's persisted map outputs: the spec's
  /// request, degraded to disk when the cluster has no RAM tier.
  cluster::StorageTier map_output_tier() const;
  void on_mapper_available(std::uint32_t m);  // done or reused
  void reset_map_task(std::uint32_t m);

  // --- speculative execution ------------------------------------------
  void schedule_speculation_check();
  void speculation_check();
  /// Reducer speculation (EngineConfig::speculative_reducers).
  void speculate_reducers();

  // --- shuffle ---------------------------------------------------------
  void mark_contrib_ready(std::uint32_t r, std::uint32_t m);
  double contrib_bytes(std::uint32_t r, std::uint32_t m) const;
  /// Start fetch flows for reducer r's buffered batches. Forced: every
  /// non-empty batch; otherwise only `flush_due` batches at the flush
  /// threshold. Either way in ascending source order, serving sources
  /// only.
  void flush_ready(std::uint32_t r, bool force);
  void flush_all_ready(bool force);
  /// Start one coalesced fetch flow for reducer r's batch from `src`.
  void start_fetch(std::uint32_t r, cluster::NodeId src);
  void fetch_done(std::uint64_t token);
  void cancel_fetches_of_reducer(std::uint32_t r);

  // --- reduce task state machine --------------------------------------
  // Start-up and compute serve the running attempt and the backup alike.
  /// The running attempt starts fetching; a backup starts its pull.
  void reduce_startup_done(std::uint32_t r, std::uint32_t id);
  void reduce_pull_done(std::uint32_t r, std::uint32_t id);
  void maybe_start_reduce_compute(std::uint32_t r);
  /// Schedule attempt a's compute over the fetched bytes, plus `tail`.
  void start_reduce_compute(std::uint32_t r, Attempt& a, SimTime tail);
  /// The first attempt to finish its compute writes the output.
  void reduce_compute_done(std::uint32_t r, std::uint32_t id);
  /// Post-compute tail: sort/merge + reduce UDF (payload mode), output
  /// sizing, DFS write.
  void finish_reduce_compute(std::uint32_t r);
  void start_reduce_write(std::uint32_t r);
  void write_next_block(std::uint32_t r, std::uint32_t id);
  void block_write_done(std::uint32_t r, std::uint32_t id);
  void reduce_done(std::uint32_t r);
  void reset_reduce_task(std::uint32_t r);

  // --- read-path integrity ---------------------------------------------
  /// Checksum check of a map task's input block (payload recompute or
  /// the DFS corruption marker in virtual mode).
  bool map_input_corrupt(std::uint32_t m) const;
  /// A reader caught silent corruption in a DFS partition: scrub the
  /// partition from ground truth and abort so the middleware replans a
  /// recomputation cascade for it — a late data-loss event.
  void handle_corrupt_input(std::uint32_t m);
  /// A reducer caught silent corruption in a mapper's bucket: quarantine
  /// the output and re-execute the mapper within this job.
  void handle_corrupt_map_output(std::uint32_t m);
  /// Return every still-buffered (kReady) contribution of mapper `m` to
  /// kWaiting, unwinding the ready-buffer accounting.
  void scrub_ready_contribs(std::uint32_t m);

  /// Freeze every task running on `n` and drop every backup (a compute
  /// failure or a suspicion of `n`). A suspicion also hands the frozen
  /// tasks' slots back to the broker.
  void freeze_tasks_on(cluster::NodeId n, bool suspected);

  // --- detector-mode resilience ----------------------------------------
  /// Would the master read persisted data from `n` right now? Storage
  /// alive AND reachable AND not suspected. Quarantine deliberately does
  /// not affect serving (blacklisted nodes keep their data useful).
  bool source_serving(cluster::NodeId n) const;
  /// Cancel fetch flows sourced at `n` and rewind its buffered
  /// contributions (the fetch part of a disk loss, without the ledger
  /// effects) — used by suspicion and unreachability.
  void halt_fetches_from(cluster::NodeId n);
  /// Charge one attempt and compute the retry backoff gate; a spent
  /// attempt budget sets exhausted_retry_budget_ (the caller's recovery
  /// path escalates). No-op without a detector.
  void charge_attempt(Task& t);
  /// Charge a failed task attempt against `n`'s quarantine statistics.
  void blame_node(cluster::NodeId n);
  /// One pending wake-up for backoff-deferred tasks; keeps only the
  /// earliest deadline armed.
  void arm_retry_poke(SimTime when);

  // --- lifecycle -------------------------------------------------------
  void on_map_phase_maybe_done();
  void maybe_finish();
  void finish(JobResult::Status status);
  /// Cancel-style teardown + partial-result discard, then finish with
  /// kAbortedDataLoss so the middleware replans from ground truth.
  void abort_data_loss();
  void teardown_all_work();
  void discard_partial_results();
  void run_map_udf(std::uint32_t m, MapOutput& out) const;

  bool payload_mode() const;
  double flush_threshold() const { return flush_threshold_; }

  // --- slot accounting (local arrays or the shared broker) -------------
  bool slot_free(SlotKind kind, cluster::NodeId n) const;
  void take_slot(SlotKind kind, cluster::NodeId n);
  /// Return a slot; dropped when the node's compute is down (dead nodes
  /// never regain credit — a rejoin refills the full complement).
  void put_slot(SlotKind kind, cluster::NodeId n);
  /// Sole tenant: credit node n its full slot complement, or none. No-op
  /// with a broker.
  void credit_slots(cluster::NodeId n, bool full);
  /// Round robin from rr_cursor_: the first compute-alive node other
  /// than `avoid` with a free `kind` slot (advancing the cursor past
  /// it), or kInvalidNode.
  cluster::NodeId next_free_slot(SlotKind kind,
                                 cluster::NodeId avoid = cluster::kInvalidNode);
  /// Publish unmet demand to the broker (no-op single-tenant).
  void publish_demand();

  Env env_;
  JobSpec spec_;
  RecomputeDirective directive_;
  EngineConfig cfg_;
  std::uint32_t ordinal_;
  Rng rng_;
  DoneCallback on_done_;

  RunState state_ = RunState::kCreated;
  JobResult result_;

  std::vector<MapTask> maps_;
  std::vector<ReduceTask> reduces_;
  std::vector<std::uint32_t> pending_maps_;
  std::vector<std::uint32_t> pending_reduces_;
  std::uint32_t maps_remaining_ = 0;    // not yet done/reused
  std::uint32_t reduces_remaining_ = 0;

  /// Free slots per node, indexed by SlotKind (no broker).
  std::vector<std::uint32_t> free_slots_[2];
  /// Broker mode: nodes barred from running recomputed mappers
  /// (EngineConfig::recompute_map_node_limit, the Fig. 14 knob).
  std::vector<std::uint8_t> map_node_banned_;
  std::uint32_t rr_cursor_ = 0;  // round-robin node cursor

  std::unordered_map<std::uint64_t, FetchFlow> active_fetches_;
  std::uint64_t next_fetch_token_ = 1;
  double flush_threshold_ = 0.0;
  bool payload_mode_ = false;

  std::vector<MapOutputKey> outputs_registered_;     // this attempt
  std::vector<std::uint32_t> partitions_committed_;  // this attempt
  sim::EventId bootstrap_ev_ = sim::kInvalidEvent;

  std::uint32_t next_attempt_id_ = 1;
  sim::EventId speculation_ev_ = sim::kInvalidEvent;
  double completed_map_time_sum_ = 0.0;
  std::uint32_t completed_map_count_ = 0;
  double completed_reduce_time_sum_ = 0.0;
  std::uint32_t completed_reduce_count_ = 0;

  // Detector-mode resilience (all dormant without env_.detector).
  sim::EventId retry_ev_ = sim::kInvalidEvent;
  SimTime retry_at_ = 0.0;
  /// Set when a task spent its attempt budget; the enclosing recovery
  /// path escalates (kNeedsAbort / abort_data_loss) instead of tearing
  /// the run down mid-iteration.
  bool exhausted_retry_budget_ = false;
};

}  // namespace rcmp::mapred
