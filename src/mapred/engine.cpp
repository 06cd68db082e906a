#include "mapred/engine.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <utility>

#include "common/error.hpp"
#include "common/log.hpp"

namespace rcmp::mapred {

namespace {
Bytes round_bytes(double b) {
  return static_cast<Bytes>(std::llround(std::max(0.0, b)));
}
}  // namespace

JobRun::JobRun(Env env, JobSpec spec, RecomputeDirective directive,
               EngineConfig cfg, std::uint32_t ordinal, std::uint64_t seed,
               DoneCallback on_done)
    : env_(env),
      spec_(std::move(spec)),
      directive_(std::move(directive)),
      cfg_(cfg),
      ordinal_(ordinal),
      rng_(seed),
      on_done_(std::move(on_done)) {
  RCMP_CHECK(spec_.num_reducers >= 1);
  RCMP_CHECK(directive_.split_factor >= 1);
}

bool JobRun::payload_mode() const { return payload_mode_; }

// ---------------------------------------------------------------------
// slot accounting: private arrays (sole tenant) or the shared broker
// ---------------------------------------------------------------------

bool JobRun::slot_free(SlotKind kind, cluster::NodeId n) const {
  // Suspected and quarantined nodes receive no new task placements;
  // this single gate covers both slot modes and every placement site.
  if (env_.detector != nullptr && !env_.detector->schedulable(n))
    return false;
  if (env_.slots != nullptr) {
    return (kind == SlotKind::kReduce || map_node_banned_[n] == 0) &&
           env_.slots->may_acquire(n, kind);
  }
  return free_slots_[static_cast<int>(kind)][n] > 0;
}

void JobRun::take_slot(SlotKind kind, cluster::NodeId n) {
  if (env_.slots != nullptr) {
    env_.slots->acquire(n, kind);
  } else {
    std::uint32_t& free = free_slots_[static_cast<int>(kind)][n];
    RCMP_CHECK(free > 0);
    --free;
  }
}

void JobRun::put_slot(SlotKind kind, cluster::NodeId n) {
  if (!env_.cluster.compute_alive(n)) return;
  if (env_.slots != nullptr) {
    env_.slots->release(n, kind);
  } else {
    ++free_slots_[static_cast<int>(kind)][n];
  }
}

void JobRun::credit_slots(cluster::NodeId n, bool full) {
  if (env_.slots != nullptr) return;
  const auto& spec = env_.cluster.spec();
  free_slots_[static_cast<int>(SlotKind::kMap)][n] = full ? spec.map_slots : 0;
  free_slots_[static_cast<int>(SlotKind::kReduce)][n] =
      full ? spec.reduce_slots : 0;
}

cluster::NodeId JobRun::next_free_slot(SlotKind kind, cluster::NodeId avoid) {
  for (std::uint32_t step = 0; step < env_.cluster.size(); ++step) {
    const cluster::NodeId n = (rr_cursor_ + step) % env_.cluster.size();
    if (n != avoid && env_.cluster.compute_alive(n) && slot_free(kind, n)) {
      rr_cursor_ = n + 1;
      return n;
    }
  }
  return cluster::kInvalidNode;
}

void JobRun::publish_demand() {
  if (env_.slots == nullptr) return;
  env_.slots->set_demand(SlotKind::kMap, !pending_maps_.empty());
  env_.slots->set_demand(SlotKind::kReduce, !pending_reduces_.empty());
}

// ---------------------------------------------------------------------
// setup
// ---------------------------------------------------------------------

void JobRun::start() {
  RCMP_CHECK(state_ == RunState::kCreated);
  state_ = RunState::kRunning;

  result_.logical_id = spec_.logical_id;
  result_.ordinal = ordinal_;
  result_.was_recompute = directive_.active;
  result_.start_time = env_.sim.now();

  if (env_.obs != nullptr) {
    env_.obs->tracer.emit(env_.sim.now(), obs::EventType::kJobStart,
                          directive_.active ? 1 : 0, obs::kNoField,
                          spec_.logical_id, ordinal_, 0.0,
                          env_.chain_tag);
  }

  payload_mode_ = false;
  if (spec_.mapper != nullptr && spec_.reducer != nullptr) {
    for (dfs::FileId in : spec_.inputs) {
      payload_mode_ |= env_.payloads.file_has_payload(in);
    }
  }

  if (directive_.active) {
    // Damaged partitions are regenerated from scratch. A NO-SPLIT
    // recomputation deterministically reproduces the original layout,
    // so downstream map outputs stay valid; splitting changes the
    // layout and must invalidate them (Fig. 5 rule).
    const bool preserve = directive_.split_factor == 1;
    for (std::uint32_t p : directive_.damaged_partitions) {
      env_.dfs.clear_partition(spec_.output, p, preserve);
      env_.payloads.clear(spec_.output, p);
    }
  }

  build_map_tasks();
  build_reduce_tasks();

  map_node_banned_.assign(env_.cluster.size(), 0);
  // Sole tenant: credit this run every alive node's full complement.
  for (auto& free : free_slots_) free.assign(env_.cluster.size(), 0);
  for (cluster::NodeId n = 0; n < env_.cluster.size(); ++n) {
    if (env_.cluster.compute_alive(n) && env_.cluster.is_compute_node(n))
      credit_slots(n, /*full=*/true);
  }

  // Coalesced shuffle flush threshold: a fraction of the expected
  // per-(source node, reducer) volume.
  double total_out = 0.0;
  for (const MapTask& t : maps_) {
    total_out += t.state == MapState::kReused
                     ? t.run.out_bytes
                     : static_cast<double>(t.input_bytes) *
                           spec_.map_output_ratio;
  }
  flush_threshold_ =
      std::max(1.0, total_out * cfg_.shuffle_flush_fraction /
                        std::max(1u, env_.cluster.alive_count()) /
                        std::max<std::size_t>(1, reduces_.size()));

  RCMP_INFO() << "t=" << env_.sim.now() << " job " << spec_.name
              << " (ordinal " << ordinal_ << ") starting: "
              << maps_.size() << " mappers ("
              << (maps_.size() - maps_remaining_) << " reused), "
              << reduces_.size() << " reducers"
              << (directive_.active
                      ? " [recompute, split=" +
                            std::to_string(directive_.split_factor) + "]"
                      : "");

  bootstrap_ev_ = env_.sim.schedule_after(cfg_.job_setup_time,
                                          [this] { bootstrap(); });
}

void JobRun::bootstrap() {
  bootstrap_ev_ = sim::kInvalidEvent;
  if (state_ != RunState::kRunning) return;

  // Fig. 14 experiment knob: restrict which nodes run recomputed
  // mappers (varies the recomputation's mapper wave count).
  if (directive_.active && cfg_.recompute_map_node_limit > 0) {
    std::uint32_t allowed = cfg_.recompute_map_node_limit;
    for (cluster::NodeId n = 0; n < env_.cluster.size(); ++n) {
      if (!env_.cluster.compute_alive(n)) continue;
      if (allowed > 0) {
        --allowed;
      } else if (env_.slots != nullptr) {
        map_node_banned_[n] = 1;
      } else {
        free_slots_[static_cast<int>(SlotKind::kMap)][n] = 0;
      }
    }
  }

  for (std::uint32_t m = 0; m < maps_.size(); ++m) {
    if (maps_[m].state == MapState::kReused) on_mapper_available(m);
  }
  schedule_tasks();
  on_map_phase_maybe_done();
  if (cfg_.speculative_execution) schedule_speculation_check();
}

void JobRun::build_map_tasks() {
  RCMP_CHECK_MSG(!spec_.inputs.empty(), "job has no inputs");
  RCMP_CHECK_MSG(spec_.inputs.size() <= 64,
                 "at most 64 input files per job");
  // Runs stay alive until the simulation ends; size maps_ exactly.
  std::size_t blocks = 0;
  for (dfs::FileId file : spec_.inputs) {
    for (std::uint32_t p = 0; p < env_.dfs.num_partitions(file); ++p) {
      blocks += env_.dfs.partition(file, p).blocks.size();
    }
  }
  maps_.reserve(blocks);
  for (std::uint32_t in = 0; in < spec_.inputs.size(); ++in) {
    const dfs::FileId file = spec_.inputs[in];
    const std::uint32_t nparts = env_.dfs.num_partitions(file);
    for (std::uint32_t p = 0; p < nparts; ++p) {
      RCMP_CHECK_MSG(env_.dfs.partition_available(file, p),
                     "job " << spec_.name << ": input partition " << p
                            << " of file " << env_.dfs.file_name(file)
                            << " unavailable at submission");
      const dfs::PartitionInfo& part = env_.dfs.partition(file, p);
      for (std::uint32_t i = 0; i < part.blocks.size(); ++i) {
        MapTask t;
        t.input_file = file;
        t.input_index = in;
        t.input_partition = p;
        t.block_index = i;
        t.block_id = part.blocks[i];
        t.input_bytes = env_.dfs.block(t.block_id).size;
        t.input_layout_version = part.layout_version;

        const auto key = t.key(spec_.logical_id);
        if (directive_.active && directive_.reuse_map_outputs &&
            map_output_reusable(key, t.input_layout_version)) {
          const MapOutput* out = env_.map_outputs.find(key);
          t.state = MapState::kReused;
          t.run.node = out->node;
          t.run.out_bytes = out->total_bytes;
          if (env_.obs != nullptr) {
            env_.obs->check_reuse(obs::ReuseCheck{
                spec_.logical_id, t.input_partition, t.block_index,
                out->input_layout_version, t.input_layout_version,
                directive_.enforce_fig5_rule});
          }
        } else {
          ++maps_remaining_;
        }
        maps_.push_back(std::move(t));
      }
    }
  }
  pending_maps_.clear();
  for (std::uint32_t m = 0; m < maps_.size(); ++m) {
    if (maps_[m].state == MapState::kPending) pending_maps_.push_back(m);
  }
  RCMP_CHECK_MSG(!maps_.empty(), "job has no input blocks");
}

bool JobRun::map_output_reusable(const MapOutputKey& key,
                                 std::uint64_t layout_version) const {
  if (directive_.enforce_fig5_rule) {
    return env_.map_outputs.usable(key, layout_version, env_.cluster);
  }
  // Rule disabled (demonstration of the Fig. 5 hazard): accept any
  // surviving output regardless of input-layout compatibility.
  const MapOutput* out = env_.map_outputs.find(key);
  return out != nullptr && !out->lost &&
         env_.cluster.storage_alive(out->node);
}

void JobRun::build_reduce_tasks() {
  std::vector<std::uint32_t> parts;
  if (directive_.active) {
    parts = directive_.damaged_partitions;
    std::sort(parts.begin(), parts.end());
    RCMP_CHECK_MSG(!parts.empty(), "recompute job with nothing to do");
  } else {
    parts.resize(spec_.num_reducers);
    for (std::uint32_t p = 0; p < spec_.num_reducers; ++p) parts[p] = p;
  }
  const std::uint32_t split = directive_.active ? directive_.split_factor : 1;
  for (std::uint32_t p : parts) {
    for (std::uint32_t s = 0; s < split; ++s) {
      ReduceTask rt;
      rt.partition = p;
      rt.split_index = s;
      rt.contrib.assign(maps_.size(), ContribState::kWaiting);
      rt.unfetched = static_cast<std::uint32_t>(maps_.size());
      rt.ready_bytes.assign(env_.cluster.size(), 0.0);
      rt.ready.assign(env_.cluster.size(), {});
      reduces_.push_back(std::move(rt));
    }
  }
  reduces_remaining_ = static_cast<std::uint32_t>(reduces_.size());
  pending_reduces_.clear();
  for (std::uint32_t r = 0; r < reduces_.size(); ++r)
    pending_reduces_.push_back(r);
}

// ---------------------------------------------------------------------
// scheduling
// ---------------------------------------------------------------------

void JobRun::schedule_tasks() {
  if (state_ != RunState::kRunning) return;
  schedule_maps();
  schedule_reduces();
  publish_demand();
}

void JobRun::schedule_maps() {
  if (pending_maps_.empty()) return;

  // Detector mode: tasks under a retry-backoff gate sit out this pass;
  // one poke event re-runs scheduling at the earliest gate expiry.
  std::vector<std::uint32_t> deferred;
  if (env_.detector != nullptr) {
    SimTime wake = std::numeric_limits<double>::max();
    std::size_t w = 0;
    for (std::size_t i = 0; i < pending_maps_.size(); ++i) {
      const std::uint32_t m = pending_maps_[i];
      if (maps_[m].not_before > env_.sim.now()) {
        deferred.push_back(m);
        wake = std::min(wake, maps_[m].not_before);
      } else {
        pending_maps_[w++] = m;
      }
    }
    if (!deferred.empty()) {
      pending_maps_.resize(w);
      arm_retry_poke(wake);
    }
  }

  // Locality pass: give every node with free map slots its local blocks
  // first (with even data distribution this keeps initial runs fully
  // data-local, as the paper notes for collocated clusters).
  for (cluster::NodeId n = 0;
       !cfg_.ignore_locality && n < env_.cluster.size(); ++n) {
    if (!env_.cluster.compute_alive(n)) continue;
    for (std::size_t i = 0;
         i < pending_maps_.size() && slot_free(SlotKind::kMap, n);) {
      const std::uint32_t m = pending_maps_[i];
      const auto& reps = env_.dfs.block(maps_[m].block_id).replicas;
      if (std::find(reps.begin(), reps.end(), n) != reps.end()) {
        assign_map(m, n);
        pending_maps_[i] = pending_maps_.back();
        pending_maps_.pop_back();
      } else {
        ++i;
      }
    }
  }

  // Remote pass: remaining tasks go wherever a slot is free. This is
  // what concentrates readers on a hot node after a NO-SPLIT
  // recomputation: every surviving node pulls its map input from the
  // single node holding the regenerated partition (paper Fig. 6).
  while (!pending_maps_.empty()) {
    const cluster::NodeId target = next_free_slot(SlotKind::kMap);
    if (target == cluster::kInvalidNode) break;
    const std::uint32_t m = pending_maps_.back();
    pending_maps_.pop_back();
    assign_map(m, target);
  }

  pending_maps_.insert(pending_maps_.end(), deferred.begin(),
                       deferred.end());
}

void JobRun::schedule_reduces() {
  std::vector<std::uint32_t> deferred;
  if (env_.detector != nullptr && !pending_reduces_.empty()) {
    SimTime wake = std::numeric_limits<double>::max();
    std::size_t w = 0;
    for (std::size_t i = 0; i < pending_reduces_.size(); ++i) {
      const std::uint32_t r = pending_reduces_[i];
      if (reduces_[r].not_before > env_.sim.now()) {
        deferred.push_back(r);
        wake = std::min(wake, reduces_[r].not_before);
      } else {
        pending_reduces_[w++] = r;
      }
    }
    if (!deferred.empty()) {
      pending_reduces_.resize(w);
      arm_retry_poke(wake);
    }
  }

  std::size_t head = 0;
  while (head < pending_reduces_.size()) {
    const cluster::NodeId target = next_free_slot(SlotKind::kReduce);
    if (target == cluster::kInvalidNode) break;
    assign_reduce(pending_reduces_[head], target);
    ++head;
  }
  pending_reduces_.erase(pending_reduces_.begin(),
                         pending_reduces_.begin() +
                             static_cast<std::ptrdiff_t>(head));
  pending_reduces_.insert(pending_reduces_.end(), deferred.begin(),
                          deferred.end());
}

void JobRun::assign_map(std::uint32_t m, cluster::NodeId n) {
  MapTask& t = maps_[m];
  RCMP_CHECK(t.state == MapState::kPending);
  t.run = open_attempt(SlotKind::kMap, n);
  t.state = MapState::kRunning;
  t.start_time = env_.sim.now();
  if (env_.obs != nullptr) {
    env_.obs->tracer.emit(env_.sim.now(), obs::EventType::kTaskStart,
                          obs::kKindMap, n, spec_.logical_id, m, 0.0,
                          env_.chain_tag);
  }
  const std::uint32_t id = t.run.id;
  t.run.ev = env_.sim.schedule_after(
      cfg_.startup_cost(), [this, m, id] { map_startup_done(m, id); });
}

void JobRun::assign_reduce(std::uint32_t r, cluster::NodeId n) {
  ReduceTask& rt = reduces_[r];
  RCMP_CHECK(rt.state == ReduceState::kUnassigned);
  take_slot(SlotKind::kReduce, n);
  rt.node = n;
  rt.state = ReduceState::kStarting;
  rt.start_time = env_.sim.now();
  if (env_.obs != nullptr) {
    env_.obs->tracer.emit(env_.sim.now(), obs::EventType::kTaskStart,
                          obs::kKindReduce, n, spec_.logical_id, r, 0.0,
                          env_.chain_tag);
  }
  const std::uint32_t epoch = rt.epoch;
  rt.ev = env_.sim.schedule_after(cfg_.startup_cost(), [this, r, epoch] {
    reduce_startup_done(r, epoch);
  });
}

// ---------------------------------------------------------------------
// attempts
// ---------------------------------------------------------------------

JobRun::Attempt JobRun::open_attempt(SlotKind kind, cluster::NodeId n) {
  take_slot(kind, n);
  Attempt a;
  a.id = next_attempt_id_++;
  a.node = n;
  return a;
}

JobRun::Attempt* JobRun::find_attempt(std::uint32_t m, std::uint32_t id) {
  MapTask& t = maps_[m];
  if (state_ != RunState::kRunning) return nullptr;
  if (t.run.id == id) return &t.run;
  if (t.backup != nullptr && t.backup->id == id) return t.backup.get();
  return nullptr;
}

void JobRun::cancel_attempt_work(Attempt& a) {
  if (a.ev != sim::kInvalidEvent) {
    env_.sim.cancel(a.ev);
    a.ev = sim::kInvalidEvent;
  }
  if (a.flow != res::kInvalidFlow) {
    env_.net.cancel_flow(a.flow);
    a.flow = res::kInvalidFlow;
  }
  a.buckets.clear();
}

void JobRun::drop_backup(std::unique_ptr<Attempt>& backup, SlotKind kind) {
  if (backup == nullptr) return;
  cancel_attempt_work(*backup);
  put_slot(kind, backup->node);
  backup.reset();
}

void JobRun::drop_backups() {
  for (MapTask& t : maps_) drop_backup(t.backup, SlotKind::kMap);
  for (ReduceTask& rt : reduces_) drop_backup(rt.backup, SlotKind::kReduce);
}

// ---------------------------------------------------------------------
// map task state machine
// ---------------------------------------------------------------------

cluster::NodeId JobRun::pick_read_source(
    const std::vector<cluster::NodeId>& locs, cluster::NodeId reader) {
  RCMP_CHECK(!locs.empty());
  // Local replica is free; otherwise read from the least-loaded source
  // disk (HDFS clients prefer close/idle replicas; this is also what
  // lets replicated inputs dodge a congested or degraded drive).
  if (std::find(locs.begin(), locs.end(), reader) != locs.end()) {
    return reader;
  }
  cluster::NodeId best = locs[0];
  double best_pressure = std::numeric_limits<double>::max();
  for (cluster::NodeId cand : locs) {
    const double pressure =
        env_.net.link_pressure(env_.cluster.disk(cand));
    if (pressure < best_pressure) {
      best_pressure = pressure;
      best = cand;
    }
  }
  return best;
}

void JobRun::map_startup_done(std::uint32_t m, std::uint32_t id) {
  Attempt* a = find_attempt(m, id);
  if (a == nullptr) return;
  RCMP_CHECK(a->phase == Phase::kStarting);
  a->ev = sim::kInvalidEvent;
  start_map_read(m, *a);
}

void JobRun::start_map_read(std::uint32_t m, Attempt& a) {
  MapTask& t = maps_[m];
  const bool backup = &a != &t.run;
  std::vector<cluster::NodeId> locs = env_.dfs.alive_locations(t.block_id);
  if (locs.empty()) {
    if (backup) {
      drop_backup(t.backup, SlotKind::kMap);
      return;
    }
    // Input replica vanished between assignment and now; the Master has
    // not yet detected the failure. Freeze — the detection handler will
    // report the data loss.
    t.state = MapState::kFrozen;
    a.read_src = cluster::kInvalidNode;
    return;
  }
  if (!backup && env_.detector != nullptr) {
    locs = serving_locations(t.block_id);
  }
  if (locs.empty()) {
    // Replicas survive but none currently serves (suspected or
    // unreachable sources). Give the slot back and retry with backoff:
    // either the partition heals or detection replaces the replica.
    put_slot(SlotKind::kMap, a.node);
    reset_map_task(m);
    if (exhausted_retry_budget_) {
      exhausted_retry_budget_ = false;
      abort_data_loss();
    }
    return;
  }
  // Load-aware selection tends to send a backup to a different replica
  // than its straggling running attempt — the benefit extra replicas buy
  // speculation. With one replica the backup has no choice but the same
  // (possibly slow) source.
  const cluster::NodeId src = pick_read_source(locs, a.node);
  a.read_src = src;
  a.phase = Phase::kReading;
  const std::uint32_t id = a.id;
  res::FlowSpec fs;
  auto path = env_.cluster.path_transfer(src, a.node,
                                         /*read_src=*/true,
                                         /*write_dst=*/false,
                                         env_.dfs.block(t.block_id).tier,
                                         cluster::StorageTier::kDisk);
  fs.path = std::move(path.links);
  fs.weights = std::move(path.weights);
  fs.bytes = t.input_bytes;
  fs.on_complete = [this, m, id] { map_read_done(m, id); };
  a.flow = env_.net.start_flow(std::move(fs));
}

void JobRun::map_read_done(std::uint32_t m, std::uint32_t id) {
  Attempt* a = find_attempt(m, id);
  if (a == nullptr) return;
  RCMP_CHECK(a->phase == Phase::kReading);
  a->flow = res::kInvalidFlow;
  if (cfg_.verify_on_read && map_input_corrupt(m)) {
    handle_corrupt_input(m);
    return;
  }
  a->phase = Phase::kComputing;
  const SimTime dt = static_cast<double>(maps_[m].input_bytes) /
                     cfg_.map_cpu_rate *
                     env_.cluster.cpu_factor(a->node);
  a->ev = env_.sim.schedule_after(
      dt, [this, m, id] { map_compute_done(m, id); });
}

void JobRun::map_compute_done(std::uint32_t m, std::uint32_t id) {
  Attempt* a = find_attempt(m, id);
  if (a == nullptr) return;
  RCMP_CHECK(a->phase == Phase::kComputing);
  a->ev = sim::kInvalidEvent;

  if (payload_mode_) {
    MapOutput staged;  // only buckets are used from this staging object
    run_map_udf(m, staged);
    std::uint64_t records = 0;
    for (const auto& b : staged.buckets) records += b.size();
    a->out_bytes =
        static_cast<double>(records) * static_cast<double>(cfg_.record_bytes);
    a->buckets = std::move(staged.buckets);
  } else {
    a->out_bytes =
        static_cast<double>(maps_[m].input_bytes) * spec_.map_output_ratio;
  }

  a->phase = Phase::kWriting;
  res::FlowSpec fs;
  auto path = env_.cluster.path_tier_write(a->node, map_output_tier());
  fs.path = std::move(path.links);
  fs.weights = std::move(path.weights);
  fs.bytes = round_bytes(a->out_bytes);
  fs.on_complete = [this, m, id] { map_write_done(m, id); };
  a->flow = env_.net.start_flow(std::move(fs));
}

cluster::StorageTier JobRun::map_output_tier() const {
  return (spec_.map_output_tier == cluster::StorageTier::kMemory &&
          env_.cluster.ram_enabled())
             ? cluster::StorageTier::kMemory
             : cluster::StorageTier::kDisk;
}

void JobRun::run_map_udf(std::uint32_t m, MapOutput& out) const {
  // Records per map_batch call: enough to fill the check kernel's lanes,
  // few enough that the emitter stays small.
  constexpr std::size_t kChunk = 64;
  const MapTask& t = maps_[m];
  out.buckets.assign(spec_.num_reducers, {});
  const std::span<const Record> block = env_.payloads.block_records(
      t.input_file, t.input_partition, t.block_index);
  Emitter em;
  for (std::size_t i = 0; i < block.size(); i += kChunk) {
    em.records().clear();
    const std::size_t n = std::min(kChunk, block.size() - i);
    spec_.mapper->map_batch(block.subspan(i, n), spec_.udf_salt(), em);
    for (const Record& o : em.records()) {
      const std::uint32_t p =
          partition_of(o.key, spec_.num_reducers, spec_.partition_salt());
      out.buckets[p].push_back(o);
    }
  }
}

void JobRun::map_write_done(std::uint32_t m, std::uint32_t id) {
  Attempt* a = find_attempt(m, id);
  if (a == nullptr) return;
  RCMP_CHECK(a->phase == Phase::kWriting);
  a->flow = res::kInvalidFlow;
  MapTask& t = maps_[m];
  if (a != &t.run) {
    // The backup won the race: stop the straggling running attempt,
    // return its slot, and continue in the backup's slot and node.
    RCMP_CHECK(t.state == MapState::kRunning &&
               t.run.phase != Phase::kStarting);
    cancel_attempt_work(t.run);
    put_slot(SlotKind::kMap, t.run.node);
    t.run = std::move(*t.backup);
    t.backup.reset();
    ++result_.speculative_won;
  }
  complete_map_task(m);
}

void JobRun::complete_map_task(std::uint32_t m) {
  MapTask& t = maps_[m];
  drop_backup(t.backup, SlotKind::kMap);  // the running attempt won
  register_map_output(m);
  t.state = MapState::kDone;
  t.end_time = env_.sim.now();
  t.executed = true;
  t.spurious = false;  // a committed replacement supersedes the old copy
  t.run.read_src = cluster::kInvalidNode;
  if (env_.obs != nullptr) {
    env_.obs->tracer.emit(t.end_time, obs::EventType::kTaskFinish,
                          obs::kKindMap, t.run.node, spec_.logical_id, m,
                          t.end_time - t.start_time, env_.chain_tag);
  }
  completed_map_time_sum_ += t.end_time - t.start_time;
  ++completed_map_count_;
  RCMP_CHECK(maps_remaining_ > 0);
  --maps_remaining_;
  ++result_.mappers_executed;
  put_slot(SlotKind::kMap, t.run.node);
  on_mapper_available(m);
  schedule_tasks();
  on_map_phase_maybe_done();
}

void JobRun::register_map_output(std::uint32_t m) {
  MapTask& t = maps_[m];
  MapOutput out;
  out.node = t.run.node;
  out.input_layout_version = t.input_layout_version;
  out.total_bytes = t.run.out_bytes;
  if (payload_mode_) {
    RCMP_CHECK(t.run.buckets.size() == spec_.num_reducers);
    out.buckets = std::exchange(t.run.buckets, {});
    out.per_reducer_bytes.resize(spec_.num_reducers);
    for (std::uint32_t p = 0; p < spec_.num_reducers; ++p) {
      out.per_reducer_bytes[p] =
          static_cast<double>(out.buckets[p].size()) *
          static_cast<double>(cfg_.record_bytes);
    }
  } else {
    out.per_reducer_bytes.assign(
        spec_.num_reducers, t.run.out_bytes / spec_.num_reducers);
  }
  out.tier = map_output_tier();
  const auto key = t.key(spec_.logical_id);
  env_.map_outputs.put(key, std::move(out));
  outputs_registered_.push_back(key);
}

void JobRun::on_mapper_available(std::uint32_t m) {
  for (std::uint32_t r = 0; r < reduces_.size(); ++r) {
    ReduceTask& rt = reduces_[r];
    if (rt.state == ReduceState::kDone) continue;
    if (rt.contrib[m] != ContribState::kWaiting) continue;
    mark_contrib_ready(r, m);
    if (rt.state == ReduceState::kFetching) flush_ready(r, /*force=*/false);
  }
}

void JobRun::reset_map_task(std::uint32_t m) {
  MapTask& t = maps_[m];
  drop_backup(t.backup, SlotKind::kMap);
  if (env_.obs != nullptr) {
    env_.obs->tracer.emit(env_.sim.now(), obs::EventType::kTaskReexec,
                          obs::kKindMap, t.run.node, spec_.logical_id, m,
                          0.0, env_.chain_tag);
  }
  const bool was_available =
      t.state == MapState::kDone || t.state == MapState::kReused;
  cancel_attempt_work(t.run);
  if (was_available) {
    const MapOutput* out = env_.map_outputs.find(t.key(spec_.logical_id));
    const bool intact = out != nullptr && !out->lost &&
                        env_.cluster.storage_alive(out->node);
    if (t.state == MapState::kDone && !intact) {
      // Drop the (lost) registered output so a fresh one replaces it.
      env_.map_outputs.drop(t.key(spec_.logical_id));
    }
    // Detector mode only: an output that is merely *unavailable* (its
    // serving node suspected or unreachable) stays persisted — this
    // re-execution is speculative recovery, and reconciliation readopts
    // the copy if the node turns out to be alive.
    if (intact) t.spurious = true;
  }
  if (was_available) ++maps_remaining_;
  if (!charge_attempt(t.attempts, t.not_before))
    exhausted_retry_budget_ = true;
  t.state = MapState::kPending;
  t.run = Attempt{};  // the retry opens a fresh attempt
  pending_maps_.push_back(m);
}

// ---------------------------------------------------------------------
// speculative execution
// ---------------------------------------------------------------------

void JobRun::schedule_speculation_check() {
  speculation_ev_ = env_.sim.schedule_after(
      cfg_.speculative_check_interval, [this] { speculation_check(); });
}

void JobRun::speculation_check() {
  speculation_ev_ = sim::kInvalidEvent;
  if (state_ != RunState::kRunning) return;
  schedule_speculation_check();

  if (cfg_.speculative_reducers) speculate_reducers();

  if (completed_map_count_ < cfg_.speculative_min_completed) return;
  const double avg =
      completed_map_time_sum_ / completed_map_count_;
  const double threshold = cfg_.speculative_slowness * avg;

  for (std::uint32_t m = 0; m < maps_.size(); ++m) {
    MapTask& t = maps_[m];
    if (t.state != MapState::kRunning || t.run.phase == Phase::kStarting)
      continue;
    if (env_.sim.now() - t.start_time <= threshold) continue;
    if (t.backup != nullptr) continue;
    const cluster::NodeId target = next_free_slot(SlotKind::kMap, t.run.node);
    if (target == cluster::kInvalidNode) continue;
    t.backup = std::make_unique<Attempt>(open_attempt(SlotKind::kMap, target));
    const std::uint32_t id = t.backup->id;
    t.backup->ev = env_.sim.schedule_after(
        cfg_.startup_cost(), [this, m, id] { map_startup_done(m, id); });
    ++result_.speculative_launched;
  }
}

// Reducer speculation: only the compute phase races (the fetched bytes
// are re-pulled from the running attempt's local disk rather than
// re-shuffled from every mapper, like Hadoop's reduce-side speculation
// shortcut in spirit: the expensive part a straggling reducer repeats is
// compute).
void JobRun::speculate_reducers() {
  if (completed_reduce_count_ < cfg_.speculative_min_completed) return;
  const double avg = completed_reduce_time_sum_ / completed_reduce_count_;
  const double threshold = cfg_.speculative_slowness * avg;

  for (std::uint32_t r = 0; r < reduces_.size(); ++r) {
    ReduceTask& rt = reduces_[r];
    if (rt.state != ReduceState::kComputing) continue;
    if (env_.sim.now() - rt.start_time <= threshold) continue;
    if (rt.backup != nullptr) continue;
    if (env_.reduce_spec_gate) {
      ReduceSpecCandidate cand;
      cand.reducer = r;
      cand.elapsed = env_.sim.now() - rt.start_time;
      cand.avg_reduce_time = avg;
      cand.fetched_bytes = rt.fetched_bytes;
      cand.startup_cost = cfg_.startup_cost();
      if (!env_.reduce_spec_gate(cand)) continue;
    }
    const cluster::NodeId target = next_free_slot(SlotKind::kReduce, rt.node);
    if (target == cluster::kInvalidNode) continue;
    rt.backup =
        std::make_unique<Attempt>(open_attempt(SlotKind::kReduce, target));
    const std::uint32_t id = rt.backup->id;
    rt.backup->ev = env_.sim.schedule_after(
        cfg_.startup_cost(), [this, r, id] { reduce_backup_step(r, id); });
    ++result_.speculative_launched;
  }
}

void JobRun::reduce_backup_step(std::uint32_t r, std::uint32_t id) {
  ReduceTask& rt = reduces_[r];
  if (state_ != RunState::kRunning || rt.backup == nullptr ||
      rt.backup->id != id)
    return;
  Attempt& b = *rt.backup;
  b.ev = sim::kInvalidEvent;
  b.flow = res::kInvalidFlow;
  if (b.phase == Phase::kComputing) {
    // The backup finished its compute first: stop the straggling running
    // attempt, return its slot, and write the output from the backup's
    // node, in the backup's slot.
    RCMP_CHECK(rt.state == ReduceState::kComputing);
    if (rt.ev != sim::kInvalidEvent) {
      env_.sim.cancel(rt.ev);
      rt.ev = sim::kInvalidEvent;
    }
    put_slot(SlotKind::kReduce, rt.node);
    rt.node = b.node;
    rt.backup.reset();
    ++result_.speculative_won;
    finish_reduce_compute(r);
    return;
  }
  if (rt.state != ReduceState::kComputing) {
    drop_backup(rt.backup, SlotKind::kReduce);
    return;
  }
  if (b.phase == Phase::kStarting) {
    // Re-pull the already-shuffled bytes from the running attempt's
    // staging area (its local disk, or its RAM when the job shuffles in
    // memory).
    b.phase = Phase::kReading;
    res::FlowSpec fs;
    auto path = env_.cluster.path_transfer(rt.node, b.node,
                                           /*read_src=*/true,
                                           /*write_dst=*/true,
                                           map_output_tier(),
                                           map_output_tier());
    fs.path = std::move(path.links);
    fs.weights = std::move(path.weights);
    fs.bytes = round_bytes(rt.fetched_bytes);
    fs.on_complete = [this, r, id] { reduce_backup_step(r, id); };
    b.flow = env_.net.start_flow(std::move(fs));
    return;
  }
  // Pulled. No tail debt: the per-segment fetch latency was paid once by
  // the running attempt; the backup streams one consolidated spill file.
  b.phase = Phase::kComputing;
  const SimTime dt = rt.fetched_bytes / cfg_.reduce_cpu_rate *
                     env_.cluster.cpu_factor(b.node);
  b.ev = env_.sim.schedule_after(
      dt, [this, r, id] { reduce_backup_step(r, id); });
}

void JobRun::on_map_phase_maybe_done() {
  if (state_ != RunState::kRunning) return;
  if (maps_remaining_ != 0) return;
  result_.map_phase_end = env_.sim.now();
  flush_all_ready(/*force=*/true);
}

// ---------------------------------------------------------------------
// shuffle
// ---------------------------------------------------------------------

double JobRun::contrib_bytes(std::uint32_t r, std::uint32_t m) const {
  const MapOutput* out =
      env_.map_outputs.find(maps_[m].key(spec_.logical_id));
  RCMP_CHECK_MSG(out != nullptr, "contribution from unregistered mapper");
  const ReduceTask& rt = reduces_[r];
  const std::uint32_t split =
      directive_.active ? directive_.split_factor : 1;
  return out->per_reducer_bytes[rt.partition] / split;
}

void JobRun::mark_contrib_ready(std::uint32_t r, std::uint32_t m) {
  ReduceTask& rt = reduces_[r];
  RCMP_CHECK(rt.contrib[m] == ContribState::kWaiting);
  const MapOutput* out =
      env_.map_outputs.find(maps_[m].key(spec_.logical_id));
  if (out == nullptr || out->lost || !source_serving(out->node)) {
    return;  // stays kWaiting; a rerun will make it ready again
  }
  rt.contrib[m] = ContribState::kReady;
  rt.ready_bytes[out->node] += contrib_bytes(r, m);
  rt.ready[out->node].push_back(m);
  // ready_bytes grows only here, so this is where a batch becomes due.
  if (rt.ready_bytes[out->node] >= flush_threshold_ &&
      std::find(rt.flush_due.begin(), rt.flush_due.end(), out->node) ==
          rt.flush_due.end()) {
    rt.flush_due.push_back(out->node);
  }
}

void JobRun::flush_ready(std::uint32_t r, bool force) {
  ReduceTask& rt = reduces_[r];
  RCMP_CHECK(rt.state == ReduceState::kFetching);
  if (force) {
    for (cluster::NodeId src = 0; src < env_.cluster.size(); ++src) {
      // Zero-byte contributions (empty payload buckets) still need a
      // (zero-byte) fetch so the reducer's unfetched count drains.
      if (rt.ready[src].empty()) continue;
      if (!source_serving(src)) continue;  // rewound at detection/suspicion
      start_fetch(r, src);
    }
    std::erase_if(rt.flush_due, [&rt](cluster::NodeId src) {
      return rt.ready[src].empty();
    });
    return;
  }
  // Every batch at the threshold is in flush_due, so visiting it
  // flushes exactly the sources a scan of every node would.
  std::sort(rt.flush_due.begin(), rt.flush_due.end());
  std::size_t keep = 0;
  for (const cluster::NodeId src : rt.flush_due) {
    if (rt.ready[src].empty() || rt.ready_bytes[src] < flush_threshold_) {
      continue;  // rewound or reset since it became due
    }
    if (!source_serving(src)) {
      rt.flush_due[keep++] = src;  // due again once it serves
      continue;
    }
    start_fetch(r, src);
  }
  rt.flush_due.resize(keep);
}

void JobRun::start_fetch(std::uint32_t r, cluster::NodeId src) {
  ReduceTask& rt = reduces_[r];
  FetchFlow ff;
  ff.reducer = r;
  ff.reducer_epoch = rt.epoch;
  ff.src = src;
  ff.mappers = std::move(rt.ready[src]);
  ff.bytes = rt.ready_bytes[src];
  rt.ready[src].clear();
  rt.ready_bytes[src] = 0.0;
  ff.mapper_bytes.reserve(ff.mappers.size());
  for (std::uint32_t m : ff.mappers) {
    RCMP_CHECK(rt.contrib[m] == ContribState::kReady);
    rt.contrib[m] = ContribState::kInflight;
    ff.mapper_bytes.push_back(contrib_bytes(r, m));
  }

  // Serve from memory only when every output in the batch is still
  // resident — a partially-spilled batch streams at disk speed.
  cluster::StorageTier src_tier = cluster::StorageTier::kDisk;
  if (map_output_tier() == cluster::StorageTier::kMemory) {
    src_tier = cluster::StorageTier::kMemory;
    for (std::uint32_t m : ff.mappers) {
      const MapOutput* out =
          env_.map_outputs.find(maps_[m].key(spec_.logical_id));
      if (out == nullptr || out->tier != cluster::StorageTier::kMemory) {
        src_tier = cluster::StorageTier::kDisk;
        break;
      }
    }
  }
  const std::uint64_t token = next_fetch_token_++;
  res::FlowSpec fs;
  auto path = env_.cluster.path_transfer(src, rt.node,
                                         /*read_src=*/true,
                                         /*write_dst=*/true, src_tier,
                                         map_output_tier());
  fs.path = std::move(path.links);
  fs.weights = std::move(path.weights);
  fs.bytes = round_bytes(ff.bytes);
  fs.on_complete = [this, token] { fetch_done(token); };
  ff.flow = env_.net.start_flow(std::move(fs));
  active_fetches_.emplace(token, std::move(ff));
}

void JobRun::flush_all_ready(bool force) {
  for (std::uint32_t r = 0; r < reduces_.size(); ++r) {
    if (reduces_[r].state == ReduceState::kFetching)
      flush_ready(r, force);
  }
}

void JobRun::fetch_done(std::uint64_t token) {
  auto it = active_fetches_.find(token);
  if (it == active_fetches_.end()) return;  // cancelled
  FetchFlow ff = std::move(it->second);
  active_fetches_.erase(it);
  if (state_ != RunState::kRunning) return;

  ReduceTask& rt = reduces_[ff.reducer];
  if (rt.epoch != ff.reducer_epoch) return;
  RCMP_CHECK(rt.state == ReduceState::kFetching);

  if (env_.obs != nullptr) {
    env_.obs->tracer.emit(env_.sim.now(), obs::EventType::kShuffleFetch, 0,
                          ff.src, spec_.logical_id, ff.reducer, ff.bytes,
                          env_.chain_tag);
  }

  // Each mapper's segment is accepted independently: a segment whose
  // output vanished mid-flight (corruption handled elsewhere dropped
  // it) rewinds to kWaiting, a segment failing its digest triggers
  // mapper re-execution, the rest land normally.
  std::vector<std::uint32_t> corrupt;
  for (std::size_t i = 0; i < ff.mappers.size(); ++i) {
    const std::uint32_t m = ff.mappers[i];
    RCMP_CHECK(rt.contrib[m] == ContribState::kInflight);
    const auto key = maps_[m].key(spec_.logical_id);
    const MapOutput* out = env_.map_outputs.find(key);
    if (out == nullptr) {
      rt.contrib[m] = ContribState::kWaiting;
      continue;
    }
    if (cfg_.verify_on_read) {
      const BucketState bs = env_.map_outputs.bucket_state(key, rt.partition);
      if (bs != BucketState::kIntact) {
        if (bs == BucketState::kMissingSum && env_.obs != nullptr) {
          // An unverifiable bucket must never pass silently: surface it
          // to the auditor (aborts under audit), then fall through to
          // the corrupt-output recovery path.
          env_.obs->report_violation(
              "shuffle fetch of mapper " + std::to_string(m) +
              " bucket " + std::to_string(rt.partition) +
              " has payload but no captured checksum (unverifiable read)");
        }
        rt.contrib[m] = ContribState::kWaiting;
        corrupt.push_back(m);
        continue;
      }
    }
    rt.contrib[m] = ContribState::kFetched;
    RCMP_CHECK(rt.unfetched > 0);
    --rt.unfetched;
    const double seg_bytes =
        i < ff.mapper_bytes.size() ? ff.mapper_bytes[i] : 0.0;
    rt.fetched_bytes += seg_bytes;
    result_.shuffle_bytes += seg_bytes;
    // Each mapper's output is a separate transfer; per-transfer latency
    // serializes over the reducer's parallel copiers and is paid before
    // the reduce phase (what makes the paper's SLOW SHUFFLE slow).
    rt.tail_debt += cfg_.shuffle_tail_latency /
                    std::max(1u, cfg_.shuffle_fetch_parallelism);
    if (payload_mode_) {
      const std::uint32_t split =
          directive_.active ? directive_.split_factor : 1;
      for (const Record& rec : out->buckets[rt.partition]) {
        if (split > 1 &&
            partition_of(rec.key, split, directive_.split_salt) !=
                rt.split_index) {
          continue;
        }
        rt.gathered.push_back(rec);
      }
    }
  }
  for (std::uint32_t m : corrupt) handle_corrupt_map_output(m);
  maybe_start_reduce_compute(ff.reducer);
}

void JobRun::cancel_fetches_of_reducer(std::uint32_t r) {
  for (auto it = active_fetches_.begin(); it != active_fetches_.end();) {
    if (it->second.reducer == r) {
      env_.net.cancel_flow(it->second.flow);
      it = active_fetches_.erase(it);
    } else {
      ++it;
    }
  }
}

// ---------------------------------------------------------------------
// reduce task state machine
// ---------------------------------------------------------------------

void JobRun::reduce_startup_done(std::uint32_t r, std::uint32_t epoch) {
  ReduceTask& rt = reduces_[r];
  if (state_ != RunState::kRunning || rt.epoch != epoch) return;
  RCMP_CHECK(rt.state == ReduceState::kStarting);
  rt.ev = sim::kInvalidEvent;
  rt.state = ReduceState::kFetching;
  // Late-wave reducers find all map outputs ready: fetch them at once.
  flush_ready(r, /*force=*/true);
  maybe_start_reduce_compute(r);
}

void JobRun::maybe_start_reduce_compute(std::uint32_t r) {
  ReduceTask& rt = reduces_[r];
  if (rt.state != ReduceState::kFetching || rt.unfetched != 0) return;
  rt.state = ReduceState::kComputing;
  // Shuffle is complete for this reducer: map-output + DFS usage is at a
  // local peak, which boundary-only sampling used to miss (§IV-C).
  if (env_.obs != nullptr) env_.obs->sample_storage();
  const SimTime dt = rt.fetched_bytes / cfg_.reduce_cpu_rate *
                         env_.cluster.cpu_factor(rt.node) +
                     rt.tail_debt;
  const std::uint32_t epoch = rt.epoch;
  rt.ev = env_.sim.schedule_after(
      dt, [this, r, epoch] { reduce_compute_done(r, epoch); });
}

void JobRun::reduce_compute_done(std::uint32_t r, std::uint32_t epoch) {
  ReduceTask& rt = reduces_[r];
  if (state_ != RunState::kRunning || rt.epoch != epoch) return;
  RCMP_CHECK(rt.state == ReduceState::kComputing);
  rt.ev = sim::kInvalidEvent;
  drop_backup(rt.backup, SlotKind::kReduce);  // the running attempt won
  finish_reduce_compute(r);
}

void JobRun::finish_reduce_compute(std::uint32_t r) {
  ReduceTask& rt = reduces_[r];
  if (payload_mode_) {
    // Sort-merge: the reducer groups the sorted run by key. Each split
    // owns whole keys, so grouping within the split is complete.
    std::sort(rt.gathered.begin(), rt.gathered.end());
    Emitter em;
    spec_.reducer->reduce_sorted(rt.gathered, spec_.udf_salt(), em);
    rt.out_records = std::move(em.records());
    rt.gathered.clear();
    rt.gathered.shrink_to_fit();
    rt.out_bytes = static_cast<double>(rt.out_records.size()) *
                   static_cast<double>(cfg_.record_bytes);
  } else {
    rt.out_bytes = rt.fetched_bytes * spec_.reduce_output_ratio;
  }
  start_reduce_write(r);
}

void JobRun::start_reduce_write(std::uint32_t r) {
  ReduceTask& rt = reduces_[r];
  rt.state = ReduceState::kWriting;
  if (env_.cluster.alive_storage_nodes().empty()) {
    // Nowhere to put the output. Stall instead of asserting inside
    // plan_write; failure detection (or a rejoin) unblocks or aborts.
    rt.write_blocked = true;
    return;
  }
  rt.planned = env_.dfs.plan_write(spec_.output, rt.node,
                                   round_bytes(rt.out_bytes),
                                   spec_.output_placement);
  rt.next_block = 0;
  rt.outstanding_writes = 0;
  rt.write_flows.clear();
  write_next_block(r, rt.epoch);
}

void JobRun::write_next_block(std::uint32_t r, std::uint32_t epoch) {
  ReduceTask& rt = reduces_[r];
  if (state_ != RunState::kRunning || rt.epoch != epoch) return;
  RCMP_CHECK(rt.state == ReduceState::kWriting);

  if (rt.next_block >= rt.planned.size()) {
    // All blocks written (possibly zero): commit.
    env_.dfs.commit_partition(spec_.output, rt.partition, rt.planned);
    if (payload_mode_) {
      env_.payloads.append(
          spec_.output, rt.partition, std::move(rt.out_records),
          static_cast<std::uint32_t>(std::max<std::size_t>(
              1, rt.planned.size())));
      rt.out_records.clear();
    }
    if (std::find(partitions_committed_.begin(),
                  partitions_committed_.end(),
                  rt.partition) == partitions_committed_.end()) {
      partitions_committed_.push_back(rt.partition);
    }
    result_.output_bytes += rt.out_bytes;
    reduce_done(r);
    return;
  }

  // Replication pipeline for one block: all replica streams concurrent.
  const auto& block = rt.planned[rt.next_block];
  rt.write_flows.clear();
  rt.outstanding_writes = static_cast<std::uint32_t>(block.replicas.size());
  for (cluster::NodeId rep : block.replicas) {
    res::FlowSpec fs;
    auto path = env_.cluster.path_transfer(rt.node, rep,
                                           /*read_src=*/false,
                                           /*write_dst=*/true,
                                           cluster::StorageTier::kDisk,
                                           block.tier);
    fs.path = std::move(path.links);
    fs.weights = std::move(path.weights);
    fs.bytes = block.size;
    fs.on_complete = [this, r, epoch] { block_write_done(r, epoch); };
    rt.write_flows.push_back(env_.net.start_flow(std::move(fs)));
  }
}

void JobRun::block_write_done(std::uint32_t r, std::uint32_t epoch) {
  ReduceTask& rt = reduces_[r];
  if (state_ != RunState::kRunning || rt.epoch != epoch) return;
  if (rt.state != ReduceState::kWriting || rt.write_blocked) return;
  RCMP_CHECK(rt.outstanding_writes > 0);
  --rt.outstanding_writes;
  if (rt.outstanding_writes == 0) {
    ++rt.next_block;
    write_next_block(r, epoch);
  }
}

void JobRun::reduce_done(std::uint32_t r) {
  ReduceTask& rt = reduces_[r];
  rt.state = ReduceState::kDone;
  rt.end_time = env_.sim.now();
  if (env_.obs != nullptr) {
    env_.obs->tracer.emit(rt.end_time, obs::EventType::kTaskFinish,
                          obs::kKindReduce, rt.node, spec_.logical_id, r,
                          rt.end_time - rt.start_time, env_.chain_tag);
  }
  ++result_.reducers_executed;
  completed_reduce_time_sum_ += rt.end_time - rt.start_time;
  ++completed_reduce_count_;
  RCMP_CHECK(reduces_remaining_ > 0);
  --reduces_remaining_;
  put_slot(SlotKind::kReduce, rt.node);
  schedule_tasks();
  maybe_finish();
}

void JobRun::reset_reduce_task(std::uint32_t r) {
  ReduceTask& rt = reduces_[r];
  drop_backup(rt.backup, SlotKind::kReduce);
  RCMP_CHECK(rt.state != ReduceState::kDone);
  if (env_.obs != nullptr) {
    env_.obs->tracer.emit(env_.sim.now(), obs::EventType::kTaskReexec,
                          obs::kKindReduce, rt.node, spec_.logical_id, r,
                          0.0, env_.chain_tag);
  }
  cancel_task_work(rt);
  cancel_fetches_of_reducer(r);
  ++rt.epoch;
  rt.state = ReduceState::kUnassigned;
  rt.node = cluster::kInvalidNode;
  rt.fetched_bytes = 0.0;
  rt.tail_debt = 0.0;
  rt.gathered.clear();
  rt.out_records.clear();
  rt.planned.clear();
  rt.next_block = 0;
  rt.outstanding_writes = 0;
  rt.write_blocked = false;
  std::fill(rt.ready_bytes.begin(), rt.ready_bytes.end(), 0.0);
  for (auto& v : rt.ready) v.clear();
  rt.flush_due.clear();
  rt.unfetched = static_cast<std::uint32_t>(maps_.size());
  std::fill(rt.contrib.begin(), rt.contrib.end(), ContribState::kWaiting);
  // Re-buffer contributions from mappers whose outputs are available.
  for (std::uint32_t m = 0; m < maps_.size(); ++m) {
    const MapTask& t = maps_[m];
    if (t.state == MapState::kDone || t.state == MapState::kReused) {
      mark_contrib_ready(r, m);
    }
  }
  if (!charge_attempt(rt.attempts, rt.not_before))
    exhausted_retry_budget_ = true;
  pending_reduces_.push_back(r);
}

// ---------------------------------------------------------------------
// failures
// ---------------------------------------------------------------------

void JobRun::on_node_killed(cluster::NodeId n) {
  // A whole-node kill is both failure flavors at once; the order matters
  // only in that compute teardown must not observe half-rewound shuffle
  // state, which matches the original single-pass ordering.
  on_compute_failed(n);
  on_disk_failed(n);
}

void JobRun::on_compute_failed(cluster::NodeId n) {
  if (state_ != RunState::kRunning) return;
  // Broker mode: the shared scheduler's own failure handler (registered
  // before any chain's) already zeroed the node's inventory and
  // forfeited every slot held there.
  freeze_tasks_on(n, /*suspected=*/false);
}

void JobRun::freeze_tasks_on(cluster::NodeId n, bool suspected) {
  credit_slots(n, /*full=*/false);
  // Drop every backup: any of them may be running on, or reading from,
  // node n. Speculation re-arms later.
  drop_backups();
  // Unlike a real compute failure, the broker never saw a cluster event
  // for a suspicion: hand each frozen task's slot back explicitly
  // (may_acquire's detector gate keeps it off node n).
  const bool release = suspected && env_.slots != nullptr;
  for (auto& t : maps_) {
    if (t.run.node == n && t.state == MapState::kRunning) {
      cancel_attempt_work(t.run);
      t.state = MapState::kFrozen;
      if (release) env_.slots->release(n, SlotKind::kMap);
      blame_node(n);
    }
  }
  for (std::uint32_t r = 0; r < reduces_.size(); ++r) {
    ReduceTask& rt = reduces_[r];
    if (rt.node == n &&
        (rt.state == ReduceState::kStarting ||
         rt.state == ReduceState::kFetching ||
         rt.state == ReduceState::kComputing ||
         rt.state == ReduceState::kWriting)) {
      cancel_task_work(rt);
      cancel_fetches_of_reducer(r);
      rt.state = ReduceState::kFrozen;
      if (release) env_.slots->release(n, SlotKind::kReduce);
      blame_node(n);
    }
  }
}

void JobRun::on_disk_failed(cluster::NodeId n) {
  if (state_ != RunState::kRunning) return;

  // Shuffle transfers sourced at the dead disk stop flowing. Tasks
  // running on the node are untouched: a disk-only failure leaves the
  // node computing (its inputs/outputs stream over the network).
  halt_fetches_from(n);

  // Output writes with a replica stream to the dead node stall until
  // the Master replans them at detection time.
  for (auto& rt : reduces_) {
    if (rt.state != ReduceState::kWriting || rt.write_blocked) continue;
    if (rt.next_block >= rt.planned.size()) continue;
    const auto& reps = rt.planned[rt.next_block].replicas;
    if (std::find(reps.begin(), reps.end(), n) != reps.end()) {
      for (res::FlowId f : rt.write_flows) env_.net.cancel_flow(f);
      rt.write_flows.clear();
      rt.write_blocked = true;
    }
  }
}

void JobRun::on_node_recovered(cluster::NodeId n) {
  if (state_ != RunState::kRunning) return;
  if (!env_.cluster.is_compute_node(n)) return;
  // The node rejoins with an empty disk and full slots; pending work can
  // land on it immediately, and its disk becomes a write target again.
  // (Broker mode: the shared scheduler refilled the node's inventory.)
  credit_slots(n, /*full=*/true);
  // Writes that stalled because no storage target survived can resume
  // against the rejoined disk.
  for (std::uint32_t r = 0; r < reduces_.size(); ++r) {
    ReduceTask& rt = reduces_[r];
    if (rt.write_blocked && rt.state == ReduceState::kWriting) {
      rt.write_blocked = false;
      start_reduce_write(r);
    }
  }
  schedule_tasks();
}

JobRun::FailureOutcome JobRun::on_detected_failure(cluster::NodeId n) {
  (void)n;  // all state was tagged at kill time; n is informational
  if (state_ != RunState::kRunning) return FailureOutcome::kRecovered;

  // 1) Restart frozen reducers from scratch on surviving nodes.
  for (std::uint32_t r = 0; r < reduces_.size(); ++r) {
    if (reduces_[r].state == ReduceState::kFrozen) reset_reduce_task(r);
  }

  // 2) Re-plan writes whose replica pipeline lost a target.
  for (std::uint32_t r = 0; r < reduces_.size(); ++r) {
    ReduceTask& rt = reduces_[r];
    if (rt.write_blocked) {
      RCMP_CHECK(rt.state == ReduceState::kWriting);
      rt.write_blocked = false;
      start_reduce_write(r);
    }
  }

  // 3) Re-execute mappers whose persisted output is gone but is still
  //    needed by some unfetched contribution.
  for (std::uint32_t m = 0; m < maps_.size(); ++m) {
    MapTask& t = maps_[m];
    if (t.state != MapState::kDone && t.state != MapState::kReused)
      continue;
    const MapOutput* out = env_.map_outputs.find(t.key(spec_.logical_id));
    const bool output_ok =
        out != nullptr && !out->lost && source_serving(out->node);
    if (output_ok) continue;
    bool needed = false;
    for (const auto& rt : reduces_) {
      if (rt.state == ReduceState::kDone) continue;
      if (rt.contrib[m] != ContribState::kFetched) {
        needed = true;
        break;
      }
    }
    if (needed) reset_map_task(m);
  }

  // 4) Re-queue mappers frozen by the kill.
  for (std::uint32_t m = 0; m < maps_.size(); ++m) {
    if (maps_[m].state == MapState::kFrozen) reset_map_task(m);
  }

  // 5) Irreversible-loss assessment: every task that still has to run
  //    must be able to read its input; every committed partition must
  //    still be available.
  for (const MapTask& t : maps_) {
    if (t.state == MapState::kDone || t.state == MapState::kReused)
      continue;
    if (env_.dfs.alive_locations(t.block_id).empty()) {
      RCMP_WARN() << "t=" << env_.sim.now() << " job " << spec_.name
                  << ": map input block lost — aborting";
      return FailureOutcome::kNeedsAbort;
    }
  }
  for (std::uint32_t p : partitions_committed_) {
    if (!env_.dfs.partition_available(spec_.output, p)) {
      RCMP_WARN() << "t=" << env_.sim.now() << " job " << spec_.name
                  << ": committed output partition " << p
                  << " lost — aborting";
      return FailureOutcome::kNeedsAbort;
    }
  }

  // 6) Detector mode: a task that burned through its per-attempt retry
  //    budget stops retrying against a persistently bad placement and
  //    escalates to the middleware's replan instead.
  if (exhausted_retry_budget_) {
    exhausted_retry_budget_ = false;
    RCMP_WARN() << "t=" << env_.sim.now() << " job " << spec_.name
                << ": task attempt budget exhausted — aborting for replan";
    return FailureOutcome::kNeedsAbort;
  }

  schedule_tasks();
  on_map_phase_maybe_done();
  return FailureOutcome::kRecovered;
}

// ---------------------------------------------------------------------
// detector-driven resilience (all paths below are unreachable without
// an attached cluster::FailureDetector)
// ---------------------------------------------------------------------

bool JobRun::source_serving(cluster::NodeId n) const {
  if (!env_.cluster.storage_alive(n)) return false;
  if (env_.detector == nullptr) return true;
  // A suspected or partitioned node's persisted data is *unavailable*
  // (not lost): fetches avoid it, and reconciliation re-admits it.
  if (!env_.cluster.reachable(n)) return false;
  return !env_.detector->suspected(n);
}

std::vector<cluster::NodeId> JobRun::serving_locations(
    std::uint64_t block_id) const {
  std::vector<cluster::NodeId> out;
  for (cluster::NodeId l : env_.dfs.alive_locations(block_id)) {
    if (source_serving(l)) out.push_back(l);
  }
  return out;
}

bool JobRun::charge_attempt(std::uint32_t& attempts, SimTime& not_before) {
  if (env_.detector == nullptr) return true;  // oracle mode: no budgets
  ++attempts;
  // Always back off — even the exhausting attempt. If the caller's
  // escalation is deferred (or the job is replanned and the task
  // returns), the task must not spin hot in the scheduler.
  const double growth = std::pow(
      cfg_.retry_backoff_factor,
      static_cast<double>(std::min(attempts, 8u) - 1));
  double delay = cfg_.retry_backoff_base * growth;
  if (cfg_.retry_backoff_jitter > 0.0) {
    // Decorrelated jitter: draw from [base, 3 * delay] and blend by the
    // jitter factor. Guarded so jitter-off runs draw no RNG at all
    // (byte-identical to pre-jitter builds).
    const double hi = std::max(cfg_.retry_backoff_base, 3.0 * delay);
    const double draw = rng_.uniform(cfg_.retry_backoff_base, hi);
    delay += cfg_.retry_backoff_jitter * (draw - delay);
  }
  not_before = env_.sim.now() + delay;
  const std::uint32_t budget = env_.retry_budget
                                   ? env_.retry_budget(attempts)
                                   : cfg_.max_task_attempts;
  return budget == 0 || attempts < budget;
}

void JobRun::blame_node(cluster::NodeId n) {
  if (env_.detector != nullptr) env_.detector->record_task_failure(n);
}

void JobRun::arm_retry_poke(SimTime when) {
  if (retry_ev_ != sim::kInvalidEvent) {
    if (retry_at_ <= when) return;
    env_.sim.cancel(retry_ev_);
  }
  retry_at_ = when;
  retry_ev_ = env_.sim.schedule_after(when - env_.sim.now(), [this] {
    retry_ev_ = sim::kInvalidEvent;
    if (state_ != RunState::kRunning) return;
    schedule_tasks();
  });
}

void JobRun::halt_fetches_from(cluster::NodeId n) {
  for (auto it = active_fetches_.begin(); it != active_fetches_.end();) {
    if (it->second.src == n) {
      env_.net.cancel_flow(it->second.flow);
      ReduceTask& rt = reduces_[it->second.reducer];
      if (rt.epoch == it->second.reducer_epoch) {
        for (std::uint32_t m : it->second.mappers) {
          if (rt.contrib[m] == ContribState::kInflight)
            rt.contrib[m] = ContribState::kWaiting;
        }
      }
      it = active_fetches_.erase(it);
    } else {
      ++it;
    }
  }

  // Buffered-but-unfetched contributions whose source went away rewind
  // to waiting; they re-buffer when the source serves again (or after a
  // mapper re-execution).
  for (auto& rt : reduces_) {
    if (rt.state == ReduceState::kDone) continue;
    for (std::uint32_t m : rt.ready[n]) {
      if (rt.contrib[m] == ContribState::kReady)
        rt.contrib[m] = ContribState::kWaiting;
    }
    rt.ready[n].clear();
    rt.ready_bytes[n] = 0.0;
  }
}

void JobRun::on_suspected(cluster::NodeId n) {
  if (state_ != RunState::kRunning) return;
  freeze_tasks_on(n, /*suspected=*/true);
  // Suspicion is a master-side belief: in-flight writes TO the node
  // physically proceed, but nothing new fetches FROM it.
  halt_fetches_from(n);
}

void JobRun::on_node_reconciled(cluster::NodeId n) {
  if (state_ != RunState::kRunning) return;
  // The suspicion zeroed the node's private slot complement; restore it
  // (broker mode: the shared inventory was never touched — the
  // may_acquire gate simply lifts once the detector clears n).
  if (env_.cluster.compute_alive(n) && env_.cluster.is_compute_node(n)) {
    credit_slots(n, /*full=*/true);
  }
  // Readopt persisted outputs whose spurious re-execution has not
  // committed yet: cancel the replacement work and restore the task to
  // its pre-suspicion terminal state, leaving the DFS and map-output
  // ledgers exactly as if the node had never been suspected.
  for (std::uint32_t m = 0; m < maps_.size(); ++m) {
    MapTask& t = maps_[m];
    if (!t.spurious) continue;
    if (t.state == MapState::kDone || t.state == MapState::kReused) {
      t.spurious = false;  // replacement already committed; keep it
      continue;
    }
    const MapOutput* out = env_.map_outputs.find(t.key(spec_.logical_id));
    if (out == nullptr || out->lost || !source_serving(out->node)) continue;
    drop_backup(t.backup, SlotKind::kMap);
    if (t.state == MapState::kPending) {
      auto it = std::find(pending_maps_.begin(), pending_maps_.end(), m);
      if (it != pending_maps_.end()) pending_maps_.erase(it);
    } else if (t.state != MapState::kFrozen) {  // frozen holds no slot
      cancel_attempt_work(t.run);
      put_slot(SlotKind::kMap, t.run.node);
    }
    t.state = t.executed ? MapState::kDone : MapState::kReused;
    t.run = Attempt{};
    t.run.node = out->node;
    t.spurious = false;
    RCMP_CHECK(maps_remaining_ > 0);
    --maps_remaining_;
    on_mapper_available(m);
  }
  // Contributions that rewound to waiting when n stopped serving (but
  // whose tasks were never reset) re-buffer now.
  on_source_reachable(n);
  schedule_tasks();
  on_map_phase_maybe_done();
}

void JobRun::on_source_unreachable(cluster::NodeId n) {
  if (state_ != RunState::kRunning) return;
  halt_fetches_from(n);
  // In-flight input reads sourced at n fail over to a serving replica
  // (or requeue with backoff if none serves right now).
  for (std::uint32_t m = 0; m < maps_.size(); ++m) {
    Attempt& a = maps_[m].run;
    if (maps_[m].state == MapState::kRunning &&
        a.phase == Phase::kReading && a.read_src == n) {
      if (a.flow != res::kInvalidFlow) {
        env_.net.cancel_flow(a.flow);
        a.flow = res::kInvalidFlow;
      }
      blame_node(n);
      start_map_read(m, a);
    }
  }
  // A partition is rare enough to just drop every map backup that is
  // reading, whatever its source (speculation re-arms on the next
  // check).
  for (MapTask& t : maps_) {
    if (t.backup != nullptr && t.backup->phase == Phase::kReading)
      drop_backup(t.backup, SlotKind::kMap);
  }
  if (exhausted_retry_budget_) {
    exhausted_retry_budget_ = false;
    abort_data_loss();
    return;
  }
  schedule_tasks();
}

void JobRun::on_source_reachable(cluster::NodeId n) {
  if (state_ != RunState::kRunning) return;
  // Persisted outputs on n serve again: re-buffer waiting contributions.
  for (std::uint32_t m = 0; m < maps_.size(); ++m) {
    const MapTask& t = maps_[m];
    if (t.state != MapState::kDone && t.state != MapState::kReused)
      continue;
    const MapOutput* out = env_.map_outputs.find(t.key(spec_.logical_id));
    if (out != nullptr && !out->lost && out->node == n) {
      on_mapper_available(m);
    }
  }
  if (maps_remaining_ == 0) flush_all_ready(/*force=*/true);
  schedule_tasks();
}

// ---------------------------------------------------------------------
// read-path integrity
// ---------------------------------------------------------------------

bool JobRun::map_input_corrupt(std::uint32_t m) const {
  const MapTask& t = maps_[m];
  if (env_.dfs.partition_corrupt(t.input_file, t.input_partition))
    return true;
  // Payload mode: recompute the block digest against the one recorded
  // when the partition was written (no-op for virtual-size inputs).
  return !env_.payloads.verify_block(t.input_file, t.input_partition,
                                     t.block_index);
}

void JobRun::handle_corrupt_input(std::uint32_t m) {
  const MapTask& t = maps_[m];
  ++result_.corrupt_blocks_detected;
  RCMP_WARN() << "t=" << env_.sim.now() << " job " << spec_.name
              << ": mapper " << m << " read corrupt data from "
              << env_.dfs.file_name(t.input_file) << " partition "
              << t.input_partition
              << " — dropping partition, aborting for recomputation";
  // The partition's surviving replicas are untrustworthy; drop them so
  // the middleware's replan regenerates the partition from upstream.
  // A corrupt-and-dropped partition keeps its layout: a NO-SPLIT
  // regeneration reproduces it bit-identically, so surviving downstream
  // map outputs stay valid under the Fig. 5 rule.
  env_.dfs.clear_partition(t.input_file, t.input_partition,
                           /*preserve_layout=*/true);
  env_.payloads.clear(t.input_file, t.input_partition);
  abort_data_loss();
}

void JobRun::handle_corrupt_map_output(std::uint32_t m) {
  if (state_ != RunState::kRunning) return;
  MapTask& t = maps_[m];
  ++result_.corrupt_map_outputs_detected;
  RCMP_WARN() << "t=" << env_.sim.now() << " job " << spec_.name
              << ": map output of mapper " << m << " (node " << t.run.node
              << ") failed shuffle checksum — re-executing mapper";
  // Quarantine the output (in-flight fetches of clean buckets still
  // read it; nothing new trusts it) and rewind every reducer that
  // buffered-but-not-fetched from it.
  env_.map_outputs.mark_lost(t.key(spec_.logical_id));
  scrub_ready_contribs(m);
  // Two reducers can detect the same corrupt output; only the first
  // detection resets the mapper (and blames the node whose disk served
  // the corrupt bytes — the reset clears t.node).
  if (t.state == MapState::kDone || t.state == MapState::kReused) {
    blame_node(t.run.node);
    reset_map_task(m);
  }
  if (exhausted_retry_budget_) {
    exhausted_retry_budget_ = false;
    abort_data_loss();
    return;
  }
  schedule_tasks();
}

void JobRun::scrub_ready_contribs(std::uint32_t m) {
  for (auto& rt : reduces_) {
    if (rt.state == ReduceState::kDone) continue;
    if (rt.contrib[m] != ContribState::kReady) continue;
    for (cluster::NodeId src = 0; src < env_.cluster.size(); ++src) {
      auto& list = rt.ready[src];
      auto it = std::find(list.begin(), list.end(), m);
      if (it == list.end()) continue;
      list.erase(it);
      rt.ready_bytes[src] =
          std::max(0.0, rt.ready_bytes[src] -
                            contrib_bytes(static_cast<std::uint32_t>(
                                              &rt - reduces_.data()),
                                          m));
      break;
    }
    rt.contrib[m] = ContribState::kWaiting;
  }
}

// ---------------------------------------------------------------------
// lifecycle
// ---------------------------------------------------------------------

void JobRun::cancel_task_work(ReduceTask& t) {
  if (t.ev != sim::kInvalidEvent) {
    env_.sim.cancel(t.ev);
    t.ev = sim::kInvalidEvent;
  }
  for (res::FlowId f : t.write_flows) env_.net.cancel_flow(f);
  t.write_flows.clear();
}

void JobRun::teardown_all_work() {
  if (bootstrap_ev_ != sim::kInvalidEvent) {
    env_.sim.cancel(bootstrap_ev_);
    bootstrap_ev_ = sim::kInvalidEvent;
  }
  if (speculation_ev_ != sim::kInvalidEvent) {
    env_.sim.cancel(speculation_ev_);
    speculation_ev_ = sim::kInvalidEvent;
  }
  if (retry_ev_ != sim::kInvalidEvent) {
    env_.sim.cancel(retry_ev_);
    retry_ev_ = sim::kInvalidEvent;
  }
  drop_backups();
  for (auto& t : maps_) cancel_attempt_work(t.run);
  for (std::uint32_t r = 0; r < reduces_.size(); ++r) {
    cancel_task_work(reduces_[r]);
  }
  for (auto& [token, ff] : active_fetches_) env_.net.cancel_flow(ff.flow);
  active_fetches_.clear();
}

void JobRun::discard_partial_results() {
  // Discard this attempt's partial results (paper §V-A: "RCMP currently
  // discards the partial results computed before the failure").
  for (const MapOutputKey& key : outputs_registered_) {
    env_.map_outputs.drop(key);
  }
  const bool preserve =
      !directive_.active || directive_.split_factor == 1;
  for (std::uint32_t p : partitions_committed_) {
    env_.dfs.clear_partition(spec_.output, p, preserve);
    env_.payloads.clear(spec_.output, p);
  }
}

void JobRun::cancel() {
  if (state_ != RunState::kRunning) return;
  state_ = RunState::kCancelled;
  result_.status = JobResult::Status::kCancelled;
  result_.end_time = env_.sim.now();
  if (env_.obs != nullptr) {
    env_.obs->tracer.emit(env_.sim.now(), obs::EventType::kJobCancel, 0,
                          obs::kNoField, spec_.logical_id, ordinal_, 0.0,
                          env_.chain_tag);
  }
  teardown_all_work();
  discard_partial_results();
  // Shared-cluster mode: torn-down tasks can no longer release their
  // slots one by one — hand everything still held back to the arbiter.
  if (env_.slots != nullptr) env_.slots->release_all();
  RCMP_INFO() << "t=" << env_.sim.now() << " job " << spec_.name
              << " (ordinal " << ordinal_ << ") cancelled";
}

void JobRun::abort_data_loss() {
  RCMP_CHECK(state_ == RunState::kRunning);
  teardown_all_work();
  discard_partial_results();
  finish(JobResult::Status::kAbortedDataLoss);
}

void JobRun::maybe_finish() {
  if (state_ != RunState::kRunning) return;
  if (reduces_remaining_ != 0) return;
  finish(JobResult::Status::kCompleted);
}

void JobRun::finish(JobResult::Status status) {
  state_ = RunState::kFinished;
  if (speculation_ev_ != sim::kInvalidEvent) {
    env_.sim.cancel(speculation_ev_);
    speculation_ev_ = sim::kInvalidEvent;
  }
  result_.status = status;
  result_.end_time = env_.sim.now();
  // An aborted run tore work down without per-task releases; a completed
  // run holds nothing, making this a no-op. Either way the arbiter gets
  // every remaining slot back and this chain's demand flags clear.
  if (env_.slots != nullptr) env_.slots->release_all();
  if (env_.obs != nullptr) {
    env_.obs->tracer.emit(env_.sim.now(), obs::EventType::kJobFinish,
                          static_cast<std::uint8_t>(status), obs::kNoField,
                          spec_.logical_id, ordinal_, result_.duration(),
                          env_.chain_tag);
  }
  result_.mappers_reused = 0;
  for (std::uint32_t m = 0; m < maps_.size(); ++m) {
    const MapTask& t = maps_[m];
    if (t.state == MapState::kReused) ++result_.mappers_reused;
    if (t.executed) {
      result_.map_timings.push_back(
          TaskTiming{true, m, t.run.node, t.start_time, t.end_time});
    }
  }
  for (std::uint32_t r = 0; r < reduces_.size(); ++r) {
    const ReduceTask& rt = reduces_[r];
    if (rt.state == ReduceState::kDone) {
      result_.reduce_timings.push_back(
          TaskTiming{false, r, rt.node, rt.start_time, rt.end_time});
    }
  }
  RCMP_INFO() << "t=" << env_.sim.now() << " job " << spec_.name
              << " (ordinal " << ordinal_ << ") finished in "
              << result_.duration() << "s";
  if (on_done_) on_done_(*this);
}

}  // namespace rcmp::mapred
