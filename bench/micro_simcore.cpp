// Micro-benchmarks (google-benchmark) for the simulator substrate:
// event-queue throughput, flow reallocation cost, the per-record
// payload checks, and an end-to-end chain simulation — the knobs that
// bound how large a cluster the reproduction can sweep.
//
// Beyond the console table, the binary emits a machine-readable summary
// (--json_out=BENCH_simcore.json) and can gate on a checked-in baseline
// (--baseline=..., exit 1 when any benchmark's median runs >2x slower or
// a deterministic reallocs / flows_touched / fill_rounds counter differs
// from its baseline value); CI runs it as a smoke job on every push.
// Every benchmark runs kRepetitions times unless the command line says
// otherwise (--benchmark_repetitions=N): a record's real_time_ns is the
// median repetition, with the max-min range beside it as spread_ns, so
// one noisy repetition on a loaded host cannot fail the gate alone.
// See EXPERIMENTS.md.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "mapred/record.hpp"
#include "obs/trace.hpp"
#include "resources/flow_network.hpp"
#include "sim/simulation.hpp"
#include "workloads/scenario.hpp"

namespace {

using namespace rcmp;

void BM_EventQueue(benchmark::State& state) {
  const int batch = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulation sim;
    int fired = 0;
    for (int i = 0; i < batch; ++i) {
      sim.schedule_after(static_cast<double>(i % 97), [&fired] { ++fired; });
    }
    sim.run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_EventQueue)->Arg(1000)->Arg(100000);

// Cancel-heavy workload: the flow network retargets its completion
// timer on every reallocation, so half of all scheduled events being
// cancelled is representative. Physical cancellation must keep the
// queue free of dead entries.
void BM_EventQueueCancelHeavy(benchmark::State& state) {
  const int batch = static_cast<int>(state.range(0));
  std::vector<sim::EventId> ids;
  for (auto _ : state) {
    sim::Simulation sim;
    ids.clear();
    ids.reserve(static_cast<std::size_t>(batch));
    int fired = 0;
    for (int i = 0; i < batch; ++i) {
      ids.push_back(
          sim.schedule_after(static_cast<double>(i % 211), [&fired] {
            ++fired;
          }));
    }
    for (int i = 0; i < batch; i += 2) sim.cancel(ids[i]);
    sim.run();
    benchmark::DoNotOptimize(fired);
    state.counters["cancelled"] =
        static_cast<double>(sim.events_cancelled());
    state.counters["peak_pending"] =
        static_cast<double>(sim.peak_pending());
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_EventQueueCancelHeavy)->Arg(100000);

// N flows sharing a star topology: every flow start/finish triggers a
// max-min reallocation across all links.
void BM_FlowReallocation(benchmark::State& state) {
  const int nodes = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulation sim;
    res::FlowNetwork net(sim);
    std::vector<res::LinkId> up, down;
    for (int n = 0; n < nodes; ++n) {
      up.push_back(net.add_link({"u", 1e9, 0.0}));
      down.push_back(net.add_link({"d", 1e9, 0.0}));
    }
    const auto fabric = net.add_link({"f", 1e9 * nodes / 2.0, 0.0});
    int done = 0;
    for (int s = 0; s < nodes; ++s) {
      for (int d = 0; d < nodes; ++d) {
        if (s == d) continue;
        res::FlowSpec fs;
        fs.path = {up[s], fabric, down[d]};
        fs.bytes = 10'000'000;
        fs.on_complete = [&done] { ++done; };
        net.start_flow(std::move(fs));
      }
    }
    sim.run();
    benchmark::DoNotOptimize(done);
    state.counters["reallocs"] =
        static_cast<double>(net.reallocations());
  }
}
BENCHMARK(BM_FlowReallocation)->Arg(10)->Arg(30);

// R disjoint rack-local stars with in-rack flows only: the link-sharing
// graph has R connected components, so each start/finish must
// reallocate one rack and leave the other R-1 untouched. The
// flows_touched counter makes the incrementality visible (compare
// against reallocs * total flows for a full-recompute implementation).
void BM_FlowReallocationMultiComponent(benchmark::State& state) {
  const int racks = static_cast<int>(state.range(0));
  constexpr int kNodesPerRack = 8;
  for (auto _ : state) {
    sim::Simulation sim;
    res::FlowNetwork net(sim);
    int done = 0;
    for (int r = 0; r < racks; ++r) {
      std::vector<res::LinkId> up, down;
      for (int n = 0; n < kNodesPerRack; ++n) {
        up.push_back(net.add_link({"u", 1e9, 0.0}));
        down.push_back(net.add_link({"d", 1e9, 0.0}));
      }
      const auto tor = net.add_link({"t", 1e9 * kNodesPerRack / 2.0, 0.0});
      for (int s = 0; s < kNodesPerRack; ++s) {
        for (int d = 0; d < kNodesPerRack; ++d) {
          if (s == d) continue;
          res::FlowSpec fs;
          fs.path = {up[s], tor, down[d]};
          fs.bytes = 10'000'000;
          fs.on_complete = [&done] { ++done; };
          net.start_flow(std::move(fs));
        }
      }
    }
    sim.run();
    benchmark::DoNotOptimize(done);
    state.counters["reallocs"] = static_cast<double>(net.reallocations());
    state.counters["flows_touched"] =
        static_cast<double>(net.flows_reallocated());
  }
}
BENCHMARK(BM_FlowReallocationMultiComponent)->Arg(8);

// REPL-3-style write pipelines beside shuffle reads over seek-contended
// disks: every node writes blocks to its own disk and to two remote
// replicas (disk writes at a 1.4 work penalty) while reducers pull from
// a neighbour's disk. Disks carrying different stream counts saturate
// at different shares, so a pass needs many fill rounds; the flow
// benches above all end after one. fill_rounds / reallocs is the mean
// rounds per pass.
void BM_FlowReallocationMultiBottleneck(benchmark::State& state) {
  const int nodes = static_cast<int>(state.range(0));
  constexpr int kBlocksPerNode = 2;
  constexpr double kWritePenalty = 1.4;
  for (auto _ : state) {
    sim::Simulation sim;
    res::FlowNetwork net(sim);
    std::vector<res::LinkId> disk, up, down;
    for (int n = 0; n < nodes; ++n) {
      disk.push_back(net.add_link({"disk", 130e6, 0.7, 3.0}));
      up.push_back(net.add_link({"up", 1.25e9}));
      down.push_back(net.add_link({"down", 1.25e9}));
    }
    const auto fabric = net.add_link({"fabric", 1.25e9 * nodes / 4.0});
    int done = 0;
    auto start = [&](std::vector<res::LinkId> path,
                     std::vector<double> weights, int size_class) {
      res::FlowSpec fs;
      fs.path = std::move(path);
      fs.weights = std::move(weights);
      fs.bytes = 64'000'000ull * static_cast<std::uint64_t>(1 + size_class);
      fs.on_complete = [&done] { ++done; };
      net.start_flow(std::move(fs));
    };
    auto remote = [&](int src, int dst, bool read_src) {
      std::vector<res::LinkId> path;
      std::vector<double> weights;
      if (read_src) {
        path.push_back(disk[src]);
        weights.push_back(1.0);
      }
      for (const res::LinkId l : {up[src], fabric, down[dst]}) {
        path.push_back(l);
        weights.push_back(1.0);
      }
      path.push_back(disk[dst]);
      weights.push_back(kWritePenalty);
      return std::make_pair(std::move(path), std::move(weights));
    };
    for (int s = 0; s < nodes; ++s) {
      for (int b = 0; b < kBlocksPerNode; ++b) {
        const int size_class = (s * 7 + b * 3) % 5;
        start({disk[s]}, {kWritePenalty}, size_class);  // local replica
        for (const int hop : {1 + b, nodes / 2 + b}) {
          auto [path, weights] = remote(s, (s + hop) % nodes, false);
          start(std::move(path), std::move(weights), size_class);
        }
      }
      auto [path, weights] = remote((s + 3) % nodes, s, true);  // shuffle
      start(std::move(path), std::move(weights), s % 3);
    }
    sim.run();
    benchmark::DoNotOptimize(done);
    state.counters["reallocs"] = static_cast<double>(net.reallocations());
    state.counters["flows_touched"] =
        static_cast<double>(net.flows_reallocated());
    state.counters["fill_rounds"] = static_cast<double>(net.fill_rounds());
  }
}
BENCHMARK(BM_FlowReallocationMultiBottleneck)->Arg(16);

// The tracer's emit() is inlined into every hot emission site in the
// engine and middleware; when tracing is off it must cost one branch.
// Arg(0) = disabled, Arg(1) = enabled with a warm ring (steady-state
// overwrite path, no allocation).
void BM_TracerEmit(benchmark::State& state) {
  obs::Tracer tracer;
  if (state.range(0) != 0) tracer.enable(1 << 12);
  constexpr int kBatch = 1024;
  double t = 0.0;
  for (auto _ : state) {
    for (int i = 0; i < kBatch; ++i) {
      t += 0.25;
      tracer.emit(t, obs::EventType::kTaskFinish, obs::kKindMap,
                  static_cast<std::uint32_t>(i & 7), 3,
                  static_cast<std::uint32_t>(i), 0.25);
    }
    benchmark::DoNotOptimize(tracer.size());
  }
  state.counters["dropped"] = static_cast<double>(tracer.dropped());
  state.SetItemsProcessed(state.iterations() * kBatch);
}
BENCHMARK(BM_TracerEmit)->Arg(0)->Arg(1);

// The paper's two per-record checks (MD5 and byte sum), which every
// chain mapper and reducer and every Checksum::add runs once per
// record: the host cost of a payload UDF.
std::vector<mapred::Record> seeded_records(std::size_t n) {
  std::vector<mapred::Record> records(n);
  Rng rng(4096);
  for (mapred::Record& r : records) {
    r.key = rng();
    r.value = rng();
  }
  return records;
}

void BM_RecordChecks(benchmark::State& state) {
  const auto batch = static_cast<std::size_t>(state.range(0));
  const std::vector<mapred::Record> records = seeded_records(batch);
  for (auto _ : state) {
    std::uint64_t md5_acc = 0;
    std::uint64_t sum_acc = 0;
    for (const mapred::Record& r : records) {
      const mapred::RecordChecks c = mapred::record_checks(r);
      md5_acc += c.md5;
      sum_acc += c.sum;
    }
    benchmark::DoNotOptimize(md5_acc);
    benchmark::DoNotOptimize(sum_acc);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(batch));
}
BENCHMARK(BM_RecordChecks)->Arg(4096);

// The same records through the multi-record kernel, 8 per call.
void BM_RecordChecksBatch(benchmark::State& state) {
  const auto batch = static_cast<std::size_t>(state.range(0));
  const std::vector<mapred::Record> records = seeded_records(batch);
  for (auto _ : state) {
    std::uint64_t md5_acc = 0;
    std::uint64_t sum_acc = 0;
    mapred::for_each_record_checks(
        records.size(), [&](std::size_t i) { return records[i].value; },
        [&](std::size_t, const mapred::RecordChecks& c) {
          md5_acc += c.md5;
          sum_acc += c.sum;
        });
    benchmark::DoNotOptimize(md5_acc);
    benchmark::DoNotOptimize(sum_acc);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(batch));
}
BENCHMARK(BM_RecordChecksBatch)->Arg(4096);

void BM_SticChain(benchmark::State& state) {
  for (auto _ : state) {
    auto cfg = workloads::stic_config(1, 1);
    core::StrategyConfig s;
    s.strategy = core::Strategy::kRcmpSplit;
    auto r = workloads::run_scenario(cfg, s, {});
    benchmark::DoNotOptimize(r.total_time);
  }
}
BENCHMARK(BM_SticChain)->Unit(benchmark::kMillisecond);

constexpr int kRepetitions = 5;

// Console output as usual, plus a capture of every repetition so main()
// can emit the JSON summary and apply the baseline gate.
class CaptureReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& reports) override {
    for (const Run& run : reports) {
      if (run.run_type != Run::RT_Iteration || run.error_occurred) {
        continue;
      }
      rcmp::bench::BenchRecord rec;
      rec.name = run.benchmark_name();
      const double iters =
          run.iterations > 0 ? static_cast<double>(run.iterations) : 1.0;
      rec.real_time_ns = run.real_accumulated_time / iters * 1e9;
      // Counters reach reporters already finalized (rates divided by
      // time, averages by iterations) — record them as presented.
      for (const auto& [name, counter] : run.counters) {
        rec.counters.emplace_back(name, counter.value);
      }
      auto group = std::find_if(
          reps_.begin(), reps_.end(),
          [&](const auto& g) { return g.front().name == rec.name; });
      if (group == reps_.end()) {
        reps_.emplace_back();
        group = reps_.end() - 1;
      }
      group->push_back(std::move(rec));
    }
    ConsoleReporter::ReportRuns(reports);
  }

  /// One record per benchmark: the median repetition (the lower middle
  /// one for an even count) with its counters, plus the spread.
  std::vector<rcmp::bench::BenchRecord> records() const {
    std::vector<rcmp::bench::BenchRecord> out;
    for (auto group : reps_) {
      std::sort(group.begin(), group.end(),
                [](const auto& a, const auto& b) {
                  return a.real_time_ns < b.real_time_ns;
                });
      rcmp::bench::BenchRecord rec = group[(group.size() - 1) / 2];
      if (rec.real_time_ns > 0.0) {
        rec.counters.emplace_back("ns_per_op", rec.real_time_ns);
      }
      rec.counters.emplace_back("spread_ns", group.back().real_time_ns -
                                                 group.front().real_time_ns);
      rec.counters.emplace_back("repetitions",
                                static_cast<double>(group.size()));
      out.push_back(std::move(rec));
    }
    return out;
  }

 private:
  // Repetitions per benchmark, in first-run order.
  std::vector<std::vector<rcmp::bench::BenchRecord>> reps_;
};

}  // namespace

int main(int argc, char** argv) {
  std::string json_out;
  std::string baseline;
  // The default comes right after argv[0], so a repetitions flag on the
  // command line (parsed later) overrides it.
  std::string default_reps = "--benchmark_repetitions=";
  default_reps += std::to_string(kRepetitions);
  std::vector<char*> passthrough = {argv[0], default_reps.data()};
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json_out=", 11) == 0) {
      json_out = argv[i] + 11;
    } else if (std::strncmp(argv[i], "--baseline=", 11) == 0) {
      baseline = argv[i] + 11;
    } else {
      passthrough.push_back(argv[i]);
    }
  }
  int pass_argc = static_cast<int>(passthrough.size());
  benchmark::Initialize(&pass_argc, passthrough.data());
  if (benchmark::ReportUnrecognizedArguments(pass_argc,
                                             passthrough.data())) {
    return 1;
  }
  CaptureReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();

  const std::vector<rcmp::bench::BenchRecord> records = reporter.records();
  if (!json_out.empty() &&
      !rcmp::bench::write_bench_json(json_out, records)) {
    std::fprintf(stderr, "failed to write %s\n", json_out.c_str());
    return 1;
  }
  if (!baseline.empty()) {
    const auto base = rcmp::bench::read_bench_json(baseline);
    if (base.empty()) {
      std::fprintf(stderr, "baseline %s missing or empty\n",
                   baseline.c_str());
      return 1;
    }
    // Pass and flow-visit counts are deterministic: gate them exactly.
    if (rcmp::bench::count_regressions(
            records, base, 2.0,
            {"reallocs", "flows_touched", "fill_rounds"}) > 0) {
      return 1;
    }
  }
  return 0;
}
