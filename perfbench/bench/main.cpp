// Repository benchmark binary: one process, one thread, one workload.
//
//   rcmp_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  [--golden FILE] [--spans FILE]
//   rcmp_perfbench --write-golden FILE
//   rcmp_perfbench --self-check --workload NAME --seed N
//
// Ops (one scenario each: set up, simulate, verify) run back to back in
// a closed loop until --seconds have passed. Untraced runs print the
// end-to-end metrics; traced runs install the delegating timers and
// print the per-layer table. The last stdout line is one JSON object:
// {"correct":..,"attempted":..,"failed":..,"metrics":{..}}. README.md
// documents the workloads and every metric.
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/hash.hpp"
#include "common/log.hpp"
#include "common/rng.hpp"
#include "probes.hpp"
#include "scenes.hpp"

namespace perfbench {
namespace {

/// Op seeds of a workload: a fixed pool, so every op's deterministic
/// outputs have a golden entry. The benchmark seed picks the order.
constexpr std::uint64_t kPoolSize = 16;
/// Timed ops a run always completes, however short --seconds is.
constexpr std::size_t kMinTimedOps = 3;
/// Hard stop for the op loop, well inside the 180 s a run may take.
constexpr double kMaxLoopSeconds = 120.0;
/// Defect reproductions cycle through these seeds.
constexpr std::uint64_t kReproSeeds = 8;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string golden;
  std::string spans;
  std::string write_golden;
  bool self_check = false;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "error: %s\n"
               "usage: rcmp_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--golden FILE] [--spans FILE]\n"
               "       rcmp_perfbench --write-golden FILE\n"
               "       rcmp_perfbench --self-check --workload NAME --seed N\n",
               why);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
      return argv[++i];
    };
    if (flag == "--workload") {
      a.workload = value();
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value().c_str(), nullptr);
    } else if (flag == "--trace") {
      a.trace = value() == "1";
    } else if (flag == "--golden") {
      a.golden = value();
    } else if (flag == "--spans") {
      a.spans = value();
    } else if (flag == "--write-golden") {
      a.write_golden = value();
    } else if (flag == "--self-check") {
      a.self_check = true;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (a.write_golden.empty() && a.workload.empty()) {
    usage("--workload required");
  }
  if (a.seconds <= 0.0) usage("--seconds must be positive");
  return a;
}

double seconds_of(std::int64_t ns) { return static_cast<double>(ns) * 1e-9; }

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double peak_rss_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// --- golden deterministic outputs -------------------------------------

struct GoldenEntry {
  double makespan_s = 0.0;
  std::uint32_t replans = 0;
  std::uint64_t digest = 0;
  bool operator==(const GoldenEntry&) const = default;
};
using GoldenKey = std::pair<std::string, std::uint64_t>;
using Golden = std::map<GoldenKey, GoldenEntry>;

Golden load_golden(const std::string& path) {
  Golden g;
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) {
    std::fprintf(stderr, "error: cannot read golden file %s\n", path.c_str());
    std::exit(2);
  }
  char line[256];
  char name[64];
  std::uint64_t seed = 0;
  GoldenEntry e;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (line[0] == '#') continue;
    if (std::sscanf(line, "%63s %" SCNu64 " %lf %" SCNu32 " %" SCNx64, name,
                    &seed, &e.makespan_s, &e.replans, &e.digest) == 5) {
      g[{name, seed}] = e;
    }
  }
  std::fclose(f);
  return g;
}

GoldenEntry entry_of(const OpOutcome& o) {
  return GoldenEntry{o.makespan_s, o.replans, o.digest};
}

int write_golden(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
    return 2;
  }
  std::fprintf(f, "# workload op_seed sim_makespan_s replans payload_digest\n");
  int rc = 0;
  for (Workload w : kAllWorkloads) {
    for (std::uint64_t s = 1; s <= kPoolSize; ++s) {
      const OpOutcome o = run_op(w, s, OpOptions{});
      if (!o.ok) {
        std::fprintf(stderr, "FAILED %s seed %" PRIu64 ": %s\n",
                     workload_name(w), s, o.error.c_str());
        rc = 1;
        continue;
      }
      std::fprintf(f, "%s %" PRIu64 " %.17g %" PRIu32 " %016" PRIx64 "\n",
                   workload_name(w), s, o.makespan_s, o.replans, o.digest);
      std::fprintf(stderr,
                   "%s seed %" PRIu64 ": makespan %.1f s, %.2f s host\n",
                   workload_name(w), s, o.makespan_s,
                   seconds_of(o.setup_ns + o.run_ns));
    }
  }
  std::fclose(f);
  return rc;
}

// --- result output ----------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("%-34s %.9g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

/// Per-op means of the traced ops' counters and child spans.
struct LayerTotals {
  std::size_t ops = 0;
  std::int64_t run_ns = 0, udf_ns = 0, audit_ns = 0, verify_ns = 0;
  std::uint64_t udf_records = 0, audit_calls = 0;
  LayerCounts c;

  void add(const OpOutcome& o) {
    ++ops;
    run_ns += o.run_ns;
    udf_ns += o.probe.udf_ns;
    audit_ns += o.probe.audit_ns + o.probe.fetch_check_ns;
    verify_ns += o.verify_ns;
    udf_records += o.probe.udf_records;
    audit_calls += o.probe.audit_calls + o.probe.fetch_checks;
    const LayerCounts& x = o.counts;
    c.events += x.events;
    c.cancelled += x.cancelled;
    c.peak_pending = std::max(c.peak_pending, x.peak_pending);
    c.realloc_passes += x.realloc_passes;
    c.flows_reallocated += x.flows_reallocated;
    c.mappers_executed += x.mappers_executed;
    c.reducers_executed += x.reducers_executed;
    c.mappers_reused += x.mappers_reused;
    c.corrupt_detected += x.corrupt_detected;
    c.peak_storage_bytes = std::max(c.peak_storage_bytes, x.peak_storage_bytes);
    c.faults_injected += x.faults_injected;
    c.suspicions += x.suspicions;
    c.false_suspicions += x.false_suspicions;
    c.ram_spills += x.ram_spills;
    c.replans += x.replans;
    c.restarts += x.restarts;
    c.jobs_started += x.jobs_started;
    c.master_replays += x.master_replays;
    c.sched_grants += x.sched_grants;
    c.sched_denials += x.sched_denials;
    c.sched_pokes += x.sched_pokes;
    c.sched_evicted_bytes += x.sched_evicted_bytes;
    c.cache_hits += x.cache_hits;
    c.cache_misses += x.cache_misses;
  }
};

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

std::vector<Metric> layer_metrics(const LayerTotals& t, double overhead_ratio,
                                  std::uint64_t drift,
                                  std::uint64_t repro_attempted,
                                  std::uint64_t repro_failed) {
  const double n = static_cast<double>(std::max<std::size_t>(t.ops, 1));
  auto mean = [n](std::uint64_t v) { return static_cast<double>(v) / n; };
  // Child spans are rounded to whole nanoseconds per op first, so the
  // printed udf + audit + self adds up to run exactly.
  auto mean_ns = [&](std::int64_t v) {
    return static_cast<std::int64_t>(static_cast<double>(v) / n + 0.5);
  };
  const std::int64_t run = mean_ns(t.run_ns);
  const std::int64_t udf = mean_ns(t.udf_ns);
  const std::int64_t audit = mean_ns(t.audit_ns);
  const std::int64_t self = run - udf - audit;
  const auto& c = t.c;
  const double mb = 1024.0 * 1024.0;
  const double gb = mb * 1024.0;
  return {
      {"sim.run_s", seconds_of(run), "s"},
      {"sim.run_self_s", seconds_of(self), "s"},
      {"sim.events", mean(c.events), "count"},
      {"sim.cancelled", mean(c.cancelled), "count"},
      {"sim.peak_pending", static_cast<double>(c.peak_pending), "count"},
      {"sim.events_per_s", ratio(mean(c.events), seconds_of(run)), "1/s"},
      {"sim.drift", static_cast<double>(drift), "count"},
      {"resources.realloc_passes", mean(c.realloc_passes), "count"},
      {"resources.flows_reallocated", mean(c.flows_reallocated), "count"},
      {"resources.flows_per_pass",
       ratio(static_cast<double>(c.flows_reallocated),
             static_cast<double>(c.realloc_passes)),
       "ratio"},
      {"mapred.udf_s", seconds_of(udf), "s"},
      {"mapred.udf_records", mean(t.udf_records), "count"},
      {"mapred.udf_ns_per_record",
       ratio(static_cast<double>(t.udf_ns), static_cast<double>(t.udf_records)),
       "ns"},
      {"mapred.mappers_executed", mean(c.mappers_executed), "count"},
      {"mapred.reducers_executed", mean(c.reducers_executed), "count"},
      {"mapred.mappers_reused", mean(c.mappers_reused), "count"},
      {"mapred.reuse_ratio",
       ratio(static_cast<double>(c.mappers_reused),
             static_cast<double>(c.mappers_reused + c.mappers_executed)),
       "ratio"},
      {"mapred.corrupt_detected", mean(c.corrupt_detected), "count"},
      {"dfs.peak_storage_gb", static_cast<double>(c.peak_storage_bytes) / gb,
       "GB"},
      {"cluster.faults_injected", mean(c.faults_injected), "count"},
      {"cluster.detector.suspicions", mean(c.suspicions), "count"},
      {"cluster.detector.false_suspicions", mean(c.false_suspicions), "count"},
      {"cluster.ram_spills", mean(c.ram_spills), "count"},
      {"core.replans", mean(c.replans), "count"},
      {"core.restarts", mean(c.restarts), "count"},
      {"core.jobs_started", mean(c.jobs_started), "count"},
      {"core.master_replays", mean(c.master_replays), "count"},
      {"core.sched.grants", mean(c.sched_grants), "count"},
      {"core.sched.denials", mean(c.sched_denials), "count"},
      {"core.sched.pokes", mean(c.sched_pokes), "count"},
      {"core.sched.evicted_mb",
       static_cast<double>(c.sched_evicted_bytes) / mb / n, "MB"},
      {"core.cache.hits", mean(c.cache_hits), "count"},
      {"core.cache.misses", mean(c.cache_misses), "count"},
      {"core.cache.hit_ratio",
       ratio(static_cast<double>(c.cache_hits),
             static_cast<double>(c.cache_hits + c.cache_misses)),
       "ratio"},
      {"obs.audit_s", seconds_of(audit), "s"},
      {"obs.audit_calls", mean(t.audit_calls), "count"},
      {"obs.audit_share",
       ratio(static_cast<double>(audit), static_cast<double>(run)), "ratio"},
      {"verify.oracle_s", seconds_of(mean_ns(t.verify_ns)), "s"},
      {"trace.overhead_ratio", overhead_ratio, "ratio"},
      {"defect.repro_attempted", static_cast<double>(repro_attempted),
       "count"},
      {"defect.repro_failed", static_cast<double>(repro_failed), "count"},
  };
}

/// Op seed order for one run: a seed-shuffled walk over the pool.
std::vector<std::uint64_t> op_order(std::uint64_t seed) {
  std::vector<std::uint64_t> order;
  for (std::uint64_t s = 1; s <= kPoolSize; ++s) order.push_back(s);
  rcmp::Rng rng(rcmp::mix64(seed ^ 0x5EEDULL));
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.below(i)]);
  }
  return order;
}

int run_self_check(Workload w, std::uint64_t seed) {
  OpOptions opt;
  opt.self_check = true;
  const OpOutcome o = run_op(w, op_order(seed).front(), opt);
  if (!o.ok) {
    std::printf("self-check: op failed before the corruption: %s\n",
                o.error.c_str());
    return 1;
  }
  std::printf("self-check: corrupted output record %s\n",
              o.self_check_flagged ? "flagged by the verifier"
                                   : "NOT flagged by the verifier");
  return o.self_check_flagged ? 0 : 1;
}

bool is_payload(Workload w) {
  return w == Workload::kPayloadChaos || w == Workload::kMultiTenant;
}

int run_benchmark(const Args& args, Workload w) {
  const Golden golden =
      args.golden.empty() ? Golden{} : load_golden(args.golden);
  const std::vector<std::uint64_t> order = op_order(args.seed);
  SpanLog spans;

  std::uint64_t attempted = 0, failed = 0, drift = 0;
  bool correct = true;
  std::vector<double> op_s, setup_s, makespan_s, traced_op_s;
  LayerTotals layers;

  auto record = [&](const OpOutcome& o, std::uint64_t op_seed,
                    std::size_t index) {
    ++attempted;
    if (!o.ok) {
      ++failed;
      correct = false;
      std::printf("FAILED op %zu (%s seed %" PRIu64 "): %s\n", index,
                  workload_name(w), op_seed, o.error.c_str());
      return;
    }
    const auto it = golden.find({workload_name(w), op_seed});
    if (it == golden.end() || !(it->second == entry_of(o))) ++drift;
  };

  const std::int64_t start = now_ns();
  const std::int64_t deadline =
      start + static_cast<std::int64_t>(args.seconds * 1e9);
  const std::int64_t hard_stop =
      start + static_cast<std::int64_t>(kMaxLoopSeconds * 1e9);
  // Op 0 warms the allocator and caches: verified and counted, not timed.
  // It also carries the verifier's negative self-check on payload scenes.
  for (std::size_t i = 0;; ++i) {
    const std::uint64_t op_seed = order[i % order.size()];
    OpOptions opt;
    opt.op_id = static_cast<std::uint32_t>(i);
    opt.self_check = i == 0 && is_payload(w);
    const OpOutcome plain = run_op(w, op_seed, opt);
    record(plain, op_seed, i);
    std::fprintf(stderr,
                 "op %zu seed %" PRIu64
                 ": setup %.4f s run %.4f s verify %.4f s\n",
                 i, op_seed, seconds_of(plain.setup_ns),
                 seconds_of(plain.run_ns), seconds_of(plain.verify_ns));
    if (opt.self_check && plain.ok && !plain.self_check_flagged) {
      correct = false;
      std::printf("FAILED self-check: a corrupted output record was not "
                  "flagged\n");
    }
    if (i > 0 && plain.ok) {
      op_s.push_back(seconds_of(plain.setup_ns + plain.run_ns));
      setup_s.push_back(seconds_of(plain.setup_ns));
      makespan_s.push_back(plain.makespan_s);
    }
    if (args.trace && i > 0) {
      // Same op again with the probes installed: the paired untraced
      // time above gives the tracing overhead.
      opt.trace = true;
      opt.log = &spans;
      opt.self_check = false;
      const OpOutcome traced = run_op(w, op_seed, opt);
      record(traced, op_seed, i);
      if (traced.ok) {
        traced_op_s.push_back(seconds_of(traced.setup_ns + traced.run_ns));
        layers.add(traced);
      }
    }
    const std::int64_t now = now_ns();
    if (now >= hard_stop) break;
    if (now >= deadline && op_s.size() >= kMinTimedOps) break;
  }

  // Defect reproductions: verified, untimed, reported by name.
  std::uint64_t repro_attempted = 0, repro_failed = 0;
  if (w == Workload::kMultiTenant) {
    const std::uint64_t rseed = 1 + args.seed % kReproSeeds;
    for (Repro r : kAllRepros) {
      const OpOutcome o = run_repro(r, rseed);
      ++repro_attempted;
      if (!o.ok) ++repro_failed;
      std::printf("%s seed %" PRIu64 ": %s%s\n", repro_name(r), rseed,
                  o.ok ? "passed" : "FAILED: ", o.error.c_str());
    }
  }

  if (op_s.empty()) correct = false;
  if (args.trace) {
    if (!args.spans.empty() && !spans.write(args.spans)) {
      std::fprintf(stderr, "warning: cannot write spans to %s\n",
                   args.spans.c_str());
    }
    const double overhead = ratio(median(traced_op_s), median(op_s));
    print_result(correct, attempted, failed,
                 layer_metrics(layers, overhead, drift, repro_attempted,
                               repro_failed));
  } else {
    std::printf("sim.drift %" PRIu64 " count (ops differing from golden)\n",
                drift);
    print_result(correct, attempted, failed,
                 {{"op_s", median(op_s), "s"},
                  {"setup_s", median(setup_s), "s"},
                  {"peak_rss_mb", peak_rss_mb(), "MB"},
                  {"sim_makespan_s", median(makespan_s), "s"}});
  }
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  rcmp::Log::set_level(rcmp::LogLevel::kOff);
  const Args args = parse_args(argc, argv);
  if (!args.write_golden.empty()) return write_golden(args.write_golden);
  const auto w = parse_workload(args.workload);
  if (!w) usage(("unknown workload " + args.workload).c_str());
  if (args.self_check) {
    if (!is_payload(*w)) usage("--self-check needs a payload workload");
    return run_self_check(*w, args.seed);
  }
  return run_benchmark(args, *w);
}
