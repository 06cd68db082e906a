// Shared helpers for the figure-reproduction bench binaries.
//
// Each bench binary regenerates one figure of the paper's evaluation as
// a table with the same rows/series the figure plots. Absolute times are
// simulated seconds; the claims under reproduction are the *ratios*
// (slowdown factors, speed-ups) — see EXPERIMENTS.md.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "analysis/extrapolation.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "workloads/scenario.hpp"

namespace rcmp::bench {

/// Run a scenario `repeats` times with distinct seeds; returns the mean
/// total chain time. (The paper averages 5 runs on STIC, 3 on DCO.)
///
/// Repeats are independent simulations (each run owns its Simulation,
/// cluster, and RNG), so they are spread across a small thread pool.
/// Results land in a per-repeat slot and are reduced in repeat order,
/// so the mean is bit-identical to a serial run regardless of thread
/// scheduling.
inline double mean_total_time(const workloads::ScenarioConfig& base,
                              const core::StrategyConfig& strategy,
                              const cluster::FailurePlan& failures,
                              int repeats, std::uint64_t seed0 = 1000) {
  std::vector<double> totals(static_cast<std::size_t>(repeats), 0.0);
  std::atomic<int> next{0};
  auto worker = [&] {
    for (int i = next.fetch_add(1); i < repeats; i = next.fetch_add(1)) {
      workloads::ScenarioConfig cfg = base;
      cfg.seed = seed0 + static_cast<std::uint64_t>(i) * 7919;
      totals[static_cast<std::size_t>(i)] =
          workloads::run_scenario(cfg, strategy, failures).total_time;
    }
  };
  const unsigned hw = std::thread::hardware_concurrency();
  const unsigned pool = std::min<unsigned>(
      hw == 0 ? 1 : hw, static_cast<unsigned>(repeats > 0 ? repeats : 1));
  if (pool <= 1) {
    worker();
  } else {
    std::vector<std::thread> threads;
    threads.reserve(pool);
    for (unsigned p = 0; p < pool; ++p) threads.emplace_back(worker);
    for (auto& th : threads) th.join();
  }
  Samples t;
  for (double v : totals) t.add(v);
  return t.mean();
}

// --- machine-readable micro-bench output (BENCH_simcore.json) ----------

/// One measured benchmark: wall time per iteration plus user counters
/// (e.g. ns_per_item, reallocs). Written one record per line, so the
/// baseline check can parse it without a JSON library. Counters are
/// written with round-trip precision, so a simulated value read back
/// from a baseline compares exactly.
struct BenchRecord {
  std::string name;
  double real_time_ns = 0.0;
  std::vector<std::pair<std::string, double>> counters;
};

inline bool write_bench_json(const std::string& path,
                             const std::vector<BenchRecord>& records) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\n  \"benchmarks\": [\n");
  for (std::size_t i = 0; i < records.size(); ++i) {
    const BenchRecord& r = records[i];
    std::fprintf(f, "    {\"name\": \"%s\", \"real_time_ns\": %.3f",
                 r.name.c_str(), r.real_time_ns);
    for (const auto& [k, v] : r.counters) {
      std::fprintf(f, ", \"%s\": %.17g", k.c_str(), v);
    }
    std::fprintf(f, "}%s\n", i + 1 < records.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  return true;
}

/// Parse records back out of a file written by write_bench_json: the
/// name, real_time_ns, and every other numeric field as a counter.
/// Tolerates missing files (returns empty).
inline std::vector<BenchRecord> read_bench_json(const std::string& path) {
  std::vector<BenchRecord> out;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    const auto name_key = line.find("\"name\": \"");
    if (name_key == std::string::npos) continue;
    const auto name_begin = name_key + 9;
    const auto name_end = line.find('"', name_begin);
    if (name_end == std::string::npos) continue;
    BenchRecord rec;
    rec.name = line.substr(name_begin, name_end - name_begin);
    // Every later field is `"key": number`.
    for (auto key_begin = line.find('"', name_end + 1);
         key_begin != std::string::npos;
         key_begin = line.find('"', key_begin + 1)) {
      const auto key_end = line.find("\": ", key_begin + 1);
      if (key_end == std::string::npos) break;
      const std::string key =
          line.substr(key_begin + 1, key_end - key_begin - 1);
      const double value = std::strtod(line.c_str() + key_end + 3, nullptr);
      if (key == "real_time_ns") {
        rec.real_time_ns = value;
      } else {
        rec.counters.emplace_back(key, value);
      }
      key_begin = key_end + 2;
    }
    out.push_back(std::move(rec));
  }
  return out;
}

/// Count benchmarks slower than `factor` times their baseline entry,
/// every `exact` counter whose value differs from the baseline's
/// (deterministic counts such as reallocation passes: any change is a
/// behaviour change and needs a re-baseline), and every row present on
/// one side only (a renamed or dropped point must not go ungated).
/// Exact counters the baseline entry lacks are ignored. Prints one line
/// per offence so CI logs show it.
inline int count_regressions(const std::vector<BenchRecord>& current,
                             const std::vector<BenchRecord>& baseline,
                             double factor,
                             const std::vector<std::string>& exact = {}) {
  auto find = [](const BenchRecord& r,
                 const std::string& key) -> const double* {
    for (const auto& [k, v] : r.counters) {
      if (k == key) return &v;
    }
    return nullptr;
  };
  auto find_row = [](const std::vector<BenchRecord>& rows,
                     const std::string& name) -> const BenchRecord* {
    for (const BenchRecord& r : rows) {
      if (r.name == name) return &r;
    }
    return nullptr;
  };
  int regressions = 0;
  for (const BenchRecord& base : baseline) {
    if (find_row(current, base.name) == nullptr) {
      std::fprintf(stderr, "MISSING %s: baseline row not in this run\n",
                   base.name.c_str());
      ++regressions;
    }
  }
  for (const BenchRecord& r : current) {
    const BenchRecord* base = find_row(baseline, r.name);
    if (base == nullptr) {
      std::fprintf(stderr, "MISSING %s: no baseline row\n", r.name.c_str());
      ++regressions;
      continue;
    }
    if (base->real_time_ns > 0.0 &&
        r.real_time_ns > factor * base->real_time_ns) {
      std::fprintf(stderr,
                   "REGRESSION %s: %.0f ns/iter vs baseline %.0f "
                   "(>%.1fx)\n",
                   r.name.c_str(), r.real_time_ns, base->real_time_ns,
                   factor);
      ++regressions;
    }
    for (const std::string& key : exact) {
      const double* want = find(*base, key);
      if (want == nullptr) continue;
      const double* got = find(r, key);
      if (got == nullptr || *got != *want) {
        std::fprintf(stderr,
                     "MISMATCH %s %s: %.17g vs baseline %.17g (gated "
                     "for exact equality)\n",
                     r.name.c_str(), key.c_str(),
                     got == nullptr ? -1.0 : *got, *want);
        ++regressions;
      }
    }
  }
  return regressions;
}

/// Host wall-clock nanoseconds elapsed since `start`.
inline double wall_ns_since(std::chrono::steady_clock::time_point start) {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
}

/// Print a printf-style message to stderr and exit 1: how a bench
/// reports a missed acceptance bar or a run that did not complete.
[[noreturn, gnu::format(printf, 1, 2)]] inline void fail(const char* fmt,
                                                         ...) {
  std::va_list args;
  va_start(args, fmt);
  std::vfprintf(stderr, fmt, args);
  va_end(args);
  std::exit(1);
}

/// Collect all runs of one scenario execution (for profiles/speed-ups).
inline core::ChainResult one_run(const workloads::ScenarioConfig& base,
                                 const core::StrategyConfig& strategy,
                                 const cluster::FailurePlan& failures,
                                 std::uint64_t seed = 1000) {
  workloads::ScenarioConfig cfg = base;
  cfg.seed = seed;
  return workloads::run_scenario(cfg, strategy, failures);
}

inline core::StrategyConfig make_strategy(core::Strategy s,
                                          std::uint32_t replication = 1) {
  core::StrategyConfig cfg;
  cfg.strategy = s;
  cfg.replication = replication;
  return cfg;
}

inline cluster::FailurePlan fail_at(std::vector<std::uint32_t> ordinals) {
  cluster::FailurePlan plan;
  plan.at_job_ordinals = std::move(ordinals);
  return plan;
}

inline void print_figure_header(const std::string& figure,
                                const std::string& caption) {
  std::printf("\n=== %s ===\n%s\n\n", figure.c_str(), caption.c_str());
}

}  // namespace rcmp::bench
