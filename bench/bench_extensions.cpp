// Extension benches in one binary: the multi-tenant scheduler, the
// failure detector, the memory tier, the result cache and coordinator
// recovery (one suite each, extension_suites.hpp), run in table order.
//
//   $ ./build/bench/bench_extensions
//   $ ./build/bench/bench_extensions --json_out=BENCH_extensions.json
//         --baseline=bench/BENCH_extensions.baseline.json   (one command)
//
// Every suite runs three times and exits 1 itself on a missed
// acceptance bar. The three passes must yield the same record names and
// the same counters bit for bit (the counters are simulated and
// seed-deterministic, so a difference is nondeterminism, and the run
// exits 1); each record keeps the median pass's wall time.
// --json_out=PATH writes the records one per line. --baseline=PATH
// exits 1 when a record runs >2x slower than its baseline wall time,
// any counter differs from its baseline value, or a row is on one side
// only.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "extension_suites.hpp"

namespace {

using rcmp::bench::BenchRecord;
using rcmp::bench::fail;

struct Suite {
  const char* name;
  const char* caption;
  std::vector<BenchRecord> (*run)();
};

constexpr Suite kSuites[] = {
    {"multichain",
     "Multi-tenant scheduler: 1->16 chain scaling on one shared cluster, "
     "plus blast-radius isolation on a mid-run node kill.",
     rcmp::bench::run_multichain},
    {"detector",
     "Heartbeat failure detector: time-to-detect across heartbeat/timeout "
     "settings on a mid-chain kill, control-plane overhead with no chaos, "
     "and the cost of one reconciled false suspicion.",
     rcmp::bench::run_detector},
    {"memtier",
     "Memory-tier intermediate storage on the iterative STIC chain: "
     "disk-only RCMP vs memory-resident outputs at 1x/10x/100x "
     "memory/disk cost ratios, plus a RAM-pressure scene that must spill "
     "and still complete.",
     rcmp::bench::run_memtier},
    {"cache",
     "Cluster-wide fingerprint-keyed result cache on four serialized "
     "STIC chains: cache-off vs cache-on makespans at 0%/50%/100% "
     "dataset overlap. 0% must be hit-free and overhead-neutral; 100% "
     "must cut shared-dataset makespan by at least 2x.",
     rcmp::bench::run_cache},
    {"recovery",
     "Coordinator crash recovery via write-ahead journal replay on the "
     "chaos testbed at chain depths 3/5/7: crash at the first vs last "
     "journal boundary, recovery time = simulated time from crash to "
     "chain completion. Outputs must stay byte-identical; late crashes "
     "must replay more and recover faster than early ones.",
     rcmp::bench::run_recovery},
};

constexpr std::size_t kPasses = 3;

/// Run `suite` kPasses times. Every pass must return the first pass's
/// records with identical counters; each record's wall time becomes the
/// median over the passes.
std::vector<BenchRecord> run_suite(const Suite& suite) {
  std::vector<std::vector<BenchRecord>> passes;
  for (std::size_t p = 0; p < kPasses; ++p) passes.push_back(suite.run());
  std::vector<BenchRecord> out = passes.front();
  for (std::size_t p = 1; p < kPasses; ++p) {
    if (passes[p].size() != out.size()) {
      fail("%s: pass %zu returned %zu records vs %zu in pass 1\n",
           suite.name, p + 1, passes[p].size(), out.size());
    }
  }
  for (std::size_t i = 0; i < out.size(); ++i) {
    std::vector<double> walls;
    for (std::size_t p = 0; p < kPasses; ++p) {
      const BenchRecord& r = passes[p][i];
      if (r.name != out[i].name || r.counters != out[i].counters) {
        fail("%s: pass %zu diverged from pass 1 at record %s — same-seed "
             "runs must be deterministic\n",
             suite.name, p + 1, out[i].name.c_str());
      }
      walls.push_back(r.real_time_ns);
    }
    std::sort(walls.begin(), walls.end());
    out[i].real_time_ns = walls[kPasses / 2];
  }
  return out;
}

void print_record(const BenchRecord& r) {
  std::printf("%-36s wall %8.1f ms", r.name.c_str(), r.real_time_ns / 1e6);
  for (const auto& [key, value] : r.counters) {
    std::printf("  %s %.6g", key.c_str(), value);
  }
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_out;
  std::string baseline;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json_out=", 11) == 0) {
      json_out = argv[i] + 11;
    } else if (std::strncmp(argv[i], "--baseline=", 11) == 0) {
      baseline = argv[i] + 11;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
      return 1;
    }
  }

  std::vector<BenchRecord> records;
  for (const Suite& suite : kSuites) {
    rcmp::bench::print_figure_header(std::string("BENCH ") + suite.name,
                                     suite.caption);
    for (BenchRecord& r : run_suite(suite)) {
      print_record(r);
      records.push_back(std::move(r));
    }
  }

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
    // Every counter is simulated and seed-deterministic: gate each one
    // the baseline holds exactly.
    std::vector<std::string> exact;
    for (const BenchRecord& b : base) {
      for (const auto& [key, value] : b.counters) {
        if (std::find(exact.begin(), exact.end(), key) == exact.end()) {
          exact.push_back(key);
        }
      }
    }
    if (rcmp::bench::count_regressions(records, base, 2.0, exact) > 0) {
      return 1;
    }
  }
  return 0;
}
