// The extension bench suites, one per bench_<suite>.cpp file, run and
// gated by bench_extensions.cpp. Each call runs one pass of its scenes,
// exits 1 through bench::fail when a run misses its suite's acceptance
// bars, and returns one record per point: the point's host wall time
// plus its simulated, seed-deterministic counters.
#pragma once

#include <vector>

#include "bench_util.hpp"

namespace rcmp::bench {

std::vector<BenchRecord> run_multichain();
std::vector<BenchRecord> run_detector();
std::vector<BenchRecord> run_memtier();
std::vector<BenchRecord> run_cache();
std::vector<BenchRecord> run_recovery();

}  // namespace rcmp::bench
