// The bench baseline gate (bench/bench_util.hpp, count_regressions) that
// every checked-in bench baseline is enforced through: each case counts
// the offences of one edited run against an unedited baseline.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bench/bench_util.hpp"

namespace {

using rcmp::bench::BenchRecord;
using rcmp::bench::count_regressions;

const std::vector<std::string> kExact = {"makespan_s", "grants"};

std::vector<BenchRecord> baseline() {
  return {{"suite/a", 1000.0, {{"makespan_s", 48.07}, {"grants", 128.0}}},
          {"suite/b", 2000.0, {{"makespan_s", 80.2}}}};
}

TEST(BenchGate, IdenticalRecordsPass) {
  EXPECT_EQ(count_regressions(baseline(), baseline(), 2.0, kExact), 0);
}

TEST(BenchGate, RowTheBaselineLacksFails) {
  auto run = baseline();
  run.push_back({"suite/c", 10.0, {{"makespan_s", 1.0}}});
  EXPECT_EQ(count_regressions(run, baseline(), 2.0, kExact), 1);
}

TEST(BenchGate, RowTheRunLacksFails) {
  auto run = baseline();
  run.pop_back();
  EXPECT_EQ(count_regressions(run, baseline(), 2.0, kExact), 1);
}

TEST(BenchGate, ChangedExactCounterFails) {
  auto run = baseline();
  run[0].counters[1].second = 129.0;
  EXPECT_EQ(count_regressions(run, baseline(), 2.0, kExact), 1);
}

TEST(BenchGate, WallTimeOverFactorFails) {
  auto run = baseline();
  run[1].real_time_ns = 4000.0;  // exactly 2x: still inside the bound
  EXPECT_EQ(count_regressions(run, baseline(), 2.0, kExact), 0);
  run[1].real_time_ns = 4001.0;
  EXPECT_EQ(count_regressions(run, baseline(), 2.0, kExact), 1);
}

}  // namespace
