// Failure-detector bench: detection latency and false-suspicion
// overhead.
//
// Latency: the same payload chain, one mid-chain node kill, swept over
// heartbeat-interval / suspicion-timeout pairs. Reported per point:
// host wall time (the regression-gated cost of simulating the
// heartbeat machinery), the measured time-to-detect — which must stay
// within suspicion_timeout + one heartbeat interval, the detector's
// contract — and the chain slowdown versus a fault-free run.
//
// Overhead: (a) detector on, no chaos — the heartbeat control plane
// must not move simulated time at all versus the oracle model, and its
// host-time cost is what the wall-time gate watches; (b) a
// heartbeat-loss window long enough to falsely suspect a healthy node —
// the chain pays for spurious recomputation until reconciliation, and
// the bench reports that slowdown next to the suspicion counters.
#include <chrono>
#include <cstdio>
#include <utility>
#include <vector>

#include "extension_suites.hpp"
#include "cluster/chaos.hpp"
#include "workloads/scenario.hpp"

namespace {

using rcmp::bench::BenchRecord;
using rcmp::bench::fail;
using rcmp::bench::wall_ns_since;
using rcmp::cluster::FaultEvent;
using rcmp::cluster::FaultMode;
using rcmp::cluster::FaultSchedule;
using rcmp::core::Strategy;
using rcmp::workloads::Scenario;
using rcmp::workloads::ScenarioConfig;

ScenarioConfig base_config() {
  auto cfg = rcmp::workloads::payload_config(/*nodes=*/8,
                                             /*chain_length=*/5,
                                             /*records_per_node=*/256);
  cfg.cluster.racks = 2;
  cfg.input_replication = 4;
  return cfg;
}

FaultSchedule one_event(FaultMode mode, rcmp::SimTime downtime = 60.0) {
  FaultEvent ev;
  ev.mode = mode;
  ev.at_job_ordinal = 2;
  ev.delay = 15.0;
  ev.downtime = downtime;
  FaultSchedule plan;
  plan.events.push_back(ev);
  return plan;
}

/// Fault-free oracle total time for the base config (no detector).
double oracle_total() {
  Scenario s(base_config());
  const auto r =
      s.run(rcmp::bench::make_strategy(Strategy::kRcmpSplit));
  if (!r.completed) fail("oracle run failed to complete\n");
  return r.total_time;
}

BenchRecord latency_point(double hb, double timeout, double baseline_s) {
  auto cfg = base_config();
  cfg.detector.enabled = true;
  cfg.detector.heartbeat_interval = hb;
  cfg.detector.suspicion_timeout = timeout;

  const auto start = std::chrono::steady_clock::now();
  Scenario s(cfg);
  const auto r = s.run_chaos(
      rcmp::bench::make_strategy(Strategy::kRcmpSplit),
      one_event(FaultMode::kKill));
  const double wall = wall_ns_since(start);
  if (!r.completed) {
    fail("latency run hb=%g to=%g did not complete\n", hb, timeout);
  }
  const double ttd = s.detector()->last_time_to_detect();
  if (ttd < 0.0 || ttd > timeout + hb + 1e-9) {
    fail("detection latency contract violated: ttd=%g with timeout=%g "
         "interval=%g\n",
         ttd, timeout, hb);
  }

  BenchRecord rec;
  char name[64];
  std::snprintf(name, sizeof(name), "detector/latency/hb%g_to%g", hb,
                timeout);
  rec.name = name;
  rec.real_time_ns = wall;
  rec.counters.emplace_back("time_to_detect_s", ttd);
  rec.counters.emplace_back("total_s", r.total_time);
  rec.counters.emplace_back("slowdown", r.total_time / baseline_s);
  return rec;
}

BenchRecord overhead_point(double baseline_s) {
  auto cfg = base_config();
  cfg.detector.enabled = true;

  const auto start = std::chrono::steady_clock::now();
  Scenario s(cfg);
  const auto r =
      s.run(rcmp::bench::make_strategy(Strategy::kRcmpSplit));
  const double wall = wall_ns_since(start);
  if (!r.completed || r.total_time != baseline_s) {
    fail("detector-on fault-free run diverged from oracle: %.9f vs %.9f\n",
         r.total_time, baseline_s);
  }

  BenchRecord rec;
  rec.name = "detector/overhead/no_chaos";
  rec.real_time_ns = wall;
  rec.counters.emplace_back(
      "heartbeats",
      static_cast<double>(s.detector()->heartbeats_received()));
  rec.counters.emplace_back("total_s", r.total_time);
  return rec;
}

BenchRecord false_suspicion_point(double baseline_s) {
  auto cfg = base_config();
  cfg.detector.enabled = true;

  const auto start = std::chrono::steady_clock::now();
  Scenario s(cfg);
  const auto r = s.run_chaos(
      rcmp::bench::make_strategy(Strategy::kRcmpSplit),
      one_event(FaultMode::kHeartbeatLoss, /*downtime=*/60.0));
  const double wall = wall_ns_since(start);
  if (!r.completed) fail("false-suspicion run did not complete\n");
  const auto* d = s.detector();
  if (d->false_suspicions() == 0 || d->reconciliations() == 0) {
    fail("heartbeat-loss drill raised no reconciled false suspicion\n");
  }

  BenchRecord rec;
  rec.name = "detector/overhead/false_suspicion";
  rec.real_time_ns = wall;
  rec.counters.emplace_back("false_suspicions",
                            static_cast<double>(d->false_suspicions()));
  rec.counters.emplace_back("reconciliations",
                            static_cast<double>(d->reconciliations()));
  rec.counters.emplace_back("total_s", r.total_time);
  rec.counters.emplace_back("slowdown", r.total_time / baseline_s);
  return rec;
}

}  // namespace

std::vector<BenchRecord> rcmp::bench::run_detector() {
  const double baseline_s = oracle_total();
  std::vector<BenchRecord> records;
  for (const auto& [hb, timeout] :
       std::vector<std::pair<double, double>>{
           {1.0, 10.0}, {3.0, 30.0}, {5.0, 30.0}, {3.0, 60.0}}) {
    records.push_back(latency_point(hb, timeout, baseline_s));
  }
  records.push_back(overhead_point(baseline_s));
  records.push_back(false_suspicion_point(baseline_s));
  return records;
}
