// Property and determinism tests for the incremental max-min
// reallocator.
//
// The flow network recomputes rates one link-sharing component at a
// time and batches same-instant mutations; these tests pin the two
// contracts that make that safe: (1) the resulting allocation is
// exactly the one a full whole-network progressive filling produces,
// and (2) end-to-end scenario results stay bit-identical run to run
// and to pinned captures.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <ios>
#include <limits>
#include <string>
#include <vector>

#include "cluster/chaos.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "resources/flow_network.hpp"
#include "workloads/presets.hpp"
#include "workloads/scenario.hpp"

namespace rcmp::res {
namespace {

using namespace rcmp::literals;

struct RefFlow {
  std::vector<LinkId> path;
  std::vector<double> weights;
};

/// A reference link: base capacity plus the disk seek-contention model.
struct RefLink {
  double capacity = 0.0;
  double alpha = 0.0;
  double threshold = 1.0;
};

/// eff(k) = capacity / (1 + alpha * ln(max(1, k / k0))), k the weighted
/// stream count of the active flows — recomputed from scratch.
std::vector<double> effective_capacities(const std::vector<RefLink>& links,
                                         const std::vector<RefFlow>& flows) {
  std::vector<double> streams(links.size(), 0.0);
  for (const RefFlow& f : flows) {
    for (std::size_t i = 0; i < f.path.size(); ++i) {
      streams[f.path[i]] += f.weights[i];
    }
  }
  std::vector<double> eff(links.size());
  for (std::size_t l = 0; l < links.size(); ++l) {
    const double excess = streams[l] / std::max(1.0, links[l].threshold);
    eff[l] = links[l].alpha == 0.0 || streams[l] <= 1.0 || excess <= 1.0
                 ? links[l].capacity
                 : links[l].capacity /
                       (1.0 + links[l].alpha * std::log(excess));
  }
  return eff;
}

/// Reference allocation: whole-network progressive filling, links
/// scanned in ascending id order — the textbook algorithm the
/// incremental component passes must reproduce.
std::vector<double> full_max_min(const std::vector<double>& capacity,
                                 const std::vector<RefFlow>& flows) {
  const std::size_t links = capacity.size();
  std::vector<double> rem = capacity;
  std::vector<double> unfrozen(links, 0.0);
  for (const RefFlow& f : flows) {
    for (std::size_t i = 0; i < f.path.size(); ++i) {
      unfrozen[f.path[i]] += f.weights[i];
    }
  }
  std::vector<double> rate(flows.size(), -1.0);
  for (;;) {
    double best_share = std::numeric_limits<double>::infinity();
    std::size_t best_link = links;
    for (std::size_t l = 0; l < links; ++l) {
      if (unfrozen[l] <= 1e-9) continue;
      const double share = std::max(0.0, rem[l]) / unfrozen[l];
      if (share < best_share) {
        best_share = share;
        best_link = l;
      }
    }
    if (best_link == links) break;
    for (std::size_t fi = 0; fi < flows.size(); ++fi) {
      if (rate[fi] >= 0.0) continue;
      const RefFlow& f = flows[fi];
      bool crosses = false;
      for (LinkId l : f.path) crosses = crosses || l == best_link;
      if (!crosses) continue;
      rate[fi] = best_share;
      for (std::size_t i = 0; i < f.path.size(); ++i) {
        rem[f.path[i]] -= best_share * f.weights[i];
        unfrozen[f.path[i]] -= f.weights[i];
      }
    }
    unfrozen[best_link] = 0.0;
  }
  return rate;
}

/// Compare every active flow's committed rate with the full recompute.
void expect_matches_reference(FlowNetwork& net,
                              const std::vector<RefLink>& links,
                              const std::vector<FlowId>& ids,
                              const std::vector<RefFlow>& specs,
                              const std::string& where) {
  std::vector<RefFlow> active;
  std::vector<FlowId> active_ids;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (!net.flow_active(ids[i])) continue;
    active.push_back(specs[i]);
    active_ids.push_back(ids[i]);
  }
  ASSERT_FALSE(active.empty()) << where;
  const std::vector<double> expect =
      full_max_min(effective_capacities(links, active), active);
  for (std::size_t i = 0; i < active.size(); ++i) {
    EXPECT_NEAR(net.flow_rate(active_ids[i]), expect[i], 1e-9)
        << where << " flow " << i;
  }
  EXPECT_TRUE(net.audit().empty()) << where;
}

// Randomized rack topologies (per-node disks with seek contention, node
// up/down links, per-rack ToR, shared fabric) with a mix of in-rack,
// cross-rack and node-local flows, some cancelled mid-flight: the
// incremental rates must match the full recompute on every active flow.
// Flows read their source disk and write their destination disk at a
// write penalty, so a node-local flow crosses its disk twice.
TEST(IncrementalRates, MatchesFullRecomputeOnRandomTopologies) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed);
    sim::Simulation sim;
    FlowNetwork net(sim);

    const std::uint32_t racks = 1 + rng.below(3);
    const std::uint32_t nodes = 2 + rng.below(4);
    std::vector<RefLink> links;
    auto add = [&](RefLink link) {
      links.push_back(link);
      return net.add_link(
          {"l", link.capacity, link.alpha, link.threshold});
    };
    const LinkId fabric = add({100.0 + rng.below(200)});
    std::vector<LinkId> tor, up, down, disk;
    for (std::uint32_t r = 0; r < racks; ++r) {
      tor.push_back(add({80.0 + rng.below(120)}));
    }
    for (std::uint32_t i = 0; i < racks * nodes; ++i) {
      up.push_back(add({50.0 + rng.below(100)}));
      down.push_back(add({50.0 + rng.below(100)}));
      disk.push_back(add({60.0 + rng.below(120), 0.2 + 0.1 * rng.below(6),
                          1.0 + rng.below(3)}));
    }

    const std::uint32_t flow_count = 10 + rng.below(40);
    std::vector<FlowId> ids;
    std::vector<RefFlow> specs;
    for (std::uint32_t i = 0; i < flow_count; ++i) {
      const std::uint32_t src = rng.below(racks * nodes);
      const std::uint32_t dst = rng.below(racks * nodes);
      const double write_weight = rng.below(2) == 0 ? 1.0 : 1.3;
      RefFlow rf;
      auto hop = [&rf](LinkId l, double w) {
        rf.path.push_back(l);
        rf.weights.push_back(w);
      };
      hop(disk[src], 1.0);
      if (src != dst) {
        hop(up[src], 1.0);
        hop(tor[src / nodes], 1.0);
        if (src / nodes != dst / nodes) {
          hop(fabric, 1.0);
          hop(tor[dst / nodes], 1.0);
        }
        hop(down[dst], rng.below(4) == 0 ? 1.4 : 1.0);
      }
      hop(disk[dst], write_weight);  // the source disk again if local
      FlowSpec fs;
      fs.path = rf.path;
      fs.weights = rf.weights;
      fs.bytes = 100000 + rng.below(900000);
      ids.push_back(net.start_flow(std::move(fs)));
      specs.push_back(std::move(rf));
    }
    // Cancel a random subset mid-flight (well before any completion:
    // >= 1e5 bytes over <= ~350 B/s shares).
    for (std::uint32_t i = 0; i < flow_count; ++i) {
      if (rng.below(3) == 0) {
        sim.schedule_at(0.5, [&net, f = ids[i]] { net.cancel_flow(f); });
      }
    }
    bool probed = false;
    sim.schedule_at(0.75, [&] {
      probed = true;
      expect_matches_reference(net, links, ids, specs,
                               "seed " + std::to_string(seed));
    });
    sim.run_until(0.75);
    ASSERT_TRUE(probed) << "seed " << seed;
  }
}

// Three bottlenecks at three distinct shares in one component: one
// pass, three fill rounds, each round freezing exactly its own flow.
TEST(IncrementalRates, MultiBottleneckFillTakesOneRoundPerShare) {
  sim::Simulation sim;
  FlowNetwork net(sim);
  const LinkId narrow = net.add_link({"narrow", 10.0});
  const LinkId middle = net.add_link({"middle", 20.0});
  const LinkId wide = net.add_link({"wide", 40.0});
  const LinkId shared = net.add_link({"shared", 1000.0});
  std::vector<FlowId> ids;
  for (const LinkId own : {wide, narrow, middle}) {
    FlowSpec fs;
    fs.path = {own, shared};
    fs.bytes = 1000000;
    ids.push_back(net.start_flow(std::move(fs)));
  }
  EXPECT_DOUBLE_EQ(net.flow_rate(ids[0]), 40.0);
  EXPECT_DOUBLE_EQ(net.flow_rate(ids[1]), 10.0);
  EXPECT_DOUBLE_EQ(net.flow_rate(ids[2]), 20.0);
  EXPECT_EQ(net.reallocations(), 1u);  // three same-instant starts
  EXPECT_EQ(net.flows_reallocated(), 3u);
  EXPECT_EQ(net.fill_rounds(), 3u);
  EXPECT_TRUE(net.audit().empty());
}

// Two disjoint components each lose a flow at the same instant, so one
// reallocate() call runs two passes under one BFS epoch. Their links
// interleave in id order and the first component's links hold the
// smaller shares: a pass that collected its links by epoch would also
// pick up the first component's links and freeze the wrong bottleneck.
TEST(IncrementalRates, SameInstantCompletionsInDisjointComponents) {
  sim::Simulation sim;
  FlowNetwork net(sim);
  std::vector<RefLink> links;
  auto add = [&](double cap) {
    links.push_back({cap});
    return net.add_link({"l", cap});
  };
  const LinkId x_wide = add(100.0);  // id 0
  const LinkId y_wide = add(90.0);   // id 1
  const LinkId x_narrow = add(10.0);  // id 2
  const LinkId y_narrow = add(20.0);  // id 3
  std::vector<FlowId> ids;
  std::vector<RefFlow> specs;
  std::vector<SimTime> done_at;
  auto start = [&](std::vector<LinkId> path, Bytes bytes) {
    RefFlow rf;
    rf.path = path;
    rf.weights.assign(path.size(), 1.0);
    FlowSpec fs;
    fs.path = std::move(path);
    fs.bytes = bytes;
    fs.on_complete = [&sim, &done_at] { done_at.push_back(sim.now()); };
    ids.push_back(net.start_flow(std::move(fs)));
    specs.push_back(std::move(rf));
  };
  // X: x_narrow pins two flows at 5 B/s; the short flow gets the
  // remaining 95 B/s of x_wide and drains 190 bytes at t = 2.
  start({x_wide}, 190);
  start({x_wide, x_narrow}, 1000000);
  start({x_narrow}, 1000000);
  // Y: y_narrow pins two flows at 10 B/s; the short flow gets 80 B/s
  // of y_wide and drains 160 bytes at t = 2 as well.
  start({y_wide}, 160);
  start({y_wide, y_narrow}, 1000000);
  start({y_narrow}, 1000000);
  EXPECT_EQ(net.flow_rate(ids[0]), 95.0);
  EXPECT_EQ(net.flow_rate(ids[3]), 80.0);

  const std::uint64_t passes_before = net.reallocations();
  bool probed = false;
  sim.schedule_at(2.5, [&] {
    probed = true;
    // Both short flows completed in one batch: one pass per component.
    EXPECT_EQ(done_at, (std::vector<SimTime>{2.0, 2.0}));
    EXPECT_EQ(net.reallocations() - passes_before, 2u);
    expect_matches_reference(net, links, ids, specs, "after t=2");
    EXPECT_DOUBLE_EQ(net.flow_rate(ids[1]), 5.0);
    EXPECT_DOUBLE_EQ(net.flow_rate(ids[4]), 10.0);
  });
  sim.run_until(2.5);
  ASSERT_TRUE(probed);
}

// Identical (seed, config) pairs must reproduce end-to-end results
// bit-for-bit — the event queue's (time, insertion-sequence) contract
// and the component-restricted reallocation guarantee it.
TEST(IncrementalRates, ScenarioResultsAreBitIdentical) {
  for (const core::Strategy strategy :
       {core::Strategy::kRcmpSplit, core::Strategy::kRcmpNoSplit,
        core::Strategy::kRcmpScatter}) {
    core::StrategyConfig s;
    s.strategy = strategy;
    auto cfg = workloads::stic_config(1, 1);
    const auto a = workloads::run_scenario(cfg, s, {});
    const auto b = workloads::run_scenario(cfg, s, {});
    EXPECT_EQ(a.completed, b.completed);
    // Bit-identical, not merely close:
    EXPECT_EQ(std::memcmp(&a.total_time, &b.total_time, sizeof(double)),
              0);
    EXPECT_EQ(a.jobs_started, b.jobs_started);
    EXPECT_EQ(a.replans, b.replans);
    EXPECT_EQ(a.restarts, b.restarts);
    EXPECT_EQ(a.peak_storage, b.peak_storage);
    ASSERT_EQ(a.runs.size(), b.runs.size());
    for (std::size_t i = 0; i < a.runs.size(); ++i) {
      EXPECT_EQ(std::memcmp(&a.runs[i].start_time, &b.runs[i].start_time,
                            sizeof(double)),
                0);
      EXPECT_EQ(std::memcmp(&a.runs[i].end_time, &b.runs[i].end_time,
                            sizeof(double)),
                0);
      EXPECT_EQ(a.runs[i].mappers_executed, b.runs[i].mappers_executed);
      EXPECT_EQ(a.runs[i].reducers_executed, b.runs[i].reducers_executed);
    }
  }
}

// Pinned end-to-end bits. The expected totals are hexfloat captures
// from the code before the flow network's cached-capacity, ordered
// live-link selection and pending-source shuffle flushes: any change in
// rounding or in event order anywhere in the simulator moves them.
// Re-capture (and say why) only in a change meant to move simulated
// behaviour.
void expect_bits(double actual, double expected) {
  EXPECT_EQ(std::memcmp(&actual, &expected, sizeof(double)), 0)
      << std::hexfloat << actual << " != " << expected;
}

// Fig. 8a's REPL-3 cell at reduced size: multi-hop replica write
// pipelines over contention disks beside the shuffle, failure-free.
TEST(BitExactPins, Repl3DcoChainTotalTime) {
  auto cfg = workloads::dco_config_nodes(24);
  cfg.per_node_input = 4_GiB;
  cfg.chain_length = 3;
  core::StrategyConfig strategy;
  strategy.strategy = core::Strategy::kReplication;
  strategy.replication = 3;
  const auto r = workloads::run_scenario(cfg, strategy);
  ASSERT_TRUE(r.completed);
  expect_bits(r.total_time, 0x1.f436f9b8a2cc9p+10);
}

// Detector on; a network partition and a transient storage fault, so
// the shuffle skips and later re-admits unserved sources.
TEST(BitExactPins, DetectorPartitionTransientChainTotalTime) {
  auto cfg = workloads::payload_config(8, 4, 256);
  cfg.cluster.racks = 2;
  cfg.input_replication = 4;
  cfg.detector.enabled = true;
  cluster::FaultSchedule schedule;
  cluster::FaultEvent partition;
  partition.mode = cluster::FaultMode::kNetworkPartition;
  partition.at_job_ordinal = 2;
  partition.delay = 5.0;
  partition.node = 3;
  partition.downtime = 40.0;
  schedule.events.push_back(partition);
  cluster::FaultEvent transient;
  transient.mode = cluster::FaultMode::kTransient;
  transient.at_job_ordinal = 3;
  transient.delay = 10.0;
  transient.node = 5;
  transient.downtime = 30.0;
  schedule.events.push_back(transient);
  core::StrategyConfig strategy;
  strategy.strategy = core::Strategy::kRcmpSplit;
  workloads::Scenario s(cfg);
  const auto r = s.run_chaos(strategy, schedule);
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(r.failures_observed, 1u);
  expect_bits(r.total_time, 0x1.b17c4f3941a22p+6);
}

}  // namespace
}  // namespace rcmp::res
