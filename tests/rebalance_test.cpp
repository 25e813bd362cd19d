// Online rebalancing (lb/rebalance.hpp) and the EngineHooks boundary
// contract it plugs into.
//
// Coverage:
//  * router_mobile / migrate_router invariants on hand-built networks;
//  * EngineHooks firing order (barrier -> rebalance -> ckpt);
//  * the controller's trigger/debounce/improvement behavior on an
//    imbalance-ramp ring (miniature of bench/bench_rebalance.cpp);
//  * a >= 24-seed differential fuzz: with rebalancing live, the sequential
//    and threaded executors must stay bit-identical on the full signature
//    (RunStats incl. modeled times + massf.metrics.v1 JSON modulo the
//    executor-identity gauge);
//  * checkpoint/restore through the Scenario facade with rebalancing on —
//    the "lb.rebalance" participant must resume the control loop so the
//    restored run makes the decisions the uninterrupted one would have.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "lb/mapping.hpp"
#include "lb/profile.hpp"
#include "lb/rebalance.hpp"
#include "net/netsim.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "routing/forwarding.hpp"
#include "sim/scenario.hpp"
#include "topology/network.hpp"

namespace massf {
namespace {

std::uint64_t double_bits(double v) {
  std::uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

void expect_same_stats(const RunStats& a, const RunStats& b) {
  EXPECT_EQ(a.total_events, b.total_events);
  EXPECT_EQ(a.num_windows, b.num_windows);
  EXPECT_EQ(a.events_per_lp, b.events_per_lp);
  EXPECT_EQ(a.end_vtime, b.end_vtime);
  EXPECT_EQ(a.cross_lp_events, b.cross_lp_events);
  EXPECT_EQ(a.merge_batches, b.merge_batches);
  EXPECT_EQ(double_bits(a.modeled_wall_s), double_bits(b.modeled_wall_s));
  EXPECT_EQ(double_bits(a.modeled_sync_s), double_bits(b.modeled_sync_s));
  EXPECT_EQ(double_bits(a.modeled_migrate_s),
            double_bits(b.modeled_migrate_s));
  ASSERT_EQ(a.busy_s.size(), b.busy_s.size());
  for (std::size_t i = 0; i < a.busy_s.size(); ++i) {
    EXPECT_EQ(double_bits(a.busy_s[i]), double_bits(b.busy_s[i])) << i;
  }
}

/// The worker-count gauge and the pdes.sync.* protocol counters describe
/// the executor (what its synchronization did), not the simulation — the
/// legitimate metrics differences between executors (see
/// bench/bench_rebalance.cpp).
std::string strip_executor_identity(std::string json) {
  for (const char* key : {"\"pdes.sched.threads\":", "\"pdes.sync."}) {
    for (auto pos = json.find(key); pos != std::string::npos;
         pos = json.find(key, pos)) {
      auto end = json.find_first_of(",}\n", pos + std::strlen(key));
      if (end == std::string::npos) end = json.size();
      json.erase(pos, end - pos);
    }
  }
  return json;
}

void add_link(Network& net, NodeId a, NodeId b, SimTime latency,
              double bw_bps = 10e9) {
  NetLink l;
  l.a = a;
  l.b = b;
  l.latency = latency;
  l.bandwidth_bps = bw_bps;
  net.links.push_back(l);
}

NodeId add_host(Network& net, NodeId router) {
  NetNode host;
  host.kind = NodeKind::kHost;
  host.attach_router = router;
  net.nodes.push_back(host);
  const NodeId id = static_cast<NodeId>(net.nodes.size()) - 1;
  add_link(net, id, router, microseconds(20), 1e9);
  return id;
}

// ---- mobility and migration -------------------------------------------------

TEST(RouterMobile, HostsAndFastLinksPin) {
  // Chain 0 -(1ms)- 1 -(0.5ms)- 2 -(1ms)- 3, host on router 3. The
  // sub-lookahead 1-2 link stays inside LP 0 so the conservative contract
  // holds with lookahead = 1 ms.
  Network net;
  net.num_routers = 4;
  net.nodes.assign(4, NetNode{});
  add_link(net, 0, 1, milliseconds(1));
  add_link(net, 1, 2, microseconds(500));
  add_link(net, 2, 3, milliseconds(1));
  add_host(net, 3);
  net.build_adjacency();
  ASSERT_EQ(net.validate(), "");

  const std::vector<NodeId> dests{0, 3};
  const ForwardingPlane fp = ForwardingPlane::build_flat(net, dests);
  const std::vector<LpId> map{0, 0, 0, 1};
  EngineOptions eo;
  eo.lookahead = milliseconds(1);
  eo.end_time = milliseconds(10);
  Engine engine(eo);
  NetSim sim(net, fp, map, engine, NetSimOptions{});

  const SimTime la = milliseconds(1);
  EXPECT_TRUE(sim.router_mobile(0, la));   // host-free, only 1 ms links
  EXPECT_FALSE(sim.router_mobile(1, la));  // 0.5 ms link < lookahead
  EXPECT_FALSE(sim.router_mobile(2, la));  // same fast link
  EXPECT_FALSE(sim.router_mobile(3, la));  // host attached
}

TEST(MigrateRouter, FlipsOwnershipAndMovesPendingEvents) {
  // Chain h4 - 0 - 1 - 2 - h5: every datagram crosses transit router 1,
  // which is host-free with 1 ms links on both sides (mobile). A barrier
  // hook mid-run rehomes it from LP 0 to LP 1; delivery totals must match
  // the undisturbed reference run.
  Network net;
  net.num_routers = 3;
  net.nodes.assign(3, NetNode{});
  add_link(net, 0, 1, milliseconds(1));
  add_link(net, 1, 2, milliseconds(1));
  const NodeId ha = add_host(net, 0);
  const NodeId hb = add_host(net, 2);
  net.build_adjacency();
  ASSERT_EQ(net.validate(), "");
  const std::vector<NodeId> dests{0, 2};
  const ForwardingPlane fp = ForwardingPlane::build_flat(net, dests);

  const auto run = [&](bool migrate, MigrationStats* out_stats,
                       LpId* lp_after) {
    EngineOptions eo;
    eo.lookahead = milliseconds(1);
    eo.end_time = milliseconds(40);
    Engine engine(eo);
    const std::vector<LpId> map{0, 0, 1};
    NetSim sim(net, fp, map, engine, NetSimOptions{});
    for (SimTime t = microseconds(100); t < eo.end_time;
         t += microseconds(400)) {
      sim.send_udp(engine, t, ha, hb, 600, 0);
      sim.send_udp(engine, t + microseconds(150), hb, ha, 600, 0);
    }
    EXPECT_EQ(sim.lp_of(1), 0);
    bool done = false;
    if (migrate) {
      engine.hooks().barrier.push_back(
          [&](Engine& eng, SimTime floor) {
            if (done || floor < milliseconds(15)) return;
            done = true;
            ASSERT_TRUE(sim.router_mobile(1, eng.options().lookahead));
            const MigrationStats ms = sim.migrate_router(eng, 1, 1);
            if (out_stats != nullptr) *out_stats = ms;
          });
    }
    engine.run();
    if (lp_after != nullptr) *lp_after = sim.lp_of(1);
    return sim.totals();
  };

  const NetSim::Counters want = run(false, nullptr, nullptr);
  MigrationStats ms;
  LpId lp_after = -1;
  const NetSim::Counters got = run(true, &ms, &lp_after);

  EXPECT_EQ(lp_after, 1);  // ownership flipped
  // The stream keeps router 1's inbox non-empty at every boundary: the
  // migration must have carried pending arrivals over the wire format.
  EXPECT_GT(ms.events, 0u);
  EXPECT_GT(ms.bytes, 0u);
  // Rehoming must not lose, duplicate, or reroute a single packet.
  EXPECT_EQ(want.udp_delivered, got.udp_delivered);
  EXPECT_EQ(want.forwarded, got.forwarded);
  EXPECT_EQ(want.dropped_queue, got.dropped_queue);
}

// ---- EngineHooks contract ---------------------------------------------------

class NullLp : public LogicalProcess {
 public:
  void handle(Engine&, const Event&) override {}
};

/// One engine with a self-rescheduling tick so every window has work.
struct TickRig {
  explicit TickRig(std::uint64_t windows) {
    EngineOptions eo;
    eo.lookahead = milliseconds(1);
    eo.end_time = windows * milliseconds(1);
    engine = std::make_unique<Engine>(eo);
    struct Tick : LogicalProcess {
      void handle(Engine& e, const Event& ev) override {
        e.schedule(ev.lp, ev.time + microseconds(250), 1);
      }
    };
    const LpId lp = engine->add_lp(std::make_unique<Tick>());
    engine->schedule(lp, 0, 1);
  }
  std::unique_ptr<Engine> engine;
};

TEST(EngineHooks, FiringOrderBarrierRebalanceCkpt) {
  TickRig rig(/*windows=*/8);
  // One entry per boundary; the first barrier hook opens the entry so the
  // per-boundary stage sequence is recorded exactly as fired.
  std::vector<std::string> boundaries;
  rig.engine->hooks().barrier.push_back([&boundaries](Engine&, SimTime) {
    boundaries.emplace_back("a");
  });
  rig.engine->hooks().barrier.push_back(
      [&boundaries](Engine&, SimTime) { boundaries.back() += 'b'; });
  rig.engine->hooks().rebalance_every = 2;
  rig.engine->hooks().rebalance = [&boundaries](Engine&, SimTime) {
    boundaries.back() += 'r';
  };
  rig.engine->hooks().ckpt_every = 4;
  rig.engine->hooks().ckpt = [&boundaries](Engine&, SimTime) {
    boundaries.back() += 'c';
  };
  const RunStats stats = rig.engine->run();
  // One boundary opens each window, carrying the completed-window count w:
  // barrier hooks in registration order at every boundary, the rebalance
  // stage when w > 0 and w % 2 == 0, the ckpt stage after it when w > 0
  // and w % 4 == 0 (stage 3 snapshots post-rebalance state).
  ASSERT_EQ(boundaries.size(), stats.num_windows);
  ASSERT_GE(boundaries.size(), 8u);
  for (std::size_t w = 0; w < boundaries.size(); ++w) {
    std::string want = "ab";
    if (w > 0 && w % 2 == 0) want += 'r';
    if (w > 0 && w % 4 == 0) want += 'c';
    EXPECT_EQ(boundaries[w], want) << "boundary w=" << w;
  }
}

// ---- controller behavior on an imbalance ramp -------------------------------

/// Miniature of the bench topology: a ring of `pods` gateways (hosts
/// attached) each followed by `transit` host-free routers; uniform
/// router-router latency keeps every transit router mobile.
struct Ring {
  std::int32_t pods = 4;
  std::int32_t transit = 2;
  std::int32_t hosts = 2;
  SimTime latency = microseconds(400);

  std::int32_t stride() const { return 1 + transit; }
  NodeId gateway(std::int32_t pod) const { return pod * stride(); }

  Network build() const {
    Network net;
    net.num_routers = pods * stride();
    net.nodes.assign(static_cast<std::size_t>(net.num_routers), NetNode{});
    for (std::int32_t pod = 0; pod < pods; ++pod) {
      NodeId prev = gateway(pod);
      for (std::int32_t t = 0; t < transit; ++t) {
        add_link(net, prev, gateway(pod) + 1 + t, latency);
        prev = gateway(pod) + 1 + t;
      }
      add_link(net, prev, gateway((pod + 1) % pods), latency);
    }
    for (std::int32_t pod = 0; pod < pods; ++pod) {
      for (std::int32_t h = 0; h < hosts; ++h) add_host(net, gateway(pod));
    }
    net.build_adjacency();
    MASSF_CHECK(net.validate().empty());
    return net;
  }

  NodeId host_of(const Network& net, std::int32_t pod, std::int32_t h) const {
    return net.num_routers + pod * hosts + h;
  }
};

struct FuzzResult {
  RunStats stats;
  RebalanceController::Totals totals;
  std::string metrics_json;
};

/// One rebalanced run of a seed-shaped rotating-hot-sector workload.
FuzzResult fuzz_run(std::uint64_t seed, std::int32_t threads) {
  Ring ring;
  ring.pods = 4 + static_cast<std::int32_t>(seed % 3);
  ring.transit = 2 + static_cast<std::int32_t>(seed % 2);
  const Network net = ring.build();
  std::vector<NodeId> dests;
  for (std::int32_t pod = 0; pod < ring.pods; ++pod) {
    dests.push_back(ring.gateway(pod));
  }
  const ForwardingPlane fp = ForwardingPlane::build_flat(net, dests);
  const std::int32_t engines = 2 + static_cast<std::int32_t>(seed % 3);
  const std::vector<LpId> map = naive_mapping(net, engines);

  ClusterModel cluster;
  cluster.num_engine_nodes = engines;
  EngineOptions eo;
  eo.lookahead = ring.latency;
  eo.cost_per_event_s = cluster.cost_per_event_s;
  eo.sync_cost_s = cluster.sync_cost_s();
  const SimTime phase_len = milliseconds(20);
  const std::int32_t phases = 3;
  eo.end_time = phases * phase_len;
  Engine engine(eo);
  NetSimOptions no;
  no.collect_node_profile = true;
  NetSim sim(net, fp, map, engine, no);

  const SimTime hot = microseconds(300 + 50 * static_cast<SimTime>(seed % 5));
  for (std::int32_t p = 0; p < phases; ++p) {
    const auto src_pod =
        static_cast<std::int32_t>((seed + p * (1 + seed % 2)) % ring.pods);
    const auto dst_pod = (src_pod + ring.pods / 2) % ring.pods;
    for (std::int32_t h = 0; h < ring.hosts; ++h) {
      const NodeId src = ring.host_of(net, src_pod, h);
      const NodeId dst = ring.host_of(net, dst_pod, h);
      for (SimTime t = p * phase_len + h * microseconds(25);
           t < (p + 1) * phase_len; t += hot) {
        sim.send_udp(engine, t, src, dst, 800, 1);
      }
    }
  }
  for (std::int32_t pod = 0; pod < ring.pods; ++pod) {  // background
    const NodeId src = ring.host_of(net, pod, 0);
    const NodeId dst = ring.host_of(net, (pod + 1) % ring.pods, 1);
    for (SimTime t = microseconds(500 + 100 * static_cast<SimTime>(pod));
         t < eo.end_time; t += milliseconds(4)) {
      sim.send_udp(engine, t, src, dst, 400, 0);
    }
  }

  RebalanceOptions ro;
  ro.enabled = true;
  ro.every_windows = 8;
  ro.threshold = 1.10;
  ro.sustain = 1;
  ro.max_moves = 4;
  RebalanceController rc(sim, cluster, ro);
  rc.arm(engine);
  obs::Registry registry;
  engine.set_registry(&registry);

  FuzzResult r;
  r.stats = threads > 0 ? engine.run_threaded(threads) : engine.run();
  r.totals = rc.totals();
  sim.publish_metrics(registry);
  rc.publish_metrics(registry);
  r.metrics_json = obs::to_json(registry);
  return r;
}

TEST(RebalanceController, TriggersAndImprovesImbalance) {
  const FuzzResult r = fuzz_run(/*seed=*/1, /*threads=*/0);
  EXPECT_GT(r.totals.checks, 0u);
  ASSERT_GT(r.totals.triggers, 0u);
  EXPECT_GT(r.totals.moves, 0u);
  EXPECT_GT(r.totals.events_moved, 0u);
  EXPECT_GT(r.totals.bytes_moved, 0u);
  // The remap must actually flatten the hot/cold pair it targeted.
  EXPECT_LT(r.totals.imbalance_after, r.totals.imbalance_before);
  // Honest accounting: migration cost is charged into the modeled clock.
  EXPECT_GT(r.totals.modeled_cost_s, 0.0);
  EXPECT_EQ(double_bits(r.stats.modeled_migrate_s),
            double_bits(r.totals.modeled_cost_s));
  // And exported: the metrics block must carry the lb.rebalance.* schema.
  EXPECT_NE(r.metrics_json.find("\"lb.rebalance.moves\""), std::string::npos);
  EXPECT_NE(r.metrics_json.find("\"lb.rebalance.imbalance_after\""),
            std::string::npos);
}

// ---- differential fuzz: executors must agree with rebalancing live ----------

TEST(RebalanceFuzz, SequentialVsThreadedFullSignature) {
  std::uint64_t total_moves = 0;
  for (std::uint64_t seed = 0; seed < 24; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const FuzzResult seq = fuzz_run(seed, 0);
    total_moves += seq.totals.moves;
    for (const std::int32_t threads : {2, 4}) {
      SCOPED_TRACE("threads " + std::to_string(threads));
      const FuzzResult thr = fuzz_run(seed, threads);
      expect_same_stats(seq.stats, thr.stats);
      EXPECT_EQ(seq.totals.moves, thr.totals.moves);
      EXPECT_EQ(seq.totals.events_moved, thr.totals.events_moved);
      EXPECT_EQ(seq.totals.bytes_moved, thr.totals.bytes_moved);
      EXPECT_EQ(strip_executor_identity(seq.metrics_json),
                strip_executor_identity(thr.metrics_json));
    }
  }
  // The sweep is only meaningful if migration actually ran somewhere.
  EXPECT_GT(total_moves, 0u);
}

// ---- Scenario: checkpoint/restore with the control loop live ----------------

TEST(ScenarioRebalance, CkptRestoreMatchesUninterrupted) {
  const std::string path = ::testing::TempDir() + "/rebalance_scn.ckpt";
  ScenarioOptions base;
  base.num_routers = 120;
  base.num_hosts = 60;
  base.num_clients = 20;
  base.num_servers = 6;
  base.num_engines = 4;
  base.end_time = seconds(2);
  base.profile_end_time = seconds(1);
  base.seed = 23;
  base.rebalance.enabled = true;
  base.rebalance.every_windows = 8;
  base.rebalance.threshold = 1.05;
  base.rebalance.sustain = 1;

  obs::Registry ref_registry;
  ScenarioOptions oref = base;
  oref.registry = &ref_registry;
  Scenario ref(oref);
  const ExperimentResult want = ref.run(MappingKind::kTop2);
  const std::string ref_json = obs::to_json(ref_registry);
  // The control loop was live (the stage fired and published).
  EXPECT_NE(ref_json.find("\"lb.rebalance.checks\""), std::string::npos);

  Scenario resumed(base);
  CkptOptions save;
  save.every_windows = 32;
  save.path = path;
  save.stop_after = true;
  resumed.set_ckpt(save);
  const ExperimentResult cut = resumed.run(MappingKind::kTop2);
  ASSERT_EQ(cut.stats.num_windows, 32u);
  ASSERT_LT(cut.stats.num_windows, want.stats.num_windows);

  CkptOptions load;
  load.restore_path = path;
  resumed.set_ckpt(load);
  const ExperimentResult got = resumed.run(MappingKind::kTop2);

  // The "lb.rebalance" participant restored snapshot/debounce/tallies, so
  // the resumed run repeats the uninterrupted run's decisions exactly —
  // including any migrations after the cut (modeled_migrate_s is compared
  // bitwise inside expect_same_stats).
  expect_same_stats(want.stats, got.stats);
  EXPECT_EQ(want.counters.udp_delivered, got.counters.udp_delivered);
  EXPECT_EQ(want.counters.delivered, got.counters.delivered);
  EXPECT_EQ(want.counters.forwarded, got.counters.forwarded);
}

}  // namespace
}  // namespace massf
