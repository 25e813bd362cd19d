#include <gtest/gtest.h>

#include <memory>
#include <numeric>
#include <set>

#include "net/netsim.hpp"
#include "routing/forwarding.hpp"
#include "topology/brite.hpp"
#include "traffic/apps.hpp"
#include "traffic/dataflow.hpp"
#include "traffic/http.hpp"
#include "traffic/manager.hpp"
#include "traffic/vm.hpp"

namespace massf {
namespace {

struct Fixture {
  explicit Fixture(SimTime end = seconds(60), std::int32_t lps = 1)
      : net(make_net()) {
    std::vector<NodeId> dests;
    for (NodeId h = net.num_routers;
         h < static_cast<NodeId>(net.nodes.size()); ++h) {
      hosts.push_back(h);
      dests.push_back(net.nodes[static_cast<std::size_t>(h)].attach_router);
    }
    fp = std::make_unique<ForwardingPlane>(
        ForwardingPlane::build_flat(net, dests));

    std::vector<LpId> map(static_cast<std::size_t>(net.num_routers), 0);
    if (lps > 1) {
      for (NodeId r = 0; r < net.num_routers; ++r) {
        map[static_cast<std::size_t>(r)] =
            static_cast<LpId>(r * lps / net.num_routers);
      }
    }
    EngineOptions eo;
    eo.lookahead = microseconds(100);
    eo.end_time = end;
    engine = std::make_unique<Engine>(eo);
    // Use the real min cross-LP latency when split.
    if (lps > 1) {
      SimTime mll = kSimTimeMax;
      for (const NetLink& l : net.links) {
        if (net.is_router(l.a) && net.is_router(l.b) &&
            map[static_cast<std::size_t>(l.a)] !=
                map[static_cast<std::size_t>(l.b)]) {
          mll = std::min(mll, l.latency);
        }
      }
      EngineOptions eo2 = eo;
      eo2.lookahead = mll;
      engine = std::make_unique<Engine>(eo2);
    }
    sim = std::make_unique<NetSim>(net, *fp, map, *engine, NetSimOptions{});
    manager = std::make_unique<TrafficManager>(*sim);
  }

  static Network make_net() {
    BriteOptions o;
    o.num_routers = 40;
    o.num_hosts = 20;
    o.seed = 31;
    return generate_flat(o);
  }

  Network net;
  std::unique_ptr<ForwardingPlane> fp;
  std::vector<NodeId> hosts;
  std::unique_ptr<Engine> engine;
  std::unique_ptr<NetSim> sim;
  std::unique_ptr<TrafficManager> manager;
};

TEST(Tags, PackUnpack) {
  const std::uint32_t tag = make_tag(TrafficKind::kApp, 0x0ABCDEF);
  EXPECT_EQ(tag_kind(tag), TrafficKind::kApp);
  EXPECT_EQ(tag_payload(tag), 0x0ABCDEFu);
  const std::uint64_t t = make_timer(TrafficKind::kHttp, 0xFFEEDDCCBBULL);
  EXPECT_EQ(timer_kind(t), TrafficKind::kHttp);
  EXPECT_EQ(timer_payload(t), 0xFFEEDDCCBBULL);
}

TEST(Manager, DispatchesByKind) {
  struct Probe final : TrafficComponent {
    void start(Engine&, NetSim&) override {}
    void on_timer(Engine&, NetSim&, NodeId, std::uint64_t payload,
                  std::uint64_t) override {
      last_payload = payload;
    }
    std::uint64_t last_payload = 0;
  };
  Fixture f;
  auto probe = std::make_unique<Probe>();
  Probe* p = probe.get();
  f.manager->add(TrafficKind::kApp, std::move(probe));
  f.sim->schedule_app_timer(*f.engine, f.hosts[0], milliseconds(1),
                            make_timer(TrafficKind::kApp, 77));
  // A timer for an unregistered kind must be ignored, not crash.
  f.sim->schedule_app_timer(*f.engine, f.hosts[0], milliseconds(2),
                            make_timer(TrafficKind::kHttp, 1));
  f.engine->run();
  EXPECT_EQ(p->last_payload, 77u);
}

TEST(Http, RequestResponseCycleRuns) {
  Fixture f(seconds(30));
  HttpOptions ho;
  ho.think_time_mean_s = 0.5;
  ho.file_mean_bytes = 20e3;
  ho.seed = 1;
  std::vector<NodeId> clients(f.hosts.begin(), f.hosts.begin() + 10);
  std::vector<NodeId> servers(f.hosts.begin() + 10, f.hosts.begin() + 15);
  auto http = std::make_unique<HttpWorkload>(clients, servers, ho);
  HttpWorkload* h = http.get();
  f.manager->add(TrafficKind::kHttp, std::move(http));
  f.manager->start(*f.engine, *f.sim);
  f.engine->run();
  EXPECT_GT(h->requests_issued(), 50u);
  EXPECT_GT(h->responses_completed(), 40u);
  // Flow conservation: every completed response implies a completed
  // request; in-flight difference is bounded by the client count.
  EXPECT_LE(h->responses_completed(), h->requests_issued());
  EXPECT_LE(h->requests_issued() - h->responses_completed(),
            clients.size() + 1);
}

TEST(Http, DeterministicAcrossRuns) {
  const auto run_once = [] {
    Fixture f(seconds(10));
    HttpOptions ho;
    ho.think_time_mean_s = 0.3;
    ho.seed = 7;
    std::vector<NodeId> clients(f.hosts.begin(), f.hosts.begin() + 8);
    std::vector<NodeId> servers(f.hosts.begin() + 8, f.hosts.begin() + 12);
    auto http = std::make_unique<HttpWorkload>(clients, servers, ho);
    HttpWorkload* h = http.get();
    f.manager->add(TrafficKind::kHttp, std::move(http));
    f.manager->start(*f.engine, *f.sim);
    const RunStats stats = f.engine->run();
    return std::make_pair(stats.total_events, h->responses_completed());
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Dataflow, HcChainIterates) {
  Fixture f(seconds(30));
  GridNpbOptions go;
  go.compute = milliseconds(10);
  go.data_bytes = 20 * 1024;
  std::vector<NodeId> app_hosts(f.hosts.begin(), f.hosts.begin() + 5);
  auto app = std::make_unique<DataflowApp>(make_gridnpb_hc(app_hosts, go),
                                           milliseconds(1));
  DataflowApp* a = app.get();
  f.manager->add(TrafficKind::kApp, std::move(app));
  f.manager->start(*f.engine, *f.sim);
  f.engine->run();
  // The chain should cycle many times in 30 virtual seconds.
  EXPECT_GT(a->firings(), 20u);
}

TEST(Dataflow, ScalapackAllTasksFire) {
  Fixture f(seconds(20));
  ScaLapackOptions so;
  so.block_bytes = 50 * 1024;
  so.compute = milliseconds(20);
  std::vector<NodeId> app_hosts(f.hosts.begin(), f.hosts.begin() + 9);
  auto app = std::make_unique<DataflowApp>(make_scalapack(app_hosts, so),
                                           milliseconds(1));
  DataflowApp* a = app.get();
  f.manager->add(TrafficKind::kApp, std::move(app));
  f.manager->start(*f.engine, *f.sim);
  f.engine->run();
  // 3x3 grid: 9 tasks, each with 4 peers; all iterate.
  EXPECT_EQ(a->graph().tasks.size(), 9u);
  EXPECT_GT(a->firings(), 9u * 3);
}

TEST(Dataflow, MultiLpMatchesSingleLp) {
  const auto run_once = [](std::int32_t lps) {
    Fixture f(seconds(10), lps);
    GridNpbOptions go;
    go.compute = milliseconds(10);
    std::vector<NodeId> app_hosts(f.hosts.begin(), f.hosts.begin() + 6);
    auto app = std::make_unique<DataflowApp>(make_gridnpb_hc(app_hosts, go),
                                             milliseconds(1));
    DataflowApp* a = app.get();
    f.manager->add(TrafficKind::kApp, std::move(app));
    f.manager->start(*f.engine, *f.sim);
    f.engine->run();
    return a->firings();
  };
  EXPECT_EQ(run_once(1), run_once(3));
}

// ---- Virtual-host CPU scheduler -------------------------------------------

TEST(VmHosts, SingleTaskTakesNominalTime) {
  Fixture f(seconds(30));
  auto vm_ptr =
      std::make_unique<VmHosts>(std::span<const NodeId>(f.hosts), 1e6);
  VmHosts* vm = vm_ptr.get();
  f.manager->add(TrafficKind::kVm, std::move(vm_ptr));
  SimTime done_at = -1;
  vm->set_task_done([&](Engine& e, NetSim&, NodeId, std::uint64_t cookie) {
    EXPECT_EQ(cookie, 42u);
    done_at = e.now();
  });
  // 2e6 ops at 1e6 ops/s = 2 s on an idle host.
  vm->submit(*f.engine, *f.sim, f.hosts[0], 2e6, 42);
  f.engine->run();
  EXPECT_NEAR(to_seconds(done_at), 2.0, 0.01);
}

TEST(VmHosts, ProportionalSharingStretchesTasks) {
  Fixture f(seconds(60));
  auto vm_ptr =
      std::make_unique<VmHosts>(std::span<const NodeId>(f.hosts), 1e6);
  VmHosts* vm = vm_ptr.get();
  f.manager->add(TrafficKind::kVm, std::move(vm_ptr));
  std::vector<double> done_times(2, -1);
  vm->set_task_done([&](Engine& e, NetSim&, NodeId, std::uint64_t cookie) {
    done_times[cookie] = to_seconds(e.now());
  });
  // Two equal 1 s tasks on the same host share the CPU: both finish at 2 s.
  vm->submit(*f.engine, *f.sim, f.hosts[0], 1e6, 0);
  vm->submit(*f.engine, *f.sim, f.hosts[0], 1e6, 1);
  f.engine->run();
  EXPECT_NEAR(done_times[0], 2.0, 0.01);
  EXPECT_NEAR(done_times[1], 2.0, 0.01);
}

TEST(VmHosts, ShortTaskFinishesFirstAndReleasesShare) {
  Fixture f(seconds(60));
  auto vm_ptr =
      std::make_unique<VmHosts>(std::span<const NodeId>(f.hosts), 1e6);
  VmHosts* vm = vm_ptr.get();
  f.manager->add(TrafficKind::kVm, std::move(vm_ptr));
  std::vector<double> done_times(2, -1);
  vm->set_task_done([&](Engine& e, NetSim&, NodeId, std::uint64_t cookie) {
    done_times[cookie] = to_seconds(e.now());
  });
  // Short (0.5 s solo) + long (2 s solo): short finishes at 1.0 s (shared
  // half-speed), long at 1.0 + 1.5 = 2.5 s.
  vm->submit(*f.engine, *f.sim, f.hosts[0], 0.5e6, 0);
  vm->submit(*f.engine, *f.sim, f.hosts[0], 2e6, 1);
  f.engine->run();
  EXPECT_NEAR(done_times[0], 1.0, 0.02);
  EXPECT_NEAR(done_times[1], 2.5, 0.02);
}

TEST(VmHosts, IndependentHostsDoNotInterfere) {
  Fixture f(seconds(60));
  auto vm_ptr =
      std::make_unique<VmHosts>(std::span<const NodeId>(f.hosts), 1e6);
  VmHosts* vm = vm_ptr.get();
  f.manager->add(TrafficKind::kVm, std::move(vm_ptr));
  std::vector<double> done_times(2, -1);
  vm->set_task_done([&](Engine& e, NetSim&, NodeId, std::uint64_t cookie) {
    done_times[cookie] = to_seconds(e.now());
  });
  vm->submit(*f.engine, *f.sim, f.hosts[0], 1e6, 0);
  vm->submit(*f.engine, *f.sim, f.hosts[1], 1e6, 1);
  f.engine->run();
  EXPECT_NEAR(done_times[0], 1.0, 0.01);
  EXPECT_NEAR(done_times[1], 1.0, 0.01);
}

TEST(VmHosts, ChainedSubmissionFromCallback) {
  Fixture f(seconds(60));
  auto vm_ptr =
      std::make_unique<VmHosts>(std::span<const NodeId>(f.hosts), 1e6);
  VmHosts* vm = vm_ptr.get();
  f.manager->add(TrafficKind::kVm, std::move(vm_ptr));
  int completions = 0;
  SimTime last = -1;
  vm->set_task_done([&](Engine& e, NetSim& s, NodeId host,
                        std::uint64_t cookie) {
    ++completions;
    last = e.now();
    if (cookie < 2) vm->submit(e, s, host, 1e6, cookie + 1);
  });
  vm->submit(*f.engine, *f.sim, f.hosts[0], 1e6, 0);
  f.engine->run();
  EXPECT_EQ(completions, 3);
  EXPECT_NEAR(to_seconds(last), 3.0, 0.02);
}

TEST(VmHosts, DataflowComputeStretchesUnderColocation) {
  // Two HC chains pinned to the same two hosts, computing through a shared
  // VmHosts: iterations take longer than with fixed delays.
  const auto firings_with = [&](bool use_vm) {
    Fixture f(seconds(20));
    std::vector<NodeId> app_hosts{f.hosts[0], f.hosts[1]};
    GridNpbOptions go;
    go.compute = milliseconds(100);
    go.data_bytes = 2000;
    DataflowGraph g1 = make_gridnpb_hc(app_hosts, go);
    DataflowGraph g2 = make_gridnpb_hc(app_hosts, go);
    std::vector<DataflowGraph> graphs;
    graphs.push_back(std::move(g1));
    graphs.push_back(std::move(g2));
    auto app = std::make_unique<DataflowApp>(merge_graphs(graphs),
                                             milliseconds(1));
    DataflowApp* a = app.get();
    if (use_vm) {
      auto vm = std::make_unique<VmHosts>(
          std::span<const NodeId>(app_hosts), 1e6);
      a->use_vm(vm.get());
      f.manager->add(TrafficKind::kVm, std::move(vm));
    }
    f.manager->add(TrafficKind::kApp, std::move(app));
    f.manager->start(*f.engine, *f.sim);
    f.engine->run();
    return a->firings();
  };
  const auto fixed = firings_with(false);
  const auto shared = firings_with(true);
  EXPECT_GT(fixed, 20u);
  EXPECT_LT(shared, fixed);  // contention slows the chains down
}

TEST(AppFactories, ScalapackShape) {
  std::vector<NodeId> hosts(16);
  std::iota(hosts.begin(), hosts.end(), 100);
  const DataflowGraph g = make_scalapack(hosts, ScaLapackOptions{});
  EXPECT_EQ(g.tasks.size(), 16u);  // 4x4 grid
  // Each task sends to 3 row + 3 col peers.
  EXPECT_EQ(g.edges.size(), 16u * 6);
  for (const auto& t : g.tasks) EXPECT_TRUE(t.initial);
}

TEST(AppFactories, HcShape) {
  std::vector<NodeId> hosts(5);
  std::iota(hosts.begin(), hosts.end(), 100);
  const DataflowGraph g = make_gridnpb_hc(hosts, GridNpbOptions{});
  EXPECT_EQ(g.tasks.size(), 5u);
  EXPECT_EQ(g.edges.size(), 5u);  // ring
  int initials = 0;
  for (const auto& t : g.tasks) initials += t.initial;
  EXPECT_EQ(initials, 1);
}

TEST(AppFactories, VpStagesCycle) {
  std::vector<NodeId> hosts(9);
  std::iota(hosts.begin(), hosts.end(), 100);
  const DataflowGraph g = make_gridnpb_vp(hosts, GridNpbOptions{});
  EXPECT_EQ(g.tasks.size(), 9u);
  // Every task must be reachable as a destination (cyclic pipeline).
  std::vector<int> indeg(g.tasks.size(), 0);
  for (const auto& e : g.edges) ++indeg[static_cast<std::size_t>(e.dst_task)];
  for (int d : indeg) EXPECT_GT(d, 0);
}

TEST(AppFactories, MbHasVariedSizes) {
  std::vector<NodeId> hosts(8);
  std::iota(hosts.begin(), hosts.end(), 100);
  const DataflowGraph g = make_gridnpb_mb(hosts, GridNpbOptions{});
  std::set<std::uint32_t> sizes;
  for (const auto& e : g.edges) sizes.insert(e.bytes);
  EXPECT_GT(sizes.size(), 2u);
}

TEST(AppFactories, MergeOffsetsIndices) {
  std::vector<NodeId> hosts(12);
  std::iota(hosts.begin(), hosts.end(), 100);
  const auto graphs = make_gridnpb_mix(hosts, GridNpbOptions{});
  ASSERT_EQ(graphs.size(), 3u);
  const DataflowGraph merged = merge_graphs(graphs);
  std::size_t total_tasks = 0, total_edges = 0;
  for (const auto& g : graphs) {
    total_tasks += g.tasks.size();
    total_edges += g.edges.size();
  }
  EXPECT_EQ(merged.tasks.size(), total_tasks);
  EXPECT_EQ(merged.edges.size(), total_edges);
  for (const auto& e : merged.edges) {
    EXPECT_LT(static_cast<std::size_t>(e.dst_task), merged.tasks.size());
  }
  EXPECT_NE(merged.name.find("HC"), std::string::npos);
  EXPECT_NE(merged.name.find("MB"), std::string::npos);
}

}  // namespace
}  // namespace massf
