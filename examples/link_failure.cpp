// Failure-injection story: a backbone link carrying live TCP traffic goes
// down mid-run. The data plane drops packets immediately; OSPF reconverges
// a convergence-delay later and traffic reroutes; when the link returns,
// routing falls back to the primary path. Prints a goodput time line so
// the dip and recovery are visible.
//
//   ./link_failure [--routers=N] [--fail-at=S] [--restore-at=S]
//                  [--convergence-ms=M]
#include <cstdio>
#include <memory>

#include "fault/injector.hpp"
#include "topology/brite.hpp"
#include "traffic/http.hpp"
#include "traffic/manager.hpp"
#include "util/flags.hpp"
#include "util/stats.hpp"

int main(int argc, char** argv) {
  using namespace massf;
  FlagTable flags("link_failure",
                  "A backbone link carrying TCP traffic fails and returns; "
                  "prints the goodput time line.");
  flags.add_int("routers", 300, "routers in the flat network");
  flags.add_double("fail-at", 4.0, "link failure time in seconds");
  flags.add_double("restore-at", 8.0, "link restore time in seconds");
  flags.add_int("convergence-ms", 200,
                "OSPF reconvergence delay in milliseconds");
  flags.parse_or_exit(argc, argv);

  BriteOptions bo;
  bo.num_routers = static_cast<std::int32_t>(flags.get_int("routers"));
  bo.num_hosts = 100;
  bo.seed = 29;
  const Network net = generate_flat(bo);
  std::vector<NodeId> hosts, dests;
  for (NodeId h = net.num_routers; h < static_cast<NodeId>(net.nodes.size());
       ++h) {
    hosts.push_back(h);
    dests.push_back(net.nodes[static_cast<std::size_t>(h)].attach_router);
  }
  ForwardingPlane fp = ForwardingPlane::build_flat(net, dests);

  EngineOptions eo;
  eo.lookahead = milliseconds(1);
  eo.end_time = seconds(12);
  Engine engine(eo);
  const std::vector<LpId> map(static_cast<std::size_t>(net.num_routers), 0);
  NetSim sim(net, fp, map, engine, NetSimOptions{});
  TrafficManager manager(sim);

  HttpOptions ho;
  ho.think_time_mean_s = 0.2;
  std::vector<NodeId> clients(hosts.begin(), hosts.begin() + 70);
  std::vector<NodeId> servers(hosts.begin() + 70, hosts.end());
  manager.add(TrafficKind::kHttp,
              std::make_unique<HttpWorkload>(clients, servers, ho));

  // Completion time line (goodput proxy): wrap the manager's dispatch so
  // completions are both counted here and delivered to the workload.
  TimeSeries completions(0.5);
  TrafficManager* mgr = &manager;
  sim.set_flow_complete([&completions, mgr](Engine& e, NetSim& s, FlowId f,
                                            NodeId src, NodeId dst,
                                            std::uint32_t tag, bool failed) {
    if (auto* c = mgr->component(tag_kind(tag))) {
      if (failed) {
        c->on_flow_failed(e, s, f, src, dst, tag);
        return;
      }
      c->on_flow_complete(e, s, f, src, dst, tag);
    }
    completions.add(to_seconds(e.now()), 1.0);
  });

  // Pick a busy-looking backbone link: the first router-router link
  // adjacent to the highest-degree router.
  LinkId victim = kInvalidLink;
  NodeId hub = 0;
  for (NodeId r = 1; r < net.num_routers; ++r) {
    if (net.incident(r).size() > net.incident(hub).size()) hub = r;
  }
  for (const auto& inc : net.incident(hub)) {
    if (net.is_router(inc.peer)) {
      victim = inc.link;
      break;
    }
  }

  FaultInjectorOptions fo;
  fo.ospf_convergence_delay = milliseconds(flags.get_int("convergence-ms"));
  FaultInjector injector(net, fp, fo);
  const double fail_at = flags.get_double("fail-at");
  const double restore_at = flags.get_double("restore-at");
  FaultSchedule schedule;
  schedule.link_down(from_seconds(fail_at), victim)
      .link_up(from_seconds(restore_at), victim);
  injector.arm(engine, sim, schedule);

  manager.start(engine, sim);
  engine.run();

  std::printf("backbone link %d (at hub router %d, degree %zu) failed at "
              "t=%.1fs, restored at t=%.1fs; %zu reconvergences\n",
              victim, hub, net.incident(hub).size(), fail_at, restore_at,
              injector.ospf_reconvergence_s().size());
  const auto c = sim.totals();
  std::printf("totals: %llu flows completed, %llu link-down drops, "
              "%llu retransmits, %llu abandoned\n",
              static_cast<unsigned long long>(c.flows_completed),
              static_cast<unsigned long long>(c.dropped_link_down),
              static_cast<unsigned long long>(c.retransmits),
              static_cast<unsigned long long>(c.flows_failed));
  std::printf("flow completions per 0.5 s:\n");
  for (std::size_t b = 0; b < completions.num_bins(); ++b) {
    std::printf("  t=%4.1fs %4.0f %s\n", b * 0.5, completions.bin(b),
                std::string(static_cast<std::size_t>(
                                std::min(completions.bin(b) / 3.0, 70.0)),
                            '#')
                    .c_str());
  }
  return 0;
}
