// Observability demo: probe path latencies with echo pings while a
// background HTTP workload runs, then report the most utilized links —
// the simulated analog of ping + SNMP counters on a real network.
//
//   ./network_probe [--routers=N] [--seconds=S]
#include <algorithm>
#include <cstdio>
#include <memory>

#include "net/netsim.hpp"
#include "routing/forwarding.hpp"
#include "topology/brite.hpp"
#include "traffic/cbr.hpp"
#include "traffic/http.hpp"
#include "traffic/manager.hpp"
#include "traffic/ping.hpp"
#include "util/flags.hpp"

int main(int argc, char** argv) {
  using namespace massf;
  FlagTable flags("network_probe",
                  "Echo pings under background HTTP and CBR load, then the "
                  "most utilized links.");
  flags.add_int("routers", 400, "routers in the flat network");
  flags.add_double("seconds", 10.0, "simulated seconds");
  flags.parse_or_exit(argc, argv);

  BriteOptions bo;
  bo.num_routers = static_cast<std::int32_t>(flags.get_int("routers"));
  bo.num_hosts = 120;
  bo.seed = 23;
  const Network net = generate_flat(bo);
  std::vector<NodeId> hosts, dests;
  for (NodeId h = net.num_routers; h < static_cast<NodeId>(net.nodes.size());
       ++h) {
    hosts.push_back(h);
    dests.push_back(net.nodes[static_cast<std::size_t>(h)].attach_router);
  }
  const ForwardingPlane fp = ForwardingPlane::build_flat(net, dests);

  EngineOptions eo;
  eo.lookahead = milliseconds(1);
  eo.end_time = from_seconds(flags.get_double("seconds"));
  Engine engine(eo);
  const std::vector<LpId> map(static_cast<std::size_t>(net.num_routers), 0);
  NetSimOptions no;
  no.collect_link_stats = true;
  NetSim sim(net, fp, map, engine, no);
  TrafficManager manager(sim);

  // Background load.
  HttpOptions ho;
  ho.think_time_mean_s = 0.3;
  std::vector<NodeId> clients(hosts.begin(), hosts.begin() + 80);
  std::vector<NodeId> servers(hosts.begin() + 80, hosts.end());
  manager.add(TrafficKind::kHttp,
              std::make_unique<HttpWorkload>(clients, servers, ho));

  // Halfway through, CBR cross-traffic oversubscribes the target host's
  // access link: the later pings show queueing delay (and possibly loss).
  CbrOptions co;
  co.rate_bps = 4e7;  // 3 x 40 Mbps into a 100 Mbps access link
  co.packet_bytes = 1200;
  co.start_at = from_seconds(to_seconds(eo.end_time) / 2);
  std::vector<CbrWorkload::Stream> streams{{hosts[1], hosts[100]},
                                           {hosts[2], hosts[100]},
                                           {hosts[3], hosts[100]}};
  manager.add(TrafficKind::kCbr,
              std::make_unique<CbrWorkload>(streams, co));

  // Probes: the same pair pinged periodically to watch queueing delay.
  auto probe_ptr = std::make_unique<PingProbe>();
  PingProbe& probe = *probe_ptr;
  manager.add(TrafficKind::kPing, std::move(probe_ptr));
  for (int i = 0; i < 8; ++i) {
    probe.ping(engine, sim, hosts[0], hosts[100],
               milliseconds(200) + seconds(i));
  }

  manager.start(engine, sim);
  engine.run();

  std::printf("ping %d -> %d over %.0f s of background HTTP load:\n",
              hosts[0], hosts[100], to_seconds(eo.end_time));
  for (std::size_t i = 0; i < probe.results().size(); ++i) {
    const auto& r = probe.results()[i];
    if (r.rtt >= 0) {
      std::printf("  t=%5.1fs rtt=%.3f ms\n", to_seconds(r.sent_at),
                  to_milliseconds(r.rtt));
    } else {
      std::printf("  t=%5.1fs lost\n", to_seconds(r.sent_at));
    }
  }

  // Top-5 most utilized directed interfaces.
  struct Util {
    LinkId link;
    int dir;
    double util;
  };
  std::vector<Util> utils;
  for (LinkId l = 0; l < static_cast<LinkId>(net.links.size()); ++l) {
    for (int d = 0; d < 2; ++d) {
      utils.push_back(
          {l, d, sim.link_model().link_utilization(l, d, eo.end_time)});
    }
  }
  std::sort(utils.begin(), utils.end(),
            [](const Util& a, const Util& b) { return a.util > b.util; });
  std::printf("busiest interfaces (mean utilization over the run):\n");
  for (int i = 0; i < 5 && i < static_cast<int>(utils.size()); ++i) {
    const NetLink& l = net.links[static_cast<std::size_t>(utils[i].link)];
    std::printf("  link %d (%d->%d, %.0f Mbps): %.1f%%\n", utils[i].link,
                utils[i].dir == 0 ? l.a : l.b, utils[i].dir == 0 ? l.b : l.a,
                l.bandwidth_bps / 1e6, 100 * utils[i].util);
  }
  return 0;
}
