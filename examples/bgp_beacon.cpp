// BGP Beacon experiment (the validation study proposed in the paper's
// future work, Section 7): one AS periodically withdraws and re-announces
// its prefix while the full BGP4 protocol runs inside the packet
// simulation; observation points across the AS hierarchy record when each
// change reaches them — the simulated analog of watching a real beacon
// (e.g. the PSG/RIPE beacons) from public route collectors.
//
//   ./bgp_beacon [--as=N] [--period-ms=P] [--toggles=N] [--seed=S]
#include <cstdio>

#include "net/netsim.hpp"
#include "routing/bgp_dynamic.hpp"
#include "routing/forwarding.hpp"
#include "topology/mabrite.hpp"
#include "traffic/manager.hpp"
#include "util/flags.hpp"

int main(int argc, char** argv) {
  using namespace massf;
  FlagTable flags("bgp_beacon",
                  "One AS withdraws and re-announces its prefix; observers "
                  "across the AS hierarchy record when each change "
                  "arrives.");
  flags.add_int("as", 20, "autonomous systems");
  flags.add_int("seed", 5, "topology seed");
  flags.add_int("period-ms", 20000, "beacon toggle period in milliseconds");
  flags.add_int("toggles", 4, "withdraw/announce toggles");
  flags.parse_or_exit(argc, argv);

  MaBriteOptions mo;
  mo.num_as = static_cast<std::int32_t>(flags.get_int("as"));
  mo.routers_per_as = 10;
  mo.num_hosts = 20;
  mo.seed = static_cast<std::uint64_t>(flags.get_int("seed"));
  Network net = generate_multi_as(mo);
  const std::vector<NodeId> speakers_hosts = add_bgp_speaker_hosts(net);

  std::vector<NodeId> dests;
  for (NodeId h : speakers_hosts) {
    dests.push_back(net.nodes[static_cast<std::size_t>(h)].attach_router);
  }
  const ForwardingPlane fp = ForwardingPlane::build_multi_as(net, dests);

  EngineOptions eo;
  eo.lookahead = milliseconds(5);
  eo.end_time = seconds(240);
  Engine engine(eo);
  const std::vector<LpId> map(static_cast<std::size_t>(net.num_routers), 0);
  NetSim sim(net, fp, map, engine, NetSimOptions{});
  TrafficManager manager(sim);
  auto speakers_ptr = std::make_unique<BgpSpeakers>(net, speakers_hosts,
                                                    BgpDynamicOptions{});
  BgpSpeakers& speakers = *speakers_ptr;
  manager.add(TrafficKind::kBgp, std::move(speakers_ptr));

  const AsId beacon = mo.num_as - 1;
  const SimTime period = milliseconds(flags.get_int("period-ms"));
  const auto toggles = static_cast<std::int32_t>(flags.get_int("toggles"));
  speakers.schedule_beacon(engine, sim, beacon, seconds(10), period, toggles);

  manager.start(engine, sim);
  engine.run();

  std::printf("beacon AS %d: %d toggles every %.1f s starting at t=10 s\n",
              beacon, toggles, to_seconds(period));
  std::printf("protocol traffic: %llu updates in %llu batches;"
              " last table change at t=%.3f s\n",
              static_cast<unsigned long long>(speakers.updates_sent()),
              static_cast<unsigned long long>(speakers.batches_sent()),
              to_seconds(speakers.last_change()));

  std::printf("\nobservation points (when the last beacon event arrived):\n");
  std::printf("%4s %10s %18s %12s\n", "AS", "class", "last_heard(s)",
              "route_now");
  for (AsId a = 0; a < net.num_as(); ++a) {
    if (a == beacon) continue;
    const AsClass cls = net.as_info[static_cast<std::size_t>(a)].cls;
    const char* cls_name = cls == AsClass::kCore
                               ? "core"
                               : (cls == AsClass::kRegional ? "regional"
                                                            : "stub");
    const BgpRoute r = speakers.best_route(a, beacon);
    std::printf("%4d %10s %18.4f %12s\n", a, cls_name,
                to_seconds(speakers.last_change_for(a, beacon)),
                r.next_hop_as >= 0 ? "up" : "withdrawn");
  }
  return 0;
}
