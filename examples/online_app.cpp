// Online simulation: a live application exchanges messages over the
// simulated network while the simulation is running — the MaSSF
// WrapSocket/Agent code path. An application thread ping-pongs a message
// between two hosts through VSockets; the engine paces virtual time
// against wall clock with a slowdown factor.
//
//   ./online_app [--rounds=N] [--bytes=N] [--slowdown=F]
#include <cstdio>
#include <thread>

#include "net/netsim.hpp"
#include "online/agent.hpp"
#include "online/vsocket.hpp"
#include "routing/forwarding.hpp"
#include "topology/brite.hpp"
#include "traffic/manager.hpp"
#include "util/flags.hpp"

int main(int argc, char** argv) {
  using namespace massf;
  FlagTable flags("online_app",
                  "A live application thread ping-pongs a message between "
                  "two simulated hosts through VSockets.");
  flags.add_int("rounds", 5, "ping-pong round trips");
  flags.add_int("bytes", 100000, "message size in bytes");
  flags.add_double("slowdown", 0,
                   "wall seconds per virtual second (0 = unpaced)");
  flags.parse_or_exit(argc, argv);
  const int rounds = static_cast<int>(flags.get_int("rounds"));
  const auto bytes = static_cast<std::uint32_t>(flags.get_int("bytes"));

  // A modest network with two endpoint hosts.
  BriteOptions bo;
  bo.num_routers = 200;
  bo.num_hosts = 8;
  bo.seed = 17;
  const Network net = generate_flat(bo);
  std::vector<NodeId> dests;
  for (NodeId h = net.num_routers; h < static_cast<NodeId>(net.nodes.size());
       ++h) {
    dests.push_back(net.nodes[static_cast<std::size_t>(h)].attach_router);
  }
  const ForwardingPlane fp = ForwardingPlane::build_flat(net, dests);

  EngineOptions eo;
  eo.lookahead = milliseconds(1);
  eo.end_time = seconds(600);
  Engine engine(eo);
  const std::vector<LpId> map(static_cast<std::size_t>(net.num_routers), 0);
  NetSim sim(net, fp, map, engine, NetSimOptions{});
  TrafficManager manager(sim);

  AgentOptions ao;
  ao.slowdown = flags.get_double("slowdown");
  auto agent_ptr = std::make_unique<Agent>(ao);
  Agent& agent = *agent_ptr;
  manager.add(TrafficKind::kOnline, std::move(agent_ptr));
  agent.attach(engine);
  manager.start(engine, sim);

  // Heartbeat so windows keep opening while the app thinks.
  sim.set_app_timer([](Engine& e, NetSim& s, NodeId host, std::uint64_t b,
                       std::uint64_t c) {
    s.schedule_app_timer(e, host, e.now() + milliseconds(5), b, c);
  });
  const NodeId ping_host = net.num_routers;
  const NodeId pong_host = net.num_routers + 1;
  sim.schedule_app_timer(engine, ping_host, milliseconds(1), 0, 0);

  // The "live application": runs on its own thread, like a wrapped
  // process would.
  std::thread app([&] {
    VSocket ping(agent, ping_host);
    VSocket pong(agent, pong_host);
    for (int r = 0; r < rounds; ++r) {
      ping.send(pong_host, bytes);
      auto d1 = pong.receive(30.0);
      if (!d1) {
        std::fprintf(stderr, "timeout waiting for ping %d\n", r);
        break;
      }
      pong.send(ping_host, bytes);
      auto d2 = ping.receive(30.0);
      if (!d2) {
        std::fprintf(stderr, "timeout waiting for pong %d\n", r);
        break;
      }
      std::printf("round %d: round-trip completed at virtual t=%.3f ms\n", r,
                  to_milliseconds(d2->virtual_time));
    }
    engine.request_stop();
  });

  engine.run();
  app.join();
  const auto c = sim.totals();
  std::printf("done: %llu live flows completed, %llu packets forwarded\n",
              static_cast<unsigned long long>(c.flows_completed),
              static_cast<unsigned long long>(c.forwarded));
  return 0;
}
