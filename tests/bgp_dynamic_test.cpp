#include <gtest/gtest.h>

#include <memory>

#include "net/netsim.hpp"
#include "routing/bgp.hpp"
#include "routing/bgp_dynamic.hpp"
#include "routing/forwarding.hpp"
#include "topology/mabrite.hpp"
#include "traffic/manager.hpp"

namespace massf {
namespace {

struct Fixture {
  explicit Fixture(std::int32_t num_as = 12, std::uint64_t seed = 5,
                   std::int32_t lps = 1, SimTime end = seconds(30),
                   const BgpDynamicOptions& bgp_opts = BgpDynamicOptions{}) {
    MaBriteOptions o;
    o.num_as = num_as;
    o.routers_per_as = 6;
    o.num_hosts = 10;
    o.seed = seed;
    net = generate_multi_as(o);
    speaker_hosts = add_bgp_speaker_hosts(net);

    std::vector<NodeId> dests;
    for (NodeId h : speaker_hosts) {
      dests.push_back(net.nodes[static_cast<std::size_t>(h)].attach_router);
    }
    fp = std::make_unique<ForwardingPlane>(
        ForwardingPlane::build_multi_as(net, dests));

    std::vector<LpId> map(static_cast<std::size_t>(net.num_routers), 0);
    SimTime lookahead = milliseconds(10);
    if (lps > 1) {
      // Partition by AS blocks; lookahead = min cross-LP link latency.
      for (NodeId r = 0; r < net.num_routers; ++r) {
        const AsId a = net.nodes[static_cast<std::size_t>(r)].as_id;
        map[static_cast<std::size_t>(r)] = a % lps;
      }
      lookahead = kSimTimeMax;
      for (const NetLink& l : net.links) {
        if (net.is_router(l.a) && net.is_router(l.b) &&
            map[static_cast<std::size_t>(l.a)] !=
                map[static_cast<std::size_t>(l.b)]) {
          lookahead = std::min(lookahead, l.latency);
        }
      }
    }
    EngineOptions eo;
    eo.lookahead = lookahead;
    eo.end_time = end;
    engine = std::make_unique<Engine>(eo);
    sim = std::make_unique<NetSim>(net, *fp, map, *engine, NetSimOptions{});
    manager = std::make_unique<TrafficManager>(*sim);
    auto speakers_ptr =
        std::make_unique<BgpSpeakers>(net, speaker_hosts, bgp_opts);
    speakers = speakers_ptr.get();
    manager->add(TrafficKind::kBgp, std::move(speakers_ptr));
  }

  void run(bool threaded = false) {
    manager->start(*engine, *sim);
    if (threaded) {
      engine->run_threaded(2);
    } else {
      engine->run();
    }
  }

  Network net;
  std::vector<NodeId> speaker_hosts;
  std::unique_ptr<ForwardingPlane> fp;
  std::unique_ptr<Engine> engine;
  std::unique_ptr<NetSim> sim;
  std::unique_ptr<TrafficManager> manager;
  BgpSpeakers* speakers = nullptr;
};

TEST(BgpDynamic, SpeakerHostsAttached) {
  Fixture f;
  ASSERT_EQ(f.speaker_hosts.size(), static_cast<std::size_t>(f.net.num_as()));
  for (AsId a = 0; a < f.net.num_as(); ++a) {
    const NodeId h = f.speaker_hosts[static_cast<std::size_t>(a)];
    EXPECT_TRUE(f.net.is_host(h));
    EXPECT_EQ(f.net.nodes[static_cast<std::size_t>(h)].as_id, a);
  }
  EXPECT_EQ(f.net.validate(), "");
}

TEST(BgpDynamic, ConvergesToStaticSolver) {
  Fixture f(12, 5);
  f.run();
  ASSERT_GT(f.speakers->updates_sent(), 0u);
  ASSERT_GT(f.speakers->last_change(), 0);
  // The protocol's adopted tables must equal the static fixed point.
  BgpSolver solver(f.net.num_as(), f.net.as_adjacency);
  solver.solve();
  for (AsId a = 0; a < f.net.num_as(); ++a) {
    for (AsId b = 0; b < f.net.num_as(); ++b) {
      if (a == b) continue;
      const BgpRoute& stat = solver.route(a, b);
      const BgpRoute dyn = f.speakers->best_route(a, b);
      EXPECT_EQ(dyn.next_hop_as, stat.next_hop_as) << a << "->" << b;
      if (stat.next_hop_as >= 0) {
        EXPECT_EQ(dyn.path_len, stat.path_len) << a << "->" << b;
        EXPECT_EQ(f.speakers->as_path(a, b), solver.as_path(a, b))
            << a << "->" << b;
      }
    }
  }
}

TEST(BgpDynamic, ConvergesOnDifferentTopologies) {
  for (const std::uint64_t seed : {11ull, 23ull, 99ull}) {
    Fixture f(10, seed);
    f.run();
    BgpSolver solver(f.net.num_as(), f.net.as_adjacency);
    solver.solve();
    int mismatches = 0;
    for (AsId a = 0; a < f.net.num_as(); ++a) {
      for (AsId b = 0; b < f.net.num_as(); ++b) {
        if (a == b) continue;
        mismatches +=
            f.speakers->best_route(a, b).next_hop_as !=
            solver.route(a, b).next_hop_as;
      }
    }
    EXPECT_EQ(mismatches, 0) << "seed " << seed;
  }
}

TEST(BgpDynamic, ThreadedMatchesSequential) {
  const auto run_once = [](bool threaded) {
    Fixture f(10, 7, /*lps=*/2);
    f.run(threaded);
    std::vector<AsId> hops;
    for (AsId a = 0; a < f.net.num_as(); ++a) {
      for (AsId b = 0; b < f.net.num_as(); ++b) {
        hops.push_back(f.speakers->best_route(a, b).next_hop_as);
      }
    }
    hops.push_back(static_cast<AsId>(f.speakers->updates_sent()));
    return hops;
  };
  EXPECT_EQ(run_once(false), run_once(true));
}

TEST(BgpDynamic, WithdrawalPropagates) {
  Fixture f(10, 5, 1, seconds(60));
  const AsId victim = f.net.num_as() - 1;
  // Withdraw the victim's prefix after initial convergence; never restore.
  f.speakers->schedule_origination(*f.engine, *f.sim, victim, seconds(10),
                                   /*announce=*/false);
  f.run();
  for (AsId a = 0; a < f.net.num_as(); ++a) {
    if (a == victim) continue;
    EXPECT_EQ(f.speakers->best_route(a, victim).next_hop_as, -1)
        << "AS " << a << " still routes to the withdrawn prefix";
    // Other prefixes are untouched.
    int reachable_others = 0;
    for (AsId b = 0; b < f.net.num_as(); ++b) {
      if (b == a || b == victim) continue;
      reachable_others +=
          f.speakers->best_route(a, b).next_hop_as >= 0;
    }
    EXPECT_GT(reachable_others, 0);
  }
}

TEST(BgpDynamic, BeaconReannounceRestoresRoutes) {
  Fixture f(10, 5, 1, seconds(120));
  const AsId beacon = f.net.num_as() - 1;
  // Withdraw at 10 s, re-announce at 25 s.
  f.speakers->schedule_origination(*f.engine, *f.sim, beacon, seconds(10),
                                   /*announce=*/false);
  f.speakers->schedule_origination(*f.engine, *f.sim, beacon, seconds(25),
                                   /*announce=*/true);
  f.run();
  BgpSolver solver(f.net.num_as(), f.net.as_adjacency);
  solver.solve();
  for (AsId a = 0; a < f.net.num_as(); ++a) {
    if (a == beacon) continue;
    EXPECT_EQ(f.speakers->best_route(a, beacon).next_hop_as,
              solver.route(a, beacon).next_hop_as);
    // Every AS that has a route heard about the beacon activity after the
    // re-announcement instant.
    if (solver.route(a, beacon).next_hop_as >= 0) {
      EXPECT_GT(f.speakers->last_change_for(a, beacon), seconds(25));
    }
  }
}

TEST(BgpDynamic, MraiStillConvergesToStaticSolver) {
  BgpDynamicOptions bo;
  bo.mrai = milliseconds(500);
  Fixture f(10, 5, 1, seconds(120), bo);
  f.run();
  BgpSolver solver(f.net.num_as(), f.net.as_adjacency);
  solver.solve();
  for (AsId a = 0; a < f.net.num_as(); ++a) {
    for (AsId b = 0; b < f.net.num_as(); ++b) {
      if (a == b) continue;
      EXPECT_EQ(f.speakers->best_route(a, b).next_hop_as,
                solver.route(a, b).next_hop_as)
          << a << "->" << b;
    }
  }
}

TEST(BgpDynamic, MraiReducesMessageCountAndSlowsConvergence) {
  const auto run_with = [](SimTime mrai) {
    BgpDynamicOptions bo;
    bo.mrai = mrai;
    Fixture f(12, 5, 1, seconds(240), bo);
    f.run();
    return std::make_pair(f.speakers->batches_sent(),
                          f.speakers->last_change());
  };
  const auto fast = run_with(0);
  const auto damped = run_with(seconds(1));
  EXPECT_LT(damped.first, fast.first);
  EXPECT_GT(damped.second, fast.second);
}

TEST(BgpDynamic, SessionResetWithdrawsWhileDown) {
  // End the run while the session is still torn down: neither endpoint may
  // route via the other, and prefixes whose only path crossed the session
  // are withdrawn network-wide.
  Fixture f(10, 5, 1, seconds(14));
  // Pick an adjacency that actually carries traffic in the fixed point.
  BgpSolver solver(f.net.num_as(), f.net.as_adjacency);
  solver.solve();
  AsId as_a = -1, as_b = -1;
  for (const AsAdjacency& adj : f.net.as_adjacency) {
    for (AsId dest = 0; dest < f.net.num_as(); ++dest) {
      if (solver.route(adj.as_a, dest).next_hop_as == adj.as_b) {
        as_a = adj.as_a;
        as_b = adj.as_b;
        break;
      }
    }
    if (as_a >= 0) break;
  }
  ASSERT_GE(as_a, 0) << "no adjacency carries a best route";

  // Down at 10 s; the 60 s re-establishment is beyond the horizon.
  f.speakers->schedule_session_reset(*f.engine, *f.sim, as_a, as_b,
                                     seconds(10), seconds(60));
  f.run();
  EXPECT_EQ(f.speakers->session_resets(), 2u);
  for (AsId dest = 0; dest < f.net.num_as(); ++dest) {
    EXPECT_NE(f.speakers->best_route(as_a, dest).next_hop_as, as_b)
        << "AS " << as_a << " still routes to " << dest << " via the peer";
    EXPECT_NE(f.speakers->best_route(as_b, dest).next_hop_as, as_a)
        << "AS " << as_b << " still routes to " << dest << " via the peer";
  }
}

TEST(BgpDynamic, SessionResetReconvergesToStaticSolver) {
  // Down at 10 s, re-established at 15 s; by the horizon the full-table
  // re-advertisement must restore the static solver's fixed point exactly,
  // and any in-flight batch from the old session incarnation must have
  // been discarded rather than replayed into the fresh RIB.
  Fixture f(10, 5, 1, seconds(120));
  const AsAdjacency& adj = f.net.as_adjacency.front();
  f.speakers->schedule_session_reset(*f.engine, *f.sim, adj.as_a, adj.as_b,
                                     seconds(10), seconds(5));
  f.run();
  EXPECT_EQ(f.speakers->session_resets(), 2u);
  EXPECT_GT(f.speakers->last_change(), seconds(10));
  BgpSolver solver(f.net.num_as(), f.net.as_adjacency);
  solver.solve();
  for (AsId a = 0; a < f.net.num_as(); ++a) {
    for (AsId b = 0; b < f.net.num_as(); ++b) {
      if (a == b) continue;
      EXPECT_EQ(f.speakers->best_route(a, b).next_hop_as,
                solver.route(a, b).next_hop_as)
          << a << "->" << b;
      if (solver.route(a, b).next_hop_as >= 0) {
        EXPECT_EQ(f.speakers->as_path(a, b), solver.as_path(a, b))
            << a << "->" << b;
      }
    }
  }
}

TEST(BgpDynamic, SessionResetBitIdenticalAcrossExecutors) {
  const auto run_once = [](bool threaded) {
    Fixture f(10, 7, /*lps=*/2, seconds(120));
    const AsAdjacency& adj = f.net.as_adjacency.front();
    f.speakers->schedule_session_reset(*f.engine, *f.sim, adj.as_a,
                                       adj.as_b, seconds(10), seconds(5));
    f.run(threaded);
    std::vector<std::int64_t> sig;
    for (AsId a = 0; a < f.net.num_as(); ++a) {
      for (AsId b = 0; b < f.net.num_as(); ++b) {
        sig.push_back(f.speakers->best_route(a, b).next_hop_as);
        sig.push_back(f.speakers->last_change_for(a, b));
      }
    }
    sig.push_back(static_cast<std::int64_t>(f.speakers->updates_sent()));
    sig.push_back(
        static_cast<std::int64_t>(f.speakers->stale_batches_dropped()));
    sig.push_back(f.speakers->last_change());
    return sig;
  };
  EXPECT_EQ(run_once(false), run_once(true));
}

TEST(BgpDynamic, ConvergenceTimeReasonable) {
  Fixture f(12, 5);
  f.run();
  // Everything should settle well before the horizon (small network, fast
  // links); convergence time is positive and finite.
  EXPECT_GT(f.speakers->last_change(), 0);
  EXPECT_LT(f.speakers->last_change(), seconds(10));
}

}  // namespace
}  // namespace massf
