// Microbenchmarks for the routing substrate: per-destination reverse-SPT
// computation (what makes 20k-router tables feasible), next-hop lookups in
// the packed tables, reconvergence after a link flap or a router crash,
// and the BGP policy fixed-point solve.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <numeric>
#include <utility>

#include "routing/bgp.hpp"
#include "routing/forwarding.hpp"
#include "routing/ospf.hpp"
#include "topology/brite.hpp"
#include "topology/mabrite.hpp"
#include "util/rng.hpp"

namespace {

using namespace massf;

void BM_OspfPerDestination(benchmark::State& state) {
  BriteOptions o;
  o.num_routers = static_cast<std::int32_t>(state.range(0));
  o.num_hosts = 10;
  o.seed = 9;
  const Network net = generate_flat(o);
  std::vector<NodeId> members(static_cast<std::size_t>(net.num_routers));
  std::iota(members.begin(), members.end(), NodeId{0});
  NodeId dest = 0;
  for (auto _ : state) {
    OspfDomain ospf(net, members, true);
    ospf.add_destination(dest);
    dest = (dest + 1) % net.num_routers;
    benchmark::DoNotOptimize(ospf.num_destinations());
  }
  state.SetLabel(std::to_string(o.num_routers) + " routers");
}
BENCHMARK(BM_OspfPerDestination)->Arg(2000)->Arg(20000)
    ->Unit(benchmark::kMillisecond);

// Next-hop lookups of a flat plane with Args {routers, destination
// routers}, the destinations a seeded sample of the routers: the
// hybrid_background shape (~1,600 at 2,000 routers) and 1,000 at 20,000.
// Each iteration looks up 2^16 (router, destination) pairs drawn at run
// time; items are lookups.
void BM_OspfLookup(benchmark::State& state) {
  BriteOptions o;
  o.num_routers = static_cast<std::int32_t>(state.range(0));
  o.num_hosts = 10;
  o.seed = 9;
  const Network net = generate_flat(o);
  std::vector<NodeId> dests(static_cast<std::size_t>(net.num_routers));
  std::iota(dests.begin(), dests.end(), NodeId{0});
  Rng rng(o.seed);
  rng.shuffle(dests);
  dests.resize(static_cast<std::size_t>(state.range(1)));
  const ForwardingPlane fp = ForwardingPlane::build_flat(net, dests);

  constexpr std::size_t kPairs = std::size_t{1} << 16;
  std::vector<std::pair<NodeId, NodeId>> pairs(kPairs);
  for (auto& [from, dest] : pairs) {
    from = static_cast<NodeId>(
        rng.uniform(static_cast<std::uint64_t>(net.num_routers)));
    dest = dests[rng.uniform(dests.size())];
  }
  for (auto _ : state) {
    std::int64_t sum = 0;
    for (const auto& [from, dest] : pairs) sum += fp.next_link(from, dest);
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kPairs));
  state.SetLabel(std::to_string(o.num_routers) + " routers, " +
                 std::to_string(dests.size()) + " dests");
}
BENCHMARK(BM_OspfLookup)->Args({2000, 1600})->Args({20000, 1000})
    ->Unit(benchmark::kMicrosecond);

// Reconvergence of a flat plane with Args {routers, destination routers,
// kind}: kind 0 flaps one router-router link, kind 1 crashes one router
// (every incident link down) and restores it. Each iteration takes the
// next link or router of a seeded shuffle and times the down batch and the
// up batch, each set_link_state + reconverge(); the down_ms and up_ms
// counters split the iteration time between them.
void BM_OspfReconverge(benchmark::State& state) {
  BriteOptions o;
  o.num_routers = static_cast<std::int32_t>(state.range(0));
  o.num_hosts = 10;
  o.seed = 9;
  const Network net = generate_flat(o);
  const auto num_dests = static_cast<std::size_t>(state.range(1));
  const NodeId stride = std::max<NodeId>(
      1, o.num_routers / static_cast<NodeId>(num_dests));
  std::vector<NodeId> dests;
  for (NodeId r = 0; r < net.num_routers && dests.size() < num_dests;
       r += stride) {
    dests.push_back(r);
  }
  ForwardingPlane fp = ForwardingPlane::build_flat(net, dests);

  const bool crash = state.range(2) == 1;
  std::vector<std::vector<LinkId>> batches;
  if (crash) {
    for (NodeId r = 0; r < net.num_routers; ++r) {
      std::vector<LinkId> links;
      for (const auto& inc : net.incident(r)) {
        if (net.is_router(inc.peer)) links.push_back(inc.link);
      }
      batches.push_back(std::move(links));
    }
  } else {
    for (LinkId l = 0; l < static_cast<LinkId>(net.links.size()); ++l) {
      const NetLink& link = net.links[static_cast<std::size_t>(l)];
      if (net.is_router(link.a) && net.is_router(link.b)) {
        batches.push_back({l});
      }
    }
  }
  Rng rng(o.seed);
  rng.shuffle(batches);

  using Clock = std::chrono::steady_clock;
  double down_s = 0, up_s = 0;
  std::size_t next = 0;
  for (auto _ : state) {
    const std::vector<LinkId>& links = batches[next++ % batches.size()];
    const auto t0 = Clock::now();
    for (const LinkId l : links) fp.set_link_state(l, false);
    fp.reconverge();
    const auto t1 = Clock::now();
    for (const LinkId l : links) fp.set_link_state(l, true);
    fp.reconverge();
    const auto t2 = Clock::now();
    down_s += std::chrono::duration<double>(t1 - t0).count();
    up_s += std::chrono::duration<double>(t2 - t1).count();
    benchmark::DoNotOptimize(fp.next_link(0, dests.back()));
  }
  state.counters["down_ms"] =
      benchmark::Counter(down_s * 1e3, benchmark::Counter::kAvgIterations);
  state.counters["up_ms"] =
      benchmark::Counter(up_s * 1e3, benchmark::Counter::kAvgIterations);
  state.SetLabel(std::to_string(o.num_routers) + " routers, " +
                 std::to_string(dests.size()) + " dests, " +
                 (crash ? "router crash/restore" : "link flap"));
}
// ~N/2 destinations at 2000 routers. At 20000 routers N/2 would mean
// 800 MB of tables and ~2 min of set-up per run, so 1000 destinations.
BENCHMARK(BM_OspfReconverge)
    ->Args({2000, 1000, 0})
    ->Args({2000, 1000, 1})
    ->Args({20000, 1000, 0})
    ->Args({20000, 1000, 1})
    ->Unit(benchmark::kMillisecond);

void BM_BgpSolve(benchmark::State& state) {
  MaBriteOptions o;
  o.num_as = static_cast<std::int32_t>(state.range(0));
  o.routers_per_as = 4;
  o.num_hosts = 10;
  o.seed = 9;
  const Network net = generate_multi_as(o);
  for (auto _ : state) {
    BgpSolver bgp(net.num_as(), net.as_adjacency);
    bgp.solve();
    benchmark::DoNotOptimize(bgp.iterations());
  }
  state.SetLabel(std::to_string(o.num_as) + " ASes");
}
BENCHMARK(BM_BgpSolve)->Arg(20)->Arg(100)->Arg(300)
    ->Unit(benchmark::kMillisecond);

void BM_TopologyGeneration(benchmark::State& state) {
  BriteOptions o;
  o.num_routers = static_cast<std::int32_t>(state.range(0));
  o.num_hosts = o.num_routers / 2;
  for (auto _ : state) {
    o.seed += 1;
    const Network net = generate_flat(o);
    benchmark::DoNotOptimize(net.links.size());
  }
}
BENCHMARK(BM_TopologyGeneration)->Arg(2000)->Arg(20000)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
