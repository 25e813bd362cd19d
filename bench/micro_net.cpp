// Microbenchmarks for the network layer: end-to-end simulated packet
// throughput (events/second of wall clock) through NetSim including
// forwarding lookups, queue model, and TCP processing — the constant that
// determines how much virtual time per second of wall clock the simulator
// delivers — and the fluid model's max-min water-fill as one recompute runs
// it: one flow leaves, one arrives, then a fill.
#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <vector>

#include "net/fluid_link.hpp"
#include "net/netsim.hpp"
#include "routing/forwarding.hpp"
#include "topology/brite.hpp"
#include "util/rng.hpp"

namespace {

using namespace massf;

void BM_NetSimTcpThroughput(benchmark::State& state) {
  BriteOptions o;
  o.num_routers = static_cast<std::int32_t>(state.range(0));
  o.num_hosts = 64;
  o.seed = 5;
  const Network net = generate_flat(o);
  std::vector<NodeId> dests;
  for (NodeId h = net.num_routers; h < static_cast<NodeId>(net.nodes.size());
       ++h) {
    dests.push_back(net.nodes[static_cast<std::size_t>(h)].attach_router);
  }
  const ForwardingPlane fp = ForwardingPlane::build_flat(net, dests);
  const std::vector<LpId> map(static_cast<std::size_t>(net.num_routers), 0);

  std::uint64_t events = 0;
  for (auto _ : state) {
    EngineOptions eo;
    eo.lookahead = milliseconds(1);
    eo.end_time = seconds(3600);
    Engine engine(eo);
    NetSim sim(net, fp, map, engine, NetSimOptions{});
    for (int i = 0; i < 32; ++i) {
      sim.start_flow(engine, milliseconds(1 + i),
                     net.num_routers + i,
                     net.num_routers + 32 + (i % 32), 500000,
                     static_cast<std::uint32_t>(i));
    }
    const RunStats stats = engine.run();
    events += stats.total_events;
    benchmark::DoNotOptimize(stats.total_events);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
  state.SetLabel(std::to_string(o.num_routers) + " routers");
}
BENCHMARK(BM_NetSimTcpThroughput)->Arg(200)->Arg(2000)
    ->Unit(benchmark::kMillisecond);

// The fluid model's steady state on the bench_e2e hybrid_background
// shape: flat BRITE with 2000 routers and 3500 hosts (~15k directed
// slots), 500 background flows registered from seeded sources to 100
// servers, and the servers' access links partly taken by packet traffic (a
// seeded 0-30% of their bandwidth). Each iteration is one recompute's
// water-fill work: the oldest flow leaves, a new one arrives, and the
// registered flows are filled. Capped at 1e7 bps a fill runs about 7
// bottleneck rounds, as hybrid_background's recomputes do on average;
// uncapped, about 100.
// Arg: the per-flow rate cap in bps, 0 = uncapped.
void BM_FluidWaterFill(benchmark::State& state) {
  constexpr int kServers = 100;
  constexpr std::size_t kFlows = 500;
  BriteOptions o;
  o.num_routers = 2000;
  o.num_hosts = 3500;
  o.seed = 2004;
  const Network net = generate_flat(o);
  std::vector<NodeId> dests;
  for (int k = 0; k < kServers; ++k) {
    dests.push_back(
        net.nodes[static_cast<std::size_t>(net.num_routers + k)].attach_router);
  }
  const ForwardingPlane fp = ForwardingPlane::build_flat(net, dests);

  Rng rng(7);
  const std::size_t slots = net.links.size() * 2;
  std::vector<double> cap(slots);
  for (std::size_t s = 0; s < slots; ++s) {
    cap[s] = net.links[s / 2].bandwidth_bps;
  }
  for (int k = 0; k < kServers; ++k) {
    const auto server = static_cast<NodeId>(net.num_routers + k);
    for (const auto& inc : net.incident(server)) {
      for (const std::size_t s : {static_cast<std::size_t>(inc.link) * 2,
                                  static_cast<std::size_t>(inc.link) * 2 + 1}) {
        cap[s] *= 1.0 - rng.uniform_real(0, 0.3);
      }
    }
  }
  // Arrivals cycle through a pool of routes four times the registered
  // count, so an arriving route is never one still registered.
  std::vector<std::vector<std::uint32_t>> paths(4 * kFlows);
  for (auto& path : paths) {
    const auto src = static_cast<NodeId>(
        net.num_routers + kServers + rng.uniform(o.num_hosts - kServers));
    const auto dst = static_cast<NodeId>(net.num_routers + rng.uniform(kServers));
    route_slots(net, fp, src, dst, path);
  }
  WaterFill water_fill(slots);
  std::vector<std::uint32_t> handles(kFlows);  // registered flows, by age
  for (std::size_t i = 0; i < kFlows; ++i) {
    handles[i] = water_fill.add(paths[i]);
  }
  const double rate_cap = static_cast<double>(state.range(0));
  std::size_t oldest = 0;
  std::size_t next = kFlows;
  for (auto _ : state) {
    water_fill.remove(handles[oldest]);
    handles[oldest] = water_fill.add(paths[next]);
    oldest = (oldest + 1) % kFlows;
    next = (next + 1) % paths.size();
    const std::vector<double>& rates = water_fill.fill(
        [&cap](std::uint32_t s) { return cap[s]; }, rate_cap);
    benchmark::DoNotOptimize(rates.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kFlows));
  state.SetLabel(std::to_string(slots) + " slots, " +
                 std::to_string(water_fill.loaded_slots().size()) +
                 " loaded, " + (rate_cap > 0 ? "capped" : "uncapped"));
}
BENCHMARK(BM_FluidWaterFill)->Arg(10000000)->Arg(0)
    ->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
