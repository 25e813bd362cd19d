// Hybrid-fidelity benchmark: the packet model vs the fluid fast path on
// the same fig06-shaped flat topology (BRITE preferential attachment)
// carrying the same background-flow workload (traffic/background.hpp) plus
// a small packet-level HTTP foreground that exercises the flow<->packet
// coupling at shared links.
//
// Two questions, one report:
//
//   * Fidelity: at the base scale, how far do the hybrid run's aggregate
//     flow statistics (mean duration, mean goodput, completion count)
//     drift from the packet-level reference? (Paper-fidelity packet TCP is
//     the ground truth; the fluid model trades its slow-start/RTT detail
//     for event volume.)
//   * Scale: how many more background sources can the hybrid model carry
//     at the packet run's event budget? Events are what the modeled wall
//     clock charges (cost_per_event x max-LP), so events-at-equal-budget
//     is the machine-independent form of "simulated hosts at equal wall
//     clock"; measured wall times ride along for context.
//
// Output (--out): massf.bench_hybrid.v1 JSON, gated in nightly CI by
// scripts/check_bench.py (host-scale floor and fidelity-error ceiling).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "net/netsim.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "routing/forwarding.hpp"
#include "topology/brite.hpp"
#include "traffic/background.hpp"
#include "traffic/http.hpp"
#include "traffic/manager.hpp"
#include "util/flags.hpp"

namespace massf {
namespace {

struct Scale {
  std::int32_t routers = 200;
  std::int32_t servers = 40;
  std::int32_t clients = 10;        ///< packet HTTP foreground
  std::int32_t base_sources = 50;   ///< background sources at multiplier 1
  std::vector<std::int32_t> multipliers = {1, 10, 30};
  SimTime end = seconds(10);
  double mean_bytes = 1e6;
  double think_s = 5.0;
  std::uint64_t seed = 42;
};

struct Endpoints {
  std::vector<NodeId> servers;
  std::vector<NodeId> clients;
  std::vector<NodeId> sources;  ///< the full pool; runs use a prefix
};

struct BenchRun {
  const char* fidelity;
  std::int32_t sources;
  double wall_s = 0;
  std::uint64_t events = 0;
  std::uint64_t windows = 0;
  double modeled_wall_s = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  double mean_duration_s = 0;
  double mean_goodput_bps = 0;
};

BenchRun run_once(const Scale& s, const Network& net,
                  const ForwardingPlane& fp, const Endpoints& ep,
                  LinkModelKind kind, std::int32_t num_sources) {
  EngineOptions eo;
  eo.lookahead = milliseconds(1);
  eo.end_time = s.end;
  Engine engine(eo);

  NetSimOptions no;
  no.collect_flow_records = true;
  no.link_model.kind = kind;
  // Per-flow ceiling calibrated to the packet model: Reno with a 64 KB
  // ssthresh on these RTTs sustains ~window/RTT ~ 10 Mbps per flow, so
  // uncapped fluid flows would finish ~10x too fast on idle links.
  no.link_model.fluid_flow_rate_cap_bps = 1e7;
  const std::vector<LpId> router_lp(static_cast<std::size_t>(net.num_routers),
                                    0);
  NetSim sim(net, fp, router_lp, engine, no);

  TrafficManager manager(sim);
  BackgroundOptions bg;
  bg.think_time_mean_s = s.think_s;
  bg.flow_mean_bytes = s.mean_bytes;
  bg.seed = s.seed ^ 0x42474644;
  const std::vector<NodeId> sources(ep.sources.begin(),
                                    ep.sources.begin() + num_sources);
  manager.add(TrafficKind::kBackground, std::make_unique<BackgroundWorkload>(
                                            sources, ep.servers, bg));
  HttpOptions http;
  http.seed = s.seed ^ 0x48545450;
  manager.add(TrafficKind::kHttp, std::make_unique<HttpWorkload>(
                                      ep.clients, ep.servers, http));
  manager.start(engine, sim);

  const auto t0 = std::chrono::steady_clock::now();
  const RunStats stats = engine.run();
  const auto t1 = std::chrono::steady_clock::now();

  BenchRun r;
  r.fidelity = kind == LinkModelKind::kHybrid ? "hybrid" : "packet";
  r.sources = num_sources;
  r.wall_s = std::chrono::duration<double>(t1 - t0).count();
  r.events = stats.total_events;
  r.windows = stats.num_windows;
  r.modeled_wall_s = stats.modeled_wall_s;
  double dur_sum = 0;
  double gp_sum = 0;
  for (const FlowRecord& rec : sim.flow_records()) {
    if (tag_kind(rec.tag) != TrafficKind::kBackground) continue;
    if (rec.failed) {
      ++r.failed;
      continue;
    }
    ++r.completed;
    dur_sum += rec.duration_s();
    gp_sum += rec.goodput_bps();
  }
  if (r.completed > 0) {
    r.mean_duration_s = dur_sum / static_cast<double>(r.completed);
    r.mean_goodput_bps = gp_sum / static_cast<double>(r.completed);
  }
  return r;
}

double rel_err(double value, double reference) {
  return reference > 0 ? std::abs(value - reference) / reference : 0.0;
}

std::string run_json(const BenchRun& r) {
  char buf[512];
  std::snprintf(
      buf, sizeof buf,
      "    {\"fidelity\": \"%s\", \"sources\": %d, \"wall_s\": %s, "
      "\"events\": %llu, \"windows\": %llu, \"modeled_wall_s\": %s,\n"
      "     \"completed\": %llu, \"failed\": %llu, \"mean_duration_s\": %s, "
      "\"mean_goodput_bps\": %s}",
      r.fidelity, r.sources, obs::format_double(r.wall_s).c_str(),
      static_cast<unsigned long long>(r.events),
      static_cast<unsigned long long>(r.windows),
      obs::format_double(r.modeled_wall_s).c_str(),
      static_cast<unsigned long long>(r.completed),
      static_cast<unsigned long long>(r.failed),
      obs::format_double(r.mean_duration_s).c_str(),
      obs::format_double(r.mean_goodput_bps).c_str());
  return buf;
}

}  // namespace
}  // namespace massf

int main(int argc, char** argv) {
  using namespace massf;

  FlagTable flags("bench_hybrid",
                  "Packet vs hybrid link-model host-count sweep and "
                  "fidelity comparison; emits massf.bench_hybrid.v1 JSON.");
  flags.add_string("out", "bench_hybrid.json", "JSON report path");
  flags.add_bool("smoke", false, "reduced scale for the test tier");
  flags.parse_or_exit(argc, argv);

  Scale s;
  if (flags.get_bool("smoke")) {
    s.routers = 60;
    s.servers = 8;
    s.clients = 4;
    s.base_sources = 8;
    s.multipliers = {1, 10};
    s.end = seconds(3);
  }

  const std::int32_t max_mult =
      *std::max_element(s.multipliers.begin(), s.multipliers.end());
  const std::int32_t num_hosts =
      s.servers + s.clients + s.base_sources * max_mult;

  BriteOptions bo;
  bo.num_routers = s.routers;
  bo.num_hosts = num_hosts;
  bo.seed = s.seed;
  const Network net = generate_flat(bo);

  Endpoints ep;
  for (NodeId h = net.num_routers;
       h < net.num_routers + static_cast<NodeId>(num_hosts); ++h) {
    if (static_cast<std::int32_t>(ep.servers.size()) < s.servers) {
      ep.servers.push_back(h);
    } else if (static_cast<std::int32_t>(ep.clients.size()) < s.clients) {
      ep.clients.push_back(h);
    } else {
      ep.sources.push_back(h);
    }
  }
  std::vector<NodeId> dests;
  for (const auto* group : {&ep.servers, &ep.clients, &ep.sources}) {
    for (const NodeId h : *group) {
      dests.push_back(net.nodes[static_cast<std::size_t>(h)].attach_router);
    }
  }
  std::sort(dests.begin(), dests.end());
  dests.erase(std::unique(dests.begin(), dests.end()), dests.end());
  const ForwardingPlane fp = ForwardingPlane::build_flat(net, dests);

  // Base-scale fidelity pair: same workload, both models.
  std::fprintf(stderr, "[bench_hybrid] packet reference (%d sources)...\n",
               s.base_sources);
  const BenchRun packet_base =
      run_once(s, net, fp, ep, LinkModelKind::kPacket, s.base_sources);
  std::vector<BenchRun> runs = {packet_base};
  for (const std::int32_t m : s.multipliers) {
    std::fprintf(stderr, "[bench_hybrid] hybrid at %dx (%d sources)...\n", m,
                 s.base_sources * m);
    runs.push_back(run_once(s, net, fp, ep, LinkModelKind::kHybrid,
                            s.base_sources * m));
  }
  const BenchRun& hybrid_base = runs[1];

  // Host scale at equal event budget: the largest swept multiplier whose
  // hybrid run stays within the packet reference's event count (events
  // drive the modeled wall clock: cost_per_event x max-LP per window).
  std::int32_t host_scale = 0;
  for (std::size_t i = 0; i < s.multipliers.size(); ++i) {
    if (runs[i + 1].events <= packet_base.events) {
      host_scale = s.multipliers[i];
    }
  }
  const double duration_err =
      rel_err(hybrid_base.mean_duration_s, packet_base.mean_duration_s);
  const double goodput_err =
      rel_err(hybrid_base.mean_goodput_bps, packet_base.mean_goodput_bps);
  const double completed_err =
      rel_err(static_cast<double>(hybrid_base.completed),
              static_cast<double>(packet_base.completed));
  const double event_ratio =
      hybrid_base.events > 0 ? static_cast<double>(packet_base.events) /
                                   static_cast<double>(hybrid_base.events)
                             : 0.0;

  for (const BenchRun& r : runs) {
    std::printf("%-6s sources=%5d  events=%10llu  wall=%7.3f s  "
                "completed=%6llu  mean_dur=%.3f s\n",
                r.fidelity, r.sources,
                static_cast<unsigned long long>(r.events), r.wall_s,
                static_cast<unsigned long long>(r.completed),
                r.mean_duration_s);
  }
  std::printf("host_scale(equal events) = %dx   event_ratio = %.1fx\n",
              host_scale, event_ratio);
  std::printf("fidelity err: duration %.3f  goodput %.3f  completed %.3f\n",
              duration_err, goodput_err, completed_err);

  std::string json = "{\n  \"schema\": \"massf.bench_hybrid.v1\",\n";
  char head[512];
  std::snprintf(
      head, sizeof head,
      "  \"base_sources\": %d,\n"
      "  \"host_scale\": %d,\n"
      "  \"event_ratio\": %s,\n"
      "  \"duration_err\": %s,\n"
      "  \"goodput_err\": %s,\n"
      "  \"completed_err\": %s,\n"
      "  \"runs\": [\n",
      s.base_sources, host_scale, obs::format_double(event_ratio).c_str(),
      obs::format_double(duration_err).c_str(),
      obs::format_double(goodput_err).c_str(),
      obs::format_double(completed_err).c_str());
  json += head;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    json += run_json(runs[i]);
    json += i + 1 < runs.size() ? ",\n" : "\n";
  }
  json += "  ]\n}\n";

  const std::string out = flags.get_string("out");
  if (!obs::write_file(out, json)) {
    std::fprintf(stderr, "cannot write %s\n", out.c_str());
    return 1;
  }
  std::fprintf(stderr, "[bench_hybrid] wrote %s\n", out.c_str());
  return 0;
}
