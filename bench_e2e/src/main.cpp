// One study of the paper pipeline, timed phase by phase.
//
// A study is what the paper runs per {network, application, mapping}: build
// the Scenario (topology + forwarding plane), run the profiling run, compute
// the HPROF mapping, run it on the sequential executor, then rerun it on the
// threaded executor with two workers. Each measured run is a *cell*; every
// cell gets a signature of what the simulation computed (events, windows,
// NetSim counters, modeled T and load imbalance) so run.py can check
// sequential == threaded and compare against the committed reference.
//
//   bench_e2e --workload NAME --seed N [--scale full|smoke] [--trace 0|1]
//
// Prints one JSON object on stdout. With --trace 1 the measured runs carry
// a metrics registry and a window probe, and the object gains a "layers"
// section with per-layer numbers (see bench_e2e/README.md).
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "fault/injector.hpp"
#include "obs/metrics.hpp"
#include "obs/probe.hpp"
#include "sim/scenario.hpp"
#include "util/rng.hpp"

#ifndef MASSF_BUILD_TYPE
#define MASSF_BUILD_TYPE "unknown"
#endif

namespace massf {
namespace {

using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

constexpr std::int32_t kThreadedWorkers = 2;

/// The one mapping every workload runs, sequentially and then threaded.
/// One mapping keeps a study short enough that a run averages over
/// several topologies.
constexpr MappingKind kMapping = MappingKind::kHProf;

// ---- workloads -------------------------------------------------------------

struct Workload {
  ScenarioOptions options;
  /// link_flaps only: router-router links flapped once each (two
  /// link-state changes per link), beside one router crash/restore.
  std::int32_t flapped_links = 0;
};

/// Both workloads start from the fig06 shape: flat BRITE, closed-loop HTTP
/// clients with 0.4 s think time, ScaLapack, 24 engines, 3 s profile and
/// 8 s measured.
bool make_workload(const std::string& name, std::uint64_t seed, bool smoke,
                   Workload* w) {
  ScenarioOptions& o = w->options;
  o.num_routers = smoke ? 200 : 2000;
  o.num_hosts = smoke ? 100 : 1000;
  o.num_clients = smoke ? 40 : 400;
  o.num_servers = smoke ? 10 : 100;
  o.num_engines = smoke ? 8 : 24;
  o.end_time = seconds(smoke ? 2 : 8);
  o.profile_end_time = seconds(smoke ? 1 : 3);
  o.http.think_time_mean_s = 0.4;
  o.seed = seed;
  o.app = AppKind::kScaLapack;
  o.num_app_hosts = 16;

  if (name == "hybrid_background") {
    o.app = AppKind::kNone;
    o.num_bg_sources = smoke ? 100 : 3000;
    o.num_hosts = o.num_clients + o.num_servers + o.num_bg_sources;
    o.netsim.link_model.kind = LinkModelKind::kHybrid;
    o.netsim.link_model.fluid_flow_rate_cap_bps = 1e7;
    return true;
  }
  if (name == "link_flaps") {
    // Sized so reconvergence is about half of the measured run.
    w->flapped_links = smoke ? 2 : 4;
    return true;
  }
  return false;
}

/// One seeded router crash/restore plus one flap on each of
/// `flapped_links` distinct router-router links, all settled (restored and
/// reconverged) a second before the horizon so the forwarding plane ends
/// every run as it started.
FaultSchedule make_faults(const Workload& w, const Network& net) {
  FaultSchedule schedule;
  if (w.flapped_links == 0) return schedule;
  Rng rng = Rng(w.options.seed).fork("bench_e2e.faults");
  const double first_s = 0.5;
  const double last_s = to_seconds(w.options.end_time) - 1.0;

  const auto crashed = static_cast<NodeId>(
      rng.uniform(static_cast<std::uint64_t>(net.num_routers)));
  const double crash_s = rng.uniform_real(first_s, last_s - 0.5);
  schedule.router_crash(from_seconds(crash_s), crashed);
  schedule.router_restore(from_seconds(crash_s + 0.5), crashed);

  std::vector<LinkId> candidates;
  for (LinkId l = 0; l < static_cast<LinkId>(net.links.size()); ++l) {
    const NetLink& link = net.links[static_cast<std::size_t>(l)];
    if (net.is_router(link.a) && net.is_router(link.b) && link.a != crashed &&
        link.b != crashed) {
      candidates.push_back(l);
    }
  }
  rng.shuffle(candidates);
  const double downtime_s = 0.15;
  const auto links = std::min<std::size_t>(
      static_cast<std::size_t>(w.flapped_links), candidates.size());
  for (std::size_t i = 0; i < links; ++i) {
    const double down_s = rng.uniform_real(first_s, last_s - downtime_s);
    schedule.link_down(from_seconds(down_s), candidates[i]);
    schedule.link_up(from_seconds(down_s + downtime_s), candidates[i]);
  }
  return schedule;
}

// ---- JSON output -------------------------------------------------------------

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string num(std::uint64_t v) { return std::to_string(v); }

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

/// Ordered "key": value list rendered as one JSON object.
class Object {
 public:
  Object& raw(const std::string& key, const std::string& json) {
    fields_.emplace_back(key, json);
    return *this;
  }
  Object& put(const std::string& key, double v) { return raw(key, num(v)); }
  Object& put(const std::string& key, std::uint64_t v) {
    return raw(key, num(v));
  }
  Object& put(const std::string& key, bool v) {
    return raw(key, v ? "true" : "false");
  }
  Object& put(const std::string& key, const std::string& v) {
    return raw(key, quoted(v));
  }
  Object& put(const std::string& key, const char* v) {
    return raw(key, quoted(v));
  }
  std::string str() const {
    std::string out = "{";
    for (std::size_t i = 0; i < fields_.size(); ++i) {
      if (i > 0) out += ", ";
      out += quoted(fields_[i].first) + ": " + fields_[i].second;
    }
    return out + "}";
  }

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

std::string signature(const ExperimentResult& r) {
  const NetSim::Counters& c = r.counters;
  Object o;
  o.put("events", r.stats.total_events)
      .put("windows", r.stats.num_windows)
      .put("forwarded", c.forwarded)
      .put("delivered", c.delivered)
      .put("acks", c.acks)
      .put("dropped_queue", c.dropped_queue)
      .put("dropped_no_route", c.dropped_no_route)
      .put("dropped_link_down", c.dropped_link_down)
      .put("dropped_node_down", c.dropped_node_down)
      .put("dropped_loss", c.dropped_loss)
      .put("app_timers_dropped", c.app_timers_dropped)
      .put("retransmits", c.retransmits)
      .put("flows_started", c.flows_started)
      .put("flows_completed", c.flows_completed)
      .put("flows_failed", c.flows_failed)
      .put("udp_delivered", c.udp_delivered)
      .put("modeled_T_s", r.metrics.simulation_time_s)
      .put("load_imbalance", r.metrics.load_imbalance);
  return o.str();
}

// ---- run stamp ---------------------------------------------------------------

int host_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) return CPU_COUNT(&set);
  return 1;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

#ifdef __OPTIMIZE__
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif
#ifdef NDEBUG
constexpr bool kNdebug = true;
#else
constexpr bool kNdebug = false;
#endif

std::string stamp(const std::string& workload, std::uint64_t seed,
                  const std::string& scale) {
  const int cpus = host_cpus();
  Object o;
  o.put("host_cpus", static_cast<std::uint64_t>(cpus))
      .put("build_type", MASSF_BUILD_TYPE)
      .put("optimized", kOptimized)
      .put("ndebug", kNdebug)
      .put("compiler", std::string("gcc ") + __VERSION__)
      .put("workload", workload)
      .put("seed", seed)
      .put("scale", scale)
      .put("workers", static_cast<std::uint64_t>(kThreadedWorkers))
      .put("oversubscribed", cpus < 3);
  return o.str();
}

// ---- the study -----------------------------------------------------------------

using CounterMap = std::map<std::string, std::uint64_t>;

CounterMap counters_of(const obs::Registry& registry) {
  CounterMap out;
  for (const auto& [name, value] : registry.counters()) out[name] = value;
  return out;
}

double gauge_of(const obs::Registry& registry, const std::string& name) {
  for (const auto& [n, value] : registry.gauges()) {
    if (n == name) return value;
  }
  return 0;
}

double ratio(double part, double whole) { return whole > 0 ? part / whole : 0; }

struct Cell {
  bool threaded = false;
  bool ok = false;
  std::string error;
  double wall_s = 0;
  ExperimentResult result;
  obs::WindowProbe::Summary probe;  ///< this cell's share (traced only)
  CounterMap counters;              ///< registry deltas (traced only)
  double heap_peak = 0;
  std::uint64_t faults = 0;
};

obs::WindowProbe::Summary minus(const obs::WindowProbe::Summary& a,
                                const obs::WindowProbe::Summary& b) {
  obs::WindowProbe::Summary d;
  d.windows = a.windows - b.windows;
  d.events = a.events - b.events;
  d.hook_s = a.hook_s - b.hook_s;
  d.process_s = a.process_s - b.process_s;
  d.barrier_wait_s = a.barrier_wait_s - b.barrier_wait_s;
  d.merge_s = a.merge_s - b.merge_s;
  return d;
}

std::vector<NodeId> endpoint_hosts(const Scenario& s) {
  std::vector<NodeId> hosts;
  for (const auto group : {s.client_hosts(), s.server_hosts(), s.app_hosts(),
                           s.background_sources()}) {
    hosts.insert(hosts.end(), group.begin(), group.end());
  }
  return hosts;
}

/// Timed calls into single layers, made after the pipeline so they do not
/// perturb its phase timings.
void time_layers(Scenario& s, const Workload& w, Object& out) {
  const ScenarioOptions& o = w.options;

  auto t0 = Clock::now();
  BriteOptions bo;
  bo.num_routers = o.num_routers;
  bo.num_hosts = o.num_hosts;
  bo.seed = o.seed;
  const Network net = generate_flat(bo);
  out.put("topology.generate_s", since(t0));
  if (net.links.size() != s.network().links.size()) {
    throw std::runtime_error("regenerated topology differs from the scenario's");
  }

  const std::vector<NodeId> endpoints = endpoint_hosts(s);
  std::vector<NodeId> dests;
  for (const NodeId h : endpoints) {
    dests.push_back(
        s.network().nodes[static_cast<std::size_t>(h)].attach_router);
  }
  std::sort(dests.begin(), dests.end());
  dests.erase(std::unique(dests.begin(), dests.end()), dests.end());
  t0 = Clock::now();
  const ForwardingPlane built = ForwardingPlane::build_flat(s.network(), dests);
  out.put("routing.build_s", since(t0));

  // Lookups over a fixed seeded sample of (router, endpoint) pairs.
  Rng rng = Rng(o.seed).fork("bench_e2e.lookups");
  constexpr std::size_t kPairs = 1 << 16;
  constexpr int kLookupRounds = 8;
  std::vector<std::pair<NodeId, NodeId>> pairs(kPairs);
  for (auto& [from, dest] : pairs) {
    from = static_cast<NodeId>(
        rng.uniform(static_cast<std::uint64_t>(s.network().num_routers)));
    dest = endpoints[rng.uniform(endpoints.size())];
  }
  std::int64_t sink = 0;
  t0 = Clock::now();
  for (int round = 0; round < kLookupRounds; ++round) {
    for (const auto& [from, dest] : pairs) {
      sink += s.forwarding().next_link(from, dest);
    }
  }
  out.put("routing.lookup_ns",
          since(t0) * 1e9 / static_cast<double>(kPairs * kLookupRounds));
  // The freshly built plane must route exactly as the scenario's does.
  std::int64_t check = 0;
  for (const auto& [from, dest] : pairs) check += built.next_link(from, dest);
  if (check * kLookupRounds != sink) {
    throw std::runtime_error("rebuilt forwarding plane routes differently");
  }

  // Table rebuilds on the scenario's own plane: down + reconverge, then
  // up + reconverge, so the plane is left as it was.
  std::vector<LinkId> routed;
  for (LinkId l = 0; l < static_cast<LinkId>(s.network().links.size()); ++l) {
    const NetLink& link = s.network().links[static_cast<std::size_t>(l)];
    if (s.network().is_router(link.a) && s.network().is_router(link.b)) {
      routed.push_back(l);
    }
  }
  constexpr int kReconverges = 3;
  ForwardingPlane& plane = s.forwarding_mut();
  double reconverge_s = 0;
  for (int i = 0; i < kReconverges; ++i) {
    const LinkId l = routed[rng.uniform(routed.size())];
    for (const bool up : {false, true}) {
      t0 = Clock::now();
      plane.set_link_state(l, up);
      plane.reconverge();
      reconverge_s += since(t0);
    }
  }
  out.put("routing.reconverge_s", reconverge_s / (2.0 * kReconverges));
}

int run_study(const std::string& workload_name, std::uint64_t seed,
              const std::string& scale, bool trace) {
  Workload w;
  if (!make_workload(workload_name, seed, scale == "smoke", &w)) {
    std::fprintf(stderr, "bench_e2e: unknown workload '%s'\n",
                 workload_name.c_str());
    return 2;
  }
  obs::Registry registry;
  // One retained row: the probe still folds every window into its summary
  // without growing with the run.
  obs::WindowProbe probe(1);
  if (trace) {
    w.options.registry = &registry;
    w.options.probe = &probe;
  }

  // ---- set-up: construction, profile, mapping ----
  const auto setup_t0 = Clock::now();
  Scenario s(w.options);
  const double construct_s = since(setup_t0);

  auto t0 = Clock::now();
  s.profile();
  const double profile_s = since(t0);
  t0 = Clock::now();
  const Mapping mapping = s.mapping_for(kMapping);
  const double mapping_s = since(t0);
  const double setup_s = since(setup_t0);

  // ---- measured runs ----
  const FaultSchedule faults = make_faults(w, s.network());
  std::unique_ptr<FaultInjector> injector;
  if (!faults.empty()) {
    s.set_pre_run([&](Engine& engine, NetSim& sim) {
      injector =
          std::make_unique<FaultInjector>(s.network(), s.forwarding_mut());
      injector->arm(engine, sim, faults);
    });
  }

  const auto run_cell = [&](bool threaded) {
    Cell cell;
    cell.threaded = threaded;
    s.set_executor_threads(threaded ? kThreadedWorkers : 0);
    const obs::WindowProbe::Summary probe_before = probe.summary();
    const CounterMap counters_before = counters_of(registry);
    const auto t0 = Clock::now();
    try {
      cell.result = s.run(mapping);
      cell.ok = !s.last_run_cancelled();
      if (!cell.ok) cell.error = "run cancelled";
    } catch (const std::exception& e) {
      cell.error = e.what();
    }
    cell.wall_s = since(t0);
    cell.probe = minus(probe.summary(), probe_before);
    cell.counters = counters_of(registry);
    for (auto& [name, value] : cell.counters) {
      const auto before = counters_before.find(name);
      if (before != counters_before.end()) value -= before->second;
    }
    cell.heap_peak = gauge_of(registry, "pdes.sched.heap_peak");
    if (injector) cell.faults = injector->faults_injected();
    injector.reset();
    return cell;
  };

  const Cell seq = run_cell(/*threaded=*/false);
  const double rss_mb = peak_rss_mb();
  const Cell threaded = run_cell(/*threaded=*/true);

  // ---- output ----
  std::string cells_json = "[";
  for (const Cell* c : {&seq, &threaded}) {
    Object o;
    o.put("kind", mapping_kind_name(kMapping))
        .put("executor", c->threaded ? "threaded" : "sequential")
        .put("ok", c->ok)
        .put("error", c->error)
        .put("wall_s", c->wall_s)
        .raw("signature", c->ok ? signature(c->result) : "null");
    cells_json += (c == &seq ? "\n  " : ",\n  ") + o.str();
  }
  cells_json += "\n]";

  Object phases;
  phases.put("construct_s", construct_s)
      .put("profile_s", profile_s)
      .put("mapping_s", mapping_s)
      .put("setup_s", setup_s)
      .put("run_s", seq.wall_s)
      .put("run_threaded_s", threaded.wall_s)
      .put("virtual_s", to_seconds(seq.result.stats.end_vtime))
      .put("peak_rss_mb", rss_mb);

  Object top;
  top.raw("stamp", stamp(workload_name, seed, scale))
      .raw("phases", phases.str())
      .raw("cells", cells_json);

  if (trace) {
    // Work and busy time from the sequential run; wait and cross events
    // from the threaded rerun, the run whose wall-clock they explain.
    const NetSim::Counters& net = seq.result.counters;
    const auto counter = [&](const char* name) {
      const auto it = seq.counters.find(name);
      return it == seq.counters.end() ? 0.0 : static_cast<double>(it->second);
    };
    const std::uint64_t events = seq.result.stats.total_events;

    Object layers;
    time_layers(s, w, layers);
    layers.put("lb.profile_s", profile_s)
        .put(std::string("lb.mapping_s.") + mapping_kind_name(kMapping),
             mapping_s)
        .put("pdes.events", events)
        .put("pdes.windows", seq.result.stats.num_windows)
        .put("pdes.events_per_s", ratio(static_cast<double>(events), seq.wall_s))
        .put("pdes.process_s", seq.probe.process_s)
        .put("pdes.merge_s", seq.probe.merge_s)
        .put("pdes.hook_s", seq.probe.hook_s)
        .put("pdes.wait_s", threaded.probe.barrier_wait_s)
        .put("pdes.cross_events", threaded.result.stats.cross_lp_events)
        .put("pdes.sched.heap_peak", seq.heap_peak)
        .put("net.forwarded", net.forwarded)
        .put("net.delivered", net.delivered)
        .put("net.dropped_queue", net.dropped_queue)
        .put("net.retransmits", net.retransmits)
        .put("net.retransmit_ratio",
             ratio(static_cast<double>(net.retransmits),
                   static_cast<double>(net.delivered)))
        .put("net.drop_ratio", ratio(static_cast<double>(net.dropped_queue),
                                     static_cast<double>(net.forwarded)))
        .put("net.bg.recomputes", counter("net.bg.recomputes"))
        .put("net.bg.wakes", counter("net.bg.wakes"))
        .put("traffic.http.completion_ratio",
             ratio(counter("traffic.http.responses"),
                   counter("traffic.http.requests")))
        .put("traffic.bg.completion_ratio",
             ratio(counter("traffic.bg.completed"),
                   counter("traffic.bg.flows")))
        .put("fault.injected", seq.faults)
        .put("fault.flows_abandoned",
             faults.empty() ? std::uint64_t{0} : net.flows_failed)
        .put("fault.packets_blackholed", net.dropped_link_down +
                                             net.dropped_node_down +
                                             net.dropped_loss)
        .put(std::string("sim.modeled_T_s.") + mapping_kind_name(kMapping),
             seq.result.metrics.simulation_time_s)
        .put(std::string("sim.load_imbalance.") + mapping_kind_name(kMapping),
             seq.result.metrics.load_imbalance);
    top.raw("layers", layers.str());
  }
  std::printf("%s\n", top.str().c_str());
  return 0;
}

}  // namespace
}  // namespace massf

int main(int argc, char** argv) {
  std::string workload;
  std::string scale = "full";
  std::uint64_t seed = 2004;
  bool trace = false;
  for (int i = 1; i < argc; i += 2) {
    const std::string arg = argv[i];
    const std::string value = i + 1 < argc ? argv[i + 1] : "";
    if (arg == "--workload") {
      workload = value;
    } else if (arg == "--seed" && !value.empty() &&
               value.find_first_not_of("0123456789") == std::string::npos) {
      seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--scale" && (value == "full" || value == "smoke")) {
      scale = value;
    } else if (arg == "--trace" && (value == "0" || value == "1")) {
      trace = value == "1";
    } else {
      std::fprintf(stderr, "bench_e2e: bad argument '%s %s'\n", arg.c_str(),
                   value.c_str());
      return 2;
    }
  }
  if (!massf::kOptimized) {
    std::fprintf(stderr,
                 "bench_e2e: refusing to report numbers from an unoptimised "
                 "build (build type %s)\n",
                 MASSF_BUILD_TYPE);
    return 3;
  }
  try {
    return massf::run_study(workload, seed, scale, trace);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_e2e: %s\n", e.what());
    return 1;
  }
}
