// Chaos harness: BGP Beacon with injected faults, end to end.
//
// Builds a multi-AS network with dynamic BGP speakers and a background
// HTTP workload, runs a RIPE-style beacon (withdraw / re-announce) while a
// scripted fault scenario — link flap train, loss burst, router crash and
// restore, BGP session reset — plays out through the FaultInjector, and
// verifies the tentpole determinism property: the sequential and threaded
// executors produce bit-identical RunStats and bit-identical
// massf.metrics.v1 JSON (which includes the massf.fault.v1 block) for the
// same seed. Exits non-zero on any mismatch.
//
// Also reports what the fault metrics are for: per-event OSPF and BGP
// reconvergence times.
//
// Supervised mode (--guard): the threaded leg runs under the liveness
// watchdog and the GuardedRun recovery ladder (DESIGN.md section 5h).
// With --inject-stall one LP's channel clock is frozen mid-run, the
// watchdog cancels the wedged attempt (writing the massf.guard.v1 dump),
// and the ladder's sequential fallback reruns clean — the recovered result
// must STILL be bit-identical to the sequential reference.
//
//   chaos_beacon [--smoke] [--guard] [--inject-stall]
//                [--guard-deadline=S] [--guard-dump=PATH]

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "fault/injector.hpp"
#include "guard/guarded_run.hpp"
#include "guard/watchdog.hpp"
#include "net/netsim.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "routing/forwarding.hpp"
#include "topology/mabrite.hpp"
#include "traffic/http.hpp"
#include "traffic/manager.hpp"
#include "util/flags.hpp"

namespace massf {
namespace {

struct Scale {
  std::int32_t num_as = 12;
  std::int32_t routers_per_as = 6;
  std::int32_t num_hosts = 100;
  std::int32_t lps = 4;
  std::int32_t threads = 4;
  SimTime end = seconds(60);
};

struct RunResult {
  RunStats stats;
  std::string metrics_json;
  std::vector<double> ospf_reconverge_s;
  std::vector<FaultInjector::BgpReconvergence> bgp_reconverge;
  bool cancelled = false;  ///< the watchdog cancelled this run (guard mode)
};

/// Supervision config for one guarded attempt (nullptr = plain run).
struct GuardConfig {
  std::int32_t threads = 0;
  guard::GuardOptions options;
  bool inject_stall = false;
  obs::Registry* registry = nullptr;
};

/// First intra-AS router-router link of `as` (for the flap/loss targets).
LinkId intra_as_link(const Network& net, AsId as, LinkId not_this = -1) {
  for (LinkId l = 0; l < static_cast<LinkId>(net.links.size()); ++l) {
    const NetLink& link = net.links[static_cast<std::size_t>(l)];
    if (l != not_this && !link.inter_as && net.is_router(link.a) &&
        net.is_router(link.b) &&
        net.nodes[static_cast<std::size_t>(link.a)].as_id == as) {
      return l;
    }
  }
  std::fprintf(stderr, "no intra-AS router link in AS %d\n", as);
  std::exit(1);
}

RunResult run_once(const Scale& scale, bool threaded,
                   const GuardConfig* guarded = nullptr) {
  MaBriteOptions mo;
  mo.num_as = scale.num_as;
  mo.routers_per_as = scale.routers_per_as;
  mo.num_hosts = scale.num_hosts;
  mo.seed = 5;
  Network net = generate_multi_as(mo);
  const auto num_plain_hosts = static_cast<NodeId>(net.nodes.size()) -
                               net.num_routers;
  const std::vector<NodeId> speaker_hosts = add_bgp_speaker_hosts(net);

  std::vector<NodeId> dests;
  for (NodeId h = net.num_routers;
       h < static_cast<NodeId>(net.nodes.size()); ++h) {
    dests.push_back(net.nodes[static_cast<std::size_t>(h)].attach_router);
  }
  ForwardingPlane fp = ForwardingPlane::build_multi_as(net, dests);

  // Partition by AS blocks; lookahead = min cross-LP link latency.
  std::vector<LpId> map(static_cast<std::size_t>(net.num_routers), 0);
  for (NodeId r = 0; r < net.num_routers; ++r) {
    map[static_cast<std::size_t>(r)] =
        net.nodes[static_cast<std::size_t>(r)].as_id % scale.lps;
  }
  SimTime lookahead = kSimTimeMax;
  for (const NetLink& l : net.links) {
    if (net.is_router(l.a) && net.is_router(l.b) &&
        map[static_cast<std::size_t>(l.a)] !=
            map[static_cast<std::size_t>(l.b)]) {
      lookahead = std::min(lookahead, l.latency);
    }
  }

  EngineOptions eo;
  eo.lookahead = lookahead;
  eo.end_time = scale.end;
  if (guarded != nullptr) eo.guard = guarded->options;
  Engine engine(eo);
  NetSim sim(net, fp, map, engine, NetSimOptions{});
  TrafficManager manager(sim);

  auto speakers_owned = std::make_unique<BgpSpeakers>(net, speaker_hosts,
                                                      BgpDynamicOptions{});
  BgpSpeakers* speakers = speakers_owned.get();
  manager.add(TrafficKind::kBgp, std::move(speakers_owned));

  // Background HTTP over the plain hosts (the speakers stay BGP-only).
  std::vector<NodeId> clients, servers;
  for (NodeId i = 0; i < num_plain_hosts; ++i) {
    const NodeId h = net.num_routers + i;
    (i % 4 == 0 ? servers : clients).push_back(h);
  }
  HttpOptions ho;
  ho.think_time_mean_s = 0.5;
  manager.add(TrafficKind::kHttp,
              std::make_unique<HttpWorkload>(clients, servers, ho));

  // The beacon: withdraw at 10 s, re-announce at 20 s.
  const AsId beacon_as = net.num_as() - 1;
  speakers->schedule_beacon(engine, sim, beacon_as, seconds(10), seconds(10),
                            /*toggles=*/2);

  // The chaos scenario, exercised through the text format. Targets are
  // picked from the generated topology: a flapping intra-AS link and a
  // lossy one in AS 0, a crashed router in AS 1, and a session reset on
  // the first AS adjacency.
  const LinkId flap_link = intra_as_link(net, 0);
  const LinkId loss_link = intra_as_link(net, 0, flap_link);
  const NodeId crash_router =
      net.as_info[1].first_router + (net.as_info[1].num_routers > 1 ? 1 : 0);
  const AsAdjacency& adj = net.as_adjacency.front();
  char scenario[512];
  std::snprintf(scenario, sizeof scenario,
                "# chaos_beacon scripted scenario\n"
                "at 12 flap link=%d count=3 period=2 downtime=0.5\n"
                "at 13 loss link=%d duration=2 rate=0.05\n"
                "at 15 crash router=%d\n"
                "at 20 restore router=%d\n"
                "at 18 bgp_reset as=%d peer=%d downtime=2\n",
                flap_link, loss_link, crash_router, crash_router, adj.as_a,
                adj.as_b);
  std::string parse_error;
  const auto schedule = parse_fault_schedule(scenario, &parse_error);
  if (!schedule) {
    std::fprintf(stderr, "scenario parse error: %s\n", parse_error.c_str());
    std::exit(1);
  }

  FaultInjector injector(net, fp);
  injector.set_bgp(speakers);
  injector.arm(engine, sim, *schedule);

  manager.start(engine, sim);
  RunResult r;
  if (guarded != nullptr) {
    // The freeze only bites on the threaded executor; the ladder's
    // sequential rung ignores it and runs clean by construction.
    if (guarded->inject_stall) {
      engine.test_freeze_lp_clock(scale.lps - 1, /*after_windows=*/100);
    }
    guard::Watchdog watchdog(engine, guarded->options, guarded->registry);
    watchdog.arm();
    r.stats = guarded->threads > 0 ? engine.run_threaded(guarded->threads)
                                   : engine.run();
    watchdog.disarm();
    r.cancelled = engine.run_cancelled();
    if (r.cancelled) return r;  // partial state: skip the metrics publish
  } else {
    r.stats = threaded ? engine.run_threaded(scale.threads) : engine.run();
  }

  obs::Registry registry;
  sim.publish_metrics(registry);
  manager.publish_metrics(registry);
  injector.publish_metrics(registry);
  r.metrics_json = obs::to_json(registry);
  r.ospf_reconverge_s = injector.ospf_reconvergence_s();
  r.bgp_reconverge = injector.bgp_reconvergence();
  return r;
}

bool same_stats(const RunStats& a, const RunStats& b) {
  return a.total_events == b.total_events && a.num_windows == b.num_windows &&
         a.events_per_lp == b.events_per_lp && a.end_vtime == b.end_vtime &&
         a.modeled_wall_s == b.modeled_wall_s &&
         a.modeled_sync_s == b.modeled_sync_s;
}

}  // namespace
}  // namespace massf

int main(int argc, char** argv) {
  using namespace massf;
  FlagTable flags("chaos_beacon",
                  "BGP beacon under scripted faults; checks that the "
                  "sequential and threaded executors agree bit for bit.");
  flags.add_bool("smoke", false, "reduced scale (the tier-1 ctest entry)");
  flags.add_bool("guard", false,
                 "run the threaded leg under the watchdog and the "
                 "GuardedRun recovery ladder");
  flags.add_bool("inject-stall", false,
                 "freeze one LP's channel clock mid-run (requires --guard)");
  flags.add_double("guard-deadline", 5.0,
                   "seconds without progress before the watchdog fires",
                   [](double v) { return v > 0 ? "" : "must be > 0"; });
  flags.add_string("guard-dump", "guard_stall.json",
                   "stall diagnostic JSON file");
  flags.parse_or_exit(argc, argv);

  Scale scale;
  if (flags.get_bool("smoke")) {
    scale.num_as = 6;
    scale.routers_per_as = 4;
    scale.num_hosts = 24;
    scale.lps = 2;
    scale.threads = 2;
    scale.end = seconds(30);
  }
  const bool guard_mode = flags.get_bool("guard");
  const bool inject_stall = flags.get_bool("inject-stall");
  const double guard_deadline_s = flags.get_double("guard-deadline");
  const std::string guard_dump = flags.get_string("guard-dump");
  if (inject_stall && !guard_mode) {
    std::fprintf(stderr, "--inject-stall requires --guard\n");
    return 2;
  }

  std::fprintf(stderr, "[chaos_beacon] sequential run...\n");
  const RunResult seq = run_once(scale, /*threaded=*/false);

  RunResult thr;
  if (guard_mode) {
    // Threaded leg under supervision: watchdog + recovery ladder. Each
    // attempt rebuilds the whole stack from scratch, so a recovered run is
    // a deterministic replay — it must match the sequential reference just
    // like an unsupervised threaded run does.
    std::fprintf(stderr,
                 "[chaos_beacon] guarded threaded run (%d threads, "
                 "deadline=%.1fs%s)...\n",
                 scale.threads, guard_deadline_s,
                 inject_stall ? ", stall injected" : "");
    obs::Registry guard_registry;
    guard::GuardedRun::Options gopts;
    gopts.max_retries = 0;  // a frozen clock repeats; go straight to rung 1
    guard::GuardedRun runner(gopts, &guard_registry);
    bool have_result = false;
    const guard::GuardedRunReport report = runner.run(
        scale.threads,
        [&](const guard::AttemptPlan& plan) -> guard::AttemptOutcome {
          GuardConfig gc;
          gc.threads = plan.threads;
          gc.options.enabled = true;
          gc.options.stall_deadline_s = guard_deadline_s;
          gc.options.dump_path = guard_dump;
          gc.options.on_stall = guard::OnStall::kCancel;
          gc.inject_stall = inject_stall;
          gc.registry = &guard_registry;
          const RunResult r = run_once(scale, plan.threads > 0, &gc);
          if (r.cancelled) {
            return {guard::AttemptStatus::kStalled,
                    "watchdog cancelled the run"};
          }
          thr = r;
          have_result = true;
          return {};
        });
    if (!report.completed || !have_result) {
      std::fprintf(stderr, "FAIL: guarded run never completed: %s\n",
                   report.last_error.c_str());
      return 1;
    }
    std::printf(
        "guard: completed after %d attempt(s) (stalls=%llu errors=%llu "
        "rung=%d stalls_detected=%llu dumps=%llu)\n",
        report.attempts, static_cast<unsigned long long>(report.stalls),
        static_cast<unsigned long long>(report.errors), report.degraded_rung,
        static_cast<unsigned long long>(
            guard_registry.counter("guard.stalls_detected").value()),
        static_cast<unsigned long long>(
            guard_registry.counter("guard.dump_writes").value()));
    if (inject_stall && report.stalls == 0) {
      std::fprintf(stderr,
                   "FAIL: --inject-stall but no attempt ever stalled\n");
      return 1;
    }
  } else {
    std::fprintf(stderr, "[chaos_beacon] threaded run (%d threads)...\n",
                 scale.threads);
    thr = run_once(scale, /*threaded=*/true);
  }

  std::printf("events=%llu windows=%llu end_vtime_s=%.3f\n",
              static_cast<unsigned long long>(seq.stats.total_events),
              static_cast<unsigned long long>(seq.stats.num_windows),
              to_seconds(seq.stats.end_vtime));
  std::printf("ospf reconvergence (s):");
  for (const double s : seq.ospf_reconverge_s) std::printf(" %.3f", s);
  std::printf("\nbgp reconvergence (s):");
  for (const auto& r : seq.bgp_reconverge) {
    std::printf(" [at=%.1f settle=%.3f]", to_seconds(r.at), r.settle_s);
  }
  std::printf("\n");

  if (!same_stats(seq.stats, thr.stats)) {
    std::fprintf(stderr, "FAIL: RunStats differ between executors\n");
    return 1;
  }
  if (seq.metrics_json != thr.metrics_json) {
    std::fprintf(stderr,
                 "FAIL: metrics JSON differs between executors\n--- seq\n"
                 "%s\n--- thr\n%s\n",
                 seq.metrics_json.c_str(), thr.metrics_json.c_str());
    return 1;
  }
  if (seq.ospf_reconverge_s.empty()) {
    std::fprintf(stderr, "FAIL: no OSPF reconvergence events recorded\n");
    return 1;
  }
  std::printf("OK: executors bit-identical (%zu metrics bytes)\n",
              seq.metrics_json.size());
  return 0;
}
