// End-to-end checkpoint/restore over the real simulation stacks.
//
// Two drivers are exercised, mirroring how checkpoints are taken in
// production runs:
//
//  * Scenario: the experiment facade's own orchestration (CkptOptions /
//    set_ckpt) — a run checkpoints to a file and stops, a second run on the
//    same Scenario restores from the file, and the resumed run's
//    ExperimentResult and probe rows must equal the uninterrupted run's,
//    under both executors.
//
//  * The chaos stack (NetSim + dynamic BGP + FaultInjector, as in
//    bench/chaos_beacon.cpp): the checkpoint is taken mid-outage — after a
//    router crash, before its restore, with a BGP session flapping — so the
//    snapshot carries non-trivial routing state (down-links, RIBs and
//    session epochs, pending reconvergence entries) and the resumed run
//    must still finish with bit-identical RunStats, fault reconvergence
//    records, and massf.metrics.v1 JSON.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "ckpt/ckpt.hpp"
#include "fault/injector.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/probe.hpp"
#include "sim/scenario.hpp"
#include "topology/mabrite.hpp"
#include "traffic/http.hpp"
#include "traffic/manager.hpp"

namespace massf {
namespace {

std::uint64_t double_bits(double v) {
  std::uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

void expect_same_stats(const RunStats& a, const RunStats& b) {
  EXPECT_EQ(a.total_events, b.total_events);
  EXPECT_EQ(a.num_windows, b.num_windows);
  EXPECT_EQ(a.events_per_lp, b.events_per_lp);
  EXPECT_EQ(a.end_vtime, b.end_vtime);
  EXPECT_EQ(a.cross_lp_events, b.cross_lp_events);
  EXPECT_EQ(a.merge_batches, b.merge_batches);
  EXPECT_EQ(double_bits(a.modeled_wall_s), double_bits(b.modeled_wall_s));
  EXPECT_EQ(double_bits(a.modeled_sync_s), double_bits(b.modeled_sync_s));
  ASSERT_EQ(a.busy_s.size(), b.busy_s.size());
  for (std::size_t i = 0; i < a.busy_s.size(); ++i) {
    EXPECT_EQ(double_bits(a.busy_s[i]), double_bits(b.busy_s[i])) << i;
  }
}

void expect_same_counters(const NetSim::Counters& a,
                          const NetSim::Counters& b) {
  EXPECT_EQ(a.forwarded, b.forwarded);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.acks, b.acks);
  EXPECT_EQ(a.dropped_queue, b.dropped_queue);
  EXPECT_EQ(a.dropped_no_route, b.dropped_no_route);
  EXPECT_EQ(a.dropped_link_down, b.dropped_link_down);
  EXPECT_EQ(a.dropped_node_down, b.dropped_node_down);
  EXPECT_EQ(a.dropped_loss, b.dropped_loss);
  EXPECT_EQ(a.app_timers_dropped, b.app_timers_dropped);
  EXPECT_EQ(a.retransmits, b.retransmits);
  EXPECT_EQ(a.flows_started, b.flows_started);
  EXPECT_EQ(a.flows_completed, b.flows_completed);
  EXPECT_EQ(a.flows_failed, b.flows_failed);
  EXPECT_EQ(a.udp_delivered, b.udp_delivered);
}

void expect_same_probe_rows(const obs::WindowProbe& a,
                            const obs::WindowProbe& b) {
  ASSERT_EQ(a.windows().size(), b.windows().size());
  for (std::size_t i = 0; i < a.windows().size(); ++i) {
    const obs::WindowProbe::Window& wa = a.windows()[i];
    const obs::WindowProbe::Window& wb = b.windows()[i];
    EXPECT_EQ(wa.index, wb.index) << i;
    EXPECT_EQ(double_bits(wa.start_vtime_s), double_bits(wb.start_vtime_s))
        << i;
    EXPECT_EQ(wa.events, wb.events) << i;
    EXPECT_EQ(wa.max_lp_events, wb.max_lp_events) << i;
    EXPECT_EQ(wa.queue_depth, wb.queue_depth) << i;
    EXPECT_EQ(wa.outbox, wb.outbox) << i;
    EXPECT_EQ(wa.outbox_batches, wb.outbox_batches) << i;
  }
}

// ---- Scenario orchestration -------------------------------------------------

ScenarioOptions tiny_options() {
  ScenarioOptions o;
  o.multi_as = false;
  o.num_routers = 160;
  o.num_hosts = 80;
  o.num_clients = 24;
  o.num_servers = 8;
  o.num_engines = 4;
  o.app = AppKind::kScaLapack;
  o.num_app_hosts = 9;
  o.end_time = seconds(2);
  o.profile_end_time = seconds(1);
  o.http.think_time_mean_s = 0.4;
  o.seed = 17;
  return o;
}

class ScenarioCkpt : public ::testing::TestWithParam<int> {};

TEST_P(ScenarioCkpt, RestoredRunMatchesUninterrupted) {
  const std::int32_t threads = GetParam();
  const std::string path = ::testing::TempDir() + "/scenario_t" +
                           std::to_string(threads) + ".ckpt";

  ScenarioOptions base = tiny_options();
  base.executor_threads = threads;

  // Uninterrupted reference run.
  obs::WindowProbe probe_ref;
  ScenarioOptions oref = base;
  oref.probe = &probe_ref;
  Scenario ref(oref);
  const ExperimentResult want = ref.run(MappingKind::kTop2);

  // Interrupted then resumed, on one Scenario (same topology and hosts).
  obs::WindowProbe probe_res;
  ScenarioOptions ores = base;
  ores.probe = &probe_res;
  Scenario resumed(ores);
  CkptOptions save;
  save.every_windows = 40;
  save.path = path;
  save.stop_after = true;
  resumed.set_ckpt(save);
  const ExperimentResult cut = resumed.run(MappingKind::kTop2);
  ASSERT_EQ(cut.stats.num_windows, 40u);  // stopped at the snapshot boundary
  ASSERT_LT(cut.stats.num_windows, want.stats.num_windows);

  CkptOptions load;
  load.restore_path = path;
  resumed.set_ckpt(load);
  const ExperimentResult got = resumed.run(MappingKind::kTop2);

  expect_same_stats(want.stats, got.stats);
  expect_same_counters(want.counters, got.counters);
  EXPECT_EQ(double_bits(want.metrics.simulation_time_s),
            double_bits(got.metrics.simulation_time_s));
  EXPECT_EQ(want.metrics.total_events, got.metrics.total_events);
  expect_same_probe_rows(probe_ref, probe_res);
}

INSTANTIATE_TEST_SUITE_P(Executors, ScenarioCkpt, ::testing::Values(0, 3));

// ---- chaos stack ------------------------------------------------------------

/// First intra-AS router-router link of `as` (fault targets), as in
/// bench/chaos_beacon.cpp.
LinkId intra_as_link(const Network& net, AsId as, LinkId not_this = -1) {
  for (LinkId l = 0; l < static_cast<LinkId>(net.links.size()); ++l) {
    const NetLink& link = net.links[static_cast<std::size_t>(l)];
    if (l != not_this && !link.inter_as && net.is_router(link.a) &&
        net.is_router(link.b) &&
        net.nodes[static_cast<std::size_t>(link.a)].as_id == as) {
      return l;
    }
  }
  ADD_FAILURE() << "no intra-AS router link in AS " << as;
  return 0;
}

// A fully armed chaos stack: multi-AS network, dynamic BGP speakers with a
// beacon, background HTTP, and a scripted fault scenario whose router
// crash spans the checkpoint instant.
struct ChaosStack {
  ChaosStack() {
    MaBriteOptions mo;
    mo.num_as = 5;
    mo.routers_per_as = 4;
    mo.num_hosts = 30;
    mo.seed = 5;
    net = generate_multi_as(mo);
    const auto num_plain_hosts =
        static_cast<NodeId>(net.nodes.size()) - net.num_routers;
    const std::vector<NodeId> speaker_hosts = add_bgp_speaker_hosts(net);

    std::vector<NodeId> dests;
    for (NodeId h = net.num_routers;
         h < static_cast<NodeId>(net.nodes.size()); ++h) {
      dests.push_back(net.nodes[static_cast<std::size_t>(h)].attach_router);
    }
    fp = std::make_unique<ForwardingPlane>(
        ForwardingPlane::build_multi_as(net, dests));

    std::vector<LpId> map(static_cast<std::size_t>(net.num_routers), 0);
    for (NodeId r = 0; r < net.num_routers; ++r) {
      map[static_cast<std::size_t>(r)] =
          net.nodes[static_cast<std::size_t>(r)].as_id % 2;
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
    eo.end_time = seconds(20);
    engine = std::make_unique<Engine>(eo);
    sim = std::make_unique<NetSim>(net, *fp, map, *engine, NetSimOptions{});
    manager = std::make_unique<TrafficManager>(*sim);

    auto speakers_owned = std::make_unique<BgpSpeakers>(net, speaker_hosts,
                                                        BgpDynamicOptions{});
    speakers = speakers_owned.get();
    manager->add(TrafficKind::kBgp, std::move(speakers_owned));

    std::vector<NodeId> clients, servers;
    for (NodeId i = 0; i < num_plain_hosts; ++i) {
      const NodeId h = net.num_routers + i;
      (i % 4 == 0 ? servers : clients).push_back(h);
    }
    HttpOptions ho;
    ho.think_time_mean_s = 0.5;
    manager->add(TrafficKind::kHttp,
                 std::make_unique<HttpWorkload>(clients, servers, ho));

    const AsId beacon_as = net.num_as() - 1;
    speakers->schedule_beacon(*engine, *sim, beacon_as, seconds(5),
                              seconds(6), /*toggles=*/2);

    // Crash at 8 s, restore at 16 s: the checkpoint below is taken at the
    // first boundary past 10 s, inside the outage and before the pending
    // restore fault — the snapshot must carry the down-links, the
    // controller's queued reconvergence, and mid-churn BGP state.
    const LinkId flap_link = intra_as_link(net, 0);
    const LinkId loss_link = intra_as_link(net, 0, flap_link);
    const NodeId crash_router =
        net.as_info[1].first_router +
        (net.as_info[1].num_routers > 1 ? 1 : 0);
    const AsAdjacency& adj = net.as_adjacency.front();
    char scenario[512];
    std::snprintf(scenario, sizeof scenario,
                  "at 6 flap link=%d count=2 period=2 downtime=0.5\n"
                  "at 7 loss link=%d duration=2 rate=0.05\n"
                  "at 8 crash router=%d\n"
                  "at 16 restore router=%d\n"
                  "at 12 bgp_reset as=%d peer=%d downtime=2\n",
                  flap_link, loss_link, crash_router, crash_router, adj.as_a,
                  adj.as_b);
    std::string parse_error;
    const auto schedule = parse_fault_schedule(scenario, &parse_error);
    if (!schedule) {
      ADD_FAILURE() << "scenario parse error: " << parse_error;
      std::abort();
    }

    injector = std::make_unique<FaultInjector>(net, *fp);
    injector->set_bgp(speakers);
    injector->arm(*engine, *sim, *schedule);

    manager->start(*engine, *sim);
  }

  ckpt::Participants participants() {
    ckpt::Participants parts;
    parts.add(
        "engine",
        [this](ckpt::Writer& w) { engine->save_state(w); },
        [this](ckpt::Reader& r) { return engine->restore_state(r); });
    parts.add("net", [this](ckpt::Writer& w) { sim->save(w); },
              [this](ckpt::Reader& r) { return sim->load(r); });
    parts.add(
        "traffic", [this](ckpt::Writer& w) { manager->save(w); },
        [this](ckpt::Reader& r) { return manager->load(r); });
    parts.add(
        "routing.fp", [this](ckpt::Writer& w) { fp->save(w); },
        [this](ckpt::Reader& r) { return fp->load(r); });
    parts.add(
        "fault", [this](ckpt::Writer& w) { injector->save(w); },
        [this](ckpt::Reader& r) { return injector->load(r); });
    return parts;
  }

  RunStats run(std::int32_t threads) {
    return threads > 0 ? engine->run_threaded(threads) : engine->run();
  }

  std::string metrics_json() const {
    obs::Registry registry;
    sim->publish_metrics(registry);
    manager->publish_metrics(registry);
    injector->publish_metrics(registry);
    return obs::to_json(registry);
  }

  Network net;
  std::unique_ptr<ForwardingPlane> fp;
  std::unique_ptr<Engine> engine;
  std::unique_ptr<NetSim> sim;
  std::unique_ptr<TrafficManager> manager;
  BgpSpeakers* speakers = nullptr;
  std::unique_ptr<FaultInjector> injector;
};

class ChaosCkpt : public ::testing::TestWithParam<int> {};

TEST_P(ChaosCkpt, MidOutageRestoreMatchesUninterrupted) {
  const std::int32_t threads = GetParam();

  ChaosStack ref;
  const RunStats want = ref.run(threads);
  const std::string want_json = ref.metrics_json();

  // Interrupted run: snapshot at the first window boundary past 10 s.
  ChaosStack cut;
  ckpt::Participants cut_parts = cut.participants();
  std::vector<std::uint8_t> image;
  cut.engine->hooks().ckpt_every = 1;
  cut.engine->hooks().ckpt = [&cut_parts, &image](Engine& eng,
                                                  SimTime floor) {
    if (!image.empty() || floor < seconds(10)) return;
    ckpt::Checkpoint ck;
    cut_parts.save(ck);
    image = ck.serialize();
    eng.request_stop();
  };
  const RunStats cut_stats = cut.run(threads);
  ASSERT_FALSE(image.empty());
  ASSERT_LT(cut_stats.num_windows, want.num_windows);

  std::string error;
  const auto parsed =
      ckpt::Checkpoint::parse(image.data(), image.size(), &error);
  ASSERT_TRUE(parsed.has_value()) << error;

  ChaosStack resumed;
  ASSERT_TRUE(resumed.participants().restore(*parsed, &error)) << error;
  const RunStats got = resumed.run(threads);

  expect_same_stats(want, got);
  expect_same_counters(ref.sim->totals(), resumed.sim->totals());
  EXPECT_EQ(want_json, resumed.metrics_json());
  ASSERT_EQ(ref.injector->ospf_reconvergence_s().size(),
            resumed.injector->ospf_reconvergence_s().size());
  for (std::size_t i = 0; i < ref.injector->ospf_reconvergence_s().size();
       ++i) {
    EXPECT_EQ(double_bits(ref.injector->ospf_reconvergence_s()[i]),
              double_bits(resumed.injector->ospf_reconvergence_s()[i]))
        << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Executors, ChaosCkpt, ::testing::Values(0, 2));

}  // namespace
}  // namespace massf
