#include "routing/bgp_dynamic.hpp"

#include <algorithm>
#include <set>
#include <tuple>

#include "obs/metrics.hpp"
#include "util/check.hpp"

namespace massf {
namespace {

// Flow-tag payload (28 bits): sender AS (12 bits) | batch index (16 bits).
constexpr std::uint32_t kAsBits = 12;
constexpr std::uint32_t kIdxBits = 16;

std::uint32_t batch_tag_payload(AsId sender, std::size_t index) {
  MASSF_CHECK(sender < (1 << kAsBits));
  MASSF_CHECK(index < (1u << kIdxBits));
  return (static_cast<std::uint32_t>(sender) << kIdxBits) |
         static_cast<std::uint32_t>(index);
}

// Timer payload: code (high 8 of the 56 payload bits) | AS id.
constexpr std::uint64_t kTimerOriginate = 1;
constexpr std::uint64_t kTimerBeacon = 2;       // c = 1 announce, 0 withdraw
constexpr std::uint64_t kTimerMrai = 3;         // c = neighbor index
constexpr std::uint64_t kTimerSessionDown = 4;  // c = peer AS
constexpr std::uint64_t kTimerSessionUp = 5;    // c = peer AS

std::uint64_t timer_code(std::uint64_t code, AsId as) {
  return (code << 32) | static_cast<std::uint32_t>(as);
}

}  // namespace

std::vector<NodeId> add_bgp_speaker_hosts(Network& net,
                                          double access_bandwidth_bps) {
  std::vector<NodeId> speakers;
  speakers.reserve(net.as_info.size());
  MASSF_CHECK(!net.as_info.empty());
  for (const AsInfo& info : net.as_info) {
    const NodeId router = info.first_router;
    NetNode h;
    h.kind = NodeKind::kHost;
    h.as_id = net.nodes[static_cast<std::size_t>(router)].as_id;
    h.x = net.nodes[static_cast<std::size_t>(router)].x;
    h.y = net.nodes[static_cast<std::size_t>(router)].y;
    h.attach_router = router;
    const auto hid = static_cast<NodeId>(net.nodes.size());
    net.nodes.push_back(h);
    NetLink l;
    l.a = router;
    l.b = hid;
    l.latency = microseconds(10);
    l.bandwidth_bps = access_bandwidth_bps;
    net.links.push_back(l);
    speakers.push_back(hid);
  }
  net.build_adjacency();
  return speakers;
}

BgpSpeakers::BgpSpeakers(const Network& net, std::vector<NodeId> speaker_hosts,
                         const BgpDynamicOptions& options)
    : net_(&net),
      speaker_hosts_(std::move(speaker_hosts)),
      opts_(options),
      num_as_(net.num_as()) {
  MASSF_CHECK(static_cast<std::int32_t>(speaker_hosts_.size()) == num_as_);
  const auto lists = build_as_neighbor_lists(num_as_, net.as_adjacency);
  speakers_.resize(static_cast<std::size_t>(num_as_));
  channels_.resize(static_cast<std::size_t>(num_as_));
  host_as_.resize(static_cast<std::size_t>(num_as_));
  for (AsId a = 0; a < num_as_; ++a) {
    Speaker& s = speakers_[static_cast<std::size_t>(a)];
    s.neighbors = lists[static_cast<std::size_t>(a)];
    const std::size_t nn = s.neighbors.size();
    const auto nd = static_cast<std::size_t>(num_as_);
    s.rib_in.assign(nd * nn, Candidate{});
    s.best.assign(nd, -1);
    s.best_path.assign(nd, {});
    s.rib_out.assign(nd * nn, 0);
    s.last_change_for.assign(nd, -1);
    s.pending.resize(nn);
    s.next_send_ok.assign(nn, 0);
    s.mrai_timer_armed.assign(nn, 0);
    s.session_up.assign(nn, 1);
    s.session_epoch.assign(nn, 0);
    channels_[static_cast<std::size_t>(a)] = std::make_unique<Channel>();
    host_as_[static_cast<std::size_t>(a)] = a;
  }
}

std::int32_t BgpSpeakers::neighbor_index(AsId as, AsId neighbor) const {
  const auto& ns = speakers_[static_cast<std::size_t>(as)].neighbors;
  const auto it = std::lower_bound(
      ns.begin(), ns.end(), neighbor,
      [](const AsNeighbor& n, AsId v) { return n.as < v; });
  MASSF_CHECK(it != ns.end() && it->as == neighbor);
  return static_cast<std::int32_t>(it - ns.begin());
}

void BgpSpeakers::start(Engine& engine, NetSim& sim) {
  // Stagger originations deterministically so convergence traffic does not
  // arrive as one synchronized burst.
  for (AsId a = 0; a < num_as_; ++a) {
    sim.schedule_app_timer(
        engine, speaker_hosts_[static_cast<std::size_t>(a)],
        opts_.originate_at + microseconds(10) * a,
        make_timer(TrafficKind::kBgp, timer_code(kTimerOriginate, a)));
  }
}

void BgpSpeakers::on_timer(Engine& engine, NetSim& sim, NodeId host,
                           std::uint64_t payload, std::uint64_t c) {
  const auto code = payload >> 32;
  const auto as = static_cast<AsId>(payload & 0xffffffffu);
  MASSF_CHECK(speaker_hosts_[static_cast<std::size_t>(as)] == host);
  if (code == kTimerOriginate) {
    originate(engine, sim, as);
  } else if (code == kTimerBeacon) {
    if (c == 0) {
      withdraw_own(engine, sim, as);
    } else {
      originate(engine, sim, as);
    }
  } else if (code == kTimerMrai) {
    Speaker& s = speakers_[static_cast<std::size_t>(as)];
    const auto ni = static_cast<std::size_t>(c);
    MASSF_CHECK(ni < s.neighbors.size());
    s.mrai_timer_armed[ni] = 0;
    flush(engine, sim, as);
  } else if (code == kTimerSessionDown) {
    session_down(engine, sim, as, static_cast<AsId>(c));
  } else if (code == kTimerSessionUp) {
    session_restore(engine, sim, as, static_cast<AsId>(c));
  } else {
    MASSF_CHECK(false && "unknown BGP timer");
  }
}

void BgpSpeakers::originate(Engine& engine, NetSim& sim, AsId as) {
  Speaker& s = speakers_[static_cast<std::size_t>(as)];
  if (s.originated) return;
  s.originated = true;
  s.last_change = std::max(s.last_change, engine.now());
  s.last_change_for[static_cast<std::size_t>(as)] = engine.now();
  queue_export(as, as);
  flush(engine, sim, as);
}

void BgpSpeakers::withdraw_own(Engine& engine, NetSim& sim, AsId as) {
  Speaker& s = speakers_[static_cast<std::size_t>(as)];
  if (!s.originated) return;
  s.originated = false;
  s.last_change = std::max(s.last_change, engine.now());
  s.last_change_for[static_cast<std::size_t>(as)] = engine.now();
  queue_export(as, as);
  flush(engine, sim, as);
}

void BgpSpeakers::on_flow_complete(Engine& engine, NetSim& sim, FlowId,
                                   NodeId, NodeId dst_host,
                                   std::uint32_t tag) {
  const std::uint32_t payload = tag_payload(tag);
  const auto sender = static_cast<AsId>(payload >> kIdxBits);
  const std::size_t index = payload & ((1u << kIdxBits) - 1);

  // Identify the receiving AS from the speaker host.
  const auto it = std::find(speaker_hosts_.begin(), speaker_hosts_.end(),
                            dst_host);
  MASSF_CHECK(it != speaker_hosts_.end());
  const auto me = static_cast<AsId>(it - speaker_hosts_.begin());

  Batch batch;
  {
    Channel& ch = *channels_[static_cast<std::size_t>(sender)];
    std::lock_guard<std::mutex> lock(ch.mu);
    MASSF_CHECK(index < ch.batches.size());
    batch = ch.batches[index];  // copy under the lock
  }

  // Session-epoch filter: a batch sent before a session teardown may still
  // be in flight when the session comes back — it belongs to the previous
  // incarnation and must not pollute the fresh adj-RIB-in. Both endpoints
  // bump their epoch at the same virtual teardown instant, so the sender's
  // stamp and the receiver's expectation agree exactly when no reset
  // happened in between. Batches arriving while the session is down are
  // likewise discarded.
  Speaker& s = speakers_[static_cast<std::size_t>(me)];
  const auto ni = static_cast<std::size_t>(neighbor_index(me, sender));
  if (!s.session_up[ni] || batch.epoch != s.session_epoch[ni]) {
    ++s.stale_batches;
    return;
  }
  process_batch(engine, sim, me, sender, batch.updates);
}

void BgpSpeakers::on_flow_failed(Engine&, NetSim&, FlowId, NodeId src_host,
                                 NodeId, std::uint32_t) {
  // The batch never arrived; TCP gave up (path dead longer than its
  // patience). Runs on the sender's LP, so the sender's counter is safe.
  const auto it = std::find(speaker_hosts_.begin(), speaker_hosts_.end(),
                            src_host);
  MASSF_CHECK(it != speaker_hosts_.end());
  const auto me = static_cast<AsId>(it - speaker_hosts_.begin());
  ++speakers_[static_cast<std::size_t>(me)].update_flows_failed;
}

void BgpSpeakers::process_batch(Engine& engine, NetSim& sim, AsId me,
                                AsId from,
                                const std::vector<BgpDynUpdate>& batch) {
  Speaker& s = speakers_[static_cast<std::size_t>(me)];
  const std::int32_t ni = neighbor_index(me, from);
  const std::size_t nn = s.neighbors.size();

  std::set<AsId> touched;
  for (const BgpDynUpdate& u : batch) {
    MASSF_CHECK(u.dest >= 0 && u.dest < num_as_);
    Candidate& cand =
        s.rib_in[static_cast<std::size_t>(u.dest) * nn +
                 static_cast<std::size_t>(ni)];
    if (u.withdraw) {
      ++s.withdraw_rx;
      cand.valid = false;
      cand.path.clear();
    } else if (std::find(u.path.begin(), u.path.end(), me) != u.path.end()) {
      // AS-path loop: BGP silently discards — and any previously held
      // candidate from this neighbor is replaced, i.e. implicitly
      // withdrawn by the new (unusable) announcement.
      ++s.withdraw_rx;
      cand.valid = false;
      cand.path.clear();
    } else {
      ++s.announce_rx;
      cand.valid = true;
      cand.path = u.path;
    }
    touched.insert(u.dest);
  }
  for (AsId dest : touched) reselect(engine, sim, me, dest);
  flush(engine, sim, me);
}

void BgpSpeakers::reselect(Engine& engine, NetSim& sim, AsId me, AsId dest) {
  (void)sim;
  if (dest == me) return;  // own prefix handled by originate/withdraw_own
  Speaker& s = speakers_[static_cast<std::size_t>(me)];
  const std::size_t nn = s.neighbors.size();

  std::int32_t best = -1;
  std::tuple<std::int16_t, std::size_t, AsId> best_key{};
  for (std::size_t i = 0; i < nn; ++i) {
    const Candidate& cand =
        s.rib_in[static_cast<std::size_t>(dest) * nn + i];
    if (!cand.valid) continue;
    const auto key = std::make_tuple(
        static_cast<std::int16_t>(-local_pref_for(s.neighbors[i].rel)),
        cand.path.size(), s.neighbors[i].as);
    if (best < 0 || key < best_key) {
      best = static_cast<std::int32_t>(i);
      best_key = key;
    }
  }

  std::vector<AsId> new_path;
  if (best >= 0) {
    const Candidate& cand =
        s.rib_in[static_cast<std::size_t>(dest) * nn +
                 static_cast<std::size_t>(best)];
    new_path.reserve(cand.path.size() + 1);
    new_path.push_back(me);
    new_path.insert(new_path.end(), cand.path.begin(), cand.path.end());
  }

  auto& cur = s.best[static_cast<std::size_t>(dest)];
  auto& cur_path = s.best_path[static_cast<std::size_t>(dest)];
  if (cur == best && cur_path == new_path) return;
  cur = best;
  cur_path = std::move(new_path);
  ++s.route_changes;
  s.last_change = std::max(s.last_change, engine.now());
  s.last_change_for[static_cast<std::size_t>(dest)] = engine.now();
  queue_export(me, dest);
}

void BgpSpeakers::queue_export(AsId me, AsId dest) {
  Speaker& s = speakers_[static_cast<std::size_t>(me)];
  const std::size_t nn = s.neighbors.size();

  const bool is_local = dest == me;
  const bool have_route =
      is_local ? s.originated : s.best[static_cast<std::size_t>(dest)] >= 0;
  AsRel learned_from = AsRel::kCustomer;  // unused when is_local
  if (!is_local && have_route) {
    learned_from =
        s.neighbors[static_cast<std::size_t>(
                        s.best[static_cast<std::size_t>(dest)])]
            .rel;
  }

  for (std::size_t i = 0; i < nn; ++i) {
    char& out = s.rib_out[static_cast<std::size_t>(dest) * nn + i];
    const bool export_ok =
        have_route &&
        bgp_exportable(is_local, learned_from, s.neighbors[i].rel);
    // Implicit replacement: a newer update for the same prefix supersedes
    // any still-pending one (matters under MRAI batching).
    auto& q = s.pending[i];
    q.erase(std::remove_if(q.begin(), q.end(),
                           [dest](const BgpDynUpdate& u) {
                             return u.dest == dest;
                           }),
            q.end());
    if (export_ok) {
      BgpDynUpdate u;
      u.dest = dest;
      u.withdraw = false;
      if (is_local) {
        u.path = {me};
      } else {
        u.path = s.best_path[static_cast<std::size_t>(dest)];
      }
      s.pending[i].push_back(std::move(u));
      out = 1;
    } else if (out != 0) {
      BgpDynUpdate u;
      u.dest = dest;
      u.withdraw = true;
      s.pending[i].push_back(std::move(u));
      out = 0;
    }
  }
}

void BgpSpeakers::flush(Engine& engine, NetSim& sim, AsId me) {
  Speaker& s = speakers_[static_cast<std::size_t>(me)];
  for (std::size_t i = 0; i < s.neighbors.size(); ++i) {
    if (s.pending[i].empty()) continue;
    // No transport while the session is down; pending updates keep
    // batching and are superseded by the full refresh at re-establishment.
    if (!s.session_up[i]) continue;
    // MRAI: within the hold-down, defer (and batch further updates) until
    // the per-session timer fires.
    if (opts_.mrai > 0 && engine.now() < s.next_send_ok[i]) {
      if (!s.mrai_timer_armed[i]) {
        s.mrai_timer_armed[i] = 1;
        sim.schedule_app_timer(
            engine, speaker_hosts_[static_cast<std::size_t>(me)],
            s.next_send_ok[i],
            make_timer(TrafficKind::kBgp, timer_code(kTimerMrai, me)),
            /*c=*/static_cast<std::uint64_t>(i));
      }
      continue;
    }
    s.next_send_ok[i] = engine.now() + opts_.mrai;
    Batch batch;
    batch.epoch = s.session_epoch[i];
    batch.updates.swap(s.pending[i]);
    const std::size_t count = batch.updates.size();
    s.updates_sent += count;
    ++s.batches_sent;

    std::size_t index;
    {
      Channel& ch = *channels_[static_cast<std::size_t>(me)];
      std::lock_guard<std::mutex> lock(ch.mu);
      index = ch.batches.size();
      ch.batches.push_back(std::move(batch));
    }
    const auto bytes =
        static_cast<std::uint32_t>(40 + opts_.bytes_per_update * count);
    sim.start_flow(engine, engine.now(),
                   speaker_hosts_[static_cast<std::size_t>(me)],
                   speaker_hosts_[static_cast<std::size_t>(
                       s.neighbors[i].as)],
                   bytes, make_tag(TrafficKind::kBgp,
                                   batch_tag_payload(me, index)));
  }
}

void BgpSpeakers::session_down(Engine& engine, NetSim& sim, AsId me,
                               AsId peer) {
  Speaker& s = speakers_[static_cast<std::size_t>(me)];
  const auto ni = static_cast<std::size_t>(neighbor_index(me, peer));
  const std::size_t nn = s.neighbors.size();
  ++s.session_resets;
  s.session_up[ni] = 0;
  ++s.session_epoch[ni];
  // Everything we had queued or announced toward the peer is void — its
  // RIB from us dies with the session (it performs the same teardown).
  s.pending[ni].clear();
  // Flush the adj-RIB-in learned from the peer and reselect the prefixes
  // it carried; resulting withdrawals propagate to the other neighbors.
  std::vector<AsId> touched;
  for (AsId dest = 0; dest < num_as_; ++dest) {
    s.rib_out[static_cast<std::size_t>(dest) * nn + ni] = 0;
    Candidate& cand = s.rib_in[static_cast<std::size_t>(dest) * nn + ni];
    if (!cand.valid) continue;
    cand.valid = false;
    cand.path.clear();
    touched.push_back(dest);
  }
  for (AsId dest : touched) reselect(engine, sim, me, dest);
  flush(engine, sim, me);
}

void BgpSpeakers::session_restore(Engine& engine, NetSim& sim, AsId me,
                                  AsId peer) {
  Speaker& s = speakers_[static_cast<std::size_t>(me)];
  const auto ni = static_cast<std::size_t>(neighbor_index(me, peer));
  const std::size_t nn = s.neighbors.size();
  s.session_up[ni] = 1;
  // Full-table re-advertisement toward the peer, as a real speaker does
  // after session establishment: re-derive the export decision for every
  // prefix from the current best routes, superseding whatever batched up
  // while the session was down.
  s.pending[ni].clear();
  for (AsId dest = 0; dest < num_as_; ++dest) {
    const bool is_local = dest == me;
    const bool have_route =
        is_local ? s.originated : s.best[static_cast<std::size_t>(dest)] >= 0;
    AsRel learned_from = AsRel::kCustomer;
    if (!is_local && have_route) {
      learned_from =
          s.neighbors[static_cast<std::size_t>(
                          s.best[static_cast<std::size_t>(dest)])]
              .rel;
    }
    char& out = s.rib_out[static_cast<std::size_t>(dest) * nn + ni];
    if (have_route &&
        bgp_exportable(is_local, learned_from, s.neighbors[ni].rel)) {
      BgpDynUpdate u;
      u.dest = dest;
      u.withdraw = false;
      if (is_local) {
        u.path = {me};
      } else {
        u.path = s.best_path[static_cast<std::size_t>(dest)];
      }
      s.pending[ni].push_back(std::move(u));
      out = 1;
    } else {
      out = 0;
    }
  }
  flush(engine, sim, me);
}

void BgpSpeakers::schedule_session_reset(Engine& engine, NetSim& sim,
                                         AsId as, AsId peer, SimTime when,
                                         SimTime reestablish_after) {
  MASSF_CHECK(as >= 0 && as < num_as_ && peer >= 0 && peer < num_as_);
  MASSF_CHECK(reestablish_after > 0);
  neighbor_index(as, peer);  // CHECKs AS adjacency in both directions
  neighbor_index(peer, as);
  const AsId ends[2][2] = {{as, peer}, {peer, as}};
  for (const auto& e : ends) {
    sim.schedule_app_timer(
        engine, speaker_hosts_[static_cast<std::size_t>(e[0])], when,
        make_timer(TrafficKind::kBgp, timer_code(kTimerSessionDown, e[0])),
        /*c=*/static_cast<std::uint64_t>(e[1]));
    sim.schedule_app_timer(
        engine, speaker_hosts_[static_cast<std::size_t>(e[0])],
        when + reestablish_after,
        make_timer(TrafficKind::kBgp, timer_code(kTimerSessionUp, e[0])),
        /*c=*/static_cast<std::uint64_t>(e[1]));
  }
}

BgpRoute BgpSpeakers::best_route(AsId as, AsId dest) const {
  MASSF_CHECK(as >= 0 && as < num_as_ && dest >= 0 && dest < num_as_);
  BgpRoute r;
  if (as == dest) return r;
  const Speaker& s = speakers_[static_cast<std::size_t>(as)];
  const std::int32_t best = s.best[static_cast<std::size_t>(dest)];
  if (best < 0) return r;
  const AsNeighbor& n = s.neighbors[static_cast<std::size_t>(best)];
  r.next_hop_as = n.as;
  r.learned_from = n.rel;
  r.local_pref = local_pref_for(n.rel);
  r.path_len = static_cast<std::int16_t>(
      s.best_path[static_cast<std::size_t>(dest)].size() - 1);
  return r;
}

std::vector<AsId> BgpSpeakers::as_path(AsId as, AsId dest) const {
  if (as == dest) return {as};
  const Speaker& s = speakers_[static_cast<std::size_t>(as)];
  return s.best_path[static_cast<std::size_t>(dest)];
}

std::uint64_t BgpSpeakers::updates_sent() const {
  std::uint64_t total = 0;
  for (const Speaker& s : speakers_) total += s.updates_sent;
  return total;
}

std::uint64_t BgpSpeakers::batches_sent() const {
  std::uint64_t total = 0;
  for (const Speaker& s : speakers_) total += s.batches_sent;
  return total;
}

std::uint64_t BgpSpeakers::announcements_received() const {
  std::uint64_t total = 0;
  for (const Speaker& s : speakers_) total += s.announce_rx;
  return total;
}

std::uint64_t BgpSpeakers::withdrawals_received() const {
  std::uint64_t total = 0;
  for (const Speaker& s : speakers_) total += s.withdraw_rx;
  return total;
}

std::uint64_t BgpSpeakers::route_changes() const {
  std::uint64_t total = 0;
  for (const Speaker& s : speakers_) total += s.route_changes;
  return total;
}

std::uint64_t BgpSpeakers::session_resets() const {
  std::uint64_t total = 0;
  for (const Speaker& s : speakers_) total += s.session_resets;
  return total;
}

std::uint64_t BgpSpeakers::stale_batches_dropped() const {
  std::uint64_t total = 0;
  for (const Speaker& s : speakers_) total += s.stale_batches;
  return total;
}

std::uint64_t BgpSpeakers::update_flows_failed() const {
  std::uint64_t total = 0;
  for (const Speaker& s : speakers_) total += s.update_flows_failed;
  return total;
}

void BgpSpeakers::publish_metrics(obs::Registry& registry) const {
  registry.counter("bgp.updates_sent").inc(updates_sent());
  registry.counter("bgp.batches_sent").inc(batches_sent());
  registry.counter("bgp.announcements_rx").inc(announcements_received());
  registry.counter("bgp.withdrawals_rx").inc(withdrawals_received());
  registry.counter("bgp.route_changes").inc(route_changes());
  registry.counter("bgp.session_resets").inc(session_resets());
  registry.counter("bgp.stale_batches").inc(stale_batches_dropped());
  registry.counter("bgp.update_flows_failed").inc(update_flows_failed());
  registry.gauge("bgp.last_change_vtime_s").set(to_seconds(last_change()));
}

SimTime BgpSpeakers::last_change() const {
  SimTime latest = -1;
  for (const Speaker& s : speakers_) latest = std::max(latest, s.last_change);
  return latest;
}

SimTime BgpSpeakers::last_change_for(AsId as, AsId dest) const {
  return speakers_[static_cast<std::size_t>(as)]
      .last_change_for[static_cast<std::size_t>(dest)];
}

bool BgpSpeakers::has_session(AsId as, AsId peer) const {
  if (as < 0 || as >= num_as_) return false;
  const auto& ns = speakers_[static_cast<std::size_t>(as)].neighbors;
  return std::any_of(ns.begin(), ns.end(),
                     [peer](const AsNeighbor& n) { return n.as == peer; });
}

void BgpSpeakers::schedule_origination(Engine& engine, NetSim& sim, AsId as,
                                       SimTime when, bool announce) {
  MASSF_CHECK(as >= 0 && as < num_as_);
  sim.schedule_app_timer(
      engine, speaker_hosts_[static_cast<std::size_t>(as)], when,
      make_timer(TrafficKind::kBgp, timer_code(kTimerBeacon, as)),
      /*c=*/announce ? 1 : 0);
}

}  // namespace massf
