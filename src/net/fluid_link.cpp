#include "net/fluid_link.hpp"

#include <algorithm>
#include <cmath>

#include "obs/metrics.hpp"
#include "util/check.hpp"

namespace massf {
namespace {

/// Fraction of a link's bandwidth the fluid class always keeps, however
/// much measured packet traffic crosses it: a saturated shared link slows
/// background flows to a crawl instead of freezing them at rate zero
/// (zero is reserved for down/unrouted paths, which is what the stall
/// timeout keys on).
constexpr double kFluidMinShare = 0.01;

/// Rate recompute cadence in window boundaries: arrivals and coupling
/// refreshes are batched so a recompute runs at most once per this many
/// windows (departures and link-state changes also trigger one). Larger =
/// faster, coarser fidelity.
constexpr std::int64_t kRecomputeEvery = 8;

}  // namespace

void route_slots(const Network& net, const ForwardingPlane& fp, NodeId src,
                 NodeId dst, std::vector<std::uint32_t>& path) {
  path.clear();
  NodeId cur = src;
  while (cur != dst) {
    LinkId next = kInvalidLink;
    if (net.is_host(cur)) {
      const auto inc = net.incident(cur);
      if (inc.size() == 1) next = inc[0].link;
    } else {
      next = fp.next_link(cur, dst);
    }
    if (next == kInvalidLink ||
        path.size() > net.nodes.size()) {  // no route / routing loop
      path.clear();
      return;
    }
    const NetLink& l = net.links[static_cast<std::size_t>(next)];
    const bool fwd = l.a == cur;
    path.push_back(static_cast<std::uint32_t>(next) * 2 + (fwd ? 0 : 1));
    cur = fwd ? l.b : l.a;
  }
}

WaterFill::WaterFill(std::size_t num_slots) : dense_(num_slots, -1) {}

const std::vector<double>& WaterFill::fill(
    std::span<const std::span<const std::uint32_t>> paths,
    const std::function<double(std::uint32_t)>& capacity, double rate_cap) {
  const std::size_t n = paths.size();
  MASSF_CHECK(n <= std::numeric_limits<std::uint32_t>::max());
  for (const std::uint32_t s : slot_) dense_[s] = -1;
  slot_.clear();
  load_.clear();
  rates_.assign(n, 0.0);
  frozen_.assign(n, 0);

  // Index the slots unblocked flows load, in first-touch order.
  std::size_t unfrozen = 0;
  std::size_t crossings = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (paths[i].empty()) {
      frozen_[i] = 1;  // blocked: stays at rate 0
      continue;
    }
    ++unfrozen;
    crossings += paths[i].size();
    for (const std::uint32_t s : paths[i]) {
      MASSF_CHECK(s < dense_.size());
      if (dense_[s] < 0) {
        dense_[s] = static_cast<std::int32_t>(slot_.size());
        slot_.push_back(s);
        load_.push_back(0);
      }
      ++load_[static_cast<std::size_t>(dense_[s])];
    }
  }
  const std::size_t loaded = slot_.size();
  cap_.resize(loaded);
  share_.resize(loaded);
  for (std::size_t d = 0; d < loaded; ++d) {
    cap_[d] = capacity(slot_[d]);
    share_[d] = cap_[d] / load_[d];
  }

  // Slot -> flow lists. first_[d + 1] starts as slot d's offset and is
  // advanced past each member, ending as slot d + 1's offset.
  first_.assign(loaded + 1, 0);
  for (std::size_t d = 1; d < loaded; ++d) {
    first_[d + 1] = first_[d] + static_cast<std::size_t>(load_[d - 1]);
  }
  members_.resize(crossings);
  for (std::size_t i = 0; i < n; ++i) {
    for (const std::uint32_t s : paths[i]) {
      const auto d = static_cast<std::size_t>(dense_[s]);
      members_[first_[d + 1]++] = static_cast<std::uint32_t>(i);
    }
  }

  // Bottleneck candidates: the loaded slots whose fair share is at most
  // the rate cap (all of them when uncapped). A share above the cap only
  // matters when every share is, and then all remaining flows freeze at
  // the cap whichever slot is the minimum. Shares change only where a
  // freeze touches a slot, so that is where a slot joins the list.
  const double limit =
      rate_cap > 0 ? rate_cap : std::numeric_limits<double>::infinity();
  listed_.assign(loaded, 0);
  live_.clear();
  for (std::size_t d = 0; d < loaded; ++d) {
    if (share_[d] <= limit) {
      listed_[d] = 1;
      live_.push_back(static_cast<std::uint32_t>(d));
    }
  }
  while (unfrozen > 0) {
    // Bottleneck: the minimum (fair share, slot id) over the candidates —
    // the slot a scan of every slot in id order picks. Slots whose flows
    // all froze leave the list.
    std::size_t bn = loaded;
    double share = 0;
    std::size_t keep = 0;
    for (std::size_t k = 0; k < live_.size(); ++k) {
      const std::uint32_t d = live_[k];
      if (load_[d] <= 0) continue;
      live_[keep++] = d;
      if (bn == loaded || share_[d] < share ||
          (share_[d] == share && slot_[d] < slot_[bn])) {
        bn = d;
        share = share_[d];
      }
    }
    live_.resize(keep);
    share = std::max(share, 0.0);
    if (bn == loaded || (rate_cap > 0 && rate_cap < share)) {
      // Every remaining flow is window-limited below any fair share, so
      // all freeze at the cap at once (feasible: each loaded slot's fair
      // share exceeds the cap, hence cap * load < capacity). With flows
      // left unfrozen, only a capped fill can run out of candidates.
      MASSF_DCHECK(rate_cap > 0);
      for (std::size_t i = 0; i < n; ++i) {
        if (!frozen_[i]) rates_[i] = rate_cap;
      }
      break;
    }
    for (std::size_t k = first_[bn]; k < first_[bn + 1]; ++k) {
      const std::uint32_t i = members_[k];
      if (frozen_[i]) continue;
      rates_[i] = share;
      frozen_[i] = 1;
      --unfrozen;
      for (const std::uint32_t s : paths[i]) {
        const auto d = static_cast<std::size_t>(dense_[s]);
        cap_[d] = std::max(cap_[d] - share, 0.0);
        if (--load_[d] <= 0) continue;
        share_[d] = cap_[d] / load_[d];
        if (!listed_[d] && share_[d] <= limit) {
          listed_[d] = 1;
          live_.push_back(static_cast<std::uint32_t>(d));
        }
      }
    }
  }
  return rates_;
}

FluidLinkModel::FluidLinkModel(const Network& net, const ForwardingPlane& fp,
                               const NetSimOptions& opts)
    : PacketLinkModel(net, opts),
      fp_(&fp),
      water_fill_(net.links.size() * 2) {
  const std::size_t slots = net.links.size() * 2;
  fluid_share_bps_.assign(slots, 0.0);
  packet_window_bytes_.assign(slots, 0);
  packet_bytes_snapshot_.assign(slots, 0);
  packet_bps_.assign(slots, 0.0);
  // Let the first boundary with work recompute immediately instead of
  // waiting out a full cadence.
  last_recompute_boundary_ = -kRecomputeEvery;
}

void FluidLinkModel::attach(NetSim& sim, Engine& engine) {
  PacketLinkModel::attach(sim, engine);
  pending_.resize(static_cast<std::size_t>(sim.num_lps()) + 1);
  engine.barrier_hooks().push_back(
      [this](Engine& e, SimTime floor) { on_boundary(e, floor); });
}

TransmitResult FluidLinkModel::transmit(Engine& engine, NodeId from,
                                        LinkId link, const Packet& p) {
  const NetLink& l = net_->links[static_cast<std::size_t>(link)];
  const std::size_t slot = static_cast<std::size_t>(link) * 2 +
                           (l.a == from ? 0 : 1);
  // Flow -> packet coupling: the packet class sees the bandwidth left by
  // the fluid reservation published at the last recompute boundary, but
  // never less than its guaranteed floor. The no-reservation branch keeps
  // packet-only traffic on the exact pre-coupling arithmetic.
  double bw = l.bandwidth_bps;
  if (const double share = fluid_share_bps_[slot]; share > 0) {
    bw = std::max(bw - share,
                  opts_.link_model.fluid_min_packet_share * l.bandwidth_bps);
  }
  const TransmitResult res = transmit_impl(engine, from, link, p, bw);
  if (res.status == TransmitResult::kSent) {
    // Packet -> flow coupling input, differenced at recompute boundaries.
    packet_window_bytes_[slot] += p.wire_bytes();
  }
  return res;
}

void FluidLinkModel::on_link_state(std::uint64_t slot, bool up) {
  PacketLinkModel::on_link_state(slot, up);
  link_dirty_.store(true, std::memory_order_relaxed);
}

void FluidLinkModel::on_loss_state(std::uint64_t slot, std::uint32_t ppm) {
  PacketLinkModel::on_loss_state(slot, ppm);
  link_dirty_.store(true, std::memory_order_relaxed);
}

void FluidLinkModel::start_background_flow(Engine& engine, SimTime when,
                                           NodeId src, NodeId dst,
                                           std::uint32_t bytes,
                                           std::uint32_t tag) {
  const LpId lp = engine.current_lp();
  const std::size_t q =
      lp == kInvalidLp ? 0 : static_cast<std::size_t>(lp) + 1;
  MASSF_CHECK(q < pending_.size());
  pending_[q].push_back(Pending{when, src, dst, bytes, tag});

  // Guarantee an admission boundary even if the packet class goes quiet.
  // From a handler the only always-legal target is the calling LP itself
  // (a cross-LP send would have to honor the declared ChannelGraph); from
  // the pre-run or a boundary hook the injection path reaches LP 0, where
  // the coordinator can dedupe against the pending wake.
  if (lp != kInvalidLp) {
    engine.schedule(lp, std::max(when, engine.now()) +
                            engine.options().lookahead,
                    kEvFluidWake, 0);
    return;
  }
  const SimTime target =
      std::max(when, engine.now() + engine.options().lookahead);
  if (next_wake_ > engine.now() && next_wake_ <= target) return;
  next_wake_ = target;
  ++bg_.wakes;
  engine.schedule(0, target, kEvFluidWake, 0);
}

bool FluidLinkModel::has_pending() const {
  for (const auto& q : pending_) {
    if (!q.empty()) return true;
  }
  return false;
}

void FluidLinkModel::on_boundary(Engine& engine, SimTime floor) {
  ++boundaries_;
  const bool due = earliest_completion_ <= floor || earliest_deadline_ <= floor;
  const bool work =
      dirty_ || link_dirty_.load(std::memory_order_relaxed) || has_pending();
  if (!due &&
      !(work && static_cast<std::int64_t>(boundaries_) -
                        last_recompute_boundary_ >= kRecomputeEvery)) {
    schedule_wake(engine, floor);
    return;
  }
  advance_to(engine, floor);
  admit_pending(floor);
  recompute(engine, floor);
  schedule_wake(engine, floor);
}

void FluidLinkModel::advance_to(Engine& engine, SimTime floor) {
  const SimTime dt = floor - advanced_to_;
  if (dt <= 0 && active_.empty()) {
    advanced_to_ = std::max(advanced_to_, floor);
    return;
  }
  const double dt_s = to_seconds(std::max<SimTime>(dt, 0));

  struct Done {
    SimTime at;
    std::size_t idx;
  };
  std::vector<Done> done;
  for (std::size_t i = 0; i < active_.size(); ++i) {
    ActiveFlow& f = active_[i];
    if (f.rate_bps <= 0) continue;
    const double progress = f.rate_bps * dt_s / 8.0;  // bytes
    const double carried = std::min(f.remaining, progress);
    if (!link_bytes_.empty() && carried > 0) {
      const auto b = static_cast<std::uint64_t>(std::llround(carried));
      for (const std::uint32_t slot : f.path) link_bytes_[slot] += b;
    }
    if (f.remaining <= progress + 0.5) {
      // Piecewise-constant rate: the crossing time is closed-form.
      const SimTime at =
          advanced_to_ +
          from_seconds(std::max(f.remaining, 0.0) * 8.0 / f.rate_bps);
      done.push_back(Done{std::min(at, floor), i});
      f.remaining = 0;
    } else {
      f.remaining -= progress;
    }
  }
  advanced_to_ = std::max(advanced_to_, floor);
  if (done.empty()) return;

  // Completion callbacks fire in (analytic time, flow id) order — a pure
  // function of coordinator state, identical under every executor.
  std::sort(done.begin(), done.end(), [this](const Done& a, const Done& b) {
    if (a.at != b.at) return a.at < b.at;
    return active_[a.idx].flow < active_[b.idx].flow;
  });
  std::vector<char> dead(active_.size(), 0);
  for (const Done& d : done) {
    finish_flow(engine, active_[d.idx], d.at, /*failed=*/false);
    dead[d.idx] = 1;
  }
  drop_flows(dead);
  dirty_ = true;  // departures free bandwidth
}

void FluidLinkModel::admit_pending(SimTime floor) {
  struct Item {
    SimTime when;
    Pending p;
  };
  std::vector<Item> due;
  for (auto& q : pending_) {
    std::size_t out = 0;
    for (std::size_t i = 0; i < q.size(); ++i) {
      if (q[i].when <= floor) {
        due.push_back(Item{q[i].when, q[i]});
      } else {
        q[out++] = q[i];
      }
    }
    q.resize(out);
  }
  if (due.empty()) return;
  // Stable by arrival time; ties keep (queue, submit) order, which is the
  // same merged order under every executor (per-LP queues are filled in
  // deterministic handler order).
  std::stable_sort(due.begin(), due.end(),
                   [](const Item& a, const Item& b) { return a.when < b.when; });
  for (const Item& it : due) {
    ActiveFlow f;
    f.flow = kFluidFlowBit | next_flow_seq_++;
    f.src = it.p.src;
    f.dst = it.p.dst;
    f.bytes = it.p.bytes;
    f.tag = it.p.tag;
    f.started_at = floor;
    f.remaining = static_cast<double>(it.p.bytes);
    repath(f);
    // Keep the profiling run's PROF/HPROF inputs meaningful under hybrid
    // fidelity: charge each node on the path roughly what the packet
    // model would have (one event per MSS-sized segment).
    if (!f.path.empty()) {
      const std::uint64_t weight = 1 + (f.bytes + kMss - 1) / kMss;
      for (const std::uint32_t slot : f.path) {
        const NetLink& l = net_->links[slot / 2];
        sim_->count_background_events(slot % 2 == 0 ? l.a : l.b, weight);
      }
      sim_->count_background_events(f.dst, weight);
    }
    active_.push_back(std::move(f));
    ++bg_.started;
  }
  dirty_ = true;
}

void FluidLinkModel::repath(ActiveFlow& f) const {
  route_slots(*net_, *fp_, f.src, f.dst, f.path);
}

bool FluidLinkModel::path_blocked(const ActiveFlow& f) const {
  if (f.path.empty()) return true;
  for (const std::uint32_t slot : f.path) {
    if (!iface_up_[slot]) return true;
  }
  return false;
}

void FluidLinkModel::drop_flows(const std::vector<char>& dead) {
  std::size_t out = 0;
  for (std::size_t i = 0; i < active_.size(); ++i) {
    if (dead[i]) continue;
    // Never self-move: libstdc++'s vector move-assignment empties a vector
    // assigned to itself, which would erase the survivor's path.
    if (out != i) active_[out] = std::move(active_[i]);
    ++out;
  }
  active_.resize(out);
}

void FluidLinkModel::recompute(Engine& engine, SimTime floor) {
  ++bg_.recomputes;
  dirty_ = false;
  link_dirty_.store(false, std::memory_order_relaxed);
  last_recompute_boundary_ = static_cast<std::int64_t>(boundaries_);

  // Packet -> flow coupling: measured packet throughput since the last
  // recompute shrinks what the water-fill may hand out.
  const std::size_t slots = packet_window_bytes_.size();
  if (last_recompute_floor_ >= 0 && floor > last_recompute_floor_) {
    const double el = to_seconds(floor - last_recompute_floor_);
    for (std::size_t s = 0; s < slots; ++s) {
      packet_bps_[s] = static_cast<double>(packet_window_bytes_[s] -
                                           packet_bytes_snapshot_[s]) *
                       8.0 / el;
    }
  }
  packet_bytes_snapshot_ = packet_window_bytes_;
  last_recompute_floor_ = floor;

  // Re-path around failed links before rating; flows still blocked stay
  // at rate 0 and are handled by the stall machinery.
  fill_paths_.clear();
  for (ActiveFlow& f : active_) {
    if (path_blocked(f)) repath(f);
    using Path = std::span<const std::uint32_t>;
    fill_paths_.push_back(path_blocked(f) ? Path() : Path(f.path));
  }

  // Max-min water-fill over residual slot capacities. Loss bursts scale a
  // slot's usable capacity by the delivery probability (goodput view).
  // Only slots on unblocked paths are loaded, and those are all up.
  const std::vector<double>& rates = water_fill_.fill(
      fill_paths_,
      [this](std::uint32_t s) {
        const NetLink& l = net_->links[s / 2];
        double c = std::max(l.bandwidth_bps - packet_bps_[s],
                            kFluidMinShare * l.bandwidth_bps);
        c *= 1.0 - static_cast<double>(loss_rate_ppm_[s]) / 1e6;
        return c;
      },
      opts_.link_model.fluid_flow_rate_cap_bps);
  for (std::size_t i = 0; i < active_.size(); ++i) {
    active_[i].rate_bps = rates[i];
  }

  // Publish the flow -> packet coupling for the coming windows.
  std::fill(fluid_share_bps_.begin(), fluid_share_bps_.end(), 0.0);
  for (const ActiveFlow& f : active_) {
    for (const std::uint32_t slot : f.path) {
      fluid_share_bps_[slot] += f.rate_bps;
    }
  }

  // Completion horizon, stall deadlines, and stall failures.
  earliest_completion_ = kNever;
  earliest_deadline_ = kNever;
  const SimTime timeout = from_seconds(opts_.link_model.fluid_stall_timeout_s);
  std::vector<std::size_t> failed;
  for (std::size_t i = 0; i < active_.size(); ++i) {
    ActiveFlow& f = active_[i];
    if (f.rate_bps > 0) {
      f.stall_since = -1;
      const SimTime at =
          floor + from_seconds(f.remaining * 8.0 / f.rate_bps);
      earliest_completion_ = std::min(earliest_completion_, at);
      continue;
    }
    if (f.stall_since < 0) f.stall_since = floor;
    if (floor - f.stall_since >= timeout) {
      failed.push_back(i);
    } else {
      earliest_deadline_ =
          std::min(earliest_deadline_, f.stall_since + timeout);
    }
  }
  if (!failed.empty()) {
    std::vector<char> dead(active_.size(), 0);
    for (const std::size_t i : failed) {
      finish_flow(engine, active_[i], floor, /*failed=*/true);
      dead[i] = 1;
    }
    drop_flows(dead);
    dirty_ = true;  // the freed shares redistribute at the next recompute
  }
}

void FluidLinkModel::finish_flow(Engine& engine, const ActiveFlow& f,
                                 SimTime finished_at, bool failed) {
  if (failed) {
    ++bg_.failed;
  } else {
    ++bg_.completed;
    bg_.bytes_completed += f.bytes;
  }
  FlowRecord rec;
  rec.flow = f.flow;
  rec.src = f.src;
  rec.dst = f.dst;
  rec.bytes = f.bytes;
  rec.tag = f.tag;
  rec.started_at = f.started_at;
  rec.finished_at = finished_at;
  rec.failed = failed;
  if (opts_.collect_flow_records) records_.push_back(rec);
  sim_->background_flow_finished(engine, rec);
}

void FluidLinkModel::schedule_wake(Engine& engine, SimTime floor) {
  SimTime target = std::min(earliest_completion_, earliest_deadline_);
  if (dirty_ || link_dirty_.load(std::memory_order_relaxed) ||
      has_pending()) {
    const std::int64_t since =
        static_cast<std::int64_t>(boundaries_) - last_recompute_boundary_;
    const std::int64_t left =
        std::max<std::int64_t>(kRecomputeEvery - since, 1);
    target = std::min(target, floor + left * engine.options().lookahead);
  }
  if (target == kNever) return;
  target = std::max(target, floor + engine.options().lookahead);
  if (next_wake_ > floor && next_wake_ <= target) return;
  next_wake_ = target;
  ++bg_.wakes;
  engine.schedule(0, target, kEvFluidWake, 0);
}

std::vector<FlowRecord> FluidLinkModel::background_flow_records() const {
  return records_;
}

void FluidLinkModel::publish_metrics(obs::Registry& registry) const {
  registry.counter("net.bg.flows_started").inc(bg_.started);
  registry.counter("net.bg.flows_completed").inc(bg_.completed);
  registry.counter("net.bg.flows_failed").inc(bg_.failed);
  registry.counter("net.bg.bytes_completed").inc(bg_.bytes_completed);
  registry.counter("net.bg.recomputes").inc(bg_.recomputes);
  registry.counter("net.bg.wakes").inc(bg_.wakes);
}

}  // namespace massf
