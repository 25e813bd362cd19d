#include "net/fluid_link.hpp"

#include <algorithm>

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

std::uint32_t WaterFill::add(std::span<const std::uint32_t> path) {
  std::uint32_t h;
  if (!free_handles_.empty()) {
    h = free_handles_.back();
    free_handles_.pop_back();
  } else {
    MASSF_CHECK(first_.size() < kNone);
    h = static_cast<std::uint32_t>(first_.size());
    first_.push_back(kNone);
    state_.push_back(kFree);
  }
  state_[h] = path.empty() ? kBlocked : kLoading;
  if (!path.empty()) ++loading_;
  std::uint32_t last = kNone;
  for (const std::uint32_t s : path) {
    MASSF_CHECK(s < dense_.size());
    if (dense_[s] < 0) {
      dense_[s] = static_cast<std::int32_t>(slot_.size());
      slot_.push_back(s);
      load_.push_back(0);
      head_.push_back(kNone);
    }
    const auto d = static_cast<std::size_t>(dense_[s]);
    std::uint32_t c = free_crossing_;
    if (c != kNone) {
      free_crossing_ = crossings_[c].flow_next;
    } else {
      MASSF_CHECK(crossings_.size() < kNone);
      c = static_cast<std::uint32_t>(crossings_.size());
      crossings_.emplace_back();
    }
    crossings_[c] = Crossing{h, s, head_[d], kNone, kNone};
    if (head_[d] != kNone) crossings_[head_[d]].prev = c;
    head_[d] = c;
    ++load_[d];
    (last == kNone ? first_[h] : crossings_[last].flow_next) = c;
    last = c;
  }
  return h;
}

void WaterFill::remove(std::uint32_t h) {
  MASSF_CHECK(h < state_.size() && state_[h] != kFree);
  if (state_[h] == kLoading) --loading_;
  for (std::uint32_t c = first_[h]; c != kNone;) {
    Crossing& x = crossings_[c];
    const auto d = static_cast<std::size_t>(dense_[x.slot]);
    if (x.prev != kNone) {
      crossings_[x.prev].next = x.next;
    } else {
      head_[d] = x.next;
    }
    if (x.next != kNone) crossings_[x.next].prev = x.prev;
    if (--load_[d] == 0) drop_slot(d);
    const std::uint32_t next = x.flow_next;
    x.flow_next = free_crossing_;
    free_crossing_ = c;
    c = next;
  }
  first_[h] = kNone;
  state_[h] = kFree;
  free_handles_.push_back(h);
}

void WaterFill::clear() {
  for (const std::uint32_t s : slot_) dense_[s] = -1;
  slot_.clear();
  load_.clear();
  head_.clear();
  crossings_.clear();
  free_crossing_ = kNone;
  first_.clear();
  state_.clear();
  free_handles_.clear();
  loading_ = 0;
}

void WaterFill::drop_slot(std::size_t d) {
  dense_[slot_[d]] = -1;
  const std::size_t last = slot_.size() - 1;
  if (d != last) {
    slot_[d] = slot_[last];
    load_[d] = load_[last];
    head_[d] = head_[last];
    dense_[slot_[d]] = static_cast<std::int32_t>(d);
  }
  slot_.pop_back();
  load_.pop_back();
  head_.pop_back();
}

const std::vector<double>& WaterFill::run_rounds(double rate_cap) {
  const std::size_t n = state_.size();
  const std::size_t loaded = slot_.size();
  rates_.assign(n, 0.0);
  frozen_.resize(n);
  for (std::size_t h = 0; h < n; ++h) frozen_[h] = state_[h] != kLoading;
  left_.assign(load_.begin(), load_.end());
  share_.resize(loaded);
  for (std::size_t d = 0; d < loaded; ++d) share_[d] = cap_[d] / left_[d];

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
  std::size_t unfrozen = loading_;
  while (unfrozen > 0) {
    // Bottleneck: the minimum (fair share, slot id) over the candidates —
    // the slot a scan of every slot in id order picks. Slots whose flows
    // all froze leave the list.
    std::size_t bn = loaded;
    double share = 0;
    std::size_t keep = 0;
    for (std::size_t k = 0; k < live_.size(); ++k) {
      const std::uint32_t d = live_[k];
      if (left_[d] <= 0) continue;
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
      for (std::size_t h = 0; h < n; ++h) {
        if (!frozen_[h]) rates_[h] = rate_cap;
      }
      break;
    }
    // Each slot a frozen flow crosses loses `share` per crossing. Every
    // freeze of a round subtracts the same share, so the order of the
    // member list does not change any result.
    for (std::uint32_t m = head_[bn]; m != kNone; m = crossings_[m].next) {
      const std::uint32_t h = crossings_[m].flow;
      if (frozen_[h]) continue;
      rates_[h] = share;
      frozen_[h] = 1;
      --unfrozen;
      for (std::uint32_t c = first_[h]; c != kNone;
           c = crossings_[c].flow_next) {
        const auto d = static_cast<std::size_t>(dense_[crossings_[c].slot]);
        cap_[d] = std::max(cap_[d] - share, 0.0);
        if (--left_[d] <= 0) continue;
        share_[d] = cap_[d] / left_[d];
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
  packet_bytes_.assign(slots, PacketBytes{});
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
    // Packet -> flow coupling input: this recompute interval's bytes.
    PacketBytes& b = packet_bytes_[slot];
    if (b.epoch != epoch_) b = PacketBytes{epoch_, 0};
    b.bytes += p.wire_bytes();
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
    if (!iface_[slot].up) return true;
  }
  return false;
}

void FluidLinkModel::drop_flows(const std::vector<char>& dead) {
  std::size_t out = 0;
  for (std::size_t i = 0; i < active_.size(); ++i) {
    if (dead[i]) {
      if (active_[i].handle != kNoHandle) {
        water_fill_.remove(active_[i].handle);
      }
      continue;
    }
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
  const bool links_changed =
      link_dirty_.exchange(false, std::memory_order_relaxed);
  last_recompute_boundary_ = static_cast<std::int64_t>(boundaries_);

  // Re-path around failed links before rating; flows still blocked stay
  // at rate 0 and are handled by the stall machinery. Only link and loss
  // events change which slots are up, so an unblocked flow needs a
  // re-check only after one; a blocked flow is re-checked every time.
  for (ActiveFlow& f : active_) {
    const bool registered = f.handle != kNoHandle;
    if (registered && !links_changed) continue;
    if (!path_blocked(f)) {
      if (!registered) f.handle = water_fill_.add(f.path);
      continue;
    }
    if (registered) {
      water_fill_.remove(f.handle);
      f.handle = kNoHandle;
    }
    repath(f);
    if (!path_blocked(f)) f.handle = water_fill_.add(f.path);
  }

  // Max-min water-fill over residual slot capacities. Packet -> flow
  // coupling: the packet rate a loaded slot carried since the last
  // recompute shrinks what the fill may hand out (window floors strictly
  // increase, so only the first recompute has no interval to measure).
  // Loss bursts scale a slot's usable capacity by the delivery probability
  // (goodput view). Only slots on unblocked paths are loaded, and those
  // are all up.
  const double el = last_recompute_floor_ >= 0 && floor > last_recompute_floor_
                        ? to_seconds(floor - last_recompute_floor_)
                        : 0.0;
  const std::uint64_t interval = epoch_++;
  last_recompute_floor_ = floor;
  const std::vector<double>& rates = water_fill_.fill(
      [&](std::uint32_t s) {
        const NetLink& l = net_->links[s / 2];
        const PacketBytes& b = packet_bytes_[s];
        const double packet_bps =
            el > 0 && b.epoch == interval
                ? static_cast<double>(b.bytes) * 8.0 / el
                : 0.0;
        double c = std::max(l.bandwidth_bps - packet_bps,
                            kFluidMinShare * l.bandwidth_bps);
        c *= 1.0 - static_cast<double>(iface_[s].loss_rate_ppm) / 1e6;
        return c;
      },
      opts_.link_model.fluid_flow_rate_cap_bps);

  // Publish the flow -> packet coupling for the coming windows. Only the
  // slots the last publish set can be non-zero.
  for (const std::uint32_t s : published_) fluid_share_bps_[s] = 0.0;
  for (ActiveFlow& f : active_) {
    if (f.handle == kNoHandle) {
      f.rate_bps = 0;
      continue;
    }
    f.rate_bps = rates[f.handle];
    for (const std::uint32_t s : f.path) fluid_share_bps_[s] += f.rate_bps;
  }
  const std::span<const std::uint32_t> loaded = water_fill_.loaded_slots();
  published_.assign(loaded.begin(), loaded.end());

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
