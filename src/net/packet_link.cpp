#include "net/packet_link.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace massf {
namespace {

SimTime service_time(std::uint32_t wire_bytes, double bandwidth_bps) {
  return from_seconds(static_cast<double>(wire_bytes) * 8.0 / bandwidth_bps);
}

/// splitmix64-style finalizer over (seed, slot, seq): the loss-burst drop
/// decision depends only on values owned by the transmitting LP, so it is
/// bit-identical under the sequential and threaded executors.
std::uint64_t loss_hash(std::uint64_t seed, std::uint64_t slot,
                        std::uint64_t seq) {
  std::uint64_t x = seed + 0x9e3779b97f4a7c15ULL * (slot + 1) +
                    0xbf58476d1ce4e5b9ULL * (seq + 1);
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

}  // namespace

PacketLinkModel::PacketLinkModel(const Network& net, const NetSimOptions& opts)
    : net_(&net), opts_(opts), iface_(net.links.size() * 2) {}

void PacketLinkModel::attach(NetSim& sim, Engine& engine) {
  (void)engine;  // the packet model registers no boundary work
  sim_ = &sim;
}

TransmitResult PacketLinkModel::transmit(Engine& engine, NodeId from,
                                         LinkId link, const Packet& p) {
  const NetLink& l = net_->links[static_cast<std::size_t>(link)];
  return transmit_impl(engine, from, link, p, l.bandwidth_bps);
}

TransmitResult PacketLinkModel::transmit_impl(Engine& engine, NodeId from,
                                              LinkId link, const Packet& p,
                                              double bandwidth_bps) {
  const NetLink& l = net_->links[static_cast<std::size_t>(link)];
  MASSF_CHECK(l.a == from || l.b == from);
  TransmitResult res;
  res.peer = l.a == from ? l.b : l.a;
  const std::size_t slot = static_cast<std::size_t>(link) * 2 +
                           (l.a == from ? 0 : 1);
  Iface& iface = iface_[slot];

  if (!iface.up) {
    res.status = TransmitResult::kLinkDown;
    return res;
  }
  if (const std::uint32_t rate = iface.loss_rate_ppm; rate > 0) {
    // Loss/corruption burst: deterministic per-slot counter hash (the
    // corrupted frame is dropped at ingress and consumes no bandwidth).
    const std::uint64_t seq = iface.loss_seq++;
    if (loss_hash(opts_.fault_seed, slot, seq) % 1000000u < rate) {
      res.status = TransmitResult::kLoss;
      return res;
    }
  }

  const SimTime now = engine.now();
  const SimTime start = std::max(now, iface.free);
  // Drop-tail: the backlog currently queued ahead of this packet, in bytes.
  const double backlog_bytes = to_seconds(start - now) * bandwidth_bps / 8.0;
  if (backlog_bytes > opts_.queue_capacity_bytes) {
    res.status = TransmitResult::kQueueFull;
    return res;
  }
  const SimTime depart = start + service_time(p.wire_bytes(), bandwidth_bps);
  iface.free = depart;

  res.status = TransmitResult::kSent;
  res.arrive = depart + l.latency;
  return res;
}

void PacketLinkModel::schedule_link_state(Engine& engine, LinkId link,
                                          SimTime when, bool up) {
  MASSF_CHECK(link >= 0 && link < static_cast<LinkId>(net_->links.size()));
  const NetLink& l = net_->links[static_cast<std::size_t>(link)];
  // One event per direction, addressed to the LP owning that transmitter.
  engine.schedule(sim_->lp_of(l.a), when, kEvLinkState,
                  static_cast<std::uint64_t>(link) * 2, up ? 1 : 0);
  engine.schedule(sim_->lp_of(l.b), when, kEvLinkState,
                  static_cast<std::uint64_t>(link) * 2 + 1, up ? 1 : 0);
}

void PacketLinkModel::schedule_loss_state(Engine& engine, LinkId link,
                                          SimTime when, double loss_rate) {
  MASSF_CHECK(link >= 0 && link < static_cast<LinkId>(net_->links.size()));
  MASSF_CHECK(loss_rate >= 0 && loss_rate < 1.0);
  const auto ppm = static_cast<std::uint64_t>(loss_rate * 1e6);
  const NetLink& l = net_->links[static_cast<std::size_t>(link)];
  engine.schedule(sim_->lp_of(l.a), when, kEvLossState,
                  static_cast<std::uint64_t>(link) * 2, ppm);
  engine.schedule(sim_->lp_of(l.b), when, kEvLossState,
                  static_cast<std::uint64_t>(link) * 2 + 1, ppm);
}

void PacketLinkModel::on_link_state(std::uint64_t slot, bool up) {
  // The slot's state is owned by the transmitting endpoint's LP, which is
  // where the kEvLinkState event was addressed.
  iface_[slot].up = up;
}

void PacketLinkModel::on_loss_state(std::uint64_t slot, std::uint32_t ppm) {
  iface_[slot].loss_rate_ppm = ppm;
}

}  // namespace massf
