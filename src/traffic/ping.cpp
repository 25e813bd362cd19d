#include "traffic/ping.hpp"

#include "util/check.hpp"

namespace massf {

std::size_t PingProbe::ping(Engine& engine, NetSim& sim, NodeId src,
                            NodeId dst, SimTime when,
                            std::uint32_t payload_bytes) {
  const std::size_t idx = results_.size();
  MASSF_CHECK(idx < kReplyBit);
  Result r;
  r.src = src;
  r.dst = dst;
  r.sent_at = when;
  results_.push_back(r);
  // The request is launched by a timer on the source host so probes can be
  // created before the run regardless of LP ownership.
  sim.schedule_app_timer(
      engine, src, when,
      make_timer(TrafficKind::kPing, static_cast<std::uint64_t>(idx)),
      payload_bytes);
  return idx;
}

void PingProbe::on_timer(Engine& engine, NetSim& sim, NodeId host,
                         std::uint64_t payload, std::uint64_t c) {
  const auto idx = static_cast<std::size_t>(payload);
  MASSF_CHECK(idx < results_.size());
  const Result& r = results_[idx];
  MASSF_CHECK(r.src == host);
  sim.send_udp(engine, engine.now(), r.src, r.dst,
               static_cast<std::uint32_t>(c),
               make_tag(TrafficKind::kPing,
                        static_cast<std::uint32_t>(idx)));
}

void PingProbe::on_udp(Engine& engine, NetSim& sim, const Packet& packet) {
  const std::uint32_t payload = tag_payload(packet.ack);
  const auto idx = static_cast<std::size_t>(payload & ~kReplyBit);
  MASSF_CHECK(idx < results_.size());
  Result& r = results_[idx];
  if ((payload & kReplyBit) == 0) {
    // Echo request arrived at the destination: reflect it.
    MASSF_CHECK(packet.dst == r.dst);
    sim.send_udp(engine, engine.now(), r.dst, r.src, packet.len,
                 make_tag(TrafficKind::kPing,
                          static_cast<std::uint32_t>(idx) | kReplyBit));
    return;
  }
  // Reply back at the source: record the round trip.
  MASSF_CHECK(packet.dst == r.src);
  if (r.rtt < 0) r.rtt = engine.now() - r.sent_at;
}

std::size_t PingProbe::replies() const {
  std::size_t n = 0;
  for (const Result& r : results_) n += r.rtt >= 0;
  return n;
}

}  // namespace massf
