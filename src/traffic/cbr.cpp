#include "traffic/cbr.hpp"

#include "util/check.hpp"

namespace massf {

CbrWorkload::CbrWorkload(std::vector<Stream> streams,
                         const CbrOptions& options)
    : streams_(std::move(streams)), opts_(options) {
  MASSF_CHECK(!streams_.empty());
  MASSF_CHECK(opts_.rate_bps > 0);
  MASSF_CHECK(opts_.packet_bytes > 0 && opts_.packet_bytes <= kMss);
  received_.assign(streams_.size(), 0);
}

SimTime CbrWorkload::interval() const {
  return from_seconds(static_cast<double>(opts_.packet_bytes) * 8 /
                      opts_.rate_bps);
}

void CbrWorkload::start(Engine& engine, NetSim& sim) {
  const SimTime step = interval();
  for (std::size_t i = 0; i < streams_.size(); ++i) {
    // Deterministic stagger: stream i starts i/n of the way into the first
    // interval.
    const SimTime offset =
        step * static_cast<SimTime>(i) /
        static_cast<SimTime>(streams_.size());
    sim.schedule_app_timer(engine, streams_[i].src,
                           opts_.start_at + offset,
                           make_timer(TrafficKind::kCbr, i));
  }
}

void CbrWorkload::on_timer(Engine& engine, NetSim& sim, NodeId host,
                           std::uint64_t payload, std::uint64_t) {
  const auto idx = static_cast<std::size_t>(payload);
  MASSF_CHECK(idx < streams_.size());
  const Stream& s = streams_[idx];
  MASSF_CHECK(s.src == host);
  sim.send_udp(engine, engine.now(), s.src, s.dst, opts_.packet_bytes,
               make_tag(TrafficKind::kCbr, static_cast<std::uint32_t>(idx)));
  ++sent_;
  sim.schedule_app_timer(engine, s.src, engine.now() + interval(),
                         make_timer(TrafficKind::kCbr, payload));
}

void CbrWorkload::on_udp(Engine&, NetSim&, const Packet& packet) {
  const std::uint32_t idx = tag_payload(packet.ack);
  MASSF_CHECK(idx < streams_.size());
  ++received_[idx];
}

std::uint64_t CbrWorkload::packets_received() const {
  std::uint64_t total = 0;
  for (const std::uint64_t r : received_) total += r;
  return total;
}

}  // namespace massf
