// Latency probing: an ICMP-echo-style ping over simulated UDP.
//
// A PingProbe sends a small datagram from a source host; the probe's echo
// responder on the destination host reflects it; the round-trip time is
// recorded. Used by examples and tests to validate the latency model
// end to end (RTT must equal twice the one-way path latency plus
// serialization, in an unloaded network).
#pragma once

#include <cstdint>
#include <vector>

#include "traffic/manager.hpp"

namespace massf {

class PingProbe final : public TrafficComponent {
 public:
  struct Result {
    NodeId src = kInvalidNode;
    NodeId dst = kInvalidNode;
    SimTime sent_at = 0;
    SimTime rtt = -1;  ///< -1: no reply (lost or still in flight)
  };

  PingProbe() = default;

  /// Schedules one echo request of `payload_bytes` at virtual time `when`.
  /// Returns the probe index into results().
  std::size_t ping(Engine& engine, NetSim& sim, NodeId src, NodeId dst,
                   SimTime when, std::uint32_t payload_bytes = 64);

  const std::vector<Result>& results() const { return results_; }

  /// Completed round trips.
  std::size_t replies() const;

  // ---- TrafficComponent ---------------------------------------------------
  void start(Engine&, NetSim&) override {}
  void on_timer(Engine& engine, NetSim& sim, NodeId host,
                std::uint64_t payload, std::uint64_t c) override;
  void on_udp(Engine& engine, NetSim& sim, const Packet& packet) override;

 private:
  // Tag payload: probe index (27 bits) | reply bit (bit 27).
  static constexpr std::uint32_t kReplyBit = 1u << 27;

  std::vector<Result> results_;
};

}  // namespace massf
