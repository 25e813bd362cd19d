// Constant-bit-rate UDP streams — the other classic background-traffic
// model (alongside request/response HTTP): each stream pushes fixed-size
// datagrams at a fixed rate from a source host to a sink, loading links
// without any congestion response.
#pragma once

#include <cstdint>
#include <vector>

#include "traffic/manager.hpp"

namespace massf {

struct CbrOptions {
  double rate_bps = 1e6;              ///< per stream
  std::uint32_t packet_bytes = 1000;  ///< datagram payload
  /// Streams start staggered over one packet interval to avoid phase
  /// alignment.
  SimTime start_at = milliseconds(1);
};

class CbrWorkload final : public TrafficComponent {
 public:
  struct Stream {
    NodeId src = kInvalidNode;
    NodeId dst = kInvalidNode;
  };

  CbrWorkload(std::vector<Stream> streams, const CbrOptions& options);

  void start(Engine& engine, NetSim& sim) override;
  void on_timer(Engine& engine, NetSim& sim, NodeId host,
                std::uint64_t payload, std::uint64_t c) override;
  void on_udp(Engine& engine, NetSim& sim, const Packet& packet) override;

  std::uint64_t packets_sent() const { return sent_; }
  std::uint64_t packets_received() const;

  /// Per-stream delivered datagram counts.
  const std::vector<std::uint64_t>& received_per_stream() const {
    return received_;
  }

 private:
  SimTime interval() const;

  std::vector<Stream> streams_;
  CbrOptions opts_;
  std::uint64_t sent_ = 0;
  std::vector<std::uint64_t> received_;
};

}  // namespace massf
