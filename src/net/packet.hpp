// Packet <-> Event payload encoding.
//
// The PDES event carries four 64-bit words; packets use them as:
//   a: src host (low 32) | dst host (high 32)
//   b: flow id
//   c: seq (low 32) | payload length (next 24) | flags (high 8)
//   d: arrive node (low 32) | ack (high 32)
// Everything is fixed-width so the encoding round-trips exactly.
#pragma once

#include <cstdint>

#include "pdes/event.hpp"
#include "topology/network.hpp"

namespace massf {

using FlowId = std::uint64_t;

enum PacketFlags : std::uint8_t {
  kFlagAck = 1,  ///< pure TCP acknowledgment
  kFlagFin = 2,  ///< last data segment of the flow
};

/// IP+TCP header overhead added to every packet's wire size.
constexpr std::uint32_t kHeaderBytes = 40;
/// TCP maximum segment size (payload bytes per data packet).
constexpr std::uint32_t kMss = 1460;

struct Packet {
  NodeId src = kInvalidNode;
  NodeId dst = kInvalidNode;
  FlowId flow = 0;
  std::uint32_t seq = 0;
  std::uint32_t len = 0;  ///< payload bytes (0 for pure acks)
  std::uint8_t flags = 0;
  NodeId arrive = kInvalidNode;  ///< node this arrival event targets
  std::uint32_t ack = 0;

  std::uint32_t wire_bytes() const { return len + kHeaderBytes; }

  void encode(Event& ev) const {
    ev.a = static_cast<std::uint32_t>(src) |
           (static_cast<std::uint64_t>(static_cast<std::uint32_t>(dst)) << 32);
    ev.b = flow;
    ev.c = static_cast<std::uint64_t>(seq) |
           (static_cast<std::uint64_t>(len & 0xffffffu) << 32) |
           (static_cast<std::uint64_t>(flags) << 56);
    ev.d = static_cast<std::uint32_t>(arrive) |
           (static_cast<std::uint64_t>(ack) << 32);
  }

  static Packet decode(const Event& ev) {
    Packet p;
    p.src = static_cast<NodeId>(static_cast<std::uint32_t>(ev.a));
    p.dst = static_cast<NodeId>(static_cast<std::uint32_t>(ev.a >> 32));
    p.flow = ev.b;
    p.seq = static_cast<std::uint32_t>(ev.c);
    p.len = static_cast<std::uint32_t>((ev.c >> 32) & 0xffffffu);
    p.flags = static_cast<std::uint8_t>(ev.c >> 56);
    p.arrive = static_cast<NodeId>(static_cast<std::uint32_t>(ev.d));
    p.ack = static_cast<std::uint32_t>(ev.d >> 32);
    return p;
  }
};

}  // namespace massf
