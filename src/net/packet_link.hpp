// The packet-level link model: per-directed-interface busy-until clocks,
// drop-tail output queues, administrative up/down state, and deterministic
// loss bursts — extracted verbatim from the original NetSim so pure-packet
// runs stay bit-identical (same doubles, same event stream). See
// link_model.hpp for the ownership contract.
#pragma once

#include "net/link_model.hpp"
#include "net/netsim.hpp"

namespace massf {

class PacketLinkModel : public LinkModel {
 public:
  PacketLinkModel(const Network& net, const NetSimOptions& opts);

  LinkModelKind kind() const override { return LinkModelKind::kPacket; }
  void attach(NetSim& sim, Engine& engine) override;

  TransmitResult transmit(Engine& engine, NodeId from, LinkId link,
                          const Packet& p) override;

  void schedule_link_state(Engine& engine, LinkId link, SimTime when,
                           bool up) override;
  void schedule_loss_state(Engine& engine, LinkId link, SimTime when,
                           double loss_rate) override;
  void on_link_state(std::uint64_t slot, bool up) override;
  void on_loss_state(std::uint64_t slot, std::uint32_t ppm) override;

 protected:
  /// The shared drop-tail transmission path, parameterized on the
  /// bandwidth the packet class may use: the pure-packet model passes the
  /// link's full bandwidth (bit-identical to the pre-refactor code); the
  /// hybrid model passes the residual left by the fluid reservation.
  TransmitResult transmit_impl(Engine& engine, NodeId from, LinkId link,
                               const Packet& p, double bandwidth_bps);

  const Network* net_;
  NetSim* sim_ = nullptr;
  NetSimOptions opts_;

  /// The state of one directed interface (link*2 + dir), all of it read
  /// by every hop. Each record is only touched by the LP owning the
  /// transmitting endpoint.
  struct Iface {
    SimTime free = 0;                 // busy-until time
    std::uint64_t loss_seq = 0;       // transmits, fed to the drop hash
    std::uint32_t loss_rate_ppm = 0;  // loss-burst rate, 0 = no loss
    bool up = true;                   // administrative state
  };
  std::vector<Iface> iface_;
};

}  // namespace massf
