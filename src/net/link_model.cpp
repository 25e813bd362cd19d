#include "net/link_model.hpp"

#include "net/fluid_link.hpp"
#include "net/netsim.hpp"
#include "net/packet_link.hpp"
#include "obs/metrics.hpp"
#include "util/error.hpp"

namespace massf {

const char* link_model_kind_name(LinkModelKind kind) {
  switch (kind) {
    case LinkModelKind::kPacket: return "packet";
    case LinkModelKind::kHybrid: return "hybrid";
  }
  return "unknown";
}

bool parse_link_model_kind(const std::string& text, LinkModelKind* out) {
  if (text == "packet") {
    *out = LinkModelKind::kPacket;
    return true;
  }
  if (text == "hybrid") {
    *out = LinkModelKind::kHybrid;
    return true;
  }
  return false;
}

void LinkModel::start_background_flow(Engine&, SimTime, NodeId, NodeId,
                                      std::uint32_t, std::uint32_t) {
  MASSF_THROW(ErrorCategory::kConfig,
              std::string("link model '") + name() +
                  "' does not carry background flows");
}

std::vector<FlowRecord> LinkModel::background_flow_records() const {
  return {};
}

void LinkModel::publish_metrics(obs::Registry&) const {}

std::unique_ptr<LinkModel> make_link_model(const Network& net,
                                           const ForwardingPlane& fp,
                                           const NetSimOptions& opts) {
  switch (opts.link_model.kind) {
    case LinkModelKind::kPacket:
      return std::make_unique<PacketLinkModel>(net, opts);
    case LinkModelKind::kHybrid:
      return std::make_unique<FluidLinkModel>(net, fp, opts);
  }
  MASSF_THROW(ErrorCategory::kConfig, "unknown link model kind");
}

}  // namespace massf
