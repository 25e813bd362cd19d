// Background HTTP workload (paper Section 4.2): clients continuously
// request files from servers over TCP; think times are exponential (mean
// 5 s in the paper) and file sizes exponential with a 50 KB mean. Server
// popularity follows a Zipf distribution, as measured for real web traffic.
#pragma once

#include <cstdint>
#include <vector>

#include "traffic/manager.hpp"
#include "util/rng.hpp"

namespace massf {

struct HttpOptions {
  double think_time_mean_s = 5.0;
  double file_mean_bytes = 50e3;
  std::uint32_t request_bytes = 300;
  double zipf_exponent = 0.8;
  std::uint64_t seed = 1;
  /// Flows outstanding at t=0 are staggered over [0, think_time_mean_s).
  bool staggered_start = true;
};

class HttpWorkload final : public TrafficComponent {
 public:
  HttpWorkload(std::vector<NodeId> clients, std::vector<NodeId> servers,
               const HttpOptions& options);

  void start(Engine& engine, NetSim& sim) override;
  void on_flow_complete(Engine& engine, NetSim& sim, FlowId flow,
                        NodeId src_host, NodeId dst_host,
                        std::uint32_t tag) override;
  /// Graceful degradation: a failed request or response restarts the
  /// client's think cycle instead of wedging it forever.
  void on_flow_failed(Engine& engine, NetSim& sim, FlowId flow,
                      NodeId src_host, NodeId dst_host,
                      std::uint32_t tag) override;
  void on_timer(Engine& engine, NetSim& sim, NodeId host,
                std::uint64_t payload, std::uint64_t c) override;

  std::uint64_t requests_issued() const;
  std::uint64_t responses_completed() const;

  /// Publishes `traffic.http.*` counters (requests issued / responses
  /// completed) into `registry`.
  void publish_metrics(obs::Registry& registry) const override;

 private:
  struct Client {
    NodeId host;
    Rng rng;                 ///< owned by the client's LP
    std::uint64_t requests = 0;
    std::uint64_t responses = 0;
  };

  void issue_request(Engine& engine, NetSim& sim, std::uint32_t client_idx);

  std::vector<Client> clients_;
  std::vector<NodeId> servers_;
  HttpOptions opts_;
  Rng base_rng_;
  ZipfSampler server_popularity_;
};

}  // namespace massf
