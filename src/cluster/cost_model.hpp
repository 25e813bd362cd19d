// The simulated-cluster cost model.
//
// This is the documented substitution (DESIGN.md Section 1) for the paper's
// TeraGrid Itanium-2/Myrinet cluster: instead of measuring a real machine,
// the engine charges each logical process a fixed per-event cost and the
// whole machine a per-window synchronization cost.
//
// Calibration sources (paper Section 3.4.1 and Figure 5):
//   * global synchronization of ~100 engine nodes costs ~0.58 ms;
//   * Figure 5 shows the cost rising roughly linearly over 6..112 nodes
//     toward ~0.8-0.9 ms.
// A linear fit C(N) = 50us + 5.3us * N reproduces both (C(100) = 580us,
// C(112) = 644us) and is what all experiments use.
//
// The per-event cost (default 5 microseconds, i.e. ~200k events/s per
// node) matches packet-level DES throughput on Itanium-2-class hardware
// and is the MaximalEventRateOnEachNode used by the paper's sequential-
// time approximation in the parallel-efficiency metric.
#pragma once

#include <cstdint>

#include "util/sim_time.hpp"

namespace massf {

struct ClusterModel {
  std::int32_t num_engine_nodes = 90;  ///< paper default
  double cost_per_event_s = 5e-6;

  /// Global synchronization cost for n engine nodes (seconds).
  double sync_cost_s(std::int32_t n) const;
  double sync_cost_s() const { return sync_cost_s(num_engine_nodes); }

  /// The same quantity as a simulation-time duration, used when deriving
  /// the minimum admissible MLL threshold for the hierarchical partitioner.
  SimTime sync_cost_time(std::int32_t n) const;
  SimTime sync_cost_time() const { return sync_cost_time(num_engine_nodes); }

  /// events/second one node can sustain (1 / cost_per_event).
  double max_event_rate_per_node() const { return 1.0 / cost_per_event_s; }
};

}  // namespace massf
