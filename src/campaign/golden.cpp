#include "campaign/golden.hpp"

namespace massf {

std::uint64_t golden_ring_checksum(std::int32_t threads,
                                   std::uint64_t* events,
                                   std::uint64_t* windows) {
  GoldenRing ring = build_golden_ring();
  const RunStats stats =
      threads > 0 ? ring.engine->run_threaded(threads) : ring.engine->run();
  if (events != nullptr) *events = stats.total_events;
  if (windows != nullptr) *windows = stats.num_windows;
  return ring.checksum();
}

}  // namespace massf
