#include "campaign/golden.hpp"

#include <utility>

#include "shard/supervisor.hpp"

namespace massf {

std::uint64_t golden_ring_checksum(std::int32_t threads,
                                   std::uint64_t* events,
                                   std::uint64_t* windows,
                                   std::int32_t shards) {
  if (shards > 1) {
    shard::ShardOptions so;
    so.shards = shards;
    const shard::ShardResult result = shard::run_sharded(so, [] {
      GoldenRing ring = build_golden_ring();
      return shard::ShardWorkload{std::move(ring.engine),
                                  std::move(ring.lp_checksum)};
    });
    if (events != nullptr) *events = result.stats.total_events;
    if (windows != nullptr) *windows = result.stats.num_windows;
    return result.checksum;
  }

  GoldenRing ring = build_golden_ring();
  const RunStats stats =
      threads > 0 ? ring.engine->run_threaded(threads) : ring.engine->run();
  if (events != nullptr) *events = stats.total_events;
  if (windows != nullptr) *windows = stats.num_windows;
  return ring.checksum();
}

}  // namespace massf
