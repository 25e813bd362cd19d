// Golden-trace regression gate for the PDES hot path.
//
// Pins the event-trace checksum of the golden ring (pdes/golden_ring.hpp:
// lps=32, chain=64, hops=2000 — the exact configuration behind
// BENCH_pdes.json) so a scheduler refactor that silently reorders events
// fails loudly instead of shipping a perturbed trace with a
// plausible-looking speedup. The pinned value dates from the seed executor
// (std::priority_queue scheduler, static round-robin threading); the
// arena-heap/channel-clock engine must keep matching it at every thread
// count.
#include <gtest/gtest.h>

#include <string>

#include "pdes/golden_ring.hpp"

namespace massf {
namespace {

std::uint64_t run_golden_ring(std::int32_t threads, RunStats* out_stats) {
  GoldenRing ring = build_golden_ring();
  *out_stats =
      threads > 0 ? ring.engine->run_threaded(threads) : ring.engine->run();
  return ring.checksum();
}

TEST(PdesGoldenTrace, SequentialMatchesPinnedChecksum) {
  RunStats stats;
  EXPECT_EQ(run_golden_ring(0, &stats), kGoldenRingChecksum);
  EXPECT_EQ(stats.total_events, kGoldenRingEvents);
  EXPECT_EQ(stats.num_windows, kGoldenRingWindows);
}

// The threaded executor must keep the pinned trace at every thread count
// (channel clocks change who waits on whom, not what happens — DESIGN.md
// section 5g).
class PdesGoldenTraceThreaded : public ::testing::TestWithParam<int> {};

TEST_P(PdesGoldenTraceThreaded, MatchesPinnedChecksum) {
  RunStats stats;
  EXPECT_EQ(run_golden_ring(GetParam(), &stats), kGoldenRingChecksum);
  EXPECT_EQ(stats.total_events, kGoldenRingEvents);
  EXPECT_EQ(stats.num_windows, kGoldenRingWindows);
}

INSTANTIATE_TEST_SUITE_P(Threads, PdesGoldenTraceThreaded,
                         ::testing::Values(1, 2, 4),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "t" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace massf
