// Unit tests for the channel-clock sync layer (src/pdes/channel_sync):
// ChannelGraph construction/queries, the pdes.sync.* aggregates the
// threaded executor reports, and topology enforcement in Engine::schedule.
// That a worker-thread throw surfaces on the calling thread after a clean
// drain is checked by Executors/EngineError_.CrossLpViolationThrows
// (pdes_test.cpp).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <vector>

#include "pdes/channel_sync.hpp"
#include "pdes/engine.hpp"
#include "util/error.hpp"

namespace massf {
namespace {

constexpr std::int32_t kEvHop = 1;

// Forwards each hop event around a fixed ring at exactly the lookahead.
class HopLp final : public LogicalProcess {
 public:
  explicit HopLp(LpId next) : next_(next) {}

  void handle(Engine& engine, const Event& ev) override {
    ++events;
    if (ev.a > 0) {
      engine.schedule(next_, ev.time + engine.options().lookahead, kEvHop,
                      ev.a - 1);
    }
  }

  std::uint64_t events = 0;

 private:
  LpId next_;
};

TEST(ChannelGraph, EmptyGraphAllowsEverything) {
  ChannelGraph g;
  EXPECT_TRUE(g.empty());
  g.finalize(/*num_lps=*/4);
  EXPECT_TRUE(g.allows(0, 3));
  EXPECT_TRUE(g.allows(2, 1));
  EXPECT_EQ(g.min_lookahead(), kSimTimeMax);
}

TEST(ChannelGraph, DedupesKeepsSmallerLookaheadDropsSelf) {
  ChannelGraph g;
  g.add(0, 1, milliseconds(3));
  g.add(0, 1, milliseconds(1));  // duplicate: smaller lookahead wins
  g.add(1, 2, milliseconds(2));
  g.add(2, 2, milliseconds(5));  // self-channel: dropped
  g.finalize(/*num_lps=*/3);
  ASSERT_EQ(g.size(), 2u);
  EXPECT_EQ(g.channels()[0].lookahead, milliseconds(1));
  EXPECT_EQ(g.min_lookahead(), milliseconds(1));
  EXPECT_TRUE(g.allows(0, 1));
  EXPECT_TRUE(g.allows(1, 2));
  EXPECT_FALSE(g.allows(1, 0));
  EXPECT_FALSE(g.allows(0, 2));
}

TEST(ChannelGraph, InNeighborsAreSortedPerDestination) {
  ChannelGraph g;
  g.add(3, 1, milliseconds(1));
  g.add(0, 1, milliseconds(1));
  g.add(2, 1, milliseconds(1));
  g.add(1, 0, milliseconds(1));
  g.finalize(/*num_lps=*/4);
  EXPECT_EQ(g.in_neighbors(1), (std::vector<LpId>{0, 2, 3}));
  EXPECT_EQ(g.in_neighbors(0), (std::vector<LpId>{1}));
  EXPECT_TRUE(g.in_neighbors(2).empty());
}

std::unique_ptr<Engine> make_ring_engine(std::int32_t lps, bool declare,
                                         std::uint64_t hops = 64) {
  EngineOptions o;
  o.lookahead = milliseconds(1);
  o.end_time = seconds(3600);
  auto engine = std::make_unique<Engine>(o);
  for (std::int32_t i = 0; i < lps; ++i) {
    engine->add_lp(std::make_unique<HopLp>((i + 1) % lps));
  }
  if (declare) {
    ChannelGraph g;
    for (std::int32_t i = 0; i < lps; ++i) {
      g.add(i, (i + 1) % lps, o.lookahead);
    }
    engine->set_channels(std::move(g));
  }
  for (std::int32_t i = 0; i < lps; ++i) {
    engine->schedule(i, 0, kEvHop, hops);
  }
  return engine;
}

TEST(ChannelSync, QuiescenceEpochsMatchWindows) {
  auto engine = make_ring_engine(4, /*declare=*/true);
  const RunStats stats = engine->run_threaded(2);
  const SyncStats& sync = engine->sync_stats();
  EXPECT_EQ(sync.channels, 4u);
  // Every window boundary the channel executor ran was a detected
  // quiescent epoch — the hook contract depends on exactly this.
  EXPECT_EQ(sync.quiescence_epochs, stats.num_windows);
}

TEST(ChannelSync, NullEventsAreDeterministicAndExecutorInvariant) {
  // A 3-LP ring where only LP 0 seeds events: the (1->2) and (2->0)
  // channels carry nothing for the first hops — null advances. The tally
  // must not depend on the executor or thread count.
  std::uint64_t reference = 0;
  for (int pass = 0; pass < 2; ++pass) {
    for (const std::int32_t threads : {2, 3}) {
      auto engine = make_ring_engine(3, /*declare=*/true);
      engine->run_threaded(threads);
      if (reference == 0) reference = engine->sync_stats().null_events;
      EXPECT_EQ(engine->sync_stats().null_events, reference)
          << "threads=" << threads << " pass=" << pass;
    }
  }
  EXPECT_GT(reference, 0u);
}

TEST(ChannelSync, SingleThreadShortCircuitMatchesSequential) {
  auto seq = make_ring_engine(4, /*declare=*/true);
  auto one = make_ring_engine(4, /*declare=*/true);
  const RunStats a = seq->run();
  const RunStats b = one->run_threaded(1);
  EXPECT_EQ(a.total_events, b.total_events);
  EXPECT_EQ(a.num_windows, b.num_windows);
  EXPECT_EQ(a.events_per_lp, b.events_per_lp);
  EXPECT_EQ(a.modeled_wall_s, b.modeled_wall_s);
}

TEST(ChannelSyncError, RejectsChannelLookaheadBelowEngineLookahead) {
  EngineOptions o;
  o.lookahead = milliseconds(2);
  Engine engine(o);
  engine.add_lp(std::make_unique<HopLp>(1));
  engine.add_lp(std::make_unique<HopLp>(0));
  ChannelGraph g;
  g.add(0, 1, milliseconds(1));  // below the engine lookahead
  try {
    engine.set_channels(std::move(g));
    FAIL() << "expected EngineError";
  } catch (const EngineError& e) {
    EXPECT_EQ(e.category(), ErrorCategory::kTopology);
  }
}

TEST(ChannelSyncError, RejectsSendAlongUndeclaredChannel) {
  // Ring channels declared 0->1->2->0; LP 1's next_ is wired *backwards*
  // to 0, so its first forward violates the declared topology.
  EngineOptions o;
  o.lookahead = milliseconds(1);
  Engine engine(o);
  engine.add_lp(std::make_unique<HopLp>(1));
  engine.add_lp(std::make_unique<HopLp>(0));  // undeclared 1->0 send
  engine.add_lp(std::make_unique<HopLp>(0));
  ChannelGraph g;
  g.add(0, 1, o.lookahead);
  g.add(1, 2, o.lookahead);
  g.add(2, 0, o.lookahead);
  engine.set_channels(std::move(g));
  engine.schedule(0, 0, kEvHop, 8);
  try {
    engine.run();
    FAIL() << "expected EngineError";
  } catch (const EngineError& e) {
    EXPECT_EQ(e.category(), ErrorCategory::kTopology);
    EXPECT_NE(std::string(e.what()).find("missing from the declared"),
              std::string::npos);
  }
}

}  // namespace
}  // namespace massf
