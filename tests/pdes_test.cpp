#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <queue>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/probe.hpp"
#include "pdes/engine.hpp"
#include "util/error.hpp"
#include "util/quad_heap.hpp"

namespace massf {
namespace {

// Records the events it handles; optionally re-schedules follow-ups.
class RecordingLp final : public LogicalProcess {
 public:
  struct Record {
    SimTime time;
    std::int32_t type;
    std::uint64_t a;
  };

  void handle(Engine& engine, const Event& ev) override {
    records.push_back({ev.time, ev.type, ev.a});
    if (relay_to >= 0 && ev.type == 1) {
      // Forward across LPs with the channel latency.
      engine.schedule(relay_to, ev.time + channel_latency, 2, ev.a + 1);
    }
    if (self_chain > 0 && ev.type == 3) {
      --self_chain;
      engine.schedule(engine.current_lp(), ev.time + local_delay, 3, ev.a);
    }
  }

  std::vector<Record> records;
  LpId relay_to = -1;
  SimTime channel_latency = milliseconds(1);
  int self_chain = 0;
  SimTime local_delay = microseconds(50);
};

EngineOptions base_options() {
  EngineOptions o;
  o.lookahead = milliseconds(1);
  o.cost_per_event_s = 1e-6;
  o.sync_cost_s = 1e-4;
  o.end_time = seconds(1);
  return o;
}

TEST(Engine, ProcessesInTimestampOrder) {
  Engine engine(base_options());
  auto lp = std::make_unique<RecordingLp>();
  RecordingLp* p = lp.get();
  engine.add_lp(std::move(lp));
  engine.schedule(0, milliseconds(5), 7);
  engine.schedule(0, milliseconds(2), 7);
  engine.schedule(0, milliseconds(9), 7);
  engine.schedule(0, milliseconds(2), 7);  // tie: insertion order
  engine.run();
  ASSERT_EQ(p->records.size(), 4u);
  EXPECT_EQ(p->records[0].time, milliseconds(2));
  EXPECT_EQ(p->records[1].time, milliseconds(2));
  EXPECT_EQ(p->records[2].time, milliseconds(5));
  EXPECT_EQ(p->records[3].time, milliseconds(9));
}

TEST(Engine, EndTimeExcludesLaterEvents) {
  EngineOptions o = base_options();
  o.end_time = milliseconds(10);
  Engine engine(o);
  auto lp = std::make_unique<RecordingLp>();
  RecordingLp* p = lp.get();
  engine.add_lp(std::move(lp));
  engine.schedule(0, milliseconds(5), 1);
  engine.schedule(0, milliseconds(10), 1);  // exactly at horizon: excluded
  engine.schedule(0, milliseconds(20), 1);
  const RunStats stats = engine.run();
  EXPECT_EQ(p->records.size(), 1u);
  EXPECT_EQ(stats.total_events, 1u);
  EXPECT_EQ(stats.end_vtime, milliseconds(10));
}

TEST(Engine, CrossLpEventsDelivered) {
  Engine engine(base_options());
  auto lp0 = std::make_unique<RecordingLp>();
  auto lp1 = std::make_unique<RecordingLp>();
  RecordingLp* p0 = lp0.get();
  RecordingLp* p1 = lp1.get();
  p0->relay_to = 1;
  engine.add_lp(std::move(lp0));
  engine.add_lp(std::move(lp1));
  engine.schedule(0, milliseconds(1), 1, 100);
  engine.run();
  ASSERT_EQ(p1->records.size(), 1u);
  EXPECT_EQ(p1->records[0].time, milliseconds(2));
  EXPECT_EQ(p1->records[0].a, 101u);
  EXPECT_EQ(p0->records.size(), 1u);
}

TEST(Engine, SelfChainWithinWindow) {
  Engine engine(base_options());
  auto lp = std::make_unique<RecordingLp>();
  RecordingLp* p = lp.get();
  p->self_chain = 10;
  engine.add_lp(std::move(lp));
  engine.schedule(0, milliseconds(1), 3);
  const RunStats stats = engine.run();
  EXPECT_EQ(p->records.size(), 11u);
  // 10 x 50us chain fits in one 1 ms window plus the initial one.
  EXPECT_LE(stats.num_windows, 2u);
}

TEST(Engine, StatsAccounting) {
  EngineOptions o = base_options();
  o.cost_per_event_s = 2e-6;
  o.sync_cost_s = 5e-4;
  Engine engine(o);
  engine.add_lp(std::make_unique<RecordingLp>());
  engine.add_lp(std::make_unique<RecordingLp>());
  // 3 events on LP0, 1 on LP1, all in one window.
  engine.schedule(0, milliseconds(1), 7);
  engine.schedule(0, milliseconds(1), 7);
  engine.schedule(0, milliseconds(1), 7);
  engine.schedule(1, milliseconds(1), 7);
  const RunStats stats = engine.run();
  EXPECT_EQ(stats.total_events, 4u);
  EXPECT_EQ(stats.events_per_lp[0], 3u);
  EXPECT_EQ(stats.events_per_lp[1], 1u);
  EXPECT_EQ(stats.num_windows, 1u);
  // Window wall = max(3 * 2us, 1 * 2us) + 0.5ms.
  EXPECT_NEAR(stats.modeled_wall_s, 3 * 2e-6 + 5e-4, 1e-12);
  EXPECT_NEAR(stats.modeled_sync_s, 5e-4, 1e-12);
  EXPECT_NEAR(stats.busy_s[0], 6e-6, 1e-12);
}

TEST(Engine, EventRates) {
  RunStats stats;
  stats.events_per_lp = {100, 50};
  stats.modeled_wall_s = 2.0;
  const auto rates = stats.event_rates();
  EXPECT_DOUBLE_EQ(rates[0], 50);
  EXPECT_DOUBLE_EQ(rates[1], 25);
}

TEST(Engine, EventRatesZeroWallClock) {
  // modeled_wall_s == 0 (a zero-event run) must yield all-zero rates, not
  // a division by zero.
  RunStats stats;
  stats.events_per_lp = {3, 1};
  stats.modeled_wall_s = 0.0;
  const auto rates = stats.event_rates();
  ASSERT_EQ(rates.size(), 2u);
  EXPECT_DOUBLE_EQ(rates[0], 0);
  EXPECT_DOUBLE_EQ(rates[1], 0);
}

TEST(Engine, EmptyRunBothExecutors) {
  // A run with no events at all: no windows open, the horizon is reported,
  // and every derived statistic is finite under both executors.
  for (const bool threaded : {false, true}) {
    Engine engine(base_options());
    engine.add_lp(std::make_unique<RecordingLp>());
    engine.add_lp(std::make_unique<RecordingLp>());
    const RunStats stats = threaded ? engine.run_threaded(2) : engine.run();
    EXPECT_EQ(stats.total_events, 0u);
    EXPECT_EQ(stats.num_windows, 0u);
    EXPECT_EQ(stats.end_vtime, base_options().end_time);
    EXPECT_DOUBLE_EQ(stats.modeled_wall_s, 0.0);
    const auto rates = stats.event_rates();
    ASSERT_EQ(rates.size(), 2u);
    EXPECT_DOUBLE_EQ(rates[0], 0);
    EXPECT_DOUBLE_EQ(rates[1], 0);
  }
}

TEST(Engine, LoadBinsRecorded) {
  EngineOptions o = base_options();
  o.load_bin = milliseconds(100);
  Engine engine(o);
  auto lp = std::make_unique<RecordingLp>();
  engine.add_lp(std::move(lp));
  engine.schedule(0, milliseconds(50), 7);
  engine.schedule(0, milliseconds(250), 7);
  const RunStats stats = engine.run();
  ASSERT_EQ(stats.lp_load.size(), 1u);
  EXPECT_DOUBLE_EQ(stats.lp_load[0].bin(0), 1);
  EXPECT_DOUBLE_EQ(stats.lp_load[0].bin(2), 1);
}

TEST(Engine, BarrierHookInjectsLiveEvents) {
  Engine engine(base_options());
  auto lp = std::make_unique<RecordingLp>();
  RecordingLp* p = lp.get();
  engine.add_lp(std::move(lp));
  engine.schedule(0, milliseconds(1), 7);
  bool injected = false;
  engine.barrier_hooks().push_back([&](Engine& eng, SimTime window_start) {
    if (!injected) {
      injected = true;
      eng.schedule(0, window_start + eng.options().lookahead, 9, 42);
    }
  });
  engine.run();
  ASSERT_EQ(p->records.size(), 2u);
  EXPECT_EQ(p->records[1].type, 9);
}

TEST(Engine, MultipleBarrierHooksRunInOrder) {
  Engine engine(base_options());
  auto lp = std::make_unique<RecordingLp>();
  engine.add_lp(std::move(lp));
  engine.schedule(0, milliseconds(1), 7);
  std::vector<int> order;
  engine.barrier_hooks().push_back(
      [&](Engine&, SimTime) { order.push_back(1); });
  engine.barrier_hooks().push_back(
      [&](Engine&, SimTime) { order.push_back(2); });
  engine.run();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 1);
  EXPECT_EQ(order[1], 2);
}

TEST(Engine, RequestStopEndsRun) {
  Engine engine(base_options());
  auto lp = std::make_unique<RecordingLp>();
  RecordingLp* p = lp.get();
  p->self_chain = 1000000;
  p->local_delay = milliseconds(2);  // one event per window
  engine.add_lp(std::move(lp));
  engine.schedule(0, milliseconds(1), 3);
  int windows = 0;
  engine.barrier_hooks().push_back([&](Engine& eng, SimTime) {
    if (++windows == 5) eng.request_stop();
  });
  engine.run();
  EXPECT_LT(p->records.size(), 10u);
}

TEST(EngineHooks, FiringOrderBarrier) {
  for (const std::int32_t threads : {0, 2}) {
    EngineOptions o = base_options();
    o.end_time = milliseconds(8);
    Engine engine(o);
    auto lp = std::make_unique<RecordingLp>();
    lp->self_chain = 1000;
    lp->local_delay = microseconds(250);
    engine.add_lp(std::move(lp));
    engine.schedule(0, 0, 3);
    // One entry per boundary; the first barrier hook opens the entry so the
    // per-boundary hook sequence is recorded exactly as fired.
    std::vector<std::string> boundaries;
    engine.barrier_hooks().push_back(
        [&boundaries](Engine&, SimTime) { boundaries.emplace_back("a"); });
    engine.barrier_hooks().push_back(
        [&boundaries](Engine&, SimTime) { boundaries.back() += 'b'; });
    const RunStats stats =
        threads > 0 ? engine.run_threaded(threads) : engine.run();
    // One boundary opens each window: barrier hooks in registration order
    // at every boundary.
    ASSERT_EQ(boundaries.size(), stats.num_windows) << "threads=" << threads;
    ASSERT_GE(boundaries.size(), 8u);
    for (std::size_t w = 0; w < boundaries.size(); ++w) {
      EXPECT_EQ(boundaries[w], "ab")
          << "boundary w=" << w << " threads=" << threads;
    }
  }
}

TEST(Engine, LargerLookaheadFewerWindowsSameEvents) {
  // The core MLL-parallelism relationship: widening the window cannot
  // change what is simulated, only how often the engine synchronizes.
  const auto run_with = [](SimTime lookahead) {
    EngineOptions o;
    o.lookahead = lookahead;
    o.end_time = seconds(10);
    Engine engine(o);
    auto lp = std::make_unique<RecordingLp>();
    lp->self_chain = 2000;
    lp->local_delay = milliseconds(1);
    engine.add_lp(std::move(lp));
    engine.schedule(0, milliseconds(1), 3);
    const RunStats stats = engine.run();
    return std::make_pair(stats.total_events, stats.num_windows);
  };
  const auto narrow = run_with(milliseconds(1));
  const auto wide = run_with(milliseconds(8));
  EXPECT_EQ(narrow.first, wide.first);
  EXPECT_GT(narrow.second, 3 * wide.second);
}

TEST(Engine, SyncCostScalesWithWindows) {
  const auto sync_of = [](SimTime lookahead) {
    EngineOptions o;
    o.lookahead = lookahead;
    o.sync_cost_s = 1e-4;
    o.end_time = seconds(5);
    Engine engine(o);
    auto lp = std::make_unique<RecordingLp>();
    lp->self_chain = 1000;
    lp->local_delay = milliseconds(1);
    engine.add_lp(std::move(lp));
    engine.schedule(0, milliseconds(1), 3);
    return engine.run().modeled_sync_s;
  };
  EXPECT_GT(sync_of(milliseconds(1)), 2 * sync_of(milliseconds(8)));
}

// On its fan-out event an LP sends 1 + (id % 3) events to each of the hubs
// 0 and n-1 (itself excepted), alternating hubs, all arriving at one time;
// a hub records the (source, send index) of every arrival.
class FanInLp final : public LogicalProcess {
 public:
  using Pair = std::pair<LpId, std::uint64_t>;
  explicit FanInLp(LpId num_lps) : num_lps_(num_lps) {}

  void handle(Engine& engine, const Event& ev) override {
    if (ev.type != 1) {
      arrivals.emplace_back(static_cast<LpId>(ev.a), ev.b);
      return;
    }
    const SimTime arrive = ev.time + engine.options().lookahead;
    for (std::uint64_t k = 0; k <= static_cast<std::uint64_t>(ev.lp % 3);
         ++k) {
      for (const LpId hub : {LpId{0}, num_lps_ - 1}) {
        if (hub == ev.lp) continue;
        engine.schedule(hub, arrive, 2, static_cast<std::uint64_t>(ev.lp), k);
        sends.emplace_back(hub, k);
      }
    }
  }

  std::vector<Pair> sends;     // (destination hub, send index)
  std::vector<Pair> arrivals;  // (source, send index)

 private:
  LpId num_lps_;
};

TEST(Engine, MergeOrdersArrivalsBySourceThenSendOrder) {
  // Equal-time arrivals at an LP run in the order the barrier merge hands
  // out their seqs: by source id, then by send order within the source.
  // From 64 LPs up the sources of one destination span several 64-bit
  // words of the merge's sender mask.
  for (const LpId n : {3, 64, 65, 130}) {
    for (const int threads : {0, 2, 4}) {
      for (const bool declared : {false, true}) {
        SCOPED_TRACE("lps=" + std::to_string(n) +
                     " threads=" + std::to_string(threads) +
                     (declared ? " declared" : " all-pairs"));
        Engine engine(base_options());
        std::vector<FanInLp*> lps;
        for (LpId i = 0; i < n; ++i) {
          auto lp = std::make_unique<FanInLp>(n);
          lps.push_back(lp.get());
          engine.add_lp(std::move(lp));
        }
        if (declared) {
          ChannelGraph graph;
          for (LpId s = 0; s < n; ++s) {
            for (LpId d = 0; d < n; ++d) {
              graph.add(s, d, engine.options().lookahead);
            }
          }
          engine.set_channels(std::move(graph));
        }
        for (LpId i = 0; i < n; ++i) engine.schedule(i, milliseconds(1), 1);
        const RunStats stats =
            threads == 0 ? engine.run() : engine.run_threaded(threads);

        std::vector<std::vector<FanInLp::Pair>> expected(
            static_cast<std::size_t>(n));
        std::set<std::pair<LpId, LpId>> batches;  // (source, destination)
        std::uint64_t cross = 0;
        for (LpId s = 0; s < n; ++s) {
          const FanInLp& src = *lps[static_cast<std::size_t>(s)];
          for (const auto& [dst, k] : src.sends) {
            expected[static_cast<std::size_t>(dst)].emplace_back(s, k);
            batches.emplace(s, dst);
            ++cross;
          }
        }
        for (LpId d = 0; d < n; ++d) {
          auto& want = expected[static_cast<std::size_t>(d)];
          std::sort(want.begin(), want.end());
          EXPECT_EQ(lps[static_cast<std::size_t>(d)]->arrivals, want)
              << "lp " << d;
        }
        EXPECT_EQ(stats.num_windows, 2u);
        EXPECT_EQ(stats.cross_lp_events, cross);
        EXPECT_EQ(stats.merge_batches, batches.size());
        if (threads > 0) {
          // Every merge has n-1 candidate channels in both topology modes;
          // those that carried no events are null advances.
          const std::uint64_t candidates = stats.num_windows *
                                           static_cast<std::uint64_t>(n) *
                                           static_cast<std::uint64_t>(n - 1);
          EXPECT_EQ(engine.sync_stats().null_events,
                    candidates - batches.size());
        }
      }
    }
  }
}

// ---- conservative contract, both executors ------------------------------

// Engine::schedule must reject a cross-LP send that lands inside the open
// window and accept one at exactly the window end — under both executors,
// and also from a barrier hook. The dynamic-claiming executor must enforce
// the identical contract: the violation is a modeling error (the
// partition's MLL was computed wrong), not a scheduling artifact. At >1
// thread the violation fires in a handler on a worker thread; the executor
// captures it, drains the protocol, and rethrows on the calling thread.
class EngineError_ : public ::testing::TestWithParam<std::int32_t> {};

TEST_P(EngineError_, CrossLpViolationThrows) {
  const std::int32_t threads = GetParam();
  Engine engine(base_options());
  auto lp = std::make_unique<RecordingLp>();
  lp->relay_to = 1;
  lp->channel_latency = microseconds(10);  // < lookahead: illegal
  engine.add_lp(std::move(lp));
  engine.add_lp(std::make_unique<RecordingLp>());
  engine.schedule(0, milliseconds(1), 1);
  try {
    if (threads > 0) {
      engine.run_threaded(threads);
    } else {
      engine.run();
    }
    FAIL() << "expected EngineError";
  } catch (const EngineError& e) {
    EXPECT_EQ(e.category(), ErrorCategory::kTopology);
    EXPECT_NE(std::string(e.what()).find("lookahead"), std::string::npos);
  }
}

INSTANTIATE_TEST_SUITE_P(Executors, EngineError_, ::testing::Values(0, 2, 3));

TEST(Engine, CrossLpAtExactWindowEndAccepted) {
  // channel latency == lookahead puts the arrival at exactly the end of
  // the window the send was made in — the legal limit of the contract.
  for (const bool threaded : {false, true}) {
    Engine engine(base_options());
    auto lp0 = std::make_unique<RecordingLp>();
    auto lp1 = std::make_unique<RecordingLp>();
    RecordingLp* p1 = lp1.get();
    lp0->relay_to = 1;
    lp0->channel_latency = base_options().lookahead;
    engine.add_lp(std::move(lp0));
    engine.add_lp(std::move(lp1));
    // The event executes at the window floor, so floor + lookahead is
    // exactly window_end.
    engine.schedule(0, milliseconds(5), 1, 7);
    if (threaded) {
      engine.run_threaded(2);
    } else {
      engine.run();
    }
    ASSERT_EQ(p1->records.size(), 1u) << (threaded ? "threaded" : "sequential");
    EXPECT_EQ(p1->records[0].time, milliseconds(6));
    EXPECT_EQ(p1->records[0].a, 8u);
  }
}

void run_hook_injection_at(SimTime offset_from_window_end, bool threaded) {
  EngineOptions o = base_options();
  Engine engine(o);
  auto lp = std::make_unique<RecordingLp>();
  lp->self_chain = 10;
  lp->local_delay = milliseconds(2);
  engine.add_lp(std::move(lp));
  engine.schedule(0, milliseconds(1), 3);
  bool injected = false;
  engine.barrier_hooks().push_back([&](Engine& eng, SimTime floor) {
    if (!injected) {
      injected = true;
      eng.schedule(0, floor + eng.options().lookahead + offset_from_window_end,
                   9);
    }
  });
  if (threaded) {
    engine.run_threaded(2);
  } else {
    engine.run();
  }
}

TEST(Engine, HookInjectionAtWindowEndAccepted) {
  for (const bool threaded : {false, true}) {
    run_hook_injection_at(0, threaded);  // exactly window end: legal
  }
}

TEST(EngineError_, HookInjectionInsideWindowThrows) {
  // Sequential: the hook throw propagates straight out of run().
  // Threaded: the coordinator records it at the boundary and rethrows
  // after the workers drain — same observable contract.
  EXPECT_THROW(run_hook_injection_at(-1, false), EngineError);
  EXPECT_THROW(run_hook_injection_at(-1, true), EngineError);
}

// ---- threaded executor -------------------------------------------------

struct PingPongLp final : public LogicalProcess {
  void handle(Engine& engine, const Event& ev) override {
    ++count;
    checksum = checksum * 31 + static_cast<std::uint64_t>(ev.time);
    if (ev.a > 0) {
      engine.schedule(peer, ev.time + milliseconds(1), 1, ev.a - 1);
    }
  }
  LpId peer = 0;
  std::uint64_t count = 0;
  std::uint64_t checksum = 0;
};

TEST(ThreadedEngine, MatchesSequentialResults) {
  const auto build_and_run = [](bool threaded) {
    EngineOptions o;
    o.lookahead = milliseconds(1);
    o.end_time = seconds(2);
    o.cost_per_event_s = 1e-6;
    o.sync_cost_s = 1e-5;
    Engine engine(o);
    std::vector<PingPongLp*> lps;
    for (int i = 0; i < 4; ++i) {
      auto lp = std::make_unique<PingPongLp>();
      lps.push_back(lp.get());
      engine.add_lp(std::move(lp));
    }
    for (int i = 0; i < 4; ++i) lps[static_cast<std::size_t>(i)]->peer = (i + 1) % 4;
    engine.schedule(0, milliseconds(1), 1, 500);
    engine.schedule(2, milliseconds(1), 1, 300);
    const RunStats stats = threaded ? engine.run_threaded(3) : engine.run();
    std::vector<std::uint64_t> sums;
    for (auto* lp : lps) {
      sums.push_back(lp->count);
      sums.push_back(lp->checksum);
    }
    sums.push_back(stats.total_events);
    sums.push_back(stats.num_windows);
    return sums;
  };
  EXPECT_EQ(build_and_run(false), build_and_run(true));
}

TEST(ThreadedEngine, BitIdenticalStatsWithHooksAndStop) {
  // Regression: barrier-hook scheduling plus a mid-run request_stop() must
  // produce the same RunStats under both executors, field for field.
  const auto build_and_run = [](bool threaded) {
    EngineOptions o;
    o.lookahead = milliseconds(1);
    o.end_time = seconds(2);
    o.cost_per_event_s = 1e-6;
    o.sync_cost_s = 1e-5;
    Engine engine(o);
    std::vector<PingPongLp*> lps;
    for (int i = 0; i < 4; ++i) {
      auto lp = std::make_unique<PingPongLp>();
      lps.push_back(lp.get());
      engine.add_lp(std::move(lp));
    }
    for (int i = 0; i < 4; ++i) {
      lps[static_cast<std::size_t>(i)]->peer = (i + 1) % 4;
    }
    engine.schedule(0, milliseconds(1), 1, 2000);
    int windows = 0;
    engine.barrier_hooks().push_back([&](Engine& eng, SimTime floor) {
      // Inject from the hook every 8th window, stop after 100.
      if (++windows % 8 == 0) {
        eng.schedule(1, floor + eng.options().lookahead, 1, 3);
      }
      if (windows == 100) eng.request_stop();
    });
    return threaded ? engine.run_threaded(3) : engine.run();
  };
  const RunStats seq = build_and_run(false);
  const RunStats thr = build_and_run(true);
  EXPECT_EQ(seq.total_events, thr.total_events);
  EXPECT_EQ(seq.num_windows, thr.num_windows);
  EXPECT_EQ(seq.end_vtime, thr.end_vtime);
  EXPECT_EQ(seq.events_per_lp, thr.events_per_lp);
  EXPECT_EQ(seq.busy_s, thr.busy_s);
  EXPECT_EQ(seq.modeled_wall_s, thr.modeled_wall_s);
  EXPECT_EQ(seq.modeled_sync_s, thr.modeled_sync_s);
  EXPECT_EQ(seq.cross_lp_events, thr.cross_lp_events);
  EXPECT_EQ(seq.merge_batches, thr.merge_batches);
  EXPECT_GT(seq.cross_lp_events, 0u);  // the workload really crosses LPs
  EXPECT_EQ(seq.num_windows, 100u);  // the stop took effect, not the horizon
}

TEST(ThreadedEngine, HooksSeeWindowFloorViaNow) {
  // Regression: under run_threaded() hooks run on the coordinator thread,
  // which never executes LP handlers; engine.now() there must still report
  // the window floor (it used to read a never-set thread-local and return 0).
  const auto floors_seen = [](bool threaded) {
    EngineOptions o;
    o.lookahead = milliseconds(1);
    o.end_time = milliseconds(20);
    Engine engine(o);
    auto lp = std::make_unique<RecordingLp>();
    lp->self_chain = 30;
    lp->local_delay = milliseconds(1);
    engine.add_lp(std::move(lp));
    engine.schedule(0, milliseconds(1), 3);
    std::vector<std::pair<SimTime, SimTime>> seen;
    engine.barrier_hooks().push_back([&](Engine& eng, SimTime floor) {
      seen.emplace_back(floor, eng.now());
    });
    if (threaded) {
      engine.run_threaded(2);
    } else {
      engine.run();
    }
    return seen;
  };
  for (const bool threaded : {false, true}) {
    const auto seen = floors_seen(threaded);
    ASSERT_GT(seen.size(), 3u);
    for (const auto& [floor, now] : seen) {
      EXPECT_EQ(now, floor) << (threaded ? "threaded" : "sequential");
    }
  }
}

TEST(ThreadedEngine, ConcurrentEnginesKeepHandlerContext) {
  // Two engines running at once (one threaded, one sequential, on separate
  // host threads) must each report their own event time and LP id inside
  // handlers — the handler context is per engine, not per thread.
  class CheckingLp final : public LogicalProcess {
   public:
    explicit CheckingLp(std::atomic<int>* mismatches)
        : mismatches_(mismatches) {}
    void handle(Engine& engine, const Event& ev) override {
      if (engine.now() != ev.time || engine.current_lp() != ev.lp) {
        mismatches_->fetch_add(1, std::memory_order_relaxed);
      }
      if (ev.a > 0) {
        engine.schedule(ev.lp == 0 ? 1 : 0, ev.time + milliseconds(1), 1,
                        ev.a - 1);
      }
    }

   private:
    std::atomic<int>* mismatches_;
  };

  std::atomic<int> mismatches{0};
  const auto make_engine = [&] {
    EngineOptions o;
    o.lookahead = milliseconds(1);
    o.end_time = seconds(2);
    auto engine = std::make_unique<Engine>(o);
    engine->add_lp(std::make_unique<CheckingLp>(&mismatches));
    engine->add_lp(std::make_unique<CheckingLp>(&mismatches));
    engine->schedule(0, milliseconds(1), 1, 800);
    return engine;
  };
  auto a = make_engine();
  auto b = make_engine();
  std::thread ta([&] { a->run_threaded(2); });
  std::thread tb([&] { b->run(); });
  ta.join();
  tb.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(ThreadedEngine, NestedEngineDoesNotClobberOuterContext) {
  // A handler that drives a whole inner simulation must still observe the
  // outer engine's time/LP afterwards.
  class NestingLp final : public LogicalProcess {
   public:
    explicit NestingLp(std::atomic<int>* mismatches)
        : mismatches_(mismatches) {}
    void handle(Engine& engine, const Event& ev) override {
      EngineOptions inner_opts;
      inner_opts.lookahead = milliseconds(1);
      inner_opts.end_time = milliseconds(50);
      Engine inner(inner_opts);
      auto lp = std::make_unique<RecordingLp>();
      lp->self_chain = 5;
      lp->local_delay = milliseconds(2);
      inner.add_lp(std::move(lp));
      inner.schedule(0, milliseconds(1), 3);
      inner.run();
      if (engine.now() != ev.time || engine.current_lp() != ev.lp) {
        mismatches_->fetch_add(1, std::memory_order_relaxed);
      }
      if (ev.a > 0) {
        engine.schedule(ev.lp, ev.time + milliseconds(1), 1, ev.a - 1);
      }
    }

   private:
    std::atomic<int>* mismatches_;
  };

  std::atomic<int> mismatches{0};
  EngineOptions o;
  o.lookahead = milliseconds(1);
  o.end_time = seconds(1);
  Engine engine(o);
  engine.add_lp(std::make_unique<NestingLp>(&mismatches));
  engine.add_lp(std::make_unique<NestingLp>(&mismatches));
  engine.schedule(0, milliseconds(1), 1, 20);
  engine.schedule(1, milliseconds(1), 1, 20);
  engine.run_threaded(2);
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(ThreadedEngine, ProbeCountsMatchRunStats) {
  // The window probe's aggregate view must agree with the engine's own
  // accounting under both executors.
  for (const bool threaded : {false, true}) {
    EngineOptions o;
    o.lookahead = milliseconds(1);
    o.end_time = seconds(1);
    Engine engine(o);
    std::vector<PingPongLp*> lps;
    for (int i = 0; i < 2; ++i) {
      auto lp = std::make_unique<PingPongLp>();
      lps.push_back(lp.get());
      engine.add_lp(std::move(lp));
    }
    lps[0]->peer = 1;
    lps[1]->peer = 0;
    engine.schedule(0, milliseconds(1), 1, 200);
    obs::WindowProbe probe;
    obs::Registry registry;
    engine.set_probe(&probe);
    engine.set_registry(&registry);
    const RunStats stats = threaded ? engine.run_threaded(2) : engine.run();
    EXPECT_EQ(probe.summary().windows, stats.num_windows);
    EXPECT_EQ(probe.summary().events, stats.total_events);
    ASSERT_EQ(probe.num_lps(), 2u);
    EXPECT_EQ(probe.lp_events()[0], stats.events_per_lp[0]);
    EXPECT_EQ(probe.lp_events()[1], stats.events_per_lp[1]);
    EXPECT_EQ(registry.counter("pdes.events").value(), stats.total_events);
    EXPECT_EQ(registry.counter("pdes.windows").value(), stats.num_windows);
  }
}

TEST(ThreadedEngine, SingleThreadDegenerate) {
  EngineOptions o = base_options();
  Engine engine(o);
  auto lp = std::make_unique<RecordingLp>();
  RecordingLp* p = lp.get();
  engine.add_lp(std::move(lp));
  engine.schedule(0, milliseconds(1), 7);
  const RunStats stats = engine.run_threaded(1);
  EXPECT_EQ(stats.total_events, 1u);
  EXPECT_EQ(p->records.size(), 1u);
}

// ---- The per-LP queue itself (util/quad_heap.hpp, pdes/sched.hpp) ------

std::uint64_t splitmix(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// (high word, low word): printable, and ordered like the key.
std::pair<std::uint64_t, std::uint64_t> words(QuadHeap::Key k) {
  return {static_cast<std::uint64_t>(k >> 64), static_cast<std::uint64_t>(k)};
}

TEST(QuadHeap, MatchesPriorityQueueAtEverySizeModFour) {
  // Fill to n, drain half, refill and drain to empty: the sift-down meets
  // full and partial last groups at every n mod 4. High words come from a
  // narrow range, so many keys tie there and some repeat outright.
  for (std::size_t n = 1; n <= 70; n += n < 16 ? 1 : 7) {
    std::uint64_t rng = 0x5eed + n;
    QuadHeap heap;
    std::priority_queue<QuadHeap::Key, std::vector<QuadHeap::Key>,
                        std::greater<>>
        ref;
    const auto push = [&] {
      const std::uint64_t hi = splitmix(rng) % 8;
      const std::uint64_t lo = splitmix(rng) % 16;
      const QuadHeap::Key k = QuadHeap::Key{hi} << 64 | lo;
      heap.push(k);
      ref.push(k);
    };
    const auto pop_checked = [&] {
      EXPECT_EQ(words(heap.top()), words(ref.top())) << "n=" << n;
      EXPECT_EQ(words(heap.pop()), words(ref.top())) << "n=" << n;
      ref.pop();
    };
    for (std::size_t i = 0; i < n; ++i) push();
    for (std::size_t i = 0; i < n / 2; ++i) pop_checked();
    for (std::size_t i = 0; i < n; ++i) push();
    while (!ref.empty()) pop_checked();
    EXPECT_TRUE(heap.empty());
    if (HasFailure()) return;
  }
}

TEST(QuadHeap, LargeRandomKeysDrainInOrder) {
  for (const std::size_t n : {1000u, 1001u, 1002u, 1003u}) {
    std::uint64_t rng = n;
    QuadHeap heap;
    std::vector<QuadHeap::Key> keys;
    for (std::size_t i = 0; i < n; ++i) {
      const QuadHeap::Key k =
          QuadHeap::Key{splitmix(rng)} << 64 | splitmix(rng);
      keys.push_back(k);
      heap.push(k);
    }
    std::sort(keys.begin(), keys.end());
    for (const QuadHeap::Key k : keys) EXPECT_EQ(words(heap.pop()), words(k));
    EXPECT_TRUE(heap.empty());
    if (HasFailure()) return;
  }
}

// Drives one EventSched and a sorted reference of (time, seq) -> payload
// through the same seeded operations.
struct SchedHarness {
  EventSched q;
  std::map<std::pair<SimTime, std::uint64_t>, std::uint64_t> ref;
  std::uint64_t next_seq = 0;

  void push(SimTime t, std::uint64_t payload) {
    Event ev;
    ev.time = t;
    ev.seq = next_seq++;
    ev.a = payload;
    q.push(ev);
    ref.emplace(std::make_pair(t, ev.seq), payload);
  }

  // Checks the top against the reference's first entry, then pops both.
  void pop_checked() {
    ASSERT_FALSE(ref.empty());
    const auto first = ref.begin();
    ASSERT_EQ(q.min_time(), first->first.first);
    const Event& top = q.top();
    ASSERT_EQ(top.time, first->first.first);
    ASSERT_EQ(top.seq, first->first.second);
    ASSERT_EQ(top.a, first->second);
    q.pop();
    ref.erase(first);
    ASSERT_EQ(q.size(), ref.size());
    // Freed slots are reused before the arena grows.
    ASSERT_EQ(q.arena_slots(), q.peak_size());
  }
};

TEST(EventSched, PopsTheSortedTimeSeqOrderOfSeededInterleavings) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE(seed);
    std::uint64_t rng = seed;
    SchedHarness h;
    SimTime now = 0;
    // Times on a coarse grid, so many events tie on time and the order
    // among them is their seq.
    const auto ahead = [&] {
      return now + static_cast<SimTime>(splitmix(rng) % 8) * 1000;
    };
    for (int round = 0; round < 2; ++round) {  // drain to empty, refill
      for (int i = 0; i < 300; ++i) {
        if (h.ref.empty() || splitmix(rng) % 3 != 0) {
          h.push(ahead(), splitmix(rng));
        } else {
          now = h.q.min_time();
          h.pop_checked();
          if (HasFatalFailure()) return;
        }
      }
      while (!h.ref.empty()) {  // drain, pushing while draining
        now = h.q.min_time();
        h.pop_checked();
        if (HasFatalFailure()) return;
        if (splitmix(rng) % 4 == 0) h.push(ahead(), splitmix(rng));
      }
      EXPECT_TRUE(h.q.empty());
      EXPECT_EQ(h.q.min_time(), kSimTimeMax);
    }
  }
}

TEST(EventSched, NegativeTimeSortsBeforeZero) {
  SchedHarness h;
  const SimTime lowest = std::numeric_limits<SimTime>::min();
  for (const SimTime t : {SimTime{0}, SimTime{5}, SimTime{-1}, lowest,
                          SimTime{-5}, kSimTimeMax - 1, SimTime{0}}) {
    h.push(t, static_cast<std::uint64_t>(t));
  }
  EXPECT_EQ(h.q.min_time(), lowest);
  std::vector<SimTime> order;
  while (!h.ref.empty()) {
    order.push_back(h.q.top().time);
    h.pop_checked();
    ASSERT_FALSE(HasFatalFailure());
  }
  EXPECT_EQ(order, (std::vector<SimTime>{lowest, -5, -1, 0, 0, 5,
                                         kSimTimeMax - 1}));
}

TEST(EventSchedDeathTest, SeqAtTheKeyLimitAborts) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EventSched q;
  Event ev;
  ev.seq = EventSched::kSeqLimit - 1;
  q.push(ev);  // the last seq the key can hold
  EXPECT_EQ(q.top().seq, EventSched::kSeqLimit - 1);
  ev.seq = EventSched::kSeqLimit;
  EXPECT_DEATH(q.push(ev), "seq must be below 2\\^40");
}

}  // namespace
}  // namespace massf
