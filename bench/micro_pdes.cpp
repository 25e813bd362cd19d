// Microbenchmarks for the conservative engine: raw event throughput, the
// quantity behind the per-event cost calibration in the cluster model, the
// per-window cross-LP exchange, and one LP's event queue at depth.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>

#include "pdes/engine.hpp"
#include "pdes/sched.hpp"

namespace {

using namespace massf;

// Each handled event schedules the next one (self-chain), so the run
// measures steady-state queue push/pop + dispatch.
class ChainLp final : public LogicalProcess {
 public:
  explicit ChainLp(SimTime step) : step_(step) {}
  void handle(Engine& engine, const Event& ev) override {
    if (ev.a > 0) {
      engine.schedule(engine.current_lp(), ev.time + step_, 1, ev.a - 1);
    }
  }

 private:
  SimTime step_;
};

void BM_EventThroughputSingleLp(benchmark::State& state) {
  const std::uint64_t chain = 200000;
  for (auto _ : state) {
    EngineOptions o;
    o.lookahead = milliseconds(1);
    o.end_time = seconds(3600);
    Engine engine(o);
    engine.add_lp(std::make_unique<ChainLp>(microseconds(10)));
    engine.schedule(0, 0, 1, chain);
    const RunStats stats = engine.run();
    benchmark::DoNotOptimize(stats.total_events);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(chain));
}
BENCHMARK(BM_EventThroughputSingleLp)->Unit(benchmark::kMillisecond);

void BM_EventThroughputManyLps(benchmark::State& state) {
  const auto lps = static_cast<std::int32_t>(state.range(0));
  const std::uint64_t chain = 20000;
  for (auto _ : state) {
    EngineOptions o;
    o.lookahead = milliseconds(1);
    o.end_time = seconds(3600);
    Engine engine(o);
    for (std::int32_t i = 0; i < lps; ++i) {
      engine.add_lp(std::make_unique<ChainLp>(microseconds(100)));
    }
    for (std::int32_t i = 0; i < lps; ++i) engine.schedule(i, 0, 1, chain);
    const RunStats stats = engine.run();
    benchmark::DoNotOptimize(stats.total_events);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(chain) * lps);
}
BENCHMARK(BM_EventThroughputManyLps)->Arg(4)->Arg(32)->Arg(90)
    ->Unit(benchmark::kMillisecond);

// Each handled token hops to a pseudo-random other LP one lookahead later,
// so every window carries one cross-LP send per token and nothing else.
class HopLp final : public LogicalProcess {
 public:
  explicit HopLp(std::int32_t num_lps) : num_lps_(num_lps) {}
  void handle(Engine& engine, const Event& ev) override {
    const std::uint64_t state =
        ev.a * 6364136223846793005ULL + 1442695040888963407ULL;
    const auto step = static_cast<std::int32_t>(
        (state >> 33) % static_cast<std::uint64_t>(num_lps_ - 1));
    engine.schedule((ev.lp + 1 + step) % num_lps_,
                    ev.time + engine.options().lookahead, 1, state);
  }

 private:
  std::int32_t num_lps_;
};

// The profiling run's shape: many windows of a few cross-LP events each,
// where the barrier merge rather than event handling sets the pace. N LPs
// carry N/2 tokens hopping every 50 us lookahead for 20,000 windows.
void BM_SparseWindowExchange(benchmark::State& state) {
  const auto lps = static_cast<std::int32_t>(state.range(0));
  const std::uint64_t windows = 20000;
  const SimTime lookahead = microseconds(50);
  for (auto _ : state) {
    EngineOptions o;
    o.lookahead = lookahead;
    o.end_time = lookahead * static_cast<SimTime>(windows);
    Engine engine(o);
    for (std::int32_t i = 0; i < lps; ++i) {
      engine.add_lp(std::make_unique<HopLp>(lps));
    }
    for (std::int32_t t = 0; t < lps / 2; ++t) {
      engine.schedule(2 * t, 0, 1, static_cast<std::uint64_t>(t));
    }
    const RunStats stats = engine.run();
    if (stats.num_windows != windows) {
      state.SkipWithError("unexpected window count");
      break;
    }
    benchmark::DoNotOptimize(stats.cross_lp_events);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(windows));
}
BENCHMARK(BM_SparseWindowExchange)->Arg(24)->Arg(90)
    ->Unit(benchmark::kMillisecond);

// The hold model on one LP's queue alone: pop the earliest event, push one
// ahead of it. The engine benchmarks above keep about one pending event
// per LP; here the queue holds state.range(0), and the offsets follow
// bench_e2e link_flaps' mix (two thirds TCP timeouts 0.1-1 s ahead, one
// third hops 10 us-2 ms ahead), so the heap's depth sets the cost.
void BM_EventSchedHold(benchmark::State& state) {
  const auto pending = static_cast<std::size_t>(state.range(0));
  std::uint64_t rng = 2004;
  const auto ahead = [&rng] {
    rng = rng * 6364136223846793005ULL + 1442695040888963407ULL;
    const std::uint64_t r = rng >> 33;
    const auto span = static_cast<SimTime>(r >> 2);
    return r % 3 != 0 ? milliseconds(100) + span % milliseconds(900)
                      : microseconds(10) + span % microseconds(1990);
  };
  EventSched queue;
  Event ev;
  std::uint64_t seq = 0;
  for (std::size_t i = 0; i < pending; ++i) {
    ev.time = ahead();
    ev.seq = seq++;
    queue.push(ev);
  }
  for (auto _ : state) {
    ev = queue.top();
    queue.pop();
    benchmark::DoNotOptimize(ev.time);
    ev.time += ahead();
    ev.seq = seq++;
    queue.push(ev);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_EventSchedHold)->Arg(64)->Arg(512)->Arg(4096);

}  // namespace

BENCHMARK_MAIN();
