// Multi-process executor tests (DESIGN.md section 5j).
//
// Three layers:
//  * ShmRing units — frame roundtrips, wraparound across the ring end,
//    full-ring backpressure, and a producer/consumer hammer that checks
//    the release/acquire protocol never exposes a torn frame.
//  * Executor equality — fork-mode sharded runs of the calibration ring
//    must reproduce the sequential checksum and stats bit-identically, at
//    several shard counts, with scheduled LP migrations, and after a
//    SIGKILLed worker is recovered from the per-shard checkpoint set.
//  * Differential fuzz — 24 generated scenarios (the pdes_fuzz_test
//    recipe: random fan-out, cross-LP sends, hook injection, hook and
//    handler stops) compared field-by-field between the sequential
//    reference and 2/3-shard runs.
//
// These carry the `shard` label: they fork worker processes, which the
// tier-1 (fast) lane and the TSan lane both must not do.
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "ckpt/ckpt.hpp"
#include "pdes/golden_ring.hpp"
#include "shard/driver.hpp"
#include "shard/ring.hpp"
#include "shard/shm.hpp"
#include "shard/supervisor.hpp"
#include "util/warn.hpp"

namespace massf::shard {
namespace {

// ---- ShmRing units ----------------------------------------------------------

struct AlignedFree {
  void operator()(void* p) const { std::free(p); }
};

std::unique_ptr<void, AlignedFree> ring_mem(std::size_t capacity) {
  const std::size_t bytes = (ShmRing::bytes_for(capacity) + 63) / 64 * 64;
  void* mem = std::aligned_alloc(64, bytes);
  std::memset(mem, 0xa5, bytes);  // stale garbage: create() must not care
  return std::unique_ptr<void, AlignedFree>(mem);
}

TEST(ShmRing, FrameRoundtrip) {
  auto mem = ring_mem(256);
  ShmRing ring = ShmRing::create(mem.get(), 256);
  const std::uint8_t payload[] = {1, 2, 3, 4, 5};
  ASSERT_TRUE(ring.try_push(kFrameBatch, payload, sizeof(payload)));
  ASSERT_TRUE(ring.try_push(kFrameWindowEnd, nullptr, 0));

  std::uint8_t kind = 0;
  std::vector<std::uint8_t> out;
  ASSERT_TRUE(ring.try_pop(&kind, &out));
  EXPECT_EQ(kind, kFrameBatch);
  EXPECT_EQ(out, std::vector<std::uint8_t>(payload, payload + 5));
  ASSERT_TRUE(ring.try_pop(&kind, &out));
  EXPECT_EQ(kind, kFrameWindowEnd);
  EXPECT_TRUE(out.empty());
  EXPECT_FALSE(ring.try_pop(&kind, &out));  // drained
}

TEST(ShmRing, WraparoundPreservesFrames) {
  // Capacity small enough that frames straddle the ring end constantly;
  // every payload byte pattern must survive the two-part memcpy.
  constexpr std::size_t kCap = 64;
  auto mem = ring_mem(kCap);
  ShmRing ring = ShmRing::create(mem.get(), kCap);
  std::uint64_t state = 42;
  for (int i = 0; i < 1000; ++i) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    const auto size = static_cast<std::uint32_t>(state % 24);
    std::vector<std::uint8_t> payload(size);
    for (std::uint32_t b = 0; b < size; ++b) {
      payload[b] = static_cast<std::uint8_t>(state >> (b % 8 * 8));
    }
    ASSERT_TRUE(ring.try_push(kFrameBatch, payload.data(), size)) << i;
    std::uint8_t kind = 0;
    std::vector<std::uint8_t> out;
    ASSERT_TRUE(ring.try_pop(&kind, &out)) << i;
    EXPECT_EQ(kind, kFrameBatch);
    EXPECT_EQ(out, payload) << "iteration " << i;
  }
}

TEST(ShmRing, FullRingBackpressure) {
  constexpr std::size_t kCap = 128;
  auto mem = ring_mem(kCap);
  ShmRing ring = ShmRing::create(mem.get(), kCap);
  const std::uint8_t payload[11] = {};
  int pushed = 0;
  while (ring.try_push(kFrameBatch, payload, sizeof(payload))) ++pushed;
  // 16 bytes per frame (5 overhead + 11), 128 capacity: exactly 8 fit.
  EXPECT_EQ(pushed, 8);
  EXPECT_EQ(ring.used(), kCap);

  std::uint8_t kind = 0;
  std::vector<std::uint8_t> out;
  ASSERT_TRUE(ring.try_pop(&kind, &out));
  EXPECT_TRUE(ring.try_push(kFrameBatch, payload, sizeof(payload)));
  EXPECT_FALSE(ring.try_push(kFrameBatch, payload, sizeof(payload)));
  int drained = 0;
  while (ring.try_pop(&kind, &out)) ++drained;
  EXPECT_EQ(drained, 8);
}

TEST(ShmRing, ConcurrentProducerConsumerNoTornFrames) {
  // The torn-write check: a real producer/consumer pair over a tiny ring.
  // The consumer recomputes each frame's FNV fold from its bytes; a frame
  // exposed before its release store (or overwritten mid-read) cannot
  // keep byte 0..n consistent with the fold carried in the first 8 bytes.
  constexpr std::size_t kCap = 256;
  constexpr int kFrames = 20000;
  auto mem = ring_mem(kCap);
  ShmRing ring = ShmRing::create(mem.get(), kCap);

  std::thread producer([&ring] {
    std::uint64_t state = 7;
    for (int i = 0; i < kFrames; ++i) {
      state = state * 6364136223846793005ULL + 1442695040888963407ULL;
      const auto body = static_cast<std::uint32_t>(state % 64);
      std::vector<std::uint8_t> payload(8 + body);
      std::uint64_t fold = 1469598103934665603ULL;
      for (std::uint32_t b = 0; b < body; ++b) {
        payload[8 + b] = static_cast<std::uint8_t>((state >> (b % 57)) ^ b);
        fold = (fold ^ payload[8 + b]) * 1099511628211ULL;
      }
      std::memcpy(payload.data(), &fold, 8);
      while (!ring.try_push(kFrameBatch, payload.data(),
                            static_cast<std::uint32_t>(payload.size()))) {
        std::this_thread::yield();
      }
    }
  });

  int received = 0;
  while (received < kFrames) {
    std::uint8_t kind = 0;
    std::vector<std::uint8_t> out;
    if (!ring.try_pop(&kind, &out)) {
      std::this_thread::yield();
      continue;
    }
    ASSERT_EQ(kind, kFrameBatch);
    ASSERT_GE(out.size(), 8u);
    std::uint64_t want = 0;
    std::memcpy(&want, out.data(), 8);
    std::uint64_t fold = 1469598103934665603ULL;
    for (std::size_t b = 8; b < out.size(); ++b) {
      fold = (fold ^ out[b]) * 1099511628211ULL;
    }
    ASSERT_EQ(fold, want) << "torn frame " << received;
    ++received;
  }
  producer.join();
}

TEST(ShardDriver, InitialOwnersPartitionIsContiguousAndComplete) {
  const auto owners = ShardDriver::initial_owners(10, 3);
  ASSERT_EQ(owners.size(), 10u);
  std::vector<int> counts(3, 0);
  for (std::size_t i = 1; i < owners.size(); ++i) {
    EXPECT_GE(owners[i], owners[i - 1]);  // contiguous blocks
  }
  for (const std::int32_t o : owners) {
    ASSERT_GE(o, 0);
    ASSERT_LT(o, 3);
    ++counts[static_cast<std::size_t>(o)];
  }
  for (const int c : counts) EXPECT_GE(c, 3);
}

// ---- calibration-ring equality ---------------------------------------------

ShardWorkload build_ring(std::int64_t lps, std::int64_t chain,
                         std::int64_t hops) {
  GoldenRing ring = build_golden_ring(golden_ring_options(), lps, chain, hops);
  return {std::move(ring.engine), std::move(ring.lp_checksum)};
}

std::uint64_t double_bits(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

/// Everything deterministic a ShardResult carries, flattened for EXPECT_EQ.
std::vector<std::uint64_t> result_signature(const RunStats& stats,
                                            std::uint64_t checksum) {
  std::vector<std::uint64_t> sig;
  sig.push_back(checksum);
  sig.push_back(stats.total_events);
  sig.push_back(stats.num_windows);
  sig.push_back(static_cast<std::uint64_t>(stats.end_vtime));
  sig.push_back(stats.cross_lp_events);
  sig.push_back(stats.merge_batches);
  sig.push_back(double_bits(stats.modeled_wall_s));
  sig.push_back(double_bits(stats.modeled_sync_s));
  sig.push_back(double_bits(stats.modeled_migrate_s));
  for (const std::uint64_t e : stats.events_per_lp) sig.push_back(e);
  for (const double b : stats.busy_s) sig.push_back(double_bits(b));
  return sig;
}

std::vector<std::uint64_t> sequential_signature(ShardWorkload w) {
  const RunStats stats = w.engine->run();
  std::uint64_t checksum = 0;
  for (LpId i = 0; i < w.engine->num_lps(); ++i) {
    checksum = checksum * 31 + w.lp_checksum(i);
  }
  return result_signature(stats, checksum);
}

TEST(ShardExecutor, MatchesSequentialAtSeveralShardCounts) {
  const auto reference =
      sequential_signature(build_ring(/*lps=*/8, /*chain=*/8, /*hops=*/200));
  for (const std::int32_t shards : {2, 3, 5, 8}) {
    ShardOptions opts;
    opts.shards = shards;
    opts.fallback = false;
    const ShardResult r =
        run_sharded(opts, [] { return build_ring(8, 8, 200); });
    EXPECT_EQ(r.shards, shards);
    EXPECT_EQ(reference, result_signature(r.stats, r.checksum))
        << "shards=" << shards;
  }
}

TEST(ShardExecutor, ClampsShardCountToLpsWithConfigWarning) {
  WarningLog::instance().clear();
  ShardOptions opts;
  opts.shards = 9;  // only 4 LPs: an LP-less worker is useless
  opts.fallback = false;
  const ShardResult r = run_sharded(opts, [] { return build_ring(4, 4, 50); });
  EXPECT_EQ(r.shards, 4);
  const auto warnings = WarningLog::instance().snapshot();
  ASSERT_FALSE(warnings.empty());
  EXPECT_EQ(warnings.front().category, ErrorCategory::kConfig);
  EXPECT_NE(warnings.front().message.find("clamped"), std::string::npos);
  // The clamped run must still match the sequential reference.
  const auto reference = sequential_signature(build_ring(4, 4, 50));
  EXPECT_EQ(reference, result_signature(r.stats, r.checksum));
}

TEST(ShardExecutor, ScheduledMigrationsPreserveTheTrace) {
  const auto reference = sequential_signature(build_ring(8, 8, 200));
  ShardOptions opts;
  opts.shards = 2;
  opts.fallback = false;
  // Bounce LP 2 across the shard boundary mid-run and move LP 7 once: the
  // checkpoint-serialized state transfer must be invisible to the trace.
  opts.migrations = {{50, 2, 1}, {90, 2, 0}, {120, 7, 0}};
  const ShardResult r =
      run_sharded(opts, [] { return build_ring(8, 8, 200); });
  EXPECT_EQ(reference, result_signature(r.stats, r.checksum));
}

TEST(ShardExecutor, SigkilledWorkerRecoversFromShardCheckpoints) {
  const std::string dir =
      std::filesystem::temp_directory_path() / "massf_shard_recover_test";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  const auto reference = sequential_signature(build_ring(8, 8, 300));
  ShardOptions opts;
  opts.shards = 2;
  opts.ckpt_dir = dir;
  opts.ckpt_every = 64;
  opts.max_retries = 0;       // straight to the fallback rung
  opts.kill_shard = 1;
  opts.kill_after_windows = 150;  // after the second checkpoint set
  opts.ring_dump_path = dir + "/dump.json";
  const ShardResult r =
      run_sharded(opts, [] { return build_ring(8, 8, 300); });
  EXPECT_EQ(r.shards, 1);  // completed on the single-process rung
  EXPECT_GE(r.attempts, 2);
  EXPECT_GT(r.degraded_rung, 0);
  EXPECT_TRUE(r.recovered);
  EXPECT_EQ(reference, result_signature(r.stats, r.checksum));
  // The watchdog's failure artifact must exist and name the signal.
  std::ifstream dump(dir + "/dump.json");
  ASSERT_TRUE(dump.good());
  std::stringstream buf;
  buf << dump.rdbuf();
  EXPECT_NE(buf.str().find("massf.shard.dump.v1"), std::string::npos);
  EXPECT_NE(buf.str().find("signal 9"), std::string::npos);
  std::filesystem::remove_all(dir);
}

TEST(ShardExecutor, CrashMidBatchRecovers) {
  // SIGKILL one frame into a cross-shard batch: the peer sees a torn
  // window (batch without its window-end) and the supervisor must still
  // detect, kill, and recover — from checkpoints, to the same trace.
  const auto reference = sequential_signature(build_ring(8, 8, 300));
  ShardOptions opts;
  opts.shards = 2;
  opts.ckpt_dir = std::filesystem::temp_directory_path() /
                  "massf_shard_midbatch_test";
  std::filesystem::remove_all(opts.ckpt_dir);
  std::filesystem::create_directories(opts.ckpt_dir);
  opts.ckpt_every = 64;
  opts.max_retries = 0;
  opts.kill_shard = 0;
  opts.kill_after_windows = 140;
  opts.kill_in_send = true;
  const ShardResult r =
      run_sharded(opts, [] { return build_ring(8, 8, 300); });
  EXPECT_TRUE(r.recovered);
  EXPECT_EQ(reference, result_signature(r.stats, r.checksum));
  std::filesystem::remove_all(opts.ckpt_dir);
}

// ---- differential fuzz (the pdes_fuzz_test recipe) --------------------------

constexpr int kNumSeeds = 24;

std::uint64_t mix64(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

struct FuzzScenario {
  std::int32_t lps;
  SimTime lookahead;
  SimTime end_time;
  std::int32_t initial_events;
  std::uint64_t fanout_budget;
  bool hook_injects;
  std::uint64_t stop_after_windows;
  std::uint64_t handler_stop_events;
};

FuzzScenario make_scenario(std::uint64_t seed) {
  std::uint64_t s = seed * 0x9e3779b97f4a7c15ULL + 1;
  FuzzScenario sc;
  sc.lps = static_cast<std::int32_t>(2 + mix64(s) % 8);
  sc.lookahead = microseconds(200 + 200 * static_cast<std::int64_t>(
                                               mix64(s) % 9));
  sc.end_time = milliseconds(20 + static_cast<std::int64_t>(mix64(s) % 60));
  sc.initial_events =
      seed % 17 == 0 ? 0 : static_cast<std::int32_t>(1 + mix64(s) % 6);
  sc.fanout_budget = 40 + mix64(s) % 160;
  sc.hook_injects = mix64(s) % 3 != 0;
  sc.stop_after_windows = mix64(s) % 4 == 0 ? 10 + mix64(s) % 40 : 0;
  sc.handler_stop_events = mix64(s) % 5 == 0 ? 50 + mix64(s) % 200 : 0;
  return sc;
}

class FuzzLp final : public LogicalProcess {
 public:
  FuzzLp(std::uint64_t seed, LpId self, std::int32_t num_lps,
         std::shared_ptr<const FuzzScenario> sc)
      : rng_(seed ^ (0xabcdef12345678ULL + static_cast<std::uint64_t>(self))),
        self_(self),
        num_lps_(num_lps),
        sc_(std::move(sc)) {}

  void handle(Engine& engine, const Event& ev) override {
    ++count;
    checksum = checksum * 1099511628211ULL +
               (static_cast<std::uint64_t>(ev.time) ^
                (static_cast<std::uint64_t>(ev.type) << 48) ^ ev.a);
    const std::uint64_t r = mix64(rng_);
    if (ev.a > 0) {
      const SimTime la = engine.options().lookahead;
      switch (r % 5) {
        case 0:
        case 1: {
          const SimTime d = 1 + static_cast<SimTime>(r >> 8) % la;
          engine.schedule(self_, ev.time + d, 1, ev.a - 1);
          break;
        }
        case 2: {
          const LpId dst = static_cast<LpId>(
              (r >> 16) % static_cast<std::uint64_t>(num_lps_));
          const SimTime jitter = static_cast<SimTime>((r >> 40) % 1000);
          engine.schedule(dst, ev.time + la + jitter, 2, ev.a - 1);
          break;
        }
        case 3: {
          engine.schedule(self_, ev.time + 1 + static_cast<SimTime>(r % 500),
                          3, ev.a / 2);
          const LpId dst = static_cast<LpId>(
              (r >> 16) % static_cast<std::uint64_t>(num_lps_));
          engine.schedule(dst, ev.time + la, 4, ev.a - 1);
          break;
        }
        default:
          break;
      }
    }
    if (sc_->handler_stop_events > 0 && count == sc_->handler_stop_events) {
      engine.request_stop();
    }
  }

  std::uint64_t count = 0;
  std::uint64_t checksum = 0;

 private:
  std::uint64_t rng_;
  LpId self_;
  std::int32_t num_lps_;
  std::shared_ptr<const FuzzScenario> sc_;
};

/// Builds the fuzz scenario as a shard workload. Every call with the same
/// seed yields the identical engine — hooks included — which is exactly
/// the determinism contract the workers rely on.
ShardWorkload build_fuzz(std::uint64_t seed) {
  const auto sc = std::make_shared<const FuzzScenario>(make_scenario(seed));
  EngineOptions o;
  o.lookahead = sc->lookahead;
  o.end_time = sc->end_time;
  o.cost_per_event_s = 1e-6;
  o.sync_cost_s = 1e-5;
  auto engine = std::make_unique<Engine>(o);
  auto ptrs = std::make_shared<std::vector<FuzzLp*>>();
  for (std::int32_t i = 0; i < sc->lps; ++i) {
    auto lp = std::make_unique<FuzzLp>(seed, i, sc->lps, sc);
    ptrs->push_back(lp.get());
    engine->add_lp(std::move(lp));
  }
  std::uint64_t init_rng = seed ^ 0x5151515151515151ULL;
  for (std::int32_t i = 0; i < sc->initial_events; ++i) {
    const std::uint64_t r = mix64(init_rng);
    engine->schedule(
        static_cast<LpId>(r % static_cast<std::uint64_t>(sc->lps)),
        static_cast<SimTime>(r >> 32) % milliseconds(5), 1,
        sc->fanout_budget);
  }

  // Hook state rides in shared_ptrs so the lambda (copied into the engine)
  // owns it; every rebuild starts from the same rng seed.
  auto hook_rng = std::make_shared<std::uint64_t>(seed ^ 0xf00dULL);
  auto windows_seen = std::make_shared<std::uint64_t>(0);
  const FuzzScenario scv = *sc;
  engine->hooks().barrier.push_back(
      [hook_rng, windows_seen, scv](Engine& eng, SimTime floor) {
        ++*windows_seen;
        if (scv.hook_injects && mix64(*hook_rng) % 7 == 0) {
          const std::uint64_t r = mix64(*hook_rng);
          eng.schedule(
              static_cast<LpId>(r % static_cast<std::uint64_t>(scv.lps)),
              floor + eng.options().lookahead + static_cast<SimTime>(r % 1000),
              5, 3);
        }
        if (scv.stop_after_windows > 0 &&
            *windows_seen == scv.stop_after_windows) {
          eng.request_stop();
        }
      });

  ShardWorkload w;
  w.engine = std::move(engine);
  w.lp_checksum = [ptrs](LpId i) {
    return (*ptrs)[static_cast<std::size_t>(i)]->checksum;
  };
  return w;
}

class ShardFuzz : public ::testing::TestWithParam<int> {};

TEST_P(ShardFuzz, ShardedMatchesSequential) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  const auto reference = sequential_signature(build_fuzz(seed));
  for (const std::int32_t shards : {2, 3}) {
    ShardOptions opts;
    opts.shards = shards;
    opts.fallback = false;
    const ShardResult r =
        run_sharded(opts, [seed] { return build_fuzz(seed); });
    EXPECT_EQ(reference, result_signature(r.stats, r.checksum))
        << "seed=" << seed << " shards=" << shards;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShardFuzz, ::testing::Range(0, kNumSeeds));

}  // namespace
}  // namespace massf::shard
