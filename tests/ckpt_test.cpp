// Checkpoint/restore: format unit tests plus the restore-equality property
// the subsystem exists for.
//
// The property under test (DESIGN.md section 5e): a run checkpointed at a
// synchronization-window boundary and restored into a freshly constructed
// engine must produce the *same full result signature* as the uninterrupted
// run — per-LP counts and checksums, RunStats bit for bit (including the
// modeled-time doubles), hook-side state, and the window probe's
// deterministic per-window columns — under the sequential executor and
// every thread count. The fuzz section checks it by generation over the
// pdes_fuzz workload family (checkpoint window and executor varied per
// seed); the golden section pins it on the exact BENCH_pdes.json workload
// whose trace checksum (807988445054369792) has been stable since the seed
// engine.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "ckpt/ckpt.hpp"
#include "obs/probe.hpp"
#include "pdes/golden_ring.hpp"

namespace massf {
namespace {

constexpr int kNumFuzzSeeds = 24;

// ---- format unit tests ------------------------------------------------------

TEST(CkptFormat, WriterReaderRoundTrip) {
  ckpt::Writer w;
  w.u8(0xab);
  w.u32(0xdeadbeef);
  w.u64(0x0123456789abcdefULL);
  w.i32(-42);
  w.i64(-1234567890123LL);
  w.f64(3.14159);
  w.f64(-0.0);
  w.str("hello");
  ckpt::write_f64_vec(w, {1.5, -2.5});
  ckpt::write_char_vec(w, {1, 0, 1});
  std::vector<std::uint64_t> u64s = {7, 8, 9};
  ckpt::write_u64_vec(w, u64s);

  ckpt::Reader r(w.buffer().data(), w.size());
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefULL);
  EXPECT_EQ(r.i32(), -42);
  EXPECT_EQ(r.i64(), -1234567890123LL);
  EXPECT_EQ(r.f64(), 3.14159);
  EXPECT_TRUE(std::signbit(r.f64()));  // -0.0 survives (bit-cast encoding)
  EXPECT_EQ(r.str(), "hello");
  std::vector<double> f64s;
  EXPECT_TRUE(ckpt::read_f64_vec(r, f64s));
  EXPECT_EQ(f64s, (std::vector<double>{1.5, -2.5}));
  std::vector<char> chars;
  EXPECT_TRUE(ckpt::read_char_vec(r, chars));
  EXPECT_EQ(chars, (std::vector<char>{1, 0, 1}));
  std::vector<std::uint64_t> back;
  EXPECT_TRUE(ckpt::read_u64_vec(r, back));
  EXPECT_EQ(back, u64s);
  EXPECT_TRUE(r.done());
}

TEST(CkptFormat, ReaderLatchesOnOverrun) {
  const std::uint8_t bytes[2] = {1, 2};
  ckpt::Reader r(bytes, 2);
  EXPECT_EQ(r.u64(), 0u);  // needs 8, has 2: latched, zero value
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.u8(), 0u);  // stays latched even though 1 byte would fit
  EXPECT_FALSE(r.done());
}

TEST(CkptFormat, ContainerRoundTrip) {
  ckpt::Checkpoint ck;
  ck.add_section("alpha").u64(11);
  ckpt::Writer& beta = ck.add_section("beta");
  beta.str("payload");
  beta.i32(-5);

  const std::vector<std::uint8_t> image = ck.serialize();
  std::string error;
  const auto parsed = ckpt::Checkpoint::parse(image.data(), image.size(),
                                              &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->section_names(),
            (std::vector<std::string>{"alpha", "beta"}));
  auto a = parsed->section("alpha");
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->u64(), 11u);
  EXPECT_TRUE(a->done());
  auto b = parsed->section("beta");
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(b->str(), "payload");
  EXPECT_EQ(b->i32(), -5);
  EXPECT_TRUE(b->done());
  EXPECT_FALSE(parsed->section("gamma").has_value());
}

TEST(CkptFormat, ParseRejectsCorruptionAndTruncation) {
  ckpt::Checkpoint ck;
  ck.add_section("state").u64(1234);
  std::vector<std::uint8_t> image = ck.serialize();

  // Every truncation length is rejected (header or payload cut short).
  for (std::size_t len = 0; len < image.size(); ++len) {
    EXPECT_FALSE(ckpt::Checkpoint::parse(image.data(), len).has_value())
        << "accepted truncation to " << len << " bytes";
  }
  // A single flipped payload byte fails the checksum.
  std::vector<std::uint8_t> corrupt = image;
  corrupt.back() ^= 0x01;
  std::string error;
  EXPECT_FALSE(
      ckpt::Checkpoint::parse(corrupt.data(), corrupt.size(), &error)
          .has_value());
  EXPECT_NE(error.find("checksum"), std::string::npos) << error;
  // Bad magic.
  corrupt = image;
  corrupt[0] = 'X';
  EXPECT_FALSE(
      ckpt::Checkpoint::parse(corrupt.data(), corrupt.size()).has_value());
  // Unsupported version (byte 8 is the low version byte).
  corrupt = image;
  corrupt[8] = 0x7f;
  EXPECT_FALSE(
      ckpt::Checkpoint::parse(corrupt.data(), corrupt.size(), &error)
          .has_value());
  EXPECT_NE(error.find("version"), std::string::npos) << error;
}

TEST(CkptFormat, ParticipantsRestoreFailures) {
  int value = 7;
  ckpt::Participants parts;
  parts.add(
      "value",
      [&value](ckpt::Writer& w) { w.i32(value); },
      [&value](ckpt::Reader& r) {
        value = r.i32();
        return true;
      });

  // Happy-path image captured while value == 7 (failed restores below may
  // legitimately mutate `value` before their postcondition check trips —
  // callers treat a failed restore as fatal, not as a rollback).
  ckpt::Checkpoint good;
  parts.save(good);

  // Missing section.
  ckpt::Checkpoint empty;
  std::string error;
  EXPECT_FALSE(parts.restore(empty, &error));
  EXPECT_NE(error.find("value"), std::string::npos) << error;

  // Section present but with trailing bytes: done() check trips.
  ckpt::Checkpoint trailing;
  ckpt::Writer& w = trailing.add_section("value");
  w.i32(9);
  w.u8(0xff);
  EXPECT_FALSE(parts.restore(trailing, &error));
  EXPECT_NE(error.find("value"), std::string::npos) << error;

  // Semantic rejection propagates.
  ckpt::Participants strict;
  strict.add(
      "value", [](ckpt::Writer& sw) { sw.i32(0); },
      [](ckpt::Reader& r) {
        r.i32();
        return false;
      });
  ckpt::Checkpoint ok;
  ok.add_section("value").i32(1);
  EXPECT_FALSE(strict.restore(ok, &error));
  EXPECT_NE(error.find("rejected"), std::string::npos) << error;

  // And the happy path.
  value = -1;
  EXPECT_TRUE(parts.restore(good, &error)) << error;
  EXPECT_EQ(value, 7);
}

// ---- fuzzed restore equality ------------------------------------------------

// splitmix64 (matches pdes_fuzz_test.cpp).
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
  std::uint64_t ckpt_window;     // hook fires every this many windows
  std::int32_t ckpt_threads;     // executor taking the checkpoint
};

FuzzScenario make_scenario(std::uint64_t seed) {
  std::uint64_t s = seed * 0x9e3779b97f4a7c15ULL + 1;
  FuzzScenario sc;
  sc.lps = static_cast<std::int32_t>(1 + mix64(s) % 9);
  sc.lookahead = microseconds(200 + 200 * static_cast<std::int64_t>(
                                               mix64(s) % 9));  // 0.2–1.8ms
  sc.end_time = milliseconds(20 + static_cast<std::int64_t>(mix64(s) % 60));
  sc.initial_events = static_cast<std::int32_t>(1 + mix64(s) % 6);
  sc.fanout_budget = 40 + mix64(s) % 160;
  sc.hook_injects = mix64(s) % 3 != 0;
  sc.ckpt_window = 2 + mix64(s) % 12;  // early enough to fire on every seed
  sc.ckpt_threads = static_cast<std::int32_t>(mix64(s) % 3) * 2;  // 0, 2, 4
  return sc;
}

// Deterministic function of its own event stream; its mutable state (rng
// position, count, checksum) round-trips through the LogicalProcess
// save/load hooks.
class FuzzLp final : public LogicalProcess {
 public:
  FuzzLp(std::uint64_t seed, LpId self, std::int32_t num_lps)
      : rng_(seed ^ (0xabcdef12345678ULL + static_cast<std::uint64_t>(self))),
        self_(self),
        num_lps_(num_lps) {}

  void handle(Engine& engine, const Event& ev) override {
    ++count;
    checksum = checksum * 1099511628211ULL +
               (static_cast<std::uint64_t>(ev.time) ^
                (static_cast<std::uint64_t>(ev.type) << 48) ^ ev.a);
    const std::uint64_t r = mix64(rng_);
    if (ev.a == 0) return;
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
        engine.schedule(self_, ev.time + 1 + static_cast<SimTime>(r % 500), 3,
                        ev.a / 2);
        const LpId dst = static_cast<LpId>(
            (r >> 16) % static_cast<std::uint64_t>(num_lps_));
        engine.schedule(dst, ev.time + la, 4, ev.a - 1);
        break;
      }
      default:
        break;  // absorb
    }
  }

  void save(ckpt::Writer& w) const override {
    w.u64(rng_);
    w.u64(count);
    w.u64(checksum);
  }
  bool load(ckpt::Reader& r) override {
    rng_ = r.u64();
    count = r.u64();
    checksum = r.u64();
    return r.ok();
  }

  std::uint64_t count = 0;
  std::uint64_t checksum = 0;

 private:
  std::uint64_t rng_;
  LpId self_;
  std::int32_t num_lps_;
};

std::uint64_t double_bits(double v) {
  std::uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

// One fully constructed fuzz stack: engine, LPs, the stateful barrier hook,
// and the probe — everything the checkpoint must capture.
struct FuzzStack {
  explicit FuzzStack(std::uint64_t seed) : sc(make_scenario(seed)) {
    EngineOptions o;
    o.lookahead = sc.lookahead;
    o.end_time = sc.end_time;
    o.cost_per_event_s = 1e-6;
    o.sync_cost_s = 1e-5;
    engine = std::make_unique<Engine>(o);
    for (std::int32_t i = 0; i < sc.lps; ++i) {
      auto lp = std::make_unique<FuzzLp>(seed, i, sc.lps);
      lps.push_back(lp.get());
      engine->add_lp(std::move(lp));
    }
    std::uint64_t init_rng = seed ^ 0x5151515151515151ULL;
    for (std::int32_t i = 0; i < sc.initial_events; ++i) {
      const std::uint64_t r = mix64(init_rng);
      engine->schedule(
          static_cast<LpId>(r % static_cast<std::uint64_t>(sc.lps)),
          static_cast<SimTime>(r >> 32) % milliseconds(5), 1,
          sc.fanout_budget);
    }
    hook_rng = seed ^ 0xf00dULL;
    engine->hooks().barrier.push_back([this](Engine& eng, SimTime floor) {
      ++windows_seen;
      if (sc.hook_injects && mix64(hook_rng) % 7 == 0) {
        const std::uint64_t r = mix64(hook_rng);
        eng.schedule(
            static_cast<LpId>(r % static_cast<std::uint64_t>(sc.lps)),
            floor + eng.options().lookahead + static_cast<SimTime>(r % 1000),
            5, 3);
      }
    });
    engine->set_probe(&probe);
  }

  // The driver-side inventory: engine (with LP state), the barrier hook's
  // rng/counter, and the probe. Any entry left out here would surface as a
  // signature mismatch below.
  ckpt::Participants participants() {
    ckpt::Participants parts;
    Engine* eng = engine.get();
    parts.add(
        "engine", [eng](ckpt::Writer& w) { eng->save_state(w); },
        [eng](ckpt::Reader& r) { return eng->restore_state(r); });
    parts.add(
        "hook",
        [this](ckpt::Writer& w) {
          w.u64(hook_rng);
          w.u64(windows_seen);
        },
        [this](ckpt::Reader& r) {
          hook_rng = r.u64();
          windows_seen = r.u64();
          return r.ok();
        });
    parts.add(
        "probe", [this](ckpt::Writer& w) { probe.save(w); },
        [this](ckpt::Reader& r) { return probe.load(r); });
    return parts;
  }

  std::vector<std::uint64_t> signature(const RunStats& stats) const {
    std::vector<std::uint64_t> sig;
    for (const FuzzLp* lp : lps) {
      sig.push_back(lp->count);
      sig.push_back(lp->checksum);
    }
    sig.push_back(stats.total_events);
    sig.push_back(stats.num_windows);
    sig.push_back(static_cast<std::uint64_t>(stats.end_vtime));
    sig.push_back(stats.cross_lp_events);
    sig.push_back(stats.merge_batches);
    sig.push_back(double_bits(stats.modeled_wall_s));
    sig.push_back(double_bits(stats.modeled_sync_s));
    for (const std::uint64_t e : stats.events_per_lp) sig.push_back(e);
    for (const double b : stats.busy_s) sig.push_back(double_bits(b));
    sig.push_back(windows_seen);
    const obs::WindowProbe::Summary s = probe.summary();
    sig.push_back(s.windows);
    sig.push_back(s.events);
    sig.push_back(s.max_queue_depth);
    sig.push_back(s.outbox_events);
    sig.push_back(s.outbox_batches);
    // Deterministic per-window columns only (phase timings are wall clock).
    for (const obs::WindowProbe::Window& w : probe.windows()) {
      sig.push_back(w.events);
      sig.push_back(w.max_lp_events);
      sig.push_back(w.queue_depth);
      sig.push_back(w.outbox);
      sig.push_back(w.outbox_batches);
    }
    return sig;
  }

  RunStats run(std::int32_t threads) {
    return threads > 0 ? engine->run_threaded(threads) : engine->run();
  }

  FuzzScenario sc;
  std::unique_ptr<Engine> engine;
  std::vector<FuzzLp*> lps;
  std::uint64_t hook_rng = 0;
  std::uint64_t windows_seen = 0;
  obs::WindowProbe probe;
};

class CkptFuzz : public ::testing::TestWithParam<int> {};

TEST_P(CkptFuzz, RestoredRunMatchesUninterrupted) {
  const auto seed = static_cast<std::uint64_t>(GetParam());

  // Reference: the uninterrupted sequential run.
  FuzzStack ref(seed);
  const RunStats ref_stats = ref.run(0);
  const std::vector<std::uint64_t> want = ref.signature(ref_stats);
  if (ref_stats.num_windows < 2) {
    GTEST_SKIP() << "seed=" << seed << ": run too short to interrupt ("
                 << ref_stats.num_windows << " windows)";
  }

  // Interrupted run: checkpoint (in memory) at a seed-chosen window that
  // the run is guaranteed to reach (the hook only fires at the top of the
  // loop iteration *after* the target window completes, so the target must
  // be at most num_windows - 1), then stop — under a seed-chosen executor.
  const std::uint64_t ckpt_window = 1 + seed % (ref_stats.num_windows - 1);
  FuzzStack cut(seed);
  ckpt::Participants cut_parts = cut.participants();
  std::vector<std::uint8_t> image;
  cut.engine->hooks().ckpt_every = ckpt_window;
  cut.engine->hooks().ckpt = [&cut_parts, &image](Engine& eng, SimTime) {
    if (!image.empty()) return;  // keep the first snapshot only
    ckpt::Checkpoint ck;
    cut_parts.save(ck);
    image = ck.serialize();
    eng.request_stop();
  };
  cut.run(cut.sc.ckpt_threads);
  ASSERT_FALSE(image.empty())
      << "seed=" << seed << ": run ended before window " << ckpt_window;

  std::string error;
  const auto parsed = ckpt::Checkpoint::parse(image.data(), image.size(),
                                              &error);
  ASSERT_TRUE(parsed.has_value()) << error;

  // Resume into a fresh stack under each executor; full-signature equality.
  for (const std::int32_t threads : {0, 1, 2, 4}) {
    FuzzStack resumed(seed);
    ASSERT_TRUE(resumed.participants().restore(*parsed, &error))
        << "seed=" << seed << " threads=" << threads << ": " << error;
    EXPECT_EQ(want, resumed.signature(resumed.run(threads)))
        << "seed=" << seed << " threads=" << threads;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CkptFuzz,
                         ::testing::Range(0, kNumFuzzSeeds));

// ---- golden restore ---------------------------------------------------------

// The golden ring (pdes/golden_ring.hpp, the BENCH_pdes.json workload)
// with its engine as the only checkpoint participant: the LP checksums are
// LogicalProcess state, saved with the engine.
ckpt::Participants engine_participants(Engine* eng) {
  ckpt::Participants parts;
  parts.add(
      "engine", [eng](ckpt::Writer& w) { eng->save_state(w); },
      [eng](ckpt::Reader& r) { return eng->restore_state(r); });
  return parts;
}

class CkptGolden : public ::testing::TestWithParam<int> {};

// Checkpoint the pinned bench workload halfway (window 1000 of 2001),
// resume, and require the exact golden trace checksum — the same value
// BENCH_pdes.json and pdes_golden_test.cpp pin for uninterrupted runs.
TEST_P(CkptGolden, RestoreAtHalfwayReproducesPinnedChecksum) {
  const std::int32_t threads = GetParam();

  GoldenRing cut = build_golden_ring();
  ckpt::Participants cut_parts = engine_participants(cut.engine.get());
  std::vector<std::uint8_t> image;
  cut.engine->hooks().ckpt_every = 1000;
  cut.engine->hooks().ckpt = [&cut_parts, &image](Engine& eng, SimTime) {
    if (!image.empty()) return;
    ckpt::Checkpoint ck;
    cut_parts.save(ck);
    image = ck.serialize();
    eng.request_stop();
  };
  const RunStats cut_stats = threads > 0
                                 ? cut.engine->run_threaded(threads)
                                 : cut.engine->run();
  ASSERT_FALSE(image.empty());
  EXPECT_EQ(cut_stats.num_windows, 1000u);

  std::string error;
  const auto parsed = ckpt::Checkpoint::parse(image.data(), image.size(),
                                              &error);
  ASSERT_TRUE(parsed.has_value()) << error;

  GoldenRing resumed = build_golden_ring();
  ASSERT_TRUE(engine_participants(resumed.engine.get()).restore(*parsed,
                                                                &error))
      << error;
  const RunStats stats = threads > 0
                             ? resumed.engine->run_threaded(threads)
                             : resumed.engine->run();
  EXPECT_EQ(resumed.checksum(), kGoldenRingChecksum);
  EXPECT_EQ(stats.total_events, kGoldenRingEvents);
  EXPECT_EQ(stats.num_windows, kGoldenRingWindows);
}

INSTANTIATE_TEST_SUITE_P(Threads, CkptGolden, ::testing::Values(0, 2, 4));

}  // namespace
}  // namespace massf
