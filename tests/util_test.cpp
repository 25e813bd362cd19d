#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "util/flags.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/sim_time.hpp"
#include "util/stats.hpp"

namespace massf {
namespace {

TEST(SimTime, UnitConversions) {
  EXPECT_EQ(microseconds(1), 1'000);
  EXPECT_EQ(milliseconds(1), 1'000'000);
  EXPECT_EQ(seconds(1), 1'000'000'000);
  EXPECT_EQ(from_seconds(1.5), seconds(1) + milliseconds(500));
  EXPECT_DOUBLE_EQ(to_seconds(seconds(2)), 2.0);
  EXPECT_DOUBLE_EQ(to_milliseconds(microseconds(1500)), 1.5);
  EXPECT_DOUBLE_EQ(to_microseconds(nanoseconds(2500)), 2.5);
}

TEST(SimTime, FromSecondsRounds) {
  EXPECT_EQ(from_seconds(1e-9), 1);
  EXPECT_EQ(from_seconds(0.49e-9), 0);
  EXPECT_EQ(from_seconds(0.51e-9), 1);
}

TEST(Rng, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a() == b();
  EXPECT_LT(same, 2);
}

TEST(Rng, ForkIsStableAndIndependent) {
  Rng root(7);
  Rng a = root.fork("alpha");
  Rng a2 = Rng(7).fork("alpha");
  for (int i = 0; i < 32; ++i) EXPECT_EQ(a(), a2());

  Rng b = root.fork("beta");
  Rng c = root.fork(std::uint64_t{42});
  int same_ab = 0, same_ac = 0;
  Rng a3 = root.fork("alpha");
  for (int i = 0; i < 64; ++i) {
    const auto va = a3(), vb = b(), vc = c();
    same_ab += va == vb;
    same_ac += va == vc;
  }
  EXPECT_LT(same_ab, 2);
  EXPECT_LT(same_ac, 2);
}

TEST(Rng, NumericForkStable) {
  Rng a = Rng(9).fork(std::uint64_t{5});
  Rng b = Rng(9).fork(std::uint64_t{5});
  for (int i = 0; i < 32; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, UniformBounds) {
  Rng rng(1);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.uniform(17), 17u);
  }
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.uniform(5));
  EXPECT_EQ(seen.size(), 5u);  // all values reachable
}

TEST(Rng, Uniform01HalfOpen) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform01();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, ExponentialMean) {
  Rng rng(4);
  double sum = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(5.0);
  EXPECT_NEAR(sum / n, 5.0, 0.1);
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(7);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(Zipf, RankZeroMostPopular) {
  Rng rng(9);
  ZipfSampler zipf(100, 1.0);
  std::vector<int> counts(100, 0);
  for (int i = 0; i < 100000; ++i) ++counts[zipf.sample(rng)];
  EXPECT_GT(counts[0], counts[10]);
  EXPECT_GT(counts[10], counts[90]);
}

TEST(Zipf, SingleElement) {
  Rng rng(10);
  ZipfSampler zipf(1, 1.0);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(zipf.sample(rng), 0u);
}

TEST(Accumulator, MatchesNaiveMoments) {
  Accumulator acc;
  const std::vector<double> xs{1, 2, 3, 4, 100, -7};
  double sum = 0;
  for (double x : xs) {
    acc.add(x);
    sum += x;
  }
  const double mean = sum / xs.size();
  double var = 0;
  for (double x : xs) var += (x - mean) * (x - mean);
  var /= xs.size();
  EXPECT_NEAR(acc.mean(), mean, 1e-9);
  EXPECT_NEAR(acc.variance(), var, 1e-9);
  EXPECT_DOUBLE_EQ(acc.min(), -7);
  EXPECT_DOUBLE_EQ(acc.max(), 100);
  EXPECT_EQ(acc.count(), xs.size());
}

TEST(Accumulator, EmptyIsZero) {
  Accumulator acc;
  EXPECT_EQ(acc.count(), 0u);
  EXPECT_DOUBLE_EQ(acc.mean(), 0);
  EXPECT_DOUBLE_EQ(acc.stddev(), 0);
}

TEST(LoadImbalance, PerfectBalanceIsZero) {
  const std::vector<double> rates{5, 5, 5, 5};
  EXPECT_DOUBLE_EQ(load_imbalance(rates), 0.0);
}

TEST(LoadImbalance, IsCoefficientOfVariation) {
  const std::vector<double> rates{1, 3};  // mean 2, stddev 1
  EXPECT_NEAR(load_imbalance(rates), 0.5, 1e-12);
}

TEST(LoadImbalance, EmptyAndZeroMeanSafe) {
  EXPECT_DOUBLE_EQ(load_imbalance({}), 0.0);
  const std::vector<double> zeros{0, 0};
  EXPECT_DOUBLE_EQ(load_imbalance(zeros), 0.0);
}

TEST(AvgOverMax, Bounds) {
  const std::vector<double> l1{4, 4, 4};
  EXPECT_DOUBLE_EQ(avg_over_max(l1), 1.0);
  const std::vector<double> l2{0, 0, 9};
  EXPECT_NEAR(avg_over_max(l2), 1.0 / 3, 1e-12);
}

TEST(ParallelEfficiency, MatchesDefinition) {
  // Tseq = 1e6 events / 2e5 per s = 5 s; PE = 5 / (4 * 2) = 0.625.
  EXPECT_NEAR(parallel_efficiency(1e6, 2e5, 4, 2.0), 0.625, 1e-12);
}

TEST(ParallelEfficiency, DegenerateInputs) {
  EXPECT_DOUBLE_EQ(parallel_efficiency(100, 0, 4, 2.0), 0);
  EXPECT_DOUBLE_EQ(parallel_efficiency(100, 10, 4, 0), 0);
}

TEST(TimeSeries, BinsAccumulate) {
  TimeSeries ts(1.0);
  ts.add(0.2, 1);
  ts.add(0.9, 2);
  ts.add(2.5, 5);
  ASSERT_EQ(ts.num_bins(), 3u);
  EXPECT_DOUBLE_EQ(ts.bin(0), 3);
  EXPECT_DOUBLE_EQ(ts.bin(1), 0);
  EXPECT_DOUBLE_EQ(ts.bin(2), 5);
}

TEST(FlagTable, ParsesForms) {
  const auto table = [] {
    FlagTable t("prog", "");
    t.add_int("alpha", 0, "");
    t.add_string("beta", "", "");
    t.add_bool("gamma", false, "");
    t.add_double("delta", 0.5, "");
    t.add_int("missing", 7, "");
    return t;
  };
  std::string error;

  FlagTable f = table();
  const char* argv[] = {"prog",  "--alpha=3", "--beta",
                        "hello", "--gamma",   "--delta=2.5"};
  ASSERT_TRUE(f.parse(6, argv, &error)) << error;
  EXPECT_EQ(f.get_int("alpha"), 3);
  EXPECT_EQ(f.get_string("beta"), "hello");
  EXPECT_TRUE(f.get_bool("gamma"));
  EXPECT_DOUBLE_EQ(f.get_double("delta"), 2.5);
  EXPECT_EQ(f.get_int("missing"), 7);
  EXPECT_TRUE(f.set("alpha"));
  EXPECT_FALSE(f.set("missing"));

  FlagTable unknown = table();
  const char* typo[] = {"prog", "--alpha=3", "--alhpa=4"};
  EXPECT_FALSE(unknown.parse(3, typo, &error));
  EXPECT_EQ(error, "arg 2 (--alhpa=4): unknown flag (see --help)");

  FlagTable malformed = table();
  const char* bad[] = {"prog", "--alpha", "3x"};
  EXPECT_FALSE(malformed.parse(3, bad, &error));
  EXPECT_EQ(error, "arg 1 (--alpha=3x): expects an integer");

  // A repeated flag is an error, not "the last one wins", in either form:
  // dropping the first value would lose half of a repeated massf_cli
  // --override.
  FlagTable twice = table();
  const char* repeated[] = {"prog", "--beta", "a", "--beta=b"};
  EXPECT_FALSE(twice.parse(4, repeated, &error));
  EXPECT_EQ(error, "arg 3 (--beta=b): given twice");

  FlagTable twice_bool = table();
  const char* repeated_bool[] = {"prog", "--gamma", "--gamma=false"};
  EXPECT_FALSE(twice_bool.parse(3, repeated_bool, &error));
  EXPECT_EQ(error, "arg 2 (--gamma=false): given twice");
}

// ---- parallel_for ----------------------------------------------------------

TEST(ParallelFor, RunsEachItemOnce) {
  constexpr std::size_t kItems = 1000;
  const std::size_t width = parallel_width(kItems);
  std::vector<std::atomic<int>> runs(kItems);
  std::atomic<bool> bad_worker{false};
  parallel_for(kItems, [&](std::size_t worker, std::size_t item) {
    if (worker >= width) bad_worker = true;
    runs[item].fetch_add(1);
  });
  EXPECT_FALSE(bad_worker.load());
  for (std::size_t i = 0; i < kItems; ++i) {
    EXPECT_EQ(runs[i].load(), 1) << "item " << i;
  }
  parallel_for(0, [](std::size_t, std::size_t) { FAIL() << "no items"; });
}

TEST(ParallelFor, RunsInlineAtWidthOne) {
  ASSERT_EQ(parallel_width(1), 1u);
  const std::thread::id caller = std::this_thread::get_id();
  int calls = 0;  // unsynchronized: a second thread would be a data race
  parallel_for(1, [&](std::size_t worker, std::size_t item) {
    EXPECT_EQ(worker, 0u);
    EXPECT_EQ(item, 0u);
    EXPECT_EQ(std::this_thread::get_id(), caller);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(ParallelFor, RethrowsAfterEveryWorkerJoins) {
  constexpr std::size_t kItems = 64;
  const std::size_t width = parallel_width(kItems);
  // The last worker throws (the caller itself at width 1). Each worker's
  // first item waits until every worker holds one, so the thrower gets an
  // item while the others are still busy.
  const std::size_t thrower = width - 1;
  std::atomic<std::size_t> started{0};
  std::atomic<int> running{0};
  struct Running {
    explicit Running(std::atomic<int>& n) : n_(n) { ++n_; }
    ~Running() { --n_; }
    std::atomic<int>& n_;
  };
  try {
    parallel_for(kItems, [&](std::size_t worker, std::size_t) {
      const Running guard(running);
      if (started.fetch_add(1) < width) {
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(10);
        while (started.load() < width &&
               std::chrono::steady_clock::now() < deadline) {
          std::this_thread::yield();
        }
      }
      if (worker == thrower) throw std::runtime_error("worker failed");
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    });
    FAIL() << "the worker's exception was not rethrown";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "worker failed");
    EXPECT_EQ(running.load(), 0) << "rethrown before every worker joined";
  }
}

}  // namespace
}  // namespace massf
