#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/probe.hpp"

namespace massf::obs {
namespace {

TEST(Metrics, CounterAccumulates) {
  Registry r;
  Counter& c = r.counter("a");
  c.inc();
  c.inc(9);
  EXPECT_EQ(c.value(), 10u);
  // Same name -> same counter.
  EXPECT_EQ(&r.counter("a"), &c);
  EXPECT_EQ(r.counter("a").value(), 10u);
}

TEST(Metrics, GaugeSetAndAdd) {
  Registry r;
  Gauge& g = r.gauge("g");
  g.set(2.5);
  g.add(0.25);
  EXPECT_DOUBLE_EQ(g.value(), 2.75);
  g.set(-1.0);
  EXPECT_DOUBLE_EQ(g.value(), -1.0);
}

TEST(Metrics, HistogramBucketsFollowLeConvention) {
  Registry r;
  const std::array<double, 3> bounds = {1.0, 2.0, 4.0};
  Histogram& h = r.histogram("h", bounds);
  h.observe(0.5);   // <= 1
  h.observe(1.0);   // <= 1 (inclusive upper bound)
  h.observe(1.5);   // <= 2
  h.observe(4.5);   // overflow
  const auto counts = h.counts();
  ASSERT_EQ(counts.size(), 4u);
  EXPECT_EQ(counts[0], 2u);
  EXPECT_EQ(counts[1], 1u);
  EXPECT_EQ(counts[2], 0u);
  EXPECT_EQ(counts[3], 1u);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 7.5);
}

TEST(Metrics, ConcurrentIncrementsAreLossless) {
  Registry r;
  Counter& c = r.counter("n");
  Gauge& g = r.gauge("s");
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 10000; ++i) {
        c.inc();
        g.add(1.0);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(c.value(), 40000u);
  EXPECT_DOUBLE_EQ(g.value(), 40000.0);
}

TEST(Metrics, SnapshotsAreNameOrdered) {
  Registry r;
  r.counter("z.last").inc();
  r.counter("a.first").inc(2);
  r.counter("m.middle").inc(3);
  const auto counters = r.counters();
  ASSERT_EQ(counters.size(), 3u);
  EXPECT_EQ(counters[0].first, "a.first");
  EXPECT_EQ(counters[1].first, "m.middle");
  EXPECT_EQ(counters[2].first, "z.last");
}

TEST(Export, FormatDoubleRoundTripsAndClamps) {
  EXPECT_EQ(format_double(0.25), "0.25");
  EXPECT_EQ(format_double(0.0), "0");
  EXPECT_EQ(format_double(-3.0), "-3");
  EXPECT_EQ(format_double(std::nan("")), "0");
  EXPECT_EQ(format_double(1.0 / 0.0), "1e308");
  EXPECT_EQ(format_double(-1.0 / 0.0), "-1e308");
}

// Golden test: the exact bytes of the JSON export, so the schema cannot
// drift silently (BENCH_*.json files are diffed across PRs).
TEST(Export, JsonGolden) {
  Registry r;
  r.counter("pdes.events").inc(42);
  r.counter("net.forwarded").inc(7);
  r.gauge("sim.load_imbalance").set(1.5);
  const std::array<double, 2> bounds = {0.5, 2.0};
  Histogram& h = r.histogram("win.events", bounds);
  h.observe(0.25);
  h.observe(3.0);
  const std::string expected =
      "{\n"
      "  \"schema\": \"massf.metrics.v1\",\n"
      "  \"counters\": {\n"
      "    \"net.forwarded\": 7,\n"
      "    \"pdes.events\": 42\n"
      "  },\n"
      "  \"gauges\": {\n"
      "    \"sim.load_imbalance\": 1.5\n"
      "  },\n"
      "  \"histograms\": {\n"
      "    \"win.events\": {\"bounds\": [0.5, 2], \"counts\": [1, 0, 1], "
      "\"count\": 2, \"sum\": 3.25}\n"
      "  }\n"
      "}\n";
  EXPECT_EQ(to_json(r), expected);
}

TEST(Export, EmptyRegistryJsonIsValid) {
  Registry r;
  const std::string expected =
      "{\n"
      "  \"schema\": \"massf.metrics.v1\",\n"
      "  \"counters\": {},\n"
      "  \"gauges\": {},\n"
      "  \"histograms\": {}\n"
      "}\n";
  EXPECT_EQ(to_json(r), expected);
}

TEST(Export, EscapeJsonEscapesQuotesBackslashesAndControls) {
  EXPECT_EQ(escape_json("a\"b\\c\nd\te\x01"),
            "a\\\"b\\\\c\\nd\\te\\u0001");
}

TEST(Export, WriteFileRoundTrips) {
  const std::string path = ::testing::TempDir() + "obs_export_test.json";
  ASSERT_TRUE(write_file(path, "hello\n"));
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  char buf[16] = {};
  const std::size_t n = std::fread(buf, 1, sizeof buf, f);
  std::fclose(f);
  std::remove(path.c_str());
  EXPECT_EQ(std::string(buf, n), "hello\n");
}

TEST(Probe, AccumulatesWindowsAndSummary) {
  WindowProbe probe;
  probe.begin_window(0, 0.0);
  probe.record_lp(0, 3, 5, 1, 1);
  probe.record_lp(1, 1, 2, 0, 0);
  probe.end_window(0.1, 0.2, 0.05, 0.01);
  probe.begin_window(1, 0.001);
  probe.record_lp(0, 2, 4, 2, 2);
  probe.end_window(0.0, 0.1, 0.0, 0.0);

  ASSERT_EQ(probe.windows().size(), 2u);
  const auto& w0 = probe.windows()[0];
  EXPECT_EQ(w0.events, 4u);
  EXPECT_EQ(w0.max_lp_events, 3u);
  EXPECT_EQ(w0.queue_depth, 7u);
  EXPECT_EQ(w0.max_queue_depth, 5u);
  EXPECT_EQ(w0.outbox, 1u);
  EXPECT_EQ(w0.outbox_batches, 1u);
  EXPECT_DOUBLE_EQ(w0.hook_s, 0.1);

  const auto s = probe.summary();
  EXPECT_EQ(s.windows, 2u);
  EXPECT_EQ(s.events, 6u);
  EXPECT_EQ(s.outbox_events, 3u);
  EXPECT_EQ(s.outbox_batches, 3u);
  EXPECT_EQ(s.max_queue_depth, 5u);
  EXPECT_DOUBLE_EQ(s.process_s, 0.3);

  ASSERT_EQ(probe.num_lps(), 2u);
  EXPECT_EQ(probe.lp_events()[0], 5u);
  EXPECT_EQ(probe.lp_events()[1], 1u);
}

TEST(Probe, MaxWindowsCapsRowsNotSummary) {
  WindowProbe probe(/*max_windows=*/1);
  for (int i = 0; i < 3; ++i) {
    probe.begin_window(static_cast<std::uint64_t>(i), 0.0);
    probe.record_lp(0, 1, 0, 0);
    probe.end_window(0, 0, 0, 0);
  }
  EXPECT_EQ(probe.windows().size(), 1u);
  EXPECT_EQ(probe.summary().windows, 3u);
  EXPECT_EQ(probe.summary().events, 3u);
}

TEST(Probe, PublishesSummaryIntoRegistry) {
  WindowProbe probe;
  probe.begin_window(0, 0.0);
  probe.record_lp(0, 4, 2, 1, 1);
  probe.end_window(0.1, 0.2, 0.3, 0.4);
  Registry r;
  probe.publish(r);
  EXPECT_EQ(r.counter("pdes.probe.windows").value(), 1u);
  EXPECT_EQ(r.counter("pdes.probe.events").value(), 4u);
  EXPECT_EQ(r.counter("pdes.probe.outbox_events").value(), 1u);
  EXPECT_EQ(r.counter("pdes.probe.outbox_batches").value(), 1u);
  EXPECT_DOUBLE_EQ(r.gauge("pdes.probe.barrier_wait_s").value(), 0.3);
}

}  // namespace
}  // namespace massf::obs
