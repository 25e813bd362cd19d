// Telemetry primitives for the simulator: a registry of named counters,
// gauges, and fixed-bucket histograms.
//
// The paper's whole evaluation (Figures 3-13) is built on measuring event
// rates, load imbalance, and synchronization cost per window; this module
// is the first-class home for those measurements. Design constraints:
//
//  * Null-sink default. Every producer (engine, netsim, routing, traffic)
//    takes an optional `Registry*` and publishes nothing when it is null;
//    the per-packet event path stays allocation-free and branchless apart
//    from pointer checks that sit outside the hot loops.
//  * Stable export schema. Metrics iterate in name order so the JSON
//    exporter (export.hpp) produces byte-stable output for golden tests
//    and for diffing BENCH_*.json across PRs.
//  * Thread-safe increments. Counters/gauges/histogram buckets are atomics
//    with relaxed ordering — safe to bump from threaded-executor workers;
//    registration (name lookup) takes a mutex and must happen outside
//    handler hot paths (cache the returned reference).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace massf::obs {

/// Monotonic event count. Relaxed atomics: totals are read after the run
/// (or at barriers), never used for synchronization.
class Counter {
 public:
  void inc(std::uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Last-written double (e.g. modeled wall clock, convergence instant).
class Gauge {
 public:
  void set(double v) { v_.store(v, std::memory_order_relaxed); }
  void add(double d) {
    double cur = v_.load(std::memory_order_relaxed);
    while (!v_.compare_exchange_weak(cur, cur + d, std::memory_order_relaxed)) {
    }
  }
  double value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

/// Fixed-bucket histogram: bucket i counts observations x <= bounds[i]
/// (Prometheus `le` convention); one implicit overflow bucket follows the
/// last bound. Bounds are fixed at creation — no allocation on observe().
class Histogram {
 public:
  explicit Histogram(std::span<const double> upper_bounds);

  void observe(double x);

  const std::vector<double>& bounds() const { return bounds_; }
  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  /// Per-bucket counts, size bounds().size() + 1 (last = overflow).
  std::vector<std::uint64_t> counts() const;

 private:
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// Named metric store. References returned by counter()/gauge()/histogram()
/// are stable for the registry's lifetime; look them up once at setup and
/// cache the reference — lookups take a mutex.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  /// Creates (or returns the existing) histogram; `bounds` must be strictly
  /// ascending. Bounds of an existing histogram are not changed.
  Histogram& histogram(std::string_view name, std::span<const double> bounds);

  // ---- snapshot accessors (used by the exporters; name-ordered) ----------

  std::vector<std::pair<std::string, std::uint64_t>> counters() const;
  std::vector<std::pair<std::string, double>> gauges() const;

  struct HistogramSnapshot {
    std::string name;
    std::vector<double> bounds;
    std::vector<std::uint64_t> counts;  ///< size bounds.size() + 1
    std::uint64_t count = 0;
    double sum = 0;
  };
  std::vector<HistogramSnapshot> histograms() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

}  // namespace massf::obs
