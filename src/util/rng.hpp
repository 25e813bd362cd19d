// Deterministic random number generation.
//
// Every stochastic component of the simulator (topology generation, traffic
// arrival processes, partitioner tie-breaking) draws from an Rng derived
// from a single root seed through a stable stream-splitting scheme, so a
// whole experiment is reproducible from one integer.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

namespace massf {

/// xoshiro256** generator. Small, fast, and high quality; satisfies
/// UniformRandomBitGenerator so it composes with <random> if needed.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ULL; }

  std::uint64_t operator()();

  /// Derives an independent child stream identified by a label. The same
  /// (parent seed, label) pair always yields the same stream, regardless of
  /// how many values the parent has produced.
  Rng fork(std::string_view label) const;

  /// Numeric-key variant (e.g. per-entity or per-flow streams).
  Rng fork(std::uint64_t key) const;

  /// Uniform integer in [0, n). n must be > 0.
  std::uint64_t uniform(std::uint64_t n);

  /// Uniform double in [0, 1).
  double uniform01();

  /// Uniform double in [lo, hi).
  double uniform_real(double lo, double hi);

  /// Exponential with the given mean (mean = 1/lambda).
  double exponential(double mean);

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::size_t j = static_cast<std::size_t>(uniform(i));
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

 private:
  std::uint64_t s_[4];

  std::uint64_t seed_fingerprint() const;
};

/// Zipf(1..n, exponent s) sampler with precomputed CDF; used for server
/// popularity in the HTTP background workload.
class ZipfSampler {
 public:
  ZipfSampler(std::size_t n, double s);

  /// Returns a rank in [0, n).
  std::size_t sample(Rng& rng) const;

  std::size_t size() const { return cdf_.size(); }

 private:
  std::vector<double> cdf_;
};

}  // namespace massf
