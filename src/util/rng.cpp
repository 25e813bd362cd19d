#include "util/rng.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"

namespace massf {
namespace {

constexpr std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& s : s_) s = splitmix64(sm);
}

std::uint64_t Rng::operator()() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

std::uint64_t Rng::seed_fingerprint() const {
  return s_[0] ^ rotl(s_[1], 13) ^ rotl(s_[2], 29) ^ rotl(s_[3], 47);
}

Rng Rng::fork(std::uint64_t key) const {
  // splitmix-style mix of the key with the state fingerprint.
  std::uint64_t z = key + 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return Rng((z ^ (z >> 31)) ^ seed_fingerprint());
}

Rng Rng::fork(std::string_view label) const {
  // FNV-1a over the label, mixed with the current state fingerprint. The
  // fingerprint depends only on construction seed plus values consumed so
  // far; forking immediately after construction is the stable pattern.
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (char c : label) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return Rng(h ^ seed_fingerprint());
}

std::uint64_t Rng::uniform(std::uint64_t n) {
  MASSF_DCHECK(n > 0);
  // Lemire's nearly-divisionless bounded sampling with rejection.
  std::uint64_t x = (*this)();
  __uint128_t m = static_cast<__uint128_t>(x) * n;
  auto lo = static_cast<std::uint64_t>(m);
  if (lo < n) {
    const std::uint64_t threshold = (0 - n) % n;
    while (lo < threshold) {
      x = (*this)();
      m = static_cast<__uint128_t>(x) * n;
      lo = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

double Rng::uniform01() {
  return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

double Rng::uniform_real(double lo, double hi) {
  return lo + (hi - lo) * uniform01();
}

double Rng::exponential(double mean) {
  MASSF_DCHECK(mean > 0);
  double u = uniform01();
  // Avoid log(0).
  if (u <= 0) u = 0x1.0p-53;
  return -mean * std::log(u);
}

ZipfSampler::ZipfSampler(std::size_t n, double s) {
  MASSF_CHECK(n > 0);
  cdf_.resize(n);
  double acc = 0;
  for (std::size_t i = 0; i < n; ++i) {
    acc += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf_[i] = acc;
  }
  for (auto& c : cdf_) c /= acc;
}

std::size_t ZipfSampler::sample(Rng& rng) const {
  const double u = rng.uniform01();
  auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  if (it == cdf_.end()) return cdf_.size() - 1;
  return static_cast<std::size_t>(it - cdf_.begin());
}

}  // namespace massf
