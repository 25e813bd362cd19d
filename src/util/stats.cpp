#include "util/stats.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"

namespace massf {

void Accumulator::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double Accumulator::variance() const {
  if (n_ == 0) return 0;
  return m2_ / static_cast<double>(n_);
}

double Accumulator::stddev() const { return std::sqrt(variance()); }

double load_imbalance(std::span<const double> rates) {
  Accumulator acc;
  for (double r : rates) acc.add(r);
  if (acc.count() == 0 || acc.mean() == 0) return 0;
  return acc.stddev() / acc.mean();
}

double avg_over_max(std::span<const double> loads) {
  Accumulator acc;
  for (double l : loads) acc.add(l);
  if (acc.count() == 0 || acc.max() == 0) return 1.0;
  return acc.mean() / acc.max();
}

double parallel_efficiency(double total_events,
                           double max_event_rate_per_node, std::size_t n_nodes,
                           double t_parallel_s) {
  MASSF_CHECK(n_nodes > 0);
  if (max_event_rate_per_node <= 0 || t_parallel_s <= 0) return 0;
  const double t_seq = total_events / max_event_rate_per_node;
  return t_seq / (static_cast<double>(n_nodes) * t_parallel_s);
}

TimeSeries::TimeSeries(double bin_width) : bin_width_(bin_width) {
  MASSF_CHECK(bin_width > 0);
}

void TimeSeries::add(double t, double value) {
  MASSF_CHECK(t >= 0);
  const auto idx = static_cast<std::size_t>(t / bin_width_);
  if (idx >= bins_.size()) bins_.resize(idx + 1, 0.0);
  bins_[idx] += value;
}

}  // namespace massf
