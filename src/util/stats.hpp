// Statistics helpers shared by the metrics code and the experiment
// harnesses: running accumulators, load-imbalance / parallel-efficiency
// formulas from the paper (Section 4.1), and a small time-series recorder
// used for the Figure 3 style load-variation traces.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace massf {

/// Single-pass mean/variance/min/max accumulator (Welford).
class Accumulator {
 public:
  void add(double x);

  std::size_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  double variance() const;  ///< population variance
  double stddev() const;
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }
  double sum() const { return sum_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0;
  double m2_ = 0;
  double min_ = 0;
  double max_ = 0;
  double sum_ = 0;
};

/// Load imbalance as defined in the paper: the standard deviation of the
/// per-engine-node event rates {k}, normalized (coefficient of variation,
/// stddev/mean). Zero means perfectly balanced. Returns 0 for empty input or
/// zero mean.
double load_imbalance(std::span<const double> rates);

/// avg/max balance factor (the Ec term of the HPROF partition evaluator and
/// the denominator structure of parallel efficiency). 1.0 is perfect.
double avg_over_max(std::span<const double> loads);

/// Parallel efficiency PE(N, L) = Tseq / (N * T) with
/// Tseq approximated by total_events / max_event_rate_per_node
/// (paper Section 4.1). `t_parallel_s` is the parallel runtime in seconds
/// and `max_event_rate_per_node` in events/second.
double parallel_efficiency(double total_events,
                           double max_event_rate_per_node, std::size_t n_nodes,
                           double t_parallel_s);

/// Fixed-bin time series: values are accumulated into bins of `bin_width`
/// on the time axis; used to record per-engine load over the lifetime of a
/// simulation (Figure 3).
class TimeSeries {
 public:
  explicit TimeSeries(double bin_width);

  void add(double t, double value);

  double bin_width() const { return bin_width_; }
  std::size_t num_bins() const { return bins_.size(); }
  /// Sum of values recorded in bin i.
  double bin(std::size_t i) const { return bins_[i]; }

 private:
  double bin_width_;
  std::vector<double> bins_;
};

}  // namespace massf
