// Small statistics helpers used by the progress indicators (speed
// smoothing) and by the experiment harness (error aggregation).
#pragma once

#include <cstddef>
#include <vector>

namespace mqpi {

/// Exponentially weighted moving average. The single-query PI of
/// Luo et al. [11, 12] monitors "the current query execution speed";
/// we smooth the instantaneous speed with an EWMA so short scheduler
/// quanta do not make the estimate jitter.
class Ewma {
 public:
  /// alpha in (0, 1]: weight of the newest observation.
  explicit Ewma(double alpha = 0.3);

  void Observe(double value);
  void Reset();

  bool has_value() const { return initialized_; }
  double value() const { return value_; }

 private:
  double alpha_;
  double value_ = 0.0;
  bool initialized_ = false;
};

/// Streaming mean/variance/min/max (Welford).
class RunningStats {
 public:
  void Observe(double value);
  void Reset();

  std::size_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  double variance() const;  // population variance
  double stddev() const;
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Relative error |estimate - actual| / actual, the paper's metric in
/// Section 5.2.3. Returns 0 when both are ~0; treats actual == 0 with a
/// nonzero estimate as 100% error per unit of estimate magnitude.
double RelativeError(double estimate, double actual);

/// Mean of a vector (0 for empty input).
double Mean(const std::vector<double>& xs);

/// Percentile of a copy-sorted vector, interpolated linearly between
/// the two closest ranks. p in [0, 100]. Returns 0 for empty input.
double Percentile(std::vector<double> xs, double p);

}  // namespace mqpi
