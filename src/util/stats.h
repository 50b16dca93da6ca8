// Small statistics toolkit used by experiments and by FLoc's estimators.
#pragma once

#include <cstddef>
#include <vector>

namespace floc {

// Welford running mean / variance; O(1) per observation.
class RunningStats {
 public:
  void add(double x);
  void reset();

  std::size_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  double variance() const;  // population variance
  double stddev() const;
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }
  double sum() const { return sum_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

// Exponentially weighted moving average: v' = beta*x + (1-beta)*v.
class Ewma {
 public:
  explicit Ewma(double beta, double initial = 0.0)
      : beta_(beta), value_(initial), seeded_(false) {}

  void add(double x) {
    if (!seeded_) {
      value_ = x;
      seeded_ = true;
    } else {
      value_ = beta_ * x + (1.0 - beta_) * value_;
    }
  }
  void set(double v) {
    value_ = v;
    seeded_ = true;
  }
  double value() const { return value_; }
  bool seeded() const { return seeded_; }

 private:
  double beta_;
  double value_;
  bool seeded_;
};

// Empirical CDF over collected samples.
class Cdf {
 public:
  void add(double x) {
    samples_.push_back(x);
    sorted_ = false;
  }

  std::size_t count() const { return samples_.size(); }
  // Value at quantile q in [0,1]; linear interpolation between order stats.
  double quantile(double q) const;
  double fraction_below(double x) const;
  double mean() const;

  const std::vector<double>& samples() const { return samples_; }

 private:
  void ensure_sorted() const;
  mutable std::vector<double> samples_;
  mutable bool sorted_ = false;
};

// Jain's fairness index: (sum x)^2 / (n * sum x^2), in (0, 1]; 1 = perfectly
// equal allocation. Used to compare per-flow fairness across schemes.
double jain_fairness(const std::vector<double>& allocations);

}  // namespace floc
