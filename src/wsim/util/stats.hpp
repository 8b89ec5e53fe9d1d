#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace wsim::util {

/// Summary statistics over a sample.
struct Summary {
  std::size_t count = 0;
  double mean = 0.0;
  double stddev = 0.0;  ///< sample standard deviation (n-1 denominator)
  double min = 0.0;
  double max = 0.0;
};

/// Computes count/mean/stddev/min/max of `values`. Empty input yields a
/// zero-initialized Summary.
Summary summarize(std::span<const double> values) noexcept;

/// Result of an ordinary least-squares fit y = slope * x + intercept.
struct LinearFit {
  double slope = 0.0;
  double intercept = 0.0;
  double r_squared = 0.0;  ///< coefficient of determination
};

/// Least-squares fit of y on x. Requires xs.size() == ys.size() >= 2 and
/// at least two distinct x values.
LinearFit linear_fit(std::span<const double> xs, std::span<const double> ys);

/// The p-th percentile (p in [0,100]) using linear interpolation between
/// order statistics. Requires a non-empty sample.
double percentile(std::span<const double> values, double p);

/// percentile() of a sample already sorted ascending, without copying or
/// sorting it: read several percentiles of one sample through this.
double sorted_percentile(std::span<const double> sorted, double p);

/// percentile() of `values` at each of `ps` (non-decreasing), by selection
/// in O(n) per percentile instead of a full sort; bit-identical to
/// sorted_percentile() on the sorted sample. Reorders `values`.
std::vector<double> select_percentiles(std::span<double> values,
                                       std::span<const double> ps);

/// Relative error (estimate - reference) / reference. Requires a non-zero
/// reference.
double relative_error(double estimate, double reference);

}  // namespace wsim::util
