#include "wsim/util/stats.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "wsim/util/check.hpp"

namespace wsim::util {

Summary summarize(std::span<const double> values) noexcept {
  Summary s;
  s.count = values.size();
  if (values.empty()) {
    return s;
  }
  double total = 0.0;
  s.min = values.front();
  s.max = values.front();
  for (const double v : values) {
    total += v;
    s.min = std::min(s.min, v);
    s.max = std::max(s.max, v);
  }
  s.mean = total / static_cast<double>(s.count);
  if (s.count > 1) {
    double ss = 0.0;
    for (const double v : values) {
      const double d = v - s.mean;
      ss += d * d;
    }
    s.stddev = std::sqrt(ss / static_cast<double>(s.count - 1));
  }
  return s;
}

LinearFit linear_fit(std::span<const double> xs, std::span<const double> ys) {
  require(xs.size() == ys.size(), "linear_fit: xs and ys must have equal size");
  require(xs.size() >= 2, "linear_fit: need at least two points");
  const auto n = static_cast<double>(xs.size());
  double sum_x = 0.0;
  double sum_y = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    sum_x += xs[i];
    sum_y += ys[i];
  }
  const double mean_x = sum_x / n;
  const double mean_y = sum_y / n;
  double sxx = 0.0;
  double sxy = 0.0;
  double syy = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double dx = xs[i] - mean_x;
    const double dy = ys[i] - mean_y;
    sxx += dx * dx;
    sxy += dx * dy;
    syy += dy * dy;
  }
  require(sxx > 0.0, "linear_fit: need at least two distinct x values");
  LinearFit fit;
  fit.slope = sxy / sxx;
  fit.intercept = mean_y - fit.slope * mean_x;
  fit.r_squared = syy > 0.0 ? (sxy * sxy) / (sxx * syy) : 1.0;
  return fit;
}

double percentile(std::span<const double> values, double p) {
  std::vector<double> sorted(values.begin(), values.end());
  std::sort(sorted.begin(), sorted.end());
  return sorted_percentile(sorted, p);
}

namespace {

/// Where the p-th percentile of n > 1 values falls: between order
/// statistics lo and hi = min(lo + 1, n - 1), `frac` of the way up.
struct Rank {
  std::size_t lo = 0;
  std::size_t hi = 0;
  double frac = 0.0;

  Rank(double p, std::size_t n) {
    const double rank = p / 100.0 * static_cast<double>(n - 1);
    lo = static_cast<std::size_t>(rank);
    hi = std::min(lo + 1, n - 1);
    frac = rank - static_cast<double>(lo);
  }

  double interpolate(double at_lo, double at_hi) const noexcept {
    return at_lo + frac * (at_hi - at_lo);
  }
};

void require_percent(double p) {
  require(p >= 0.0 && p <= 100.0, "percentile: p must be in [0, 100]");
}

}  // namespace

double sorted_percentile(std::span<const double> sorted, double p) {
  require(!sorted.empty(), "percentile: sample must be non-empty");
  require_percent(p);
  if (sorted.size() == 1) {
    return sorted.front();
  }
  const Rank r(p, sorted.size());
  return r.interpolate(sorted[r.lo], sorted[r.hi]);
}

std::vector<double> select_percentiles(std::span<double> values,
                                       std::span<const double> ps) {
  require(!values.empty(), "percentile: sample must be non-empty");
  require(std::is_sorted(ps.begin(), ps.end()),
          "select_percentiles: percentiles must be non-decreasing");
  std::vector<double> out;
  out.reserve(ps.size());
  const std::size_t n = values.size();
  // values[0, unsorted) are at most the last order statistic selected,
  // values[unsorted - 1]; each later selection works above it.
  std::size_t unsorted = 0;
  for (const double p : ps) {
    require_percent(p);
    if (n == 1) {
      out.push_back(values.front());
      continue;
    }
    const Rank r(p, n);
    if (r.lo >= unsorted) {
      std::nth_element(values.begin() + static_cast<std::ptrdiff_t>(unsorted),
                       values.begin() + static_cast<std::ptrdiff_t>(r.lo), values.end());
      unsorted = r.lo + 1;
    }
    // Everything above position lo is at least values[lo], so order
    // statistic lo + 1 is the smallest of them.
    const double at_hi =
        r.hi == r.lo
            ? values[r.lo]
            : *std::min_element(values.begin() + static_cast<std::ptrdiff_t>(r.hi),
                                values.end());
    out.push_back(r.interpolate(values[r.lo], at_hi));
  }
  return out;
}

double relative_error(double estimate, double reference) {
  require(reference != 0.0, "relative_error: reference must be non-zero");
  return (estimate - reference) / reference;
}

}  // namespace wsim::util
