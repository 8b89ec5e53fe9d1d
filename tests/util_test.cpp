#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>
#include <vector>

#include "wsim/util/check.hpp"
#include "wsim/util/rng.hpp"
#include "wsim/util/stats.hpp"
#include "wsim/util/table.hpp"

namespace {

using wsim::util::CheckError;
using wsim::util::LinearFit;
using wsim::util::Rng;
using wsim::util::Summary;
using wsim::util::Table;

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a(), b());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    same += a() == b() ? 1 : 0;
  }
  EXPECT_LT(same, 4);
}

TEST(Rng, UniformIntStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const auto v = rng.uniform_int(-5, 17);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 17);
  }
}

TEST(Rng, UniformIntCoversWholeRange) {
  Rng rng(9);
  std::vector<bool> seen(8, false);
  for (int i = 0; i < 1000; ++i) {
    seen[static_cast<std::size_t>(rng.uniform_int(0, 7))] = true;
  }
  EXPECT_TRUE(std::all_of(seen.begin(), seen.end(), [](bool b) { return b; }));
}

TEST(Rng, UniformIntRejectsInvertedRange) {
  Rng rng(1);
  EXPECT_THROW(rng.uniform_int(3, 2), CheckError);
}

TEST(Rng, Uniform01Bounds) {
  Rng rng(11);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.uniform01();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, NormalMomentsApproximatelyCorrect) {
  Rng rng(13);
  double sum = 0.0;
  double sum_sq = 0.0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) {
    const double v = rng.normal();
    sum += v;
    sum_sq += v * v;
  }
  const double mean = sum / kN;
  const double var = sum_sq / kN - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.05);
  EXPECT_NEAR(var, 1.0, 0.05);
}

TEST(Rng, CategoricalRespectsWeights) {
  Rng rng(17);
  const std::vector<double> weights = {1.0, 0.0, 3.0};
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 8000; ++i) {
    ++counts[rng.categorical(weights)];
  }
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[0], 3.0, 0.5);
}

TEST(Rng, CategoricalRejectsBadWeights) {
  Rng rng(1);
  EXPECT_THROW(rng.categorical(std::vector<double>{}), CheckError);
  EXPECT_THROW(rng.categorical(std::vector<double>{0.0, 0.0}), CheckError);
  EXPECT_THROW(rng.categorical(std::vector<double>{1.0, -1.0}), CheckError);
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(19);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7};
  auto w = v;
  rng.shuffle(w);
  std::sort(w.begin(), w.end());
  EXPECT_EQ(v, w);
}

TEST(Stats, SummarizeBasics) {
  const std::vector<double> values = {1.0, 2.0, 3.0, 4.0};
  const Summary s = wsim::util::summarize(values);
  EXPECT_EQ(s.count, 4U);
  EXPECT_DOUBLE_EQ(s.mean, 2.5);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 4.0);
  EXPECT_NEAR(s.stddev, std::sqrt(5.0 / 3.0), 1e-12);
}

TEST(Stats, SummarizeEmptyIsZero) {
  const Summary s = wsim::util::summarize({});
  EXPECT_EQ(s.count, 0U);
  EXPECT_EQ(s.mean, 0.0);
}

TEST(Stats, LinearFitRecoversExactLine) {
  std::vector<double> xs;
  std::vector<double> ys;
  for (int i = 0; i < 10; ++i) {
    xs.push_back(i);
    ys.push_back(3.5 * i + 2.0);
  }
  const LinearFit fit = wsim::util::linear_fit(xs, ys);
  EXPECT_NEAR(fit.slope, 3.5, 1e-12);
  EXPECT_NEAR(fit.intercept, 2.0, 1e-12);
  EXPECT_NEAR(fit.r_squared, 1.0, 1e-12);
}

TEST(Stats, LinearFitHandlesNoise) {
  Rng rng(23);
  std::vector<double> xs;
  std::vector<double> ys;
  for (int i = 0; i < 200; ++i) {
    xs.push_back(i);
    ys.push_back(7.0 * i + 100.0 + rng.normal(0.0, 0.5));
  }
  const LinearFit fit = wsim::util::linear_fit(xs, ys);
  EXPECT_NEAR(fit.slope, 7.0, 0.05);
  EXPECT_GT(fit.r_squared, 0.999);
}

TEST(Stats, LinearFitRejectsDegenerateInput) {
  EXPECT_THROW(wsim::util::linear_fit(std::vector<double>{1.0},
                                      std::vector<double>{2.0}),
               CheckError);
  EXPECT_THROW(wsim::util::linear_fit(std::vector<double>{1.0, 1.0},
                                      std::vector<double>{2.0, 3.0}),
               CheckError);
  EXPECT_THROW(wsim::util::linear_fit(std::vector<double>{1.0, 2.0},
                                      std::vector<double>{2.0}),
               CheckError);
}

TEST(Stats, PercentileInterpolates) {
  const std::vector<double> values = {4.0, 1.0, 3.0, 2.0};
  EXPECT_DOUBLE_EQ(wsim::util::percentile(values, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(wsim::util::percentile(values, 100.0), 4.0);
  EXPECT_DOUBLE_EQ(wsim::util::percentile(values, 50.0), 2.5);
}

TEST(Stats, SortedPercentileMatchesPercentile) {
  std::vector<double> values = {0.5, 9.0, 3.25, 3.25, 7.0, 1.0, 4.5};
  const std::vector<double> unsorted = values;
  std::sort(values.begin(), values.end());
  for (const double p : {0.0, 12.5, 50.0, 95.0, 99.0, 100.0}) {
    EXPECT_EQ(wsim::util::sorted_percentile(values, p),
              wsim::util::percentile(unsorted, p));
  }
  EXPECT_THROW(wsim::util::sorted_percentile({}, 50.0), CheckError);
  EXPECT_THROW(wsim::util::sorted_percentile(values, 101.0), CheckError);
}

// Selection must reproduce the sort-based percentiles exactly (golden JSON
// pins them byte for byte), duplicates and tiny samples included.
TEST(Stats, SelectedPercentilesMatchSortedPercentiles) {
  const std::vector<double> ps = {0.0, 50.0, 50.0, 95.0, 99.0, 100.0};
  Rng rng(7);
  for (const std::size_t n : {1U, 2U, 3U, 100U, 100000U}) {
    std::vector<double> values(n);
    for (double& v : values) {
      // Few distinct values, so most order statistics repeat.
      v = static_cast<double>(rng.uniform_int(0, 40)) / 8.0 + 0.001;
    }
    std::vector<double> sorted = values;
    std::sort(sorted.begin(), sorted.end());
    const std::vector<double> selected = wsim::util::select_percentiles(values, ps);
    ASSERT_EQ(selected.size(), ps.size());
    for (std::size_t i = 0; i < ps.size(); ++i) {
      EXPECT_EQ(selected[i], wsim::util::sorted_percentile(sorted, ps[i]))
          << "n=" << n << " p=" << ps[i];
    }
    std::sort(values.begin(), values.end());
    EXPECT_EQ(values, sorted) << "selection must only reorder the sample";
  }
  std::vector<double> one = {1.0};
  EXPECT_THROW(wsim::util::select_percentiles(one, std::vector<double>{99.0, 50.0}),
               CheckError);
  EXPECT_THROW(wsim::util::select_percentiles(one, std::vector<double>{101.0}),
               CheckError);
  std::vector<double> none;
  EXPECT_THROW(wsim::util::select_percentiles(none, std::vector<double>{50.0}),
               CheckError);
}

TEST(Stats, RelativeError) {
  EXPECT_NEAR(wsim::util::relative_error(161.0, 189.0), -0.148, 0.001);
  EXPECT_THROW(wsim::util::relative_error(1.0, 0.0), CheckError);
}

TEST(Table, PrintsAlignedColumns) {
  Table t({"kernel", "GCUPs"});
  t.add_row({"SW1", "1.00"});
  t.add_row({"SW2", "1.20"});
  std::ostringstream oss;
  t.print(oss);
  const std::string out = oss.str();
  EXPECT_NE(out.find("kernel"), std::string::npos);
  EXPECT_NE(out.find("SW2"), std::string::npos);
  EXPECT_EQ(t.row_count(), 2U);
}

TEST(Table, RejectsMismatchedRow) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), CheckError);
}

TEST(Table, CsvEscapesCommas) {
  Table t({"name", "value"});
  t.add_row({"a,b", "1"});
  std::ostringstream oss;
  t.write_csv(oss);
  EXPECT_NE(oss.str().find("\"a,b\""), std::string::npos);
}

TEST(Table, FormatHelpers) {
  EXPECT_EQ(wsim::util::format_fixed(1.23456, 2), "1.23");
  EXPECT_EQ(wsim::util::format_percent(0.562), "56.2%");
}

}  // namespace
