#include "wsim/align/needleman_wunsch.hpp"

#include <algorithm>
#include <limits>
#include <vector>

#include "wsim/align/matrix.hpp"

namespace wsim::align {

namespace {

constexpr std::int32_t kNegInf = std::numeric_limits<std::int32_t>::min() / 4;

std::int32_t gap_cost(const SwParams& params, std::size_t length) noexcept {
  return length == 0 ? 0
                     : params.gap_open +
                           static_cast<std::int32_t>(length - 1) * params.gap_extend;
}

/// Which neighbour H(i, j) came from, stored as a byte per cell like the
/// gap-extension flags.
enum HFrom : std::uint8_t { kDiag, kVertical, kHorizontal };

}  // namespace

NwAlignment nw_align(std::string_view query, std::string_view target,
                     const SwParams& params) {
  const std::size_t m = query.size();
  const std::size_t n = target.size();
  Matrix<std::int32_t> h(m + 1, n + 1, 0);
  Matrix<std::int32_t> e(m + 1, n + 1, kNegInf);  // horizontal (consumes target)
  Matrix<std::int32_t> f(m + 1, n + 1, kNegInf);  // vertical (consumes query)
  Matrix<std::uint8_t> h_from(m + 1, n + 1, kDiag);
  Matrix<std::uint8_t> e_extends(m + 1, n + 1, 0);
  Matrix<std::uint8_t> f_extends(m + 1, n + 1, 0);

  for (std::size_t j = 1; j <= n; ++j) {
    h(0, j) = gap_cost(params, j);
    e(0, j) = h(0, j);
    h_from(0, j) = kHorizontal;
    e_extends(0, j) = j > 1 ? 1 : 0;
  }
  for (std::size_t i = 1; i <= m; ++i) {
    h(i, 0) = gap_cost(params, i);
    f(i, 0) = h(i, 0);
    h_from(i, 0) = kVertical;
    f_extends(i, 0) = i > 1 ? 1 : 0;
  }

  for (std::size_t i = 1; i <= m; ++i) {
    for (std::size_t j = 1; j <= n; ++j) {
      const std::int32_t open_h = h(i, j - 1) + params.gap_open;
      const std::int32_t extend_h = e(i, j - 1) + params.gap_extend;
      if (extend_h > open_h) {
        e(i, j) = extend_h;
        e_extends(i, j) = 1;
      } else {
        e(i, j) = open_h;
      }
      const std::int32_t open_v = h(i - 1, j) + params.gap_open;
      const std::int32_t extend_v = f(i - 1, j) + params.gap_extend;
      if (extend_v > open_v) {
        f(i, j) = extend_v;
        f_extends(i, j) = 1;
      } else {
        f(i, j) = open_v;
      }
      const std::int32_t diag =
          h(i - 1, j - 1) + substitution_score(params, query[i - 1], target[j - 1]);
      // Precedence on ties: diagonal > vertical > horizontal.
      h(i, j) = diag;
      h_from(i, j) = kDiag;
      if (f(i, j) > h(i, j)) {
        h(i, j) = f(i, j);
        h_from(i, j) = kVertical;
      }
      if (e(i, j) > h(i, j)) {
        h(i, j) = e(i, j);
        h_from(i, j) = kHorizontal;
      }
    }
  }

  NwAlignment result;
  result.score = h(m, n);

  std::vector<std::pair<char, std::size_t>> ops;
  auto push = [&ops](char op) {
    if (!ops.empty() && ops.back().first == op) {
      ++ops.back().second;
    } else {
      ops.emplace_back(op, 1);
    }
  };

  std::size_t i = m;
  std::size_t j = n;
  while (i > 0 || j > 0) {
    if (i == 0) {
      push('D');
      --j;
      continue;
    }
    if (j == 0) {
      push('I');
      --i;
      continue;
    }
    switch (h_from(i, j)) {
      case kDiag:
        push('M');
        --i;
        --j;
        break;
      case kVertical:
        // Follow the F chain while it extends.
        while (f_extends(i, j) != 0 && i > 1) {
          push('I');
          --i;
        }
        push('I');
        --i;
        break;
      case kHorizontal:
        while (e_extends(i, j) != 0 && j > 1) {
          push('D');
          --j;
        }
        push('D');
        --j;
        break;
    }
  }

  std::string cigar;
  for (auto it = ops.rbegin(); it != ops.rend(); ++it) {
    cigar += std::to_string(it->second);
    cigar += it->first;
  }
  result.cigar = std::move(cigar);
  return result;
}

std::int32_t nw_score(std::string_view query, std::string_view target,
                      const SwParams& params) {
  const std::size_t m = query.size();
  const std::size_t n = target.size();
  std::vector<std::int32_t> h(n + 1);
  std::vector<std::int32_t> f(n + 1, kNegInf);
  h[0] = 0;
  for (std::size_t j = 1; j <= n; ++j) {
    h[j] = gap_cost(params, j);
  }
  for (std::size_t i = 1; i <= m; ++i) {
    std::int32_t diag_prev = h[0];  // H(i-1, 0)
    h[0] = gap_cost(params, i);
    std::int32_t e_row = kNegInf;
    for (std::size_t j = 1; j <= n; ++j) {
      e_row = std::max(h[j - 1] + params.gap_open, e_row + params.gap_extend);
      f[j] = std::max(h[j] + params.gap_open, f[j] + params.gap_extend);
      const std::int32_t diag =
          diag_prev + substitution_score(params, query[i - 1], target[j - 1]);
      diag_prev = h[j];
      h[j] = std::max({diag, e_row, f[j]});
    }
  }
  return h[n];
}

}  // namespace wsim::align
