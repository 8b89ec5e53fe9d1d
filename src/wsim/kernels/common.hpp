#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <string_view>
#include <vector>

#include "wsim/simt/runtime.hpp"

namespace wsim::kernels {

/// The two inter-thread communication designs the paper contrasts
/// (Fig. 6): design A stages anti-diagonal values in shared-memory line
/// buffers; design B keeps them in registers and exchanges them with warp
/// shuffles.
enum class CommMode {
  kSharedMemory,  ///< design A (SW1 / PH1)
  kShuffle,       ///< design B (SW2 / PH2)
};

std::string_view to_string(CommMode mode) noexcept;

/// Result of running one batch through a kernel, with CUPS accounting.
/// `cells` counts DP cells in the paper's convention (PairHMM's three
/// matrix updates count as one cell).
struct KernelRunResult {
  simt::LaunchResult launch;
  std::size_t cells = 0;

  /// GCUPS including host-device transfer and launch overhead (the
  /// paper's Fig. 9 / Fig. 10 convention).
  double gcups_total() const noexcept;

  /// GCUPS over device execution only (the paper's Table II convention).
  double gcups_kernel() const noexcept;

  /// Average cycles per anti-diagonal iteration given the total number of
  /// wavefront iterations executed by the representative block — the
  /// `latency` of the paper's performance model (Eq. 7).
  double cycles_per_iteration(std::uint64_t iterations) const noexcept;
};

/// Shape key for block-cost caching: quantizes (rows, cols) to
/// `granularity` so the timing cache stays small while per-block cycles
/// stay within a few percent of exact. Granularity 1 gives exact caching.
std::uint64_t shape_key(std::size_t rows, std::size_t cols,
                        std::size_t granularity) noexcept;

/// For a binder that lays out every block of a grid (so each executing
/// block keeps the addresses it has with all blocks bound): moves the
/// executing blocks' arguments out of `all`, in `execute` order.
std::vector<simt::BlockArgs> take_executed(std::vector<simt::BlockArgs>& all,
                                           std::span<const std::size_t> execute);

/// Adds a finished batch's arena size to the obs counter
/// `kernels.arena_bytes`: the device memory the batch allocated, zero
/// when no block executed.
void count_arena_bytes(const simt::GlobalMemory& gmem);

/// Large negative sentinel for integer DP (matches the host reference).
inline constexpr std::int64_t kNegInf = std::numeric_limits<std::int32_t>::min() / 4;

}  // namespace wsim::kernels
