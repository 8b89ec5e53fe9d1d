#pragma once

#include <cstdint>
#include <limits>
#include <string_view>

#include "wsim/simt/runtime.hpp"

namespace wsim::simt {
class ExecutionEngine;
}  // namespace wsim::simt

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

/// Options every runner takes: the launch knobs, forwarded unchanged to
/// every launch the runner issues, plus what the runner does around its
/// launches. SwRunOptions and PhRunOptions add their runner's extras.
struct RunOptions : simt::LaunchKnobs {
  /// Read device results back (SW runners also backtrace on the host).
  /// Requires ExecMode::kFull.
  bool collect_outputs = false;
  /// Engine that executes the launches and whose cost cache
  /// kCachedByShape uses; null means the process-wide
  /// simt::shared_engine().
  simt::ExecutionEngine* engine = nullptr;
};

/// Shape key for block-cost caching: quantizes (rows, cols) to
/// `granularity` so the timing cache stays small while per-block cycles
/// stay within a few percent of exact. Granularity 1 gives exact caching.
std::uint64_t shape_key(std::size_t rows, std::size_t cols,
                        std::size_t granularity) noexcept;

/// Large negative sentinel for integer DP (matches the host reference).
inline constexpr std::int64_t kNegInf = std::numeric_limits<std::int32_t>::min() / 4;

}  // namespace wsim::kernels
