#include "wsim/kernels/common.hpp"

#include <utility>

#include "wsim/obs/metrics.hpp"

namespace wsim::kernels {

std::string_view to_string(CommMode mode) noexcept {
  switch (mode) {
    case CommMode::kSharedMemory:
      return "shared";
    case CommMode::kShuffle:
      return "shuffle";
  }
  return "unknown";
}

double KernelRunResult::gcups_total() const noexcept {
  const double seconds = launch.total_seconds();
  return seconds > 0.0 ? static_cast<double>(cells) / seconds / 1e9 : 0.0;
}

double KernelRunResult::gcups_kernel() const noexcept {
  return launch.kernel_seconds > 0.0
             ? static_cast<double>(cells) / launch.kernel_seconds / 1e9
             : 0.0;
}

double KernelRunResult::cycles_per_iteration(std::uint64_t iterations) const noexcept {
  return iterations > 0
             ? static_cast<double>(launch.representative.cycles) /
                   static_cast<double>(iterations)
             : 0.0;
}

std::uint64_t shape_key(std::size_t rows, std::size_t cols,
                        std::size_t granularity) noexcept {
  const std::uint64_t g = granularity == 0 ? 1 : granularity;
  const std::uint64_t r = (rows + g - 1) / g;
  const std::uint64_t c = (cols + g - 1) / g;
  return (r << 32) | (c & 0xffffffffULL);
}

std::vector<simt::BlockArgs> take_executed(std::vector<simt::BlockArgs>& all,
                                           std::span<const std::size_t> execute) {
  std::vector<simt::BlockArgs> args;
  args.reserve(execute.size());
  for (const std::size_t i : execute) {
    args.push_back(std::move(all[i]));
  }
  return args;
}

void count_arena_bytes(const simt::GlobalMemory& gmem) {
  static obs::Counter c_arena_bytes("kernels.arena_bytes");
  c_arena_bytes.add(gmem.size());
}

}  // namespace wsim::kernels
