#include "wsim/kernels/common.hpp"

#include <string>
#include <unordered_set>
#include <utility>

#include "wsim/kernels/launch.hpp"
#include "wsim/obs/metrics.hpp"
#include "wsim/util/check.hpp"

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

void check_batch(std::string_view runner, std::size_t tasks, const RunOptions& options) {
  const auto require = [runner](bool ok, const char* what) {
    if (!ok) [[unlikely]] {
      util::require(false, std::string(runner) + ": " + what);
    }
  };
  require(tasks > 0, "batch must be non-empty");
  require(!options.collect_outputs || options.mode == simt::ExecMode::kFull,
          "collect_outputs requires ExecMode::kFull");
}

simt::LaunchResult launch_grid(const simt::PreparedKernel& kernel,
                               const simt::DeviceSpec& device, simt::GlobalMemory& gmem,
                               std::span<const std::uint64_t> shape_keys,
                               simt::BindBlocks bind, const RunOptions& options,
                               simt::TransferSpec transfer, std::uint64_t sdc_launch_id,
                               simt::Trace* trace_representative) {
  simt::LaunchOptions launch_options;
  static_cast<simt::LaunchKnobs&>(launch_options) = options;
  launch_options.sdc_launch_id = sdc_launch_id;
  launch_options.transfer = transfer;
  launch_options.trace_representative = trace_representative;
  simt::ExecutionEngine& engine =
      options.engine != nullptr ? *options.engine : simt::shared_engine();
  return engine.launch(kernel, device, gmem, shape_keys, bind, launch_options);
}

bool LaunchSum::add(const simt::LaunchResult& launch, std::size_t weight) {
  total_.kernel_seconds += launch.kernel_seconds;
  total_.h2d_seconds += launch.h2d_seconds;
  total_.d2h_seconds += launch.d2h_seconds;
  total_.transfer_seconds += launch.transfer_seconds;
  total_.overhead_seconds += launch.overhead_seconds;
  total_.instructions += launch.instructions;
  total_.smem_transactions += launch.smem_transactions;
  total_.blocks_executed += launch.blocks_executed;
  total_.sdc_flips += launch.sdc_flips;
  total_.timing.cycles += launch.timing.cycles;
  total_.timing.seconds += launch.timing.seconds;
  if (weight <= best_weight_) {
    return false;
  }
  best_weight_ = weight;
  total_.occupancy = launch.occupancy;
  total_.representative = launch.representative;
  return true;
}

void lay_out_replicas(std::vector<simt::BlockArgs>& args,
                      std::span<const std::uint64_t> shape_keys, simt::ExecMode mode,
                      std::span<const BlockBuffer> buffers, simt::GlobalMemory& gmem) {
  const bool cached = mode == simt::ExecMode::kCachedByShape;
  std::unordered_set<std::uint64_t> shapes_seen;
  bool head_taken = false;
  for (std::size_t t = 0; t < args.size(); ++t) {
    if (cached && !shapes_seen.insert(shape_keys[t]).second) {
      continue;  // never executed: the shape's first block is its executor
    }
    if (!head_taken) {
      head_taken = true;
      continue;
    }
    for (std::size_t b = 0; b < buffers.size(); ++b) {
      const std::size_t align = b == 0 ? 128 : 4;  // 4: GlobalMemory's default
      args[t][buffers[b].arg] =
          static_cast<std::uint64_t>(gmem.alloc(buffers[b].bytes, align));
    }
  }
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

std::int64_t upload(simt::GlobalMemory& gmem, std::string_view bytes) {
  const std::int64_t addr = gmem.alloc(bytes.size());
  gmem.write_u8(addr,
                {reinterpret_cast<const std::uint8_t*>(bytes.data()), bytes.size()});
  return addr;
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
