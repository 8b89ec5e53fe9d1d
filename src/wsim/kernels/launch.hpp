#pragma once

// Launch plumbing the kernel runners share: batch checks, the one launch
// builder, the multi-launch sum, block-private buffer replicas and the SW
// readback. Internal to wsim::kernels; callers use the runner headers.

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "wsim/kernels/common.hpp"
#include "wsim/kernels/sw_kernels.hpp"
#include "wsim/simt/engine.hpp"
#include "wsim/simt/runtime.hpp"
#include "wsim/workload/batching.hpp"

namespace wsim::kernels {

/// Throws util::CheckError, its message prefixed with `runner`, unless the
/// batch has tasks and collect_outputs comes with ExecMode::kFull.
void check_batch(std::string_view runner, std::size_t tasks, const RunOptions& options);

/// The extent of an SW-shaped batch: its longest query and target, its DP
/// cells, and the sequence bytes its launches copy to the device.
struct SwBatchExtent {
  std::size_t max_m = 0;
  std::size_t max_n = 0;
  std::size_t cells = 0;
  std::size_t h2d_bytes = 0;
};

/// check_batch for the runners of SW-shaped batches (SW, NW, wavefront),
/// which also need non-empty sequences in every task; returns the batch's
/// extent.
SwBatchExtent check_sw_batch(std::string_view runner, const workload::SwBatch& batch,
                             const RunOptions& options);

/// Issues one launch of a runner's batch on the engine `options` names:
/// the knobs of `options` plus this launch's own transfer volumes, SDC
/// launch id and traced block. The one place runner options become
/// simt::LaunchOptions.
simt::LaunchResult launch_grid(const simt::PreparedKernel& kernel,
                               const simt::DeviceSpec& device, simt::GlobalMemory& gmem,
                               std::span<const std::uint64_t> shape_keys,
                               simt::BindBlocks bind, const RunOptions& options,
                               simt::TransferSpec transfer, std::uint64_t sdc_launch_id,
                               simt::Trace* trace_representative = nullptr);

/// Sums the launches of one batch (the PairHMM read-length variants, the
/// wavefront waves): seconds, counts and flips add up; occupancy and the
/// representative block come from the heaviest launch, the first of equal
/// weight.
class LaunchSum {
 public:
  explicit LaunchSum(const RunOptions& options) {
    total_.transfers_overlapped = options.overlap_transfers;
  }

  /// Adds one launch of `weight` (its cells or blocks). True when it is
  /// the heaviest so far and so now supplies the representative.
  bool add(const simt::LaunchResult& launch, std::size_t weight);

  const simt::LaunchResult& result() const noexcept { return total_; }

 private:
  simt::LaunchResult total_;
  std::size_t best_weight_ = 0;
};

/// A block-private device buffer of a task-per-block kernel: the scalar
/// argument holding its address, and its size.
struct BlockBuffer {
  std::size_t arg = 0;
  std::size_t bytes = 0;
};

/// Gives every block that may execute its own copy of the block-private
/// `buffers`, since blocks run concurrently on the engine's workers. The
/// first potential executor keeps the head set its arguments already name;
/// every other one (each task in kFull, the first task of each further
/// distinct shape in kCachedByShape, where the engine executes at most one
/// block per shape) gets a replica at the arena tail. A replica starts
/// 128-byte aligned and mirrors the head layout, so each block's segment
/// geometry, and so its cycle count, matches sequential execution with the
/// shared head set.
void lay_out_replicas(std::vector<simt::BlockArgs>& args,
                      std::span<const std::uint64_t> shape_keys, simt::ExecMode mode,
                      std::span<const BlockBuffer> buffers, simt::GlobalMemory& gmem);

/// Device result record transferred back per task (score + compact
/// alignment): what a production integration would copy instead of the
/// full btrack matrix, which stays on the device.
inline constexpr std::size_t kSwResultBytesPerTask = 64;

/// Row bands, ceil(M / BSIZE), and tiles per band, ceil((N + BSIZE - 1) /
/// BSIZE), of an M x N task: the SW and NW kernels' band and tile counts.
std::size_t sw_bands(std::size_t m, int bsize = kSwBsize) noexcept;
std::size_t sw_tiles(std::size_t n, int bsize = kSwBsize) noexcept;

/// Device addresses of one task's results: the SW btrack matrix (or the
/// NW score cell), last column and last row.
struct TaskOutputs {
  std::int64_t out = 0;
  std::int64_t lastcol = 0;
  std::int64_t lastrow = 0;
};

/// Reads one SW task's results back from the device and backtraces on the
/// host: the HaplotypeCaller max search over the last column and the last
/// row, then the btrack matrix copied into the reference layout.
SwTaskOutput read_sw_output(const simt::GlobalMemory& gmem, const workload::SwTask& task,
                            const TaskOutputs& addrs);

/// Copies `bytes` (a sequence) into a fresh allocation; returns its address.
std::int64_t upload(simt::GlobalMemory& gmem, std::string_view bytes);

/// For a binder that lays out every block of a grid (so each executing
/// block keeps the addresses it has with all blocks bound): moves the
/// executing blocks' arguments out of `all`, in `execute` order.
std::vector<simt::BlockArgs> take_executed(std::vector<simt::BlockArgs>& all,
                                           std::span<const std::size_t> execute);

/// Adds a finished batch's arena size to the obs counter
/// `kernels.arena_bytes`: the device memory the batch allocated, zero
/// when no block executed.
void count_arena_bytes(const simt::GlobalMemory& gmem);

}  // namespace wsim::kernels
