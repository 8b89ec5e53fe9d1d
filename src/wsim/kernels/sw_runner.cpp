#include <algorithm>
#include <cstring>
#include <span>
#include <unordered_set>

#include "wsim/kernels/sw_kernels.hpp"
#include "wsim/simt/engine.hpp"
#include "wsim/util/check.hpp"

namespace wsim::kernels {

namespace {

/// Device result record transferred back per task (score + compact
/// alignment): what a production integration would copy instead of the
/// full btrack matrix, which stays on the device.
constexpr std::size_t kSwResultBytesPerTask = 64;

std::size_t bands_for(std::size_t m, int bsize) noexcept {
  const auto b = static_cast<std::size_t>(bsize);
  return (m + b - 1) / b;
}

std::size_t tiles_for(std::size_t n, int bsize) noexcept {
  const auto b = static_cast<std::size_t>(bsize);
  return (n + 2 * (b - 1)) / b;  // ceil((N + BSIZE - 1) / BSIZE)
}

}  // namespace

std::size_t sw_iterations(std::size_t m, std::size_t n, int bsize) noexcept {
  return bands_for(m, bsize) * tiles_for(n, bsize) * static_cast<std::size_t>(bsize);
}

SwRunner::SwRunner(CommMode mode, const align::SwParams& params, int bsize)
    : mode_(mode),
      params_(params),
      bsize_(bsize),
      kernel_(build_sw_kernel(mode, params, bsize)) {}

SwBatchResult SwRunner::run_batch(const simt::DeviceSpec& device,
                                  const workload::SwBatch& batch,
                                  const SwRunOptions& options) const {
  util::require(!batch.empty(), "SwRunner: batch must be non-empty");
  util::require(!options.collect_outputs || options.mode == simt::ExecMode::kFull,
                "SwRunner: collect_outputs requires ExecMode::kFull");
  std::size_t max_m = 0;
  std::size_t max_n = 0;
  std::size_t h2d_bytes = 0;
  std::size_t cells = 0;
  std::vector<std::uint64_t> shape_keys(batch.size());
  for (std::size_t t = 0; t < batch.size(); ++t) {
    const workload::SwTask& task = batch[t];
    util::require(!task.query.empty() && !task.target.empty(),
                  "SwRunner: sequences must be non-empty");
    const std::size_t m = task.query.size();
    const std::size_t n = task.target.size();
    max_m = std::max(max_m, m);
    max_n = std::max(max_n, n);
    cells += m * n;
    h2d_bytes += m + n;
    shape_keys[t] = shape_key(m, n, options.shape_granularity);
  }

  struct TaskBuffers {
    std::int64_t btrack = 0;
    std::int64_t lastcol = 0;
    std::int64_t lastrow = 0;
  };
  std::vector<TaskBuffers> buffers(batch.size());
  const bool cached_mode = options.mode == simt::ExecMode::kCachedByShape;

  // Lays out the whole batch — every task, whether or not its block
  // executes — so each executing block gets the addresses it has with
  // every block bound.
  const auto bind = [&](std::span<const std::size_t> execute, simt::GlobalMemory& gmem) {
    // Band-boundary carry buffers are block-internal temporaries. Blocks
    // may execute concurrently on the engine's workers, so every block
    // that can execute gets its own set: the first task (or first distinct
    // shape) uses this head set, the rest get replicas allocated at the
    // arena tail below — after the per-task buffers, so all seed addresses
    // are preserved.
    const auto bound_h = gmem.alloc(max_n * 4);
    const auto bound_f = gmem.alloc(max_n * 4);
    const auto bound_kv = gmem.alloc(max_n * 4);

    std::int64_t scratch_btrack = 0;
    std::int64_t scratch_lastcol = 0;
    std::int64_t scratch_lastrow = 0;
    if (!options.collect_outputs) {
      scratch_btrack = gmem.alloc(max_m * max_n * 4);
      scratch_lastcol = gmem.alloc(max_m * 4);
      scratch_lastrow = gmem.alloc(max_n * 4);
    }

    std::vector<simt::BlockArgs> args(batch.size());
    for (std::size_t t = 0; t < batch.size(); ++t) {
      const workload::SwTask& task = batch[t];
      const std::size_t m = task.query.size();
      const std::size_t n = task.target.size();
      const auto query = gmem.alloc(m);
      const auto target = gmem.alloc(n);
      gmem.write_u8(query, {reinterpret_cast<const std::uint8_t*>(task.query.data()), m});
      gmem.write_u8(target,
                    {reinterpret_cast<const std::uint8_t*>(task.target.data()), n});

      TaskBuffers& buf = buffers[t];
      if (options.collect_outputs) {
        buf.btrack = gmem.alloc(m * n * 4);
        buf.lastcol = gmem.alloc(m * 4);
        buf.lastrow = gmem.alloc(n * 4);
      } else {
        buf.btrack = scratch_btrack;
        buf.lastcol = scratch_lastcol;
        buf.lastrow = scratch_lastrow;
      }
      args[t] = {
          static_cast<std::uint64_t>(query),
          static_cast<std::uint64_t>(target),
          static_cast<std::uint64_t>(m),
          static_cast<std::uint64_t>(n),
          static_cast<std::uint64_t>(buf.btrack),
          static_cast<std::uint64_t>(bound_h),
          static_cast<std::uint64_t>(bound_f),
          static_cast<std::uint64_t>(bound_kv),
          static_cast<std::uint64_t>(buf.lastcol),
          static_cast<std::uint64_t>(buf.lastrow),
          static_cast<std::uint64_t>(bands_for(m, bsize_)),
          static_cast<std::uint64_t>(tiles_for(n, bsize_)),
      };
    }

    // Tail carry/scratch replicas for every potential executor beyond the
    // first: per task in kFull mode, per distinct shape in kCachedByShape
    // (the engine executes at most one block per shape). Each replica
    // starts 128-byte aligned and mirrors the head layout, so a block's
    // global-memory segment geometry — and therefore its cycle count — is
    // identical to sequential execution with the shared head set.
    std::unordered_set<std::uint64_t> shapes_seen;
    bool head_taken = false;
    for (std::size_t t = 0; t < batch.size(); ++t) {
      if (cached_mode && !shapes_seen.insert(shape_keys[t]).second) {
        continue;  // never executed: the shape's first block is its executor
      }
      if (!head_taken) {
        head_taken = true;
        continue;
      }
      args[t][5] = static_cast<std::uint64_t>(gmem.alloc(max_n * 4, 128));
      args[t][6] = static_cast<std::uint64_t>(gmem.alloc(max_n * 4));
      args[t][7] = static_cast<std::uint64_t>(gmem.alloc(max_n * 4));
      if (!options.collect_outputs) {
        args[t][4] = static_cast<std::uint64_t>(gmem.alloc(max_m * max_n * 4));
        args[t][8] = static_cast<std::uint64_t>(gmem.alloc(max_m * 4));
        args[t][9] = static_cast<std::uint64_t>(gmem.alloc(max_n * 4));
      }
    }
    return take_executed(args, execute);
  };

  simt::LaunchOptions launch_options;
  launch_options.mode = options.mode;
  launch_options.overlap_transfers = options.overlap_transfers;
  launch_options.trace_representative = options.trace_representative;
  launch_options.transfer.h2d_bytes = h2d_bytes;
  launch_options.transfer.d2h_bytes = batch.size() * kSwResultBytesPerTask;
  launch_options.sdc = options.sdc;
  launch_options.sdc_launch_id = options.sdc_launch_id;
  launch_options.max_block_cycles = options.max_block_cycles;
  launch_options.interp = options.interp;

  simt::ExecutionEngine& engine =
      options.engine != nullptr ? *options.engine : simt::shared_engine();
  simt::GlobalMemory gmem;
  SwBatchResult result;
  result.run.launch =
      engine.launch(kernel_, device, gmem, shape_keys, bind, launch_options);
  result.run.cells = cells;
  count_arena_bytes(gmem);

  if (options.collect_outputs) {
    result.outputs.reserve(batch.size());
    for (std::size_t t = 0; t < batch.size(); ++t) {
      const workload::SwTask& task = batch[t];
      const std::size_t m = task.query.size();
      const std::size_t n = task.target.size();
      const TaskBuffers& buf = buffers[t];

      SwTaskOutput out;
      // HaplotypeCaller max search: last column (top to bottom) then last
      // row (left to right), strictly greater wins — as in the reference.
      const auto lastcol = gmem.read_i32(buf.lastcol, m);
      const auto lastrow = gmem.read_i32(buf.lastrow, n);
      out.best_score = 0;
      out.best_i = m;
      out.best_j = n;
      for (std::size_t i = 1; i <= m; ++i) {
        if (lastcol[i - 1] > out.best_score) {
          out.best_score = lastcol[i - 1];
          out.best_i = i;
          out.best_j = n;
        }
      }
      for (std::size_t j = 1; j <= n; ++j) {
        if (lastrow[j - 1] > out.best_score) {
          out.best_score = lastrow[j - 1];
          out.best_i = m;
          out.best_j = j;
        }
      }

      const auto device_btrack = gmem.read_i32(buf.btrack, m * n);
      out.btrack = align::Matrix<std::int32_t>(m + 1, n + 1, align::kBtrackStop);
      for (std::size_t i = 0; i < m; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
          out.btrack(i + 1, j + 1) = device_btrack[i * n + j];
        }
      }
      out.alignment =
          align::sw_backtrace(out.btrack, out.best_i, out.best_j, out.best_score);
      result.outputs.push_back(std::move(out));
    }
  }
  return result;
}

}  // namespace wsim::kernels
