#include <algorithm>
#include <span>
#include <string>

#include "wsim/kernels/launch.hpp"
#include "wsim/kernels/sw_kernels.hpp"
#include "wsim/util/check.hpp"

namespace wsim::kernels {

std::size_t sw_bands(std::size_t m, int bsize) noexcept {
  const auto b = static_cast<std::size_t>(bsize);
  return (m + b - 1) / b;
}

std::size_t sw_tiles(std::size_t n, int bsize) noexcept {
  const auto b = static_cast<std::size_t>(bsize);
  return (n + 2 * (b - 1)) / b;  // ceil((N + BSIZE - 1) / BSIZE)
}

std::size_t sw_iterations(std::size_t m, std::size_t n, int bsize) noexcept {
  return sw_bands(m, bsize) * sw_tiles(n, bsize) * static_cast<std::size_t>(bsize);
}

SwRunner::SwRunner(CommMode mode, const align::SwParams& params, int bsize)
    : mode_(mode),
      params_(params),
      bsize_(bsize),
      kernel_(build_sw_kernel(mode, params, bsize)) {}

SwBatchExtent check_sw_batch(std::string_view runner, const workload::SwBatch& batch,
                             const RunOptions& options) {
  check_batch(runner, batch.size(), options);
  SwBatchExtent extent;
  for (const workload::SwTask& task : batch) {
    const std::size_t m = task.query.size();
    const std::size_t n = task.target.size();
    if (m == 0 || n == 0) [[unlikely]] {
      util::require(false, std::string(runner) + ": sequences must be non-empty");
    }
    extent.max_m = std::max(extent.max_m, m);
    extent.max_n = std::max(extent.max_n, n);
    extent.cells += m * n;
    extent.h2d_bytes += m + n;
  }
  return extent;
}

SwTaskOutput read_sw_output(const simt::GlobalMemory& gmem, const workload::SwTask& task,
                            const TaskOutputs& addrs) {
  const std::size_t m = task.query.size();
  const std::size_t n = task.target.size();
  SwTaskOutput out;
  // Last column top to bottom, then last row left to right; strictly
  // greater wins, as in the reference.
  const auto col = gmem.read_i32(addrs.lastcol, m);
  const auto row = gmem.read_i32(addrs.lastrow, n);
  out.best_score = 0;
  out.best_i = m;
  out.best_j = n;
  for (std::size_t i = 1; i <= m; ++i) {
    if (col[i - 1] > out.best_score) {
      out.best_score = col[i - 1];
      out.best_i = i;
      out.best_j = n;
    }
  }
  for (std::size_t j = 1; j <= n; ++j) {
    if (row[j - 1] > out.best_score) {
      out.best_score = row[j - 1];
      out.best_i = m;
      out.best_j = j;
    }
  }
  const auto device_btrack = gmem.read_i32(addrs.out, m * n);
  out.btrack = align::Matrix<std::int32_t>(m + 1, n + 1, align::kBtrackStop);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      out.btrack(i + 1, j + 1) = device_btrack[i * n + j];
    }
  }
  out.alignment = align::sw_backtrace(out.btrack, out.best_i, out.best_j, out.best_score);
  return out;
}

SwBatchResult SwRunner::run_batch(const simt::DeviceSpec& device,
                                  const workload::SwBatch& batch,
                                  const SwRunOptions& options) const {
  const auto [max_m, max_n, cells, h2d_bytes] =
      check_sw_batch("SwRunner", batch, options);
  std::vector<std::uint64_t> shape_keys(batch.size());
  for (std::size_t t = 0; t < batch.size(); ++t) {
    shape_keys[t] = shape_key(batch[t].query.size(), batch[t].target.size(),
                              SwRunOptions::shape_granularity);
  }

  std::vector<TaskOutputs> outputs(batch.size());

  // Lays out the whole batch — every task, whether or not its block
  // executes — so each executing block gets the addresses it has with
  // every block bound.
  const auto bind = [&](std::span<const std::size_t> execute, simt::GlobalMemory& gmem) {
    // Band-boundary carry buffers (and, without outputs, the scratch
    // results) are block-internal: this head set, then per-executor
    // replicas after the per-task buffers, so all seed addresses hold.
    const auto bound_h = gmem.alloc(max_n * 4);
    const auto bound_f = gmem.alloc(max_n * 4);
    const auto bound_kv = gmem.alloc(max_n * 4);

    TaskOutputs scratch;  // every task's results when none are read back
    if (!options.collect_outputs) {
      scratch = {gmem.alloc(max_m * max_n * 4), gmem.alloc(max_m * 4),
                 gmem.alloc(max_n * 4)};
    }

    std::vector<simt::BlockArgs> args(batch.size());
    for (std::size_t t = 0; t < batch.size(); ++t) {
      const workload::SwTask& task = batch[t];
      const std::size_t m = task.query.size();
      const std::size_t n = task.target.size();
      const auto query = upload(gmem, task.query);
      const auto target = upload(gmem, task.target);

      TaskOutputs& addrs = outputs[t];
      addrs = options.collect_outputs ? TaskOutputs{gmem.alloc(m * n * 4),
                                                    gmem.alloc(m * 4), gmem.alloc(n * 4)}
                                      : scratch;
      args[t] = {
          static_cast<std::uint64_t>(query),
          static_cast<std::uint64_t>(target),
          static_cast<std::uint64_t>(m),
          static_cast<std::uint64_t>(n),
          static_cast<std::uint64_t>(addrs.out),
          static_cast<std::uint64_t>(bound_h),
          static_cast<std::uint64_t>(bound_f),
          static_cast<std::uint64_t>(bound_kv),
          static_cast<std::uint64_t>(addrs.lastcol),
          static_cast<std::uint64_t>(addrs.lastrow),
          static_cast<std::uint64_t>(sw_bands(m, bsize_)),
          static_cast<std::uint64_t>(sw_tiles(n, bsize_)),
      };
    }
    // The carries, then the scratch results when they are block-private.
    const BlockBuffer block_private[] = {
        {5, max_n * 4},         {6, max_n * 4}, {7, max_n * 4},
        {4, max_m * max_n * 4}, {8, max_m * 4}, {9, max_n * 4}};
    lay_out_replicas(args, shape_keys, options.mode,
                     std::span(block_private).first(options.collect_outputs ? 3 : 6),
                     gmem);
    return take_executed(args, execute);
  };

  simt::GlobalMemory gmem;
  SwBatchResult result;
  result.run.launch = launch_grid(kernel_, device, gmem, shape_keys, bind, options,
                                  {h2d_bytes, batch.size() * kSwResultBytesPerTask},
                                  options.sdc_launch_id, options.trace_representative);
  result.run.cells = cells;
  count_arena_bytes(gmem);

  if (options.collect_outputs) {
    result.outputs.reserve(batch.size());
    for (std::size_t t = 0; t < batch.size(); ++t) {
      result.outputs.push_back(read_sw_output(gmem, batch[t], outputs[t]));
    }
  }
  return result;
}

}  // namespace wsim::kernels
