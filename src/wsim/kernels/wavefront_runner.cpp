#include <algorithm>
#include <cstring>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "wsim/kernels/wavefront_kernels.hpp"
#include "wsim/simt/engine.hpp"
#include "wsim/util/check.hpp"

namespace wsim::kernels {

namespace {

/// Same device->host result record as the task-per-block runner: score +
/// compact alignment per task; the btrack matrix stays on the device.
constexpr std::size_t kSwResultBytesPerTask = 64;

/// Naive-variant guard: the anti-pattern materializes six full M x N
/// matrices per task, so keep it to measurement-sized tasks.
constexpr std::size_t kNaiveMaxCells = std::size_t{16} * 1024 * 1024;

std::size_t ceil_div(std::size_t a, std::size_t b) noexcept {
  return (a + b - 1) / b;
}

/// Shape key of one wavefront tile. Tile control flow is decided by the
/// scalar geometry arguments alone (rows, live columns, the four boundary
/// flags); the target length is folded in quantized because it strides the
/// btrack row addressing.
std::uint64_t tile_shape_key(std::size_t rows, std::size_t cols_in, bool has_up,
                             bool has_left, bool last_row_tile, bool last_col_tile,
                             std::size_t n, std::size_t granularity) noexcept {
  const std::uint64_t nq = granularity == 0 ? n : ceil_div(n, granularity);
  std::uint64_t key = rows & 0x3FFFU;
  key |= (cols_in & 0x3FU) << 14;
  key |= static_cast<std::uint64_t>(has_up) << 20;
  key |= static_cast<std::uint64_t>(has_left) << 21;
  key |= static_cast<std::uint64_t>(last_row_tile) << 22;
  key |= static_cast<std::uint64_t>(last_col_tile) << 23;
  key |= nq << 24;
  return key;
}

/// Shape key of one naive-diagonal segment block (no loops in the kernel;
/// only the lane-validity pattern and DP-border predicates vary).
std::uint64_t naive_shape_key(std::size_t active, bool has_c0, bool has_r0,
                              bool has_lastc, bool has_lastr, std::size_t n,
                              std::size_t granularity) noexcept {
  const std::uint64_t nq = granularity == 0 ? n : ceil_div(n, granularity);
  std::uint64_t key = active & 0x3FU;
  key |= static_cast<std::uint64_t>(has_c0) << 6;
  key |= static_cast<std::uint64_t>(has_r0) << 7;
  key |= static_cast<std::uint64_t>(has_lastc) << 8;
  key |= static_cast<std::uint64_t>(has_lastr) << 9;
  key |= nq << 10;
  return key;
}

void validate_batch(const workload::SwBatch& batch, const WfRunOptions& options,
                    const char* who) {
  util::require(!batch.empty(), std::string(who) + ": batch must be non-empty");
  util::require(!options.collect_outputs || options.mode == simt::ExecMode::kFull,
                std::string(who) + ": collect_outputs requires ExecMode::kFull");
  for (const workload::SwTask& task : batch) {
    util::require(!task.query.empty() && !task.target.empty(),
                  std::string(who) + ": sequences must be non-empty");
  }
}

/// Aggregates one wave launch into the batch result (the PhRunner
/// multi-launch convention: sums everywhere, occupancy + representative
/// from the biggest launch).
struct LaunchAggregator {
  KernelRunResult* run;
  std::size_t best_blocks = 0;

  void add(const simt::LaunchResult& launch, std::size_t wave_blocks,
           std::uint64_t wave_representative_iterations,
           std::uint64_t* representative_iterations) {
    run->launch.kernel_seconds += launch.kernel_seconds;
    run->launch.h2d_seconds += launch.h2d_seconds;
    run->launch.d2h_seconds += launch.d2h_seconds;
    run->launch.transfer_seconds += launch.transfer_seconds;
    run->launch.overhead_seconds += launch.overhead_seconds;
    run->launch.instructions += launch.instructions;
    run->launch.smem_transactions += launch.smem_transactions;
    run->launch.blocks_executed += launch.blocks_executed;
    run->launch.sdc_flips += launch.sdc_flips;
    run->launch.timing.cycles += launch.timing.cycles;
    run->launch.timing.seconds += launch.timing.seconds;
    if (wave_blocks > best_blocks) {
      best_blocks = wave_blocks;
      run->launch.occupancy = launch.occupancy;
      run->launch.representative = launch.representative;
      *representative_iterations = wave_representative_iterations;
    }
  }
};

/// Per-task device buffers of the tile path. In kCachedByShape they are
/// per-*shape* scratch slabs instead, with the block arguments rebased by
/// the tile's own (row_base, col_base) so every generated address lands
/// inside the slab — identical addressing arithmetic, bounded memory.
struct TileTaskBufs {
  std::int64_t query = 0;
  std::int64_t target = 0;
  std::int64_t out = 0;  // SW: btrack matrix; NW: score cell
  std::int64_t lastcol = 0;
  std::int64_t lastrow = 0;
  std::int64_t rb_h = 0;
  std::int64_t rb_f = 0;
  std::int64_t rb_kv = 0;
  std::int64_t cb_h = 0;
  std::int64_t cb_e = 0;
  std::int64_t cb_lh = 0;
  std::int64_t corner = 0;  // 3 x tile_col_count parity-rotated cells
};

struct TileShapeSlab {
  std::int64_t query = 0;
  std::int64_t target = 0;
  std::int64_t out = 0;
  std::int64_t lastcol = 0;
  std::int64_t lastrow = 0;
  std::int64_t rb_h = 0;
  std::int64_t rb_f = 0;
  std::int64_t rb_kv = 0;
  std::int64_t cb_h = 0;
  std::int64_t cb_e = 0;
  std::int64_t cb_lh = 0;
  std::int64_t corner_rd = 0;
  std::int64_t corner_wr = 0;
};

struct TileRunOutput {
  KernelRunResult run;
  std::size_t launches = 0;
  std::size_t blocks = 0;
  std::uint64_t representative_iterations = 0;
  std::vector<TileTaskBufs> bufs;  // kFull only
};

TileRunOutput run_tile_waves(bool is_sw, const simt::PreparedKernel& kernel,
                             const simt::DeviceSpec& device,
                             const workload::SwBatch& batch, int tile_rows,
                             const WfRunOptions& options, simt::GlobalMemory& gmem) {
  const bool cached = options.mode == simt::ExecMode::kCachedByShape;
  const auto trows = static_cast<std::size_t>(tile_rows);

  std::vector<WfGeometry> geoms(batch.size());
  std::size_t max_waves = 0;
  std::size_t max_n = 0;
  std::size_t h2d_bytes = 0;
  std::size_t cells = 0;
  for (std::size_t t = 0; t < batch.size(); ++t) {
    const std::size_t m = batch[t].query.size();
    const std::size_t n = batch[t].target.size();
    geoms[t] = wf_geometry(m, n, tile_rows);
    max_waves = std::max(max_waves, geoms[t].waves);
    max_n = std::max(max_n, n);
    h2d_bytes += m + n;
    cells += m * n;
  }

  TileRunOutput out;
  out.run.cells = cells;
  out.run.launch.transfers_overlapped = options.overlap_transfers;

  // kFull: real per-task buffers (boundary buffers are shared by all tiles
  // of a task — within one wave the tiles touch disjoint row/column
  // ranges, so concurrent block execution stays write-disjoint), laid out
  // by the first bind: every kFull block executes, so that is wave 0's.
  const auto lay_out_tasks = [&] {
    out.bufs.resize(batch.size());
    for (std::size_t t = 0; t < batch.size(); ++t) {
      const workload::SwTask& task = batch[t];
      const std::size_t m = task.query.size();
      const std::size_t n = task.target.size();
      TileTaskBufs& b = out.bufs[t];
      b.query = gmem.alloc(m);
      b.target = gmem.alloc(n);
      gmem.write_u8(b.query,
                    {reinterpret_cast<const std::uint8_t*>(task.query.data()), m});
      gmem.write_u8(b.target,
                    {reinterpret_cast<const std::uint8_t*>(task.target.data()), n});
      if (is_sw) {
        b.out = gmem.alloc(m * n * 4);
        b.lastcol = gmem.alloc(m * 4);
        b.lastrow = gmem.alloc(n * 4);
      } else {
        b.out = gmem.alloc(4);
      }
      b.rb_h = gmem.alloc(n * 4);
      b.rb_f = gmem.alloc(n * 4);
      b.rb_kv = is_sw ? gmem.alloc(n * 4) : 0;
      b.cb_h = gmem.alloc(m * 4);
      b.cb_e = gmem.alloc(m * 4);
      b.cb_lh = is_sw ? gmem.alloc(m * 4) : 0;
      b.corner = gmem.alloc(3 * geoms[t].tile_col_count * 4);
    }
  };

  // kCachedByShape: one scratch slab per distinct tile shape that
  // executes, allocated by the bind that first executes it. Every access
  // of a slab's block is slab-relative and each slab starts 128-byte
  // aligned, so where a slab lands moves no block's segment offsets.
  std::unordered_map<std::uint64_t, TileShapeSlab> slabs;
  const auto slab_for = [&](std::uint64_t key) -> const TileShapeSlab& {
    const auto it = slabs.find(key);
    if (it != slabs.end()) {
      return it->second;
    }
    TileShapeSlab s;
    s.query = gmem.alloc(trows, 128);
    s.target = gmem.alloc(kSwBsize);
    s.out = gmem.alloc(trows * std::max<std::size_t>(max_n, kSwBsize) * 4);
    s.lastcol = gmem.alloc(trows * 4);
    s.lastrow = gmem.alloc(kSwBsize * 4);
    s.rb_h = gmem.alloc(kSwBsize * 4);
    s.rb_f = gmem.alloc(kSwBsize * 4);
    s.rb_kv = gmem.alloc(kSwBsize * 4);
    s.cb_h = gmem.alloc(trows * 4);
    s.cb_e = gmem.alloc(trows * 4);
    s.cb_lh = gmem.alloc(trows * 4);
    s.corner_rd = gmem.alloc(4);
    s.corner_wr = gmem.alloc(4);
    return slabs.emplace(key, s).first->second;
  };

  struct Tile {
    std::size_t task = 0;
    std::size_t tr = 0;  ///< tile row
    std::size_t tc = 0;  ///< tile column
  };
  const auto tile_args = [&](const Tile& tile, std::uint64_t key) -> simt::BlockArgs {
    const WfGeometry& g = geoms[tile.task];
    const std::size_t m = batch[tile.task].query.size();
    const std::size_t n = batch[tile.task].target.size();
    const std::size_t row_base = tile.tr * trows;
    const std::size_t col_base = tile.tc * kSwBsize;
    const std::size_t rows = std::min(trows, m - row_base);
    const bool has_up = tile.tr > 0;
    const bool has_left = tile.tc > 0;

    std::int64_t a_query = 0;
    std::int64_t a_target = 0;
    std::int64_t a_out = 0;
    std::int64_t a_lastcol = 0;
    std::int64_t a_lastrow = 0;
    std::int64_t a_rb_h = 0;
    std::int64_t a_rb_f = 0;
    std::int64_t a_rb_kv = 0;
    std::int64_t a_cb_h = 0;
    std::int64_t a_cb_e = 0;
    std::int64_t a_cb_lh = 0;
    std::int64_t a_corner_rd = 0;
    std::int64_t a_corner_wr = 0;
    if (cached) {
      // Rebase every buffer argument by this tile's own position: the
      // kernel indexes with global (r, c), so subtracting the base puts
      // all of this tile's accesses inside the shared slab.
      const TileShapeSlab& s = slab_for(key);
      const auto rb = static_cast<std::int64_t>(row_base);
      const auto cb = static_cast<std::int64_t>(col_base);
      const auto nn = static_cast<std::int64_t>(n);
      a_query = s.query - rb;
      a_target = s.target - cb;
      a_out = is_sw ? s.out - (rb * nn + cb) * 4 : s.out;
      a_lastcol = s.lastcol - rb * 4;
      a_lastrow = s.lastrow - cb * 4;
      a_rb_h = s.rb_h - cb * 4;
      a_rb_f = s.rb_f - cb * 4;
      a_rb_kv = s.rb_kv - cb * 4;
      a_cb_h = s.cb_h - rb * 4;
      a_cb_e = s.cb_e - rb * 4;
      a_cb_lh = s.cb_lh - rb * 4;
      a_corner_rd = s.corner_rd;
      a_corner_wr = s.corner_wr;
    } else {
      const TileTaskBufs& b = out.bufs[tile.task];
      a_query = b.query;
      a_target = b.target;
      a_out = b.out;
      a_lastcol = b.lastcol;
      a_lastrow = b.lastrow;
      a_rb_h = b.rb_h;
      a_rb_f = b.rb_f;
      a_rb_kv = b.rb_kv;
      a_cb_h = b.cb_h;
      a_cb_e = b.cb_e;
      a_cb_lh = b.cb_lh;
      // 3-slot parity rotation: the corner this tile reads was written by
      // (tr-1, tc-1) two waves ago into slot (tr-1) mod 3; the tile
      // publishes its own into slot tr mod 3 for (tr+1, tc+1). Three slots
      // keep the intervening wave's writer off the slot still being read.
      const std::size_t tcc = g.tile_col_count;
      a_corner_rd =
          has_up && has_left
              ? b.corner + static_cast<std::int64_t>(
                               (((tile.tr + 2) % 3) * tcc + (tile.tc - 1)) * 4)
              : b.corner;
      a_corner_wr =
          b.corner + static_cast<std::int64_t>(((tile.tr % 3) * tcc + tile.tc) * 4);
    }
    return {
        static_cast<std::uint64_t>(a_query),
        static_cast<std::uint64_t>(a_target),
        static_cast<std::uint64_t>(m),
        static_cast<std::uint64_t>(n),
        static_cast<std::uint64_t>(a_out),
        static_cast<std::uint64_t>(a_rb_h),
        static_cast<std::uint64_t>(a_rb_f),
        static_cast<std::uint64_t>(a_rb_kv),
        static_cast<std::uint64_t>(a_cb_h),
        static_cast<std::uint64_t>(a_cb_e),
        static_cast<std::uint64_t>(a_cb_lh),
        static_cast<std::uint64_t>(a_corner_rd),
        static_cast<std::uint64_t>(a_corner_wr),
        static_cast<std::uint64_t>(a_lastcol),
        static_cast<std::uint64_t>(a_lastrow),
        static_cast<std::uint64_t>(row_base),
        static_cast<std::uint64_t>(col_base),
        static_cast<std::uint64_t>(rows),
        static_cast<std::uint64_t>(rows + (kSwBsize - 1)),
        static_cast<std::uint64_t>(has_up ? 1 : 0),
        static_cast<std::uint64_t>(has_left ? 1 : 0),
    };
  };

  simt::ExecutionEngine& engine =
      options.engine != nullptr ? *options.engine : simt::shared_engine();
  LaunchAggregator agg{&out.run};
  std::vector<Tile> tiles;
  std::vector<std::uint64_t> keys;

  for (std::size_t w = 0; w < max_waves; ++w) {
    tiles.clear();
    keys.clear();
    std::uint64_t wave_rep_iterations = 0;
    for (std::size_t t = 0; t < batch.size(); ++t) {
      const WfGeometry& g = geoms[t];
      if (w >= g.waves) {
        continue;
      }
      const std::size_t m = batch[t].query.size();
      const std::size_t n = batch[t].target.size();
      const std::size_t tr_lo =
          w >= g.tile_col_count ? w - (g.tile_col_count - 1) : 0;
      const std::size_t tr_hi = std::min(g.tile_row_count - 1, w);
      for (std::size_t tr = tr_lo; tr <= tr_hi; ++tr) {
        const std::size_t tc = w - tr;
        const std::size_t rows = std::min(trows, m - tr * trows);
        const std::size_t cols_in = std::min<std::size_t>(kSwBsize, n - tc * kSwBsize);
        if (wave_rep_iterations == 0) {
          wave_rep_iterations = rows + (kSwBsize - 1);
        }
        tiles.push_back({t, tr, tc});
        keys.push_back(tile_shape_key(rows, cols_in, tr > 0, tc > 0,
                                      tr + 1 == g.tile_row_count,
                                      tc + 1 == g.tile_col_count, n,
                                      options.shape_granularity));
      }
    }

    const auto bind = [&](std::span<const std::size_t> execute, simt::GlobalMemory&) {
      if (!cached && out.bufs.empty()) {
        lay_out_tasks();
      }
      std::vector<simt::BlockArgs> args;
      args.reserve(execute.size());
      for (const std::size_t i : execute) {
        args.push_back(tile_args(tiles[i], keys[i]));
      }
      return args;
    };

    simt::LaunchOptions launch_options;
    launch_options.mode = options.mode;
    launch_options.overlap_transfers = options.overlap_transfers;
    if (w == 0) {
      launch_options.transfer.h2d_bytes = h2d_bytes;
    }
    if (w + 1 == max_waves) {
      launch_options.transfer.d2h_bytes =
          batch.size() * (is_sw ? kSwResultBytesPerTask : std::size_t{4});
    }
    launch_options.sdc = options.sdc;
    // Every wave is its own sub-launch in SDC stream derivation, so block
    // ids repeat across waves without reusing flip streams.
    launch_options.sdc_launch_id =
        simt::sdc_sub_launch(options.sdc_launch_id, static_cast<std::uint64_t>(w));
    launch_options.max_block_cycles = options.max_block_cycles;
    launch_options.interp = options.interp;

    const simt::LaunchResult launch =
        engine.launch(kernel, device, gmem, keys, bind, launch_options);
    out.launches += 1;
    out.blocks += keys.size();
    agg.add(launch, keys.size(), wave_rep_iterations,
            &out.representative_iterations);
  }
  return out;
}

/// Naive path buffers: full M x N DP-state matrices per task, in both exec
/// modes (the whole point of the anti-pattern is that all state lives in
/// global memory; segments of one diagonal write disjoint rows, so sharing
/// them across a launch's blocks is safe).
struct NaiveTaskBufs {
  std::int64_t query = 0;
  std::int64_t target = 0;
  std::int64_t h = 0;
  std::int64_t e = 0;
  std::int64_t f = 0;
  std::int64_t kv = 0;
  std::int64_t lh = 0;
  std::int64_t out = 0;
  std::int64_t lastcol = 0;
  std::int64_t lastrow = 0;
};

TileRunOutput run_naive_diagonals(bool is_sw, const simt::PreparedKernel& kernel,
                                  const simt::DeviceSpec& device,
                                  const workload::SwBatch& batch,
                                  const WfRunOptions& options,
                                  simt::GlobalMemory& gmem,
                                  std::vector<NaiveTaskBufs>* bufs_out) {
  std::size_t max_diags = 0;
  std::size_t h2d_bytes = 0;
  std::size_t cells = 0;
  for (const workload::SwTask& task : batch) {
    const std::size_t m = task.query.size();
    const std::size_t n = task.target.size();
    util::require(m * n <= kNaiveMaxCells,
                  "wf-naive: task exceeds the naive-variant cell cap (the "
                  "anti-pattern keeps six full matrices per task)");
    max_diags = std::max(max_diags, m + n - 1);
    h2d_bytes += m + n;
    cells += m * n;
  }

  // Every task's matrices, laid out by the first launch that executes a
  // segment (in kFull that is diagonal 0's).
  std::vector<NaiveTaskBufs> bufs;
  const auto lay_out_tasks = [&] {
    bufs.resize(batch.size());
    for (std::size_t t = 0; t < batch.size(); ++t) {
      const workload::SwTask& task = batch[t];
      const std::size_t m = task.query.size();
      const std::size_t n = task.target.size();
      NaiveTaskBufs& b = bufs[t];
      b.query = gmem.alloc(m);
      b.target = gmem.alloc(n);
      gmem.write_u8(b.query,
                    {reinterpret_cast<const std::uint8_t*>(task.query.data()), m});
      gmem.write_u8(b.target,
                    {reinterpret_cast<const std::uint8_t*>(task.target.data()), n});
      b.h = gmem.alloc(m * n * 4);
      b.e = gmem.alloc(m * n * 4);
      b.f = gmem.alloc(m * n * 4);
      if (is_sw) {
        b.kv = gmem.alloc(m * n * 4);
        b.lh = gmem.alloc(m * n * 4);
        b.out = gmem.alloc(m * n * 4);
        b.lastcol = gmem.alloc(m * 4);
        b.lastrow = gmem.alloc(n * 4);
      } else {
        b.out = gmem.alloc(4);
      }
    }
  };

  TileRunOutput out;
  out.run.cells = cells;
  out.run.launch.transfers_overlapped = options.overlap_transfers;
  out.representative_iterations = 1;  // one anti-diagonal step per launch

  simt::ExecutionEngine& engine =
      options.engine != nullptr ? *options.engine : simt::shared_engine();
  LaunchAggregator agg{&out.run};
  struct Segment {
    std::size_t task = 0;
    std::size_t seg = 0;  ///< first row of the 32-row segment
  };
  std::vector<Segment> segments;
  std::vector<std::uint64_t> keys;

  for (std::size_t d = 0; d < max_diags; ++d) {
    segments.clear();
    keys.clear();
    for (std::size_t t = 0; t < batch.size(); ++t) {
      const workload::SwTask& task = batch[t];
      const std::size_t m = task.query.size();
      const std::size_t n = task.target.size();
      if (d >= m + n - 1) {
        continue;
      }
      const std::size_t r_lo = d >= n ? d - n + 1 : 0;
      const std::size_t r_hi = std::min(m - 1, d);
      for (std::size_t seg = (r_lo / kSwBsize) * kSwBsize; seg <= r_hi;
           seg += kSwBsize) {
        const std::size_t lane_lo = std::max(seg, r_lo);
        const std::size_t lane_hi = std::min(seg + kSwBsize - 1, r_hi);
        const std::size_t active = lane_hi - lane_lo + 1;
        const bool has_c0 = d >= lane_lo && d <= lane_hi;  // c == 0 at r == d
        const bool has_r0 = lane_lo == 0;
        const bool has_lastc = d - lane_lo >= n - 1 && d - lane_hi <= n - 1;
        const bool has_lastr = lane_hi == m - 1;
        segments.push_back({t, seg});
        keys.push_back(naive_shape_key(active, has_c0, has_r0, has_lastc, has_lastr,
                                       n, options.shape_granularity));
      }
    }

    const auto bind = [&](std::span<const std::size_t> execute, simt::GlobalMemory&) {
      if (bufs.empty()) {
        lay_out_tasks();
      }
      std::vector<simt::BlockArgs> args;
      args.reserve(execute.size());
      for (const std::size_t i : execute) {
        const Segment& segment = segments[i];
        const NaiveTaskBufs& b = bufs[segment.task];
        args.push_back({
            static_cast<std::uint64_t>(b.query),
            static_cast<std::uint64_t>(b.target),
            static_cast<std::uint64_t>(batch[segment.task].query.size()),
            static_cast<std::uint64_t>(batch[segment.task].target.size()),
            static_cast<std::uint64_t>(b.h),
            static_cast<std::uint64_t>(b.e),
            static_cast<std::uint64_t>(b.f),
            static_cast<std::uint64_t>(b.kv),
            static_cast<std::uint64_t>(b.lh),
            static_cast<std::uint64_t>(b.out),
            static_cast<std::uint64_t>(b.lastcol),
            static_cast<std::uint64_t>(b.lastrow),
            static_cast<std::uint64_t>(d),
            static_cast<std::uint64_t>(segment.seg),
        });
      }
      return args;
    };

    simt::LaunchOptions launch_options;
    launch_options.mode = options.mode;
    launch_options.overlap_transfers = options.overlap_transfers;
    if (d == 0) {
      launch_options.transfer.h2d_bytes = h2d_bytes;
    }
    if (d + 1 == max_diags) {
      launch_options.transfer.d2h_bytes =
          batch.size() * (is_sw ? kSwResultBytesPerTask : std::size_t{4});
    }
    launch_options.sdc = options.sdc;
    launch_options.sdc_launch_id =
        simt::sdc_sub_launch(options.sdc_launch_id, static_cast<std::uint64_t>(d));
    launch_options.max_block_cycles = options.max_block_cycles;
    launch_options.interp = options.interp;

    const simt::LaunchResult launch =
        engine.launch(kernel, device, gmem, keys, bind, launch_options);
    out.launches += 1;
    out.blocks += keys.size();
    agg.add(launch, keys.size(), 1, &out.representative_iterations);
  }
  if (bufs_out != nullptr) {
    *bufs_out = std::move(bufs);
  }
  return out;
}

SwTaskOutput collect_sw_output(simt::GlobalMemory& gmem, const workload::SwTask& task,
                               std::int64_t btrack_addr, std::int64_t lastcol_addr,
                               std::int64_t lastrow_addr) {
  const std::size_t m = task.query.size();
  const std::size_t n = task.target.size();
  SwTaskOutput out;
  // HaplotypeCaller max search: last column top-to-bottom, then last row
  // left-to-right, strictly greater wins — as in the reference.
  const auto lastcol = gmem.read_i32(lastcol_addr, m);
  const auto lastrow = gmem.read_i32(lastrow_addr, n);
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
  const auto device_btrack = gmem.read_i32(btrack_addr, m * n);
  out.btrack = align::Matrix<std::int32_t>(m + 1, n + 1, align::kBtrackStop);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      out.btrack(i + 1, j + 1) = device_btrack[i * n + j];
    }
  }
  out.alignment =
      align::sw_backtrace(out.btrack, out.best_i, out.best_j, out.best_score);
  return out;
}

}  // namespace

WfGeometry wf_geometry(std::size_t m, std::size_t n, int tile_rows) noexcept {
  WfGeometry g;
  g.tile_rows = static_cast<std::size_t>(tile_rows);
  g.tile_row_count = ceil_div(m, g.tile_rows);
  g.tile_col_count = ceil_div(n, static_cast<std::size_t>(kSwBsize));
  g.tiles = g.tile_row_count * g.tile_col_count;
  g.waves = g.tile_row_count + g.tile_col_count - 1;
  return g;
}

std::size_t wf_iterations(std::size_t m, std::size_t n, int tile_rows) noexcept {
  const WfGeometry g = wf_geometry(m, n, tile_rows);
  // Each tile runs rows_in_tile + 31 steps; full tile rows dominate, the
  // last tile row may be short.
  const std::size_t full_rows = m / g.tile_rows;
  const std::size_t tail = m % g.tile_rows;
  std::size_t per_col = full_rows * (g.tile_rows + kSwBsize - 1);
  if (tail != 0) {
    per_col += tail + kSwBsize - 1;
  }
  return per_col * g.tile_col_count;
}

WavefrontSwRunner::WavefrontSwRunner(WfVariant variant, const align::SwParams& params,
                                     int tile_rows)
    : variant_(variant),
      params_(params),
      tile_rows_(tile_rows),
      kernel_(build_wf_sw_kernel(variant, params)) {
  util::require(tile_rows >= 1, "WavefrontSwRunner: tile_rows must be >= 1");
}

WfSwBatchResult WavefrontSwRunner::run_batch(const simt::DeviceSpec& device,
                                             const workload::SwBatch& batch,
                                             const WfRunOptions& options) const {
  validate_batch(batch, options, "WavefrontSwRunner");
  simt::GlobalMemory gmem;
  WfSwBatchResult result;
  if (variant_ == WfVariant::kHostSyncNaive) {
    std::vector<NaiveTaskBufs> bufs;
    TileRunOutput out = run_naive_diagonals(/*is_sw=*/true, kernel_, device, batch,
                                            options, gmem, &bufs);
    count_arena_bytes(gmem);
    result.run = out.run;
    result.launches = out.launches;
    result.blocks = out.blocks;
    result.representative_iterations = out.representative_iterations;
    if (options.collect_outputs) {
      result.outputs.reserve(batch.size());
      for (std::size_t t = 0; t < batch.size(); ++t) {
        result.outputs.push_back(collect_sw_output(
            gmem, batch[t], bufs[t].out, bufs[t].lastcol, bufs[t].lastrow));
      }
    }
    return result;
  }

  TileRunOutput out = run_tile_waves(/*is_sw=*/true, kernel_, device, batch,
                                     tile_rows_, options, gmem);
  count_arena_bytes(gmem);
  result.run = out.run;
  result.launches = out.launches;
  result.blocks = out.blocks;
  result.representative_iterations = out.representative_iterations;
  if (options.collect_outputs) {
    result.outputs.reserve(batch.size());
    for (std::size_t t = 0; t < batch.size(); ++t) {
      result.outputs.push_back(collect_sw_output(gmem, batch[t], out.bufs[t].out,
                                                 out.bufs[t].lastcol,
                                                 out.bufs[t].lastrow));
    }
  }
  return result;
}

WavefrontNwRunner::WavefrontNwRunner(WfVariant variant, const align::SwParams& params,
                                     int tile_rows)
    : variant_(variant),
      params_(params),
      tile_rows_(tile_rows),
      kernel_(build_wf_nw_kernel(variant, params)) {
  util::require(tile_rows >= 1, "WavefrontNwRunner: tile_rows must be >= 1");
}

WfNwBatchResult WavefrontNwRunner::run_batch(const simt::DeviceSpec& device,
                                             const workload::SwBatch& batch,
                                             const WfRunOptions& options) const {
  validate_batch(batch, options, "WavefrontNwRunner");
  simt::GlobalMemory gmem;
  WfNwBatchResult result;
  if (variant_ == WfVariant::kHostSyncNaive) {
    std::vector<NaiveTaskBufs> bufs;
    TileRunOutput out = run_naive_diagonals(/*is_sw=*/false, kernel_, device, batch,
                                            options, gmem, &bufs);
    count_arena_bytes(gmem);
    result.run = out.run;
    result.launches = out.launches;
    result.blocks = out.blocks;
    result.representative_iterations = out.representative_iterations;
    if (options.collect_outputs) {
      result.scores.reserve(batch.size());
      for (std::size_t t = 0; t < batch.size(); ++t) {
        result.scores.push_back(gmem.read_i32(bufs[t].out, 1)[0]);
      }
    }
    return result;
  }

  TileRunOutput out = run_tile_waves(/*is_sw=*/false, kernel_, device, batch,
                                     tile_rows_, options, gmem);
  count_arena_bytes(gmem);
  result.run = out.run;
  result.launches = out.launches;
  result.blocks = out.blocks;
  result.representative_iterations = out.representative_iterations;
  if (options.collect_outputs) {
    result.scores.reserve(batch.size());
    for (std::size_t t = 0; t < batch.size(); ++t) {
      result.scores.push_back(gmem.read_i32(out.bufs[t].out, 1)[0]);
    }
  }
  return result;
}

const std::vector<std::string>& sw_kernel_names() {
  static const std::vector<std::string> names = {"shared", "shuffle", "wf-shared",
                                                 "wf-shuffle", "wf-naive"};
  return names;
}

SwKernelChoice sw_kernel_by_name(std::string_view name) {
  SwKernelChoice choice;
  if (name == "shared") {
    choice.intra = false;
    choice.inter_mode = CommMode::kSharedMemory;
    return choice;
  }
  if (name == "shuffle") {
    choice.intra = false;
    choice.inter_mode = CommMode::kShuffle;
    return choice;
  }
  if (name == "wf-shared") {
    choice.intra = true;
    choice.wf_variant = WfVariant::kSharedMemory;
    return choice;
  }
  if (name == "wf-shuffle") {
    choice.intra = true;
    choice.wf_variant = WfVariant::kShuffle;
    return choice;
  }
  if (name == "wf-naive") {
    choice.intra = true;
    choice.wf_variant = WfVariant::kHostSyncNaive;
    return choice;
  }
  std::string valid;
  for (const std::string& n : sw_kernel_names()) {
    if (!valid.empty()) {
      valid += ", ";
    }
    valid += n;
  }
  throw util::CheckError("unknown SW kernel '" + std::string(name) +
                         "' (valid kernels: " + valid + ")");
}

std::string sw_kernel_name(const SwKernelChoice& choice) {
  if (choice.intra) {
    return std::string(to_string(choice.wf_variant));
  }
  return choice.inter_mode == CommMode::kSharedMemory ? "shared" : "shuffle";
}

}  // namespace wsim::kernels
