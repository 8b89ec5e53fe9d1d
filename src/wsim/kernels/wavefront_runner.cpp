#include <algorithm>
#include <span>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "wsim/kernels/launch.hpp"
#include "wsim/kernels/wavefront_kernels.hpp"
#include "wsim/util/check.hpp"

namespace wsim::kernels {

namespace {

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
                             std::size_t n) noexcept {
  const std::uint64_t nq = ceil_div(n, SwRunOptions::shape_granularity);
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
                              bool has_lastc, bool has_lastr, std::size_t n) noexcept {
  const std::uint64_t nq = ceil_div(n, SwRunOptions::shape_granularity);
  std::uint64_t key = active & 0x3FU;
  key |= static_cast<std::uint64_t>(has_c0) << 6;
  key |= static_cast<std::uint64_t>(has_r0) << 7;
  key |= static_cast<std::uint64_t>(has_lastc) << 8;
  key |= static_cast<std::uint64_t>(has_lastr) << 9;
  key |= nq << 10;
  return key;
}

/// What the launches of one wavefront batch leave for the runner: the
/// summed launch record and, in kFull, where each task's results are.
struct WaveRun {
  KernelRunResult run;
  std::size_t launches = 0;
  std::size_t blocks = 0;
  std::uint64_t representative_iterations = 0;
  std::vector<TaskOutputs> outputs;
};

/// Per-task device buffers of the tile path in kFull.
struct TileTaskBufs : TaskOutputs {
  std::int64_t query = 0;
  std::int64_t target = 0;
  std::int64_t rb_h = 0;
  std::int64_t rb_f = 0;
  std::int64_t rb_kv = 0;
  std::int64_t cb_h = 0;
  std::int64_t cb_e = 0;
  std::int64_t cb_lh = 0;
  std::int64_t corner = 0;  // 3 x tile_col_count parity-rotated cells
};

/// One tile's buffer arguments. In kCachedByShape each distinct tile
/// shape that executes gets a scratch slab of this layout instead of the
/// per-task buffers, and a tile's arguments are the slab's addresses
/// rebased by the tile's own (row_base, col_base), so every generated
/// address lands inside the slab: identical addressing arithmetic, bounded
/// memory.
struct TileAddrs {
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

WaveRun run_tile_waves(bool is_sw, const simt::PreparedKernel& kernel,
                       const simt::DeviceSpec& device, const workload::SwBatch& batch,
                       const SwBatchExtent& extent, int tile_rows,
                       const RunOptions& options, simt::GlobalMemory& gmem) {
  const bool cached = options.mode == simt::ExecMode::kCachedByShape;
  const auto trows = static_cast<std::size_t>(tile_rows);

  std::vector<WfGeometry> geoms(batch.size());
  std::size_t max_waves = 0;
  for (std::size_t t = 0; t < batch.size(); ++t) {
    geoms[t] = wf_geometry(batch[t].query.size(), batch[t].target.size(), tile_rows);
    max_waves = std::max(max_waves, geoms[t].waves);
  }

  WaveRun out;
  out.run.cells = extent.cells;

  // kFull: real per-task buffers (boundary buffers are shared by all tiles
  // of a task — within one wave the tiles touch disjoint row/column
  // ranges, so concurrent block execution stays write-disjoint), laid out
  // by the first bind: every kFull block executes, so that is wave 0's.
  std::vector<TileTaskBufs> bufs;
  const auto lay_out_tasks = [&] {
    bufs.resize(batch.size());
    for (std::size_t t = 0; t < batch.size(); ++t) {
      const workload::SwTask& task = batch[t];
      const std::size_t m = task.query.size();
      const std::size_t n = task.target.size();
      TileTaskBufs& b = bufs[t];
      b.query = upload(gmem, task.query);
      b.target = upload(gmem, task.target);
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
  std::unordered_map<std::uint64_t, TileAddrs> slabs;
  const auto slab_for = [&](std::uint64_t key) -> const TileAddrs& {
    const auto it = slabs.find(key);
    if (it != slabs.end()) {
      return it->second;
    }
    TileAddrs s;
    s.query = gmem.alloc(trows, 128);
    s.target = gmem.alloc(kSwBsize);
    s.out = gmem.alloc(trows * std::max<std::size_t>(extent.max_n, kSwBsize) * 4);
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

    TileAddrs a;
    if (cached) {
      // Rebase every buffer argument by this tile's own position: the
      // kernel indexes with global (r, c), so subtracting the base puts
      // all of this tile's accesses inside the shared slab.
      const TileAddrs& s = slab_for(key);
      const auto rb = static_cast<std::int64_t>(row_base);
      const auto cb = static_cast<std::int64_t>(col_base);
      const auto nn = static_cast<std::int64_t>(n);
      a = {s.query - rb,
           s.target - cb,
           is_sw ? s.out - (rb * nn + cb) * 4 : s.out,
           s.lastcol - rb * 4,
           s.lastrow - cb * 4,
           s.rb_h - cb * 4,
           s.rb_f - cb * 4,
           s.rb_kv - cb * 4,
           s.cb_h - rb * 4,
           s.cb_e - rb * 4,
           s.cb_lh - rb * 4,
           s.corner_rd,
           s.corner_wr};
    } else {
      // 3-slot parity rotation: the corner this tile reads was written by
      // (tr-1, tc-1) two waves ago into slot (tr-1) mod 3; the tile
      // publishes its own into slot tr mod 3 for (tr+1, tc+1). Three slots
      // keep the intervening wave's writer off the slot still being read.
      const TileTaskBufs& b = bufs[tile.task];
      const std::size_t tcc = g.tile_col_count;
      const std::int64_t corner_rd =
          has_up && has_left
              ? b.corner + static_cast<std::int64_t>(
                               (((tile.tr + 2) % 3) * tcc + (tile.tc - 1)) * 4)
              : b.corner;
      const std::int64_t corner_wr =
          b.corner + static_cast<std::int64_t>(((tile.tr % 3) * tcc + tile.tc) * 4);
      a = {b.query, b.target, b.out,  b.lastcol, b.lastrow, b.rb_h,    b.rb_f,
           b.rb_kv, b.cb_h,   b.cb_e, b.cb_lh,   corner_rd, corner_wr};
    }
    return {
        static_cast<std::uint64_t>(a.query),
        static_cast<std::uint64_t>(a.target),
        static_cast<std::uint64_t>(m),
        static_cast<std::uint64_t>(n),
        static_cast<std::uint64_t>(a.out),
        static_cast<std::uint64_t>(a.rb_h),
        static_cast<std::uint64_t>(a.rb_f),
        static_cast<std::uint64_t>(a.rb_kv),
        static_cast<std::uint64_t>(a.cb_h),
        static_cast<std::uint64_t>(a.cb_e),
        static_cast<std::uint64_t>(a.cb_lh),
        static_cast<std::uint64_t>(a.corner_rd),
        static_cast<std::uint64_t>(a.corner_wr),
        static_cast<std::uint64_t>(a.lastcol),
        static_cast<std::uint64_t>(a.lastrow),
        static_cast<std::uint64_t>(row_base),
        static_cast<std::uint64_t>(col_base),
        static_cast<std::uint64_t>(rows),
        static_cast<std::uint64_t>(rows + (kSwBsize - 1)),
        static_cast<std::uint64_t>(has_up ? 1 : 0),
        static_cast<std::uint64_t>(has_left ? 1 : 0),
    };
  };

  const std::size_t d2h_bytes =
      batch.size() * (is_sw ? kSwResultBytesPerTask : std::size_t{4});
  LaunchSum waves(options);
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
                                      tc + 1 == g.tile_col_count, n));
      }
    }

    const auto bind = [&](std::span<const std::size_t> execute, simt::GlobalMemory&) {
      if (!cached && bufs.empty()) {
        lay_out_tasks();
      }
      std::vector<simt::BlockArgs> args;
      args.reserve(execute.size());
      for (const std::size_t i : execute) {
        args.push_back(tile_args(tiles[i], keys[i]));
      }
      return args;
    };

    // Every wave is its own sub-launch in SDC stream derivation, so block
    // ids repeat across waves without reusing flip streams.
    const simt::LaunchResult launch = launch_grid(
        kernel, device, gmem, keys, bind, options,
        {w == 0 ? extent.h2d_bytes : 0, w + 1 == max_waves ? d2h_bytes : 0},
        simt::sdc_sub_launch(options.sdc_launch_id, static_cast<std::uint64_t>(w)));
    out.launches += 1;
    out.blocks += keys.size();
    if (waves.add(launch, keys.size())) {
      out.representative_iterations = wave_rep_iterations;
    }
  }
  out.run.launch = waves.result();
  out.outputs.assign(bufs.begin(), bufs.end());
  return out;
}

/// Naive path buffers: full M x N DP-state matrices per task, in both exec
/// modes (the whole point of the anti-pattern is that all state lives in
/// global memory; segments of one diagonal write disjoint rows, so sharing
/// them across a launch's blocks is safe).
struct NaiveTaskBufs : TaskOutputs {
  std::int64_t query = 0;
  std::int64_t target = 0;
  std::int64_t h = 0;
  std::int64_t e = 0;
  std::int64_t f = 0;
  std::int64_t kv = 0;
  std::int64_t lh = 0;
};

WaveRun run_naive_diagonals(bool is_sw, const simt::PreparedKernel& kernel,
                            const simt::DeviceSpec& device,
                            const workload::SwBatch& batch, const SwBatchExtent& extent,
                            const RunOptions& options, simt::GlobalMemory& gmem) {
  std::size_t max_diags = 0;
  for (const workload::SwTask& task : batch) {
    const std::size_t m = task.query.size();
    const std::size_t n = task.target.size();
    util::require(m * n <= kNaiveMaxCells,
                  "wf-naive: task exceeds the naive-variant cell cap (the "
                  "anti-pattern keeps six full matrices per task)");
    max_diags = std::max(max_diags, m + n - 1);
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
      b.query = upload(gmem, task.query);
      b.target = upload(gmem, task.target);
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

  WaveRun out;
  out.run.cells = extent.cells;
  out.representative_iterations = 1;  // one anti-diagonal step per launch

  const std::size_t d2h_bytes =
      batch.size() * (is_sw ? kSwResultBytesPerTask : std::size_t{4});
  LaunchSum diagonals(options);
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
        keys.push_back(naive_shape_key(active, has_c0, has_r0, has_lastc, has_lastr, n));
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

    const simt::LaunchResult launch = launch_grid(
        kernel, device, gmem, keys, bind, options,
        {d == 0 ? extent.h2d_bytes : 0, d + 1 == max_diags ? d2h_bytes : 0},
        simt::sdc_sub_launch(options.sdc_launch_id, static_cast<std::uint64_t>(d)));
    out.launches += 1;
    out.blocks += keys.size();
    diagonals.add(launch, keys.size());
  }
  out.run.launch = diagonals.result();
  out.outputs.assign(bufs.begin(), bufs.end());
  return out;
}

/// The body both wavefront runners share: run the batch through the
/// variant's launches, then read back each task's SW output or NW score.
template <typename Result>
Result run_wavefront(std::string_view runner, WfVariant variant,
                     const simt::PreparedKernel& kernel, const simt::DeviceSpec& device,
                     const workload::SwBatch& batch, int tile_rows,
                     const RunOptions& options) {
  constexpr bool kIsSw = std::is_same_v<Result, WfSwBatchResult>;
  const SwBatchExtent extent = check_sw_batch(runner, batch, options);
  simt::GlobalMemory gmem;
  WaveRun waves =
      variant == WfVariant::kHostSyncNaive
          ? run_naive_diagonals(kIsSw, kernel, device, batch, extent, options, gmem)
          : run_tile_waves(kIsSw, kernel, device, batch, extent, tile_rows, options,
                           gmem);
  count_arena_bytes(gmem);
  Result result{std::move(waves.run), {}, waves.launches, waves.blocks,
                waves.representative_iterations};
  if (options.collect_outputs) {
    for (std::size_t t = 0; t < batch.size(); ++t) {
      if constexpr (kIsSw) {
        result.outputs.push_back(read_sw_output(gmem, batch[t], waves.outputs[t]));
      } else {
        result.scores.push_back(gmem.read_i32_one(waves.outputs[t].out));
      }
    }
  }
  return result;
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
  return run_wavefront<WfSwBatchResult>("WavefrontSwRunner", variant_, kernel_, device,
                                        batch, tile_rows_, options);
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
  return run_wavefront<WfNwBatchResult>("WavefrontNwRunner", variant_, kernel_, device,
                                        batch, tile_rows_, options);
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
