#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "wsim/align/smith_waterman.hpp"
#include "wsim/kernels/common.hpp"
#include "wsim/kernels/sw_kernels.hpp"
#include "wsim/simt/isa.hpp"
#include "wsim/simt/runtime.hpp"
#include "wsim/workload/batching.hpp"

namespace wsim::kernels {

/// Intra-task (wavefront) execution variants. The task-per-block kernels
/// (sw_kernels.hpp) give each alignment one block and stream columns; the
/// wavefront kernels tile the DP matrix into (tile_rows x 32) tiles and
/// launch every tile on one tile-anti-diagonal *wave* as its own block, so
/// a single long alignment spreads across SMs — the AnySeq/GPU / SaLoBa
/// shape for long sequences.
enum class WfVariant {
  kShuffle,       ///< lane i owns column i; shfl_up pipelines the diagonal
  kSharedMemory,  ///< same decomposition, line buffers + barrier per step
  /// The anti-pattern: one kernel launch per *cell* anti-diagonal with all
  /// DP state in global-memory matrices (the classic naive NW-on-GPU loop).
  /// Implemented to be measured and beaten, never to be chosen.
  kHostSyncNaive,
};

std::string_view to_string(WfVariant variant) noexcept;

/// Rows per wavefront tile (columns are fixed at one warp = 32). Larger
/// tiles amortize the 31-step pipeline fill/drain; smaller tiles expose
/// more concurrent blocks per task.
inline constexpr int kWfTileRows = 256;

/// Tile-grid geometry of one M x N task under a given tile height.
struct WfGeometry {
  std::size_t tile_rows = 0;       ///< rows per tile (last row tile may be short)
  std::size_t tile_row_count = 0;  ///< ceil(M / tile_rows)
  std::size_t tile_col_count = 0;  ///< ceil(N / 32)
  std::size_t tiles = 0;           ///< tile_row_count * tile_col_count
  std::size_t waves = 0;           ///< tile anti-diagonals: rows + cols - 1

  /// Mean independent tiles per wave — the intra-task block-level
  /// parallelism a single task contributes.
  double avg_wave_tiles() const noexcept {
    return waves == 0 ? 0.0
                      : static_cast<double>(tiles) / static_cast<double>(waves);
  }
};

WfGeometry wf_geometry(std::size_t m, std::size_t n,
                       int tile_rows = kWfTileRows) noexcept;

/// Anti-diagonal steps summed over all tiles of an M x N task: each tile
/// runs rows_in_tile + 31 steps (pipeline fill/drain included) — the
/// iteration count of the Eq. 7 latency denominator for this subsystem.
std::size_t wf_iterations(std::size_t m, std::size_t n,
                          int tile_rows = kWfTileRows) noexcept;

/// Builds one wavefront *tile* kernel (kShuffle or kSharedMemory): one
/// warp per tile, lane i owns tile column i, rows stream down the tile
/// pipelined along the anti-diagonal. Left/diagonal H and the horizontal
/// gap state arrive from lane i-1 via shfl_up (or via rotating
/// shared-memory line buffers in the kSharedMemory variant); the vertical
/// gap state is lane-local. Tile boundaries are carried through global
/// memory: a row-boundary buffer (bottom row -> tile below), a
/// column-boundary buffer (right column -> tile to the right), and a
/// parity-rotated corner cell (bottom-right -> diagonal neighbour).
simt::Kernel build_wf_sw_kernel(WfVariant variant, const align::SwParams& params);
simt::Kernel build_wf_nw_kernel(WfVariant variant, const align::SwParams& params);

/// Builds the naive per-diagonal kernel (kHostSyncNaive): each launch
/// computes the cells of ONE anti-diagonal, 32 rows per block, every
/// H/E/F (and SW backtrace-length) value read from and written to full
/// M x N global-memory matrices. The host loop launches M + N - 1 times.
simt::Kernel build_wf_naive_sw_kernel(const align::SwParams& params);
simt::Kernel build_wf_naive_nw_kernel(const align::SwParams& params);

/// The wavefront runners take only the options every runner shares. Every
/// wave launch derives its own SDC sub-launch id from sdc_launch_id, and
/// tile shape keys quantize the target length like SW's
/// (SwRunOptions::shape_granularity).
using WfRunOptions = RunOptions;

/// Result of one wavefront batch: aggregated timing over all wave
/// launches plus the per-task outputs (kFull + collect_outputs only).
struct WfSwBatchResult {
  KernelRunResult run;
  std::vector<SwTaskOutput> outputs;
  std::size_t launches = 0;  ///< wave (or diagonal) kernel launches issued
  std::size_t blocks = 0;    ///< tile/segment blocks across all launches
  /// Steps of the representative block, for cycles_per_iteration().
  std::uint64_t representative_iterations = 0;
};

struct WfNwBatchResult {
  KernelRunResult run;
  std::vector<std::int32_t> scores;
  std::size_t launches = 0;
  std::size_t blocks = 0;
  std::uint64_t representative_iterations = 0;
};

/// Host-side driver for the intra-task subsystem: decomposes every task of
/// the batch into tiles, then issues one engine launch per *global* wave —
/// wave w carries the (tr, tc: tr + tc == w) tiles of EVERY task, so a
/// batch of long reads fills the device even when the batch is small. The
/// kHostSyncNaive variant instead launches once per cell anti-diagonal.
/// Device memory is laid out only by launches that execute a block, so a
/// warm kCachedByShape batch allocates none.
class WavefrontSwRunner {
 public:
  explicit WavefrontSwRunner(WfVariant variant, const align::SwParams& params = {},
                             int tile_rows = kWfTileRows);

  const simt::Kernel& kernel() const noexcept { return kernel_.kernel(); }
  WfVariant variant() const noexcept { return variant_; }
  const align::SwParams& params() const noexcept { return params_; }
  int tile_rows() const noexcept { return tile_rows_; }

  WfSwBatchResult run_batch(const simt::DeviceSpec& device,
                            const workload::SwBatch& batch,
                            const WfRunOptions& options = {}) const;

 private:
  WfVariant variant_;
  align::SwParams params_;
  int tile_rows_;
  simt::PreparedKernel kernel_;
};

class WavefrontNwRunner {
 public:
  explicit WavefrontNwRunner(WfVariant variant, const align::SwParams& params = {},
                             int tile_rows = kWfTileRows);

  const simt::Kernel& kernel() const noexcept { return kernel_.kernel(); }
  WfVariant variant() const noexcept { return variant_; }
  int tile_rows() const noexcept { return tile_rows_; }

  WfNwBatchResult run_batch(const simt::DeviceSpec& device,
                            const workload::SwBatch& batch,
                            const WfRunOptions& options = {}) const;

 private:
  WfVariant variant_;
  align::SwParams params_;
  int tile_rows_;
  simt::PreparedKernel kernel_;
};

/// One name per selectable SW kernel across both subsystems — the
/// vocabulary of the CLI `--kernel` flag.
struct SwKernelChoice {
  bool intra = false;  ///< wavefront subsystem (vs task-per-block)
  CommMode inter_mode = CommMode::kShuffle;  ///< when !intra
  WfVariant wf_variant = WfVariant::kShuffle;  ///< when intra
};

/// {"shared", "shuffle", "wf-shared", "wf-shuffle", "wf-naive"}.
const std::vector<std::string>& sw_kernel_names();

/// Lookup by CLI name; throws util::CheckError listing the valid names on
/// anything else (same contract as simt::device_by_name).
SwKernelChoice sw_kernel_by_name(std::string_view name);

/// Canonical name of a choice ("wf-shuffle", "shared", ...).
std::string sw_kernel_name(const SwKernelChoice& choice);

}  // namespace wsim::kernels
