#pragma once

#include <cstdint>
#include <vector>

#include "wsim/align/smith_waterman.hpp"
#include "wsim/kernels/common.hpp"
#include "wsim/simt/decode.hpp"
#include "wsim/simt/isa.hpp"
#include "wsim/simt/runtime.hpp"
#include "wsim/workload/batching.hpp"

namespace wsim::kernels {

/// BSIZE of the paper's two-level tiling: rows per band, threads per
/// block, and the side of the shared-memory btrack tile. The paper finds
/// 32 to perform best and we fix it (one warp per block).
inline constexpr int kSwBsize = 32;

/// Builds the Smith-Waterman kernel for one communication design:
///
/// * design A (kSharedMemory, "SW1"): three rotating H line buffers plus
///   vertical-gap (F) and gap-length (kv) double buffers in shared memory,
///   a BSIZE x BSIZE shared-memory staging tile for the backtrace matrix,
///   and a __syncthreads per anti-diagonal (paper Listing 2a / Fig. 7).
/// * design B (kShuffle, "SW2"): anti-diagonal state lives in registers
///   (reg1-reg3 of Fig. 6b plus F/kv), neighbours are read with
///   __shfl_up, no barriers, no shared memory.
///
/// One block processes one alignment task: the row dimension is tiled
/// into BSIZE-row bands processed sequentially; band-boundary rows are
/// carried through global memory (coarse tiling of Fig. 7a). Outputs per
/// task: the full btrack matrix, the H values of the last row and last
/// column (for the HaplotypeCaller max search), written to global memory.
///
/// Scalar parameters, in order: query base, target base, M, N, btrack
/// base, boundary-H base, boundary-F base, boundary-kv base, last-column
/// base, last-row base, number of bands, tiles per band.
/// `bsize` is the tiling/block size: design A accepts multiples of 32 up
/// to 96 (multi-warp blocks, one __syncthreads per step); design B is
/// structurally limited to 32 because shuffle cannot cross warps.
simt::Kernel build_sw_kernel(CommMode mode, const align::SwParams& params,
                             int bsize = kSwBsize);

/// Wavefront iterations one block executes for an M x N task:
/// ceil(M/BSIZE) bands x ceil((N+BSIZE-1)/BSIZE) tiles x BSIZE steps.
/// The denominator of the paper's per-iteration latency (Table II).
std::size_t sw_iterations(std::size_t m, std::size_t n,
                          int bsize = kSwBsize) noexcept;

/// Everything read back from the device for one task.
struct SwTaskOutput {
  std::int32_t best_score = 0;
  std::size_t best_i = 0;
  std::size_t best_j = 0;
  align::SwAlignment alignment;
  align::Matrix<std::int32_t> btrack;  ///< (M+1) x (N+1), reference layout
};

struct SwBatchResult {
  KernelRunResult run;
  std::vector<SwTaskOutput> outputs;  ///< filled only when collect_outputs
};

struct SwRunOptions : RunOptions {
  /// Shape-cache quantization for kCachedByShape (see kernels::shape_key).
  static constexpr std::size_t shape_granularity = kSwBsize;
  /// Record the first block's instruction timeline (simt::Trace).
  simt::Trace* trace_representative = nullptr;
};

/// Host-side driver: launches a batch (one task per block), packing it
/// into device memory only when some block executes, and optionally reads
/// back/backtraces.
class SwRunner {
 public:
  explicit SwRunner(CommMode mode, const align::SwParams& params = {},
                    int bsize = kSwBsize);

  const simt::Kernel& kernel() const noexcept { return kernel_.kernel(); }
  CommMode comm_mode() const noexcept { return mode_; }
  const align::SwParams& params() const noexcept { return params_; }

  SwBatchResult run_batch(const simt::DeviceSpec& device,
                          const workload::SwBatch& batch,
                          const SwRunOptions& options = {}) const;

  int bsize() const noexcept { return bsize_; }

 private:
  CommMode mode_;
  align::SwParams params_;
  int bsize_;
  simt::PreparedKernel kernel_;
};

}  // namespace wsim::kernels
