#pragma once

#include <cstdint>
#include <vector>

#include "wsim/align/pairhmm.hpp"
#include "wsim/kernels/common.hpp"
#include "wsim/simt/decode.hpp"
#include "wsim/simt/isa.hpp"
#include "wsim/simt/runtime.hpp"
#include "wsim/workload/batching.hpp"

namespace wsim::kernels {

/// Maximum supported read length: the paper uses 128 threads/block for
/// PH1 "because the maximal sequence length is less than 128".
inline constexpr int kPhMaxReadLen = 128;

/// Number of length-specialized kernel variants (reads bucketed by 32
/// rows, the paper's "duplicate the kernels with several copies" and
/// "subfunctions with different numbers of cells" heuristics).
inline constexpr int kPhVariants = kPhMaxReadLen / 32;

/// PH1: anti-diagonal PairHMM with shared-memory line buffers — nine
/// rotating buffers (three per DP matrix M/I/D), one thread per read row,
/// `threads_per_block` in {32, 64, 96, 128}, a __syncthreads per
/// anti-diagonal.
///
/// Scalar parameters, in order: row-constants base (8 f32 per read row:
/// prior_match, prior_mismatch, mm, im, mi, ii, md, dd), read chars, hap
/// chars, R, H, step count (R + H - 1), result address, IC/|hap| bits.
simt::Kernel build_ph_shared_kernel(int threads_per_block);

/// PH2: warp-shuffle PairHMM — one warp per task, `cells_per_thread`
/// contiguous read rows per lane held entirely in registers (six state
/// registers per cell, Fig. 8); inter-thread communication only between
/// boundary cells via __shfl_up; no shared memory, no barriers.
/// Same scalar parameters as PH1.
simt::Kernel build_ph_shuffle_kernel(int cells_per_thread);

/// The design the paper rejects (Section IV-C2): multiple warps on the
/// anti-diagonal with shuffles inside each warp and shared memory at warp
/// boundaries. Every step then needs a __syncthreads and warp-boundary
/// lanes diverge, which "cancels the benefits of using shuffle" — this
/// kernel exists so the claim can be measured (bench_ablate_hybrid).
/// Same scalar parameters as PH1.
simt::Kernel build_ph_hybrid_kernel(int threads_per_block);

/// The three PairHMM designs (PH1 / PH2 / the rejected hybrid).
enum class PhDesign { kShared, kShuffle, kHybrid };

/// Anti-diagonal iterations one block executes for an R x H task.
inline std::size_t ph_iterations(std::size_t r, std::size_t h) noexcept {
  return r + h - 1;
}

struct PhRunOptions : RunOptions {
  /// Shape-cache quantization for kCachedByShape (see kernels::shape_key).
  static constexpr std::size_t shape_granularity = 16;
  /// GATK semantics: when the device's f32 likelihood underflows to zero,
  /// recompute that task on the host in double precision instead of
  /// throwing (collect_outputs only).
  bool double_fallback = false;
};

struct PhBatchResult {
  /// Aggregate over the per-variant launches (kernel/transfer/overhead
  /// seconds and instruction counts summed; occupancy and representative
  /// block from the variant covering the most cells).
  KernelRunResult run;
  std::vector<double> log10;  ///< per task, original order (collect_outputs)
  int primary_variant = 0;    ///< variant index covering the most cells
  /// Iterations and cells of the primary variant's representative block
  /// (its first task), for per-iteration latency accounting.
  std::size_t representative_iterations = 0;
  std::size_t representative_cells = 0;
};

/// Host-side driver: buckets tasks by read length, launches one kernel
/// variant per bucket (the paper's launch-time routing), and aggregates.
/// The variants' launches share one arena, filled only as far as a launch
/// that executes a block needs.
class PhRunner {
 public:
  explicit PhRunner(CommMode mode);
  explicit PhRunner(PhDesign design);

  PhDesign design() const noexcept { return design_; }

  /// The kernel variant used for reads of the given length.
  const simt::Kernel& kernel_for_read_len(std::size_t read_len) const;

  static int variant_for_read_len(std::size_t read_len);

  PhBatchResult run_batch(const simt::DeviceSpec& device,
                          const workload::PhBatch& batch,
                          const PhRunOptions& options = {}) const;

 private:
  PhDesign design_;
  std::vector<simt::PreparedKernel> kernels_;  ///< one per variant
};

}  // namespace wsim::kernels
