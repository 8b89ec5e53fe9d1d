#pragma once

#include <cstdint>
#include <vector>

#include "wsim/align/needleman_wunsch.hpp"
#include "wsim/kernels/common.hpp"
#include "wsim/kernels/sw_kernels.hpp"
#include "wsim/simt/isa.hpp"
#include "wsim/simt/runtime.hpp"
#include "wsim/workload/batching.hpp"

namespace wsim::kernels {

/// Extension case study: global alignment (Needleman-Wunsch with affine
/// gaps). The paper lists NW alongside SW/PairHMM as an algorithm with
/// the same anti-diagonal dependence graph (Fig. 4); these kernels apply
/// the identical design-A/design-B treatment — shared-memory line buffers
/// vs register + shuffle — to the global recurrence. Score-only (the DP
/// value at (M, N)); backtrace stays a host concern.
///
/// Scalar parameters: query base, target base, M, N, result address,
/// boundary-H base, boundary-F base, number of bands, tiles per band.
simt::Kernel build_nw_kernel(CommMode mode, const align::SwParams& params);

struct NwBatchResult {
  KernelRunResult run;
  std::vector<std::int32_t> scores;  ///< per task (collect_outputs)
};

/// NW takes only the options every runner shares; its shape cache
/// quantizes like SW's (SwRunOptions::shape_granularity).
using NwRunOptions = RunOptions;

class NwRunner {
 public:
  explicit NwRunner(CommMode mode, const align::SwParams& params = {});

  const simt::Kernel& kernel() const noexcept { return kernel_.kernel(); }
  CommMode comm_mode() const noexcept { return mode_; }

  NwBatchResult run_batch(const simt::DeviceSpec& device,
                          const workload::SwBatch& batch,
                          const NwRunOptions& options = {}) const;

 private:
  CommMode mode_;
  align::SwParams params_;
  simt::PreparedKernel kernel_;
};

}  // namespace wsim::kernels
