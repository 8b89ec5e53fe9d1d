#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "wsim/simt/device.hpp"
#include "wsim/simt/interpreter.hpp"
#include "wsim/simt/isa.hpp"
#include "wsim/simt/memory.hpp"
#include "wsim/simt/occupancy.hpp"
#include "wsim/simt/scheduler.hpp"
#include "wsim/simt/sdc.hpp"

namespace wsim::simt {

/// Host↔device copies associated with one launch (cudaMemcpy volumes).
struct TransferSpec {
  std::size_t h2d_bytes = 0;
  std::size_t d2h_bytes = 0;
};

/// How blocks are executed.
///
/// kFull executes every block functionally (results in GlobalMemory are
/// valid for all blocks). kCachedByShape executes one representative block
/// per distinct `shape_key` whose cost the executing ExecutionEngine has
/// not memoized yet, and reuses the measured cost for the others — valid
/// because kernel control flow (and therefore timing) depends only on the
/// scalar arguments that define the shape, not on sequence content. The
/// engine's cost cache persists across launches (keyed by kernel, device,
/// interpreter and shape), so a warm launch executes no block at all. Use
/// it for large timing sweeps; only representative blocks' outputs are
/// written.
enum class ExecMode { kFull, kCachedByShape };

/// Scalar arguments of one block, filling s0, s1, ... in
/// KernelBuilder::param() order.
using BlockArgs = std::vector<std::uint64_t>;

/// One block of a launch: its scalar arguments and a shape key for timing
/// deduplication. The runners do not build these: they hand the engine
/// shape keys and a binder (ExecutionEngine::launch), so blocks that never
/// execute get no arguments.
struct BlockLaunch {
  BlockArgs args;
  std::uint64_t shape_key = 0;
};

/// The launch settings a caller chooses. simt::LaunchOptions adds what the
/// launching code derives per launch; the kernel runners' options
/// (kernels::RunOptions) take these and forward them to every launch.
struct LaunchKnobs {
  ExecMode mode = ExecMode::kFull;
  /// Ignored: kCachedByShape always memoizes block costs in the executing
  /// engine's cache. Kept so existing callers still compile.
  bool use_engine_cache = false;
  /// CUDA-streams-style pipelining: the h2d copy overlaps kernel
  /// execution (the d2h copy still drains after the kernel, as a real
  /// stream must). The paper's numbers serialize everything; this is the
  /// natural follow-up optimization.
  bool overlap_transfers = false;
  /// Deterministic silent-data-corruption injection (see simt/sdc.hpp).
  /// Requires kFull: in kCachedByShape most blocks reuse a representative's
  /// cost, so injection would corrupt the shared cost cache instead of
  /// modelling independent per-block upsets.
  SdcPlan sdc;
  /// Identifies this launch in SDC stream derivation; callers give every
  /// (re-)execution a fresh id so retries draw independent flips.
  std::uint64_t sdc_launch_id = 0;
  /// Watchdog cycle budget per block; a block exceeding it throws
  /// simt::LaunchTimeout. 0 disables. Barrier deadlocks are detected and
  /// thrown unconditionally.
  long long max_block_cycles = 0;
  /// Interpreter selection: the lane-vector engine (default) or the
  /// legacy switch interpreter, for A/B comparison and differential
  /// testing (see simt::InterpPath; WSIM_INTERP=legacy flips the default).
  InterpPath interp = InterpPath::kDefault;
};

struct LaunchOptions : LaunchKnobs {
  TransferSpec transfer;
  /// When non-null, records the representative (first executed) block's
  /// instruction timeline (see simt::Trace).
  class Trace* trace_representative = nullptr;
};

/// Everything the benchmarks need from one kernel launch.
struct LaunchResult {
  KernelTiming timing;
  Occupancy occupancy;
  double kernel_seconds = 0.0;    ///< device execution only
  double h2d_seconds = 0.0;       ///< PCIe host-to-device component
  double d2h_seconds = 0.0;       ///< PCIe device-to-host component
  double transfer_seconds = 0.0;  ///< h2d + d2h (kept for existing callers)
  double overhead_seconds = 0.0;  ///< kernel-launch overhead
  std::uint64_t instructions = 0;         ///< summed over all blocks
  std::uint64_t smem_transactions = 0;    ///< summed over all blocks
  std::uint64_t blocks_executed = 0;      ///< blocks run through the interpreter
  std::uint64_t sdc_flips = 0;            ///< injected bit flips summed over executed blocks
  BlockResult representative;             ///< first block's detailed record
  bool transfers_overlapped = false;      ///< LaunchOptions::overlap_transfers

  /// Wall-clock including transfers and launch overhead (paper Fig. 9/10
  /// convention). With streams only the h2d copy hides under the kernel;
  /// the d2h copy waits for kernel completion as on real hardware.
  double total_seconds() const noexcept {
    const double moved = transfers_overlapped
                             ? std::max(kernel_seconds, h2d_seconds) + d2h_seconds
                             : kernel_seconds + transfer_seconds;
    return moved + overhead_seconds;
  }
};

/// Executes a grid: runs blocks through the interpreter (per `options.mode`),
/// composes their costs with the SM scheduler, and adds host-side overheads
/// from the device's PCIe parameters.
///
/// Thin wrapper over the process-wide ExecutionEngine (see
/// simt/engine.hpp): blocks execute on its worker pool, bit-identical to
/// sequential execution, and kCachedByShape memoizes into its cost cache
/// for the rest of the process. Construct a dedicated ExecutionEngine to
/// control the thread count or scope the cost cache per call site.
LaunchResult launch(const Kernel& kernel, const DeviceSpec& device, GlobalMemory& gmem,
                    std::span<const BlockLaunch> blocks, const LaunchOptions& options = {});

}  // namespace wsim::simt
