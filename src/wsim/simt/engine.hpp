#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "wsim/simt/decode.hpp"
#include "wsim/simt/runtime.hpp"
#include "wsim/util/function_ref.hpp"
#include "wsim/util/thread_pool.hpp"

namespace wsim::simt {

/// Thread-safe block-cost memoization shared across launches: one mutex
/// over one map. The engine reads and writes it only on the launching
/// thread, in the plan and commit phases, so the lock guards launches from
/// different threads sharing one engine, not the engine's own workers.
/// Keys are already composite hashes ((kernel, device) identity,
/// interpreter, shape key), computed by the engine.
class BlockCostCache {
 public:
  std::optional<BlockCost> find(std::uint64_t key) const;
  void insert(std::uint64_t key, const BlockCost& cost);
  std::size_t size() const;
  void clear();

 private:
  mutable std::mutex mu_;
  std::unordered_map<std::uint64_t, BlockCost> map_;
};

struct EngineOptions {
  /// Worker threads for block execution; <= 0 means one per hardware
  /// thread (util::ThreadPool::resolve).
  int threads = 0;
  /// Debug mode: record every executed block's global-memory write ranges
  /// and throw util::CheckError when two blocks of one launch overlap —
  /// verifying the interpreter's "correct kernels are race-free" contract
  /// instead of trusting it.
  bool check_write_overlap = false;
};

/// Binds the blocks a launch executes: allocates and fills their device
/// memory in `gmem` and returns their arguments, one BlockArgs per entry of
/// `execute` (ascending grid indices), in that order.
using BindBlocks = util::FunctionRef<std::vector<BlockArgs>(
    std::span<const std::size_t> execute, GlobalMemory& gmem)>;

/// Executes launch grids on a persistent worker pool.
///
/// A launch runs in three phases:
///   * plan (launching thread): decide from the shape keys alone which
///     blocks execute — all of them in kFull; in kCachedByShape the first
///     block of each shape the cost cache lacks;
///   * bind (launching thread, only if some block executes): look up the
///     decoded program and call the caller's binder once for the executing
///     blocks' memory and arguments;
///   * execute (worker pool): run those blocks, then aggregate every
///     block's cost in grid order and schedule the grid.
/// A warm timing-only launch therefore hashes no kernel, allocates no
/// device memory, builds no arguments and does no decode lookup.
///
/// Blocks of a launch are independent by construction (the interpreter's
/// contract), so per-block costs land in a pre-sized vector indexed by
/// block position (schedule_blocks sees exactly the sequential order), the
/// representative block is the first executed one in grid order, and in
/// kCachedByShape mode exactly one worker — the first block of each
/// distinct uncached shape — executes while the rest reuse the measured
/// cost. Results are therefore bit-identical to sequential execution at
/// any thread count.
///
/// Ownership: the engine owns the thread pool and the cross-launch cost
/// cache, the one block-cost cache of the program; callers own
/// kernels, devices, and memory arenas. One engine is meant to be shared
/// by all runners of a program (see shared_engine()), so launches pay no
/// per-launch thread setup; a caller that wants a cost cache of its own
/// scope (a benchmark sweep, a test) constructs a dedicated engine.
class ExecutionEngine {
 public:
  explicit ExecutionEngine(EngineOptions options = {});

  ExecutionEngine(const ExecutionEngine&) = delete;
  ExecutionEngine& operator=(const ExecutionEngine&) = delete;

  /// Executors used for block dispatch (>= 1).
  int threads() const noexcept { return pool_.size(); }

  const EngineOptions& options() const noexcept { return options_; }

  /// Launches a grid of `shape_keys.size()` blocks of a prepared kernel.
  /// `bind` runs at most once, before any block executes; the memory it
  /// lays out must give each executing block the addresses it would have
  /// had with every block bound, because a block's offsets within its
  /// 128-byte segments feed its cycle count.
  LaunchResult launch(const PreparedKernel& kernel, const DeviceSpec& device,
                      GlobalMemory& gmem, std::span<const std::uint64_t> shape_keys,
                      BindBlocks bind, const LaunchOptions& options = {});

  /// Adapter for callers holding a bare kernel and prebuilt blocks (tests,
  /// benches, examples): hashes the kernel, then launches as above with a
  /// binder that copies `blocks[i].args`. Same semantics as simt::launch.
  LaunchResult launch(const Kernel& kernel, const DeviceSpec& device,
                      GlobalMemory& gmem, std::span<const BlockLaunch> blocks,
                      const LaunchOptions& options = {});

  /// Entries currently memoized in the engine's cost cache.
  std::size_t cost_cache_size() const { return cost_cache_.size(); }
  void clear_cost_cache() { cost_cache_.clear(); }

 private:
  static void check_overlaps(const Kernel& kernel,
                             const std::vector<std::size_t>& execute,
                             const std::vector<class GmemWriteSet>& writes);

  EngineOptions options_;
  util::ThreadPool pool_;
  BlockCostCache cost_cache_;
};

/// The process-wide default engine used by the simt::launch wrapper.
/// Thread count comes from the WSIM_THREADS environment variable when set
/// (a positive integer), otherwise one worker per hardware thread.
ExecutionEngine& shared_engine();

}  // namespace wsim::simt
