#include "wsim/simt/engine.hpp"

#include <algorithm>
#include <cstdlib>
#include <string>
#include <vector>

#include "wsim/obs/metrics.hpp"
#include "wsim/obs/obs.hpp"
#include "wsim/simt/decode.hpp"
#include "wsim/simt/interpreter.hpp"
#include "wsim/simt/sdc.hpp"
#include "wsim/simt/trace.hpp"
#include "wsim/util/check.hpp"

namespace wsim::simt {

namespace {

/// splitmix64 finalizer: spreads composite cache keys across hash buckets.
std::uint64_t mix(std::uint64_t x) noexcept {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

int threads_from_env() {
  const char* env = std::getenv("WSIM_THREADS");
  if (env != nullptr && *env != '\0') {
    const int parsed = std::atoi(env);
    if (parsed > 0) {
      return parsed;
    }
  }
  return 0;  // one per hardware thread
}

}  // namespace

std::optional<BlockCost> BlockCostCache::find(std::uint64_t key) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = map_.find(key);
  if (it == map_.end()) {
    return std::nullopt;
  }
  return it->second;
}

void BlockCostCache::insert(std::uint64_t key, const BlockCost& cost) {
  std::lock_guard<std::mutex> lock(mu_);
  map_.emplace(key, cost);
}

std::size_t BlockCostCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return map_.size();
}

void BlockCostCache::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  map_.clear();
}

ExecutionEngine::ExecutionEngine(EngineOptions options)
    : options_(options), pool_(options.threads) {}

LaunchResult ExecutionEngine::launch(const Kernel& kernel, const DeviceSpec& device,
                                     GlobalMemory& gmem,
                                     std::span<const BlockLaunch> blocks,
                                     const LaunchOptions& options) {
  std::vector<std::uint64_t> shape_keys(blocks.size());
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    shape_keys[i] = blocks[i].shape_key;
  }
  const auto copy_args = [&](std::span<const std::size_t> execute, GlobalMemory&) {
    std::vector<BlockArgs> args;
    args.reserve(execute.size());
    for (const std::size_t i : execute) {
      args.push_back(blocks[i].args);
    }
    return args;
  };
  return launch(PreparedKernel::borrow(kernel), device, gmem, shape_keys, copy_args,
                options);
}

LaunchResult ExecutionEngine::launch(const PreparedKernel& prepared,
                                     const DeviceSpec& device, GlobalMemory& gmem,
                                     std::span<const std::uint64_t> shape_keys,
                                     BindBlocks bind, const LaunchOptions& options) {
  util::require(!shape_keys.empty(), "launch: grid must contain at least one block");
  util::require(!options.sdc.enabled() || options.mode == ExecMode::kFull,
                "launch: SDC injection requires ExecMode::kFull — injecting into a "
                "shape-cached launch would poison the shared cost cache");

  const Kernel& kernel = prepared.kernel();
  LaunchResult result;
  result.occupancy = compute_occupancy(device, kernel);
  const InterpPath path = resolve_interp_path(options.interp);

  const std::size_t n = shape_keys.size();
  const bool cached_mode = options.mode == ExecMode::kCachedByShape;
  // The interpreter path salts the key: the engines are bit-identical by
  // contract, but letting a cached fast-path cost stand in for a
  // vector-path execution would mask any divergence from differential A/B
  // runs.
  const std::uint64_t identity =
      cached_mode ? mix(prepared.identity(device) ^ (static_cast<std::uint64_t>(path) + 1))
                  : 0;
  const auto engine_key = [&](std::uint64_t shape) {
    return mix(identity ^ mix(shape));
  };

  // --- plan (host thread, grid order): decide which blocks execute -------
  // kFull: all of them. kCachedByShape: the first block of each shape not
  // already memoized — so exactly one worker executes each distinct shape
  // and the choice is identical to what the sequential loop made.
  std::vector<std::size_t> execute;  // ascending block indices
  std::vector<std::ptrdiff_t> exec_slot(n, -1);
  std::unordered_map<std::uint64_t, BlockCost> preseeded;
  std::unordered_map<std::uint64_t, std::size_t> shape_executor;
  if (!cached_mode) {
    execute.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      execute[i] = i;
      exec_slot[i] = static_cast<std::ptrdiff_t>(i);
    }
  } else {
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t key = shape_keys[i];
      if (preseeded.count(key) != 0 || shape_executor.count(key) != 0) {
        continue;
      }
      if (const std::optional<BlockCost> hit = cost_cache_.find(engine_key(key))) {
        preseeded.emplace(key, *hit);
      } else {
        shape_executor.emplace(key, i);
        exec_slot[i] = static_cast<std::ptrdiff_t>(execute.size());
        execute.push_back(i);
      }
    }
  }

  // --- bind (host thread): only a launch that executes a block pays for ---
  // the decoded program, device memory, and argument vectors. On the
  // predecoded paths (fast and vector) every block reuses one program from
  // the process-wide cache.
  std::shared_ptr<const DecodedProgram> decoded;
  std::vector<BlockArgs> args;
  if (!execute.empty()) {
    if (path == InterpPath::kFast || path == InterpPath::kVector) {
      static obs::Counter c_decode_misses("engine.decode_misses");
      bool hit = true;
      decoded = shared_decoded_cache().get(prepared, device, &hit);
      if (!hit) {
        c_decode_misses.add();
        obs::instant(obs::sim_time(), obs::Layer::kEngine, "engine.decode_miss");
      }
    }
    args = bind(execute, gmem);
    util::ensure(args.size() == execute.size(),
                 "launch: the binder must return one argument vector per executed block");
  }

  // --- execute (worker pool): blocks are independent, results land in ----
  // slot-indexed vectors so aggregation below sees grid order.
  std::vector<BlockResult> executed(execute.size());
  std::vector<GmemWriteSet> writes(
      options_.check_write_overlap ? execute.size() : 0);
  const bool inject = options.sdc.enabled();
  const std::uint64_t device_hash = inject ? sdc_device_hash(device.name) : 0;
  pool_.parallel_for(execute.size(), [&](std::size_t slot) {
    const std::size_t i = execute[slot];
    BlockRunOptions run_options;
    run_options.trace = slot == 0 ? options.trace_representative : nullptr;
    run_options.writes = options_.check_write_overlap ? &writes[slot] : nullptr;
    run_options.sdc = inject ? &options.sdc : nullptr;
    // Stream keyed by the *grid* index, so a block's flips don't depend on
    // which other blocks the cache happened to skip.
    run_options.sdc_stream =
        inject ? sdc_stream(device_hash, options.sdc_launch_id, i) : 0;
    run_options.max_cycles = options.max_block_cycles;
    run_options.interp = path;
    run_options.decoded = decoded.get();
    executed[slot] = run_block(kernel, device, gmem, args[slot], run_options);
  });

  if (options_.check_write_overlap) {
    check_overlaps(kernel, execute, writes);
  }

  // --- aggregate (host thread, grid order): bit-identical to sequential --
  if (!execute.empty()) {
    result.representative = executed[0];
  }
  result.blocks_executed = execute.size();
  std::vector<BlockCost> costs(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (exec_slot[i] >= 0) {
      const BlockResult& res = executed[static_cast<std::size_t>(exec_slot[i])];
      BlockCost& cost = costs[i];
      cost.latency_cycles = res.cycles;
      cost.issue_slots = res.instructions;
      cost.smem_transactions = res.smem_transactions;
      result.instructions += res.instructions;
      result.smem_transactions += res.smem_transactions;
      result.sdc_flips += res.sdc_flips;
    } else {
      // Reused shape: cost from a pre-launch cache hit or from this
      // launch's executor (always at a lower grid index).
      const std::uint64_t key = shape_keys[i];
      const auto pre = preseeded.find(key);
      const BlockCost& cost =
          pre != preseeded.end() ? pre->second : costs[shape_executor.at(key)];
      costs[i] = cost;
      // The skipped block would have issued the same instruction mix.
      result.instructions += cost.issue_slots;
      result.smem_transactions += cost.smem_transactions;
    }
  }

  // --- commit fresh costs (host thread, grid order) ----------------------
  if (cached_mode) {
    for (const std::size_t i : execute) {
      cost_cache_.insert(engine_key(shape_keys[i]), costs[i]);
    }
  }

  result.timing = schedule_blocks(device, result.occupancy, costs);
  result.kernel_seconds = result.timing.seconds;

  const double pcie_bytes_per_second = device.pcie_bw_gbps * 1e9;
  if (options.transfer.h2d_bytes > 0) {
    result.h2d_seconds =
        static_cast<double>(options.transfer.h2d_bytes) / pcie_bytes_per_second +
        device.pcie_latency_us * 1e-6;
  }
  if (options.transfer.d2h_bytes > 0) {
    result.d2h_seconds =
        static_cast<double>(options.transfer.d2h_bytes) / pcie_bytes_per_second +
        device.pcie_latency_us * 1e-6;
  }
  result.transfer_seconds = result.h2d_seconds + result.d2h_seconds;
  result.overhead_seconds = device.kernel_launch_overhead_us * 1e-6;
  result.transfers_overlapped = options.overlap_transfers;

  static obs::Counter c_launches("engine.launches");
  static obs::Counter c_blocks("engine.blocks_executed");
  static obs::Histogram h_kernel_seconds("engine.kernel_seconds");
  c_launches.add();
  c_blocks.add(result.blocks_executed);
  h_kernel_seconds.observe(result.kernel_seconds);
  obs::instant(obs::sim_time(), obs::Layer::kEngine, "engine.launch", -1, 0,
               static_cast<double>(result.blocks_executed),
               result.kernel_seconds);
  return result;
}

void ExecutionEngine::check_overlaps(const Kernel& kernel,
                                     const std::vector<std::size_t>& execute,
                                     const std::vector<GmemWriteSet>& writes) {
  // Sweep all written spans in address order: any two spans from different
  // blocks that intersect violate the race-free contract.
  struct Span {
    std::int64_t begin;
    std::int64_t end;
    std::size_t block;
  };
  std::vector<Span> spans;
  for (std::size_t slot = 0; slot < writes.size(); ++slot) {
    for (const auto& [begin, end] : writes[slot].spans()) {
      spans.push_back({begin, end, execute[slot]});
    }
  }
  std::sort(spans.begin(), spans.end(), [](const Span& x, const Span& y) {
    return x.begin != y.begin ? x.begin < y.begin : x.block < y.block;
  });
  for (std::size_t s = 1; s < spans.size(); ++s) {
    const Span& prev = spans[s - 1];
    const Span& cur = spans[s];
    if (cur.begin < prev.end && cur.block != prev.block) {
      throw util::CheckError(
          "write overlap in kernel '" + kernel.name + "': blocks " +
          std::to_string(prev.block) + " and " + std::to_string(cur.block) +
          " both wrote global memory bytes [" +
          std::to_string(std::max(prev.begin, cur.begin)) + ", " +
          std::to_string(std::min(prev.end, cur.end)) +
          ") — blocks of one launch must write disjoint ranges");
    }
  }
}

ExecutionEngine& shared_engine() {
  static ExecutionEngine engine(EngineOptions{.threads = threads_from_env()});
  return engine;
}

}  // namespace wsim::simt
