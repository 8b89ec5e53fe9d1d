// Work counts of warm timing-only launches. The paper's cost model
// (Eqs. 1-4: a block's cost is instruction count x latency, fixed by the
// task shape) lets the engine memoize one cost per shape, so once a batch
// has run, repeating it has nothing left to compute: the warm batch must
// hash no kernel, allocate no device memory and look up no decoded
// program, and must still report exactly the cold batch's timing. Host
// time is too noisy to gate here; these counts are exact.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <sstream>
#include <string>

#include "wsim/fleet/fleet.hpp"
#include "wsim/kernels/ph_kernels.hpp"
#include "wsim/kernels/sw_kernels.hpp"
#include "wsim/kernels/wavefront_kernels.hpp"
#include "wsim/obs/metrics.hpp"
#include "wsim/obs/obs.hpp"
#include "wsim/simt/builder.hpp"
#include "wsim/simt/device.hpp"
#include "wsim/simt/engine.hpp"
#include "wsim/simt/interpreter.hpp"
#include "wsim/simt/memory.hpp"
#include "wsim/util/rng.hpp"

namespace {

/// Heap allocations made through the replaced global operator new below.
std::atomic<std::uint64_t> g_allocations{0};

}  // namespace

// A counting global allocator for this test binary only: allocation counts
// are exact where host time is not. GCC cannot see that this operator new
// returns malloc memory, so it would flag the matching free() calls.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace {

using wsim::simt::EngineOptions;
using wsim::simt::ExecMode;
using wsim::simt::ExecutionEngine;
using wsim::simt::LaunchResult;

const wsim::simt::DeviceSpec kDev = wsim::simt::make_k1200();

struct WorkCounts {
  std::uint64_t kernel_hashes = 0;
  std::uint64_t arena_bytes = 0;
  std::uint64_t decode_lookups = 0;
};

std::uint64_t counter(const std::string& json, const std::string& name) {
  const std::string key = "\"" + name + "\": ";
  const std::size_t at = json.find(key);
  return at == std::string::npos ? 0 : std::stoull(json.substr(at + key.size()));
}

/// The work `body` does, from the obs counters at kMetrics.
template <typename Body>
WorkCounts count_work(Body&& body) {
  wsim::obs::set_level(wsim::obs::Level::kMetrics);
  wsim::obs::reset_metrics();
  body();
  std::ostringstream os;
  wsim::obs::write_metrics_json(os);
  wsim::obs::set_level(wsim::obs::Level::kOff);
  const std::string json = os.str();
  return {counter(json, "simt.kernel_hashes"), counter(json, "kernels.arena_bytes"),
          counter(json, "simt.decode_cache.hits") +
              counter(json, "simt.decode_cache.misses")};
}

/// Runs a timing-only batch cold, then again warm: the cold pass does the
/// work (so the counters are known to see it), the warm pass none, and
/// both report the same timing.
template <typename Run>
void expect_warm_batch_does_no_work(Run&& run) {
  LaunchResult cold;
  LaunchResult warm;
  const WorkCounts cold_work = count_work([&] { cold = run(); });
  EXPECT_GT(cold.blocks_executed, 0U);
  EXPECT_GT(cold_work.arena_bytes, 0U);
  EXPECT_GT(cold_work.decode_lookups, 0U);
  EXPECT_EQ(cold_work.kernel_hashes, 0U);  // hashed when the runner was built

  const WorkCounts warm_work = count_work([&] { warm = run(); });
  EXPECT_EQ(warm_work.kernel_hashes, 0U);
  EXPECT_EQ(warm_work.arena_bytes, 0U);
  EXPECT_EQ(warm_work.decode_lookups, 0U);
  EXPECT_EQ(warm.blocks_executed, 0U);
  EXPECT_EQ(warm.kernel_seconds, cold.kernel_seconds);
  EXPECT_EQ(warm.instructions, cold.instructions);
  EXPECT_EQ(warm.smem_transactions, cold.smem_transactions);
}

std::string random_dna(wsim::util::Rng& rng, std::size_t len) {
  std::string s(len, 'A');
  for (char& c : s) {
    c = "ACGT"[rng.uniform_int(0, 3)];
  }
  return s;
}

wsim::workload::SwBatch sw_batch(std::uint64_t seed, std::size_t m, std::size_t n) {
  wsim::util::Rng rng(seed);
  wsim::workload::SwBatch batch;
  for (std::size_t t = 0; t < 4; ++t) {
    batch.push_back({random_dna(rng, m + 24 * (t % 2)), random_dna(rng, n + 8 * t)});
  }
  return batch;
}

/// Reads spanning three of the four PairHMM length variants.
wsim::workload::PhBatch ph_batch(std::uint64_t seed) {
  wsim::util::Rng rng(seed);
  wsim::workload::PhBatch batch;
  for (const std::size_t read_len : {24, 40, 48, 100, 24}) {
    wsim::align::PairHmmTask task;
    task.read = random_dna(rng, read_len);
    task.hap = random_dna(rng, 90);
    task.base_quals.assign(read_len, 30);
    task.ins_quals.assign(read_len, 45);
    task.del_quals.assign(read_len, 45);
    batch.push_back(std::move(task));
  }
  return batch;
}

TEST(WorkCount, RunnersHashTheirKernelsOnceWhenBuilt) {
  EXPECT_EQ(count_work([] { wsim::kernels::SwRunner(wsim::kernels::CommMode::kShuffle); })
                .kernel_hashes,
            1U);
  EXPECT_EQ(
      count_work([] { wsim::kernels::PhRunner(wsim::kernels::PhDesign::kShuffle); })
          .kernel_hashes,
      static_cast<std::uint64_t>(wsim::kernels::kPhVariants));
  EXPECT_EQ(count_work([] {
              wsim::kernels::WavefrontSwRunner(wsim::kernels::WfVariant::kShuffle);
            }).kernel_hashes,
            1U);
}

TEST(WorkCount, WarmSwBatchDoesNoWork) {
  const wsim::kernels::SwRunner runner(wsim::kernels::CommMode::kShuffle);
  ExecutionEngine engine(EngineOptions{.threads = 2});
  const auto batch = sw_batch(1, 40, 64);
  wsim::kernels::SwRunOptions opt;
  opt.mode = ExecMode::kCachedByShape;
  opt.engine = &engine;
  expect_warm_batch_does_no_work(
      [&] { return runner.run_batch(kDev, batch, opt).run.launch; });
}

TEST(WorkCount, WarmPhBatchOverSeveralVariantsDoesNoWork) {
  const wsim::kernels::PhRunner runner(wsim::kernels::PhDesign::kShuffle);
  ExecutionEngine engine(EngineOptions{.threads = 2});
  const auto batch = ph_batch(2);
  wsim::kernels::PhRunOptions opt;
  opt.mode = ExecMode::kCachedByShape;
  opt.engine = &engine;
  expect_warm_batch_does_no_work(
      [&] { return runner.run_batch(kDev, batch, opt).run.launch; });
}

TEST(WorkCount, WarmWavefrontBatchDoesNoWork) {
  const wsim::kernels::WavefrontSwRunner runner(wsim::kernels::WfVariant::kShuffle);
  ExecutionEngine engine(EngineOptions{.threads = 2});
  const auto batch = sw_batch(3, 300, 200);
  wsim::kernels::WfRunOptions opt;
  opt.mode = ExecMode::kCachedByShape;
  opt.engine = &engine;
  std::size_t launches = 0;
  expect_warm_batch_does_no_work([&] {
    auto result = runner.run_batch(kDev, batch, opt);
    launches = result.launches;
    return result.run.launch;
  });
  EXPECT_GT(launches, 1U);  // one launch per wave
}

TEST(WorkCount, WarmFleetBatchesDoNoWork) {
  ExecutionEngine engine(EngineOptions{.threads = 2});
  wsim::fleet::FleetConfig config;
  wsim::fleet::WorkerConfig worker;
  worker.device = kDev;
  config.workers.push_back(worker);
  config.engine = &engine;
  wsim::fleet::FleetExecutor executor(config);
  wsim::fleet::ExecOptions timing_only;
  timing_only.collect_outputs = false;

  double now = 0.0;
  const auto short_reads = sw_batch(4, 40, 64);
  expect_warm_batch_does_no_work([&] {
    return executor.execute_sw(short_reads, now += 1.0, timing_only).result.run.launch;
  });
  // Long reads on the default (kAuto) policy take the wavefront path.
  const auto long_reads = sw_batch(5, 1000, 1000);
  expect_warm_batch_does_no_work([&] {
    return executor.execute_sw(long_reads, now += 1.0, timing_only).result.run.launch;
  });
  EXPECT_EQ(executor.stats().devices.at(0).intra_batches, 2U);  // cold + warm
  const auto ph = ph_batch(6);
  expect_warm_batch_does_no_work([&] {
    return executor.execute_ph(ph, now += 1.0, timing_only).result.run.launch;
  });
}

/// One warp summing a B4 global load per iteration; every lane's address
/// advances by the scalar `stride` each iteration.
wsim::simt::Kernel build_strided_loads() {
  using wsim::simt::imm_i64;
  wsim::simt::KernelBuilder kb("strided_loads", 32);
  const wsim::simt::SReg in = kb.param();      // s0
  const wsim::simt::SReg stride = kb.param();  // s1: bytes per iteration
  const wsim::simt::SReg trips = kb.param();   // s2
  const wsim::simt::VReg lane_at = kb.iadd(in, kb.imul(kb.tid(), imm_i64(4)));
  const wsim::simt::VReg addr = kb.mov(lane_at);
  const wsim::simt::VReg acc = kb.mov(imm_i64(0));
  kb.loop(trips);
  kb.assign(acc, kb.iadd(acc, kb.ldg(addr)));
  kb.assign(addr, kb.iadd(addr, stride));
  kb.endloop();
  kb.stg(lane_at, acc);
  return kb.build();
}

// The block's warm set (which 128 B segments it has touched) costs the same
// however many segments a kernel touches: a block that streams through 512
// segments allocates exactly as often as one that stays in one.
TEST(WorkCount, WarmSetAllocationsDoNotGrowWithSegments) {
  const wsim::simt::Kernel kernel = build_strided_loads();
  constexpr std::int64_t kTrips = 512;
  const auto allocations = [&](wsim::simt::InterpPath path, std::int64_t stride) {
    wsim::simt::GlobalMemory gmem;
    const std::int64_t in = gmem.alloc(kTrips * 128, 128);
    const std::vector<std::uint64_t> args = {static_cast<std::uint64_t>(in),
                                             static_cast<std::uint64_t>(stride),
                                             static_cast<std::uint64_t>(kTrips)};
    wsim::simt::BlockRunOptions options;
    options.interp = path;
    const std::uint64_t before = g_allocations.load();
    const wsim::simt::BlockResult result = run_block(kernel, kDev, gmem, args, options);
    const std::uint64_t made = g_allocations.load() - before;
    // Stride 0 keeps every load in one segment, stride 128 gives each
    // iteration its own.
    EXPECT_EQ(result.gmem_transactions, static_cast<std::uint64_t>(kTrips) + 1);
    return made;
  };
  // The legacy interpreter keeps its hash set: it is the reference model.
  for (const auto path : {wsim::simt::InterpPath::kFast, wsim::simt::InterpPath::kVector}) {
    // Warm-up: the first runs also decode the kernel and set up lazily
    // built process-wide state.
    for (int i = 0; i < 2; ++i) {
      allocations(path, 0);
      allocations(path, 128);
    }
    const std::uint64_t one_segment = allocations(path, 0);
    const std::uint64_t many_segments = allocations(path, 128);
    EXPECT_GT(one_segment, 0U);
    EXPECT_EQ(one_segment, many_segments)
        << "interp path " << static_cast<int>(path);
  }
}

TEST(WorkCount, JoinReusesTheWorkerModel) {
  ExecutionEngine engine(EngineOptions{.threads = 2});
  wsim::fleet::FleetConfig config;
  wsim::fleet::WorkerConfig worker;
  worker.device = kDev;
  config.workers.push_back(worker);
  config.engine = &engine;
  wsim::fleet::FleetExecutor executor(config);

  // An equal configuration shares the registered worker's model: no
  // kernel is hashed (deriving one hashes SW 1, PairHMM 4, wavefront 1).
  wsim::fleet::DeviceId joined = 0;
  EXPECT_EQ(count_work([&] { joined = executor.join(worker, 0.0); }).kernel_hashes, 0U);

  // The joined worker times a batch exactly as the original does.
  wsim::fleet::ExecOptions timing_only;
  timing_only.collect_outputs = false;
  const auto batch = sw_batch(7, 40, 64);
  const wsim::fleet::SwExecution original = executor.execute_sw(batch, 1.0, timing_only);
  ASSERT_EQ(original.exec.device_index, 0);
  executor.retire(0, 2.0);
  const wsim::fleet::SwExecution shared = executor.execute_sw(batch, 3.0, timing_only);
  ASSERT_EQ(shared.exec.device_index, static_cast<int>(joined));
  const LaunchResult& before = original.result.run.launch;
  const LaunchResult& after = shared.result.run.launch;
  EXPECT_EQ(after.kernel_seconds, before.kernel_seconds);
  EXPECT_EQ(after.instructions, before.instructions);
  EXPECT_EQ(after.smem_transactions, before.smem_transactions);

  // Another device, a pinned design, or one differing latency derives its
  // own model.
  wsim::fleet::WorkerConfig titan = worker;
  titan.device = wsim::simt::make_titan_x();
  wsim::fleet::WorkerConfig pinned = worker;
  pinned.sw_design = wsim::kernels::CommMode::kSharedMemory;
  wsim::fleet::WorkerConfig slower_smem = worker;
  ++slower_smem.device.lat.smem_load;
  for (const wsim::fleet::WorkerConfig& other : {titan, pinned, slower_smem}) {
    EXPECT_EQ(count_work([&] { executor.join(other, 4.0); }).kernel_hashes, 6U);
  }
  EXPECT_EQ(executor.sw_design(executor.size() - 2),
            wsim::kernels::CommMode::kSharedMemory);
}

}  // namespace
