#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "wsim/fleet/fleet.hpp"
#include "wsim/kernels/sw_kernels.hpp"
#include "wsim/serve/service.hpp"
#include "wsim/simt/builder.hpp"
#include "wsim/simt/device.hpp"
#include "wsim/simt/engine.hpp"
#include "wsim/simt/interpreter.hpp"
#include "wsim/simt/memory.hpp"
#include "wsim/simt/runtime.hpp"
#include "wsim/simt/watchdog.hpp"
#include "wsim/workload/batching.hpp"
#include "wsim/workload/generator.hpp"

namespace {

using wsim::simt::BlockLaunch;
using wsim::simt::BlockRunOptions;
using wsim::simt::Cmp;
using wsim::simt::DeviceSpec;
using wsim::simt::DType;
using wsim::simt::GlobalMemory;
using wsim::simt::imm_i64;
using wsim::simt::Kernel;
using wsim::simt::KernelBuilder;
using wsim::simt::LaunchOptions;
using wsim::simt::LaunchTimeout;
using wsim::simt::SReg;
using wsim::simt::VReg;

const DeviceSpec kDev = wsim::simt::make_k1200();

/// A kernel whose makespan scales with `trips`: one warp spinning an
/// integer loop, then a store so the work is not dead.
Kernel spin_kernel(long long trips) {
  KernelBuilder kb("spin", 32);
  const SReg out = kb.param();
  const VReg t = kb.tid();
  kb.loop(imm_i64(trips));
  (void)kb.iadd(t, imm_i64(1));
  kb.endloop();
  kb.stg(kb.iadd(out, kb.imul(t, imm_i64(4))), t);
  return kb.build();
}

/// Two warps; only the first executes __syncthreads. The second warp runs
/// to completion, the first waits forever: the "some warps finished"
/// deadlock.
Kernel half_barrier_kernel() {
  KernelBuilder kb("halfbar", 64);
  const SReg out = kb.param();
  const VReg t = kb.tid();
  const VReg p = kb.setp(Cmp::kLt, DType::kI64, t, imm_i64(32));
  kb.begin_pred(p);
  kb.bar();
  kb.end_pred();
  kb.stg(kb.iadd(out, kb.imul(t, imm_i64(4))), t);
  return kb.build();
}

/// Two warps waiting at two different __syncthreads: the divergent-barrier
/// deadlock.
Kernel divergent_barrier_kernel() {
  KernelBuilder kb("divbar", 64);
  const SReg out = kb.param();
  const VReg t = kb.tid();
  const VReg p = kb.setp(Cmp::kLt, DType::kI64, t, imm_i64(32));
  kb.begin_pred(p);
  kb.bar();
  kb.end_pred();
  kb.begin_pred(p, /*negate=*/true);
  kb.bar();
  kb.end_pred();
  kb.stg(kb.iadd(out, kb.imul(t, imm_i64(4))), t);
  return kb.build();
}

long long measure_cycles(const Kernel& kernel) {
  GlobalMemory gmem;
  const auto buf = gmem.alloc(64 * 4);
  const std::vector<std::uint64_t> args = {static_cast<std::uint64_t>(buf)};
  return run_block(kernel, kDev, gmem, args).cycles;
}

// ---------------------------------------------------------------------------
// Interpreter-level budget semantics.

TEST(Watchdog, BudgetExactlyReachedCompletes) {
  const Kernel kernel = spin_kernel(400);
  const long long cycles = measure_cycles(kernel);
  ASSERT_GT(cycles, 0);

  GlobalMemory gmem;
  const auto buf = gmem.alloc(64 * 4);
  const std::vector<std::uint64_t> args = {static_cast<std::uint64_t>(buf)};
  BlockRunOptions options;
  options.max_cycles = cycles;  // finishing at exactly the budget is legal
  const auto result = run_block(kernel, kDev, gmem, args, options);
  EXPECT_EQ(result.cycles, cycles);
}

TEST(Watchdog, OneCycleUnderBudgetThrowsCycleBudget) {
  const Kernel kernel = spin_kernel(400);
  const long long cycles = measure_cycles(kernel);
  ASSERT_GT(cycles, 1);

  GlobalMemory gmem;
  const auto buf = gmem.alloc(64 * 4);
  const std::vector<std::uint64_t> args = {static_cast<std::uint64_t>(buf)};
  BlockRunOptions options;
  options.max_cycles = cycles - 1;
  try {
    run_block(kernel, kDev, gmem, args, options);
    FAIL() << "expected LaunchTimeout";
  } catch (const LaunchTimeout& e) {
    EXPECT_EQ(e.kind(), LaunchTimeout::Kind::kCycleBudget);
    EXPECT_EQ(e.budget(), cycles - 1);
    EXPECT_GT(e.cycles(), e.budget());
    EXPECT_NE(std::string(e.what()).find("cycle budget"), std::string::npos);
  }
}

TEST(Watchdog, LongButUnderBudgetCompletes) {
  // A kernel that runs long in absolute terms but stays inside a generous
  // budget must not trip the watchdog.
  const Kernel kernel = spin_kernel(20000);
  const long long cycles = measure_cycles(kernel);
  ASSERT_GT(cycles, 20000);  // genuinely long

  GlobalMemory gmem;
  const auto buf = gmem.alloc(64 * 4);
  const std::vector<std::uint64_t> args = {static_cast<std::uint64_t>(buf)};
  BlockRunOptions options;
  options.max_cycles = cycles * 10;
  const auto result = run_block(kernel, kDev, gmem, args, options);
  EXPECT_EQ(result.cycles, cycles);
}

// ---------------------------------------------------------------------------
// Barrier-deadlock detection (no budget needed).

TEST(Watchdog, SomeWarpsFinishedDeadlock) {
  GlobalMemory gmem;
  const auto buf = gmem.alloc(64 * 4);
  const std::vector<std::uint64_t> args = {static_cast<std::uint64_t>(buf)};
  try {
    run_block(half_barrier_kernel(), kDev, gmem, args, BlockRunOptions{});
    FAIL() << "expected LaunchTimeout";
  } catch (const LaunchTimeout& e) {
    EXPECT_EQ(e.kind(), LaunchTimeout::Kind::kBarrierDeadlock);
    EXPECT_NE(std::string(e.what()).find("finished while others wait"),
              std::string::npos);
  }
}

TEST(Watchdog, DivergentBarriersDeadlock) {
  GlobalMemory gmem;
  const auto buf = gmem.alloc(64 * 4);
  const std::vector<std::uint64_t> args = {static_cast<std::uint64_t>(buf)};
  try {
    run_block(divergent_barrier_kernel(), kDev, gmem, args, BlockRunOptions{});
    FAIL() << "expected LaunchTimeout";
  } catch (const LaunchTimeout& e) {
    EXPECT_EQ(e.kind(), LaunchTimeout::Kind::kBarrierDeadlock);
    EXPECT_NE(std::string(e.what()).find("different __syncthreads"),
              std::string::npos);
  }
}

// ---------------------------------------------------------------------------
// Propagation: the engine's worker pool rethrows LaunchTimeout with its
// type (and therefore kind/budget) intact, at any thread count.

TEST(Watchdog, EnginePropagatesLaunchTimeout) {
  const Kernel kernel = spin_kernel(400);
  const long long cycles = measure_cycles(kernel);

  wsim::simt::ExecutionEngine engine({.threads = 4});
  GlobalMemory gmem;
  const auto buf = gmem.alloc(64 * 4);
  std::vector<BlockLaunch> blocks(8);
  for (auto& b : blocks) {
    b.args = {static_cast<std::uint64_t>(buf)};
  }
  LaunchOptions options;
  options.max_block_cycles = cycles - 1;
  try {
    engine.launch(kernel, kDev, gmem, blocks, options);
    FAIL() << "expected LaunchTimeout";
  } catch (const LaunchTimeout& e) {
    EXPECT_EQ(e.kind(), LaunchTimeout::Kind::kCycleBudget);
    EXPECT_EQ(e.budget(), cycles - 1);
  }
}

// ---------------------------------------------------------------------------
// Fleet: a device whose per-worker budget always fires loses the batch to
// the other device (requeue-on-timeout); the delivered outputs are
// bit-identical to a direct single-device run.

TEST(Watchdog, FleetRequeuesTimedOutBatchOnAnotherDevice) {
  wsim::workload::GeneratorConfig gen;
  gen.seed = 11;
  gen.regions = 2;
  gen.sw_query_len_min = 40;
  gen.sw_query_len_max = 80;
  gen.sw_target_len_min = 60;
  gen.sw_target_len_max = 100;
  const auto dataset = wsim::workload::generate_dataset(gen);
  const auto batches = wsim::workload::sw_rebatch(dataset, 8);
  ASSERT_FALSE(batches.empty());

  wsim::fleet::FleetConfig cfg;
  wsim::fleet::WorkerConfig broken;
  broken.device = wsim::simt::make_k1200();
  broken.max_block_cycles = 1;  // every block blows this budget
  wsim::fleet::WorkerConfig healthy;
  healthy.device = wsim::simt::make_k1200();
  cfg.workers = {broken, healthy};
  cfg.policy = wsim::fleet::PlacementPolicy::kRoundRobin;
  wsim::fleet::FleetExecutor executor(std::move(cfg));

  const auto executed = executor.execute_sw(batches.front(), 0.0, {});
  EXPECT_EQ(executed.exec.device_index, 1);
  EXPECT_GE(executed.exec.attempts, 2);

  const auto stats = executor.stats();
  EXPECT_GE(stats.guard.watchdog_timeouts, 1U);
  EXPECT_GE(stats.requeues, 1U);
  EXPECT_GE(stats.devices[0].timeouts, 1U);
  EXPECT_EQ(stats.devices[0].batches, 0U);

  const wsim::kernels::SwRunner runner(executor.sw_design(1));
  wsim::kernels::SwRunOptions direct_opt;
  direct_opt.collect_outputs = true;
  const auto direct =
      runner.run_batch(executor.device(1), batches.front(), direct_opt);
  ASSERT_EQ(executed.result.outputs.size(), direct.outputs.size());
  for (std::size_t i = 0; i < direct.outputs.size(); ++i) {
    EXPECT_EQ(executed.result.outputs[i].best_score, direct.outputs[i].best_score)
        << i;
    EXPECT_EQ(executed.result.outputs[i].alignment.cigar,
              direct.outputs[i].alignment.cigar)
        << i;
  }
}

// ---------------------------------------------------------------------------
// Serve: when a LaunchTimeout exhausts the fleet's attempts (here one, on
// a one-worker fleet), the service fails the carrying requests with the
// watchdog's message in the ticket instead of answering them.

TEST(Watchdog, ServeTicketCarriesTimeoutError) {
  wsim::workload::GeneratorConfig gen;
  gen.seed = 5;
  gen.regions = 1;
  gen.sw_query_len_min = 40;
  gen.sw_query_len_max = 60;
  gen.sw_target_len_min = 60;
  gen.sw_target_len_max = 80;
  const auto dataset = wsim::workload::generate_dataset(gen);
  const auto tasks = wsim::workload::sw_all_tasks(dataset);
  ASSERT_FALSE(tasks.empty());

  wsim::fleet::FleetConfig fleet_cfg;
  fleet_cfg.workers.push_back({wsim::simt::make_k1200(), {}, {}, {}, 8});
  fleet_cfg.guard.max_block_cycles = 1;  // every batch times out
  fleet_cfg.retry.max_attempts = 1;      // the fleet would otherwise retry
  wsim::fleet::FleetExecutor executor(std::move(fleet_cfg));
  wsim::serve::ServiceConfig cfg;
  cfg.collect_outputs = true;
  cfg.fleet = &executor;
  wsim::serve::AlignmentService service(cfg);

  const auto submit = service.submit(
      wsim::serve::SwRequest{tasks.front(), wsim::serve::Priority::kNormal, {}, {}, {}});
  ASSERT_TRUE(submit.admitted());
  service.drain();

  EXPECT_FALSE(submit.ticket.ready());
  ASSERT_TRUE(submit.ticket.failed());
  EXPECT_NE(submit.ticket.error().find("cycle budget"), std::string::npos);

  const auto stats = service.stats();
  EXPECT_EQ(stats.watchdog_timeouts, 1U);
  EXPECT_EQ(stats.failed, 1U);
}

}  // namespace
