#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "wsim/simt/builder.hpp"
#include "wsim/simt/device.hpp"
#include "wsim/simt/engine.hpp"
#include "wsim/simt/runtime.hpp"
#include "wsim/util/check.hpp"

namespace {

using wsim::simt::BlockLaunch;
using wsim::simt::DeviceSpec;
using wsim::simt::EngineOptions;
using wsim::simt::ExecMode;
using wsim::simt::ExecutionEngine;
using wsim::simt::GlobalMemory;
using wsim::simt::imm_i64;
using wsim::simt::Kernel;
using wsim::simt::KernelBuilder;
using wsim::simt::LaunchOptions;
using wsim::simt::LaunchResult;
using wsim::simt::SReg;
using wsim::simt::VReg;

const DeviceSpec kDev = wsim::simt::make_k1200();

/// Kernel writing (block_id * 100 + tid) to its output slot, looping
/// `trips` times over a dummy accumulator so blocks have real cost.
Kernel make_writer_kernel() {
  KernelBuilder kb("writer", 32);
  const SReg out = kb.param();
  const SReg block_id = kb.param();
  const SReg trips = kb.param();
  const VReg t = kb.tid();
  const VReg acc = kb.mov(imm_i64(0));
  kb.loop(trips);
  kb.assign(acc, kb.iadd(acc, imm_i64(1)));
  kb.endloop();
  const VReg v = kb.iadd(kb.imul(kb.mov(block_id), imm_i64(100)), t);
  kb.stg(kb.iadd(out, kb.imul(t, imm_i64(4))), kb.iadd(v, kb.imul(acc, imm_i64(0))));
  return kb.build();
}

std::vector<BlockLaunch> make_blocks(GlobalMemory& gmem, int count, int trips,
                                     std::vector<std::int64_t>* outs = nullptr) {
  std::vector<BlockLaunch> blocks(static_cast<std::size_t>(count));
  for (int b = 0; b < count; ++b) {
    const auto out = gmem.alloc(32 * 4);
    if (outs != nullptr) {
      outs->push_back(out);
    }
    blocks[static_cast<std::size_t>(b)].args = {
        static_cast<std::uint64_t>(out), static_cast<std::uint64_t>(b),
        static_cast<std::uint64_t>(trips)};
    blocks[static_cast<std::size_t>(b)].shape_key = static_cast<std::uint64_t>(trips);
  }
  return blocks;
}

TEST(Runtime, FullModeExecutesEveryBlock) {
  const Kernel kernel = make_writer_kernel();
  GlobalMemory gmem;
  std::vector<std::int64_t> outs;
  const auto blocks = make_blocks(gmem, 5, 10, &outs);
  const LaunchResult result = wsim::simt::launch(kernel, kDev, gmem, blocks, {});
  for (int b = 0; b < 5; ++b) {
    const auto data = gmem.read_i32(outs[static_cast<std::size_t>(b)], 32);
    EXPECT_EQ(data[0], b * 100);
    EXPECT_EQ(data[31], b * 100 + 31);
  }
  EXPECT_GT(result.timing.cycles, 0);
}

TEST(Runtime, CachedModeSkipsSameShapeBlocks) {
  const Kernel kernel = make_writer_kernel();
  GlobalMemory gmem;
  std::vector<std::int64_t> outs;
  const auto blocks = make_blocks(gmem, 6, 10, &outs);
  LaunchOptions opt;
  opt.mode = ExecMode::kCachedByShape;
  const LaunchResult result = wsim::simt::launch(kernel, kDev, gmem, blocks, opt);
  // Only the representative (block 0) executed functionally...
  EXPECT_EQ(gmem.read_i32(outs[0], 1)[0], 0);
  EXPECT_EQ(gmem.read_i32(outs[5], 1)[0], 0);  // never written
  // ...but the aggregate instruction count covers all six blocks.
  const LaunchResult full = wsim::simt::launch(kernel, kDev, gmem, blocks, {});
  EXPECT_EQ(result.instructions, full.instructions);
  EXPECT_EQ(result.timing.cycles, full.timing.cycles);
}

TEST(Runtime, CachedModeDistinguishesShapes) {
  const Kernel kernel = make_writer_kernel();
  GlobalMemory gmem;
  auto blocks_a = make_blocks(gmem, 2, 10);
  auto blocks_b = make_blocks(gmem, 2, 500);
  blocks_a.insert(blocks_a.end(), blocks_b.begin(), blocks_b.end());
  LaunchOptions opt;
  opt.mode = ExecMode::kCachedByShape;
  const LaunchResult result = wsim::simt::launch(kernel, kDev, gmem, blocks_a, opt);
  const LaunchResult full = wsim::simt::launch(kernel, kDev, gmem, blocks_a, {});
  EXPECT_EQ(result.timing.cycles, full.timing.cycles);
}

TEST(Runtime, ExternalCachePersistsAcrossLaunches) {
  const Kernel kernel = make_writer_kernel();
  GlobalMemory gmem;
  const auto blocks = make_blocks(gmem, 4, 50);
  // A dedicated engine scopes the cost cache to this test.
  ExecutionEngine engine(EngineOptions{.threads = 1});
  LaunchOptions opt;
  opt.mode = ExecMode::kCachedByShape;
  const LaunchResult first = engine.launch(kernel, kDev, gmem, blocks, opt);
  EXPECT_EQ(engine.cost_cache_size(), 1U);
  EXPECT_EQ(first.blocks_executed, 1U);
  // Relaunch: cache hit, nothing executes, same timing.
  const LaunchResult again = engine.launch(kernel, kDev, gmem, blocks, opt);
  EXPECT_EQ(engine.cost_cache_size(), 1U);
  EXPECT_EQ(again.blocks_executed, 0U);
  EXPECT_EQ(again.timing.cycles, first.timing.cycles);
  EXPECT_GT(again.timing.cycles, 0);
}

TEST(Runtime, TransferTimeFollowsPcieModel) {
  const Kernel kernel = make_writer_kernel();
  GlobalMemory gmem;
  const auto blocks = make_blocks(gmem, 1, 10);
  LaunchOptions opt;
  opt.transfer.h2d_bytes = 11'000'000;  // 1 ms at 11 GB/s
  opt.transfer.d2h_bytes = 0;
  const LaunchResult result = wsim::simt::launch(kernel, kDev, gmem, blocks, opt);
  EXPECT_NEAR(result.transfer_seconds, 1e-3 + kDev.pcie_latency_us * 1e-6, 1e-6);
  EXPECT_NEAR(result.overhead_seconds, kDev.kernel_launch_overhead_us * 1e-6, 1e-12);
  EXPECT_GT(result.total_seconds(), result.kernel_seconds);
}

TEST(Runtime, NoTransferNoLatency) {
  const Kernel kernel = make_writer_kernel();
  GlobalMemory gmem;
  const auto blocks = make_blocks(gmem, 1, 10);
  const LaunchResult result = wsim::simt::launch(kernel, kDev, gmem, blocks, {});
  EXPECT_DOUBLE_EQ(result.transfer_seconds, 0.0);
}

TEST(Runtime, BothDirectionsPayLatency) {
  const Kernel kernel = make_writer_kernel();
  GlobalMemory gmem;
  const auto blocks = make_blocks(gmem, 1, 10);
  LaunchOptions opt;
  opt.transfer.h2d_bytes = 1;
  opt.transfer.d2h_bytes = 1;
  const LaunchResult result = wsim::simt::launch(kernel, kDev, gmem, blocks, opt);
  EXPECT_GT(result.transfer_seconds, 2 * kDev.pcie_latency_us * 1e-6 * 0.99);
}

TEST(Runtime, EmptyGridRejected) {
  const Kernel kernel = make_writer_kernel();
  GlobalMemory gmem;
  EXPECT_THROW(wsim::simt::launch(kernel, kDev, gmem, {}, {}), wsim::util::CheckError);
}

TEST(Runtime, MoreBlocksTakeLonger) {
  const Kernel kernel = make_writer_kernel();
  GlobalMemory gmem;
  const auto few = make_blocks(gmem, 4, 2000);
  const auto many = make_blocks(gmem, 512, 2000);
  LaunchOptions opt;
  opt.mode = ExecMode::kCachedByShape;
  const auto t_few = wsim::simt::launch(kernel, kDev, gmem, few, opt).timing.cycles;
  const auto t_many = wsim::simt::launch(kernel, kDev, gmem, many, opt).timing.cycles;
  EXPECT_GT(t_many, t_few);
}

TEST(Runtime, TitanXBeatsK1200OnBigGrids) {
  const Kernel kernel = make_writer_kernel();
  GlobalMemory gmem;
  const auto blocks = make_blocks(gmem, 512, 2000);
  LaunchOptions opt;
  opt.mode = ExecMode::kCachedByShape;
  const auto titan = wsim::simt::make_titan_x();
  const double k1200_s =
      wsim::simt::launch(kernel, kDev, gmem, blocks, opt).kernel_seconds;
  const double titan_s =
      wsim::simt::launch(kernel, titan, gmem, blocks, opt).kernel_seconds;
  EXPECT_LT(titan_s, k1200_s);
}

}  // namespace
