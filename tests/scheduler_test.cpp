#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <queue>
#include <span>
#include <string>
#include <vector>

#include "wsim/simt/device.hpp"
#include "wsim/simt/occupancy.hpp"
#include "wsim/simt/scheduler.hpp"
#include "wsim/util/rng.hpp"

namespace {

using wsim::simt::BlockCost;
using wsim::simt::compute_occupancy;
using wsim::simt::DeviceSpec;
using wsim::simt::KernelTiming;
using wsim::simt::schedule_blocks;

const DeviceSpec kDev = wsim::simt::make_k1200();  // 4 SMs

TEST(Scheduler, EmptyGridIsFree) {
  const auto occ = compute_occupancy(kDev, 32, 16, 0);
  const KernelTiming t = schedule_blocks(kDev, occ, {});
  EXPECT_EQ(t.cycles, 0);
}

TEST(Scheduler, SingleBlockLatencyDominates) {
  const auto occ = compute_occupancy(kDev, 32, 16, 0);
  const std::vector<BlockCost> blocks = {{10000, 100, 10}};
  const KernelTiming t = schedule_blocks(kDev, occ, blocks);
  EXPECT_EQ(t.cycles, 10000);
}

TEST(Scheduler, FewBlocksSpreadAcrossSms) {
  // 4 blocks on 4 SMs run fully in parallel.
  const auto occ = compute_occupancy(kDev, 32, 16, 0);
  const std::vector<BlockCost> blocks(4, BlockCost{5000, 100, 10});
  const KernelTiming t = schedule_blocks(kDev, occ, blocks);
  EXPECT_EQ(t.latency_bound_cycles, 5000);
}

TEST(Scheduler, OversubscriptionSerializesWaves) {
  // occupancy 1 block/SM (heavy smem), 8 identical blocks on 4 SMs -> two
  // waves.
  const auto occ = compute_occupancy(kDev, 32, 16, 49152);
  ASSERT_EQ(occ.blocks_per_sm, 1);
  const std::vector<BlockCost> blocks(8, BlockCost{5000, 100, 10});
  const KernelTiming t = schedule_blocks(kDev, occ, blocks);
  EXPECT_EQ(t.latency_bound_cycles, 10000);
}

TEST(Scheduler, HigherOccupancyHidesLatency) {
  const auto occ1 = compute_occupancy(kDev, 32, 16, 49152);  // 1 block/SM
  const auto occ8 = compute_occupancy(kDev, 32, 16, 8192);   // 8 blocks/SM
  ASSERT_GT(occ8.blocks_per_sm, occ1.blocks_per_sm);
  const std::vector<BlockCost> blocks(64, BlockCost{5000, 100, 10});
  const KernelTiming low = schedule_blocks(kDev, occ1, blocks);
  const KernelTiming high = schedule_blocks(kDev, occ8, blocks);
  EXPECT_LT(high.cycles, low.cycles);
}

TEST(Scheduler, ThroughputBoundKicksInWhenSaturated) {
  // Blocks with enormous instruction counts: even fully overlapped, the
  // issue ports serialize them.
  const auto occ = compute_occupancy(kDev, 32, 16, 0);  // 32 blocks/SM
  const std::vector<BlockCost> blocks(128, BlockCost{100, 400000, 0});
  const KernelTiming t = schedule_blocks(kDev, occ, blocks);
  // 128 blocks / 4 SMs = 32 blocks/SM; each needs 400000/4 = 100000 issue
  // cycles -> 3.2M cycles per SM.
  EXPECT_EQ(t.throughput_bound_cycles, 3200000);
  EXPECT_EQ(t.cycles, 3200000);
}

TEST(Scheduler, SmemPortBoundsThroughput) {
  const auto occ = compute_occupancy(kDev, 32, 16, 0);
  // smem transactions dominate the issue count here.
  const std::vector<BlockCost> blocks(4, BlockCost{100, 100, 50000});
  const KernelTiming t = schedule_blocks(kDev, occ, blocks);
  EXPECT_EQ(t.throughput_bound_cycles, 50000);
}

TEST(Scheduler, HeterogeneousBlocksBalanceGreedily) {
  // One long block and many short ones: greedy dispatch must not stack the
  // long one behind shorts on a busy SM when an idle slot exists.
  const auto occ = compute_occupancy(kDev, 32, 16, 49152);  // 1 block/SM
  std::vector<BlockCost> blocks(3, BlockCost{1000, 10, 0});
  blocks.push_back({9000, 10, 0});
  const KernelTiming t = schedule_blocks(kDev, occ, blocks);
  EXPECT_EQ(t.latency_bound_cycles, 9000);
}

TEST(Scheduler, SecondsFollowClock) {
  const auto occ = compute_occupancy(kDev, 32, 16, 0);
  const std::vector<BlockCost> blocks = {{static_cast<long long>(kDev.clock_ghz * 1e9),
                                          100, 0}};
  const KernelTiming t = schedule_blocks(kDev, occ, blocks);
  EXPECT_NEAR(t.seconds, 1.0, 1e-9);
}

TEST(Scheduler, MoreSmsFinishSooner) {
  const DeviceSpec titan = wsim::simt::make_titan_x();  // 24 SMs
  const auto occ_k = compute_occupancy(kDev, 32, 16, 49152);
  const auto occ_t = compute_occupancy(titan, 32, 16, 49152);
  const std::vector<BlockCost> blocks(96, BlockCost{1000, 10, 0});
  EXPECT_LT(schedule_blocks(titan, occ_t, blocks).cycles,
            schedule_blocks(kDev, occ_k, blocks).cycles);
}

}  // namespace

namespace {

class SchedulerPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SchedulerPropertyTest, MakespanRespectsLowerBounds) {
  wsim::util::Rng rng(GetParam());
  const auto occ = compute_occupancy(
      kDev, 32, 32, static_cast<int>(rng.uniform_int(0, 16384)));
  std::vector<BlockCost> blocks(static_cast<std::size_t>(rng.uniform_int(1, 200)));
  long long max_latency = 0;
  std::uint64_t total_issue = 0;
  std::uint64_t total_smem = 0;
  for (auto& b : blocks) {
    b.latency_cycles = rng.uniform_int(1, 100000);
    b.issue_slots = static_cast<std::uint64_t>(rng.uniform_int(1, 50000));
    b.smem_transactions = static_cast<std::uint64_t>(rng.uniform_int(0, 20000));
    max_latency = std::max(max_latency, b.latency_cycles);
    total_issue += b.issue_slots;
    total_smem += b.smem_transactions;
  }
  const KernelTiming t = schedule_blocks(kDev, occ, blocks);
  // No schedule can beat the longest block...
  EXPECT_GE(t.cycles, max_latency);
  // ...nor the aggregate issue/smem work spread over every SM port.
  const long long issue_floor = static_cast<long long>(
      total_issue / static_cast<std::uint64_t>(kDev.sm_count * kDev.schedulers_per_sm));
  EXPECT_GE(t.cycles, issue_floor);
  const long long smem_floor =
      static_cast<long long>(total_smem / static_cast<std::uint64_t>(kDev.sm_count));
  EXPECT_GE(t.cycles, smem_floor);
  // And the components are consistent.
  EXPECT_EQ(t.cycles, std::max(t.latency_bound_cycles, t.throughput_bound_cycles));
}

TEST_P(SchedulerPropertyTest, MoreConcurrencyNeverHurtsLatencySchedule) {
  wsim::util::Rng rng(GetParam() ^ 0x5EEDULL);
  std::vector<BlockCost> blocks(static_cast<std::size_t>(rng.uniform_int(1, 100)));
  for (auto& b : blocks) {
    b.latency_cycles = rng.uniform_int(1, 50000);
    b.issue_slots = 1;
    b.smem_transactions = 0;
  }
  const auto occ1 = compute_occupancy(kDev, 32, 16, 49152);  // 1 block/SM
  const auto occ8 = compute_occupancy(kDev, 32, 16, 8192);   // 8 blocks/SM
  EXPECT_LE(schedule_blocks(kDev, occ8, blocks).latency_bound_cycles,
            schedule_blocks(kDev, occ1, blocks).latency_bound_cycles);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchedulerPropertyTest,
                         ::testing::Range<std::uint64_t>(0, 20));

}  // namespace

namespace {

using wsim::simt::Occupancy;

/// The heap list scheduler schedule_blocks ran before its one-wave closed
/// form, kept as the differential reference: every slot is pushed, and each
/// block pops the earliest-free one.
KernelTiming reference_schedule(const DeviceSpec& device, const Occupancy& occupancy,
                                std::span<const BlockCost> blocks) {
  KernelTiming timing;
  if (blocks.empty()) {
    return timing;
  }
  struct Slot {
    long long free_at = 0;
    int rank = 0;
    int sm = 0;
    bool operator>(const Slot& other) const noexcept {
      if (free_at != other.free_at) {
        return free_at > other.free_at;
      }
      if (rank != other.rank) {
        return rank > other.rank;
      }
      return sm > other.sm;
    }
  };
  std::priority_queue<Slot, std::vector<Slot>, std::greater<>> slots;
  for (int sm = 0; sm < device.sm_count; ++sm) {
    for (int s = 0; s < occupancy.blocks_per_sm; ++s) {
      slots.push({0, s, sm});
    }
  }
  std::vector<long long> sm_throughput_cycles(static_cast<std::size_t>(device.sm_count),
                                              0);
  long long latency_makespan = 0;
  for (const BlockCost& block : blocks) {
    Slot slot = slots.top();
    slots.pop();
    const long long finish = slot.free_at + block.latency_cycles;
    latency_makespan = std::max(latency_makespan, finish);
    const long long issue_cycles =
        static_cast<long long>((block.issue_slots + device.schedulers_per_sm - 1) /
                               static_cast<std::uint64_t>(device.schedulers_per_sm));
    const long long smem_cycles = static_cast<long long>(block.smem_transactions);
    sm_throughput_cycles[static_cast<std::size_t>(slot.sm)] +=
        std::max(issue_cycles, smem_cycles);
    slot.free_at = finish;
    slots.push(slot);
  }
  timing.latency_bound_cycles = latency_makespan;
  timing.throughput_bound_cycles =
      *std::max_element(sm_throughput_cycles.begin(), sm_throughput_cycles.end());
  timing.cycles = std::max(timing.latency_bound_cycles, timing.throughput_bound_cycles);
  timing.seconds = static_cast<double>(timing.cycles) / (device.clock_ghz * 1e9);
  return timing;
}

/// How a generated grid's latencies are drawn.
enum class Latencies { kRandom, kEqual, kZerosAtStart, kZerosInMiddle, kZerosAtEnd };

/// `n` blocks with random issue/smem costs. The kZeros* shapes put a run of
/// zero-latency blocks at the start, middle or end of the first wave of
/// `slots` blocks; kRandom makes about one block in five zero-latency.
std::vector<BlockCost> make_grid(wsim::util::Rng& rng, std::size_t n, std::size_t slots,
                                 Latencies shape) {
  std::vector<BlockCost> blocks(n);
  const long long equal = rng.uniform_int(1, 5000);
  for (BlockCost& b : blocks) {
    b.latency_cycles = shape == Latencies::kEqual ? equal : rng.uniform_int(1, 5000);
    if (shape == Latencies::kRandom && rng.uniform_int(0, 4) == 0) {
      b.latency_cycles = 0;
    }
    b.issue_slots = static_cast<std::uint64_t>(rng.uniform_int(0, 20000));
    b.smem_transactions = static_cast<std::uint64_t>(rng.uniform_int(0, 8000));
  }
  const std::size_t wave = std::min(n, slots);
  const std::size_t run = std::min(wave, static_cast<std::size_t>(rng.uniform_int(1, 6)));
  std::size_t first = 0;
  switch (shape) {
    case Latencies::kZerosAtStart:
      break;
    case Latencies::kZerosInMiddle:
      first = (wave - run) / 2;
      break;
    case Latencies::kZerosAtEnd:
      first = wave - run;
      break;
    case Latencies::kRandom:
    case Latencies::kEqual:
      return blocks;
  }
  for (std::size_t i = first; i < first + run; ++i) {
    blocks[i].latency_cycles = 0;
  }
  return blocks;
}

class SchedulerDifferentialTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SchedulerDifferentialTest, MatchesTheHeapScheduler) {
  wsim::util::Rng rng(GetParam() * 0x9E3779B97F4A7C15ULL + 1);
  DeviceSpec device = kDev;
  device.sm_count = static_cast<int>(rng.uniform_int(1, 30));
  Occupancy occupancy;
  occupancy.blocks_per_sm = static_cast<int>(rng.uniform_int(1, 32));
  const std::size_t slots = static_cast<std::size_t>(device.sm_count) *
                            static_cast<std::size_t>(occupancy.blocks_per_sm);
  const auto any_size = static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(3 * slots)));
  const std::size_t sizes[] = {0,         1,         slots - 1, slots,
                               slots + 1, 2 * slots, 3 * slots, any_size};
  for (const std::size_t n : sizes) {
    for (const Latencies shape :
         {Latencies::kRandom, Latencies::kEqual, Latencies::kZerosAtStart,
          Latencies::kZerosInMiddle, Latencies::kZerosAtEnd}) {
      const std::vector<BlockCost> blocks = make_grid(rng, n, slots, shape);
      const KernelTiming want = reference_schedule(device, occupancy, blocks);
      const KernelTiming got = schedule_blocks(device, occupancy, blocks);
      const std::string where =
          "sm_count " + std::to_string(device.sm_count) + ", blocks_per_sm " +
          std::to_string(occupancy.blocks_per_sm) + ", n " + std::to_string(n) +
          ", shape " + std::to_string(static_cast<int>(shape));
      EXPECT_EQ(got.cycles, want.cycles) << where;
      EXPECT_EQ(got.seconds, want.seconds) << where;
      EXPECT_EQ(got.latency_bound_cycles, want.latency_bound_cycles) << where;
      EXPECT_EQ(got.throughput_bound_cycles, want.throughput_bound_cycles) << where;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchedulerDifferentialTest,
                         ::testing::Range<std::uint64_t>(0, 40));

}  // namespace
