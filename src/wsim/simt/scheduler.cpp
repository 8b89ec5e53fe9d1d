#include "wsim/simt/scheduler.hpp"

#include <algorithm>
#include <functional>
#include <vector>

#include "wsim/util/check.hpp"

namespace wsim::simt {

KernelTiming schedule_blocks(const DeviceSpec& device, const Occupancy& occupancy,
                             std::span<const BlockCost> blocks) {
  util::require(occupancy.blocks_per_sm > 0, "schedule_blocks: occupancy must allow >= 1 block");
  KernelTiming timing;
  if (blocks.empty()) {
    return timing;
  }

  struct Slot {
    long long free_at = 0;
    int rank = 0;  ///< slot index within its SM: ties spread across SMs first
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

  // Blocks dispatch to the earliest-free slot. Until every slot has been
  // taken that slot is known without a heap: untaken slots are free at
  // cycle 0 and go in (rank, sm) order, so the f-th is rank f / sm_count on
  // SM f % sm_count, and a taken slot frees after cycle 0 — unless its block
  // ended at or before cycle 0, which leaves that slot the earliest free for
  // the next block. A grid that fits the resident slots (one wave under
  // Eq. 8) therefore costs O(blocks); the heap is built once, when the last
  // untaken slot is gone.
  const auto sm_count = static_cast<std::size_t>(device.sm_count);
  const std::size_t slot_count =
      sm_count * static_cast<std::size_t>(occupancy.blocks_per_sm);
  std::vector<Slot> taken;  // a min-heap once every slot is taken
  taken.reserve(std::min(blocks.size(), slot_count));
  Slot next;  // the earliest-free slot while untaken ones remain

  std::vector<long long> sm_throughput_cycles(std::min(sm_count, blocks.size()), 0);
  long long latency_makespan = 0;
  for (const BlockCost& block : blocks) {
    const bool first_wave = taken.size() < slot_count;
    Slot slot = next;
    if (!first_wave) {
      std::pop_heap(taken.begin(), taken.end(), std::greater<>{});
      slot = taken.back();
      taken.pop_back();
    }
    slot.free_at += block.latency_cycles;
    latency_makespan = std::max(latency_makespan, slot.free_at);
    // Issue-slot serialization: schedulers_per_sm instructions retire per
    // cycle; the smem port serves one warp-wide transaction per cycle.
    const long long issue_cycles =
        static_cast<long long>((block.issue_slots + device.schedulers_per_sm - 1) /
                               static_cast<std::uint64_t>(device.schedulers_per_sm));
    const long long smem_cycles = static_cast<long long>(block.smem_transactions);
    sm_throughput_cycles[static_cast<std::size_t>(slot.sm)] +=
        std::max(issue_cycles, smem_cycles);
    if (!first_wave) {
      taken.push_back(slot);
      std::push_heap(taken.begin(), taken.end(), std::greater<>{});
    } else if (slot.free_at <= 0) {
      next = slot;
    } else {
      taken.push_back(slot);
      const std::size_t f = taken.size();
      next = {0, static_cast<int>(f / sm_count), static_cast<int>(f % sm_count)};
      if (f == slot_count) {
        std::make_heap(taken.begin(), taken.end(), std::greater<>{});
      }
    }
  }

  timing.latency_bound_cycles = latency_makespan;
  timing.throughput_bound_cycles =
      *std::max_element(sm_throughput_cycles.begin(), sm_throughput_cycles.end());
  timing.cycles = std::max(timing.latency_bound_cycles, timing.throughput_bound_cycles);
  timing.seconds = static_cast<double>(timing.cycles) / (device.clock_ghz * 1e9);
  return timing;
}

}  // namespace wsim::simt
