// Concurrency and reuse contract of the decoded-program cache: each
// (kernel, device) identity is decoded exactly once per process no matter
// how many threads race on first use, engine launches share one decoded
// program across workers, and distinct kernels/devices get distinct
// programs. Built into the ThreadSanitizer CI job — the assertions here
// are the functional half, TSan provides the data-race half.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "wsim/obs/metrics.hpp"
#include "wsim/obs/obs.hpp"
#include "wsim/simt/builder.hpp"
#include "wsim/simt/decode.hpp"
#include "wsim/simt/device.hpp"
#include "wsim/simt/engine.hpp"
#include "wsim/simt/memory.hpp"

namespace {

using wsim::simt::DecodedProgram;
using wsim::simt::DecodedProgramCache;
using wsim::simt::DeviceSpec;
using wsim::simt::imm_i64;
using wsim::simt::Kernel;
using wsim::simt::KernelBuilder;
using wsim::simt::VReg;

Kernel build_store_kernel(const std::string& name, int rounds) {
  KernelBuilder kb(name, 32);
  const auto out = kb.param();
  const VReg t = kb.tid();
  VReg acc = kb.mov(imm_i64(0));
  kb.loop(imm_i64(rounds));
  kb.assign(acc, kb.iadd(acc, kb.shfl_down(t, imm_i64(1))));
  kb.endloop();
  kb.stg(kb.iadd(out, kb.imul(t, imm_i64(4))), acc);
  return kb.build();
}

TEST(DecodeCache, RacingThreadsDecodeEachIdentityOnce) {
  DecodedProgramCache cache;
  const Kernel kernel = build_store_kernel("race_once", 4);
  const DeviceSpec device = wsim::simt::make_k1200();

  constexpr int kThreads = 8;
  std::vector<std::shared_ptr<const DecodedProgram>> programs(kThreads);
  {
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int i = 0; i < kThreads; ++i) {
      threads.emplace_back(
          [&, i] { programs[static_cast<std::size_t>(i)] = cache.get(kernel, device); });
    }
    for (auto& t : threads) {
      t.join();
    }
  }
  EXPECT_EQ(cache.decode_count(), 1U);
  EXPECT_EQ(cache.size(), 1U);
  for (int i = 1; i < kThreads; ++i) {
    // Pointer equality: every thread sees the one shared program.
    EXPECT_EQ(programs[static_cast<std::size_t>(i)].get(), programs[0].get());
  }
}

TEST(DecodeCache, DistinctKernelsAndDevicesDecodeSeparately) {
  DecodedProgramCache cache;
  constexpr int kKernels = 6;
  std::vector<Kernel> kernels;
  kernels.reserve(kKernels);
  for (int k = 0; k < kKernels; ++k) {
    kernels.push_back(build_store_kernel("distinct_" + std::to_string(k), k + 1));
  }
  const auto devices = wsim::simt::all_devices();

  constexpr int kThreads = 6;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&] {
      for (const Kernel& kernel : kernels) {
        for (const DeviceSpec& device : devices) {
          ASSERT_NE(cache.get(kernel, device), nullptr);
        }
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  const std::uint64_t expected =
      static_cast<std::uint64_t>(kKernels) * devices.size();
  EXPECT_EQ(cache.decode_count(), expected);
  EXPECT_EQ(cache.size(), expected);

  // Same kernel on different devices is a different identity (latencies
  // are baked in), so no cross-device aliasing is possible.
  const auto k40 = cache.get(kernels[0], wsim::simt::make_k40());
  const auto titan = cache.get(kernels[0], wsim::simt::make_titan_x());
  EXPECT_NE(k40.get(), titan.get());
  EXPECT_NE(k40->identity, titan->identity);
  EXPECT_EQ(cache.decode_count(), expected);  // hits, not re-decodes
}

/// The value of gauge `name` in the metrics dump (-1 when absent).
double gauge(const std::string& name) {
  std::ostringstream os;
  wsim::obs::write_metrics_json(os);
  const std::string json = os.str();
  const std::string key = "\"" + name + "\": ";
  const std::size_t at = json.find(key);
  return at == std::string::npos ? -1.0 : std::stod(json.substr(at + key.size()));
}

TEST(DecodeCache, EntriesGaugeFollowsTheCache) {
  wsim::obs::set_level(wsim::obs::Level::kMetrics);
  wsim::obs::reset_metrics();
  DecodedProgramCache cache;
  const DeviceSpec device = wsim::simt::make_k1200();
  for (int k = 0; k < 3; ++k) {
    cache.get(build_store_kernel("gauge_" + std::to_string(k), k + 1), device);
    EXPECT_EQ(gauge("simt.decode_cache.entries"), static_cast<double>(cache.size()));
  }
  EXPECT_EQ(cache.size(), 3U);
  cache.clear();
  EXPECT_EQ(gauge("simt.decode_cache.entries"), 0.0);
  wsim::obs::set_level(wsim::obs::Level::kOff);
}

TEST(DecodeCache, ConcurrentEngineLaunchesShareTheProcessCache) {
  // Multi-threaded launches through two engines stress the shared
  // process-wide cache the way production does; under TSan this is the
  // race check for the fast path's predecode step.
  const Kernel kernel = build_store_kernel("engine_shared", 8);
  const DeviceSpec device = wsim::simt::make_titan_x();
  const std::uint64_t decodes_before =
      wsim::simt::shared_decoded_cache().decode_count();

  wsim::simt::EngineOptions engine_options;
  engine_options.threads = 4;
  wsim::simt::ExecutionEngine engine_a(engine_options);
  wsim::simt::ExecutionEngine engine_b(engine_options);

  const auto launch_many = [&](wsim::simt::ExecutionEngine& engine) {
    wsim::simt::GlobalMemory gmem;
    constexpr int kBlocks = 16;
    const std::int64_t out = gmem.alloc(kBlocks * 32 * 4);
    std::vector<wsim::simt::BlockLaunch> blocks(kBlocks);
    for (int b = 0; b < kBlocks; ++b) {
      blocks[static_cast<std::size_t>(b)].args = {
          static_cast<std::uint64_t>(out + b * 32 * 4)};
    }
    const auto result = engine.launch(kernel, device, gmem, blocks);
    EXPECT_EQ(result.blocks_executed, static_cast<std::uint64_t>(kBlocks));
  };

  std::thread ta([&] { launch_many(engine_a); });
  std::thread tb([&] { launch_many(engine_b); });
  ta.join();
  tb.join();

  // Both engines, all workers: at most one new decode for this identity.
  EXPECT_LE(wsim::simt::shared_decoded_cache().decode_count(),
            decodes_before + 1);
}

}  // namespace
