#include "wsim/simt/engine.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <functional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "wsim/kernels/nw_kernels.hpp"
#include "wsim/kernels/ph_kernels.hpp"
#include "wsim/kernels/sw_kernels.hpp"
#include "wsim/kernels/wavefront_kernels.hpp"
#include "wsim/simt/builder.hpp"
#include "wsim/simt/device.hpp"
#include "wsim/simt/watchdog.hpp"
#include "wsim/util/check.hpp"
#include "wsim/util/rng.hpp"

namespace {

using wsim::simt::BlockLaunch;
using wsim::simt::DeviceSpec;
using wsim::simt::EngineOptions;
using wsim::simt::ExecMode;
using wsim::simt::ExecutionEngine;
using wsim::simt::GlobalMemory;
using wsim::simt::GmemWriteSet;
using wsim::simt::imm_i64;
using wsim::simt::Kernel;
using wsim::simt::KernelBuilder;
using wsim::simt::LaunchOptions;
using wsim::simt::LaunchResult;
using wsim::simt::SReg;
using wsim::simt::VReg;

const DeviceSpec kDev = wsim::simt::make_k1200();

std::string random_dna(wsim::util::Rng& rng, int len) {
  std::string s(static_cast<std::size_t>(len), 'A');
  for (char& c : s) {
    c = "ACGT"[rng.uniform_int(0, 3)];
  }
  return s;
}

/// Writes (block_id * 100 + tid) to out[tid] after `trips` loop iterations.
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

std::vector<BlockLaunch> make_blocks(GlobalMemory& gmem, int count, int trips) {
  std::vector<BlockLaunch> blocks(static_cast<std::size_t>(count));
  for (int b = 0; b < count; ++b) {
    const auto out = gmem.alloc(32 * 4);
    blocks[static_cast<std::size_t>(b)].args = {
        static_cast<std::uint64_t>(out), static_cast<std::uint64_t>(b),
        static_cast<std::uint64_t>(trips)};
    blocks[static_cast<std::size_t>(b)].shape_key =
        static_cast<std::uint64_t>(trips + b % 3);
  }
  return blocks;
}

void expect_identical(const LaunchResult& a, const LaunchResult& b) {
  EXPECT_EQ(a.timing.cycles, b.timing.cycles);
  EXPECT_EQ(a.instructions, b.instructions);
  EXPECT_EQ(a.smem_transactions, b.smem_transactions);
  EXPECT_EQ(a.blocks_executed, b.blocks_executed);
  EXPECT_EQ(a.representative.cycles, b.representative.cycles);
  EXPECT_EQ(a.representative.instructions, b.representative.instructions);
  EXPECT_EQ(a.kernel_seconds, b.kernel_seconds);  // bit-identical doubles
  EXPECT_EQ(a.h2d_seconds, b.h2d_seconds);
  EXPECT_EQ(a.d2h_seconds, b.d2h_seconds);
  EXPECT_EQ(a.transfer_seconds, b.transfer_seconds);
  EXPECT_EQ(a.overhead_seconds, b.overhead_seconds);
  EXPECT_EQ(a.total_seconds(), b.total_seconds());
}

TEST(ExecutionEngine, ParallelGridMatchesSequentialBitForBit) {
  const Kernel kernel = make_writer_kernel();
  for (const ExecMode mode : {ExecMode::kFull, ExecMode::kCachedByShape}) {
    LaunchOptions opt;
    opt.mode = mode;
    opt.transfer.h2d_bytes = 4096;
    opt.transfer.d2h_bytes = 1024;

    ExecutionEngine sequential(EngineOptions{.threads = 1});
    GlobalMemory gmem_seq;
    const auto blocks_seq = make_blocks(gmem_seq, 17, 200);
    const LaunchResult base = sequential.launch(kernel, kDev, gmem_seq, blocks_seq, opt);

    for (const int threads : {2, 8}) {
      ExecutionEngine engine(EngineOptions{.threads = threads});
      GlobalMemory gmem;
      const auto blocks = make_blocks(gmem, 17, 200);
      const LaunchResult result = engine.launch(kernel, kDev, gmem, blocks, opt);
      expect_identical(base, result);
      ASSERT_EQ(gmem.size(), gmem_seq.size());
      EXPECT_EQ(gmem.read_u8(0, gmem.size()), gmem_seq.read_u8(0, gmem_seq.size()))
          << threads << " threads, mode " << static_cast<int>(mode);
    }
  }
}

TEST(ExecutionEngine, SwRunnerDeterministicAcrossThreadCounts) {
  wsim::util::Rng rng(7);
  wsim::workload::SwBatch batch;
  for (int t = 0; t < 8; ++t) {
    batch.push_back({random_dna(rng, 40 + 8 * (t % 3)), random_dna(rng, 64)});
  }
  const wsim::kernels::SwRunner runner(wsim::kernels::CommMode::kShuffle);

  ExecutionEngine sequential(EngineOptions{.threads = 1});
  wsim::kernels::SwRunOptions opt;
  opt.collect_outputs = true;
  opt.engine = &sequential;
  const auto base = runner.run_batch(kDev, batch, opt);

  for (const int threads : {2, 8}) {
    ExecutionEngine engine(EngineOptions{.threads = threads});
    opt.engine = &engine;
    const auto result = runner.run_batch(kDev, batch, opt);
    expect_identical(base.run.launch, result.run.launch);
    ASSERT_EQ(result.outputs.size(), base.outputs.size());
    for (std::size_t t = 0; t < base.outputs.size(); ++t) {
      EXPECT_EQ(result.outputs[t].best_score, base.outputs[t].best_score);
      EXPECT_EQ(result.outputs[t].alignment.cigar, base.outputs[t].alignment.cigar);
    }
  }

  // Cached-by-shape timing runs (no outputs) must agree as well.
  wsim::kernels::SwRunOptions cached;
  cached.mode = ExecMode::kCachedByShape;
  cached.engine = &sequential;
  const auto cached_base = runner.run_batch(kDev, batch, cached);
  for (const int threads : {2, 8}) {
    ExecutionEngine engine(EngineOptions{.threads = threads});
    cached.engine = &engine;
    expect_identical(cached_base.run.launch,
                     runner.run_batch(kDev, batch, cached).run.launch);
  }
}

TEST(ExecutionEngine, PhRunnerDeterministicAcrossThreadCounts) {
  wsim::util::Rng rng(11);
  wsim::workload::PhBatch batch;
  for (int t = 0; t < 6; ++t) {
    wsim::align::PairHmmTask task;
    task.hap = random_dna(rng, 90 + 10 * (t % 2));
    task.read = random_dna(rng, 40 + 16 * (t % 3));
    task.base_quals.assign(task.read.size(), 30);
    task.ins_quals.assign(task.read.size(), 45);
    task.del_quals.assign(task.read.size(), 45);
    batch.push_back(std::move(task));
  }
  const wsim::kernels::PhRunner runner(wsim::kernels::PhDesign::kShuffle);

  ExecutionEngine sequential(EngineOptions{.threads = 1});
  wsim::kernels::PhRunOptions opt;
  opt.collect_outputs = true;
  opt.double_fallback = true;
  opt.engine = &sequential;
  const auto base = runner.run_batch(kDev, batch, opt);

  for (const int threads : {2, 8}) {
    ExecutionEngine engine(EngineOptions{.threads = threads});
    opt.engine = &engine;
    const auto result = runner.run_batch(kDev, batch, opt);
    expect_identical(base.run.launch, result.run.launch);
    EXPECT_EQ(result.log10, base.log10);  // bit-identical likelihoods

    // Cold cached runs on both sides: cost caches persist per engine, so
    // the sequential reference gets a fresh engine every round.
    wsim::kernels::PhRunOptions cached;
    cached.mode = ExecMode::kCachedByShape;
    cached.engine = &engine;
    ExecutionEngine cold_sequential(EngineOptions{.threads = 1});
    wsim::kernels::PhRunOptions cached_seq = cached;
    cached_seq.engine = &cold_sequential;
    expect_identical(runner.run_batch(kDev, batch, cached_seq).run.launch,
                     runner.run_batch(kDev, batch, cached).run.launch);
  }
}

TEST(ExecutionEngine, RepresentativeIsFirstExecutedBlock) {
  const Kernel kernel = make_writer_kernel();
  ExecutionEngine engine(EngineOptions{.threads = 4});
  GlobalMemory gmem;
  auto blocks = make_blocks(gmem, 6, 50);
  const LaunchResult result = engine.launch(kernel, kDev, gmem, blocks, {});
  // Block 0 writes lane values 0..31; its record is the representative.
  EXPECT_EQ(result.representative.instructions,
            result.instructions / 6);
  EXPECT_EQ(result.blocks_executed, 6U);
}

TEST(ExecutionEngine, WriteOverlapCheckerCatchesRacyGrid) {
  const Kernel kernel = make_writer_kernel();
  ExecutionEngine engine(EngineOptions{.threads = 4, .check_write_overlap = true});

  // Disjoint per-block outputs: fine.
  {
    GlobalMemory gmem;
    const auto blocks = make_blocks(gmem, 8, 20);
    EXPECT_NO_THROW(engine.launch(kernel, kDev, gmem, blocks, {}));
  }

  // Deliberately racy: every block writes the same 128-byte output row.
  {
    GlobalMemory gmem;
    const auto out = gmem.alloc(32 * 4);
    std::vector<BlockLaunch> blocks(3);
    for (int b = 0; b < 3; ++b) {
      blocks[static_cast<std::size_t>(b)].args = {
          static_cast<std::uint64_t>(out), static_cast<std::uint64_t>(b),
          std::uint64_t{20}};
    }
    EXPECT_THROW(engine.launch(kernel, kDev, gmem, blocks, {}),
                 wsim::util::CheckError);
  }

  // The same racy grid passes silently when checking is off (the races are
  // benign for timing, which is all non-checking runs promise).
  {
    ExecutionEngine unchecked(EngineOptions{.threads = 4});
    GlobalMemory gmem;
    const auto out = gmem.alloc(32 * 4);
    std::vector<BlockLaunch> blocks(2);
    for (int b = 0; b < 2; ++b) {
      blocks[static_cast<std::size_t>(b)].args = {
          static_cast<std::uint64_t>(out), static_cast<std::uint64_t>(b),
          std::uint64_t{20}};
    }
    EXPECT_NO_THROW(unchecked.launch(kernel, kDev, gmem, blocks, {}));
  }
}

TEST(ExecutionEngine, EngineCacheKeysByKernelAndShape) {
  ExecutionEngine engine(EngineOptions{.threads = 2});
  const Kernel writer = make_writer_kernel();

  LaunchOptions opt;
  opt.mode = ExecMode::kCachedByShape;

  GlobalMemory gmem;
  const auto blocks = make_blocks(gmem, 4, 30);  // shape keys {30, 31, 32}
  engine.launch(writer, kDev, gmem, blocks, opt);
  const std::size_t after_writer = engine.cost_cache_size();
  EXPECT_EQ(after_writer, 3U);

  // Same launch again: every shape hits; the cache does not grow and the
  // timing is reproduced from memoized costs.
  const LaunchResult warm = engine.launch(writer, kDev, gmem, blocks, opt);
  EXPECT_EQ(engine.cost_cache_size(), after_writer);
  EXPECT_EQ(warm.blocks_executed, 0U);

  // A different kernel with colliding shape keys gets its own entries.
  wsim::util::Rng rng(3);
  wsim::workload::SwBatch batch = {{random_dna(rng, 48), random_dna(rng, 48)}};
  const wsim::kernels::SwRunner runner(wsim::kernels::CommMode::kShuffle);
  wsim::kernels::SwRunOptions sw_opt;
  sw_opt.mode = ExecMode::kCachedByShape;
  sw_opt.engine = &engine;
  runner.run_batch(kDev, batch, sw_opt);
  EXPECT_GT(engine.cost_cache_size(), after_writer);

  engine.clear_cost_cache();
  EXPECT_EQ(engine.cost_cache_size(), 0U);
}

TEST(ExecutionEngine, SharedEngineIsASingleton) {
  EXPECT_EQ(&wsim::simt::shared_engine(), &wsim::simt::shared_engine());
  EXPECT_GE(wsim::simt::shared_engine().threads(), 1);
}

// Regression for the process-wide engine contract: every runner built
// without an explicit engine routes through the same shared_engine(), so
// cost-cache entries written by one runner are hits for the next —
// distinct runner instances, one cache.
TEST(ExecutionEngine, SharedEngineCacheIsReusedAcrossRunnerInstances) {
  // Shapes not used by any other test in this binary, so entries are
  // fresh regardless of test order.
  wsim::util::Rng rng(91);
  wsim::workload::SwBatch batch = {{random_dna(rng, 61), random_dna(rng, 67)},
                                   {random_dna(rng, 59), random_dna(rng, 71)}};
  wsim::kernels::SwRunOptions opt;
  opt.mode = ExecMode::kCachedByShape;
  opt.engine = nullptr;  // explicit: fall back to shared_engine()

  auto& shared = wsim::simt::shared_engine();
  const std::size_t before = shared.cost_cache_size();
  const wsim::kernels::SwRunner first(wsim::kernels::CommMode::kShuffle);
  const auto cold = first.run_batch(kDev, batch, opt);
  const std::size_t after = shared.cost_cache_size();
  EXPECT_GT(after, before);
  EXPECT_GT(cold.run.launch.blocks_executed, 0U);

  // A brand-new runner instance: same shared cache, so nothing executes.
  const wsim::kernels::SwRunner second(wsim::kernels::CommMode::kShuffle);
  const auto warm = second.run_batch(kDev, batch, opt);
  EXPECT_EQ(shared.cost_cache_size(), after);
  EXPECT_EQ(warm.run.launch.blocks_executed, 0U);
  // Cached timing is bit-identical to the cold run (no representative
  // block exists on a fully-warm launch, so compare the aggregate).
  EXPECT_EQ(warm.run.launch.total_seconds(), cold.run.launch.total_seconds());
}

// --- runner option forwarding -------------------------------------------------
//
// Every runner takes the same launch knobs and must hand each one to every
// launch it issues. One table drives all runners through the same checks,
// so a knob a runner drops fails here by name.

/// The knobs under test, applied to whichever options type a runner takes.
struct Knobs {
  bool collect_outputs = true;
  ExecMode mode = ExecMode::kFull;
  bool overlap_transfers = false;
  ExecutionEngine* engine = nullptr;
  wsim::simt::SdcPlan sdc;
  std::uint64_t sdc_launch_id = 0;
  long long max_block_cycles = 0;
  wsim::simt::InterpPath interp = wsim::simt::InterpPath::kDefault;
};

template <typename Options>
Options options_from(const Knobs& k) {
  Options o;
  o.collect_outputs = k.collect_outputs;
  o.mode = k.mode;
  o.overlap_transfers = k.overlap_transfers;
  o.engine = k.engine;
  o.sdc = k.sdc;
  o.sdc_launch_id = k.sdc_launch_id;
  o.max_block_cycles = k.max_block_cycles;
  o.interp = k.interp;
  return o;
}

/// What forwarding can change in one batch: the aggregated launch record
/// and a hash of the collected outputs.
struct RunnerOutcome {
  LaunchResult launch;
  std::uint64_t outputs = 0;
};

/// FNV-1a over 64-bit words.
std::uint64_t mix(std::uint64_t h, std::uint64_t word) {
  for (int b = 0; b < 8; ++b) {
    h = (h ^ ((word >> (8 * b)) & 0xFFU)) * 0x100000001B3ULL;
  }
  return h;
}

constexpr std::uint64_t kFnvBasis = 0xCBF29CE484222325ULL;

std::uint64_t hash_sw(const std::vector<wsim::kernels::SwTaskOutput>& outputs) {
  std::uint64_t h = kFnvBasis;
  for (const auto& out : outputs) {
    h = mix(h, static_cast<std::uint64_t>(out.best_score));
    h = mix(h, out.best_i);
    h = mix(h, out.best_j);
    for (const char c : out.alignment.cigar) {
      h = mix(h, static_cast<std::uint64_t>(c));
    }
  }
  return h;
}

std::uint64_t hash_scores(const std::vector<std::int32_t>& scores) {
  std::uint64_t h = kFnvBasis;
  for (const std::int32_t s : scores) {
    h = mix(h, static_cast<std::uint64_t>(s));
  }
  return h;
}

wsim::workload::SwBatch forwarding_sw_batch() {
  wsim::util::Rng rng(131);
  return {{random_dna(rng, 40), random_dna(rng, 70)},
          {random_dna(rng, 75), random_dna(rng, 45)},
          {random_dna(rng, 40), random_dna(rng, 70)}};
}

/// Reads of two length classes, so the PairHMM runner issues two launches.
wsim::workload::PhBatch forwarding_ph_batch() {
  wsim::util::Rng rng(137);
  wsim::workload::PhBatch batch;
  for (const int read_len : {24, 60, 28}) {
    wsim::align::PairHmmTask task;
    task.read = random_dna(rng, read_len);
    task.hap = random_dna(rng, read_len + 20);
    const auto len = static_cast<std::size_t>(read_len);
    task.base_quals.assign(len, 30);
    task.ins_quals.assign(len, 40);
    task.del_quals.assign(len, 40);
    batch.push_back(std::move(task));
  }
  return batch;
}

/// One runner under test: `run` executes the shared batch with the knobs.
struct RunnerCase {
  const char* runner;  ///< prefix of the runner's error messages
  std::function<RunnerOutcome(const Knobs&)> run;
};

template <typename Options, typename Runner>
RunnerCase sw_case(const char* prefix, Runner runner) {
  return {prefix, [runner](const Knobs& k) {
            const auto r = runner.run_batch(kDev, forwarding_sw_batch(),
                                            options_from<Options>(k));
            return RunnerOutcome{r.run.launch, hash_sw(r.outputs)};
          }};
}

template <typename Options, typename Runner>
RunnerCase nw_case(const char* prefix, Runner runner) {
  return {prefix, [runner](const Knobs& k) {
            const auto r = runner.run_batch(kDev, forwarding_sw_batch(),
                                            options_from<Options>(k));
            return RunnerOutcome{r.run.launch, hash_scores(r.scores)};
          }};
}

/// Test names of the cases below, in the same order.
constexpr const char* kRunnerCaseNames[] = {"Sw",        "Ph",        "Nw",
                                            "WfSwTiled", "WfSwNaive", "WfNwTiled",
                                            "WfNwNaive"};

const std::vector<RunnerCase>& runner_cases() {
  using namespace wsim::kernels;
  static const std::vector<RunnerCase> cases = {
      sw_case<SwRunOptions>("SwRunner", SwRunner(CommMode::kShuffle)),
      {"PhRunner",
       [runner = PhRunner(PhDesign::kShuffle)](const Knobs& k) {
         const auto r = runner.run_batch(kDev, forwarding_ph_batch(),
                                         options_from<PhRunOptions>(k));
         std::uint64_t h = kFnvBasis;
         for (const double v : r.log10) {
           h = mix(h, std::bit_cast<std::uint64_t>(v));
         }
         return RunnerOutcome{r.run.launch, h};
       }},
      nw_case<NwRunOptions>("NwRunner", NwRunner(CommMode::kShuffle)),
      sw_case<WfRunOptions>("WavefrontSwRunner",
                            WavefrontSwRunner(WfVariant::kShuffle, {}, 32)),
      sw_case<WfRunOptions>("WavefrontSwRunner",
                            WavefrontSwRunner(WfVariant::kHostSyncNaive)),
      nw_case<WfRunOptions>("WavefrontNwRunner",
                            WavefrontNwRunner(WfVariant::kShuffle, {}, 32)),
      nw_case<WfRunOptions>("WavefrontNwRunner",
                            WavefrontNwRunner(WfVariant::kHostSyncNaive)),
  };
  return cases;
}

class RunnerForwarding : public ::testing::TestWithParam<std::size_t> {
 protected:
  static const RunnerCase& runner() { return runner_cases().at(GetParam()); }
};

TEST_P(RunnerForwarding, MaxBlockCyclesArmsTheWatchdog) {
  Knobs k;
  k.max_block_cycles = 1;
  EXPECT_THROW(runner().run(k), wsim::simt::LaunchTimeout);
}

TEST_P(RunnerForwarding, OverlapTransfersReachesTheResult) {
  Knobs k;
  EXPECT_FALSE(runner().run(k).launch.transfers_overlapped);
  k.overlap_transfers = true;
  EXPECT_TRUE(runner().run(k).launch.transfers_overlapped);
}

TEST_P(RunnerForwarding, LegacyInterpreterGivesTheSameOutputsAndInstructions) {
  Knobs k;
  const RunnerOutcome vector = runner().run(k);
  k.interp = wsim::simt::InterpPath::kLegacy;
  const RunnerOutcome legacy = runner().run(k);
  EXPECT_EQ(legacy.outputs, vector.outputs);
  EXPECT_EQ(legacy.launch.instructions, vector.launch.instructions);
  EXPECT_GT(vector.launch.instructions, 0U);

  // The engine keys cached costs by interpreter, so after a warm vector
  // batch a legacy one executes blocks again only if `interp` arrived.
  ExecutionEngine engine(EngineOptions{.threads = 1});
  Knobs cached;
  cached.collect_outputs = false;
  cached.mode = ExecMode::kCachedByShape;
  cached.engine = &engine;
  cached.interp = wsim::simt::InterpPath::kVector;
  runner().run(cached);
  EXPECT_EQ(runner().run(cached).launch.blocks_executed, 0U);
  cached.interp = wsim::simt::InterpPath::kLegacy;
  EXPECT_GT(runner().run(cached).launch.blocks_executed, 0U);
}

TEST_P(RunnerForwarding, SdcPlanAndLaunchIdReachTheBlocks) {
  Knobs k;
  EXPECT_EQ(runner().run(k).launch.sdc_flips, 0U);
  // A flip may land in an address register and crash the launch, so each
  // launch id's outcome is either its flip count and outputs or the crash.
  k.sdc.seed = 5;
  k.sdc.flip_prob = 2e-5;
  std::set<std::pair<std::uint64_t, std::uint64_t>> outcomes;
  bool flipped = false;
  for (std::uint64_t id = 1; id <= 8; ++id) {
    k.sdc_launch_id = id;
    try {
      const RunnerOutcome run = runner().run(k);
      flipped = flipped || run.launch.sdc_flips > 0;
      outcomes.insert({run.launch.sdc_flips, run.outputs});
    } catch (const wsim::util::CheckError&) {
      outcomes.insert({~std::uint64_t{0}, 0});
    }
  }
  EXPECT_TRUE(flipped);
  EXPECT_GT(outcomes.size(), 1U) << "sdc_launch_id changes no outcome";
}

TEST_P(RunnerForwarding, CachedLaunchesFillThePrivateEngineCache) {
  ExecutionEngine engine(EngineOptions{.threads = 1});
  const std::size_t shared_before = wsim::simt::shared_engine().cost_cache_size();
  Knobs k;
  k.collect_outputs = false;
  k.mode = ExecMode::kCachedByShape;
  k.engine = &engine;
  const RunnerOutcome cold = runner().run(k);
  EXPECT_GT(cold.launch.blocks_executed, 0U);
  EXPECT_GT(engine.cost_cache_size(), 0U);
  EXPECT_EQ(wsim::simt::shared_engine().cost_cache_size(), shared_before);
}

TEST_P(RunnerForwarding, CollectOutputsWithCachedModeIsRejected) {
  Knobs k;
  k.mode = ExecMode::kCachedByShape;
  const std::string expected =
      std::string(runner().runner) + ": collect_outputs requires ExecMode::kFull";
  try {
    runner().run(k);
    ADD_FAILURE() << "no error";
  } catch (const wsim::util::CheckError& e) {
    EXPECT_NE(std::string(e.what()).find(expected), std::string::npos) << e.what();
  }
}

INSTANTIATE_TEST_SUITE_P(EveryRunner, RunnerForwarding,
                         ::testing::Range<std::size_t>(0, std::size(kRunnerCaseNames)),
                         [](const ::testing::TestParamInfo<std::size_t>& info) {
                           return std::string(kRunnerCaseNames[info.param]);
                         });

TEST(GmemWriteSet, CoalescesAndDetectsOverlap) {
  GmemWriteSet a;
  EXPECT_TRUE(a.empty());
  a.add(0, 4);
  a.add(4, 4);   // adjacent: coalesces
  a.add(100, 4);
  EXPECT_EQ(a.spans().size(), 2U);
  EXPECT_EQ(a.spans().at(0), 8);
  EXPECT_EQ(a.spans().at(100), 104);
  a.add(2, 10);  // overlapping both halves of [0, 8)
  EXPECT_EQ(a.spans().size(), 2U);
  EXPECT_EQ(a.spans().at(0), 12);

  GmemWriteSet b;
  b.add(12, 4);
  EXPECT_FALSE(a.overlaps(b));
  EXPECT_FALSE(b.overlaps(a));
  b.add(11, 1);
  EXPECT_TRUE(a.overlaps(b));
  EXPECT_TRUE(b.overlaps(a));
}

}  // namespace
