// Differential tests pinning the predecoded fast-path interpreter AND the
// lane-vector interpreter to the legacy switch interpreter: for every
// kernel variant, device, and SDC setting all three paths must produce
// bit-identical memory, exactly equal BlockResult counters, identical
// instruction traces and write sets, identical guard fingerprints through
// the runners, and the same error surface. The legacy path stays
// available precisely to keep this contract checkable.

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "wsim/guard/guard.hpp"
#include "wsim/kernels/nw_kernels.hpp"
#include "wsim/kernels/ph_kernels.hpp"
#include "wsim/kernels/sw_kernels.hpp"
#include "wsim/obs/metrics.hpp"
#include "wsim/obs/obs.hpp"
#include "wsim/simt/builder.hpp"
#include "wsim/simt/decode.hpp"
#include "wsim/simt/device.hpp"
#include "wsim/simt/engine.hpp"
#include "wsim/simt/interpreter.hpp"
#include "wsim/simt/memory.hpp"
#include "wsim/simt/sdc.hpp"
#include "wsim/simt/trace.hpp"
#include "wsim/simt/watchdog.hpp"
#include "wsim/util/check.hpp"
#include "wsim/workload/batching.hpp"
#include "wsim/workload/generator.hpp"

namespace {

namespace guard = wsim::guard;
using wsim::kernels::CommMode;
using wsim::simt::BlockResult;
using wsim::simt::BlockRunOptions;
using wsim::simt::Cmp;
using wsim::simt::DeviceSpec;
using wsim::simt::DType;
using wsim::simt::GlobalMemory;
using wsim::simt::GmemWriteSet;
using wsim::simt::imm_f32;
using wsim::simt::imm_i64;
using wsim::simt::InterpPath;
using wsim::simt::Kernel;
using wsim::simt::KernelBuilder;
using wsim::simt::LaunchTimeout;
using wsim::simt::MemWidth;
using wsim::simt::SdcPlan;
using wsim::simt::SReg;
using wsim::simt::Trace;
using wsim::simt::VReg;
using wsim::util::CheckError;

/// A kernel touching every opcode, predication polarity, memory width,
/// loop form (nested and zero-trip), and barrier the ISA offers — the
/// per-instruction differential workout.
Kernel build_omnibus() {
  KernelBuilder kb("omnibus", 64);
  const SReg out = kb.param();    // s0: 64*4 + 64*4 + 64 bytes of results
  const SReg in = kb.param();     // s1: 64 f32 inputs (doubles as bytes)
  const SReg trips = kb.param();  // s2: outer loop trip count
  const SReg zero = kb.param();   // s3: zero-trip loop count
  kb.alloc_smem(64 * 4 + 64);     // word tile + byte area

  const VReg t = kb.tid();
  const VReg lane = kb.laneid();
  const VReg w = kb.warpid();

  // Integer chain: every i64 ALU op.
  VReg i1 = kb.iadd(t, imm_i64(3));
  i1 = kb.imul(i1, imm_i64(5));
  i1 = kb.isub(i1, lane);
  i1 = kb.imax(i1, kb.imin(w, imm_i64(100)));
  i1 = kb.iand(kb.ior(i1, imm_i64(0x55)), imm_i64(0xFF));
  i1 = kb.ixor(i1, kb.shl(lane, imm_i64(2)));
  i1 = kb.iadd(i1, kb.shr(t, imm_i64(1)));

  // Float chain from a B4 global load: every f32 ALU op.
  const VReg f = kb.ldg(kb.iadd(in, kb.imul(t, imm_i64(4))));
  VReg f1 = kb.fadd(f, imm_f32(0.5F));
  f1 = kb.fmul(f1, imm_f32(1.25F));
  f1 = kb.ffma(f1, imm_f32(0.75F), f);
  f1 = kb.fmax(f1, kb.fmin(f1, imm_f32(3.0F)));
  f1 = kb.fsub(f1, imm_f32(0.125F));

  // All four shuffle variants, segmented widths, dynamic source lane.
  const VReg s1v = kb.shfl_down(f1, imm_i64(1));
  const VReg s2v = kb.shfl_up(i1, imm_i64(2), 16);
  const VReg s3v = kb.shfl_xor(f1, imm_i64(4), 8);
  const VReg s4v = kb.shfl(i1, lane, 32);

  // Compare/select + both predication polarities.
  const VReg p = kb.setp(Cmp::kLt, DType::kI64, lane, imm_i64(16));
  const VReg pf = kb.setp(Cmp::kGt, DType::kF32, f1, imm_f32(1.0F));
  const VReg sel = kb.selp(p, s1v, s3v);
  VReg acc = kb.mov(imm_i64(0));
  kb.begin_pred(p);
  kb.assign(acc, kb.iadd(acc, s2v));
  kb.end_pred();
  kb.begin_pred(pf, /*negate=*/true);
  kb.assign(acc, kb.iadd(acc, imm_i64(7)));
  kb.end_pred();

  // Scalar pipeline + nested and zero-trip loops.
  const SReg sc = kb.smov(imm_i64(2));
  const SReg sc2 = kb.smax(
      kb.smin(kb.smul(kb.sadd(sc, imm_i64(3)), imm_i64(2)), imm_i64(9)),
      kb.ssub(sc, imm_i64(1)));
  kb.loop(trips);
  kb.assign(acc, kb.iadd(acc, sc2));
  kb.loop(imm_i64(2));
  kb.assign(acc, kb.iadd(acc, imm_i64(1)));
  kb.endloop();
  kb.endloop();
  kb.loop(zero);
  kb.assign(acc, kb.iadd(acc, imm_i64(1000000)));
  kb.endloop();

  // Shared memory: B4 tile exchange across a barrier, B1 bytes, and a
  // deliberate two-way bank conflict ((t&1)*128 maps to one bank).
  kb.sts(kb.imul(t, imm_i64(4)), sel);
  kb.bar();
  const VReg neighbor = kb.lds(kb.imul(kb.ixor(t, imm_i64(1)), imm_i64(4)));
  kb.sts(kb.iadd(t, imm_i64(64 * 4)), i1, 0, MemWidth::kB1);
  kb.bar();
  const VReg nb1 =
      kb.lds(kb.iadd(kb.ixor(t, imm_i64(3)), imm_i64(64 * 4)), 0, MemWidth::kB1);
  const VReg conflict = kb.lds(kb.imul(kb.iand(t, imm_i64(1)), imm_i64(128)));

  // B1 global load; then store every result (B4 and B1).
  const VReg b1 = kb.ldg(kb.iadd(in, t), 0, MemWidth::kB1);
  const VReg slot = kb.iadd(out, kb.imul(t, imm_i64(4)));
  kb.stg(slot, kb.iadd(acc, kb.iadd(neighbor,
                                    kb.iadd(nb1, kb.iadd(conflict,
                                                         kb.iadd(s4v, b1))))));
  kb.stg(kb.iadd(slot, imm_i64(64 * 4)), kb.selp(pf, f1, sel));
  kb.stg(kb.iadd(out, kb.iadd(t, imm_i64(64 * 8))), i1, 0, MemWidth::kB1);
  return kb.build();
}

/// Everything one block execution produced, for field-by-field diffing.
struct RunOutcome {
  bool threw = false;
  std::string error;
  BlockResult result;
  std::vector<std::uint8_t> memory;
  std::vector<wsim::simt::TraceEvent> trace;
  std::map<std::int64_t, std::int64_t> writes;
};

RunOutcome run_omnibus(const Kernel& kernel, const DeviceSpec& device,
                       InterpPath path, const SdcPlan* sdc) {
  GlobalMemory gmem;
  const std::int64_t out = gmem.alloc(64 * 4 + 64 * 4 + 64);
  const std::int64_t in = gmem.alloc(64 * 4);
  std::vector<float> inputs(64);
  for (int i = 0; i < 64; ++i) {
    inputs[static_cast<std::size_t>(i)] = 0.25F * static_cast<float>(i) - 3.5F;
  }
  gmem.write_f32(in, inputs);
  const std::vector<std::uint64_t> args = {
      static_cast<std::uint64_t>(out), static_cast<std::uint64_t>(in), 3, 0};

  RunOutcome outcome;
  Trace trace;
  GmemWriteSet writes;
  BlockRunOptions options;
  options.interp = path;
  options.trace = &trace;
  options.writes = &writes;
  options.sdc = sdc;
  options.sdc_stream = 17;
  try {
    outcome.result = run_block(kernel, device, gmem, args, options);
  } catch (const CheckError& e) {
    outcome.threw = true;
    outcome.error = e.what();
  }
  outcome.memory = gmem.read_u8(0, gmem.size());
  outcome.trace = trace.events();
  outcome.writes = writes.spans();
  return outcome;
}

void expect_equal_results(const BlockResult& legacy, const BlockResult& fast,
                          const std::string& label) {
  EXPECT_EQ(legacy.cycles, fast.cycles) << label;
  EXPECT_EQ(legacy.instructions, fast.instructions) << label;
  EXPECT_EQ(legacy.smem_transactions, fast.smem_transactions) << label;
  EXPECT_EQ(legacy.gmem_transactions, fast.gmem_transactions) << label;
  EXPECT_EQ(legacy.barriers, fast.barriers) << label;
  EXPECT_EQ(legacy.sdc_flips, fast.sdc_flips) << label;
  for (std::size_t op = 0; op < legacy.op_counts.size(); ++op) {
    EXPECT_EQ(legacy.op_counts[op], fast.op_counts[op]) << label << " op " << op;
  }
}

void expect_equal_outcomes(const RunOutcome& legacy, const RunOutcome& fast,
                           const std::string& label) {
  ASSERT_EQ(legacy.threw, fast.threw) << label;
  EXPECT_EQ(legacy.error, fast.error) << label;
  expect_equal_results(legacy.result, fast.result, label);
  EXPECT_EQ(legacy.memory, fast.memory) << label;
  EXPECT_EQ(legacy.writes, fast.writes) << label;
  ASSERT_EQ(legacy.trace.size(), fast.trace.size()) << label;
  for (std::size_t i = 0; i < legacy.trace.size(); ++i) {
    EXPECT_EQ(legacy.trace[i].name, fast.trace[i].name) << label << " event " << i;
    EXPECT_EQ(legacy.trace[i].warp, fast.trace[i].warp) << label << " event " << i;
    EXPECT_EQ(legacy.trace[i].start, fast.trace[i].start) << label << " event " << i;
    EXPECT_EQ(legacy.trace[i].end, fast.trace[i].end) << label << " event " << i;
  }
}

TEST(InterpEquivalence, OmnibusKernelAllDevicesSdcOnOff) {
  const Kernel kernel = build_omnibus();
  for (const DeviceSpec& device : wsim::simt::all_devices()) {
    // The decoded form must contain SIMD-eligible instructions, or the
    // vector comparison below degenerates to scalar-vs-scalar.
    const auto program = wsim::simt::decode_program(kernel, device);
    EXPECT_GT(program->vec_instrs, 0U) << device.name;

    SdcPlan sdc;
    sdc.seed = 77;
    sdc.flip_prob = 1e-3;
    for (const SdcPlan* plan :
         {static_cast<const SdcPlan*>(nullptr), static_cast<const SdcPlan*>(&sdc)}) {
      const std::string label =
          device.name + (plan != nullptr ? " sdc" : " clean");
      const RunOutcome legacy =
          run_omnibus(kernel, device, InterpPath::kLegacy, plan);
      const RunOutcome fast = run_omnibus(kernel, device, InterpPath::kFast, plan);
      const RunOutcome vec =
          run_omnibus(kernel, device, InterpPath::kVector, plan);
      EXPECT_FALSE(legacy.threw) << label << ": " << legacy.error;
      expect_equal_outcomes(legacy, fast, label + " fast");
      expect_equal_outcomes(legacy, vec, label + " vector");
      if (plan != nullptr) {
        // The plan is hot enough that the run must actually flip bits, or
        // the event-numbering equivalence is vacuous.
        EXPECT_GT(legacy.result.sdc_flips, 0U) << label;
      }
    }
  }
}

wsim::workload::Dataset small_dataset() {
  wsim::workload::GeneratorConfig cfg;
  cfg.seed = 11;
  cfg.regions = 2;
  cfg.ph_tasks_per_region_mean = 5.0;
  cfg.sw_query_len_min = 40;
  cfg.sw_query_len_max = 90;
  cfg.sw_target_len_min = 60;
  cfg.sw_target_len_max = 120;
  return wsim::workload::generate_dataset(cfg);
}

TEST(InterpEquivalence, SwRunnerFingerprintsMatchOnEveryDevice) {
  const auto dataset = small_dataset();
  const auto batches = wsim::workload::sw_rebatch(dataset, 8);
  ASSERT_FALSE(batches.empty());
  for (const CommMode mode : {CommMode::kSharedMemory, CommMode::kShuffle}) {
    const wsim::kernels::SwRunner runner(mode);
    for (const DeviceSpec& device : wsim::simt::all_devices()) {
      wsim::kernels::SwRunOptions legacy_opt;
      legacy_opt.collect_outputs = true;
      legacy_opt.interp = InterpPath::kLegacy;
      wsim::kernels::SwRunOptions fast_opt = legacy_opt;
      fast_opt.interp = InterpPath::kFast;
      wsim::kernels::SwRunOptions vec_opt = legacy_opt;
      vec_opt.interp = InterpPath::kVector;
      const auto legacy = runner.run_batch(device, batches.front(), legacy_opt);
      const auto fast = runner.run_batch(device, batches.front(), fast_opt);
      const auto vec = runner.run_batch(device, batches.front(), vec_opt);
      EXPECT_EQ(guard::fingerprint_sw(legacy.outputs),
                guard::fingerprint_sw(fast.outputs))
          << device.name;
      EXPECT_EQ(guard::fingerprint_sw(legacy.outputs),
                guard::fingerprint_sw(vec.outputs))
          << device.name << " vector";
      EXPECT_EQ(legacy.run.launch.instructions, fast.run.launch.instructions)
          << device.name;
      EXPECT_EQ(legacy.run.launch.instructions, vec.run.launch.instructions)
          << device.name << " vector";
      expect_equal_results(legacy.run.launch.representative,
                           fast.run.launch.representative, device.name);
      expect_equal_results(legacy.run.launch.representative,
                           vec.run.launch.representative,
                           device.name + " vector");
    }
  }
}

TEST(InterpEquivalence, PhRunnerFingerprintsMatchOnEveryDevice) {
  const auto dataset = small_dataset();
  const auto batches = wsim::workload::ph_rebatch(dataset, 8);
  ASSERT_FALSE(batches.empty());
  for (const CommMode mode : {CommMode::kSharedMemory, CommMode::kShuffle}) {
    const wsim::kernels::PhRunner runner(mode);
    for (const DeviceSpec& device : wsim::simt::all_devices()) {
      wsim::kernels::PhRunOptions legacy_opt;
      legacy_opt.collect_outputs = true;
      legacy_opt.double_fallback = true;
      legacy_opt.interp = InterpPath::kLegacy;
      wsim::kernels::PhRunOptions fast_opt = legacy_opt;
      fast_opt.interp = InterpPath::kFast;
      wsim::kernels::PhRunOptions vec_opt = legacy_opt;
      vec_opt.interp = InterpPath::kVector;
      const auto legacy = runner.run_batch(device, batches.front(), legacy_opt);
      const auto fast = runner.run_batch(device, batches.front(), fast_opt);
      const auto vec = runner.run_batch(device, batches.front(), vec_opt);
      EXPECT_EQ(guard::fingerprint_ph(legacy.log10),
                guard::fingerprint_ph(fast.log10))
          << device.name;
      EXPECT_EQ(guard::fingerprint_ph(legacy.log10),
                guard::fingerprint_ph(vec.log10))
          << device.name << " vector";
      expect_equal_results(legacy.run.launch.representative,
                           fast.run.launch.representative, device.name);
      expect_equal_results(legacy.run.launch.representative,
                           vec.run.launch.representative,
                           device.name + " vector");
    }
  }
}

TEST(InterpEquivalence, NwRunnerFingerprintsMatchOnEveryDevice) {
  const auto dataset = small_dataset();
  const auto batches = wsim::workload::sw_rebatch(dataset, 8);
  ASSERT_FALSE(batches.empty());
  for (const CommMode mode : {CommMode::kSharedMemory, CommMode::kShuffle}) {
    const wsim::kernels::NwRunner runner(mode);
    for (const DeviceSpec& device : wsim::simt::all_devices()) {
      wsim::kernels::NwRunOptions legacy_opt;
      legacy_opt.collect_outputs = true;
      legacy_opt.interp = InterpPath::kLegacy;
      wsim::kernels::NwRunOptions fast_opt = legacy_opt;
      fast_opt.interp = InterpPath::kFast;
      wsim::kernels::NwRunOptions vec_opt = legacy_opt;
      vec_opt.interp = InterpPath::kVector;
      const auto legacy = runner.run_batch(device, batches.front(), legacy_opt);
      const auto fast = runner.run_batch(device, batches.front(), fast_opt);
      const auto vec = runner.run_batch(device, batches.front(), vec_opt);
      EXPECT_EQ(guard::fingerprint_nw(legacy.scores),
                guard::fingerprint_nw(fast.scores))
          << device.name;
      EXPECT_EQ(guard::fingerprint_nw(legacy.scores),
                guard::fingerprint_nw(vec.scores))
          << device.name << " vector";
      expect_equal_results(legacy.run.launch.representative,
                           fast.run.launch.representative, device.name);
      expect_equal_results(legacy.run.launch.representative,
                           vec.run.launch.representative,
                           device.name + " vector");
    }
  }
}

TEST(InterpEquivalence, SdcReplayIsIdenticalThroughTheRunner) {
  const auto dataset = small_dataset();
  const auto batches = wsim::workload::sw_rebatch(dataset, 8);
  ASSERT_FALSE(batches.empty());
  const wsim::kernels::SwRunner runner(CommMode::kShuffle);
  const auto device = wsim::simt::make_k1200();

  const auto run_path = [&](InterpPath path)
      -> std::optional<wsim::kernels::SwBatchResult> {
    wsim::kernels::SwRunOptions opt;
    opt.collect_outputs = true;
    opt.interp = path;
    opt.sdc.seed = 9;
    opt.sdc.flip_prob = 1e-4;
    opt.sdc_launch_id = 3;
    try {
      return runner.run_batch(device, batches.front(), opt);
    } catch (const CheckError&) {
      // A flip may land in an address-feeding register; both paths must
      // then crash identically.
      return std::nullopt;
    }
  };
  const auto legacy = run_path(InterpPath::kLegacy);
  const auto fast = run_path(InterpPath::kFast);
  const auto vec = run_path(InterpPath::kVector);
  ASSERT_EQ(legacy.has_value(), fast.has_value());
  ASSERT_EQ(legacy.has_value(), vec.has_value());
  if (legacy.has_value()) {
    EXPECT_EQ(legacy->run.launch.sdc_flips, fast->run.launch.sdc_flips);
    EXPECT_EQ(legacy->run.launch.sdc_flips, vec->run.launch.sdc_flips);
    EXPECT_EQ(guard::fingerprint_sw(legacy->outputs),
              guard::fingerprint_sw(fast->outputs));
    EXPECT_EQ(guard::fingerprint_sw(legacy->outputs),
              guard::fingerprint_sw(vec->outputs));
  }
}

TEST(InterpEquivalence, CycleBudgetTimeoutMatchesExactly) {
  KernelBuilder kb("runaway", 32);
  const VReg t = kb.tid();
  kb.loop(imm_i64(100000));
  kb.emit_to(t, wsim::simt::Op::kIAdd, t, imm_i64(1));
  kb.endloop();
  const Kernel kernel = kb.build();
  const auto device = wsim::simt::make_k1200();

  const auto run_path = [&](InterpPath path) {
    GlobalMemory gmem;
    BlockRunOptions options;
    options.interp = path;
    options.max_cycles = 5000;
    std::optional<LaunchTimeout> caught;
    try {
      run_block(kernel, device, gmem, {}, options);
    } catch (const LaunchTimeout& e) {
      caught = e;
    }
    return caught;
  };
  const auto legacy = run_path(InterpPath::kLegacy);
  const auto fast = run_path(InterpPath::kFast);
  const auto vec = run_path(InterpPath::kVector);
  ASSERT_TRUE(legacy.has_value());
  ASSERT_TRUE(fast.has_value());
  ASSERT_TRUE(vec.has_value());
  EXPECT_EQ(legacy->kind(), fast->kind());
  EXPECT_EQ(legacy->cycles(), fast->cycles());
  EXPECT_EQ(legacy->budget(), fast->budget());
  EXPECT_STREQ(legacy->what(), fast->what());
  EXPECT_EQ(legacy->kind(), vec->kind());
  EXPECT_EQ(legacy->cycles(), vec->cycles());
  EXPECT_EQ(legacy->budget(), vec->budget());
  EXPECT_STREQ(legacy->what(), vec->what());
}

TEST(InterpEquivalence, BarrierDeadlockMatchesExactly) {
  // Warp 1's lanes are all predicated off the barrier, so it finishes
  // while warp 0 waits — both paths must diagnose the identical deadlock.
  KernelBuilder kb("deadlock", 64);
  kb.alloc_smem(4);
  const VReg t = kb.tid();
  const VReg first_warp = kb.setp(Cmp::kLt, DType::kI64, t, imm_i64(32));
  kb.begin_pred(first_warp);
  kb.bar();
  kb.end_pred();
  const Kernel kernel = kb.build();
  const auto device = wsim::simt::make_k40();

  const auto run_path = [&](InterpPath path) {
    GlobalMemory gmem;
    BlockRunOptions options;
    options.interp = path;
    std::optional<LaunchTimeout> caught;
    try {
      run_block(kernel, device, gmem, {}, options);
    } catch (const LaunchTimeout& e) {
      caught = e;
    }
    return caught;
  };
  const auto legacy = run_path(InterpPath::kLegacy);
  const auto fast = run_path(InterpPath::kFast);
  const auto vec = run_path(InterpPath::kVector);
  ASSERT_TRUE(legacy.has_value());
  ASSERT_TRUE(fast.has_value());
  ASSERT_TRUE(vec.has_value());
  EXPECT_EQ(legacy->kind(), fast->kind());
  EXPECT_EQ(legacy->cycles(), fast->cycles());
  EXPECT_STREQ(legacy->what(), fast->what());
  EXPECT_EQ(legacy->kind(), vec->kind());
  EXPECT_EQ(legacy->cycles(), vec->cycles());
  EXPECT_STREQ(legacy->what(), vec->what());
}

TEST(InterpEquivalence, OutOfBoundsAndBadWidthThrowOnBothPaths) {
  const auto device = wsim::simt::make_titan_x();
  {
    KernelBuilder kb("smem_oob", 32);
    kb.alloc_smem(16);
    const VReg t = kb.tid();
    kb.sts(kb.imul(t, imm_i64(4)), t);
    const Kernel kernel = kb.build();
    for (const InterpPath path :
         {InterpPath::kLegacy, InterpPath::kFast, InterpPath::kVector}) {
      GlobalMemory gmem;
      BlockRunOptions options;
      options.interp = path;
      try {
        run_block(kernel, device, gmem, {}, options);
        FAIL() << "smem OOB must throw";
      } catch (const CheckError& e) {
        EXPECT_NE(std::string(e.what()).find(
                      "shared memory access out of bounds in kernel smem_oob"),
                  std::string::npos);
      }
    }
  }
  {
    KernelBuilder kb("bad_width", 32);
    const VReg t = kb.tid();
    kb.stg(kb.imul(t, imm_i64(4)), kb.shfl_down(t, imm_i64(1), 3));
    const Kernel kernel = kb.build();
    for (const InterpPath path :
         {InterpPath::kLegacy, InterpPath::kFast, InterpPath::kVector}) {
      GlobalMemory gmem;
      gmem.alloc(32 * 4);
      BlockRunOptions options;
      options.interp = path;
      try {
        run_block(kernel, device, gmem, {}, options);
        FAIL() << "bad shuffle width must throw";
      } catch (const CheckError& e) {
        EXPECT_NE(std::string(e.what()).find(
                      "shuffle width must be a power of two in [1, 32]"),
                  std::string::npos);
      }
    }
  }
}

/// Single-warp kernel whose accel-eligible loop body mixes predicated
/// simple ops (the masked SIMD blend), predicated shared-memory traffic,
/// an unpredicated shuffle, and a barrier. `threshold` sets how many lanes
/// are active (0..32), `negate` flips the polarity, and `shifting` rewrites
/// the predicate register inside the body so the active set rotates every
/// iteration — the case the vector engine must re-evaluate per iteration
/// instead of baking into its steady-state plan.
Kernel build_divergent_stress(int threshold, bool negate, bool shifting) {
  KernelBuilder kb("divergent_stress", 32);
  const SReg out = kb.param();
  const SReg trips = kb.param();
  kb.alloc_smem(32 * 4);
  const VReg t = kb.tid();
  const VReg p = kb.setp(Cmp::kLt, DType::kI64, t, imm_i64(threshold));
  VReg acc = kb.mov(imm_i64(1));
  VReg f = kb.mov(imm_f32(1.0F));
  const VReg idx = kb.mov(t);
  kb.sts(kb.imul(t, imm_i64(4)), t);
  kb.loop(trips);
  kb.begin_pred(p, negate);
  kb.assign(acc, kb.iadd(acc, imm_i64(3)));
  kb.assign(f, kb.fmul(f, imm_f32(1.0001F)));
  kb.end_pred();
  kb.assign(f, kb.fadd(f, kb.shfl_xor(f, imm_i64(1))));
  if (shifting) {
    kb.assign(idx, kb.iand(kb.iadd(idx, imm_i64(1)), imm_i64(31)));
    kb.assign(p, kb.setp(Cmp::kLt, DType::kI64, idx, imm_i64(threshold)));
  }
  kb.begin_pred(p);
  kb.sts(kb.imul(t, imm_i64(4)), acc);
  kb.end_pred();
  kb.begin_pred(p, /*negate=*/true);
  kb.lds_to(acc, kb.imul(kb.ixor(t, imm_i64(1)), imm_i64(4)));
  kb.end_pred();
  kb.bar();
  kb.endloop();
  const VReg nb = kb.lds(kb.imul(kb.ixor(t, imm_i64(1)), imm_i64(4)));
  kb.stg(kb.iadd(out, kb.imul(t, imm_i64(4))), kb.iadd(acc, nb));
  kb.stg(kb.iadd(out, kb.iadd(imm_i64(32 * 4), kb.imul(t, imm_i64(4)))), f);
  return kb.build();
}

RunOutcome run_stress(const Kernel& kernel, const DeviceSpec& device,
                      InterpPath path, std::int64_t trips, bool with_trace) {
  GlobalMemory gmem;
  const std::int64_t out = gmem.alloc(32 * 4 * 2);
  const std::vector<std::uint64_t> args = {static_cast<std::uint64_t>(out),
                                           static_cast<std::uint64_t>(trips)};
  RunOutcome outcome;
  Trace trace;
  GmemWriteSet writes;
  BlockRunOptions options;
  options.interp = path;
  // Tracing pins the instruction-by-instruction schedule but also turns
  // off the vector engine's loop fast-forward, so the stress runs both
  // ways: traced (per-event equality) and untraced (the fast-forward and
  // its precompiled plan actually engage).
  if (with_trace) {
    options.trace = &trace;
    options.writes = &writes;
  }
  try {
    outcome.result = run_block(kernel, device, gmem, args, options);
  } catch (const CheckError& e) {
    outcome.threw = true;
    outcome.error = e.what();
  }
  outcome.memory = gmem.read_u8(0, gmem.size());
  outcome.trace = trace.events();
  outcome.writes = writes.spans();
  return outcome;
}

TEST(InterpEquivalence, DivergentPredicateStress) {
  const auto device = wsim::simt::make_k1200();
  for (const int threshold : {0, 1, 16, 31, 32}) {
    for (const bool negate : {false, true}) {
      for (const bool shifting : {false, true}) {
        const Kernel kernel =
            build_divergent_stress(threshold, negate, shifting);
        for (const std::int64_t trips : {0LL, 1LL, 2LL, 3LL, 400LL}) {
          for (const bool with_trace : {true, false}) {
            const std::string label =
                "threshold=" + std::to_string(threshold) +
                " negate=" + std::to_string(negate) +
                " shifting=" + std::to_string(shifting) +
                " trips=" + std::to_string(trips) +
                (with_trace ? " traced" : " untraced");
            const RunOutcome legacy =
                run_stress(kernel, device, InterpPath::kLegacy, trips, with_trace);
            const RunOutcome fast =
                run_stress(kernel, device, InterpPath::kFast, trips, with_trace);
            const RunOutcome vec =
                run_stress(kernel, device, InterpPath::kVector, trips, with_trace);
            EXPECT_FALSE(legacy.threw) << label << ": " << legacy.error;
            expect_equal_outcomes(legacy, fast, label + " fast");
            expect_equal_outcomes(legacy, vec, label + " vector");
          }
        }
      }
    }
  }
}

TEST(InterpEquivalence, EnvironmentKnobSelectsThePath) {
  // Explicit requests are never overridden.
  EXPECT_EQ(wsim::simt::resolve_interp_path(InterpPath::kFast), InterpPath::kFast);
  EXPECT_EQ(wsim::simt::resolve_interp_path(InterpPath::kLegacy),
            InterpPath::kLegacy);
  EXPECT_EQ(wsim::simt::resolve_interp_path(InterpPath::kVector),
            InterpPath::kVector);
  // kDefault defers to WSIM_INTERP, resolved per call (not cached).
  ::setenv("WSIM_INTERP", "legacy", 1);
  EXPECT_EQ(wsim::simt::resolve_interp_path(InterpPath::kDefault),
            InterpPath::kLegacy);
  ::setenv("WSIM_INTERP", "vector", 1);
  EXPECT_EQ(wsim::simt::resolve_interp_path(InterpPath::kDefault),
            InterpPath::kVector);
  // The scalar fast path is internal: no environment value selects it,
  // and unknown names resolve to the default (the wsim driver rejects
  // them before any launch).
  ::setenv("WSIM_INTERP", "fast", 1);
  EXPECT_EQ(wsim::simt::resolve_interp_path(InterpPath::kDefault),
            InterpPath::kVector);
  ::unsetenv("WSIM_INTERP");
  EXPECT_EQ(wsim::simt::resolve_interp_path(InterpPath::kDefault),
            InterpPath::kVector);
}

// --- global memory inside fast-forwarded loops ------------------------------

/// Single-warp kernel whose loop streams global memory, so the vector
/// engine fast-forwards it with loads and stores in the value phase:
///  * a predicated B1 `ldg` under a mask of `window` lanes that rotates
///    every iteration, at an address advancing `stride` bytes per
///    iteration — the active lanes enter a new 128 B segment every
///    ~128/stride iterations, so a cold load deviates inside the value
///    phase and its extra latency lands on the loop's critical path
///    (the accumulate depends on it);
///  * an unpredicated B4 `stg` of the running sum into a ring of `rows`
///    output rows (a power of two), one 128 B row per iteration.
Kernel build_gmem_stream(int window, int stride, int rows) {
  KernelBuilder kb("gmem_stream", 32);
  const SReg in = kb.param();     // s0: input bytes
  const SReg out = kb.param();    // s1: output ring
  const SReg trips = kb.param();  // s2
  const VReg t = kb.tid();
  const VReg idx = kb.mov(t);
  const VReg p = kb.setp(Cmp::kLt, DType::kI64, idx, imm_i64(window));
  const VReg pos = kb.mov(t);
  const VReg slot = kb.imul(t, imm_i64(4));
  const VReg v = kb.mov(imm_i64(0));
  const VReg acc = kb.mov(imm_i64(1));
  kb.loop(trips);
  kb.begin_pred(p);
  kb.ldg_to(v, kb.iadd(in, pos), 0, MemWidth::kB1);
  kb.end_pred();
  kb.assign(acc, kb.iadd(kb.imul(acc, imm_i64(3)), v));  // wraps mod 2^64
  kb.stg(kb.iadd(out, slot), acc);
  kb.assign(pos, kb.iadd(pos, imm_i64(stride)));
  kb.assign(slot, kb.iand(kb.iadd(slot, imm_i64(32 * 4)), imm_i64(rows * 32 * 4 - 1)));
  kb.assign(idx, kb.iand(kb.iadd(idx, imm_i64(1)), imm_i64(31)));
  kb.assign(p, kb.setp(Cmp::kLt, DType::kI64, idx, imm_i64(window)));
  kb.endloop();
  return kb.build();
}

/// Arena layout and knobs of one gmem_stream run. The region allocated
/// last ends the arena, so making it shorter than the loop needs puts an
/// out-of-bounds access at a chosen iteration.
struct StreamCase {
  std::int64_t trips = 0;
  std::int64_t in_bytes = 0;
  std::int64_t out_rows = 0;
  bool in_last = false;
  long long max_cycles = 0;
};

RunOutcome run_gmem_stream(const Kernel& kernel, const DeviceSpec& device,
                           InterpPath path, const StreamCase& c) {
  GlobalMemory gmem;
  std::int64_t in = 0;
  std::int64_t out = 0;
  if (c.in_last) {
    out = gmem.alloc(static_cast<std::size_t>(c.out_rows) * 32 * 4);
    in = gmem.alloc(static_cast<std::size_t>(c.in_bytes), 1);
  } else {
    in = gmem.alloc(static_cast<std::size_t>(c.in_bytes), 1);
    out = gmem.alloc(static_cast<std::size_t>(c.out_rows) * 32 * 4);
  }
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(c.in_bytes));
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<std::uint8_t>((i * 37 + 11) & 0xFF);
  }
  gmem.write_u8(in, bytes);
  const std::vector<std::uint64_t> args = {static_cast<std::uint64_t>(in),
                                           static_cast<std::uint64_t>(out),
                                           static_cast<std::uint64_t>(c.trips)};
  RunOutcome outcome;
  GmemWriteSet writes;
  BlockRunOptions options;
  options.interp = path;
  options.writes = &writes;
  options.max_cycles = c.max_cycles;
  try {
    outcome.result = run_block(kernel, device, gmem, args, options);
  } catch (const CheckError& e) {
    // Out-of-bounds accesses and cycle-budget timeouts (LaunchTimeout is
    // a CheckError) both land here; the message pins the throw point.
    outcome.threw = true;
    outcome.error = e.what();
  }
  outcome.memory = gmem.read_u8(0, gmem.size());
  outcome.writes = writes.spans();
  return outcome;
}

constexpr int kStreamRows = 8;

StreamCase clean_stream(std::int64_t trips, int stride) {
  return {trips, 32 + stride * trips, kStreamRows, false, 0};
}

/// Reads one counter from the metrics dump (0 when absent).
std::uint64_t metric_counter(const std::string& name) {
  std::ostringstream os;
  wsim::obs::write_metrics_json(os);
  const std::string json = os.str();
  const std::string key = "\"" + name + "\": ";
  const std::size_t at = json.find(key);
  return at == std::string::npos
             ? 0
             : std::stoull(json.substr(at + key.size()));
}

struct AccelIters {
  std::uint64_t exact = 0;
  std::uint64_t value = 0;
};

/// Runs `body` with metrics armed and returns how many accel-loop
/// iterations the vector engine ran exactly and value-only meanwhile.
template <typename Body>
AccelIters count_accel_iters(Body body) {
  wsim::obs::set_level(wsim::obs::Level::kMetrics);
  wsim::obs::reset_metrics();
  body();
  const AccelIters iters{metric_counter("simt.vector.accel_exact_iters"),
                         metric_counter("simt.vector.accel_value_iters")};
  wsim::obs::set_level(wsim::obs::Level::kOff);
  return iters;
}

TEST(InterpEquivalence, GlobalMemoryInFastForwardedLoops) {
  // The tier the vector engine runs at is fixed per process; ctest reruns
  // these cases with WSIM_VECTOR_ISA clamped to each lower tier.
  SCOPED_TRACE(std::string("vector tier ") + wsim::simt::vector_isa_name());
  const auto device = wsim::simt::make_k1200();
  for (const int window : {0, 5, 32}) {
    for (const int stride : {1, 4, 24}) {
      const Kernel kernel = build_gmem_stream(window, stride, kStreamRows);
      const auto program = wsim::simt::decode_program(kernel, device);
      ASSERT_EQ(program->accel_loops.size(), 1U);
      for (const std::int64_t trips : {0LL, 1LL, 2LL, 3LL, 300LL}) {
        const std::string label = "window=" + std::to_string(window) +
                                  " stride=" + std::to_string(stride) +
                                  " trips=" + std::to_string(trips);
        const StreamCase c = clean_stream(trips, stride);
        const RunOutcome legacy =
            run_gmem_stream(kernel, device, InterpPath::kLegacy, c);
        const RunOutcome fast = run_gmem_stream(kernel, device, InterpPath::kFast, c);
        RunOutcome vec;
        const AccelIters iters = count_accel_iters(
            [&] { vec = run_gmem_stream(kernel, device, InterpPath::kVector, c); });
        EXPECT_FALSE(legacy.threw) << label << ": " << legacy.error;
        expect_equal_outcomes(legacy, fast, label + " fast");
        expect_equal_outcomes(legacy, vec, label + " vector");
        EXPECT_EQ(iters.exact + iters.value, static_cast<std::uint64_t>(trips)) << label;
        if (trips == 300) {
          // Loads and stores really ran inside the value phase, and with
          // a mask that touches memory the segment walk made cold loads
          // deviate from it (more exact iterations than the first two).
          EXPECT_GT(iters.value, 0U) << label;
          EXPECT_GT(legacy.result.gmem_transactions, 300U) << label;
          if (window > 0) {
            EXPECT_GT(iters.exact, 2U) << label;
          }
        }
      }
    }
  }
}

TEST(InterpEquivalence, GlobalMemoryFaultsInsideTheValuePhase) {
  SCOPED_TRACE(std::string("vector tier ") + wsim::simt::vector_isa_name());
  const auto device = wsim::simt::make_k1200();
  constexpr std::int64_t kTrips = 300;
  for (const int window : {5, 32}) {
    for (const int stride : {1, 4, 24}) {
      const Kernel kernel = build_gmem_stream(window, stride, kStreamRows);
      const StreamCase clean = clean_stream(kTrips, stride);
      std::vector<std::pair<std::string, StreamCase>> cases;
      // Loads run off the end of the arena mid-loop: the input is the
      // last allocation and ends one stride early at iteration `at`, so
      // the top lanes go out of bounds there and every lane within 32
      // more iterations (the rotating mask decides which lane trips).
      for (const std::int64_t at : {9LL, 150LL, 250LL}) {
        StreamCase c = clean;
        c.in_last = true;
        c.in_bytes = 32 + stride * (at - 1);
        cases.emplace_back("load oob at " + std::to_string(at), c);
      }
      // Stores run off the end: the output ring is the last allocation
      // and is three rows short, so iteration 5 of the ring stores past it.
      {
        StreamCase c = clean;
        c.out_rows = kStreamRows - 3;
        cases.emplace_back("store oob", c);
      }
      // Cycle budgets swept across the whole run, and densely over its
      // last iterations: the budget trips at a different instruction each
      // time, including inside iterations the vector engine finishes after
      // a cold-load deviation and inside the final value-only iteration.
      const RunOutcome full = run_gmem_stream(kernel, device, InterpPath::kLegacy, clean);
      ASSERT_FALSE(full.threw) << full.error;
      std::vector<long long> budgets;
      for (int k = 1; k <= 48; ++k) {
        budgets.push_back(full.result.cycles * k / 48 - (k % 3));
      }
      for (const long long back : {1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144}) {
        budgets.push_back(full.result.cycles - back);
      }
      for (const long long budget : budgets) {
        StreamCase c = clean;
        c.max_cycles = budget;
        cases.emplace_back("budget " + std::to_string(budget), c);
      }
      for (const auto& [what, c] : cases) {
        const std::string label = "window=" + std::to_string(window) +
                                  " stride=" + std::to_string(stride) + " " + what;
        const RunOutcome legacy = run_gmem_stream(kernel, device, InterpPath::kLegacy, c);
        const RunOutcome fast = run_gmem_stream(kernel, device, InterpPath::kFast, c);
        const RunOutcome vec = run_gmem_stream(kernel, device, InterpPath::kVector, c);
        if (c.max_cycles == 0 || c.max_cycles < full.result.cycles) {
          EXPECT_TRUE(legacy.threw) << label;
        }
        expect_equal_outcomes(legacy, fast, label + " fast");
        expect_equal_outcomes(legacy, vec, label + " vector");
      }
    }
  }
}

TEST(InterpEquivalence, GlobalMemoryStreamUnderWriteOverlapCheck) {
  SCOPED_TRACE(std::string("vector tier ") + wsim::simt::vector_isa_name());
  const auto device = wsim::simt::make_titan_x();
  const Kernel kernel = build_gmem_stream(7, 4, kStreamRows);
  constexpr std::int64_t kTrips = 200;
  constexpr int kBlocks = 4;
  wsim::simt::ExecutionEngine engine(
      wsim::simt::EngineOptions{.threads = 2, .check_write_overlap = true});

  struct GridOutcome {
    bool threw = false;
    std::string error;
    wsim::simt::LaunchResult result;
    std::vector<std::uint8_t> memory;
  };
  // `shared_out` points every block at one output ring: a racy grid the
  // checker must reject identically on every engine.
  const auto run_grid = [&](InterpPath path, bool shared_out) {
    GlobalMemory gmem;
    const std::size_t in_bytes = 32 + 4 * kTrips;
    std::vector<wsim::simt::BlockLaunch> blocks(kBlocks);
    std::int64_t first_out = -1;
    for (int b = 0; b < kBlocks; ++b) {
      const std::int64_t in = gmem.alloc(in_bytes, 1);
      std::vector<std::uint8_t> bytes(in_bytes);
      for (std::size_t i = 0; i < bytes.size(); ++i) {
        bytes[i] = static_cast<std::uint8_t>((i * 13 + static_cast<std::size_t>(b)) & 0xFF);
      }
      gmem.write_u8(in, bytes);
      std::int64_t out = first_out;
      if (!shared_out || b == 0) {
        out = gmem.alloc(kStreamRows * 32 * 4);
        first_out = out;
      }
      blocks[static_cast<std::size_t>(b)].args = {static_cast<std::uint64_t>(in),
                                                  static_cast<std::uint64_t>(out),
                                                  static_cast<std::uint64_t>(kTrips)};
    }
    wsim::simt::LaunchOptions lopt;
    lopt.interp = path;
    GridOutcome outcome;
    try {
      outcome.result = engine.launch(kernel, device, gmem, blocks, lopt);
    } catch (const CheckError& e) {
      outcome.threw = true;
      outcome.error = e.what();
    }
    outcome.memory = gmem.read_u8(0, gmem.size());
    return outcome;
  };
  for (const bool shared_out : {false, true}) {
    const std::string label = shared_out ? "racy grid" : "disjoint grid";
    const GridOutcome legacy = run_grid(InterpPath::kLegacy, shared_out);
    EXPECT_EQ(legacy.threw, shared_out) << label << ": " << legacy.error;
    for (const InterpPath path : {InterpPath::kFast, InterpPath::kVector}) {
      const GridOutcome other = run_grid(path, shared_out);
      ASSERT_EQ(legacy.threw, other.threw) << label;
      EXPECT_EQ(legacy.error, other.error) << label;
      if (!shared_out) {
        EXPECT_EQ(legacy.memory, other.memory) << label;
        EXPECT_EQ(legacy.result.instructions, other.result.instructions) << label;
        EXPECT_EQ(legacy.result.blocks_executed, other.result.blocks_executed) << label;
        expect_equal_results(legacy.result.representative,
                             other.result.representative, label);
      }
    }
  }
}

// The production kernels' main loops hold global loads, so the
// fast-forward only pays on the real stack if those loops run value-only:
// PairHMM forward (the shuffle design) dominates the serving workload.
TEST(InterpEquivalence, PairHmmShuffleLoopRunsMostlyValueOnly) {
  const auto dataset = small_dataset();
  const auto batches = wsim::workload::ph_rebatch(dataset, 8);
  ASSERT_FALSE(batches.empty());
  const wsim::kernels::PhRunner runner(CommMode::kShuffle);
  wsim::kernels::PhRunOptions opt;
  opt.collect_outputs = true;
  opt.double_fallback = true;
  opt.interp = InterpPath::kVector;
  const AccelIters iters = count_accel_iters(
      [&] { runner.run_batch(wsim::simt::make_k1200(), batches.front(), opt); });
  const std::uint64_t total = iters.exact + iters.value;
  ASSERT_GT(total, 0U) << "the PairHMM shuffle loop is not fast-forward eligible";
  EXPECT_GE(iters.value * 10, total * 9)
      << iters.value << " of " << total << " accel iterations ran value-only";
}

/// Runs one block of `kernel` on an arena that `layout` allocates and
/// fills (it returns the kernel's scalar arguments), with the write set
/// recorded and, when `traced`, the instruction trace too. Tracing also
/// turns the vector engine's loop fast-forward off, so the two settings
/// reach the same instructions through both of its dispatch routes.
template <typename Layout>
RunOutcome run_on_arena(const Kernel& kernel, const DeviceSpec& device, InterpPath path,
                        bool traced, Layout layout) {
  GlobalMemory gmem;
  const std::vector<std::uint64_t> args = layout(gmem);
  RunOutcome outcome;
  Trace trace;
  GmemWriteSet writes;
  BlockRunOptions options;
  options.interp = path;
  options.trace = traced ? &trace : nullptr;
  options.writes = &writes;
  try {
    outcome.result = run_block(kernel, device, gmem, args, options);
  } catch (const CheckError& e) {
    outcome.threw = true;
    outcome.error = e.what();
  }
  outcome.memory = gmem.read_u8(0, gmem.size());
  outcome.trace = trace.events();
  outcome.writes = writes.spans();
  return outcome;
}

/// Runs `layout` on all three engines, traced and untraced, and expects
/// the vector and fast engines to match the legacy one exactly; returns
/// the untraced legacy outcome.
template <typename Layout>
RunOutcome expect_engines_agree(const Kernel& kernel, const DeviceSpec& device,
                                const std::string& label, Layout layout) {
  RunOutcome reference;
  for (const bool traced : {false, true}) {
    const std::string where = label + (traced ? " traced" : "");
    const RunOutcome legacy =
        run_on_arena(kernel, device, InterpPath::kLegacy, traced, layout);
    expect_equal_outcomes(legacy,
                          run_on_arena(kernel, device, InterpPath::kFast, traced, layout),
                          where + " fast");
    expect_equal_outcomes(legacy,
                          run_on_arena(kernel, device, InterpPath::kVector, traced, layout),
                          where + " vector");
    if (!traced) {
      reference = legacy;
    }
  }
  return reference;
}

std::uint32_t f32_bits(float value) { return std::bit_cast<std::uint32_t>(value); }

constexpr std::uint32_t kFmulMarker = 0x5A5A5A5Au;
constexpr float kFmulImm = 0x1p-64F;

/// One warp multiplying `trips` rows of 32 f32 operand pairs loaded from
/// global memory, three ways, into three result arrays `stride` bytes
/// apart: unpredicated (the 32-lane vector route), predicated on the even
/// lanes (the masked blend; odd lanes keep kFmulMarker), and by the
/// immediate kFmulImm (a broadcast operand).
Kernel build_fmul_rows() {
  KernelBuilder kb("fmul_rows", 32);
  const SReg a = kb.param();       // s0: left operands
  const SReg b = kb.param();       // s1: right operands
  const SReg out = kb.param();     // s2: the three result arrays
  const SReg trips = kb.param();   // s3: rows
  const SReg stride = kb.param();  // s4: bytes per result array
  const SReg stride2 = kb.sadd(stride, stride);
  const VReg lane = kb.laneid();
  const VReg even =
      kb.setp(Cmp::kEq, DType::kI64, kb.iand(lane, imm_i64(1)), imm_i64(0));
  const VReg off = kb.imul(lane, imm_i64(4));
  kb.loop(trips);
  const VReg x = kb.ldg(kb.iadd(a, off));
  const VReg y = kb.ldg(kb.iadd(b, off));
  const VReg slot = kb.iadd(out, off);
  kb.stg(slot, kb.fmul(x, y));
  const VReg masked = kb.mov(imm_i64(kFmulMarker));
  kb.begin_pred(even);
  kb.emit_to(masked, wsim::simt::Op::kFMul, x, y);
  kb.end_pred();
  kb.stg(kb.iadd(slot, stride), masked);
  kb.stg(kb.iadd(slot, stride2), kb.fmul(x, imm_f32(kFmulImm)));
  kb.assign(off, kb.iadd(off, imm_i64(32 * 4)));
  kb.endloop();
  return kb.build();
}

bool is_nan_bits(std::uint32_t bits) { return (bits & 0x7FFFFFFFu) > 0x7F800000u; }

// At the AVX-512 tier the vector engine multiplies f32 lanes through an
// exact f64 product rounded once to f32 (the other tiers and the scalar
// engines multiply in f32). Every pair of edge values must give the bits
// of the f32 multiply on every engine: signed zeros, the smallest and largest
// subnormals, products that round into the subnormal range or to zero,
// overflow past FLT_MAX, infinities, inf x 0, and quiet and signalling NaN
// payloads. (Two NaN operands are left out: which payload wins then
// depends on the operand order the compiler picks.)
TEST(InterpEquivalence, FloatMultiplyEdgeValuesMatchBitForBit) {
  SCOPED_TRACE(std::string("vector tier ") + wsim::simt::vector_isa_name());
  const std::vector<std::uint32_t> edges = {
      0x00000000u, 0x80000000u,                // +0, -0
      0x00000001u, 0x80000001u, 0x00000003u,   // smallest subnormals
      0x007FFFFFu, 0x807FFFFFu,                // largest subnormals
      0x00800000u,                             // FLT_MIN
      f32_bits(0.5F), f32_bits(1.0F), f32_bits(-1.5F), f32_bits(2.0F),
      0x3F000001u, 0x3F7FFFFFu,                // rounding just off 0.5 and 1
      f32_bits(0x1p-63F), f32_bits(0x1p-65F),  // products in the subnormal range
      0x1E800001u, 0x20400001u, 0x1F3FFFFFu,   // ... that round
      f32_bits(0x1p-103F),                     // products that round to zero
      0x7F7FFFFFu, 0xFF7FFFFFu,                // +-FLT_MAX
      0x7F800000u, 0xFF800000u,                // +-inf
      0x7FC12345u, 0xFFC00001u,                // quiet NaNs with payloads
      0x7F812345u, 0xFF800001u,                // signalling NaNs with payloads
  };
  std::vector<std::uint32_t> lhs;
  std::vector<std::uint32_t> rhs;
  for (const std::uint32_t x : edges) {
    for (const std::uint32_t y : edges) {
      if (!(is_nan_bits(x) && is_nan_bits(y))) {
        lhs.push_back(x);
        rhs.push_back(y);
      }
    }
  }
  while (lhs.size() % 32 != 0) {
    lhs.push_back(f32_bits(1.0F));
    rhs.push_back(f32_bits(1.0F));
  }
  const std::size_t n = lhs.size();
  const std::size_t bytes = n * 4;
  const auto layout = [&](GlobalMemory& gmem) {
    const std::int64_t a = gmem.alloc(bytes);
    const std::int64_t b = gmem.alloc(bytes);
    const std::int64_t out = gmem.alloc(3 * bytes);
    std::memcpy(gmem.at(a, bytes), lhs.data(), bytes);
    std::memcpy(gmem.at(b, bytes), rhs.data(), bytes);
    return std::vector<std::uint64_t>{static_cast<std::uint64_t>(a),
                                      static_cast<std::uint64_t>(b),
                                      static_cast<std::uint64_t>(out), n / 32, bytes};
  };
  const Kernel kernel = build_fmul_rows();
  for (const DeviceSpec& device : {wsim::simt::make_k1200(), wsim::simt::make_titan_x()}) {
    const RunOutcome legacy = expect_engines_agree(kernel, device, device.name, layout);
    ASSERT_FALSE(legacy.threw) << legacy.error;
    const std::size_t out = 2 * bytes;  // the arena offset of the results
    const auto result = [&](std::size_t array, std::size_t i) {
      std::uint32_t bits = 0;
      std::memcpy(&bits, legacy.memory.data() + out + array * bytes + i * 4, 4);
      return bits;
    };
    for (std::size_t i = 0; i < n; ++i) {
      const float x = std::bit_cast<float>(lhs[i]);
      const float y = std::bit_cast<float>(rhs[i]);
      const std::string pair = device.name + " " + std::to_string(i);
      EXPECT_EQ(result(0, i), f32_bits(x * y)) << pair;
      EXPECT_EQ(result(1, i), i % 2 == 0 ? f32_bits(x * y) : kFmulMarker) << pair;
      EXPECT_EQ(result(2, i), f32_bits(x * kFmulImm)) << pair;
    }
  }
}

/// One warp that loads its per-lane addresses from four 32-entry i32
/// tables at `tables` (a B4 load address, a B1 load address, a B4 store
/// address, and an active flag), then `trips` times loads B4 and B1 from
/// those addresses and stores their sum, all under the flag when
/// `predicated`. The loaded values land in two result rows after the
/// tables, so every engine's register contents are compared too.
Kernel build_gmem_table(bool predicated) {
  KernelBuilder kb(predicated ? "gmem_table_pred" : "gmem_table", 32);
  const SReg tables = kb.param();  // s0
  const SReg trips = kb.param();   // s1
  const VReg row = kb.iadd(tables, kb.imul(kb.tid(), imm_i64(4)));
  const VReg load4 = kb.ldg(row);
  const VReg load1 = kb.ldg(row, 128);
  const VReg store = kb.ldg(row, 256);
  const VReg active = kb.ldg(row, 384);
  const VReg word = kb.mov(imm_i64(-1));
  const VReg byte = kb.mov(imm_i64(-2));
  kb.loop(trips);
  if (predicated) {
    kb.begin_pred(active);
  }
  kb.ldg_to(word, load4);
  kb.ldg_to(byte, load1, 0, MemWidth::kB1);
  kb.stg(store, kb.iadd(word, byte));
  if (predicated) {
    kb.end_pred();
  }
  kb.endloop();
  kb.stg(row, word, 512);
  kb.stg(row, byte, 640);
  return kb.build();
}

/// Per-lane addresses and flags of one gmem_table run. Addresses are
/// relative to the data region, which starts kGmemTableData bytes into the
/// arena (after the tables and result rows) and ends it, kGmemDataBytes on.
struct GmemTable {
  std::array<std::int32_t, 32> load4{};
  std::array<std::int32_t, 32> load1{};
  std::array<std::int32_t, 32> store{};
  std::array<std::int32_t, 32> active{};
};

constexpr std::int64_t kGmemPage = 4096;
constexpr std::int64_t kGmemTableData = 1024;
constexpr std::int64_t kGmemDataBytes = 32 * kGmemPage + 128;

// Accesses the other cases never make: lanes scattered across more than 64
// segments, faults in the middle of the active lanes (the lanes below the
// fault must already have stored), negative addresses, loads that end at
// the arena's last byte, words off 4-byte alignment, and accesses with no
// active lane.
TEST(InterpEquivalence, GlobalMemoryWideScatterAndMidMaskFaults) {
  SCOPED_TRACE(std::string("vector tier ") + wsim::simt::vector_isa_name());
  const auto device = wsim::simt::make_k1200();
  constexpr std::int64_t kPage = kGmemPage;
  constexpr std::int64_t kEnd = kGmemDataBytes;
  const auto scatter = [] {
    GmemTable t;  // lanes one page apart: 32 segments over a 993-segment span
    for (int lane = 0; lane < 32; ++lane) {
      t.load4[lane] = lane * kPage;
      t.load1[lane] = lane * kPage + 4 + lane;
      t.store[lane] = lane * kPage + 64;
      t.active[lane] = 1;
    }
    return t;
  };
  std::vector<std::pair<std::string, GmemTable>> cases;
  cases.emplace_back("scatter", scatter());
  {
    GmemTable t = scatter();  // descending addresses, every third lane active
    for (int lane = 0; lane < 32; ++lane) {
      t.load4[lane] = (31 - lane) * kPage + 8;
      t.store[lane] = (31 - lane) * kPage + 96;
      t.active[lane] = lane % 3 == 0 ? 1 : 0;
    }
    cases.emplace_back("descending scatter", t);
  }
  {
    GmemTable t = scatter();  // two clusters 40 segments apart
    for (int lane = 0; lane < 32; ++lane) {
      const std::int64_t base = lane < 16 ? 40 * 128 : 0;
      t.load4[lane] = static_cast<std::int32_t>(base + lane * 4);
      t.load1[lane] = static_cast<std::int32_t>(base + 128 + lane);
      t.store[lane] = static_cast<std::int32_t>(base + 256 + lane * 4);
    }
    cases.emplace_back("two clusters", t);
  }
  {
    GmemTable t = scatter();  // three segments over a 120-segment span
    for (int lane = 0; lane < 32; ++lane) {
      const std::int64_t segment = lane == 0 ? 60 : lane < 16 ? 0 : 120;
      t.load4[lane] = static_cast<std::int32_t>(segment * 128 + lane * 4);
    }
    cases.emplace_back("three segments", t);
  }
  {
    GmemTable t = scatter();  // B4 loads and stores off 4-byte alignment
    for (int lane = 0; lane < 32; ++lane) {
      t.load4[lane] = lane * kPage + 1 + lane % 3;
      t.store[lane] = lane * kPage + 65 + lane % 3;
    }
    cases.emplace_back("unaligned words", t);
  }
  {
    GmemTable t = scatter();  // odd lanes only; lane 17's store is past the end
    for (int lane = 0; lane < 32; ++lane) {
      t.store[lane] = lane * 4 + 8;
      t.active[lane] = lane % 2;
    }
    t.store[17] = kEnd + 100;
    cases.emplace_back("store fault mid-mask", t);
  }
  {
    GmemTable t = scatter();  // a B4 load that overhangs the last byte
    t.load4[13] = kEnd - 3;
    cases.emplace_back("load overhangs the end", t);
  }
  {
    GmemTable t = scatter();  // stores before the fault, wide span
    t.store[9] = -kGmemTableData - 8;
    cases.emplace_back("negative store address", t);
  }
  {
    GmemTable t = scatter();
    t.load1[3] = -kGmemTableData - 1;
    cases.emplace_back("negative load address", t);
  }
  {
    GmemTable t = scatter();  // loads ending exactly at the arena's end
    t.load1[31] = kEnd - 1;
    t.load4[30] = kEnd - 4;
    cases.emplace_back("loads at the last bytes", t);
  }
  {
    GmemTable t = scatter();
    t.active.fill(0);
    cases.emplace_back("no active lane", t);
  }

  for (const bool predicated : {false, true}) {
    const Kernel kernel = build_gmem_table(predicated);
    for (const std::int64_t trips : {1, 6}) {
      for (const auto& [what, t] : cases) {
        const std::string label = what + (predicated ? " predicated" : "") +
                                  " trips=" + std::to_string(trips);
        const auto layout = [&](GlobalMemory& gmem) {
          const std::int64_t tables = gmem.alloc(kGmemTableData, 128);
          const std::int64_t data = gmem.alloc(kGmemDataBytes, 128);
          std::vector<std::int32_t> rows;
          for (const auto* table : {&t.load4, &t.load1, &t.store}) {
            for (const std::int32_t rel : *table) {
              rows.push_back(static_cast<std::int32_t>(data + rel));
            }
          }
          rows.insert(rows.end(), t.active.begin(), t.active.end());
          gmem.write_i32(tables, rows);
          std::vector<std::uint8_t> fill(kGmemDataBytes);
          for (std::size_t i = 0; i < fill.size(); ++i) {
            fill[i] = static_cast<std::uint8_t>((i * 131 + 7) & 0xFF);
          }
          gmem.write_u8(data, fill);
          return std::vector<std::uint64_t>{static_cast<std::uint64_t>(tables),
                                            static_cast<std::uint64_t>(trips)};
        };
        const RunOutcome legacy = expect_engines_agree(kernel, device, label, layout);
        const bool faults = what.find("fault") != std::string::npos ||
                            what.find("overhangs") != std::string::npos ||
                            what.find("negative") != std::string::npos;
        EXPECT_EQ(legacy.threw, faults) << label << ": " << legacy.error;
        if (legacy.threw) {
          EXPECT_NE(legacy.error.find("global memory access out of bounds"),
                    std::string::npos)
              << label << ": " << legacy.error;
        }
        if (what == "store fault mid-mask") {
          // Exactly the active lanes below the faulting one stored.
          GmemWriteSet stored;
          for (int lane = 0; lane < 17; ++lane) {
            if (!predicated || t.active[static_cast<std::size_t>(lane)] != 0) {
              stored.add(kGmemTableData + t.store[static_cast<std::size_t>(lane)], 4);
            }
          }
          EXPECT_EQ(legacy.writes, stored.spans()) << label;
        }
      }
    }
  }
}

}  // namespace
