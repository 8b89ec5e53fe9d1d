// Edge-case semantics of the remaining ISA operations: shifts, min/max,
// float compare corner cases, warp id, disassembly of predicated code.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "wsim/simt/builder.hpp"
#include "wsim/simt/device.hpp"
#include "wsim/simt/interpreter.hpp"
#include "wsim/simt/memory.hpp"

namespace {

using wsim::simt::Cmp;
using wsim::simt::DType;
using wsim::simt::GlobalMemory;
using wsim::simt::imm_f32;
using wsim::simt::imm_i64;
using wsim::simt::InterpPath;
using wsim::simt::Kernel;
using wsim::simt::KernelBuilder;
using wsim::simt::Op;
using wsim::simt::SReg;
using wsim::simt::VReg;

const wsim::simt::DeviceSpec kDev = wsim::simt::make_k1200();

template <typename Body>
std::vector<std::int32_t> run_lanes(Body body, int threads = 32,
                                    InterpPath interp = InterpPath::kDefault) {
  KernelBuilder kb("case", threads);
  const SReg out = kb.param();
  const VReg t = kb.tid();
  const VReg v = body(kb, t);
  kb.stg(kb.iadd(out, kb.imul(t, imm_i64(4))), v);
  const Kernel k = kb.build();
  GlobalMemory gmem;
  const auto buf = gmem.alloc(static_cast<std::size_t>(threads) * 4);
  const std::vector<std::uint64_t> args = {static_cast<std::uint64_t>(buf)};
  wsim::simt::BlockRunOptions options;
  options.interp = interp;
  run_block(k, kDev, gmem, args, options);
  return gmem.read_i32(buf, static_cast<std::size_t>(threads));
}

TEST(IsaSemantics, ShiftLeftAndRight) {
  const auto left = run_lanes(
      [](KernelBuilder& kb, VReg t) { return kb.shl(t, imm_i64(3)); });
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(left[static_cast<std::size_t>(i)], i << 3);
  }
  const auto right = run_lanes([](KernelBuilder& kb, VReg t) {
    return kb.shr(kb.isub(imm_i64(0), t), imm_i64(1));  // arithmetic shift
  });
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(right[static_cast<std::size_t>(i)], -i >> 1);
  }
}

// Integer add/sub/mul wrap modulo 2^64, like the hardware, on every
// engine and in vector and scalar registers alike. The engines compute
// them on the unsigned bits, so the UBSan job sees no signed overflow.
TEST(IsaSemantics, IntegerArithmeticWrapsOnEveryEngine) {
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  for (const InterpPath path :
       {InterpPath::kLegacy, InterpPath::kFast, InterpPath::kVector}) {
    // (max + t) + 1 = min + t; its high word is INT32_MIN.
    const auto add = run_lanes(
        [](KernelBuilder& kb, VReg t) {
          return kb.shr(kb.iadd(kb.iadd(t, imm_i64(kMax)), imm_i64(1)), imm_i64(32));
        },
        32, path);
    // (min - t) - 1 = max - t; its high word is INT32_MAX.
    const auto sub = run_lanes(
        [](KernelBuilder& kb, VReg t) {
          return kb.shr(kb.isub(kb.isub(imm_i64(kMin), t), imm_i64(1)), imm_i64(32));
        },
        32, path);
    // (2^62 + t) * 4 = 4t.
    const auto mul = run_lanes(
        [](KernelBuilder& kb, VReg t) {
          return kb.imul(kb.iadd(t, imm_i64(std::int64_t{1} << 62)), imm_i64(4));
        },
        32, path);
    // Scalar registers: (max + 1) * 2 - (min - 1) = 0 - max = min + 1; its
    // high word is INT32_MIN.
    const auto scalar = run_lanes(
        [](KernelBuilder& kb, VReg t) {
          const SReg wrapped = kb.ssub(kb.smul(kb.sadd(imm_i64(kMax), imm_i64(1)),
                                               imm_i64(2)),
                                       kb.ssub(imm_i64(kMin), imm_i64(1)));
          return kb.iadd(t, kb.shr(kb.mov(wrapped), imm_i64(32)));
        },
        32, path);
    for (int i = 0; i < 32; ++i) {
      const auto lane = static_cast<std::size_t>(i);
      EXPECT_EQ(add[lane], std::numeric_limits<std::int32_t>::min()) << i;
      EXPECT_EQ(sub[lane], std::numeric_limits<std::int32_t>::max()) << i;
      EXPECT_EQ(mul[lane], 4 * i) << i;
      EXPECT_EQ(scalar[lane], i + std::numeric_limits<std::int32_t>::min()) << i;
    }
  }
}

TEST(IsaSemantics, IntegerMinMaxAreSigned) {
  const auto v = run_lanes([](KernelBuilder& kb, VReg t) {
    const VReg neg = kb.isub(t, imm_i64(16));  // -16..15
    return kb.iadd(kb.imul(kb.imax(neg, imm_i64(0)), imm_i64(100)),
                   kb.imin(neg, imm_i64(0)));
  });
  for (int i = 0; i < 32; ++i) {
    const int neg = i - 16;
    EXPECT_EQ(v[static_cast<std::size_t>(i)],
              std::max(neg, 0) * 100 + std::min(neg, 0));
  }
}

TEST(IsaSemantics, FloatMinMax) {
  const auto v = run_lanes([](KernelBuilder& kb, VReg t) {
    (void)t;
    const VReg a = kb.fmax(imm_f32(-2.5F), imm_f32(1.5F));
    const VReg b = kb.fmin(a, imm_f32(0.5F));
    // 0.5f -> compare against 0.25f to produce an integer flag.
    return kb.setp(Cmp::kEq, DType::kF32, b, imm_f32(0.5F));
  });
  for (const auto flag : v) {
    EXPECT_EQ(flag, 1);
  }
}

TEST(IsaSemantics, FloatCompareOrdering) {
  const auto v = run_lanes([](KernelBuilder& kb, VReg t) {
    (void)t;
    const VReg lt = kb.setp(Cmp::kLt, DType::kF32, imm_f32(-1.0F), imm_f32(2.0F));
    const VReg ge = kb.setp(Cmp::kGe, DType::kF32, imm_f32(2.0F), imm_f32(2.0F));
    const VReg ne = kb.setp(Cmp::kNe, DType::kF32, imm_f32(1.0F), imm_f32(1.0F));
    return kb.iadd(kb.iadd(kb.shl(lt, imm_i64(2)), kb.shl(ge, imm_i64(1))), ne);
  });
  for (const auto flags : v) {
    EXPECT_EQ(flags, 0b110);
  }
}

TEST(IsaSemantics, WarpIdAndLaneIdDecomposeTid) {
  const auto v = run_lanes(
      [](KernelBuilder& kb, VReg t) {
        (void)t;
        return kb.iadd(kb.imul(kb.warpid(), imm_i64(32)), kb.laneid());
      },
      96);
  for (int i = 0; i < 96; ++i) {
    EXPECT_EQ(v[static_cast<std::size_t>(i)], i);
  }
}

TEST(IsaSemantics, SelpPicksPerLane) {
  const auto v = run_lanes([](KernelBuilder& kb, VReg t) {
    const VReg odd = kb.iand(t, imm_i64(1));
    return kb.selp(odd, kb.imul(t, imm_i64(-1)), t);
  });
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(v[static_cast<std::size_t>(i)], (i % 2 == 1) ? -i : i);
  }
}

TEST(IsaSemantics, ScalarMinMaxArithmetic) {
  const auto v = run_lanes([](KernelBuilder& kb, VReg t) {
    const SReg a = kb.smov(imm_i64(7));
    const SReg b = kb.smul(a, imm_i64(-3));  // -21
    const SReg lo = kb.smin(a, b);
    const SReg hi = kb.smax(a, b);
    return kb.iadd(kb.iadd(kb.mov(lo), kb.imul(kb.mov(hi), imm_i64(1000))), kb.imul(t, imm_i64(0)));
  });
  for (const auto value : v) {
    EXPECT_EQ(value, 7000 - 21);
  }
}

TEST(IsaSemantics, NegativeIntegerSurvivesGmemRoundTrip) {
  // B4 loads sign-extend: store -123456, read it back through the ISA.
  KernelBuilder kb("roundtrip", 32);
  const SReg out = kb.param();
  const VReg t = kb.tid();
  const VReg addr = kb.iadd(out, kb.imul(t, imm_i64(4)));
  kb.stg(addr, imm_i64(-123456));
  const VReg back = kb.ldg(addr);
  const VReg doubled = kb.imul(back, imm_i64(2));
  kb.stg(addr, doubled);
  const Kernel k = kb.build();
  GlobalMemory gmem;
  const auto buf = gmem.alloc(32 * 4);
  const std::vector<std::uint64_t> args = {static_cast<std::uint64_t>(buf)};
  run_block(k, kDev, gmem, args);
  EXPECT_EQ(gmem.read_i32(buf, 1)[0], -246912);
}

TEST(IsaSemantics, DisassemblyShowsPredicates) {
  KernelBuilder kb("preddump", 32);
  const VReg t = kb.tid();
  const VReg p = kb.setp(Cmp::kLt, DType::kI64, t, imm_i64(4));
  kb.begin_pred(p, /*negate=*/true);
  kb.stg(kb.imul(t, imm_i64(4)), t);
  kb.end_pred();
  const Kernel k = kb.build();
  const std::string text = wsim::simt::disassemble(k);
  EXPECT_NE(text.find("@!p"), std::string::npos);
  EXPECT_NE(text.find("setp"), std::string::npos);
}

TEST(IsaSemantics, NopIsHarmless) {
  KernelBuilder kb("nop", 32);
  const SReg out = kb.param();
  const VReg t = kb.tid();
  kb.emit(Op::kNop, wsim::simt::Operand::none());
  kb.stg(kb.iadd(out, kb.imul(t, imm_i64(4))), t);
  const Kernel k = kb.build();
  GlobalMemory gmem;
  const auto buf = gmem.alloc(32 * 4);
  const std::vector<std::uint64_t> args = {static_cast<std::uint64_t>(buf)};
  EXPECT_NO_THROW(run_block(k, kDev, gmem, args));
  EXPECT_EQ(gmem.read_i32(buf, 32)[31], 31);
}

}  // namespace
