// The lane-vector interpreter: third engine over the DecodedProgram
// stream (see fastpath_engine.hpp for the shared execution core and
// decode.cpp for the metadata it consumes).
//
// Execution model:
//
//   * Unpredicated kSimple/kShuffle instructions (DecodedInstr::vec, baked
//     at decode) compute all 32 lanes in a handful of SIMD vector ops.
//     The kernels are written with GCC/Clang generic vector extensions so
//     one implementation serves three tiers — an AVX-512 and an AVX2
//     variant compiled via target attributes, and a generic variant the
//     compiler lowers to whatever the baseline -march provides. The tier
//     is picked once per process (__builtin_cpu_supports), clamped
//     downgrade-only by WSIM_VECTOR_ISA, and reported by
//     vector_isa_name().
//     At the AVX-512 tier, f32 multiplies run as exact f64 products
//     rounded once to f32: the same bits, without the microcode assist an
//     f32 multiply takes on a subnormal operand or product (PairHMM's
//     recurrence makes many; see fmul_avx512).
//   * Predicated simple instructions compute full-width and blend under
//     the predicate; other predicated (divergent) instructions fall back
//     to the per-lane scalar handlers inherited from EngineBase — the same
//     code the fast path runs, so the divergence semantics cannot drift.
//   * Loops the decoder marked accel-eligible (DecodedInstr::accel) run a
//     steady-state fast-forward: iterations execute exactly while the
//     warp's relative timing signature is recorded; once two consecutive
//     iterations produce the same signature and the same dynamic inputs
//     (shared-memory replay cycles, global-load cold/cached latencies,
//     single-warp barrier decisions), the remaining iterations run
//     value-only and the timing state is shifted by the steady
//     per-iteration delta. Any deviation in the dynamic inputs
//     retro-applies timing for the executed prefix and finishes the
//     iteration exactly, so the shortcut is bit-identical — including the
//     throw points and messages of cycle-budget and out-of-bounds errors.
//     Tracing disables the shortcut (each instruction must emit its own
//     trace event).
//
// Everything observable — functional outputs, BlockResult counters, SDC
// event numbering, trace contents, error surface — stays bit-identical to
// the fast and legacy engines; interp_equivalence_test and the
// divergence-ratio fuzz test enforce it. Blocks with SDC injection
// enabled delegate to run_block_fast wholesale (injection numbers
// per-lane write events sequentially, which pins the scalar order).

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <string_view>
#include <utility>
#include <vector>

#include "wsim/obs/metrics.hpp"
#include "wsim/simt/fastpath_engine.hpp"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace wsim::simt {
namespace {

// How much of each accel loop ran exactly (profiling) vs value-only
// (fast-forwarded): the ratio is the lever behind the vector engine's
// micro-chain speedups, so regressions show up directly in metrics dumps.
obs::Counter& accel_exact_iters() {
  static obs::Counter c("simt.vector.accel_exact_iters");
  return c;
}
obs::Counter& accel_value_iters() {
  static obs::Counter c("simt.vector.accel_value_iters");
  return c;
}

using fastdetail::as_i64;
using fastdetail::kBranchCycles;
using fastdetail::kWarpSize;
using fastdetail::Ref;

// --- SIMD kernels -----------------------------------------------------------
//
// One 32-lane register is a row of chunks of the reg-major register
// file; each SIMD tier slices it at its native register width (VecTraits
// below). All kernels are elementwise over the chunk (lane i of the
// result depends only on lane i of the operands), so in-place updates
// (dst aliasing a source register) are safe chunk by chunk.

// This file compiles with -Wno-psabi (see src/CMakeLists.txt): every
// helper touching the wide vector types below is always_inline and
// internal to this translation unit, so the "vector ABI changed" notes
// describe call boundaries that never exist.

#define WSIM_VEC_INLINE __attribute__((always_inline)) inline

/// Per-tier chunk shape: `Lanes` 64-bit register-file lanes per SIMD
/// chunk. Each tier instantiates the shared kernel at its native SIMD
/// register width — 16-byte chunks for the baseline (SSE2) tier, 32-byte
/// for AVX2, 64-byte for AVX-512. Width must match what the target
/// codegen handles natively: GCC lowers wider-than-native generic
/// vectors cleanly when they split in quarters (64 B on SSE) but bounces
/// the mixed-width f32<->u64 bitcasts below through the stack and GPRs
/// when it must pair 32-byte halves (64 B types compiled for AVX2),
/// which costs more than the vectorization saves (measured ~0.5x of the
/// scalar fast path on the register chains).
template <int Lanes>
struct VecTraits;

template <>
struct VecTraits<2> {
  typedef std::uint64_t u64 __attribute__((vector_size(16)));
  typedef std::int64_t i64 __attribute__((vector_size(16)));
  typedef std::int32_t i32 __attribute__((vector_size(16)));
  typedef float f32 __attribute__((vector_size(16)));
  static constexpr int kLanes = 2;
  WSIM_VEC_INLINE static u64 splat(std::uint64_t x) noexcept {
    return u64{x, x};
  }
  WSIM_VEC_INLINE static i64 iota(std::int64_t b) noexcept {
    return i64{b, b + 1};
  }
};

template <>
struct VecTraits<4> {
  typedef std::uint64_t u64 __attribute__((vector_size(32)));
  typedef std::int64_t i64 __attribute__((vector_size(32)));
  typedef std::int32_t i32 __attribute__((vector_size(32)));
  typedef float f32 __attribute__((vector_size(32)));
  static constexpr int kLanes = 4;
  WSIM_VEC_INLINE static u64 splat(std::uint64_t x) noexcept {
    return u64{x, x, x, x};
  }
  WSIM_VEC_INLINE static i64 iota(std::int64_t b) noexcept {
    return i64{b, b + 1, b + 2, b + 3};
  }
};

template <>
struct VecTraits<8> {
  typedef std::uint64_t u64 __attribute__((vector_size(64)));
  typedef std::int64_t i64 __attribute__((vector_size(64)));
  typedef std::int32_t i32 __attribute__((vector_size(64)));
  typedef float f32 __attribute__((vector_size(64)));
  static constexpr int kLanes = 8;
  WSIM_VEC_INLINE static u64 splat(std::uint64_t x) noexcept {
    // GCC 12 builds the braced form {x, x, ...} of a scalar it must reload
    // (a Ref's broadcast) from eight merge-masked vpbroadcastq, one per
    // lane; a filled array copied into the vector compiles to one.
    std::uint64_t lanes[kLanes];
    std::fill_n(lanes, kLanes, x);
    u64 v;
    std::memcpy(&v, lanes, sizeof(v));
    return v;
  }
  WSIM_VEC_INLINE static i64 iota(std::int64_t b) noexcept {
    return i64{b, b + 1, b + 2, b + 3, b + 4, b + 5, b + 6, b + 7};
  }
};

template <class T>
WSIM_VEC_INLINE typename T::u64 vload(const std::uint64_t* p) noexcept {
  typename T::u64 v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

template <class T>
WSIM_VEC_INLINE void vstore(std::uint64_t* p, typename T::u64 v) noexcept {
  std::memcpy(p, &v, sizeof(v));
}

template <class To, class From>
WSIM_VEC_INLINE To vbits(From v) noexcept {
  static_assert(sizeof(To) == sizeof(From));
  To out;
  std::memcpy(&out, &v, sizeof(To));
  return out;
}

template <class T>
WSIM_VEC_INLINE typename T::u64 operand_chunk(const Ref& r, int c) noexcept {
  return r.lanes != nullptr
             ? vload<T>(r.lanes + static_cast<std::size_t>(c) * T::kLanes)
             : T::splat(r.broadcast);
}

template <class T>
WSIM_VEC_INLINE typename T::i64 lane_iota(int c) noexcept {
  return T::iota(static_cast<std::int64_t>(c) * T::kLanes);
}

// Runtime-Cmp comparisons; a vector comparison yields a same-shape signed
// integer mask (-1 true / 0 false). The default mirrors the scalar
// compare()'s `return false`.
template <class T>
WSIM_VEC_INLINE typename T::i32 vcmp_f32(Cmp cmp, typename T::f32 x,
                                         typename T::f32 y) noexcept {
  switch (cmp) {
    case Cmp::kLt: return x < y;
    case Cmp::kLe: return x <= y;
    case Cmp::kGt: return x > y;
    case Cmp::kGe: return x >= y;
    case Cmp::kEq: return x == y;
    case Cmp::kNe: return x != y;
  }
  return typename T::i32{};
}

template <class T>
WSIM_VEC_INLINE typename T::i64 vcmp_i64(Cmp cmp, typename T::i64 x,
                                         typename T::i64 y) noexcept {
  switch (cmp) {
    case Cmp::kLt: return x < y;
    case Cmp::kLe: return x <= y;
    case Cmp::kGt: return x > y;
    case Cmp::kGe: return x >= y;
    case Cmp::kEq: return x == y;
    case Cmp::kNe: return x != y;
  }
  return typename T::i64{};
}

/// Resolved inputs of one vectorized kSimple instruction.
struct VecArgs {
  std::uint64_t* dst = nullptr;
  Ref a;
  Ref b;
  Ref c;
  Cmp cmp = Cmp::kLt;
  std::int64_t base_tid = 0;
  std::int64_t warp_index = 0;
};

#if defined(__x86_64__)
// kFMul at the AVX-512 tier multiplies in f64: the product of two f32
// values is exact there (24 + 24 significant bits fit in 53, and no
// product leaves f64's normal range), so rounding it once to f32 gives the
// f32 multiply's bits, NaN payloads and signed zeros included. An f32
// multiply with a subnormal operand or product takes a microcode assist on
// Intel cores, and PairHMM's recurrence makes many; this route takes none.
//
// The conversions are spelled as intrinsics because GCC 12 lowers the
// generic-vector f32 <-> f64 conversions of a 64-byte chunk as two halves
// plus shuffles, three times the instructions. They are the zero-masking
// forms with a full mask: GCC emits the unmasked instructions for them,
// while its unmasked forms pass an undefined vector that
// -Wmaybe-uninitialized flags. The AVX2 and generic tiers keep the f32
// multiply: with GCC's split conversions the f64 route lost to it there
// on the latency-bound multiply chains (bench_simulator_perf's micro
// section fell below the fast engine at the generic tier).
#define WSIM_AVX512_TARGET __attribute__((target("avx512f,avx512bw,avx512dq,avx512vl")))

/// Chunk `c` of an operand's f32 payloads (the low 32 bits of each lane),
/// converted exactly to f64.
WSIM_AVX512_TARGET WSIM_VEC_INLINE __m512d widen_f32_avx512(const Ref& r, int c) noexcept {
  if (r.lanes == nullptr) {
    return _mm512_set1_pd(static_cast<double>(fastdetail::as_f32(r.broadcast)));
  }
  const __m512i v = _mm512_loadu_si512(r.lanes + static_cast<std::size_t>(c) * 8);
  return _mm512_maskz_cvtps_pd(0xFF, _mm256_castsi256_ps(_mm512_maskz_cvtepi64_epi32(0xFF, v)));
}

WSIM_AVX512_TARGET void fmul_avx512(const VecArgs& x) noexcept {
  for (int c = 0; c < kWarpSize / 8; ++c) {
    const __m512d p = _mm512_mul_pd(widen_f32_avx512(x.a, c), widen_f32_avx512(x.b, c));
    _mm512_storeu_si512(x.dst + static_cast<std::size_t>(c) * 8,
                        _mm512_maskz_cvtepu32_epi64(
                            0xFF, _mm256_castps_si256(_mm512_maskz_cvtpd_ps(0xFF, p))));
  }
}
#endif

/// All 32 lanes of one LaneOp, semantically identical to lane_apply() per
/// lane. f32 payloads live in the low 32 bits of each 64-bit lane: the
/// chunk is reinterpreted as 16 floats, the op computed elementwise (odd
/// slots hold the high garbage and are discarded), and the result masked
/// back to a zero-extended low word — exactly from_f32(op(as_f32(...))).
/// min/max select one unmodified input via the same (x < y) predicate as
/// std::min/std::max, so NaN handling and -0.0/+0.0 selection match the
/// scalar path bit for bit. FFma relies on the global -ffp-contract=off:
/// a contracted mul+add would change the f32 rounding against the scalar
/// engines.
template <LaneOp L, class T>
WSIM_VEC_INLINE void vec_exec(const VecArgs& x) noexcept {
  if constexpr (L == LaneOp::kNop) {
    (void)x;  // never dispatched: decode only marks vec on lane != kNop
#if defined(__x86_64__)
  } else if constexpr (L == LaneOp::kFMul && T::kLanes == 8) {
    fmul_avx512(x);
#endif
  } else {
    using U64 = typename T::u64;
    using I64 = typename T::i64;
    using I32 = typename T::i32;
    using F32 = typename T::f32;
    const U64 f32_mask = T::splat(0xFFFFFFFFu);
    constexpr int chunks = kWarpSize / T::kLanes;
    for (int c = 0; c < chunks; ++c) {
      U64 r;
      if constexpr (L == LaneOp::kMov) {
        r = operand_chunk<T>(x.a, c);
      } else if constexpr (L == LaneOp::kTid) {
        r = vbits<U64>(I64(lane_iota<T>(c) + x.base_tid));
      } else if constexpr (L == LaneOp::kLaneId) {
        r = vbits<U64>(lane_iota<T>(c));
      } else if constexpr (L == LaneOp::kWarpId) {
        r = T::splat(static_cast<std::uint64_t>(x.warp_index));
      } else if constexpr (L == LaneOp::kFAdd || L == LaneOp::kFSub ||
                           L == LaneOp::kFMul) {
        const F32 a = vbits<F32>(operand_chunk<T>(x.a, c));
        const F32 b = vbits<F32>(operand_chunk<T>(x.b, c));
        F32 f;
        if constexpr (L == LaneOp::kFAdd) {
          f = a + b;
        } else if constexpr (L == LaneOp::kFSub) {
          f = a - b;
        } else {
          f = a * b;
        }
        r = vbits<U64>(f) & f32_mask;
      } else if constexpr (L == LaneOp::kFFma) {
        const F32 a = vbits<F32>(operand_chunk<T>(x.a, c));
        const F32 b = vbits<F32>(operand_chunk<T>(x.b, c));
        const F32 cc = vbits<F32>(operand_chunk<T>(x.c, c));
        const F32 f = a * b + cc;
        r = vbits<U64>(f) & f32_mask;
      } else if constexpr (L == LaneOp::kFMax || L == LaneOp::kFMin) {
        const F32 a = vbits<F32>(operand_chunk<T>(x.a, c));
        const F32 b = vbits<F32>(operand_chunk<T>(x.b, c));
        I32 m;
        if constexpr (L == LaneOp::kFMax) {
          m = a < b;
        } else {
          m = b < a;
        }
        const F32 f = m ? b : a;
        r = vbits<U64>(f) & f32_mask;
      } else if constexpr (L == LaneOp::kIAdd || L == LaneOp::kISub ||
                           L == LaneOp::kIMul) {
        // Unsigned lanes: the same wrapping bits as the scalar engines,
        // without signed-overflow UB.
        const U64 a = operand_chunk<T>(x.a, c);
        const U64 b = operand_chunk<T>(x.b, c);
        if constexpr (L == LaneOp::kIAdd) {
          r = a + b;
        } else if constexpr (L == LaneOp::kISub) {
          r = a - b;
        } else {
          r = a * b;
        }
      } else if constexpr (L == LaneOp::kIMax || L == LaneOp::kIMin) {
        const I64 a = vbits<I64>(operand_chunk<T>(x.a, c));
        const I64 b = vbits<I64>(operand_chunk<T>(x.b, c));
        I64 m;
        if constexpr (L == LaneOp::kIMax) {
          m = a < b;
        } else {
          m = b < a;
        }
        r = vbits<U64>(I64(m ? b : a));
      } else if constexpr (L == LaneOp::kIAnd) {
        r = operand_chunk<T>(x.a, c) & operand_chunk<T>(x.b, c);
      } else if constexpr (L == LaneOp::kIOr) {
        r = operand_chunk<T>(x.a, c) | operand_chunk<T>(x.b, c);
      } else if constexpr (L == LaneOp::kIXor) {
        r = operand_chunk<T>(x.a, c) ^ operand_chunk<T>(x.b, c);
      } else if constexpr (L == LaneOp::kShl) {
        const I64 a = vbits<I64>(operand_chunk<T>(x.a, c));
        const I64 b = vbits<I64>(operand_chunk<T>(x.b, c));
        r = vbits<U64>(I64(a << (b & 63)));
      } else if constexpr (L == LaneOp::kShr) {
        const I64 a = vbits<I64>(operand_chunk<T>(x.a, c));
        const I64 b = vbits<I64>(operand_chunk<T>(x.b, c));
        r = vbits<U64>(I64(a >> (b & 63)));
      } else if constexpr (L == LaneOp::kSetpF32) {
        const F32 a = vbits<F32>(operand_chunk<T>(x.a, c));
        const F32 b = vbits<F32>(operand_chunk<T>(x.b, c));
        // Bit 0 of the 64-bit lane is bit 0 of the payload slot's mask.
        r = vbits<U64>(vcmp_f32<T>(x.cmp, a, b)) & T::splat(1);
      } else if constexpr (L == LaneOp::kSetpI64) {
        const I64 a = vbits<I64>(operand_chunk<T>(x.a, c));
        const I64 b = vbits<I64>(operand_chunk<T>(x.b, c));
        r = vbits<U64>(I64(vcmp_i64<T>(x.cmp, a, b))) & T::splat(1);
      } else if constexpr (L == LaneOp::kSelp) {
        const I64 a = vbits<I64>(operand_chunk<T>(x.a, c));
        const I64 b = vbits<I64>(operand_chunk<T>(x.b, c));
        const I64 cc = vbits<I64>(operand_chunk<T>(x.c, c));
        const I64 m = cc != 0;
        r = vbits<U64>(I64(m ? a : b));
      } else {
        r = T::splat(0);
      }
      vstore<T>(x.dst + static_cast<std::size_t>(c) * T::kLanes, r);
    }
  }
}

/// Predicated variant: computes all 32 lanes full-width into a scratch
/// buffer, then blends under the predicate so inactive lanes keep their
/// old destination bits — exactly the per-lane fallback's skip semantics.
/// Running inactive lanes speculatively is safe because every lane op is
/// a pure elementwise function: no lane-crossing reads, no memory access,
/// and no trapping math (FP exceptions are not enabled).
template <LaneOp L, class T>
WSIM_VEC_INLINE void vec_exec_masked(const VecArgs& x, const std::uint64_t* pv,
                                     bool negate) noexcept {
  if constexpr (L == LaneOp::kNop) {
    // Never dispatched (decode requires lane != kNop), and a nop writes
    // nothing, so there is no result to blend.
    (void)x;
    (void)pv;
    (void)negate;
  } else {
    using U64 = typename T::u64;
    using I64 = typename T::i64;
    alignas(64) std::uint64_t tmp[fastdetail::kWarpSize];
    VecArgs t = x;
    t.dst = tmp;
    vec_exec<L, T>(t);
    constexpr int chunks = kWarpSize / T::kLanes;
    for (int c = 0; c < chunks; ++c) {
      const std::size_t off = static_cast<std::size_t>(c) * T::kLanes;
      const I64 active = (vbits<I64>(vload<T>(pv + off)) != I64{});
      const I64 tv = vbits<I64>(vload<T>(tmp + off));
      const I64 ov = vbits<I64>(vload<T>(x.dst + off));
      const I64 r = negate ? I64(active ? ov : tv) : I64(active ? tv : ov);
      vstore<T>(x.dst + off, vbits<U64>(r));
    }
  }
}

// --- per-tier instantiations ------------------------------------------------
//
// The generic wrappers compile at the translation unit's baseline -march
// over 16-byte chunks; the target-attributed twins re-instantiate the
// same always_inline kernel under AVX2 / AVX-512 codegen at that tier's
// native chunk width. Inlining a lower-target callee into a
// higher-target caller is legal, so one vec_exec serves all tiers.

using VecFn = void (*)(const VecArgs&);
using MaskedVecFn = void (*)(const VecArgs&, const std::uint64_t*, bool);

template <LaneOp L>
void vec_op_generic(const VecArgs& x) {
  vec_exec<L, VecTraits<2>>(x);
}

template <LaneOp L>
void vec_op_masked_generic(const VecArgs& x, const std::uint64_t* pv, bool negate) {
  vec_exec_masked<L, VecTraits<2>>(x, pv, negate);
}

#if defined(__x86_64__)
template <LaneOp L>
__attribute__((target("avx2"))) void vec_op_avx2(const VecArgs& x) {
  vec_exec<L, VecTraits<4>>(x);
}

template <LaneOp L>
__attribute__((target("avx2"))) void vec_op_masked_avx2(const VecArgs& x,
                                                        const std::uint64_t* pv,
                                                        bool negate) {
  vec_exec_masked<L, VecTraits<4>>(x, pv, negate);
}

template <LaneOp L>
WSIM_AVX512_TARGET void vec_op_avx512(const VecArgs& x) {
  vec_exec<L, VecTraits<8>>(x);
}

template <LaneOp L>
WSIM_AVX512_TARGET void vec_op_masked_avx512(const VecArgs& x, const std::uint64_t* pv,
                                             bool negate) {
  vec_exec_masked<L, VecTraits<8>>(x, pv, negate);
}
#endif

template <std::size_t... I>
constexpr std::array<VecFn, kNumLaneOps> make_generic_table(std::index_sequence<I...>) {
  return {{&vec_op_generic<static_cast<LaneOp>(I)>...}};
}

template <std::size_t... I>
constexpr std::array<MaskedVecFn, kNumLaneOps> make_masked_generic_table(
    std::index_sequence<I...>) {
  return {{&vec_op_masked_generic<static_cast<LaneOp>(I)>...}};
}

inline constexpr auto kVecTableGeneric =
    make_generic_table(std::make_index_sequence<kNumLaneOps>{});
inline constexpr auto kMaskedTableGeneric =
    make_masked_generic_table(std::make_index_sequence<kNumLaneOps>{});

#if defined(__x86_64__)
template <std::size_t... I>
constexpr std::array<VecFn, kNumLaneOps> make_avx2_table(std::index_sequence<I...>) {
  return {{&vec_op_avx2<static_cast<LaneOp>(I)>...}};
}

template <std::size_t... I>
constexpr std::array<VecFn, kNumLaneOps> make_avx512_table(std::index_sequence<I...>) {
  return {{&vec_op_avx512<static_cast<LaneOp>(I)>...}};
}

template <std::size_t... I>
constexpr std::array<MaskedVecFn, kNumLaneOps> make_masked_avx2_table(
    std::index_sequence<I...>) {
  return {{&vec_op_masked_avx2<static_cast<LaneOp>(I)>...}};
}

template <std::size_t... I>
constexpr std::array<MaskedVecFn, kNumLaneOps> make_masked_avx512_table(
    std::index_sequence<I...>) {
  return {{&vec_op_masked_avx512<static_cast<LaneOp>(I)>...}};
}

inline constexpr auto kVecTableAvx2 =
    make_avx2_table(std::make_index_sequence<kNumLaneOps>{});
inline constexpr auto kVecTableAvx512 =
    make_avx512_table(std::make_index_sequence<kNumLaneOps>{});
inline constexpr auto kMaskedTableAvx2 =
    make_masked_avx2_table(std::make_index_sequence<kNumLaneOps>{});
inline constexpr auto kMaskedTableAvx512 =
    make_masked_avx512_table(std::make_index_sequence<kNumLaneOps>{});
#endif

// --- active-lane masks -------------------------------------------------------
//
// fastdetail::nonzero_lanes compiled per tier; fastdetail::tier_nonzero_lanes
// (below) hands the active tier's build to every engine.

#if defined(__x86_64__)
__attribute__((target("avx2"))) std::uint32_t nonzero_lanes_avx2(
    const std::uint64_t* pv) noexcept {
  return fastdetail::nonzero_lanes(pv);
}

WSIM_AVX512_TARGET std::uint32_t nonzero_lanes_avx512(const std::uint64_t* pv) noexcept {
  return fastdetail::nonzero_lanes(pv);
}
#endif

// --- tier selection ---------------------------------------------------------

enum class VecIsa : int { kGeneric = 0, kAvx2 = 1, kAvx512 = 2 };

VecIsa detect_vec_isa() noexcept {
  VecIsa best = VecIsa::kGeneric;
#if defined(__x86_64__)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx2")) {
    best = VecIsa::kAvx2;
  }
  if (__builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512bw") &&
      __builtin_cpu_supports("avx512dq") && __builtin_cpu_supports("avx512vl")) {
    best = VecIsa::kAvx512;
  }
#endif
  const char* env = std::getenv("WSIM_VECTOR_ISA");
  if (env != nullptr) {
    const std::string_view name(env);
    const VecIsa requested = name == "generic"  ? VecIsa::kGeneric
                             : name == "avx2"   ? VecIsa::kAvx2
                             : name == "avx512" ? VecIsa::kAvx512
                                                : best;
    // Downgrade-only: a requested tier the CPU lacks falls back to the
    // detected one; asking for less than the CPU offers always works.
    if (static_cast<int>(requested) < static_cast<int>(best)) {
      best = requested;
    }
  }
  return best;
}

VecIsa active_vec_isa() noexcept {
  static const VecIsa isa = detect_vec_isa();
  return isa;
}

const std::array<VecFn, kNumLaneOps>& active_vec_table() noexcept {
#if defined(__x86_64__)
  switch (active_vec_isa()) {
    case VecIsa::kAvx512: return kVecTableAvx512;
    case VecIsa::kAvx2: return kVecTableAvx2;
    case VecIsa::kGeneric: break;
  }
#endif
  return kVecTableGeneric;
}

const std::array<MaskedVecFn, kNumLaneOps>& active_masked_table() noexcept {
#if defined(__x86_64__)
  switch (active_vec_isa()) {
    case VecIsa::kAvx512: return kMaskedTableAvx512;
    case VecIsa::kAvx2: return kMaskedTableAvx2;
    case VecIsa::kGeneric: break;
  }
#endif
  return kMaskedTableGeneric;
}

// --- the engine -------------------------------------------------------------

struct VectorEngine final : fastdetail::EngineBase<VectorEngine> {
  using Base = fastdetail::EngineBase<VectorEngine>;

  VectorEngine(const DecodedProgram& prog, const DeviceSpec& device,
               GlobalMemory& gmem, std::span<const std::uint64_t> scalar_args,
               const BlockRunOptions& options)
      : Base(prog, device, gmem, scalar_args, options),
        vt_(active_vec_table()),
        mt_(active_masked_table()) {}

  /// Shadows EngineBase's dispatch loop (run() calls it via CRTP):
  /// vectorized handlers for DecodedInstr::vec, the steady-state
  /// fast-forward for accel loops, and the inherited scalar step() for
  /// everything else.
  void run_until_barrier(Warp& warp) {
    const DecodedInstr* code = prog_.code.data();
    const std::size_t n = prog_.code.size();
    const bool single_warp = prog_.warps == 1;
    while (warp.pc < n) {
      const DecodedInstr& d = code[warp.pc];
      switch (d.cls) {
        case ExecClass::kBar:
          if (single_warp) {
            // One warp: run()'s rendezvous would release immediately at
            // this warp's own cursor; apply it inline (bit-identical
            // counters, trace entry, and clock updates) instead of
            // parking and round-tripping through run().
            if (bar_taken(warp, d)) {
              apply_bar(warp, d);
            }
            ++warp.pc;
            continue;
          }
          if (handle_barrier(warp, d)) {
            return;
          }
          continue;
        case ExecClass::kSimple:
          if (d.vec) {
            exec_simple_vec(warp, d);
            ++warp.pc;
            continue;
          }
          if (d.vec_masked) {
            exec_simple_vec_masked(warp, d);
            ++warp.pc;
            continue;
          }
          break;
        case ExecClass::kShuffle:
          if (d.vec) {
            exec_shuffle_vec(warp, d);
            ++warp.pc;
            continue;
          }
          break;
        case ExecClass::kLoop:
          // Tracing needs one event per executed instruction, which the
          // value-only iterations would not emit.
          if (d.accel >= 0 && trace_ == nullptr) {
            exec_accel_loop(warp, d);
            continue;  // pc advanced past the matching kEndLoop
          }
          break;
        default:
          break;
      }
      step(warp, d);
      ++warp.pc;
    }
    warp.done = true;
  }

 private:
  // --- vectorized handlers --------------------------------------------------

  void exec_simple_vec(Warp& warp, const DecodedInstr& d) {
    count_issue(d);
    const long long start = issue_start(warp, d);
    vec_values_simple(warp, d);
    finish(warp, d, start, d.latency);
  }

  VecArgs make_vec_args(Warp& warp, const DecodedInstr& d) const noexcept {
    VecArgs x;
    x.dst = &warp.v[static_cast<std::size_t>(d.dst) * kWarpSize];
    x.a = ref(warp, d.a);
    x.b = ref(warp, d.b);
    x.c = ref(warp, d.c);
    x.cmp = d.cmp;
    x.base_tid = static_cast<std::int64_t>(warp.warp_index) * kWarpSize;
    x.warp_index = warp.warp_index;
    return x;
  }

  void vec_values_simple(Warp& warp, const DecodedInstr& d) {
    vt_[static_cast<std::size_t>(d.lane)](make_vec_args(warp, d));
  }

  void exec_simple_vec_masked(Warp& warp, const DecodedInstr& d) {
    count_issue(d);
    const long long start = issue_start(warp, d);
    vec_values_simple_masked(warp, d);
    finish(warp, d, start, d.latency);
  }

  void vec_values_simple_masked(Warp& warp, const DecodedInstr& d) {
    mt_[static_cast<std::size_t>(d.lane)](
        make_vec_args(warp, d),
        &warp.v[static_cast<std::size_t>(d.pred) * kWarpSize], d.pred_negate);
  }

  void exec_shuffle_vec(Warp& warp, const DecodedInstr& d) {
    count_issue(d);
    const long long start = issue_start(warp, d);
    shuffle_values(warp, d);
    finish(warp, d, start, d.latency);
  }

  /// Unpredicated shuffle: the source lanes are copied out first (as the
  /// scalar handler does), then the common uniform full-width cases
  /// collapse to one or two memcpys / a splat; anything else gathers
  /// per-lane with the shared shuffle_source().
  void shuffle_values(Warp& warp, const DecodedInstr& d) {
    const Ref a = ref(warp, d.a);
    const Ref b = ref(warp, d.b);
    const Ref c = ref(warp, d.c);
    const auto width = static_cast<int>(as_i64(c.value(0)));
    util::require(width > 0 && width <= kWarpSize && (width & (width - 1)) == 0,
                  "shuffle width must be a power of two in [1, 32]");
    std::array<std::uint64_t, kWarpSize> source;
    if (a.lanes != nullptr) {
      std::memcpy(source.data(), a.lanes, sizeof(source));
    } else {
      source.fill(a.broadcast);
    }
    std::uint64_t* dst = &warp.v[static_cast<std::size_t>(d.dst) * kWarpSize];
    if (b.lanes == nullptr && width == kWarpSize) {
      const auto arg = static_cast<int>(as_i64(b.broadcast));
      const auto head = static_cast<std::size_t>(arg);
      switch (d.op) {
        case Op::kShfl: {
          int idx = arg % kWarpSize;
          if (idx < 0) {
            idx += kWarpSize;
          }
          std::fill_n(dst, kWarpSize, source[static_cast<std::size_t>(idx)]);
          return;
        }
        case Op::kShflUp:
          // Lanes below `arg` keep their own value, the rest read from
          // `arg` lanes down. Out-of-range args are the identity.
          if (arg <= 0 || arg >= kWarpSize) {
            std::memcpy(dst, source.data(), sizeof(source));
          } else {
            std::memcpy(dst, source.data(), head * sizeof(std::uint64_t));
            std::memcpy(dst + head, source.data(),
                        (kWarpSize - head) * sizeof(std::uint64_t));
          }
          return;
        case Op::kShflDown:
          if (arg <= 0 || arg >= kWarpSize) {
            std::memcpy(dst, source.data(), sizeof(source));
          } else {
            std::memcpy(dst, source.data() + head,
                        (kWarpSize - head) * sizeof(std::uint64_t));
            std::memcpy(dst + (kWarpSize - head), source.data() + (kWarpSize - head),
                        head * sizeof(std::uint64_t));
          }
          return;
        case Op::kShflXor:
          // lane ^ arg stays in [0, 32) for every lane exactly when
          // 0 <= arg < 32; otherwise every lane keeps its own value.
          if (arg <= 0 || arg >= kWarpSize) {
            std::memcpy(dst, source.data(), sizeof(source));
          } else {
            for (int lane = 0; lane < kWarpSize; ++lane) {
              dst[static_cast<std::size_t>(lane)] =
                  source[static_cast<std::size_t>(lane ^ arg)];
            }
          }
          return;
        default:
          break;
      }
    }
    for (int lane = 0; lane < kWarpSize; ++lane) {
      const int src = shuffle_source(d.op, lane, width,
                                     static_cast<int>(as_i64(b.value(lane))));
      dst[static_cast<std::size_t>(lane)] = source[static_cast<std::size_t>(src)];
    }
  }

  // --- single-warp barrier --------------------------------------------------

  bool bar_taken(const Warp& warp, const DecodedInstr& d) const noexcept {
    return lane_mask(warp, d) != 0;
  }

  /// Counters, trace entry, and clock updates of a taken single-warp
  /// barrier, in the exact order handle_barrier() + run()'s rendezvous
  /// apply them.
  void apply_bar(Warp& warp, const DecodedInstr& d) {
    count_issue(d);
    const long long released = warp.cursor + dev_.lat.sync_barrier;
    if (trace_ != nullptr) {
      trace_->add({"bar.sync", warp.warp_index, warp.cursor, released});
    }
    warp.cursor = released;
    warp.last_complete = std::max(warp.last_complete, released);
    result_.barriers += 1;
  }

  // --- steady-state loop fast-forward ---------------------------------------
  //
  // An accel-eligible body (decode.cpp) has no nested loops and barriers
  // only in single-warp programs, so one iteration's timing is a pure
  // function of (a) the warp's timing state relative to its own cursor at
  // the loop head and (b) the dynamic inputs: per-access extra latency
  // (shared-memory bank-conflict replay cycles, and a global load's cold
  // vs cached 128 B segment latency) and per-barrier taken/skipped
  // decisions. Iterations run exactly — recording the relative signature
  // and the dynamic inputs — until two consecutive iterations match; from
  // then on iterations run value-only and the timing state shifts by the
  // constant per-iteration delta. Values still execute in full (register
  // writes, shared- and global-memory traffic with the warm-set update,
  // the write set and bounds checks, every counter), so only redundant
  // scoreboard arithmetic is skipped.
  //
  // Bit-identity notes, load-bearing:
  //  * Read-only registers' ready cells are frozen; the signature clamps
  //    them at zero because once ready at-or-before the head cursor they
  //    can never gate issue again (the cursor is monotone). While still
  //    in flight their relative value strictly decreases, so a signature
  //    containing one never matches — the shortcut waits them out.
  //  * cur_cycle's -1 sentinel and a stale last_complete likewise
  //    decrease relative to the advancing cursor and block the match, so
  //    the delta shift below only ever runs on states it reproduces
  //    exactly.
  //  * The cycle budget is pre-projected over every value iteration
  //    (intra-iteration peaks are bounded by the end-of-iteration
  //    max(cursor, last_complete), both monotone); if the projection
  //    trips, the shortcut is declined and the exact path throws at the
  //    bit-identical instruction.
  //  * A dynamic-input deviation retro-applies the executed prefix's
  //    timing (timing never reads register values, so applying it after
  //    the value effects is order-equivalent) and finishes that
  //    iteration exactly.

  void exec_accel_loop(Warp& warp, const DecodedInstr& dl) {
    const std::size_t begin = warp.pc;
    const std::size_t end = dl.match;
    const DecodedInstr& de = prog_.code[end];
    al_ = &prog_.accel_loops[static_cast<std::size_t>(dl.accel)];
    plan_built_ = false;

    // kLoop issue, exactly as step():
    count_issue(dl);
    const std::int64_t trips = as_i64(scalar_operand(warp, dl.a));
    warp.cursor += dev_.lat.issue_interval;
    if (trips <= 0) {
      warp.pc = end + 1;
      return;
    }

    std::int64_t remaining = trips;
    std::int64_t exact_iters = 0;
    std::int64_t value_iters = 0;
    bool have_prev = false;
    while (remaining > 0) {
      run_iteration_exact(warp, begin, end, de);
      --remaining;
      ++exact_iters;
      const long long head = warp.cursor;
      if (have_prev && remaining > 0 && sig_cur_ == sig_prev_ && dyn_cur_ == dyn_prev_) {
        delta_ = head - head_prev_;
        if (!plan_built_) {
          build_value_plan(warp, begin, end);
          plan_built_ = true;
        }
        const std::int64_t done = run_value_phase(warp, begin, end, de, remaining);
        remaining -= done;
        value_iters += done;
        if (done != 0) {
          // Either all remaining iterations completed or a deviation
          // finished one exactly; re-establish the profile before
          // shortcutting again.
          have_prev = false;
          continue;
        }
        // The budget projection declined the shortcut: keep stepping
        // exactly so any overrun throws at the true instruction.
      }
      sig_prev_.swap(sig_cur_);
      dyn_prev_.swap(dyn_cur_);
      head_prev_ = head;
      have_prev = true;
    }
    accel_exact_iters().add(static_cast<std::uint64_t>(exact_iters));
    accel_value_iters().add(static_cast<std::uint64_t>(value_iters));
    warp.pc = end + 1;
  }

  /// One exact iteration (body + kEndLoop bookkeeping), recording the
  /// head-relative timing signature, the dynamic inputs, and the peak
  /// cycle offset for the budget projection.
  void run_iteration_exact(Warp& warp, std::size_t begin, std::size_t end,
                           const DecodedInstr& de) {
    const long long head = warp.cursor;
    dyn_cur_.clear();
    const DecodedInstr* code = prog_.code.data();
    for (std::size_t pc = begin + 1; pc < end; ++pc) {
      const DecodedInstr& d = code[pc];
      switch (d.cls) {
        case ExecClass::kSimple:
          if (d.vec) {
            exec_simple_vec(warp, d);
          } else if (d.vec_masked) {
            exec_simple_vec_masked(warp, d);
          } else {
            step(warp, d);
          }
          break;
        case ExecClass::kShuffle:
          if (d.vec) {
            exec_shuffle_vec(warp, d);
          } else {
            step(warp, d);
          }
          break;
        case ExecClass::kLds:
        case ExecClass::kSts:
        case ExecClass::kLdg:
        case ExecClass::kStg: {
          count_issue(d);
          const long long start = issue_start(warp, d);
          const long long extra = exec_mem(warp, d);
          dyn_cur_.push_back(extra);
          finish(warp, d, start, d.latency + extra);
          break;
        }
        case ExecClass::kBar: {
          const bool taken = bar_taken(warp, d);
          dyn_cur_.push_back(taken ? 1 : 0);
          if (taken) {
            apply_bar(warp, d);
          }
          break;
        }
        default:
          step(warp, d);  // kScalar
          break;
      }
    }
    count_issue(de);
    warp.cursor += kBranchCycles;
    record_signature(warp);
    peak_rel_ = std::max(warp.cursor, warp.last_complete) - head;
  }

  /// A memory access with its predicate mask re-read: returns the extra
  /// latency on top of the baked one (the dynamic input the fast-forward
  /// records and checks).
  long long exec_mem(Warp& warp, const DecodedInstr& d) {
    const std::uint32_t mask = lane_mask(warp, d);
    return d.cls == ExecClass::kLds || d.cls == ExecClass::kSts
               ? exec_smem(warp, d, mask)
               : exec_gmem(warp, d, mask);
  }

  void record_signature(const Warp& warp) {
    sig_cur_.clear();
    const long long c = warp.cursor;
    sig_cur_.push_back(warp.cur_cycle - c);
    sig_cur_.push_back(warp.last_complete - c);
    sig_cur_.push_back(warp.issued_this_cycle);
    for (const std::int16_t r : al_->vregs_written) {
      sig_cur_.push_back(warp.vready[static_cast<std::size_t>(r)] - c);
    }
    for (const std::int16_t r : al_->sregs_written) {
      sig_cur_.push_back(warp.sready[static_cast<std::size_t>(r)] - c);
    }
    for (const std::int16_t r : al_->vregs_read) {
      sig_cur_.push_back(std::max(warp.vready[static_cast<std::size_t>(r)] - c, 0LL));
    }
    for (const std::int16_t r : al_->sregs_read) {
      sig_cur_.push_back(std::max(warp.sready[static_cast<std::size_t>(r)] - c, 0LL));
    }
  }

  // --- precompiled value-phase plan -----------------------------------------
  //
  // Once the steady profile is established, every remaining iteration
  // executes the same body with the same dispatch decisions, and any
  // register the body does not list in vregs_written/sregs_written is
  // loop-invariant for the rest of the activation (deviations re-execute
  // the same body, so stability survives them too). The plan resolves all
  // of that once per activation: handler pointers and operand Refs are
  // pre-bound, loop-invariant shuffles collapse to a precomputed
  // permutation gather, and loop-invariant predicate masks turn the
  // shared-memory lane scan into a walk over set bits. Anything unstable
  // (scalar operands the body writes, predicates the body writes) keeps
  // per-iteration re-resolution, so the plan changes dispatch cost only —
  // every value, counter, and dynamic input is produced exactly as the
  // unplanned walk produced it.

  struct PlanOp {
    enum class Kind : std::uint8_t {
      kVec,          ///< pre-bound SIMD kSimple
      kVecDyn,       ///< SIMD kSimple, operands re-resolved per iteration
      kVecMasked,    ///< pre-bound masked SIMD kSimple
      kVecMaskedDyn,
      kShufflePerm,  ///< loop-invariant shuffle: precomputed gather
      kShuffle,      ///< shuffle fallback (unstable sources or width)
      kSimple,       ///< scalar kSimple table fallback (lane == kNop)
      kScalarOp,
      kSmemMask,     ///< kLds/kSts with loop-invariant active mask
      kMem,          ///< shared/global access, predicate re-read per iteration
      kBar,
    };
    Kind kind = Kind::kSimple;
    bool negate = false;                ///< masked-blend polarity
    std::uint32_t pc = 0;               ///< for finish_deviated_iteration
    const DecodedInstr* d = nullptr;
    VecFn fn = nullptr;                 ///< kVec / kVecDyn
    MaskedVecFn mfn = nullptr;          ///< kVecMasked / kVecMaskedDyn
    const std::uint64_t* pv = nullptr;  ///< masked-blend predicate lanes
    const std::uint64_t* src = nullptr; ///< kShufflePerm source register
    std::uint64_t* dst = nullptr;       ///< kShufflePerm destination
    std::uint32_t lane_mask = 0;        ///< kSmemMask active lanes (bit i = lane i)
    VecArgs args;                       ///< kVec* pre-resolved inputs
    std::array<std::uint8_t, kWarpSize> perm{};  ///< kShufflePerm lane sources
  };

  static bool reg_in(const std::vector<std::int16_t>& regs, int reg) noexcept {
    return std::find(regs.begin(), regs.end(), static_cast<std::int16_t>(reg)) !=
           regs.end();
  }

  /// True when the operand's Ref snapshot stays valid for the whole
  /// activation: vector Refs hold a pointer (values are re-read through
  /// it), scalar Refs snapshot the value, so only a scalar register the
  /// body writes goes stale.
  bool ref_stable(const Operand& o) const noexcept {
    return o.kind != Operand::Kind::kScalar || !reg_in(al_->sregs_written, o.reg);
  }

  /// True when the operand's *value* is loop-invariant — required when a
  /// value is baked into the plan itself (shuffle source indices, widths).
  bool value_stable(const Operand& o) const noexcept {
    switch (o.kind) {
      case Operand::Kind::kVector:
        return !reg_in(al_->vregs_written, o.reg);
      case Operand::Kind::kScalar:
        return !reg_in(al_->sregs_written, o.reg);
      case Operand::Kind::kImmediate:
      case Operand::Kind::kNone:
        break;
    }
    return true;
  }

  void build_value_plan(Warp& warp, std::size_t begin, std::size_t end) {
    plan_.clear();
    plan_.reserve(end - begin - 1);
    const DecodedInstr* code = prog_.code.data();
    for (std::size_t pc = begin + 1; pc < end; ++pc) {
      const DecodedInstr& d = code[pc];
      PlanOp p;
      p.pc = static_cast<std::uint32_t>(pc);
      p.d = &d;
      switch (d.cls) {
        case ExecClass::kSimple:
          if (d.vec || d.vec_masked) {
            const bool stable =
                ref_stable(d.a) && ref_stable(d.b) && ref_stable(d.c);
            p.args = make_vec_args(warp, d);
            if (d.vec) {
              p.fn = vt_[static_cast<std::size_t>(d.lane)];
              p.kind = stable ? PlanOp::Kind::kVec : PlanOp::Kind::kVecDyn;
            } else {
              p.mfn = mt_[static_cast<std::size_t>(d.lane)];
              p.pv = &warp.v[static_cast<std::size_t>(d.pred) * kWarpSize];
              p.negate = d.pred_negate;
              p.kind =
                  stable ? PlanOp::Kind::kVecMasked : PlanOp::Kind::kVecMaskedDyn;
            }
          } else {
            p.kind = PlanOp::Kind::kSimple;
          }
          break;
        case ExecClass::kShuffle:
          if (d.vec && d.a.kind == Operand::Kind::kVector &&
              value_stable(d.b) && value_stable(d.c)) {
            // Width and every lane's source index are loop-invariant (and
            // the width was already validated by the exact iterations), so
            // the shuffle collapses to one precomputed gather.
            const Ref b = ref(warp, d.b);
            const Ref c = ref(warp, d.c);
            const auto width = static_cast<int>(as_i64(c.value(0)));
            for (int lane = 0; lane < kWarpSize; ++lane) {
              p.perm[static_cast<std::size_t>(lane)] = static_cast<std::uint8_t>(
                  shuffle_source(d.op, lane, width,
                                 static_cast<int>(as_i64(b.value(lane)))));
            }
            p.src = &warp.v[static_cast<std::size_t>(d.a.reg) * kWarpSize];
            p.dst = &warp.v[static_cast<std::size_t>(d.dst) * kWarpSize];
            p.kind = PlanOp::Kind::kShufflePerm;
          } else {
            p.kind = PlanOp::Kind::kShuffle;
          }
          break;
        case ExecClass::kScalar:
          p.kind = PlanOp::Kind::kScalarOp;
          break;
        case ExecClass::kLds:
        case ExecClass::kSts:
          if (d.pred < 0 || al_->pred_stable[pc - begin - 1] != 0) {
            p.lane_mask = lane_mask(warp, d);
            p.kind = PlanOp::Kind::kSmemMask;
          } else {
            p.kind = PlanOp::Kind::kMem;
          }
          break;
        case ExecClass::kLdg:
        case ExecClass::kStg:
          p.kind = PlanOp::Kind::kMem;
          break;
        case ExecClass::kBar:
          p.kind = PlanOp::Kind::kBar;
          break;
        default:
          p.kind = PlanOp::Kind::kSimple;  // unreachable: decode admits no
          break;                           // other class into an accel body
      }
      plan_.push_back(p);
    }
  }

  /// Runs up to `target` value-only iterations; returns how many
  /// iterations completed (0 = shortcut declined by the budget
  /// projection; a deviation completes its iteration exactly and is
  /// included in the count).
  std::int64_t run_value_phase(Warp& warp, std::size_t begin, std::size_t end,
                               const DecodedInstr& de, std::int64_t target) {
    if (max_cycles_ > 0) {
      // All terms are non-negative (the cursor is monotone, so delta_ > 0),
      // so a long long overflow can only mean "far past any budget".
      long long projected = 0;
      if (__builtin_mul_overflow(delta_, target - 1, &projected) ||
          __builtin_add_overflow(projected, warp.cursor, &projected) ||
          __builtin_add_overflow(projected, peak_rel_, &projected) ||
          projected > max_cycles_) {
        return 0;
      }
    }
    for (std::int64_t it = 0; it < target; ++it) {
      if (!run_iteration_values(warp, begin, end, de)) {
        return it + 1;
      }
      warp.cursor += delta_;
      warp.cur_cycle += delta_;
      warp.last_complete += delta_;
      for (const std::int16_t r : al_->vregs_written) {
        warp.vready[static_cast<std::size_t>(r)] += delta_;
      }
      for (const std::int16_t r : al_->sregs_written) {
        warp.sready[static_cast<std::size_t>(r)] += delta_;
      }
    }
    return target;
  }

  /// One iteration's value side effects and issue counters, driven by the
  /// precompiled plan and verifying every dynamic input against the
  /// steady profile. Returns false after a deviation (that iteration is
  /// then already completed exactly).
  bool run_iteration_values(Warp& warp, std::size_t begin, std::size_t end,
                            const DecodedInstr& de) {
    std::size_t dyn = 0;
    for (const PlanOp& p : plan_) {
      const DecodedInstr& d = *p.d;
      switch (p.kind) {
        case PlanOp::Kind::kVec:
          count_issue(d);
          p.fn(p.args);
          break;
        case PlanOp::Kind::kVecDyn: {
          count_issue(d);
          VecArgs x = p.args;
          x.a = ref(warp, d.a);
          x.b = ref(warp, d.b);
          x.c = ref(warp, d.c);
          p.fn(x);
          break;
        }
        case PlanOp::Kind::kVecMasked:
          count_issue(d);
          p.mfn(p.args, p.pv, p.negate);
          break;
        case PlanOp::Kind::kVecMaskedDyn: {
          count_issue(d);
          VecArgs x = p.args;
          x.a = ref(warp, d.a);
          x.b = ref(warp, d.b);
          x.c = ref(warp, d.c);
          p.mfn(x, p.pv, p.negate);
          break;
        }
        case PlanOp::Kind::kShufflePerm: {
          count_issue(d);
          std::uint64_t* dst = p.dst;
          if (dst == p.src) {
            // In-place shuffle: gather from a copy, as shuffle_values
            // does via its source array.
            alignas(64) std::uint64_t tmp[kWarpSize];
            std::memcpy(tmp, p.src, sizeof(tmp));
            for (int lane = 0; lane < kWarpSize; ++lane) {
              dst[static_cast<std::size_t>(lane)] =
                  tmp[p.perm[static_cast<std::size_t>(lane)]];
            }
          } else {
            for (int lane = 0; lane < kWarpSize; ++lane) {
              dst[static_cast<std::size_t>(lane)] =
                  p.src[p.perm[static_cast<std::size_t>(lane)]];
            }
          }
          break;
        }
        case PlanOp::Kind::kShuffle:
          count_issue(d);
          if (d.vec) {
            shuffle_values(warp, d);
          } else {
            exec_shuffle(warp, d);
          }
          break;
        case PlanOp::Kind::kSimple:
          count_issue(d);
          fastdetail::kSimpleTableFor<Base>[static_cast<std::size_t>(d.lane)]
                                          [d.pred >= 0 ? 1 : 0](*this, warp, d);
          break;
        case PlanOp::Kind::kScalarOp:
          count_issue(d);
          exec_scalar(warp, d);
          break;
        case PlanOp::Kind::kSmemMask: {
          count_issue(d);
          const long long replay = exec_smem(warp, d, p.lane_mask);
          if (replay != dyn_prev_[dyn]) {
            finish_deviated_iteration(warp, begin, end, de, p.pc, replay);
            return false;
          }
          ++dyn;
          break;
        }
        case PlanOp::Kind::kMem: {
          count_issue(d);
          const long long extra = exec_mem(warp, d);
          if (extra != dyn_prev_[dyn]) {
            finish_deviated_iteration(warp, begin, end, de, p.pc, extra);
            return false;
          }
          ++dyn;
          break;
        }
        case PlanOp::Kind::kBar: {
          const long long taken = bar_taken(warp, d) ? 1 : 0;
          if (taken != 0) {
            count_issue(d);
            result_.barriers += 1;
          }
          if (taken != dyn_prev_[dyn]) {
            finish_deviated_iteration(warp, begin, end, de, p.pc, taken);
            return false;
          }
          ++dyn;
          break;
        }
      }
    }
    count_issue(de);
    return true;
  }

  /// The dynamic profile broke at `dev_pc` (true input `true_dyn`). Value
  /// effects and issue counters are already applied for the prefix up to
  /// and including dev_pc; every earlier dynamic input matched the steady
  /// profile, so dyn_prev_ holds the true replay history. Retro-apply the
  /// prefix's timing, then finish the iteration fully exactly.
  void finish_deviated_iteration(Warp& warp, std::size_t begin, std::size_t end,
                                 const DecodedInstr& de, std::size_t dev_pc,
                                 long long true_dyn) {
    const DecodedInstr* code = prog_.code.data();
    std::size_t dyn = 0;
    for (std::size_t pc = begin + 1; pc <= dev_pc; ++pc) {
      const DecodedInstr& d = code[pc];
      switch (d.cls) {
        case ExecClass::kLds:
        case ExecClass::kSts:
        case ExecClass::kLdg:
        case ExecClass::kStg: {
          const long long extra = pc == dev_pc ? true_dyn : dyn_prev_[dyn];
          ++dyn;
          const long long start = issue_start(warp, d);
          finish(warp, d, start, d.latency + extra);
          break;
        }
        case ExecClass::kBar: {
          const long long taken = pc == dev_pc ? true_dyn : dyn_prev_[dyn];
          ++dyn;
          if (taken != 0) {
            const long long released = warp.cursor + dev_.lat.sync_barrier;
            warp.cursor = released;
            warp.last_complete = std::max(warp.last_complete, released);
          }
          break;
        }
        default: {  // kSimple, kShuffle, kScalar: baked latency
          const long long start = issue_start(warp, d);
          finish(warp, d, start, d.latency);
          break;
        }
      }
    }
    for (std::size_t pc = dev_pc + 1; pc < end; ++pc) {
      const DecodedInstr& d = code[pc];
      switch (d.cls) {
        case ExecClass::kSimple:
          if (d.vec) {
            exec_simple_vec(warp, d);
          } else if (d.vec_masked) {
            exec_simple_vec_masked(warp, d);
          } else {
            step(warp, d);
          }
          break;
        case ExecClass::kShuffle:
          if (d.vec) {
            exec_shuffle_vec(warp, d);
          } else {
            step(warp, d);
          }
          break;
        case ExecClass::kBar:
          if (bar_taken(warp, d)) {
            apply_bar(warp, d);
          }
          break;
        default:
          step(warp, d);
          break;
      }
    }
    count_issue(de);
    warp.cursor += kBranchCycles;
  }

  const std::array<VecFn, kNumLaneOps>& vt_;
  const std::array<MaskedVecFn, kNumLaneOps>& mt_;
  const DecodedProgram::AccelLoop* al_ = nullptr;
  std::vector<PlanOp> plan_;
  bool plan_built_ = false;
  std::vector<long long> sig_prev_;
  std::vector<long long> sig_cur_;
  std::vector<long long> dyn_prev_;
  std::vector<long long> dyn_cur_;
  long long head_prev_ = 0;
  long long delta_ = 0;
  long long peak_rel_ = 0;
};

}  // namespace

fastdetail::LaneMaskFn fastdetail::tier_nonzero_lanes() noexcept {
#if defined(__x86_64__)
  switch (active_vec_isa()) {
    case VecIsa::kAvx512: return &nonzero_lanes_avx512;
    case VecIsa::kAvx2: return &nonzero_lanes_avx2;
    case VecIsa::kGeneric: break;
  }
#endif
  return &fastdetail::nonzero_lanes;
}

const char* vector_isa_name() noexcept {
  switch (active_vec_isa()) {
    case VecIsa::kAvx512: return "avx512";
    case VecIsa::kAvx2: return "avx2";
    case VecIsa::kGeneric: break;
  }
  return "generic";
}

BlockResult run_block_vector(const DecodedProgram& program, const DeviceSpec& device,
                             GlobalMemory& gmem,
                             std::span<const std::uint64_t> scalar_args,
                             const BlockRunOptions& options) {
  if (options.sdc != nullptr && options.sdc->enabled()) {
    // Injection numbers per-lane write events sequentially; the scalar
    // engine's execution order pins that numbering, so injected blocks
    // run there wholesale and parity is inherited, not re-implemented.
    return run_block_fast(program, device, gmem, scalar_args, options);
  }
  VectorEngine engine(program, device, gmem, scalar_args, options);
  return engine.run();
}

}  // namespace wsim::simt
