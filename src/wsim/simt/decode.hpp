#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "wsim/simt/device.hpp"
#include "wsim/simt/isa.hpp"

namespace wsim::simt {

/// Content hash identifying a (kernel, device) pair: kernel name, shape,
/// every instruction, the device name, and the device's latency table.
/// Used to key both the engine's block-cost cache and the decoded-program
/// cache, so neither can alias entries across kernels or architectures.
/// Hashing walks the whole instruction stream (counted by the obs counter
/// `simt.kernel_hashes`); launch paths use PreparedKernel::identity.
std::uint64_t kernel_identity(const Kernel& kernel, const DeviceSpec& device);

/// A kernel sealed for launching: the immutable kernel plus its content
/// hash, computed once when the prepared kernel is built. Every runner
/// prepares its kernels in its constructor, and the engine and the
/// decoded-program cache key on the prepared kernel, so no launch re-hashes
/// an instruction stream. Copies share the kernel.
class PreparedKernel {
 public:
  explicit PreparedKernel(Kernel kernel);

  const Kernel& kernel() const noexcept { return *kernel_; }

  /// kernel_identity(kernel(), device), with only the device's fixed-size
  /// latency record hashed per call.
  std::uint64_t identity(const DeviceSpec& device) const noexcept;

 private:
  friend class ExecutionEngine;
  PreparedKernel(std::shared_ptr<const Kernel> kernel, std::uint64_t hash)
      : kernel_(std::move(kernel)), hash_(hash) {}
  /// Non-owning view of a caller's kernel, hashed now, for the entry points
  /// that take a bare Kernel; `kernel` must outlive the view unchanged.
  static PreparedKernel borrow(const Kernel& kernel);

  std::shared_ptr<const Kernel> kernel_;
  std::uint64_t hash_ = 0;  ///< content hash of the kernel alone
};

/// Dispatch class of a decoded instruction: which fast-path handler
/// executes it. Decoding collapses the ISA's per-opcode semantics into a
/// small set of execution shapes so the interpreter's hot loop dispatches
/// once per instruction instead of switching per lane.
enum class ExecClass : std::uint8_t {
  kSimple,   ///< per-lane pure op (moves, ALU, compare, select) — see LaneOp
  kScalar,   ///< block-uniform scalar op (kSMov..kSMax), one execution per warp
  kShuffle,  ///< cross-lane shuffle (4 variants)
  kLds,
  kSts,
  kLdg,
  kStg,
  kBar,
  kLoop,
  kEndLoop,
};

/// Per-lane pure operation of an ExecClass::kSimple instruction, resolved
/// at decode time (kSetp splits into its two data types; the comparison
/// predicate stays in DecodedInstr::cmp).
enum class LaneOp : std::uint8_t {
  kNop,
  kMov,
  kTid,
  kLaneId,
  kWarpId,
  kFAdd,
  kFSub,
  kFMul,
  kFFma,
  kFMax,
  kFMin,
  kIAdd,
  kISub,
  kIMul,
  kIMax,
  kIMin,
  kIAnd,
  kIOr,
  kIXor,
  kShl,
  kShr,
  kSetpF32,
  kSetpI64,
  kSelp,
  kCount,
};

constexpr std::size_t kNumLaneOps = static_cast<std::size_t>(LaneOp::kCount);

/// One predecoded instruction: operand kinds resolved, scoreboard inputs
/// (which vector/scalar ready cells gate issue) flattened, the dependent
/// latency baked in from the device's latency table, and structured
/// control flow pre-matched. Mirrors Kernel::code one-to-one so program
/// counters and loop targets carry over unchanged.
struct DecodedInstr {
  Op op = Op::kNop;            ///< original opcode (counters, trace)
  ExecClass cls = ExecClass::kSimple;
  LaneOp lane = LaneOp::kNop;  ///< kSimple payload
  Cmp cmp = Cmp::kLt;
  MemWidth width = MemWidth::kB4;
  std::int16_t dst = -1;
  bool scalar_dst = false;     ///< dst indexes the scalar register file
  std::int16_t pred = -1;
  bool pred_negate = false;
  /// Lane-vectorizable: an unpredicated kSimple (lane != kNop) or
  /// unpredicated kShuffle, i.e. the vector engine computes all 32 lanes
  /// in SIMD form instead of a per-lane loop.
  bool vec = false;
  /// Masked-vectorizable: a predicated kSimple whose lane op is pure, so
  /// the vector engine computes all 32 lanes in SIMD form and blends the
  /// result into the destination under the predicate mask (inactive lanes
  /// keep their old bits, exactly like the per-lane fallback).
  bool vec_masked = false;
  /// kLoop leaders only: index into DecodedProgram::accel_loops when the
  /// loop body is eligible for the vector engine's steady-state
  /// fast-forward; -1 otherwise.
  std::int16_t accel = -1;
  std::int32_t latency = 0;    ///< baked base latency (kLdg resolves per access)
  std::uint32_t match = 0;     ///< matching kLoop/kEndLoop pc
  Operand a;
  Operand b;
  Operand c;
  /// Vector registers whose ready cycle gates issue: a, b, c, pred
  /// (-1 = not a vector register).
  std::array<std::int16_t, 4> rv{{-1, -1, -1, -1}};
  /// Scalar registers gating issue: a, b, c (-1 = not a scalar register).
  std::array<std::int16_t, 3> rs{{-1, -1, -1}};
};

/// A kernel compiled for one device architecture: validated once, operand
/// and latency resolution done once — then reused by every block, launch,
/// engine worker, fleet worker, and serving loop that executes this
/// (kernel, device) pair.
struct DecodedProgram {
  /// Register-usage summary of one loop whose body the vector engine may
  /// fast-forward (see DecodedInstr::accel and vectorpath.cpp). A loop is
  /// eligible when its body holds no nested loop, and a kBar only when the
  /// program has a single warp (the barrier then degenerates to a fixed
  /// cursor bump). For such a body the per-iteration timing profile is a
  /// pure function of the warp's timing state relative to its own cursor
  /// plus the dynamic inputs: shared-memory replay cycles, global-load
  /// cold/cached latencies, and barrier decisions. Once two consecutive
  /// iterations produce identical relative profiles, the remaining
  /// iterations can run value-only with the timing deltas replayed —
  /// bit-identically.
  struct AccelLoop {
    std::uint32_t begin = 0;  ///< pc of the kLoop instruction
    /// Vector/scalar registers written by a body instruction (finish()
    /// rewrites their ready cells every iteration, so the fast-forward
    /// shifts them by the steady per-iteration delta).
    std::vector<std::int16_t> vregs_written;
    std::vector<std::int16_t> sregs_written;
    /// Registers the body reads but never writes: their ready cells stay
    /// frozen, so they only gate issue while still in flight (the steady
    /// check clamps them at "ready in the past").
    std::vector<std::int16_t> vregs_read;
    std::vector<std::int16_t> sregs_read;
    /// Per body instruction (pc - begin - 1): true when the instruction's
    /// predicate register is not written inside the body, i.e. the active
    /// mask is loop-invariant during the fast-forwarded iterations.
    std::vector<std::uint8_t> pred_stable;
  };

  std::string name;
  int threads_per_block = 32;
  int warps = 1;
  int vreg_count = 1;   ///< clamped to >= 1, like the legacy interpreter
  int sreg_count = 1;
  int smem_bytes = 1;
  std::uint64_t identity = 0;   ///< kernel_identity(kernel, device)
  std::size_t vec_instrs = 0;   ///< instructions with vec or vec_masked set
  std::vector<AccelLoop> accel_loops;
  std::vector<DecodedInstr> code;
};

/// Predecodes `kernel` for `device`: runs validate() once, bakes latencies
/// from the device's latency table, flattens operand/scoreboard metadata,
/// and matches loops. Throws util::CheckError on malformed kernels (exactly
/// the kernels the legacy interpreter rejects per block).
std::shared_ptr<const DecodedProgram> decode_program(const Kernel& kernel,
                                                     const DeviceSpec& device);

/// Thread-safe decoded-program store: one mutex over one map. Decoding
/// happens under the lock, so each (kernel, device) identity is decoded
/// exactly once per process no matter how many threads race on first use
/// (pinned by decode_cache_test under TSan). Lookups come from the
/// launching thread once per launch that executes a block, never from the
/// engine's workers, so a single lock does not serialize block execution.
class DecodedProgramCache {
 public:
  /// Returns the cached program, decoding on first use. Hashes the kernel
  /// (kernel_identity); launch paths use the PreparedKernel overload.
  std::shared_ptr<const DecodedProgram> get(const Kernel& kernel,
                                            const DeviceSpec& device);

  /// Same, keyed on the prepared kernel's identity without re-hashing it.
  /// When `hit` is non-null it receives whether this lookup found the
  /// program already decoded (false: this call decoded it).
  std::shared_ptr<const DecodedProgram> get(const PreparedKernel& kernel,
                                            const DeviceSpec& device,
                                            bool* hit = nullptr);

  /// Distinct (kernel, device) programs currently cached.
  std::size_t size() const;

  /// Total decode_program invocations this cache performed (a cache that
  /// works never decodes one identity twice).
  std::uint64_t decode_count() const;

  void clear();

 private:
  std::shared_ptr<const DecodedProgram> get(std::uint64_t key, const Kernel& kernel,
                                            const DeviceSpec& device, bool* hit);

  mutable std::mutex mu_;
  std::unordered_map<std::uint64_t, std::shared_ptr<const DecodedProgram>> map_;
  std::uint64_t decodes_ = 0;
};

/// The process-wide decoded-program cache used by the predecoded
/// interpreters (run_block and every ExecutionEngine launch).
DecodedProgramCache& shared_decoded_cache();

}  // namespace wsim::simt
