#include "wsim/simt/decode.hpp"

#include <algorithm>
#include <utility>

#include "wsim/obs/metrics.hpp"
#include "wsim/util/check.hpp"

namespace wsim::simt {

namespace {

std::uint64_t hash_bytes(std::uint64_t h, const void* data, std::size_t size) noexcept {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {  // FNV-1a
    h = (h ^ p[i]) * 0x100000001B3ULL;
  }
  return h;
}

std::uint64_t hash_value(std::uint64_t h, std::uint64_t v) noexcept {
  return hash_bytes(h, &v, sizeof(v));
}

ExecClass classify(Op op) noexcept {
  switch (op) {
    case Op::kShfl:
    case Op::kShflUp:
    case Op::kShflDown:
    case Op::kShflXor:
      return ExecClass::kShuffle;
    case Op::kLds:
      return ExecClass::kLds;
    case Op::kSts:
      return ExecClass::kSts;
    case Op::kLdg:
      return ExecClass::kLdg;
    case Op::kStg:
      return ExecClass::kStg;
    case Op::kBar:
      return ExecClass::kBar;
    case Op::kSMov:
    case Op::kSAdd:
    case Op::kSSub:
    case Op::kSMul:
    case Op::kSMin:
    case Op::kSMax:
      return ExecClass::kScalar;
    case Op::kLoop:
      return ExecClass::kLoop;
    case Op::kEndLoop:
      return ExecClass::kEndLoop;
    default:
      return ExecClass::kSimple;
  }
}

LaneOp lane_of(const Instr& ins) noexcept {
  switch (ins.op) {
    case Op::kMov: return LaneOp::kMov;
    case Op::kTid: return LaneOp::kTid;
    case Op::kLaneId: return LaneOp::kLaneId;
    case Op::kWarpId: return LaneOp::kWarpId;
    case Op::kFAdd: return LaneOp::kFAdd;
    case Op::kFSub: return LaneOp::kFSub;
    case Op::kFMul: return LaneOp::kFMul;
    case Op::kFFma: return LaneOp::kFFma;
    case Op::kFMax: return LaneOp::kFMax;
    case Op::kFMin: return LaneOp::kFMin;
    case Op::kIAdd: return LaneOp::kIAdd;
    case Op::kISub: return LaneOp::kISub;
    case Op::kIMul: return LaneOp::kIMul;
    case Op::kIMax: return LaneOp::kIMax;
    case Op::kIMin: return LaneOp::kIMin;
    case Op::kIAnd: return LaneOp::kIAnd;
    case Op::kIOr: return LaneOp::kIOr;
    case Op::kIXor: return LaneOp::kIXor;
    case Op::kShl: return LaneOp::kShl;
    case Op::kShr: return LaneOp::kShr;
    case Op::kSetp:
      return ins.dtype == DType::kF32 ? LaneOp::kSetpF32 : LaneOp::kSetpI64;
    case Op::kSelp: return LaneOp::kSelp;
    default: return LaneOp::kNop;
  }
}

/// Mirrors the legacy interpreter's base_latency() exactly: equal decoded
/// latencies are what keep BlockResult cycles bit-identical.
std::int32_t baked_latency(Op op, const LatencyTable& lat) noexcept {
  switch (op) {
    case Op::kMov:
      return lat.reg_access;
    case Op::kTid:
    case Op::kLaneId:
    case Op::kWarpId:
    case Op::kIAdd:
    case Op::kISub:
    case Op::kIMax:
    case Op::kIMin:
    case Op::kIAnd:
    case Op::kIOr:
    case Op::kIXor:
    case Op::kShl:
    case Op::kShr:
    case Op::kSetp:
    case Op::kSelp:
    case Op::kSMov:
    case Op::kSAdd:
    case Op::kSSub:
    case Op::kSMin:
    case Op::kSMax:
      return lat.ialu;
    case Op::kIMul:
    case Op::kSMul:
      return lat.imul;
    case Op::kFAdd:
    case Op::kFSub:
    case Op::kFMul:
    case Op::kFFma:
    case Op::kFMax:
    case Op::kFMin:
      return lat.falu;
    case Op::kShfl:
      return lat.shfl;
    case Op::kShflUp:
      return lat.shfl_up;
    case Op::kShflDown:
      return lat.shfl_down;
    case Op::kShflXor:
      return lat.shfl_xor;
    case Op::kLds:
      return lat.smem_load;
    case Op::kSts:
      return lat.smem_store;
    case Op::kLdg:
      return 0;  // resolved per access (warm vs cold segment)
    case Op::kStg:
      return lat.gmem_store;
    default:
      return 1;
  }
}

/// Bakes the lane-vector engine's dispatch metadata (see vectorpath.cpp):
/// which instructions execute 32 lanes at a time (DecodedInstr::vec), and
/// which loops qualify for the steady-state fast-forward. Both are pure
/// classification — the fast and legacy engines ignore these fields, so
/// the decoded form stays one program shared by all three interpreters.
void mark_vector_metadata(DecodedProgram& prog) {
  auto& code = prog.code;
  for (DecodedInstr& d : code) {
    if (d.pred < 0 && ((d.cls == ExecClass::kSimple && d.lane != LaneOp::kNop) ||
                       d.cls == ExecClass::kShuffle)) {
      d.vec = true;
      prog.vec_instrs += 1;
    } else if (d.pred >= 0 && d.cls == ExecClass::kSimple &&
               d.lane != LaneOp::kNop) {
      // Every lane op is a pure elementwise function, so a predicated
      // simple op can run full-width and blend under the predicate mask.
      d.vec_masked = true;
      prog.vec_instrs += 1;
    }
  }

  const auto push_unique = [](std::vector<std::int16_t>& v, std::int16_t r) {
    if (std::find(v.begin(), v.end(), r) == v.end()) {
      v.push_back(r);
    }
  };
  for (std::size_t i = 0; i < code.size(); ++i) {
    if (code[i].cls != ExecClass::kLoop) {
      continue;
    }
    const std::size_t end = code[i].match;
    bool eligible = true;
    for (std::size_t j = i + 1; j < end && eligible; ++j) {
      switch (code[j].cls) {
        case ExecClass::kSimple:
        case ExecClass::kShuffle:
        case ExecClass::kScalar:
        case ExecClass::kLds:
        case ExecClass::kSts:
        case ExecClass::kLdg:
        case ExecClass::kStg:
          break;
        case ExecClass::kBar:
          // A single-warp barrier is a pure cursor bump (arrival == the
          // warp's own cursor, no rendezvous), which is shift-invariant;
          // with more warps the release cycle couples to the other warps'
          // clocks and the body must stay exact.
          eligible = prog.warps == 1;
          break;
        default:
          eligible = false;  // nested loops keep the body on the exact path
          break;
      }
    }
    if (!eligible) {
      continue;
    }
    DecodedProgram::AccelLoop al;
    al.begin = static_cast<std::uint32_t>(i);
    for (std::size_t j = i + 1; j < end; ++j) {
      const DecodedInstr& d = code[j];
      if (d.dst >= 0) {
        push_unique(d.scalar_dst ? al.sregs_written : al.vregs_written, d.dst);
      }
    }
    for (std::size_t j = i + 1; j < end; ++j) {
      const DecodedInstr& d = code[j];
      for (const std::int16_t r : d.rv) {
        if (r >= 0 && std::find(al.vregs_written.begin(), al.vregs_written.end(), r) ==
                          al.vregs_written.end()) {
          push_unique(al.vregs_read, r);
        }
      }
      for (const std::int16_t r : d.rs) {
        if (r >= 0 && std::find(al.sregs_written.begin(), al.sregs_written.end(), r) ==
                          al.sregs_written.end()) {
          push_unique(al.sregs_read, r);
        }
      }
      al.pred_stable.push_back(
          d.pred >= 0 && std::find(al.vregs_written.begin(), al.vregs_written.end(),
                                   d.pred) == al.vregs_written.end()
              ? 1
              : 0);
    }
    code[i].accel = static_cast<std::int16_t>(prog.accel_loops.size());
    prog.accel_loops.push_back(std::move(al));
  }
}

/// splitmix64 finalizer.
std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// FNV-1a over everything decode reads from the kernel: name, shape, and
/// every instruction field.
std::uint64_t kernel_hash(const Kernel& kernel) {
  static obs::Counter c_hashes("simt.kernel_hashes");
  c_hashes.add();
  std::uint64_t h = 0xCBF29CE484222325ULL;
  h = hash_bytes(h, kernel.name.data(), kernel.name.size());
  h = hash_value(h, static_cast<std::uint64_t>(kernel.threads_per_block));
  h = hash_value(h, static_cast<std::uint64_t>(kernel.vreg_count));
  h = hash_value(h, static_cast<std::uint64_t>(kernel.sreg_count));
  h = hash_value(h, static_cast<std::uint64_t>(kernel.smem_bytes));
  for (const Instr& ins : kernel.code) {
    h = hash_value(h, static_cast<std::uint64_t>(ins.op));
    h = hash_value(h, static_cast<std::uint64_t>(static_cast<std::int64_t>(ins.dst)));
    for (const Operand* operand : {&ins.a, &ins.b, &ins.c}) {
      h = hash_value(h, static_cast<std::uint64_t>(operand->kind));
      h = hash_value(h, static_cast<std::uint64_t>(static_cast<std::int64_t>(operand->reg)));
      h = hash_value(h, operand->imm);
    }
    h = hash_value(h, static_cast<std::uint64_t>(ins.cmp));
    h = hash_value(h, static_cast<std::uint64_t>(ins.dtype));
    h = hash_value(h, static_cast<std::uint64_t>(ins.width));
    h = hash_value(h, static_cast<std::uint64_t>(static_cast<std::int64_t>(ins.pred)));
    h = hash_value(h, static_cast<std::uint64_t>(ins.pred_negate));
  }
  return h;
}

/// The (kernel, device) identity from the kernel's content hash and the
/// device's name, architecture, bank count, and every latency-table field:
/// a fixed-size record, mixed word by word.
std::uint64_t identity_on(std::uint64_t kernel_content, const DeviceSpec& device) noexcept {
  std::uint64_t h = hash_bytes(0xCBF29CE484222325ULL, device.name.data(),
                               device.name.size());
  h = mix64(h ^ static_cast<std::uint64_t>(device.arch));
  h = mix64(h ^ static_cast<std::uint64_t>(device.smem_banks));
  const LatencyTable& lat = device.lat;
  for (const int v : {lat.reg_access, lat.ialu, lat.imul, lat.falu, lat.shfl,
                      lat.shfl_up, lat.shfl_down, lat.shfl_xor, lat.smem_load,
                      lat.smem_store, lat.bank_conflict, lat.sync_barrier,
                      lat.gmem_load, lat.gmem_load_cached, lat.gmem_store,
                      lat.issue_interval, lat.issues_per_cycle}) {
    h = mix64(h ^ static_cast<std::uint64_t>(static_cast<std::int64_t>(v)));
  }
  return mix64(kernel_content ^ h);
}

std::shared_ptr<const DecodedProgram> decode_with_identity(const Kernel& kernel,
                                                           const DeviceSpec& device,
                                                           std::uint64_t identity) {
  validate(kernel);

  auto prog = std::make_shared<DecodedProgram>();
  prog->name = kernel.name;
  prog->threads_per_block = kernel.threads_per_block;
  prog->warps = kernel.warps_per_block();
  prog->vreg_count = std::max(kernel.vreg_count, 1);
  prog->sreg_count = std::max(kernel.sreg_count, 1);
  prog->smem_bytes = std::max(kernel.smem_bytes, 1);
  prog->identity = identity;

  const std::size_t n = kernel.code.size();
  prog->code.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const Instr& ins = kernel.code[i];
    DecodedInstr& d = prog->code[i];
    d.op = ins.op;
    d.cls = classify(ins.op);
    d.lane = lane_of(ins);
    d.cmp = ins.cmp;
    d.width = ins.width;
    d.dst = static_cast<std::int16_t>(ins.dst);
    d.scalar_dst = d.cls == ExecClass::kScalar;
    d.pred = static_cast<std::int16_t>(ins.pred);
    d.pred_negate = ins.pred_negate;
    d.latency = baked_latency(ins.op, device.lat);
    d.a = ins.a;
    d.b = ins.b;
    d.c = ins.c;
    const Operand* ops[3] = {&ins.a, &ins.b, &ins.c};
    for (int k = 0; k < 3; ++k) {
      if (ops[k]->kind == Operand::Kind::kVector) {
        d.rv[static_cast<std::size_t>(k)] = static_cast<std::int16_t>(ops[k]->reg);
      } else if (ops[k]->kind == Operand::Kind::kScalar) {
        d.rs[static_cast<std::size_t>(k)] = static_cast<std::int16_t>(ops[k]->reg);
      }
    }
    if (ins.pred >= 0) {
      d.rv[3] = static_cast<std::int16_t>(ins.pred);
    }
  }

  // Structured-control-flow matching, identical to the legacy
  // build_loop_matches.
  std::vector<std::size_t> stack;
  for (std::size_t i = 0; i < n; ++i) {
    if (prog->code[i].cls == ExecClass::kLoop) {
      stack.push_back(i);
    } else if (prog->code[i].cls == ExecClass::kEndLoop) {
      util::ensure(!stack.empty(), "decode: unbalanced loops");
      const std::size_t begin = stack.back();
      stack.pop_back();
      prog->code[begin].match = static_cast<std::uint32_t>(i);
      prog->code[i].match = static_cast<std::uint32_t>(begin);
    }
  }

  mark_vector_metadata(*prog);
  return prog;
}

}  // namespace

std::uint64_t kernel_identity(const Kernel& kernel, const DeviceSpec& device) {
  return identity_on(kernel_hash(kernel), device);
}

PreparedKernel::PreparedKernel(Kernel kernel)
    : kernel_(std::make_shared<const Kernel>(std::move(kernel))),
      hash_(kernel_hash(*kernel_)) {}

std::uint64_t PreparedKernel::identity(const DeviceSpec& device) const noexcept {
  return identity_on(hash_, device);
}

PreparedKernel PreparedKernel::borrow(const Kernel& kernel) {
  // Aliasing constructor over an empty owner: a non-owning pointer.
  return PreparedKernel(std::shared_ptr<const Kernel>(std::shared_ptr<const Kernel>(), &kernel),
                        kernel_hash(kernel));
}

std::shared_ptr<const DecodedProgram> decode_program(const Kernel& kernel,
                                                     const DeviceSpec& device) {
  return decode_with_identity(kernel, device, kernel_identity(kernel, device));
}

namespace {

// Decoded-cache instrumentation (visible in --metrics-out dumps). Hits and
// misses are counted per lookup; the entry gauge is set under the cache
// lock on every miss and clear — the only events that change it.
obs::Counter& cache_hits() {
  static obs::Counter c("simt.decode_cache.hits");
  return c;
}
obs::Counter& cache_misses() {
  static obs::Counter c("simt.decode_cache.misses");
  return c;
}
obs::Gauge& cache_entries() {
  static obs::Gauge g("simt.decode_cache.entries");
  return g;
}

}  // namespace

std::shared_ptr<const DecodedProgram> DecodedProgramCache::get(
    const Kernel& kernel, const DeviceSpec& device) {
  return get(kernel_identity(kernel, device), kernel, device, nullptr);
}

std::shared_ptr<const DecodedProgram> DecodedProgramCache::get(
    const PreparedKernel& kernel, const DeviceSpec& device, bool* hit) {
  return get(kernel.identity(device), kernel.kernel(), device, hit);
}

std::shared_ptr<const DecodedProgram> DecodedProgramCache::get(
    std::uint64_t key, const Kernel& kernel, const DeviceSpec& device, bool* hit) {
  std::shared_ptr<const DecodedProgram> prog;
  bool found = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = map_.find(key);
    if (it != map_.end()) {
      found = true;
      prog = it->second;
    } else {
      // Decode under the lock: concurrent first uses of one identity must
      // produce exactly one decode.
      prog = decode_with_identity(kernel, device, key);
      decodes_ += 1;
      map_.emplace(key, prog);
      cache_entries().set(static_cast<double>(map_.size()));
    }
  }
  if (found) {
    cache_hits().add();
  } else {
    cache_misses().add();
  }
  if (hit != nullptr) {
    *hit = found;
  }
  return prog;
}

std::size_t DecodedProgramCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return map_.size();
}

std::uint64_t DecodedProgramCache::decode_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return decodes_;
}

void DecodedProgramCache::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  map_.clear();
  cache_entries().set(0.0);
}

DecodedProgramCache& shared_decoded_cache() {
  static DecodedProgramCache cache;
  return cache;
}

}  // namespace wsim::simt
