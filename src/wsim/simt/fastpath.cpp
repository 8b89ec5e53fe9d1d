// The predecoded fast-path interpreter (see decode.hpp and
// fastpath_engine.hpp, which holds the shared execution core). Executes
// DecodedProgram instruction streams with per-opcode handler dispatch
// (templated lane loops selected from a table instead of a switch inside
// the lane loop) and a warp-uniform fast path: validate() guarantees
// threads_per_block is a multiple of 32, so every warp is full and
// unpredicated instructions skip per-lane activity bookkeeping entirely.
//
// This engine uses EngineBase's default dispatch loop unchanged; it exists
// as the concrete instantiation the handler table binds to, as the engine
// SDC-injected blocks run on, and as the reference the lane-vector engine
// (vectorpath.cpp, the default) is differentially tested against. It is
// not user-selectable: WSIM_INTERP and --interp name only legacy|vector.

#include <cstdlib>
#include <string_view>

#include "wsim/simt/fastpath_engine.hpp"

namespace wsim::simt {

InterpPath resolve_interp_path(InterpPath requested) noexcept {
  if (requested != InterpPath::kDefault) {
    return requested;
  }
  const char* env = std::getenv("WSIM_INTERP");
  if (env != nullptr && std::string_view(env) == "legacy") {
    return InterpPath::kLegacy;
  }
  return InterpPath::kVector;
}

namespace {

struct FastEngine final : fastdetail::EngineBase<FastEngine> {
  using EngineBase::EngineBase;
};

}  // namespace

BlockResult run_block_fast(const DecodedProgram& program, const DeviceSpec& device,
                           GlobalMemory& gmem,
                           std::span<const std::uint64_t> scalar_args,
                           const BlockRunOptions& options) {
  FastEngine engine(program, device, gmem, scalar_args, options);
  return engine.run();
}

}  // namespace wsim::simt
