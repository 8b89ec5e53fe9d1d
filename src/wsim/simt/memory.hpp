#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "wsim/util/check.hpp"

namespace wsim::simt {

/// Simulated device global memory: a single arena shared by all blocks of
/// all launches against it. Hosts allocate buffers, fill them with typed
/// writes, launch kernels that address the arena with absolute byte
/// offsets, and read results back — mirroring cudaMalloc/cudaMemcpy.
class GlobalMemory {
 public:
  explicit GlobalMemory(std::size_t initial_capacity = 0) { data_.reserve(initial_capacity); }

  /// Allocates `bytes` with the given power-of-two alignment; returns the
  /// byte offset of the allocation ("device pointer").
  std::int64_t alloc(std::size_t bytes, std::size_t align = 4) {
    util::require(align > 0 && (align & (align - 1)) == 0, "alloc: align must be a power of two");
    const std::size_t offset = (data_.size() + align - 1) & ~(align - 1);
    data_.resize(offset + bytes, std::uint8_t{0});
    return static_cast<std::int64_t>(offset);
  }

  std::size_t size() const noexcept { return data_.size(); }

  /// The arena's first byte, unchecked: for callers that bounds-check a
  /// whole access themselves (the interpreters' warp-wide accesses).
  std::uint8_t* data() noexcept { return data_.data(); }

  /// Raw access with bounds checking; `bytes` may be zero.
  std::uint8_t* at(std::int64_t addr, std::size_t bytes) {
    util::require(addr >= 0 && static_cast<std::size_t>(addr) + bytes <= data_.size(),
                  "global memory access out of bounds");
    return data_.data() + addr;
  }
  const std::uint8_t* at(std::int64_t addr, std::size_t bytes) const {
    util::require(addr >= 0 && static_cast<std::size_t>(addr) + bytes <= data_.size(),
                  "global memory access out of bounds");
    return data_.data() + addr;
  }

  // --- typed host-side copies (cudaMemcpy equivalents) -------------------
  void write_f32(std::int64_t addr, std::span<const float> values) {
    std::memcpy(at(addr, values.size_bytes()), values.data(), values.size_bytes());
  }
  void write_i32(std::int64_t addr, std::span<const std::int32_t> values) {
    std::memcpy(at(addr, values.size_bytes()), values.data(), values.size_bytes());
  }
  void write_u8(std::int64_t addr, std::span<const std::uint8_t> values) {
    std::memcpy(at(addr, values.size_bytes()), values.data(), values.size_bytes());
  }

  std::vector<float> read_f32(std::int64_t addr, std::size_t count) const {
    std::vector<float> out(count);
    std::memcpy(out.data(), at(addr, count * 4), count * 4);
    return out;
  }
  std::vector<std::int32_t> read_i32(std::int64_t addr, std::size_t count) const {
    std::vector<std::int32_t> out(count);
    std::memcpy(out.data(), at(addr, count * 4), count * 4);
    return out;
  }
  std::vector<std::uint8_t> read_u8(std::int64_t addr, std::size_t count) const {
    std::vector<std::uint8_t> out(count);
    std::memcpy(out.data(), at(addr, count), count);
    return out;
  }

  float read_f32_one(std::int64_t addr) const {
    float v = 0.0F;
    std::memcpy(&v, at(addr, 4), 4);
    return v;
  }
  std::int32_t read_i32_one(std::int64_t addr) const {
    std::int32_t v = 0;
    std::memcpy(&v, at(addr, 4), 4);
    return v;
  }

 private:
  std::vector<std::uint8_t> data_;
};

}  // namespace wsim::simt
