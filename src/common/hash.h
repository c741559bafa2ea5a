// Byte-wise FNV-1a 64-bit hashing: the socket frame checksum and keyed tag
// (src/dist) and the pinned sampling digests in the test suite.
#pragma once

#include <cstddef>
#include <cstdint>

namespace diffpattern::common {

/// FNV-1a 64-bit offset basis, i.e. the hash of the empty byte range.
inline constexpr std::uint64_t kFnv1a64Offset = 0xCBF29CE484222325ULL;

/// FNV-1a 64-bit over `size` bytes at `data`, continuing from `seed`.
/// Passing one call's result as the next call's seed hashes the
/// concatenation of the two ranges.
inline std::uint64_t fnv1a64(const void* data, std::size_t size,
                             std::uint64_t seed = kFnv1a64Offset) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  std::uint64_t hash = seed;
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= 0x100000001B3ULL;
  }
  return hash;
}

}  // namespace diffpattern::common
