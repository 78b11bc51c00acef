#ifndef SEMSIM_COMMON_FNV_H_
#define SEMSIM_COMMON_FNV_H_

#include <cstddef>
#include <cstdint>
#include <cstring>

namespace semsim {

inline constexpr uint64_t kFnv1a64Offset = 0xCBF29CE484222325ULL;

/// FNV-1a 64: dependency-free, deterministic, fast enough that checksum
/// verification disappears next to the I/O it guards. Not cryptographic —
/// it detects truncation and bit rot, not adversaries. The `seed`
/// parameter chains calls: Fnv1a64(b, nb, Fnv1a64(a, na)) hashes the
/// concatenation a||b.
inline uint64_t Fnv1a64(const void* data, size_t size,
                        uint64_t seed = kFnv1a64Offset) {
  const uint8_t* bytes = static_cast<const uint8_t*>(data);
  uint64_t hash = seed;
  for (size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= 0x100000001B3ULL;
  }
  return hash;
}

/// FNV-1a over 8-byte words instead of bytes (trailing bytes one at a
/// time): about 8x fewer multiply steps for in-memory fingerprints of
/// large arrays. Its values differ from Fnv1a64, so it suits only
/// hashes compared within one process; on-disk checksums stay on
/// Fnv1a64. Chains through `seed` like Fnv1a64, but only calls whose
/// sizes are multiples of 8 chain to the hash of the concatenation.
inline uint64_t Fnv1a64Words(const void* data, size_t size,
                             uint64_t seed = kFnv1a64Offset) {
  const uint8_t* bytes = static_cast<const uint8_t*>(data);
  uint64_t hash = seed;
  size_t i = 0;
  for (; i + sizeof(uint64_t) <= size; i += sizeof(uint64_t)) {
    uint64_t word;
    std::memcpy(&word, bytes + i, sizeof(word));
    hash ^= word;
    hash *= 0x100000001B3ULL;
  }
  for (; i < size; ++i) {
    hash ^= bytes[i];
    hash *= 0x100000001B3ULL;
  }
  return hash;
}

}  // namespace semsim

#endif  // SEMSIM_COMMON_FNV_H_
