#ifndef JPAR_COMMON_CHECKSUM_H_
#define JPAR_COMMON_CHECKSUM_H_

#include <cstdint>
#include <string_view>

namespace jpar {

/// CRC32 (IEEE 802.3, reflected polynomial 0xEDB88320) over `data`:
/// the one integrity checksum, carried by every wire frame (DESIGN.md
/// §11) and every storage sidecar (DESIGN.md §14).
uint32_t Crc32(std::string_view data);

/// 64-bit FNV-1a over `data`: a fast non-cryptographic hash for names
/// and sketches, not an integrity check.
uint64_t Fnv1a64(std::string_view data);

}  // namespace jpar

#endif  // JPAR_COMMON_CHECKSUM_H_
