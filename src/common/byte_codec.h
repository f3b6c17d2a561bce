#ifndef JPAR_COMMON_BYTE_CODEC_H_
#define JPAR_COMMON_BYTE_CODEC_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

namespace jpar {

/// Fixed-width little-endian integers and doubles for the on-disk
/// formats (columns, stats, sidecar headers). Each Get* reads at
/// `*pos`, advances it, and returns false when fewer bytes remain.

inline void PutU32(uint32_t v, std::string* out) {
  for (int i = 0; i < 4; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}

inline void PutU64(uint64_t v, std::string* out) {
  for (int i = 0; i < 8; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}

inline void PutF64(double v, std::string* out) {
  uint64_t bits;
  std::memcpy(&bits, &v, 8);
  PutU64(bits, out);
}

inline bool GetU32(std::string_view data, size_t* pos, uint32_t* v) {
  if (data.size() - *pos < 4) return false;
  *v = 0;
  for (int i = 0; i < 4; ++i) {
    *v |= static_cast<uint32_t>(static_cast<unsigned char>(data[*pos + i]))
          << (8 * i);
  }
  *pos += 4;
  return true;
}

inline bool GetU64(std::string_view data, size_t* pos, uint64_t* v) {
  if (data.size() - *pos < 8) return false;
  *v = 0;
  for (int i = 0; i < 8; ++i) {
    *v |= static_cast<uint64_t>(static_cast<unsigned char>(data[*pos + i]))
          << (8 * i);
  }
  *pos += 8;
  return true;
}

inline bool GetF64(std::string_view data, size_t* pos, double* v) {
  uint64_t bits;
  if (!GetU64(data, pos, &bits)) return false;
  std::memcpy(v, &bits, 8);
  return true;
}

}  // namespace jpar

#endif  // JPAR_COMMON_BYTE_CODEC_H_
