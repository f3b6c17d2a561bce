#ifndef JPAR_JSON_BINARY_SERDE_H_
#define JPAR_JSON_BINARY_SERDE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "json/item.h"

namespace jpar {

/// Compact tag-length-value binary encoding of Items. This is the
/// physical record format used inside dataflow frames (the Hyracks
/// analogue of its binary tuple accessors) and by the AsterixDB-like
/// baseline's pre-loaded "ADM" store.
///
/// Layout: 1 tag byte, then
///   null            -> nothing
///   boolean         -> 1 byte
///   int64           -> varint (zigzag)
///   double          -> 8 bytes little-endian
///   string          -> varint length + bytes
///   datetime        -> 4B year + 5 x 1B fields
///   array/sequence  -> varint count + elements
///   object          -> varint count + (varint keylen + key + value)*
class ItemWriter {
 public:
  explicit ItemWriter(std::string* out) : out_(*out) {}

  void Write(const Item& item);

  static void AppendVarint(uint64_t v, std::string* out);
  /// The bytes AppendVarint writes for `v`.
  static size_t VarintSize(uint64_t v) {
    size_t n = 1;
    for (; v >= 0x80; v >>= 7) ++n;
    return n;
  }
  /// The bytes Write appends for `item`, computed without writing them.
  static size_t EncodedSize(const Item& item);
  static uint64_t ZigZag(int64_t v) {
    return (static_cast<uint64_t>(v) << 1) ^
           static_cast<uint64_t>(v >> 63);
  }

 private:
  std::string& out_;
};

class ItemReader {
 public:
  explicit ItemReader(std::string_view data) : data_(data) {}

  Result<Item> Read();
  /// Walks one item exactly as Read does — the same bounds checks,
  /// depth cap and errors, ending at the same position — without
  /// building it.
  Status Skip();
  /// Walks one object item exactly as Read does and records in
  /// (*spans)[i] the encoded bytes of the first field named keys[i]
  /// (the one Item::GetField picks), empty when the object has none.
  /// Fails where Read fails, and on an item that is not an object.
  /// The scan filter (projecting_reader.h) tests a cached record
  /// through these spans before deciding to decode it.
  Status ScanObjectFields(const std::vector<std::string>& keys,
                          std::vector<std::string_view>* spans);
  bool AtEnd() const { return pos_ >= data_.size(); }
  size_t position() const { return pos_; }
  /// Moves the reader back to an earlier position() (a record start).
  void Rewind(size_t pos) { pos_ = pos; }

  static int64_t UnZigZag(uint64_t v) {
    return static_cast<int64_t>((v >> 1) ^ (~(v & 1) + 1));
  }

 private:
  Result<uint64_t> ReadVarint();
  /// An object field's key (varint length + bytes), as a view.
  Result<std::string_view> ReadKey();
  /// Reads one value at depth `depth`, building it into *out when
  /// kBuild is set; Read and Skip share this walk.
  template <bool kBuild>
  Status ReadValue(int depth, Item* out);

  std::string_view data_;
  size_t pos_ = 0;
};

/// Convenience round-trip helpers.
std::string SerializeItem(const Item& item);
Result<Item> DeserializeItem(std::string_view data);

}  // namespace jpar

#endif  // JPAR_JSON_BINARY_SERDE_H_
