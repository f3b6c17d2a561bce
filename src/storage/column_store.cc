#include "storage/column_store.h"

#include <cmath>
#include <cstring>

#include "common/byte_codec.h"
#include "json/binary_serde.h"

namespace jpar {

namespace {

// Largest magnitude at which every int64 is exactly representable as a
// double; beyond it the zone map's min/max could round across the
// predicate constant and prune a matching block.
constexpr double kMaxExactInt = 9007199254740992.0;  // 2^53

uint64_t BlockBytes(const ColumnBlock& b) {
  return sizeof(ColumnBlock) + b.values.size() + b.null_bitmap.size() * 8;
}

}  // namespace

void ColumnBuilder::Add(const Item& item) {
  uint32_t row = cur_.rows;
  if (item.is_null()) {
    size_t word = row >> 6;
    if (cur_.null_bitmap.size() <= word) cur_.null_bitmap.resize(word + 1, 0);
    cur_.null_bitmap[word] |= uint64_t{1} << (row & 63);
  }
  ItemWriter(&cur_.values).Write(item);
  bool exact_numeric =
      item.is_double() ||
      (item.is_int64() && item.int64_value() >= -kMaxExactInt &&
       item.int64_value() <= kMaxExactInt);
  if (exact_numeric) {
    double d = item.AsDouble();
    if (std::isnan(d)) {
      cur_all_numeric_ = false;
    } else if (!cur_has_value_) {
      cur_.min = cur_.max = d;
      cur_has_value_ = true;
    } else {
      if (d < cur_.min) cur_.min = d;
      if (d > cur_.max) cur_.max = d;
    }
  } else {
    cur_all_numeric_ = false;
  }
  ++cur_.rows;
  if (cur_.rows >= block_rows_) Seal();
}

void ColumnBuilder::Seal() {
  if (cur_.rows == 0) return;
  cur_.prunable = cur_all_numeric_ && cur_has_value_;
  out_.rows += cur_.rows;
  out_.bytes += BlockBytes(cur_);
  out_.blocks.push_back(std::move(cur_));
  cur_ = ColumnBlock();
  cur_all_numeric_ = true;
  cur_has_value_ = false;
}

ColumnData ColumnBuilder::Finish(uint64_t skipped_records) {
  Seal();
  out_.skipped_records = skipped_records;
  out_.bytes += sizeof(ColumnData);
  return std::move(out_);
}

bool ZoneMayMatch(const ColumnBlock& block, ZoneCompare op, double value) {
  if (!block.prunable || op == ZoneCompare::kNone) return true;
  switch (op) {
    case ZoneCompare::kEq:
      return value >= block.min && value <= block.max;
    case ZoneCompare::kLt:
      return block.min < value;
    case ZoneCompare::kLe:
      return block.min <= value;
    case ZoneCompare::kGt:
      return block.max > value;
    case ZoneCompare::kGe:
      return block.max >= value;
    case ZoneCompare::kNone:
      return true;
  }
  return true;
}

void AppendColumnPayload(const ColumnData& column, std::string* out) {
  PutU64(column.rows, out);
  PutU64(column.skipped_records, out);
  PutU32(static_cast<uint32_t>(column.blocks.size()), out);
  for (const ColumnBlock& b : column.blocks) {
    PutU32(b.rows, out);
    out->push_back(b.prunable ? 1 : 0);
    PutF64(b.min, out);
    PutF64(b.max, out);
    PutU32(static_cast<uint32_t>(b.null_bitmap.size()), out);
    for (uint64_t w : b.null_bitmap) PutU64(w, out);
    PutU64(b.values.size(), out);
    out->append(b.values);
  }
}

bool ParseColumnPayload(std::string_view data, ColumnData* out) {
  *out = ColumnData();
  size_t pos = 0;
  uint64_t rows = 0, skipped = 0;
  uint32_t n_blocks = 0;
  if (!GetU64(data, &pos, &rows) || !GetU64(data, &pos, &skipped) ||
      !GetU32(data, &pos, &n_blocks)) {
    return false;
  }
  uint64_t total_rows = 0;
  for (uint32_t i = 0; i < n_blocks; ++i) {
    ColumnBlock b;
    uint32_t null_words = 0;
    uint64_t values_len = 0;
    if (!GetU32(data, &pos, &b.rows)) return false;
    if (data.size() - pos < 1) return false;
    b.prunable = data[pos++] != 0;
    if (!GetF64(data, &pos, &b.min) || !GetF64(data, &pos, &b.max) ||
        !GetU32(data, &pos, &null_words)) {
      return false;
    }
    if (null_words > (uint64_t{b.rows} + 63) / 64) return false;
    b.null_bitmap.resize(null_words);
    for (uint32_t w = 0; w < null_words; ++w) {
      if (!GetU64(data, &pos, &b.null_bitmap[w])) return false;
    }
    if (!GetU64(data, &pos, &values_len) || data.size() - pos < values_len) {
      return false;
    }
    b.values.assign(data.data() + pos, values_len);
    pos += values_len;
    // Full decode validation: every value must decode (Skip accepts
    // exactly what Read does, without building) and the row count must
    // match, so the serving path can trust the block.
    ItemReader reader(b.values);
    uint32_t decoded = 0;
    while (!reader.AtEnd()) {
      if (!reader.Skip().ok()) return false;
      ++decoded;
    }
    if (decoded != b.rows) return false;
    total_rows += b.rows;
    out->bytes += BlockBytes(b);
    out->blocks.push_back(std::move(b));
  }
  if (pos != data.size() || total_rows != rows) {
    *out = ColumnData();
    return false;
  }
  out->rows = rows;
  out->skipped_records = skipped;
  out->bytes += sizeof(ColumnData);
  return true;
}

}  // namespace jpar
