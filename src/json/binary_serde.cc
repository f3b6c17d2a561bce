#include "json/binary_serde.h"

#include <cstring>

namespace jpar {

void ItemWriter::AppendVarint(uint64_t v, std::string* out) {
  while (v >= 0x80) {
    out->push_back(static_cast<char>((v & 0x7F) | 0x80));
    v >>= 7;
  }
  out->push_back(static_cast<char>(v));
}

void ItemWriter::Write(const Item& item) {
  out_.push_back(static_cast<char>(item.kind()));
  switch (item.kind()) {
    case ItemKind::kNull:
      return;
    case ItemKind::kBoolean:
      out_.push_back(item.boolean_value() ? 1 : 0);
      return;
    case ItemKind::kInt64:
      AppendVarint(ZigZag(item.int64_value()), &out_);
      return;
    case ItemKind::kDouble: {
      double v = item.double_value();
      char buf[sizeof(double)];
      std::memcpy(buf, &v, sizeof(double));
      out_.append(buf, sizeof(double));
      return;
    }
    case ItemKind::kString: {
      const std::string& s = item.string_value();
      AppendVarint(s.size(), &out_);
      out_.append(s);
      return;
    }
    case ItemKind::kDateTime: {
      const DateTimeValue& dt = item.datetime_value();
      char buf[4];
      std::memcpy(buf, &dt.year, sizeof(int32_t));
      out_.append(buf, sizeof(int32_t));
      out_.push_back(static_cast<char>(dt.month));
      out_.push_back(static_cast<char>(dt.day));
      out_.push_back(static_cast<char>(dt.hour));
      out_.push_back(static_cast<char>(dt.minute));
      out_.push_back(static_cast<char>(dt.second));
      return;
    }
    case ItemKind::kArray:
    case ItemKind::kSequence: {
      const Item::ItemVector& elems =
          item.is_array() ? item.array() : item.sequence();
      AppendVarint(elems.size(), &out_);
      for (const Item& e : elems) Write(e);
      return;
    }
    case ItemKind::kObject: {
      const Item::Object& fields = item.object();
      AppendVarint(fields.size(), &out_);
      for (const Item::Field& f : fields) {
        AppendVarint(f.key.size(), &out_);
        out_.append(f.key);
        Write(f.value);
      }
      return;
    }
  }
}

size_t ItemWriter::EncodedSize(const Item& item) {
  switch (item.kind()) {
    case ItemKind::kNull:
      return 1;
    case ItemKind::kBoolean:
      return 2;
    case ItemKind::kInt64:
      return 1 + VarintSize(ZigZag(item.int64_value()));
    case ItemKind::kDouble:
      return 1 + sizeof(double);
    case ItemKind::kString:
      return 1 + VarintSize(item.string_value().size()) +
             item.string_value().size();
    case ItemKind::kDateTime:
      return 1 + sizeof(int32_t) + 5;
    case ItemKind::kArray:
    case ItemKind::kSequence: {
      const Item::ItemVector& elems =
          item.is_array() ? item.array() : item.sequence();
      size_t total = 1 + VarintSize(elems.size());
      for (const Item& e : elems) total += EncodedSize(e);
      return total;
    }
    case ItemKind::kObject: {
      const Item::Object& fields = item.object();
      size_t total = 1 + VarintSize(fields.size());
      for (const Item::Field& f : fields) {
        total += VarintSize(f.key.size()) + f.key.size() + EncodedSize(f.value);
      }
      return total;
    }
  }
  return 1;
}

Result<uint64_t> ItemReader::ReadVarint() {
  uint64_t v = 0;
  int shift = 0;
  while (pos_ < data_.size()) {
    uint8_t b = static_cast<uint8_t>(data_[pos_++]);
    v |= static_cast<uint64_t>(b & 0x7F) << shift;
    if ((b & 0x80) == 0) return v;
    shift += 7;
    if (shift > 63) break;
  }
  return Status::Internal("corrupt varint in binary item");
}

template <bool kBuild>
Status ItemReader::ReadValue(int depth, Item* out) {
  if (depth > 512) return Status::Internal("binary item too deeply nested");
  if (pos_ >= data_.size()) {
    return Status::Internal("truncated binary item");
  }
  ItemKind kind = static_cast<ItemKind>(data_[pos_++]);
  switch (kind) {
    case ItemKind::kNull:
      if constexpr (kBuild) *out = Item::Null();
      return Status::OK();
    case ItemKind::kBoolean: {
      if (pos_ >= data_.size()) {
        return Status::Internal("truncated boolean");
      }
      if constexpr (kBuild) *out = Item::Boolean(data_[pos_] != 0);
      ++pos_;
      return Status::OK();
    }
    case ItemKind::kInt64: {
      JPAR_ASSIGN_OR_RETURN(uint64_t v, ReadVarint());
      if constexpr (kBuild) *out = Item::Int64(UnZigZag(v));
      return Status::OK();
    }
    case ItemKind::kDouble: {
      if (pos_ + sizeof(double) > data_.size()) {
        return Status::Internal("truncated double");
      }
      if constexpr (kBuild) {
        double v;
        std::memcpy(&v, data_.data() + pos_, sizeof(double));
        *out = Item::Double(v);
      }
      pos_ += sizeof(double);
      return Status::OK();
    }
    case ItemKind::kString: {
      JPAR_ASSIGN_OR_RETURN(uint64_t len, ReadVarint());
      if (pos_ + len > data_.size()) {
        return Status::Internal("truncated string");
      }
      if constexpr (kBuild) *out = Item::String(data_.substr(pos_, len));
      pos_ += len;
      return Status::OK();
    }
    case ItemKind::kDateTime: {
      if (pos_ + 9 > data_.size()) {
        return Status::Internal("truncated dateTime");
      }
      if constexpr (kBuild) {
        DateTimeValue dt;
        std::memcpy(&dt.year, data_.data() + pos_, sizeof(int32_t));
        dt.month = static_cast<int8_t>(data_[pos_ + 4]);
        dt.day = static_cast<int8_t>(data_[pos_ + 5]);
        dt.hour = static_cast<int8_t>(data_[pos_ + 6]);
        dt.minute = static_cast<int8_t>(data_[pos_ + 7]);
        dt.second = static_cast<int8_t>(data_[pos_ + 8]);
        *out = Item::DateTime(dt);
      }
      pos_ += 9;
      return Status::OK();
    }
    case ItemKind::kArray:
    case ItemKind::kSequence: {
      JPAR_ASSIGN_OR_RETURN(uint64_t count, ReadVarint());
      Item::ItemVector elems;
      if constexpr (kBuild) elems.reserve(count < 4096 ? count : 4096);
      for (uint64_t i = 0; i < count; ++i) {
        if constexpr (kBuild) {
          JPAR_RETURN_NOT_OK(ReadValue<true>(depth + 1, &elems.emplace_back()));
        } else {
          JPAR_RETURN_NOT_OK(ReadValue<false>(depth + 1, nullptr));
        }
      }
      if constexpr (kBuild) {
        *out = kind == ItemKind::kArray ? Item::MakeArray(std::move(elems))
                                        : Item::MakeSequence(std::move(elems));
      }
      return Status::OK();
    }
    case ItemKind::kObject: {
      JPAR_ASSIGN_OR_RETURN(uint64_t count, ReadVarint());
      Item::Object fields;
      if constexpr (kBuild) fields.reserve(count < 4096 ? count : 4096);
      for (uint64_t i = 0; i < count; ++i) {
        JPAR_ASSIGN_OR_RETURN(std::string_view key, ReadKey());
        if constexpr (kBuild) {
          Item::Field& f = fields.emplace_back();
          f.key = std::string(key);
          JPAR_RETURN_NOT_OK(ReadValue<true>(depth + 1, &f.value));
        } else {
          JPAR_RETURN_NOT_OK(ReadValue<false>(depth + 1, nullptr));
        }
      }
      if constexpr (kBuild) *out = Item::MakeObject(std::move(fields));
      return Status::OK();
    }
  }
  return Status::Internal("unknown item kind tag");
}

Result<std::string_view> ItemReader::ReadKey() {
  JPAR_ASSIGN_OR_RETURN(uint64_t klen, ReadVarint());
  if (pos_ + klen > data_.size()) {
    return Status::Internal("truncated object key");
  }
  std::string_view key = data_.substr(pos_, klen);
  pos_ += klen;
  return key;
}

Result<Item> ItemReader::Read() {
  Item item;
  JPAR_RETURN_NOT_OK(ReadValue<true>(0, &item));
  return item;
}

Status ItemReader::Skip() { return ReadValue<false>(0, nullptr); }

Status ItemReader::ScanObjectFields(const std::vector<std::string>& keys,
                                    std::vector<std::string_view>* spans) {
  spans->assign(keys.size(), std::string_view());
  if (pos_ >= data_.size()) {
    return Status::Internal("truncated binary item");
  }
  if (static_cast<ItemKind>(data_[pos_]) != ItemKind::kObject) {
    return Status::Internal("binary item is not an object");
  }
  ++pos_;
  JPAR_ASSIGN_OR_RETURN(uint64_t count, ReadVarint());
  for (uint64_t i = 0; i < count; ++i) {
    JPAR_ASSIGN_OR_RETURN(std::string_view key, ReadKey());
    const size_t begin = pos_;
    JPAR_RETURN_NOT_OK(ReadValue<false>(1, nullptr));
    for (size_t k = 0; k < keys.size(); ++k) {
      std::string_view& span = (*spans)[k];
      if (span.empty() && keys[k] == key) {
        span = data_.substr(begin, pos_ - begin);
        break;
      }
    }
  }
  return Status::OK();
}

std::string SerializeItem(const Item& item) {
  std::string out;
  ItemWriter writer(&out);
  writer.Write(item);
  return out;
}

Result<Item> DeserializeItem(std::string_view data) {
  ItemReader reader(data);
  JPAR_ASSIGN_OR_RETURN(Item item, reader.Read());
  if (!reader.AtEnd()) {
    return Status::Internal("trailing bytes after binary item");
  }
  return item;
}

}  // namespace jpar
