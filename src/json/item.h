#ifndef JPAR_JSON_ITEM_H_
#define JPAR_JSON_ITEM_H_

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "common/result.h"
#include "json/datetime.h"

namespace jpar {

/// Kinds of values an Item can hold. kSequence is the XDM/JSONiq flat
/// sequence: it never nests (constructors flatten) and a one-item
/// sequence is normalized to the item itself.
enum class ItemKind : uint8_t {
  kNull = 0,
  kBoolean,
  kInt64,
  kDouble,
  kString,
  kDateTime,
  kArray,
  kObject,
  kSequence,
};

std::string_view ItemKindToString(ItemKind kind);

struct ObjectField;  // defined below Item (needs the complete type)

/// An immutable JSON/JSONiq value. Scalars are stored inline; arrays,
/// objects, and sequences share their payload via shared_ptr, making Item
/// cheap to copy (the engine copies items between tuples constantly).
///
/// Arrays and sequences share a storage representation (a vector of
/// items) and are distinguished by kind(): an array is a JSON value that
/// can nest inside documents, a sequence is the query-language collection
/// of items produced by e.g. keys-or-members.
class Item {
 public:
  using ItemVector = std::vector<Item>;
  using Field = ObjectField;
  using Object = std::vector<ObjectField>;

  /// Default-constructed Item is JSON null.
  Item() : kind_(ItemKind::kNull) {}

  static Item Null() { return Item(); }
  static Item Boolean(bool v) { return Item(ItemKind::kBoolean, v); }
  static Item Int64(int64_t v) { return Item(ItemKind::kInt64, v); }
  static Item Double(double v) { return Item(ItemKind::kDouble, v); }
  static Item String(std::string v) {
    return Item(ItemKind::kString,
                std::make_shared<const std::string>(std::move(v)));
  }
  static Item String(std::string_view v) { return String(std::string(v)); }
  static Item String(const char* v) { return String(std::string(v)); }
  static Item DateTime(DateTimeValue v) { return Item(ItemKind::kDateTime, v); }
  static Item MakeArray(ItemVector elems) {
    return Item(ItemKind::kArray,
                std::make_shared<const ItemVector>(std::move(elems)));
  }
  static Item MakeObject(Object fields);  // defined in item.cc

  /// Builds a flat sequence: nested sequences in `items` are spliced in,
  /// a resulting singleton collapses to the item itself, an empty input
  /// yields the empty sequence.
  static Item MakeSequence(ItemVector items);
  static Item EmptySequence() {
    return Item(ItemKind::kSequence, std::make_shared<const ItemVector>());
  }

  ItemKind kind() const { return kind_; }
  bool is_null() const { return kind_ == ItemKind::kNull; }
  bool is_boolean() const { return kind_ == ItemKind::kBoolean; }
  bool is_int64() const { return kind_ == ItemKind::kInt64; }
  bool is_double() const { return kind_ == ItemKind::kDouble; }
  bool is_numeric() const { return is_int64() || is_double(); }
  bool is_string() const { return kind_ == ItemKind::kString; }
  bool is_datetime() const { return kind_ == ItemKind::kDateTime; }
  bool is_array() const { return kind_ == ItemKind::kArray; }
  bool is_object() const { return kind_ == ItemKind::kObject; }
  bool is_sequence() const { return kind_ == ItemKind::kSequence; }
  bool is_json_item() const { return is_array() || is_object(); }
  bool is_atomic() const {
    return !is_array() && !is_object() && !is_sequence();
  }

  // Unchecked accessors: caller must have verified the kind.
  bool boolean_value() const { return std::get<bool>(value_); }
  int64_t int64_value() const { return std::get<int64_t>(value_); }
  double double_value() const { return std::get<double>(value_); }
  const DateTimeValue& datetime_value() const {
    return std::get<DateTimeValue>(value_);
  }
  const std::string& string_value() const {
    return *std::get<std::shared_ptr<const std::string>>(value_);
  }
  const ItemVector& array() const { return items_payload(); }
  const Object& object() const;  // defined in item.cc
  const ItemVector& sequence() const { return items_payload(); }

  /// Numeric value widened to double (int64 or double kinds only).
  double AsDouble() const {
    return is_int64() ? static_cast<double>(int64_value()) : double_value();
  }

  /// Object field lookup by key; nullopt when absent or not an object.
  std::optional<Item> GetField(std::string_view key) const;
  /// GetField without the copy: the first field named `key`, borrowed
  /// from this object; null when absent or not an object.
  const Item* FindField(std::string_view key) const;

  /// Number of items this value contributes to a sequence: 0 for the
  /// empty sequence, n for a sequence of n, 1 otherwise.
  size_t SequenceLength() const {
    return is_sequence() ? sequence().size() : 1;
  }

  /// Deep structural equality (JSON equality; sequences compare
  /// elementwise, int 1 == double 1.0).
  bool Equals(const Item& other) const;

  friend bool operator==(const Item& a, const Item& b) { return a.Equals(b); }
  friend bool operator!=(const Item& a, const Item& b) {
    return !a.Equals(b);
  }
  /// Streams the JSON text form (gtest failure messages).
  friend std::ostream& operator<<(std::ostream& os, const Item& item);

  /// Three-way comparison for atomic items of comparable types
  /// (numeric/numeric, string/string, datetime/datetime, bool/bool).
  Result<int> Compare(const Item& other) const;

  /// XQuery effective boolean value: false for null, false, the empty
  /// sequence, 0, NaN, and ""; true for other atomics and for
  /// arrays/objects; singleton sequences never occur (normalized away).
  Result<bool> EffectiveBooleanValue() const;

  /// Serializes to compact JSON text. A sequence renders as its items
  /// separated by ", " with no surrounding brackets (JSONiq serializer
  /// convention for top-level sequences).
  std::string ToJsonString() const;
  void AppendJsonTo(std::string* out) const;

  /// Approximate in-memory footprint in bytes (used by the memory
  /// accounting counters; includes nested payloads).
  size_t EstimateSizeBytes() const;

  /// Grouping/join key encoding: appends a kind-tagged stable byte string
  /// for an atomic item (so Int64(1) and String("1") differ).
  void AppendGroupKeyTo(std::string* out) const;

 private:
  using Storage =
      std::variant<std::monostate, bool, int64_t, double, DateTimeValue,
                   std::shared_ptr<const std::string>,
                   std::shared_ptr<const ItemVector>,
                   std::shared_ptr<const Object>>;

  template <typename V>
  Item(ItemKind kind, V value) : kind_(kind), value_(std::move(value)) {}

  const ItemVector& items_payload() const {
    return *std::get<std::shared_ptr<const ItemVector>>(value_);
  }

  ItemKind kind_;
  Storage value_;
};

/// One key/value pair of a JSON object. Objects preserve insertion order
/// (JSONiq object semantics).
struct ObjectField {
  std::string key;
  Item value;
};

}  // namespace jpar

#endif  // JPAR_JSON_ITEM_H_
