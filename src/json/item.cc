#include "json/item.h"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <ostream>

namespace jpar {

namespace {

void AppendEscapedString(std::string_view s, std::string* out) {
  out->push_back('"');
  for (char c : s) {
    switch (c) {
      case '"':
        out->append("\\\"");
        break;
      case '\\':
        out->append("\\\\");
        break;
      case '\n':
        out->append("\\n");
        break;
      case '\r':
        out->append("\\r");
        break;
      case '\t':
        out->append("\\t");
        break;
      case '\b':
        out->append("\\b");
        break;
      case '\f':
        out->append("\\f");
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out->append(buf);
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

void AppendDouble(double v, std::string* out) {
  if (v == static_cast<int64_t>(v) && std::abs(v) < 1e15) {
    // Render integral doubles without a mantissa tail but keep them
    // distinguishable as doubles by a trailing ".0" for JSON fidelity.
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.1f", v);
    out->append(buf);
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out->append(buf);
}

}  // namespace

std::string_view ItemKindToString(ItemKind kind) {
  switch (kind) {
    case ItemKind::kNull:
      return "null";
    case ItemKind::kBoolean:
      return "boolean";
    case ItemKind::kInt64:
      return "integer";
    case ItemKind::kDouble:
      return "double";
    case ItemKind::kString:
      return "string";
    case ItemKind::kDateTime:
      return "dateTime";
    case ItemKind::kArray:
      return "array";
    case ItemKind::kObject:
      return "object";
    case ItemKind::kSequence:
      return "sequence";
  }
  return "unknown";
}

Item Item::MakeObject(Object fields) {
  return Item(ItemKind::kObject,
              std::make_shared<const Object>(std::move(fields)));
}

const Item::Object& Item::object() const {
  return *std::get<std::shared_ptr<const Object>>(value_);
}

Item Item::MakeSequence(ItemVector items) {
  // Splice nested sequences to keep sequences flat.
  bool has_nested = false;
  for (const Item& it : items) {
    if (it.is_sequence()) {
      has_nested = true;
      break;
    }
  }
  if (has_nested) {
    ItemVector flat;
    flat.reserve(items.size());
    for (Item& it : items) {
      if (it.is_sequence()) {
        const ItemVector& inner = it.sequence();
        flat.insert(flat.end(), inner.begin(), inner.end());
      } else {
        flat.push_back(std::move(it));
      }
    }
    items = std::move(flat);
  }
  if (items.size() == 1) return std::move(items[0]);
  return Item(ItemKind::kSequence,
              std::make_shared<const ItemVector>(std::move(items)));
}

std::optional<Item> Item::GetField(std::string_view key) const {
  const Item* field = FindField(key);
  if (field == nullptr) return std::nullopt;
  return *field;
}

const Item* Item::FindField(std::string_view key) const {
  if (!is_object()) return nullptr;
  for (const Field& f : object()) {
    if (f.key == key) return &f.value;
  }
  return nullptr;
}

bool Item::Equals(const Item& other) const {
  if (is_numeric() && other.is_numeric()) {
    return AsDouble() == other.AsDouble();
  }
  if (kind_ != other.kind_) return false;
  switch (kind_) {
    case ItemKind::kNull:
      return true;
    case ItemKind::kBoolean:
      return boolean_value() == other.boolean_value();
    case ItemKind::kInt64:
    case ItemKind::kDouble:
      return AsDouble() == other.AsDouble();
    case ItemKind::kString:
      return string_value() == other.string_value();
    case ItemKind::kDateTime:
      return datetime_value() == other.datetime_value();
    case ItemKind::kArray:
    case ItemKind::kSequence: {
      const ItemVector& a = items_payload();
      const ItemVector& b = other.items_payload();
      if (a.size() != b.size()) return false;
      for (size_t i = 0; i < a.size(); ++i) {
        if (!a[i].Equals(b[i])) return false;
      }
      return true;
    }
    case ItemKind::kObject: {
      const Object& a = object();
      const Object& b = other.object();
      if (a.size() != b.size()) return false;
      for (size_t i = 0; i < a.size(); ++i) {
        if (a[i].key != b[i].key || !a[i].value.Equals(b[i].value)) {
          return false;
        }
      }
      return true;
    }
  }
  return false;
}

Result<int> Item::Compare(const Item& other) const {
  if (is_numeric() && other.is_numeric()) {
    double a = AsDouble(), b = other.AsDouble();
    return (a > b) - (a < b);
  }
  if (is_string() && other.is_string()) {
    int c = string_value().compare(other.string_value());
    return (c > 0) - (c < 0);
  }
  if (is_datetime() && other.is_datetime()) {
    return datetime_value().Compare(other.datetime_value());
  }
  if (is_boolean() && other.is_boolean()) {
    return static_cast<int>(boolean_value()) -
           static_cast<int>(other.boolean_value());
  }
  return Status::TypeError(std::string("cannot compare ") +
                           std::string(ItemKindToString(kind_)) + " with " +
                           std::string(ItemKindToString(other.kind_)));
}

Result<bool> Item::EffectiveBooleanValue() const {
  switch (kind_) {
    case ItemKind::kNull:
      return false;
    case ItemKind::kBoolean:
      return boolean_value();
    case ItemKind::kInt64:
      return int64_value() != 0;
    case ItemKind::kDouble:
      return double_value() != 0.0 && !std::isnan(double_value());
    case ItemKind::kString:
      return !string_value().empty();
    case ItemKind::kDateTime:
      return true;
    case ItemKind::kArray:
    case ItemKind::kObject:
      return true;
    case ItemKind::kSequence:
      if (sequence().empty()) return false;
      return Status::TypeError(
          "effective boolean value of a multi-item sequence");
  }
  return Status::Internal("unreachable item kind");
}

void Item::AppendJsonTo(std::string* out) const {
  switch (kind_) {
    case ItemKind::kNull:
      out->append("null");
      return;
    case ItemKind::kBoolean:
      out->append(boolean_value() ? "true" : "false");
      return;
    case ItemKind::kInt64: {
      char buf[24];
      std::snprintf(buf, sizeof(buf), "%lld",
                    static_cast<long long>(int64_value()));
      out->append(buf);
      return;
    }
    case ItemKind::kDouble:
      AppendDouble(double_value(), out);
      return;
    case ItemKind::kString:
      AppendEscapedString(string_value(), out);
      return;
    case ItemKind::kDateTime:
      AppendEscapedString(FormatDateTime(datetime_value()), out);
      return;
    case ItemKind::kArray: {
      out->push_back('[');
      bool first = true;
      for (const Item& e : array()) {
        if (!first) out->push_back(',');
        first = false;
        e.AppendJsonTo(out);
      }
      out->push_back(']');
      return;
    }
    case ItemKind::kObject: {
      out->push_back('{');
      bool first = true;
      for (const Field& f : object()) {
        if (!first) out->push_back(',');
        first = false;
        AppendEscapedString(f.key, out);
        out->push_back(':');
        f.value.AppendJsonTo(out);
      }
      out->push_back('}');
      return;
    }
    case ItemKind::kSequence: {
      bool first = true;
      for (const Item& e : sequence()) {
        if (!first) out->append(", ");
        first = false;
        e.AppendJsonTo(out);
      }
      return;
    }
  }
}

std::string Item::ToJsonString() const {
  std::string out;
  AppendJsonTo(&out);
  return out;
}

std::ostream& operator<<(std::ostream& os, const Item& item) {
  return os << item.ToJsonString();
}

size_t Item::EstimateSizeBytes() const {
  size_t base = sizeof(Item);
  switch (kind_) {
    case ItemKind::kString:
      return base + string_value().size();
    case ItemKind::kArray:
    case ItemKind::kSequence: {
      size_t total = base;
      for (const Item& e : items_payload()) total += e.EstimateSizeBytes();
      return total;
    }
    case ItemKind::kObject: {
      size_t total = base;
      for (const Field& f : object()) {
        total += f.key.size() + f.value.EstimateSizeBytes();
      }
      return total;
    }
    default:
      return base;
  }
}

void Item::AppendGroupKeyTo(std::string* out) const {
  out->push_back(static_cast<char>(kind_));
  switch (kind_) {
    case ItemKind::kNull:
      return;
    case ItemKind::kBoolean:
      out->push_back(boolean_value() ? 1 : 0);
      return;
    case ItemKind::kInt64:
    case ItemKind::kDouble: {
      // Numeric items with equal value must encode equally.
      double v = AsDouble();
      (*out)[out->size() - 1] = static_cast<char>(ItemKind::kDouble);
      out->append(reinterpret_cast<const char*>(&v), sizeof(v));
      return;
    }
    case ItemKind::kString:
      out->append(string_value());
      return;
    case ItemKind::kDateTime:
      out->append(FormatDateTime(datetime_value()));
      return;
    case ItemKind::kArray:
    case ItemKind::kObject:
    case ItemKind::kSequence:
      // Structured grouping keys: fall back to JSON text (rare; used
      // only if a query groups by a structured value).
      AppendJsonTo(out);
      return;
  }
}

}  // namespace jpar
