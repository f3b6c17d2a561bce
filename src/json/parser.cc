#include "json/parser.h"

#include <cerrno>
#include <cstdlib>
#include <cstring>

namespace jpar {

namespace {

bool IsDigit(char c) { return c >= '0' && c <= '9'; }

}  // namespace

Status JsonCursor::ErrorHere(std::string msg) const {
  return Status::ParseError(msg + " at offset " + std::to_string(pos_));
}

void JsonCursor::SkipWhitespace() {
  while (pos_ < text_.size()) {
    char c = text_[pos_];
    if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
      ++pos_;
    } else {
      break;
    }
  }
}

Status JsonCursor::Expect(char c) {
  SkipWhitespace();
  if (!Consume(c)) {
    return ErrorHere(std::string("expected '") + c + "'");
  }
  return Status::OK();
}

size_t JsonCursor::IndexNextQuote(size_t local_pos) const {
  size_t abs = index_->NextQuote(index_offset_ + local_pos);
  if (abs == StructuralIndex::npos) return StructuralIndex::npos;
  return abs - index_offset_;
}

Result<std::string> JsonCursor::ParseString() {
  SkipWhitespace();
  if (!Consume('"')) return ErrorHere("expected string");
  if (index_ != nullptr) {
    size_t close = IndexNextQuote(pos_);
    if (close == StructuralIndex::npos) {
      pos_ = text_.size();
      return ErrorHere("unterminated string");
    }
    if (std::memchr(text_.data() + pos_, '\\', close - pos_) == nullptr) {
      // Escape-free string: one bulk copy instead of a byte loop.
      std::string fast(text_.substr(pos_, close - pos_));
      pos_ = close + 1;
      return fast;
    }
    // Escapes present: decode with the scalar loop (it stops at the
    // same unescaped quote the bitmap found).
  }
  std::string out;
  JPAR_RETURN_NOT_OK(DecodeStringBody(&out));
  return out;
}

Status JsonCursor::ValidateString() {
  SkipWhitespace();
  if (!Consume('"')) return ErrorHere("expected string");
  if (index_ != nullptr) {
    size_t close = IndexNextQuote(pos_);
    if (close == StructuralIndex::npos) {
      pos_ = text_.size();
      return ErrorHere("unterminated string");
    }
    if (std::memchr(text_.data() + pos_, '\\', close - pos_) == nullptr) {
      pos_ = close + 1;
      return Status::OK();
    }
  }
  return DecodeStringBody(nullptr);
}

Status JsonCursor::DecodeStringBody(std::string* out) {
  // A null `out` validates the string exactly as decoding it would.
  auto put = [out](char ch) {
    if (out != nullptr) out->push_back(ch);
  };
  while (pos_ < text_.size()) {
    char c = text_[pos_++];
    if (c == '"') return Status::OK();
    if (c == '\\') {
      if (pos_ >= text_.size()) return ErrorHere("unterminated escape");
      char e = text_[pos_++];
      switch (e) {
        case '"':
          put('"');
          break;
        case '\\':
          put('\\');
          break;
        case '/':
          put('/');
          break;
        case 'n':
          put('\n');
          break;
        case 't':
          put('\t');
          break;
        case 'r':
          put('\r');
          break;
        case 'b':
          put('\b');
          break;
        case 'f':
          put('\f');
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return ErrorHere("bad \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              return ErrorHere("bad \\u escape digit");
            }
          }
          // UTF-8 encode the BMP code point (surrogate pairs are passed
          // through individually; sufficient for this engine's data).
          if (code < 0x80) {
            put(static_cast<char>(code));
          } else if (code < 0x800) {
            put(static_cast<char>(0xC0 | (code >> 6)));
            put(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            put(static_cast<char>(0xE0 | (code >> 12)));
            put(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            put(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default:
          return ErrorHere("unknown escape");
      }
    } else {
      put(c);
    }
  }
  return ErrorHere("unterminated string");
}

Status JsonCursor::ScanNumber(bool* is_double) {
  if (Peek() == '-') ++pos_;
  bool mantissa = false;  // a digit before the exponent
  while (IsDigit(Peek())) {
    ++pos_;
    mantissa = true;
  }
  *is_double = false;
  if (Peek() == '.') {
    *is_double = true;
    ++pos_;
    if (!IsDigit(Peek())) return ErrorHere("digit expected after '.'");
    while (IsDigit(Peek())) ++pos_;
    mantissa = true;
  }
  if (Peek() == 'e' || Peek() == 'E') {
    *is_double = true;
    ++pos_;
    if (Peek() == '+' || Peek() == '-') ++pos_;
    if (!IsDigit(Peek())) return ErrorHere("digit expected in exponent");
    while (IsDigit(Peek())) ++pos_;
  }
  // "-" and "-e5" have no mantissa digit: strtod reads none of them.
  if (!mantissa) return ErrorHere("invalid number");
  return Status::OK();
}

Result<Item> JsonCursor::ParseNumber() {
  const size_t start = pos_;
  bool is_double = false;
  JPAR_RETURN_NOT_OK(ScanNumber(&is_double));
  std::string token(text_.substr(start, pos_ - start));
  if (!is_double) {
    errno = 0;
    char* end = nullptr;
    long long v = std::strtoll(token.c_str(), &end, 10);
    if (errno != ERANGE && end == token.c_str() + token.size()) {
      return Item::Int64(v);
    }
  }
  errno = 0;
  char* end = nullptr;
  double d = std::strtod(token.c_str(), &end);
  if (end != token.c_str() + token.size()) {
    return ErrorHere("invalid number");
  }
  return Item::Double(d);
}

Result<Item> JsonCursor::ParseValue(int depth) {
  if (depth > kMaxDepth) return ErrorHere("document too deeply nested");
  SkipWhitespace();
  char c = Peek();
  switch (c) {
    case '{': {
      ++pos_;
      Item::Object fields;
      SkipWhitespace();
      if (Consume('}')) return Item::MakeObject(std::move(fields));
      while (true) {
        JPAR_ASSIGN_OR_RETURN(std::string key, ParseString());
        JPAR_RETURN_NOT_OK(Expect(':'));
        JPAR_ASSIGN_OR_RETURN(Item value, ParseValue(depth + 1));
        fields.push_back({std::move(key), std::move(value)});
        SkipWhitespace();
        if (Consume(',')) {
          SkipWhitespace();
          continue;
        }
        if (Consume('}')) return Item::MakeObject(std::move(fields));
        return ErrorHere("expected ',' or '}' in object");
      }
    }
    case '[': {
      ++pos_;
      Item::ItemVector elems;
      SkipWhitespace();
      if (Consume(']')) return Item::MakeArray(std::move(elems));
      while (true) {
        JPAR_ASSIGN_OR_RETURN(Item value, ParseValue(depth + 1));
        elems.push_back(std::move(value));
        SkipWhitespace();
        if (Consume(',')) continue;
        if (Consume(']')) return Item::MakeArray(std::move(elems));
        return ErrorHere("expected ',' or ']' in array");
      }
    }
    case '"': {
      JPAR_ASSIGN_OR_RETURN(std::string s, ParseString());
      return Item::String(std::move(s));
    }
    case 't':
      if (text_.substr(pos_, 4) == "true") {
        pos_ += 4;
        return Item::Boolean(true);
      }
      return ErrorHere("invalid literal");
    case 'f':
      if (text_.substr(pos_, 5) == "false") {
        pos_ += 5;
        return Item::Boolean(false);
      }
      return ErrorHere("invalid literal");
    case 'n':
      if (text_.substr(pos_, 4) == "null") {
        pos_ += 4;
        return Item::Null();
      }
      return ErrorHere("invalid literal");
    default:
      if (c == '-' || IsDigit(c)) return ParseNumber();
      return ErrorHere("unexpected character");
  }
}

/// Skips the string at the cursor (cursor at '"') via the quote bitmap:
/// no materialization, no byte loop. Escape sequences in the skipped
/// body are not validated (the bitmap already excluded escaped quotes).
Status JsonCursor::SkipString() {
  ++pos_;  // opening quote
  size_t close = IndexNextQuote(pos_);
  if (close == StructuralIndex::npos) {
    pos_ = text_.size();
    return ErrorHere("unterminated string");
  }
  pos_ = close + 1;
  return Status::OK();
}

/// Validates-and-skips a number or literal token, mirroring the scalar
/// grammar (and its error messages) without converting the number.
Status JsonCursor::SkipAtom() {
  char c = Peek();
  if (c == 't') {
    if (text_.substr(pos_, 4) == "true") {
      pos_ += 4;
      return Status::OK();
    }
    return ErrorHere("invalid literal");
  }
  if (c == 'f') {
    if (text_.substr(pos_, 5) == "false") {
      pos_ += 5;
      return Status::OK();
    }
    return ErrorHere("invalid literal");
  }
  if (c == 'n') {
    if (text_.substr(pos_, 4) == "null") {
      pos_ += 4;
      return Status::OK();
    }
    return ErrorHere("invalid literal");
  }
  if (c == '-' || IsDigit(c)) {
    bool is_double = false;
    return ScanNumber(&is_double);
  }
  return ErrorHere("unexpected character");
}

/// SkipValue against the structural index: the same automaton as the
/// scalar path (same structural validation, same error taxonomy), but
/// strings — including every skipped object key — hop quote-to-quote
/// via the bitmap instead of being scanned and materialized.
Status JsonCursor::SkipValueIndexed(int depth) {
  if (depth > kMaxDepth) return ErrorHere("document too deeply nested");
  SkipWhitespace();
  switch (Peek()) {
    case '{': {
      ++pos_;
      SkipWhitespace();
      if (Consume('}')) return Status::OK();
      while (true) {
        SkipWhitespace();
        if (Peek() != '"') return ErrorHere("expected string");
        JPAR_RETURN_NOT_OK(SkipString());
        JPAR_RETURN_NOT_OK(Expect(':'));
        JPAR_RETURN_NOT_OK(SkipValueIndexed(depth + 1));
        SkipWhitespace();
        if (Consume(',')) continue;
        if (Consume('}')) return Status::OK();
        return ErrorHere("expected ',' or '}' in object");
      }
    }
    case '[': {
      ++pos_;
      SkipWhitespace();
      if (Consume(']')) return Status::OK();
      while (true) {
        JPAR_RETURN_NOT_OK(SkipValueIndexed(depth + 1));
        SkipWhitespace();
        if (Consume(',')) continue;
        if (Consume(']')) return Status::OK();
        return ErrorHere("expected ',' or ']' in array");
      }
    }
    case '"':
      return SkipString();
    default:
      return SkipAtom();
  }
}

Status JsonCursor::SkipValue(int depth) {
  if (index_ != nullptr) return SkipValueIndexed(depth);
  if (depth > kMaxDepth) return ErrorHere("document too deeply nested");
  SkipWhitespace();
  char c = Peek();
  switch (c) {
    case '{': {
      ++pos_;
      SkipWhitespace();
      if (Consume('}')) return Status::OK();
      while (true) {
        JPAR_ASSIGN_OR_RETURN(std::string key, ParseString());
        (void)key;
        JPAR_RETURN_NOT_OK(Expect(':'));
        JPAR_RETURN_NOT_OK(SkipValue(depth + 1));
        SkipWhitespace();
        if (Consume(',')) {
          SkipWhitespace();
          continue;
        }
        if (Consume('}')) return Status::OK();
        return ErrorHere("expected ',' or '}' in object");
      }
    }
    case '[': {
      ++pos_;
      SkipWhitespace();
      if (Consume(']')) return Status::OK();
      while (true) {
        JPAR_RETURN_NOT_OK(SkipValue(depth + 1));
        SkipWhitespace();
        if (Consume(',')) continue;
        if (Consume(']')) return Status::OK();
        return ErrorHere("expected ',' or ']' in array");
      }
    }
    case '"': {
      JPAR_ASSIGN_OR_RETURN(std::string s, ParseString());
      (void)s;
      return Status::OK();
    }
    default: {
      JPAR_ASSIGN_OR_RETURN(Item v, ParseValue(depth));
      (void)v;
      return Status::OK();
    }
  }
}

Status JsonCursor::ValidateValue(int depth) {
  if (depth > kMaxDepth) return ErrorHere("document too deeply nested");
  SkipWhitespace();
  switch (Peek()) {
    case '{': {
      ++pos_;
      SkipWhitespace();
      if (Consume('}')) return Status::OK();
      while (true) {
        JPAR_RETURN_NOT_OK(ValidateString());
        JPAR_RETURN_NOT_OK(Expect(':'));
        JPAR_RETURN_NOT_OK(ValidateValue(depth + 1));
        SkipWhitespace();
        if (Consume(',')) {
          SkipWhitespace();
          continue;
        }
        if (Consume('}')) return Status::OK();
        return ErrorHere("expected ',' or '}' in object");
      }
    }
    case '[': {
      ++pos_;
      SkipWhitespace();
      if (Consume(']')) return Status::OK();
      while (true) {
        JPAR_RETURN_NOT_OK(ValidateValue(depth + 1));
        SkipWhitespace();
        if (Consume(',')) continue;
        if (Consume(']')) return Status::OK();
        return ErrorHere("expected ',' or ']' in array");
      }
    }
    case '"':
      return ValidateString();
    default:
      // Literals and numbers: SkipAtom is ParseValue's grammar and
      // messages for them, minus the conversion.
      return SkipAtom();
  }
}

Status JsonCursor::ScanObjectFields(const std::vector<std::string>& keys,
                                    std::vector<std::string_view>* spans,
                                    int depth) {
  spans->assign(keys.size(), std::string_view());
  if (depth > kMaxDepth) return ErrorHere("document too deeply nested");
  SkipWhitespace();
  if (!Consume('{')) return ErrorHere("expected object");
  SkipWhitespace();
  if (Consume('}')) return Status::OK();
  while (true) {
    JPAR_ASSIGN_OR_RETURN(std::string key, ParseString());
    JPAR_RETURN_NOT_OK(Expect(':'));
    SkipWhitespace();
    const size_t begin = pos_;
    JPAR_RETURN_NOT_OK(ValidateValue(depth + 1));
    for (size_t i = 0; i < keys.size(); ++i) {
      std::string_view& span = (*spans)[i];
      if (span.empty() && keys[i] == key) {
        span = text_.substr(begin, pos_ - begin);
        break;
      }
    }
    SkipWhitespace();
    if (Consume(',')) {
      SkipWhitespace();
      continue;
    }
    if (Consume('}')) return Status::OK();
    return ErrorHere("expected ',' or '}' in object");
  }
}

Result<Item> ParseJson(std::string_view text) {
  JsonCursor cursor(text);
  JPAR_ASSIGN_OR_RETURN(Item item, cursor.ParseValue());
  if (!cursor.AtEnd()) {
    return cursor.ErrorHere("trailing characters after JSON document");
  }
  return item;
}

Result<std::vector<Item>> ParseJsonStream(std::string_view text) {
  std::vector<Item> docs;
  JsonCursor cursor(text);
  while (!cursor.AtEnd()) {
    JPAR_ASSIGN_OR_RETURN(Item item, cursor.ParseValue());
    docs.push_back(std::move(item));
  }
  return docs;
}

}  // namespace jpar
