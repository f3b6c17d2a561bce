#ifndef JPAR_JSON_PARSER_H_
#define JPAR_JSON_PARSER_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "json/item.h"
#include "json/structural_index.h"

namespace jpar {

/// Parses a complete JSON document into an Item (DOM). Numbers without
/// fraction/exponent that fit int64 become kInt64, otherwise kDouble.
/// Trailing non-whitespace after the document is an error.
Result<Item> ParseJson(std::string_view text);

/// Parses a stream of concatenated or newline-delimited JSON documents
/// (NDJSON). Whitespace-only input yields zero documents. Collection
/// files are streams: a file may hold one document or many.
Result<std::vector<Item>> ParseJsonStream(std::string_view text);

/// Internal recursive-descent cursor shared by the DOM parser and the
/// projecting reader. Exposed in the header for the projecting reader
/// and for white-box tests.
class JsonCursor {
 public:
  explicit JsonCursor(std::string_view text) : text_(text) {}

  /// Indexed cursor (the stage-2 side of DESIGN.md §9). `index` must
  /// have been built over the buffer that contains `text`, with `text`
  /// starting at byte `index_offset` of that buffer — the projecting
  /// stream reader uses a nonzero offset for per-record cursors in
  /// degraded scans. With an index, SkipValue hops structural-to-
  /// structural and string scanning jumps quote-to-quote instead of
  /// inspecting every byte. One deliberate relaxation: escape sequences
  /// inside *skipped* strings are not validated (materialized strings
  /// still are) — structural malformations are still caught.
  JsonCursor(std::string_view text, const StructuralIndex* index,
             size_t index_offset = 0)
      : text_(text), index_(index), index_offset_(index_offset) {}

  /// Parses one JSON value at the cursor into a DOM Item.
  Result<Item> ParseValue(int depth = 0);

  /// Skips one JSON value without materializing it. This is what makes
  /// path-projected scans cheap: non-matching subtrees are scanned
  /// (byte-by-byte without an index, structural-to-structural with one)
  /// but never allocated.
  Status SkipValue(int depth = 0);

  /// Parses a JSON string at the cursor (cursor must be at '"').
  Result<std::string> ParseString();

  /// Validates one JSON value exactly as ParseValue would — the same
  /// grammar, so the same inputs fail, and the same end position —
  /// without building it. Unlike the indexed SkipValue, escape
  /// sequences are decoded (and the output discarded), so a string
  /// ParseValue rejects is rejected here too.
  Status ValidateValue(int depth = 0);

  /// Walks the object at the cursor exactly as ParseValue would — the
  /// same grammar, so the same objects fail, and the same end position
  /// — checking every value with ValidateValue, and records in
  /// (*spans)[i] the raw JSON of the first field named keys[i] (the one
  /// Item::GetField picks), empty when the object has none. Keys are
  /// compared decoded, so an escaped spelling of a key matches. The
  /// scan filter (projecting_reader.h) tests a record through these
  /// spans before deciding to build it.
  Status ScanObjectFields(const std::vector<std::string>& keys,
                          std::vector<std::string_view>* spans,
                          int depth = 0);
  /// The position() at which `span`, a view into the cursor's text,
  /// begins.
  size_t OffsetOf(std::string_view span) const {
    return static_cast<size_t>(span.data() - text_.data());
  }
  /// The cursor's text from an earlier position() `begin` up to the
  /// cursor.
  std::string_view SpanFrom(size_t begin) const {
    return text_.substr(begin, pos_ - begin);
  }

  void SkipWhitespace();
  bool AtEnd() {
    SkipWhitespace();
    return pos_ >= text_.size();
  }
  size_t position() const { return pos_; }
  /// Moves the cursor back to an earlier position() (a record start).
  void Rewind(size_t pos) { pos_ = pos; }
  char Peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }
  bool Consume(char c) {
    if (Peek() == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  Status ErrorHere(std::string msg) const;

  /// Maximum nesting depth accepted before reporting an error (guards
  /// against stack exhaustion on adversarial inputs).
  static constexpr int kMaxDepth = 512;

 private:
  Result<Item> ParseNumber();
  /// Walks the number token at the cursor with ParseNumber's grammar
  /// and messages, without converting it; sets *is_double when it has
  /// a fraction or an exponent. ParseNumber and SkipAtom share it.
  Status ScanNumber(bool* is_double);
  Status Expect(char c);
  /// ParseString's checks without building the string.
  Status ValidateString();
  /// A string's body after its opening quote, through the closing
  /// quote: decoded into *out, or only validated when `out` is null.
  Status DecodeStringBody(std::string* out);

  /// Indexed helpers (require index_ != nullptr).
  size_t IndexNextQuote(size_t local_pos) const;
  Status SkipString();
  Status SkipAtom();
  Status SkipValueIndexed(int depth);

  std::string_view text_;
  size_t pos_ = 0;
  const StructuralIndex* index_ = nullptr;  // not owned; null = scalar
  size_t index_offset_ = 0;
};

}  // namespace jpar

#endif  // JPAR_JSON_PARSER_H_
