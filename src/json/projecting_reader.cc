#include "json/projecting_reader.h"

#include <cstring>

#include "json/parser.h"

namespace jpar {

std::string PathStep::ToString() const {
  switch (kind) {
    case Kind::kKey:
      return "(\"" + key + "\")";
    case Kind::kIndex:
      return "(" + std::to_string(index) + ")";
    case Kind::kKeysOrMembers:
      return "()";
  }
  return "?";
}

std::string PathToString(const std::vector<PathStep>& steps) {
  std::string out;
  for (const PathStep& s : steps) out += s.ToString();
  return out;
}

namespace {

/// Recursive projector over a JsonCursor. At each level, `step` indexes
/// into `steps`; when all steps are consumed the value at the cursor is
/// materialized and emitted.
class Projector {
 public:
  Projector(JsonCursor* cursor, const std::vector<PathStep>& steps,
            const std::function<Status(Item)>& sink, ProjectionStats* stats,
            ScanFilter* filter = nullptr)
      : cursor_(*cursor),
        steps_(steps),
        sink_(sink),
        stats_(stats),
        filter_(filter) {}

  Status Project(size_t step, int depth) {
    if (depth > JsonCursor::kMaxDepth) {
      return cursor_.ErrorHere("document too deeply nested");
    }
    if (step == steps_.size()) return Emit();
    const PathStep& s = steps_[step];
    cursor_.SkipWhitespace();
    char c = cursor_.Peek();
    switch (s.kind) {
      case PathStep::Kind::kKey: {
        if (c != '{') return cursor_.SkipValue(depth);
        return ProjectObjectKey(s.key, step, depth);
      }
      case PathStep::Kind::kIndex: {
        if (c != '[') return cursor_.SkipValue(depth);
        return ProjectArrayIndex(s.index, step, depth);
      }
      case PathStep::Kind::kKeysOrMembers: {
        if (c == '[') return ProjectArrayMembers(step, depth);
        if (c == '{') return ProjectObjectKeys(step, depth);
        // keys-or-members on an atomic yields the empty sequence.
        return cursor_.SkipValue(depth);
      }
    }
    return Status::Internal("unreachable path step kind");
  }

 private:
  Status Emit() {
    if (filter_ != nullptr) {
      JPAR_ASSIGN_OR_RETURN(bool keep, TestFilter());
      if (!keep) return Status::OK();
    }
    JPAR_ASSIGN_OR_RETURN(Item item, cursor_.ParseValue());
    if (stats_ != nullptr) {
      ++stats_->items_emitted;
      stats_->bytes_materialized += item.EstimateSizeBytes();
    }
    return sink_(std::move(item));
  }

  /// Tests the record at the cursor against the scan filter. Returns
  /// false, with the cursor past the record, only for a well-formed
  /// record the filter rejects: an object, or with `whole_value` an
  /// atomic value. Otherwise rewinds to the record start, so Emit
  /// builds it — and ParseValue, not this pass, reports any
  /// malformation.
  Result<bool> TestFilter() {
    cursor_.SkipWhitespace();
    const char c = cursor_.Peek();
    if (filter_->whole_value ? c == '{' || c == '[' : c != '{') return true;
    const size_t start = cursor_.position();
    const Status walk = filter_->whole_value
                            ? cursor_.ValidateValue()
                            : cursor_.ScanObjectFields(filter_->keys, &spans_);
    if (walk.ok()) {
      if (filter_->whole_value) spans_.assign(1, cursor_.SpanFrom(start));
      // The walk validated the probed values, so re-parsing them
      // succeeds.
      const size_t end = cursor_.position();
      const bool keep = filter_->Verdict(
          ScanFilter::Encoding::kText, spans_, [this](size_t i) {
            cursor_.Rewind(cursor_.OffsetOf(spans_[i]));
            return cursor_.ParseValue(1);
          });
      cursor_.Rewind(end);
      if (!keep) {
        if (filter_->dropped) JPAR_RETURN_NOT_OK(filter_->dropped());
        return false;
      }
    }
    cursor_.Rewind(start);
    return true;
  }

  Status ProjectObjectKey(const std::string& key, size_t step, int depth) {
    cursor_.Consume('{');
    cursor_.SkipWhitespace();
    if (cursor_.Consume('}')) return Status::OK();
    while (true) {
      JPAR_ASSIGN_OR_RETURN(std::string k, cursor_.ParseString());
      cursor_.SkipWhitespace();
      if (!cursor_.Consume(':')) return cursor_.ErrorHere("expected ':'");
      if (k == key) {
        JPAR_RETURN_NOT_OK(Project(step + 1, depth + 1));
      } else {
        JPAR_RETURN_NOT_OK(cursor_.SkipValue(depth + 1));
      }
      cursor_.SkipWhitespace();
      if (cursor_.Consume(',')) {
        cursor_.SkipWhitespace();
        continue;
      }
      if (cursor_.Consume('}')) return Status::OK();
      return cursor_.ErrorHere("expected ',' or '}' in object");
    }
  }

  Status ProjectArrayIndex(int64_t index, size_t step, int depth) {
    cursor_.Consume('[');
    cursor_.SkipWhitespace();
    if (cursor_.Consume(']')) return Status::OK();
    int64_t pos = 1;  // JSONiq array positions are 1-based
    while (true) {
      if (pos == index) {
        JPAR_RETURN_NOT_OK(Project(step + 1, depth + 1));
      } else {
        JPAR_RETURN_NOT_OK(cursor_.SkipValue(depth + 1));
      }
      ++pos;
      cursor_.SkipWhitespace();
      if (cursor_.Consume(',')) continue;
      if (cursor_.Consume(']')) return Status::OK();
      return cursor_.ErrorHere("expected ',' or ']' in array");
    }
  }

  Status ProjectArrayMembers(size_t step, int depth) {
    cursor_.Consume('[');
    cursor_.SkipWhitespace();
    if (cursor_.Consume(']')) return Status::OK();
    while (true) {
      JPAR_RETURN_NOT_OK(Project(step + 1, depth + 1));
      cursor_.SkipWhitespace();
      if (cursor_.Consume(',')) continue;
      if (cursor_.Consume(']')) return Status::OK();
      return cursor_.ErrorHere("expected ',' or ']' in array");
    }
  }

  Status ProjectObjectKeys(size_t step, int depth) {
    // keys-or-members over an object yields its keys (strings); any
    // further path steps over a plain string select nothing.
    cursor_.Consume('{');
    cursor_.SkipWhitespace();
    if (cursor_.Consume('}')) return Status::OK();
    while (true) {
      JPAR_ASSIGN_OR_RETURN(std::string k, cursor_.ParseString());
      cursor_.SkipWhitespace();
      if (!cursor_.Consume(':')) return cursor_.ErrorHere("expected ':'");
      if (step + 1 == steps_.size()) {
        if (stats_ != nullptr) {
          ++stats_->items_emitted;
          stats_->bytes_materialized += sizeof(Item) + k.size();
        }
        JPAR_RETURN_NOT_OK(sink_(Item::String(std::move(k))));
      }
      JPAR_RETURN_NOT_OK(cursor_.SkipValue(depth + 1));
      cursor_.SkipWhitespace();
      if (cursor_.Consume(',')) {
        cursor_.SkipWhitespace();
        continue;
      }
      if (cursor_.Consume('}')) return Status::OK();
      return cursor_.ErrorHere("expected ',' or '}' in object");
    }
  }

  JsonCursor& cursor_;
  const std::vector<PathStep>& steps_;
  const std::function<Status(Item)>& sink_;
  ProjectionStats* stats_;
  ScanFilter* filter_;
  std::vector<std::string_view> spans_;  // scratch of TestFilter
};

}  // namespace

bool ScanFilter::Verdict(Encoding encoding,
                         const std::vector<std::string_view>& spans,
                         const std::function<Result<Item>(size_t)>& decode) {
  memo_key_.assign(1, static_cast<char>(encoding));
  for (std::string_view span : spans) {
    // Length-prefixed, so absent (0) and every encoding are distinct.
    const uint64_t len = span.size();
    memo_key_.append(reinterpret_cast<const char*>(&len), sizeof(len));
    memo_key_.append(span);
  }
  const size_t hash = std::hash<std::string_view>()(memo_key_);
  const uint32_t id = memo_.Find(memo_key_, hash);
  if (id != KeyIndex::kAbsent) return verdicts_[id];
  Item probe;
  if (whole_value) {
    Result<Item> value = decode(0);
    if (!value.ok()) return true;
    probe = *std::move(value);
  } else {
    Item::Object slim;
    for (size_t i = 0; i < spans.size(); ++i) {
      if (spans[i].empty()) continue;
      Result<Item> value = decode(i);
      if (!value.ok()) return true;
      slim.push_back({keys[i], *std::move(value)});
    }
    probe = Item::MakeObject(std::move(slim));
  }
  const bool verdict = keep(probe);
  if (verdicts_.size() >= kMaxVerdicts) {
    memo_.Clear();
    verdicts_.clear();
  }
  memo_.Insert(memo_key_, hash);
  verdicts_.push_back(verdict);
  return verdict;
}

namespace {

/// Raw-byte newline search used by degraded-scan resync. Deliberately
/// NOT the index's outside-string newline bitmap: after a malformed
/// record the in-string mask is unreliable, and resync must land on the
/// same byte in both scan modes.
size_t FindNewline(std::string_view text, size_t from) {
  if (from >= text.size()) return std::string_view::npos;
  const void* hit =
      std::memchr(text.data() + from, '\n', text.size() - from);
  if (hit == nullptr) return std::string_view::npos;
  return static_cast<size_t>(static_cast<const char*>(hit) - text.data());
}

}  // namespace

Status ProjectJson(std::string_view text, const std::vector<PathStep>& steps,
                   const std::function<Status(Item)>& sink,
                   ProjectionStats* stats, ScanMode mode) {
  StructuralIndex index;
  const StructuralIndex* idx = nullptr;
  if (mode == ScanMode::kIndexed) {
    index = StructuralIndex::Build(text);
    idx = &index;
  }
  JsonCursor cursor = idx != nullptr ? JsonCursor(text, idx)
                                     : JsonCursor(text);
  Projector projector(&cursor, steps, sink, stats);
  JPAR_RETURN_NOT_OK(projector.Project(0, 0));
  if (!cursor.AtEnd()) {
    return cursor.ErrorHere("trailing characters after JSON document");
  }
  if (stats != nullptr) {
    stats->bytes_scanned += text.size();
    ++stats->documents;
  }
  return Status::OK();
}

Status ProjectJsonStreamWithIndex(std::string_view text,
                                  const std::vector<PathStep>& steps,
                                  const StructuralIndex* prebuilt,
                                  size_t index_origin,
                                  const std::function<Status(Item)>& sink,
                                  ProjectionStats* stats,
                                  uint64_t* skipped_records, ScanMode mode,
                                  ScanFilter* filter) {
  // Stage 1 runs once per buffer; every cursor below (including the
  // per-record cursors of the degraded scan) consumes the same bitmaps.
  // A caller-provided tape replaces the Build pass; `origin` tracks the
  // offset of text[0] within the buffer the active index covers. It
  // goes negative after a degraded scan rebuilds a suffix index (the
  // local index then starts *inside* text), and every cursor offset
  // below is origin + text offset, which is always >= 0.
  StructuralIndex local;
  const StructuralIndex* idx = nullptr;
  int64_t origin = 0;
  if (mode == ScanMode::kIndexed) {
    if (prebuilt != nullptr) {
      idx = prebuilt;
      origin = static_cast<int64_t>(index_origin);
    } else {
      local = StructuralIndex::Build(text);
      idx = &local;
    }
  }

  if (skipped_records == nullptr) {
    // Strict mode: one cursor straight through the stream.
    JsonCursor cursor =
        idx != nullptr ? JsonCursor(text, idx, static_cast<size_t>(origin))
                       : JsonCursor(text);
    Projector projector(&cursor, steps, sink, stats, filter);
    while (!cursor.AtEnd()) {
      JPAR_RETURN_NOT_OK(projector.Project(0, 0));
      if (stats != nullptr) ++stats->documents;
    }
    if (stats != nullptr) stats->bytes_scanned += text.size();
    return Status::OK();
  }

  // Lenient mode: each record gets a fresh cursor so a parse failure
  // leaves a well-defined resync position: the first raw newline at or
  // after the *start* of the failed record. Resyncing from the record
  // start (not the error position) is what keeps the two scan modes in
  // lockstep — on a malformed record the scalar and indexed parsers can
  // legitimately detect the error at different offsets (the indexed
  // path hops an unterminated string to the next unescaped quote and
  // fails there; the scalar path may die earlier on a bad escape), and
  // a resync anchored to the error position would diverge. With an
  // index there is one extra wrinkle: a malformed record with
  // unbalanced quotes poisons the in-string mask for the rest of the
  // buffer, while the scalar path restarts at the newline with fresh
  // state. When that happens (detected via InString at the resync
  // point) the index is rebuilt over the remaining suffix, so both
  // modes recover identically.
  size_t offset = 0;
  while (offset < text.size()) {
    std::string_view rest = text.substr(offset);
    JsonCursor cursor =
        idx != nullptr
            ? JsonCursor(rest, idx,
                         static_cast<size_t>(origin +
                                             static_cast<int64_t>(offset)))
            : JsonCursor(rest);
    if (cursor.AtEnd()) break;
    cursor.SkipWhitespace();
    size_t record_start = cursor.position();
    Projector projector(&cursor, steps, sink, stats, filter);
    if (stats != nullptr) ++stats->documents;
    Status st = projector.Project(0, 0);
    if (!st.ok()) {
      if (st.code() != StatusCode::kParseError) return st;
      ++*skipped_records;
      size_t newline = FindNewline(rest, record_start);
      if (newline == std::string_view::npos) break;  // tail is unusable
      offset += newline + 1;
      size_t ipos = static_cast<size_t>(origin + static_cast<int64_t>(offset));
      if (idx != nullptr && ipos < idx->size() && idx->InString(ipos)) {
        local = StructuralIndex::Build(text.substr(offset));
        idx = &local;
        origin = -static_cast<int64_t>(offset);
      }
      continue;
    }
    offset += cursor.position();
  }
  if (stats != nullptr) stats->bytes_scanned += text.size();
  return Status::OK();
}

Status ProjectJsonStream(std::string_view text,
                         const std::vector<PathStep>& steps,
                         const std::function<Status(Item)>& sink,
                         ProjectionStats* stats,
                         uint64_t* skipped_records, ScanMode mode) {
  return ProjectJsonStreamWithIndex(text, steps, nullptr, 0, sink, stats,
                                    skipped_records, mode);
}

Status NavigateItemPath(const Item& item, const std::vector<PathStep>& steps,
                        size_t from,
                        const std::function<Status(Item)>& sink) {
  if (from == steps.size()) return sink(item);
  const PathStep& step = steps[from];
  switch (step.kind) {
    case PathStep::Kind::kKey: {
      if (!item.is_object()) return Status::OK();
      const Item* field = item.FindField(step.key);
      if (field == nullptr) return Status::OK();
      return NavigateItemPath(*field, steps, from + 1, sink);
    }
    case PathStep::Kind::kIndex: {
      if (!item.is_array()) return Status::OK();
      const Item::ItemVector& elems = item.array();
      if (step.index < 1 ||
          static_cast<size_t>(step.index) > elems.size()) {
        return Status::OK();
      }
      return NavigateItemPath(elems[static_cast<size_t>(step.index - 1)],
                              steps, from + 1, sink);
    }
    case PathStep::Kind::kKeysOrMembers: {
      if (item.is_array()) {
        for (const Item& member : item.array()) {
          JPAR_RETURN_NOT_OK(
              NavigateItemPath(member, steps, from + 1, sink));
        }
        return Status::OK();
      }
      if (item.is_object()) {
        for (const ObjectField& f : item.object()) {
          if (from + 1 == steps.size()) {
            JPAR_RETURN_NOT_OK(sink(Item::String(f.key)));
          }
        }
        return Status::OK();
      }
      return Status::OK();
    }
  }
  return Status::Internal("unreachable path step kind");
}

}  // namespace jpar
