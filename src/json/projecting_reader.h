#ifndef JPAR_JSON_PROJECTING_READER_H_
#define JPAR_JSON_PROJECTING_READER_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "common/key_table.h"
#include "common/result.h"
#include "json/item.h"
#include "json/structural_index.h"

namespace jpar {

/// One navigation step of a DATASCAN path argument (the operator's
/// "second argument" in the paper, §4.2). A path is a list of steps:
///   kKey            — JSONiq value() on an object, by field name
///   kIndex          — JSONiq value() on an array, by 1-based position
///   kKeysOrMembers  — JSONiq () : every member of an array, or every
///                     key of an object
struct PathStep {
  enum class Kind : uint8_t { kKey, kIndex, kKeysOrMembers };

  Kind kind = Kind::kKey;
  std::string key;    // kKey
  int64_t index = 0;  // kIndex, 1-based

  static PathStep Key(std::string k) {
    PathStep s;
    s.kind = Kind::kKey;
    s.key = std::move(k);
    return s;
  }
  static PathStep Index(int64_t i) {
    PathStep s;
    s.kind = Kind::kIndex;
    s.index = i;
    return s;
  }
  static PathStep KeysOrMembers() {
    PathStep s;
    s.kind = Kind::kKeysOrMembers;
    return s;
  }

  friend bool operator==(const PathStep& a, const PathStep& b) {
    return a.kind == b.kind && a.key == b.key && a.index == b.index;
  }

  std::string ToString() const;
};

std::string PathToString(const std::vector<PathStep>& steps);

/// Statistics a projecting scan reports back to the executor.
struct ProjectionStats {
  uint64_t bytes_scanned = 0;      // total input bytes consumed
  uint64_t items_emitted = 0;      // items delivered to the sink
  uint64_t bytes_materialized = 0;  // estimated bytes of emitted items
  uint64_t documents = 0;  // top-level documents scanned (incl. skipped)
};

/// Filter-before-build (DESIGN.md §9): a predicate a scan tests on
/// each selected record before building it. The reader walks the
/// record once, validating every value exactly as a full decode would
/// and noting where the probed values lie: the fields named in `keys`
/// of an object record or, with `whole_value`, an atomic record itself.
/// A record is dropped — never built, never emitted, never counted in
/// ProjectionStats — only when the predicate rejects it. For a record
/// of another kind (a non-object with keys, an object or array with
/// `whole_value`), a record the walk rejects, or one the predicate
/// keeps, the reader rewinds to the record start and builds it as it
/// would without a filter, so a malformed record fails with the same
/// status wherever it is malformed. The JSON text reader and the
/// executor's cached-column reader (binary records, binary_serde.h)
/// both test records through Verdict.
///
/// `keep` sees a "slim record": an object holding the first occurrence
/// of each key in `keys` that the record has; with `whole_value`, the
/// atomic record itself. It must return false only for records every
/// consumer would drop, and it must be a pure function of what it sees:
/// Verdict memoizes verdicts, keyed by the encoded bytes of the probed
/// values, and decodes them only for bytes it has not seen. So one
/// ScanFilter serves one scanning thread at a time, and keeps its memo
/// across the calls of that thread. Verdict assembles each record's
/// memo key in the filter's own scratch string (`memo_key_`), so it
/// writes the filter on every record; the alignment exists only for
/// that scratch key: the workers' filters of one scan sit side by side
/// in one vector and must not share a cache line.
class alignas(64) ScanFilter {
 public:
  /// How a record's probed values are encoded. Each encoding has its
  /// own memo namespace: equal bytes mean different values in JSON
  /// text and in the binary record format.
  enum class Encoding : char { kText = 't', kBinary = 'b' };

  std::vector<std::string> keys;
  /// Probe the atomic record itself instead of fields of an object
  /// record; `keys` is then empty.
  bool whole_value = false;
  std::function<bool(const Item& slim)> keep;
  /// Called once per dropped record (counters, lifecycle polls); an
  /// error status aborts the scan like a sink error. May be empty.
  std::function<Status()> dropped;

  /// The verdict on a record whose probed values are `spans`: spans[i]
  /// holds the encoded bytes of the first field named keys[i], empty
  /// when the record has none; with `whole_value`, spans[0] holds the
  /// whole record. Answers from the memo when these bytes repeat;
  /// otherwise builds the slim record from `decode(i)`, the value of
  /// spans[i] (or hands keep decode(0) itself), and memoizes keep's
  /// answer. A decode failure keeps the record, unmemoized.
  bool Verdict(Encoding encoding, const std::vector<std::string_view>& spans,
               const std::function<Result<Item>(size_t)>& decode);

 private:
  /// Bounds the memo; a full memo starts over.
  static constexpr size_t kMaxVerdicts = 8192;

  /// verdicts_[id] is the verdict on the probed bytes memo_ holds as id.
  KeySet memo_;
  std::vector<bool> verdicts_;
  std::string memo_key_;  // scratch of Verdict
};

/// Streams the items selected by `steps` out of a JSON document without
/// materializing anything else: subtrees off the path are byte-skipped.
/// This is the execution engine of the DATASCAN operator after the
/// pipelining rules have pushed value()/keys-or-members() steps into the
/// scan — the reason Q0b touches only "date" strings instead of whole
/// documents.
///
/// The sink is invoked once per selected item, in document order. If the
/// path selects nothing (missing key, index out of range), the sink is
/// simply never called. Returns the first non-OK status from parsing or
/// from the sink.
///
/// `mode` selects the scanning pipeline (DESIGN.md §9): kIndexed (the
/// default) first builds a StructuralIndex over `text` so off-path
/// subtrees are skipped structural-to-structural; kScalar is the
/// byte-at-a-time baseline kept for differential testing and as a
/// reference implementation.
Status ProjectJson(std::string_view text, const std::vector<PathStep>& steps,
                   const std::function<Status(Item)>& sink,
                   ProjectionStats* stats = nullptr,
                   ScanMode mode = ScanMode::kIndexed);

/// ProjectJson over a stream of concatenated / newline-delimited JSON
/// documents: the path is applied to each document in turn. This is
/// what DATASCAN actually runs — collection files may hold one
/// document or many (NDJSON).
///
/// Degraded-scan mode: when `skipped_records` is non-null, a record
/// that fails with kParseError (malformed JSON, or a parse-typed error
/// raised by the sink against that record's values) does not fail the
/// stream; the reader counts it, resynchronizes at the next newline,
/// and continues with the following record. Any other error code
/// (cancellation, memory, IO, sink failures) still aborts the stream.
/// Note the resynchronization is line-based, so recovery is only
/// well-defined for newline-delimited input. Resync looks at raw
/// newline bytes (memchr) in BOTH scan modes — not the index's
/// outside-string newline bitmap — so a malformed record that corrupts
/// the in-string mask cannot change where the degraded scan recovers,
/// and the two modes skip identical records.
Status ProjectJsonStream(std::string_view text,
                         const std::vector<PathStep>& steps,
                         const std::function<Status(Item)>& sink,
                         ProjectionStats* stats = nullptr,
                         uint64_t* skipped_records = nullptr,
                         ScanMode mode = ScanMode::kIndexed);

/// ProjectJsonStream against a caller-provided stage-1 index — the
/// storage tier's cached tape (DESIGN.md §14) — so warm scans skip the
/// StructuralIndex::Build pass entirely. `prebuilt` was built over a
/// containing buffer; `index_origin` is the byte offset of text[0]
/// within that buffer, which lets one whole-file tape serve every
/// morsel sub-view of the file. Degraded scans still rebuild a local
/// suffix index when a malformed record poisons the in-string mask,
/// exactly like the tape-less path. `prebuilt` may be null (plain cold
/// scan); kScalar mode ignores it. `filter`, when non-null, drops the
/// records it rejects before they are built (see ScanFilter).
Status ProjectJsonStreamWithIndex(std::string_view text,
                                  const std::vector<PathStep>& steps,
                                  const StructuralIndex* prebuilt,
                                  size_t index_origin,
                                  const std::function<Status(Item)>& sink,
                                  ProjectionStats* stats = nullptr,
                                  uint64_t* skipped_records = nullptr,
                                  ScanMode mode = ScanMode::kIndexed,
                                  ScanFilter* filter = nullptr);

/// In-memory analogue of ProjectJson: walks `steps[from..]` over an
/// already materialized item, emitting each match. Used by scans over
/// binary (pre-loaded) documents and by index construction, where there
/// is no JSON text to stream.
Status NavigateItemPath(const Item& item, const std::vector<PathStep>& steps,
                        size_t from, const std::function<Status(Item)>& sink);

}  // namespace jpar

#endif  // JPAR_JSON_PROJECTING_READER_H_
