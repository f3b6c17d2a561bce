#ifndef JPAR_RUNTIME_OPERATORS_H_
#define JPAR_RUNTIME_OPERATORS_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "json/projecting_reader.h"
#include "storage/column_store.h"
#include "runtime/aggregates.h"
#include "runtime/expr_compile.h"
#include "runtime/expression.h"
#include "runtime/tuple.h"
#include "runtime/tuple_batch.h"

namespace jpar {

/// Receives the tuples produced by a pipeline segment.
using TupleSink = std::function<Status(Tuple)>;

/// Receives the surviving rows of a batch at the pipeline boundary. The
/// batch is consumed (its selection lists the rows to materialize).
using BatchSink = std::function<Status(TupleBatch&)>;

/// One aggregate computed by an AGGREGATE / GROUP-BY / SUBPLAN:
/// `kind(arg)` evaluated over the operator's input stream, result bound
/// to a fresh output column.
struct AggSpec {
  AggKind kind = AggKind::kCount;
  ScalarEvalPtr arg;

  std::string ToString() const;
};

struct SubplanDesc;

/// One decoded group-by spill record (DESIGN.md §10): the group's
/// encoded hash key, its key items, and one saved partial state per
/// AggSpec of the operator, in spec order.
struct GroupSpillRecord {
  std::string encoded_key;
  Tuple key_items;
  std::vector<Item> partials;
};

/// Serializes one group of a spilling GROUP-BY into `*out` (appended)
/// using the binary_serde item encoding: the encoded key as a string
/// item, the key items as a counted tuple, then a counted list of
/// Aggregator::SavePartial snapshots — one per spec.
Status EncodeGroupSpillRecord(
    const std::string& encoded_key, const Tuple& key_items,
    const std::vector<std::unique_ptr<Aggregator>>& aggs, std::string* out);

/// The inverse of EncodeGroupSpillRecord over one complete record.
Result<GroupSpillRecord> DecodeGroupSpillRecord(std::string_view record);

/// Reads just the encoded key of a group spill record — what a
/// recursive repartition needs to route records it never decodes.
Result<std::string> PeekGroupSpillKey(std::string_view record);

/// A streaming (non-blocking) physical operator. Pipelines are vectors
/// of these descriptors; they are immutable and shared across partition
/// tasks.
struct UnaryOpDesc {
  enum class Kind : uint8_t {
    kAssign,   // append eval(tuple) as a new column
    kSelect,   // keep tuple iff EBV(eval(tuple))
    kUnnest,   // for each member of eval(tuple): append as new column
    kSubplan,  // run nested plan per tuple; append its aggregate columns
    kProject,  // keep only the listed columns (dead-variable pruning)
  };

  Kind kind = Kind::kAssign;
  ScalarEvalPtr eval;                      // kAssign/kSelect/kUnnest
  std::shared_ptr<const SubplanDesc> subplan;  // kSubplan
  std::vector<int> columns;                // kProject
  /// Compiled bytecode for `eval` (kAssign/kSelect only; nullptr when
  /// compilation was off or the tree is opaque). Attached by the
  /// physical translator; the batch chain uses it when the executor
  /// runs in bytecode mode.
  ExprProgramPtr program;

  static UnaryOpDesc Assign(ScalarEvalPtr e) {
    UnaryOpDesc d;
    d.kind = Kind::kAssign;
    d.eval = std::move(e);
    return d;
  }
  static UnaryOpDesc Select(ScalarEvalPtr e) {
    UnaryOpDesc d;
    d.kind = Kind::kSelect;
    d.eval = std::move(e);
    return d;
  }
  static UnaryOpDesc Unnest(ScalarEvalPtr e) {
    UnaryOpDesc d;
    d.kind = Kind::kUnnest;
    d.eval = std::move(e);
    return d;
  }
  static UnaryOpDesc Subplan(std::shared_ptr<const SubplanDesc> s) {
    UnaryOpDesc d;
    d.kind = Kind::kSubplan;
    d.subplan = std::move(s);
    return d;
  }
  static UnaryOpDesc Project(std::vector<int> cols) {
    UnaryOpDesc d;
    d.kind = Kind::kProject;
    d.columns = std::move(cols);
    return d;
  }

  std::string ToString() const;
};

/// A nested plan executed once per outer tuple (the SUBPLAN operator,
/// paper Fig. 11): streaming ops over the seed tuple, then aggregates
/// over the resulting stream. Output: seed tuple ++ one column per agg.
struct SubplanDesc {
  std::vector<UnaryOpDesc> ops;
  std::vector<AggSpec> aggs;

  std::string ToString() const;
};

/// Applies `ops[from..]` to `tuple`, delivering results to `sink`.
/// Recursion depth equals pipeline length (small).
Status RunChain(const std::vector<UnaryOpDesc>& ops, size_t from,
                Tuple tuple, EvalContext* ctx, const TupleSink& sink);

/// Batch-at-a-time form of RunChain (DESIGN.md §13): applies the whole
/// chain to `batch`, shrinking its selection at SELECTs, and delivers
/// the survivors to `sink` in row order. ASSIGN/SELECT run vectorized
/// (bytecode when `use_bytecode` and the op carries a program, per-lane
/// tree evaluation otherwise); UNNEST/SUBPLAN fall back to the tuple
/// chain for the remaining suffix, lane by lane, so fan-out order is
/// identical to tuple-at-a-time execution. Per-lane failures are
/// deferred and the lowest-row one is reported after the batch — the
/// exact error a tuple-at-a-time run would have stopped on. `check` may
/// be nullptr.
Status RunBatchChain(const std::vector<UnaryOpDesc>& ops, TupleBatch* batch,
                     EvalContext* ctx, bool use_bytecode, EvalCheck* check,
                     const BatchSink& sink);

/// Runs a SUBPLAN for one outer tuple, producing exactly one output
/// tuple (seed ++ aggregate results).
Result<Tuple> RunSubplan(const SubplanDesc& subplan, const Tuple& seed,
                         EvalContext* ctx);

/// Cost-model advice on which warm-storage path a DATASCAN should
/// prefer (DESIGN.md §15). A hint only ever *narrows* the set of paths
/// the resolved StorageMode allows — it can never re-enable a level the
/// user turned off — and every narrowing is
/// answer-preserving, so a plan compiled against different stats on a
/// distributed worker still returns identical bytes.
enum class AccessHint : uint8_t {
  kAny = 0,       // no advice: the executor's per-file default order
  kColumnar = 1,  // selective predicate: invest in / serve from columns
  kTape = 2,      // tapes only (columns neither built nor read)
  kCold = 3,      // bypass the warm tier for this scan
};

/// The source of a pipeline.
struct ScanDesc {
  enum class Kind : uint8_t {
    /// Emits one empty tuple (EMPTY-TUPLE-SOURCE): pre-pipelining-rule
    /// plans read collections via the collection() scalar instead.
    kEmptyTupleSource,
    /// DATASCAN collection with pushed-down path steps: emits one tuple
    /// per item matched by `steps` in each file of the partition.
    kDataScan,
  };

  Kind kind = Kind::kEmptyTupleSource;
  std::string collection;       // kDataScan
  std::vector<PathStep> steps;  // kDataScan; empty = whole document

  /// Index-assisted scan (the paper's future-work extension): when
  /// `use_index` is set, only files whose `index_path` values include
  /// `index_value` (per the catalog's path index) are scanned. The
  /// predicate itself stays in the plan — the index is a file-pruning
  /// accelerator, not a filter.
  bool use_index = false;
  std::vector<PathStep> index_path;
  Item index_value;

  /// Zone-map prune predicate (DESIGN.md §14): when the SELECT directly
  /// above this scan compares the scan's output column to a numeric
  /// constant, the physical translator records the normalized
  /// comparison here. The columnar access path skips blocks whose
  /// min/max zone map proves no row can satisfy it; the SELECT still
  /// runs over surviving rows, so this is purely an accelerator.
  ZoneCompare zone_op = ZoneCompare::kNone;
  double zone_value = 0;

  /// Cost-model annotations (DESIGN.md §15); all advisory and
  /// answer-preserving. `morsel_bytes_hint` is honored only while
  /// ExecOptions::morsel_bytes sits at its default, and `est_rows`
  /// carries the planner's cardinality estimate for diagnostics.
  AccessHint access_hint = AccessHint::kAny;
  size_t morsel_bytes_hint = 0;
  double est_rows = -1;

  std::string ToString() const;
};

}  // namespace jpar

#endif  // JPAR_RUNTIME_OPERATORS_H_
