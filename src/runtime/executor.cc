#include "runtime/executor.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <climits>
#include <cstring>
#include <functional>
#include <iterator>
#include <thread>
#include <utility>

#include "json/binary_serde.h"
#include "json/parser.h"
#include "runtime/frame.h"
#include "runtime/key_encoder.h"
#include "runtime/spill.h"

namespace jpar {

namespace exec_detail {

/// What one partition task or scan morsel produced: its output tuples
/// plus private counters. Tasks never share these while they run; the
/// operator folds them in task order once every task has finished.
struct TaskResult {
  Status status;
  std::vector<Tuple> out;
  double ms = 0;
  uint64_t bytes = 0;  // input bytes, incl. JSON parsed by expressions
  uint64_t items = 0;
  uint64_t filtered = 0;  // of `items`: dropped by the scan filter
  uint64_t skipped = 0;
  uint64_t batches = 0;
  uint64_t blocks_pruned = 0;
  uint64_t boundary_bytes = 0;
  uint64_t max_tuple = 0;
  // Scan morsels only.
  bool ran = false;
  bool built_stats = false;
  PathStats path_stats;
};

}  // namespace exec_detail

using exec_detail::TaskResult;

namespace {

using Clock = std::chrono::steady_clock;

double ElapsedMs(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

std::string IndentStr(int n) { return std::string(static_cast<size_t>(n), ' '); }

/// Which warm-storage access paths this query may use (DESIGN.md §14).
struct StoragePolicy {
  bool tapes = false;
  bool columns = false;
};

StoragePolicy ResolveStoragePolicy(const ExecOptions& options) {
  switch (options.storage_mode) {
    case StorageMode::kOff:
      return {};
    case StorageMode::kTape:
      return {true, false};
    case StorageMode::kAuto:
    case StorageMode::kColumnar:
      return {true, true};
  }
  return {};
}

/// Only path-backed text files participate in the storage tier:
/// in-memory and binary files have no (path, size, mtime) identity.
bool FileCacheable(const JsonFile& file) {
  return !file.is_binary() && !file.in_memory() && !file.path().empty();
}

/// Narrows the resolved storage policy by the plan's access hint
/// (DESIGN.md §15). Hints can only subtract levels — a disabled cache
/// stays disabled regardless of what the planner believed.
StoragePolicy ApplyAccessHint(StoragePolicy base, AccessHint hint) {
  switch (hint) {
    case AccessHint::kAny:
    case AccessHint::kColumnar:  // columnar is already the first choice
      return base;
    case AccessHint::kTape:
      return {base.tapes, false};
    case AccessHint::kCold:
      return {};
  }
  return base;
}

/// Serves one file's scan from a cached column: decodes each block's
/// values in the original emit order, skipping blocks the zone map
/// proves cannot satisfy the scan's annotated SELECT predicate. With a
/// scan filter (DESIGN.md §9) each record is first walked in its binary
/// form and dropped undecoded on a clean false for a well-formed object
/// or, with a whole-value filter, a well-formed atomic record; every
/// other record — one of another kind, bytes the walk rejects, a true
/// or an evaluation error — is decoded exactly as without one, and the
/// pipeline's SELECT decides over it downstream.
Status EmitColumn(const ColumnData& column, const ScanDesc& scan,
                  ScanFilter* filter, const std::function<Status(Item)>& emit,
                  uint64_t* blocks_pruned) {
  std::vector<std::string_view> spans;
  for (const ColumnBlock& block : column.blocks) {
    if (scan.zone_op != ZoneCompare::kNone &&
        !ZoneMayMatch(block, scan.zone_op, scan.zone_value)) {
      ++*blocks_pruned;
      continue;
    }
    const std::string_view values(block.values);
    ItemReader reader(values);
    while (!reader.AtEnd()) {
      if (filter != nullptr) {
        const size_t start = reader.position();
        const auto kind = static_cast<ItemKind>(values[start]);
        const bool walked =
            filter->whole_value
                ? kind != ItemKind::kObject && kind != ItemKind::kArray &&
                      reader.Skip().ok()
                : reader.ScanObjectFields(filter->keys, &spans).ok();
        if (walked) {
          if (filter->whole_value) {
            spans.assign(1, values.substr(start, reader.position() - start));
          }
          if (!filter->Verdict(ScanFilter::Encoding::kBinary, spans,
                               [&spans](size_t i) {
                                 return ItemReader(spans[i]).Read();
                               })) {
            if (filter->dropped) JPAR_RETURN_NOT_OK(filter->dropped());
            continue;
          }
        }
        reader.Rewind(start);
      }
      JPAR_ASSIGN_OR_RETURN(Item item, reader.Read());
      JPAR_RETURN_NOT_OK(emit(std::move(item)));
    }
  }
  return Status::OK();
}

/// Runs a pipeline's op chain over one task's input. Tuple mode pushes
/// each tuple through RunChain. Batch mode (DESIGN.md §13) accumulates
/// scan items / input tuples into a TupleBatch and runs the whole chain
/// per batch via RunBatchChain. Survivors are materialized once at the
/// pipeline boundary, where each emitted tuple's frame size is counted
/// (EncodedTupleSize: the bytes the pipeline's output write would take,
/// without writing them) — the per-operator boundary serializations of
/// the tuple path are exactly the work vectorization removes, so batch
/// mode runs its EvalContext with charge_boundaries off. Output and
/// counters land in `task`.
class OpPipe {
 public:
  OpPipe(const std::vector<UnaryOpDesc>& ops, const Catalog* catalog,
         MemoryTracker* memory, bool batch_mode, size_t capacity,
         std::function<Status()> check_fn, TaskResult* task)
      : ops_(ops),
        task_(task),
        batch_mode_(batch_mode),
        check_(std::move(check_fn)),
        batch_(capacity) {
    ctx_.catalog = catalog;
    ctx_.memory = memory;
    ctx_.charge_boundaries = !batch_mode;
    tuple_sink_ = [task](Tuple t) -> Status {
      task->out.push_back(std::move(t));
      return Status::OK();
    };
    batch_sink_ = [this](TupleBatch& b) -> Status { return Emit(b); };
  }
  OpPipe(const OpPipe&) = delete;
  OpPipe& operator=(const OpPipe&) = delete;

  Status PushItem(Item item) {
    if (!batch_mode_) {
      return RunChain(ops_, 0, Tuple{std::move(item)}, &ctx_, tuple_sink_);
    }
    EnsureWidth(1);
    batch_.AppendRow(std::move(item));
    return batch_.full() ? Flush() : Status::OK();
  }

  Status PushTuple(Tuple t) {
    if (!batch_mode_) {
      return RunChain(ops_, 0, std::move(t), &ctx_, tuple_sink_);
    }
    EnsureWidth(t.size());
    batch_.AppendTuple(std::move(t));
    return batch_.full() ? Flush() : Status::OK();
  }

  /// Flushes the last batch and folds the context's counters into the
  /// task.
  Status Finish() {
    if (batch_mode_ && !batch_.empty()) JPAR_RETURN_NOT_OK(Flush());
    task_->bytes += ctx_.bytes_parsed;
    task_->boundary_bytes += ctx_.boundary_bytes;
    task_->max_tuple = std::max(task_->max_tuple, ctx_.max_tuple_bytes);
    return Status::OK();
  }

 private:
  void EnsureWidth(size_t width) {
    if (width_ != width) {
      width_ = width;
      batch_.Reset(width);
    }
  }

  Status Flush() {
    JPAR_RETURN_NOT_OK(RunBatchChain(ops_, &batch_, &ctx_,
                                     /*use_bytecode=*/true, &check_,
                                     batch_sink_));
    batch_.Reset(width_);
    return Status::OK();
  }

  Status Emit(TupleBatch& b) {
    for (uint32_t row : b.selection()) {
      Tuple t = b.MaterializeRow(row);
      const size_t encoded = EncodedTupleSize(t);
      ctx_.boundary_bytes += encoded;
      ++ctx_.boundary_tuples;
      if (encoded > ctx_.max_tuple_bytes) ctx_.max_tuple_bytes = encoded;
      task_->out.push_back(std::move(t));
    }
    ++task_->batches;
    return Status::OK();
  }

  const std::vector<UnaryOpDesc>& ops_;
  TaskResult* task_;
  const bool batch_mode_;
  EvalContext ctx_;
  EvalCheck check_;
  TupleBatch batch_;
  size_t width_ = 0;
  TupleSink tuple_sink_;
  BatchSink batch_sink_;
};

/// One scan worker's filter (DESIGN.md §9): the plan's predicate over
/// the slim record (or the whole atomic record), with the worker's own
/// evaluation scratch.
ScanFilter WorkerScanFilter(const ScanDesc& scan) {
  ScanFilter filter;
  filter.keys = scan.filter_keys;
  filter.whole_value = scan.filter_whole_value;
  filter.keep = [eval = scan.filter, ctx = EvalContext{},
                 row = Tuple(1)](const Item& slim) mutable {
    row[0] = slim;
    Result<Item> pass = eval->Eval(row, &ctx);
    // Anything but a clean false is built, and the pipeline's own
    // SELECT decides (and raises any error) as it would unfiltered.
    return !pass.ok() || pass->boolean_value();
  };
  return filter;
}

/// Adds one finished task's counters to its stage and query.
void FoldTask(const TaskResult& task, StageStats* stage, ExecStats* stats) {
  stats->bytes_scanned += task.bytes;
  stats->items_scanned += task.items;
  stats->scan_items_filtered += task.filtered;
  stats->skipped_records += task.skipped;
  stats->batches_emitted += task.batches;
  stats->blocks_pruned += task.blocks_pruned;
  stage->pipeline_bytes += task.boundary_bytes;
  stage->max_tuple_bytes = std::max(stage->max_tuple_bytes, task.max_tuple);
}

/// Raises the query's peak retained bytes to an operator's peak.
void NotePeak(const MemoryTracker& memory, ExecStats* stats) {
  stats->peak_retained_bytes =
      std::max(stats->peak_retained_bytes, memory.peak_bytes());
}

/// Adds a blocking operator's spill counters (null = spilling off).
void NoteSpill(const SpillManager* spill, uint64_t merge_passes,
               ExecStats* stats) {
  if (spill == nullptr) return;
  stats->spill_runs += spill->runs_created();
  stats->spill_bytes_written += spill->bytes_written();
  stats->spill_merge_passes += merge_passes;
}

const char* GroupByStageName(AggStep step) {
  switch (step) {
    case AggStep::kLocal:
      return "group-by (local)";
    case AggStep::kGlobal:
      return "group-by (global merge)";
    case AggStep::kComplete:
      break;
  }
  return "group-by (hash)";
}

struct GroupState {
  Tuple key_items;
  std::vector<std::unique_ptr<Aggregator>> aggs;
};

/// Groups keyed by their encoded key; ids, dense in order of first
/// appearance, index `states`.
struct GroupMap {
  KeySet keys;
  std::vector<GroupState> states;
};

/// Salted FNV-1a over the encoded group key. Bucket routing must NOT
/// reuse the exchange's std::hash: flushes partition by SpillHash(key,
/// 0) and each recursive repartition re-splits a skewed bucket with the
/// next salt, so collisions at one level separate at the next.
uint64_t SpillHash(std::string_view key, uint32_t salt) {
  uint64_t h = 14695981039346656037ull ^
               (0x9E3779B97F4A7C15ull * (static_cast<uint64_t>(salt) + 1));
  for (unsigned char c : key) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

/// How many salted repartition levels a pathologically skewed bucket
/// may recurse before the merge simply overruns its budget softly.
/// fanout^6 sub-buckets is far beyond any realistic collision pile-up.
constexpr int kMaxSpillDepth = 6;

/// Hash-aggregation table for one group-by partition task, over a
/// GroupMap: in memory, groups come out in order of first appearance.
/// With `spill` null it reproduces the pre-spilling fail-fast behavior
/// exactly (same Fault/Allocate points, same charges). With a
/// SpillManager it is memory-governed: when the partition's tracked
/// bytes exceed `budget`, the table is hash-partitioned into `fanout`
/// run files and cleared; Emit() then merges the runs bucket by bucket,
/// recursively re-splitting any bucket whose merged groups overflow the
/// budget again (hash-collision-heavy skew). See DESIGN.md §10.
class SpillableGroupTable {
 public:
  SpillableGroupTable(const std::vector<AggSpec>& specs, AggStep step,
                      MemoryTracker* memory, bool track_growth,
                      QueryContext* ctx, SpillManager* spill, int fanout,
                      uint64_t budget, uint64_t* merge_passes)
      : specs_(specs),
        step_(step),
        memory_(memory),
        track_growth_(track_growth),
        ctx_(ctx),
        spill_(spill),
        fanout_(fanout < 2 ? 2 : fanout),
        budget_(budget),
        merge_passes_(merge_passes) {}

  /// Folds one tuple into the group of `key` (hashed `hash`): `key_items`
  /// fills a new group's key items, `value_of(i)` aggregator i's input.
  Status Add(std::string_view key, size_t hash,
             const std::function<Status(Tuple*)>& key_items,
             const std::function<Result<Item>(size_t)>& value_of) {
    JPAR_ASSIGN_OR_RETURN(
        GroupState * group,
        FindOrAdd(&table_, key, hash, key_items, &allocated_));
    for (size_t i = 0; i < specs_.size(); ++i) {
      JPAR_ASSIGN_OR_RETURN(Item v, value_of(i));
      Aggregator& agg = *group->aggs[i];
      const size_t before = agg.RetainedBytes();
      JPAR_RETURN_NOT_OK(agg.Step(v));
      if (track_growth_) {
        JPAR_RETURN_NOT_OK(ChargeGrowth(before, agg, &allocated_));
      }
    }
    if (spill_ != nullptr && budget_ > 0 && allocated_ > budget_) {
      JPAR_RETURN_NOT_OK(Flush());
    }
    return Status::OK();
  }

  /// Finishes every group into `*out` (key items ++ finished
  /// aggregates). When nothing spilled this is the plain in-memory
  /// emit; otherwise the live table is flushed too and the runs are
  /// merged bucket by bucket.
  Status Emit(std::vector<Tuple>* out) {
    if (writers_.empty()) {
      for (GroupState& group : table_.states) {
        JPAR_ASSIGN_OR_RETURN(Tuple t, FinishGroup(&group));
        out->push_back(std::move(t));
      }
      return Status::OK();
    }
    JPAR_RETURN_NOT_OK(Flush());
    std::vector<KeyedTuple> keyed;
    JPAR_RETURN_NOT_OK(MergeRuns(&writers_, /*depth=*/0, &keyed));
    // Canonical spilled emit order, independent of the fanout: groups
    // come back bucket by bucket, and bucket boundaries move with the
    // fanout (which the cost model may hint), so raw bucket order
    // would leak a pure performance knob into the answer. Encoded
    // group keys are unique, so the sort is total and tie-free.
    std::sort(keyed.begin(), keyed.end(),
              [](const KeyedTuple& a, const KeyedTuple& b) {
                return a.key < b.key;
              });
    out->reserve(out->size() + keyed.size());
    for (KeyedTuple& kt : keyed) out->push_back(std::move(kt.tuple));
    return Status::OK();
  }

 private:
  /// A finished group plus the encoded key it merged under; the key
  /// survives to Emit() so the final order can be canonicalized.
  struct KeyedTuple {
    std::string key;
    Tuple tuple;
  };
  using Runs = std::vector<std::unique_ptr<SpillRunWriter>>;

  Status Check(const char* stage) const {
    return ctx_ != nullptr ? ctx_->Check(stage) : Status::OK();
  }
  Status FaultAt(std::string_view point) const {
    return ctx_ != nullptr ? ctx_->Fault(point) : Status::OK();
  }

  /// The group keyed by `key`, added when absent: it takes its key items
  /// from `key_items`, passes the alloc.fail point, is charged
  /// key.size() + 64 bytes into `*allocated`, and gets fresh aggregators.
  Result<GroupState*> FindOrAdd(
      GroupMap* groups, std::string_view key, size_t hash,
      const std::function<Status(Tuple*)>& key_items, uint64_t* allocated) {
    auto [id, inserted] = groups->keys.Insert(key, hash);
    if (!inserted) return &groups->states[id];
    GroupState& group = groups->states.emplace_back();
    JPAR_RETURN_NOT_OK(key_items(&group.key_items));
    JPAR_RETURN_NOT_OK(FaultAt(FaultInjector::kAllocFail));
    const uint64_t charge = key.size() + 64;
    JPAR_RETURN_NOT_OK(memory_->Allocate(charge));
    *allocated += charge;
    for (const AggSpec& spec : specs_) {
      JPAR_ASSIGN_OR_RETURN(std::unique_ptr<Aggregator> agg,
                            MakeAggregator(spec.kind, step_));
      group.aggs.push_back(std::move(agg));
    }
    return &group;
  }

  /// Charges what `agg` grew by since it retained `before` bytes.
  Status ChargeGrowth(size_t before, const Aggregator& agg,
                      uint64_t* allocated) {
    const size_t after = agg.RetainedBytes();
    if (after <= before) return Status::OK();
    JPAR_RETURN_NOT_OK(memory_->Allocate(after - before));
    *allocated += after - before;
    return Status::OK();
  }

  /// A group's key items followed by its finished aggregates.
  static Result<Tuple> FinishGroup(GroupState* group) {
    Tuple t = std::move(group->key_items);
    for (std::unique_ptr<Aggregator>& agg : group->aggs) {
      JPAR_ASSIGN_OR_RETURN(Item v, agg->Finish());
      t.push_back(std::move(v));
    }
    return t;
  }

  /// Appends every group of `groups`, in id order, to the run of its
  /// bucket SpillHash(key, salt) % fanout.
  Status WriteGroups(const GroupMap& groups, uint32_t salt,
                     const char* stage, Runs* runs) {
    std::string record;
    for (uint32_t id = 0; id < groups.states.size(); ++id) {
      if ((id + 1) % Executor::kCheckIntervalTuples == 0) {
        JPAR_RETURN_NOT_OK(Check(stage));
      }
      const std::string_view key = groups.keys.key(id);
      const GroupState& group = groups.states[id];
      record.clear();
      JPAR_RETURN_NOT_OK(
          EncodeGroupSpillRecord(key, group.key_items, group.aggs, &record));
      size_t b = SpillHash(key, salt) % static_cast<size_t>(fanout_);
      JPAR_RETURN_NOT_OK((*runs)[b]->Append(record));
    }
    return Status::OK();
  }

  /// Writes every live group to its hash bucket's run file (append;
  /// one file per bucket across all flushes) and clears the table.
  Status Flush() {
    if (table_.states.empty()) return Status::OK();
    if (writers_.empty()) {
      writers_.resize(static_cast<size_t>(fanout_));
      for (std::unique_ptr<SpillRunWriter>& w : writers_) {
        JPAR_ASSIGN_OR_RETURN(w, spill_->NewRun());
      }
    }
    JPAR_RETURN_NOT_OK(WriteGroups(table_, 0, "group-by spill", &writers_));
    table_ = GroupMap();
    memory_->Release(allocated_);
    allocated_ = 0;
    return Status::OK();
  }

  Status MergeBucket(const std::string& path, int depth,
                     std::vector<KeyedTuple>* out) {
    if (merge_passes_ != nullptr) ++*merge_passes_;
    JPAR_ASSIGN_OR_RETURN(std::unique_ptr<SpillRunReader> reader,
                          spill_->OpenRun(path));
    GroupMap table;
    uint64_t allocated = 0;
    std::string record;
    uint64_t n = 0;
    while (true) {
      JPAR_ASSIGN_OR_RETURN(bool more, reader->Next(&record));
      if (!more) break;
      if (++n % Executor::kCheckIntervalTuples == 0) {
        JPAR_RETURN_NOT_OK(Check("group-by spill merge"));
      }
      JPAR_ASSIGN_OR_RETURN(GroupSpillRecord rec,
                            DecodeGroupSpillRecord(record));
      if (rec.partials.size() != specs_.size()) {
        return Status::Internal("group spill record arity mismatch");
      }
      JPAR_ASSIGN_OR_RETURN(
          GroupState * group,
          FindOrAdd(&table, rec.encoded_key,
                    std::hash<std::string>{}(rec.encoded_key),
                    [&](Tuple* items) {
                      *items = std::move(rec.key_items);
                      return Status::OK();
                    },
                    &allocated));
      for (size_t i = 0; i < rec.partials.size(); ++i) {
        Aggregator& agg = *group->aggs[i];
        const size_t before = agg.RetainedBytes();
        JPAR_RETURN_NOT_OK(agg.MergePartial(rec.partials[i]));
        JPAR_RETURN_NOT_OK(ChargeGrowth(before, agg, &allocated));
      }
      if (budget_ > 0 && allocated > budget_ && depth < kMaxSpillDepth) {
        return Repartition(std::move(reader), path, &table, allocated, depth,
                           out);
      }
      // Past kMaxSpillDepth the bucket overruns its budget softly —
      // with a sane hash that takes adversarial key collisions.
    }
    for (uint32_t id = 0; id < table.states.size(); ++id) {
      JPAR_ASSIGN_OR_RETURN(Tuple t, FinishGroup(&table.states[id]));
      out->push_back({std::string(table.keys.key(id)), std::move(t)});
    }
    memory_->Release(allocated);
    spill_->Remove(path);
    return Status::OK();
  }

  /// A bucket's distinct groups alone blew the budget: re-split the
  /// partially merged table plus the rest of the bucket's stream into
  /// `fanout` sub-runs under the next salt and merge those instead.
  Status Repartition(std::unique_ptr<SpillRunReader> reader,
                     const std::string& path, GroupMap* table,
                     uint64_t allocated, int depth,
                     std::vector<KeyedTuple>* out) {
    uint32_t salt = static_cast<uint32_t>(depth) + 1;
    Runs subs(static_cast<size_t>(fanout_));
    for (std::unique_ptr<SpillRunWriter>& w : subs) {
      JPAR_ASSIGN_OR_RETURN(w, spill_->NewRun());
    }
    JPAR_RETURN_NOT_OK(
        WriteGroups(*table, salt, "group-by spill repartition", &subs));
    *table = GroupMap();
    memory_->Release(allocated);
    // Route the unread remainder by key alone, without decoding
    // partials.
    std::string record;
    uint64_t n = 0;
    while (true) {
      JPAR_ASSIGN_OR_RETURN(bool more, reader->Next(&record));
      if (!more) break;
      if (++n % Executor::kCheckIntervalTuples == 0) {
        JPAR_RETURN_NOT_OK(Check("group-by spill repartition"));
      }
      JPAR_ASSIGN_OR_RETURN(std::string key, PeekGroupSpillKey(record));
      size_t b = SpillHash(key, salt) % static_cast<size_t>(fanout_);
      JPAR_RETURN_NOT_OK(subs[b]->Append(record));
    }
    reader.reset();
    spill_->Remove(path);
    return MergeRuns(&subs, depth + 1, out);
  }

  /// Finishes and closes `runs`, then merges each in order at `depth`.
  Status MergeRuns(Runs* runs, int depth, std::vector<KeyedTuple>* out) {
    std::vector<std::string> paths;
    for (std::unique_ptr<SpillRunWriter>& w : *runs) {
      JPAR_RETURN_NOT_OK(w->Finish());
      paths.push_back(w->path());
    }
    runs->clear();
    for (const std::string& path : paths) {
      JPAR_RETURN_NOT_OK(MergeBucket(path, depth, out));
    }
    return Status::OK();
  }

  const std::vector<AggSpec>& specs_;
  AggStep step_;
  MemoryTracker* memory_;
  bool track_growth_;
  QueryContext* ctx_;    // null = no lifecycle checks
  SpillManager* spill_;  // null = fail-fast mode
  int fanout_;
  uint64_t budget_;
  uint64_t* merge_passes_;

  GroupMap table_;
  Runs writers_;
  uint64_t allocated_ = 0;
};

}  // namespace

namespace exec_detail {

/// Per-scan settings shared by PlanFile and RunMorsel.
struct ScanSetup {
  const PNode* node = nullptr;
  StoragePolicy storage;
  StorageConfig storage_cfg;
  std::string path;  // the projected path, keying columns and stats
  bool stats_build = false;
  bool lenient = false;
  bool batch_mode = false;
  size_t morsel_bytes = 0;  // 0 = one morsel per file
};

/// One unit of scan work: a whole binary file, a columnar-served file,
/// or a newline-aligned byte range of a loaded text file. `partition`
/// is the file's round-robin slot, so output order never depends on how
/// files were split or which worker ran them.
struct ScanMorsel {
  int partition = 0;
  const JsonFile* file = nullptr;
  std::shared_ptr<const std::string> text;  // null for binary/columnar
  size_t begin = 0;
  size_t end = 0;
  bool split_file = false;  // the file produced more than one morsel
  // Warm-storage access path (DESIGN.md §14). A columnar-served file is
  // one morsel with `column` set; a tape-accelerated file's morsels
  // share the whole-file `tape` (indexed at absolute offsets, so `begin`
  // doubles as the index origin). An unsplit cacheable file with
  // `build_column` learns its column during the scan.
  std::shared_ptr<const ColumnData> column;
  std::shared_ptr<const StructuralIndex> tape;
  FileSignature sig;
  bool build_column = false;
  // Stats tee (DESIGN.md §15): split files still sample — per-morsel
  // partials merge in task order after the scan, unlike columns.
  bool build_stats = false;
  FileSignature stats_sig;
};

}  // namespace exec_detail

using exec_detail::ScanMorsel;
using exec_detail::ScanSetup;

std::string PNode::ToString(int indent) const {
  std::string out;
  switch (kind) {
    case Kind::kPipeline: {
      for (auto it = ops.rbegin(); it != ops.rend(); ++it) {
        out += IndentStr(indent) + it->ToString() + "\n";
      }
      if (input != nullptr) {
        out += input->ToString(indent);
      } else {
        out += IndentStr(indent) + scan.ToString() + "\n";
      }
      return out;
    }
    case Kind::kGroupBy: {
      out += IndentStr(indent) + std::string("GROUP-BY");
      out += two_step ? " [two-step] {" : " {";
      for (size_t i = 0; i < keys.size(); ++i) {
        out += (i ? ", " : "keys: ") + keys[i]->ToString();
      }
      out += "; aggs: ";
      for (size_t i = 0; i < aggs.size(); ++i) {
        if (i) out += ", ";
        out += aggs[i].ToString();
      }
      out += "}\n";
      out += input->ToString(indent + 2);
      return out;
    }
    case Kind::kSort: {
      out += IndentStr(indent) + "SORT [";
      for (size_t i = 0; i < sort_keys.size(); ++i) {
        if (i) out += ", ";
        out += sort_keys[i]->ToString();
        if (i < sort_descending.size() && sort_descending[i]) {
          out += " desc";
        }
      }
      out += "]\n";
      out += input->ToString(indent + 2);
      return out;
    }
    case Kind::kJoin: {
      out += IndentStr(indent) + "JOIN [";
      for (size_t i = 0; i < left_keys.size(); ++i) {
        if (i) out += " and ";
        out += left_keys[i]->ToString() + " == " + right_keys[i]->ToString();
      }
      out += "]";
      if (build_left) out += " [build: left]";
      out += "\n";
      out += left->ToString(indent + 2);
      out += right->ToString(indent + 2);
      return out;
    }
  }
  return out;
}

std::string PhysicalPlan::ToString() const {
  std::string out = "DISTRIBUTE-RESULT $col" +
                    std::to_string(result_column) + "\n";
  if (root != nullptr) out += root->ToString(2);
  return out;
}

Result<Executor::PartitionSet> Executor::Exec(const PNode& node,
                                              ExecStats* stats) const {
  switch (node.kind) {
    case PNode::Kind::kPipeline:
      return ExecPipeline(node, stats);
    case PNode::Kind::kGroupBy:
      return ExecGroupBy(node, stats);
    case PNode::Kind::kJoin:
      return ExecJoin(node, stats);
    case PNode::Kind::kSort:
      return ExecSort(node, stats);
  }
  return Status::Internal("unknown physical node kind");
}

Result<Executor::PartitionSet> Executor::ExecPipeline(
    const PNode& node, ExecStats* stats) const {
  const bool leaf = node.input == nullptr;
  if (leaf && node.scan.kind == ScanDesc::Kind::kDataScan) {
    return ExecDataScan(node, stats);
  }
  PartitionSet input;
  if (leaf) {
    // EMPTY-TUPLE-SOURCE runs on a single partition (the paper's
    // pre-DATASCAN plans are serial until an exchange): one seed tuple,
    // kept on the tuple path (and its exact boundary accounting) in
    // every mode.
    input.parts.assign(1, std::vector<Tuple>(1));
  } else {
    JPAR_ASSIGN_OR_RETURN(input, Exec(*node.input, stats));
  }
  const size_t pcount = input.parts.size();
  const bool batch_mode = UseBatchMode() && !leaf;

  // With spilling enabled the limit is a soft budget: pipelines cannot
  // spill, so they track usage without failing (DESIGN.md §10).
  MemoryTracker memory(options_.memory_limit_bytes,
                       options_.spill == SpillMode::kEnabled);
  std::vector<TaskResult> tasks(pcount);
  JPAR_RETURN_NOT_OK(RunPartitionTasks(pcount, [&](size_t p) {
    RunPipelinePartition(node.ops, std::move(input.parts[p]), batch_mode,
                         &memory, &tasks[p]);
    return tasks[p].status;
  }));

  StageStats stage;
  stage.name = leaf ? node.scan.ToString() : "pipeline";
  PartitionSet output;
  output.parts.resize(pcount);
  for (size_t p = 0; p < pcount; ++p) {
    output.parts[p] = std::move(tasks[p].out);
    stage.partition_ms.push_back(tasks[p].ms);
    FoldTask(tasks[p], &stage, stats);
  }
  NotePeak(memory, stats);
  stats->Merge(stage);
  return output;
}

void Executor::RunPipelinePartition(const std::vector<UnaryOpDesc>& ops,
                                    std::vector<Tuple> input, bool batch_mode,
                                    MemoryTracker* memory,
                                    TaskResult* task) const {
  auto start = Clock::now();
  task->status = [&]() -> Status {
    JPAR_RETURN_NOT_OK(Fault(FaultInjector::kWorkerStall));
    OpPipe pipe(ops, catalog_, memory, batch_mode, options_.batch_size,
                [this]() { return Interrupted("pipeline"); }, task);
    uint64_t processed = 0;
    for (Tuple& t : input) {
      if (++processed % kCheckIntervalTuples == 0) {
        JPAR_RETURN_NOT_OK(Interrupted("pipeline"));
      }
      JPAR_RETURN_NOT_OK(pipe.PushTuple(std::move(t)));
    }
    return pipe.Finish();
  }();
  task->ms = ElapsedMs(start);
}

Result<Executor::PartitionSet> Executor::ExecDataScan(
    const PNode& node, ExecStats* stats) const {
  JPAR_ASSIGN_OR_RETURN(const Collection* coll,
                        catalog_->GetCollection(node.scan.collection));
  // With an index-assisted scan, only this subset of file ids is read
  // (null = all files). A missing index (e.g. dropped after
  // compilation) degrades to a full scan rather than failing the query.
  const std::vector<int>* file_filter =
      node.scan.use_index
          ? catalog_->LookupPathIndex(node.scan.collection,
                                      node.scan.index_path,
                                      node.scan.index_value)
          : nullptr;
  const size_t file_count =
      file_filter != nullptr ? file_filter->size() : coll->files.size();
  // Files are assigned to partitions round-robin; there is no point in
  // more scan partitions than files.
  int pcount = options_.partitions;
  if (file_count > 0 && pcount > static_cast<int>(file_count)) {
    pcount = static_cast<int>(file_count);
  }
  if (pcount < 1) pcount = 1;

  ScanSetup setup;
  setup.node = &node;
  // Warm-storage access paths (DESIGN.md §14); the plan's cost-model
  // access hint narrows, never widens, what the options allow (§15).
  setup.storage =
      ApplyAccessHint(ResolveStoragePolicy(options_), node.scan.access_hint);
  setup.storage_cfg = {options_.storage_cache_dir};
  setup.path = PathToString(node.scan.steps);
  setup.stats_build = StatsEnabled(options_.stats_mode);
  setup.lenient = options_.on_parse_error == ParseErrorPolicy::kSkipAndCount;
  setup.batch_mode = UseBatchMode();
  if (options_.use_threads) {
    // Only threaded scans split files. Cost-model morsel sizing applies
    // only while the user left morsel_bytes at its default — an
    // explicit knob always wins.
    setup.morsel_bytes = options_.morsel_bytes;
    if (node.scan.morsel_bytes_hint > 0 &&
        setup.morsel_bytes == ExecOptions::kDefaultMorselBytes) {
      setup.morsel_bytes = node.scan.morsel_bytes_hint;
    }
  }

  MemoryTracker memory(options_.memory_limit_bytes,
                       options_.spill == SpillMode::kEnabled);
  StageStats stage;
  stage.name = node.scan.ToString();
  stage.partition_ms.assign(static_cast<size_t>(pcount), 0.0);
  std::vector<ScanMorsel> tasks;
  std::vector<TaskResult> slots;
  // File i's morsels are tasks [first, first + count).
  std::vector<std::pair<size_t, size_t>> file_tasks(file_count);
  // One scan filter (and verdict memo) per worker; worker 0 is also
  // the calling thread (sequential scans, strict-mode fallbacks).
  std::vector<ScanFilter> filters;
  if (node.scan.filter != nullptr) {
    filters.assign(static_cast<size_t>(pcount), WorkerScanFilter(node.scan));
  }
  auto filter_for = [&filters](size_t worker) {
    return filters.empty() ? nullptr : &filters[worker];
  };

  // Planning runs on the calling thread, in file order: storage-tier
  // lookups and tape builds are serialized, never raced by workers.
  // Without threads the calling thread is also the scan's one worker,
  // and it runs each file's single morsel right after planning it.
  if (!options_.use_threads) {
    JPAR_RETURN_NOT_OK(Fault(FaultInjector::kWorkerStall));
  }
  for (size_t i = 0; i < file_count; ++i) {
    JPAR_RETURN_NOT_OK(Interrupted("pipeline scan"));
    JPAR_RETURN_NOT_OK(Fault(FaultInjector::kScanIOError));
    const JsonFile& file =
        coll->files[file_filter != nullptr
                        ? static_cast<size_t>((*file_filter)[i])
                        : i];
    const size_t partition = i % static_cast<size_t>(pcount);
    auto start = Clock::now();
    const size_t first = tasks.size();
    JPAR_RETURN_NOT_OK(PlanFile(setup, file, static_cast<int>(partition),
                                stats, &tasks));
    file_tasks[i] = {first, tasks.size() - first};
    stage.partition_ms[partition] += ElapsedMs(start);
    if (!options_.use_threads) {
      // Drop the file's bytes once its morsel has run, so a sequential
      // scan holds one file at a time.
      ScanMorsel& m = tasks.back();
      slots.emplace_back();
      RunMorsel(setup, m, &memory, filter_for(0), &slots.back());
      JPAR_RETURN_NOT_OK(slots.back().status);
      m.text.reset();
      m.tape.reset();
      m.column.reset();
    }
  }

  if (options_.use_threads) {
    slots.resize(tasks.size());
    int workers = pcount;
    if (!tasks.empty() && workers > static_cast<int>(tasks.size())) {
      workers = static_cast<int>(tasks.size());
    }
    std::vector<Status> worker_status(static_cast<size_t>(workers));
    std::atomic<size_t> next_task{0};
    std::atomic<bool> abort{false};
    auto worker = [&](int w) {
      Status st = Fault(FaultInjector::kWorkerStall);
      if (!st.ok()) {
        worker_status[static_cast<size_t>(w)] = st;
        abort.store(true, std::memory_order_relaxed);
        return;
      }
      while (!abort.load(std::memory_order_relaxed)) {
        size_t t = next_task.fetch_add(1, std::memory_order_relaxed);
        if (t >= tasks.size()) break;
        RunMorsel(setup, tasks[t], &memory, filter_for(static_cast<size_t>(w)),
                  &slots[t]);
        const Status& ts = slots[t].status;
        if (!ts.ok() && !(ts.code() == StatusCode::kParseError &&
                          tasks[t].split_file && !setup.lenient)) {
          // Unrecoverable (cancel, deadline, fault, real parse error of
          // an unsplit file): stop handing out work. Split-file parse
          // errors are handled by the whole-file fallback below.
          abort.store(true, std::memory_order_relaxed);
        }
      }
    };
    if (workers > 1) {
      std::vector<std::thread> threads;
      threads.reserve(static_cast<size_t>(workers));
      for (int w = 0; w < workers; ++w) threads.emplace_back(worker, w);
      for (std::thread& t : threads) t.join();
    } else {
      worker(0);
    }

    // Strict-mode whole-file fallback. A record spanning a morsel
    // boundary (a document with newlines inside tokens or strings)
    // always makes some morsel fail to parse — no JSON value can end
    // cleanly at a mid-record newline — so rescanning the file as one
    // task restores exact unsplit semantics. Genuinely malformed files
    // fail with the same error either way, at the cost of one wasted
    // scan.
    for (auto [first, count] : file_tasks) {
      if (setup.lenient || count <= 1) continue;
      auto begin = slots.begin() + static_cast<std::ptrdiff_t>(first);
      if (std::none_of(begin, begin + static_cast<std::ptrdiff_t>(count),
                       [](const TaskResult& slot) {
                         return slot.ran && slot.status.code() ==
                                                StatusCode::kParseError;
                       })) {
        continue;
      }
      for (size_t t = first; t < first + count; ++t) slots[t] = TaskResult{};
      ScanMorsel whole = tasks[first];
      whole.begin = 0;
      whole.end = whole.text->size();
      whole.split_file = false;
      RunMorsel(setup, whole, &memory, filter_for(0), &slots[first]);
    }
    for (const Status& st : worker_status) JPAR_RETURN_NOT_OK(st);
  }
  // The first failure in file order, whichever mode ran the scan.
  for (const TaskResult& slot : slots) JPAR_RETURN_NOT_OK(slot.status);

  // Install sampled stats: per-morsel partials merge in task order into
  // one whole-file sample (the register-max sketch merge makes the
  // result independent of which worker ran which morsel). After a
  // strict-mode fallback only the whole-file slot carries a sample.
  for (auto [first, count] : file_tasks) {
    if (count == 0 || !tasks[first].build_stats) continue;
    PathStats merged;
    bool any = false;
    for (size_t t = first; t < first + count; ++t) {
      if (!slots[t].built_stats) continue;
      merged.MergeFrom(slots[t].path_stats);
      any = true;
    }
    if (!any) continue;
    merged.file_bytes = tasks[first].stats_sig.size;
    StorageManager::Instance().PutStats(tasks[first].file->path(), setup.path,
                                        merged, tasks[first].stats_sig,
                                        setup.storage_cfg);
    ++stats->stats_paths_built;
  }

  PartitionSet output;
  output.parts.assign(static_cast<size_t>(pcount), {});
  for (size_t t = 0; t < tasks.size(); ++t) {
    TaskResult& slot = slots[t];
    const size_t partition = static_cast<size_t>(tasks[t].partition);
    std::vector<Tuple>& out = output.parts[partition];
    if (out.empty()) {
      out = std::move(slot.out);
    } else {
      out.insert(out.end(), std::make_move_iterator(slot.out.begin()),
                 std::make_move_iterator(slot.out.end()));
    }
    stage.partition_ms[partition] += slot.ms;
    if (slot.ran) ++stats->morsels_scanned;
    FoldTask(slot, &stage, stats);
  }
  NotePeak(memory, stats);
  stats->Merge(stage);
  return output;
}

Status Executor::PlanFile(const ScanSetup& setup, const JsonFile& file,
                          int partition, ExecStats* stats,
                          std::vector<ScanMorsel>* tasks) const {
  ScanMorsel m;
  m.partition = partition;
  m.file = &file;
  if (file.is_binary()) {
    // Pre-loaded internal-model document: one morsel, no JSON parsing.
    tasks->push_back(std::move(m));
    return Status::OK();
  }
  const bool cacheable = (setup.storage.tapes || setup.storage.columns) &&
                         FileCacheable(file);
  // Stats tee (DESIGN.md §15): the scan samples PathStats for the
  // planner, once per (file, path) and only while no fresh sample
  // exists, under the tape's signature when there is one.
  auto want_stats = [&](bool have_sig) {
    if (!setup.stats_build || !FileCacheable(file)) return false;
    m.stats_sig = m.sig;
    if (!have_sig) {
      auto fresh = StatFileSignature(file.path());
      if (!fresh.ok()) return false;
      m.stats_sig = *fresh;
    }
    return StorageManager::Instance().GetStats(file.path(), setup.path,
                                               setup.storage_cfg) == nullptr;
  };
  // Columnar read: the cheapest access path — no JSON bytes touched,
  // just the shredded values for this projected path. Strict scans
  // refuse columns recorded with skipped records, so the cold path can
  // surface the file's parse error.
  std::shared_ptr<const ColumnData> column =
      cacheable && setup.storage.columns
          ? StorageManager::Instance().GetColumn(file.path(), setup.path,
                                                 setup.storage_cfg)
          : nullptr;
  if (column != nullptr && (setup.lenient || column->skipped_records == 0)) {
    m.column = std::move(column);
    // The column replays every item the building scan emitted, so its
    // sample equals a parsing scan's — except under zone pruning, which
    // drops blocks and would bias it.
    m.build_stats =
        setup.node->scan.zone_op == ZoneCompare::kNone && want_stats(false);
    ++stats->columns_read;
    tasks->push_back(std::move(m));
    return Status::OK();
  }
  // Tape-accelerated scan: cached file bytes + cached stage-1 index;
  // stage 2 runs as usual. A storage failure (stat/read race) degrades
  // to the cold path.
  bool have_sig = false;
  if (cacheable && setup.storage.tapes &&
      options_.scan_mode == ScanMode::kIndexed) {
    auto tape =
        StorageManager::Instance().AcquireTape(file.path(), setup.storage_cfg);
    if (tape.ok()) {
      m.text = tape->text;
      m.tape = tape->index;
      m.sig = tape->signature;
      have_sig = true;
      ++(tape->hit ? stats->tape_hits : stats->tape_builds);
    }
  }
  if (m.text == nullptr) {
    JPAR_ASSIGN_OR_RETURN(m.text, file.Load());
  }
  // The first projecting scan of a cacheable file also shreds the path
  // into a column for later queries (a tee on the emit path).
  m.build_column = cacheable && setup.storage.columns && have_sig;
  m.build_stats = want_stats(have_sig);

  // Newline-aligned split: each morsel ends after the first '\n' at or
  // past the size target (the same raw-byte newlines the degraded scan
  // resyncs on). A kColumnar access hint pins a column-learnable file
  // to one morsel so the column actually materializes this scan (split
  // morsels can't build columns); morsel boundaries never change
  // results, only scheduling, so the trade is pure investment.
  const bool split =
      setup.morsel_bytes > 0 &&
      !(m.build_column &&
        setup.node->scan.access_hint == AccessHint::kColumnar);
  const char* base = m.text->data();
  const size_t n = m.text->size();
  const size_t first = tasks->size();
  size_t begin = 0;
  do {
    size_t end = n;
    if (split && begin + setup.morsel_bytes < n) {
      size_t target = begin + setup.morsel_bytes - 1;
      const void* nl = std::memchr(base + target, '\n', n - target);
      if (nl != nullptr) {
        end = static_cast<size_t>(static_cast<const char*>(nl) - base) + 1;
      }
    }
    m.begin = begin;
    m.end = end;
    tasks->push_back(m);
    begin = end;
  } while (begin < n);
  if (tasks->size() - first > 1) {
    // Per-morsel fragments are not a whole column.
    for (size_t t = first; t < tasks->size(); ++t) {
      (*tasks)[t].split_file = true;
      (*tasks)[t].build_column = false;
    }
  }
  return Status::OK();
}

void Executor::RunMorsel(const ScanSetup& setup, const ScanMorsel& m,
                         MemoryTracker* memory, ScanFilter* filter,
                         TaskResult* slot) const {
  auto start = Clock::now();
  slot->ran = true;
  slot->status = [&]() -> Status {
    JPAR_RETURN_NOT_OK(Interrupted("pipeline scan"));
    const ScanDesc& scan = setup.node->scan;
    OpPipe pipe(setup.node->ops, catalog_, memory, setup.batch_mode,
                options_.batch_size,
                [this]() { return Interrupted("pipeline"); }, slot);
    std::unique_ptr<ColumnBuilder> builder;
    if (m.build_column) builder = std::make_unique<ColumnBuilder>();
    // One huge NDJSON file may be a single morsel: poll the lifecycle
    // every kCheckIntervalTuples selected items, not only per morsel.
    auto count_item = [&]() -> Status {
      if (++slot->items % kCheckIntervalTuples == 0) {
        return Interrupted("pipeline");
      }
      return Status::OK();
    };
    // A lenient scan skips the rest of a record's line when the pipeline
    // raises a parse error on it, so such a scan's column would lack
    // items and count skips that belong to this query only.
    bool pipe_parse_error = false;
    auto emit = [&](Item item) -> Status {
      if (builder != nullptr) builder->Add(item);
      if (m.build_stats) slot->path_stats.Observe(item);
      JPAR_RETURN_NOT_OK(count_item());
      if (builder == nullptr) return pipe.PushItem(std::move(item));
      Status st = pipe.PushItem(std::move(item));
      if (st.code() == StatusCode::kParseError) pipe_parse_error = true;
      return st;
    };
    // Filter before build (DESIGN.md §9), unless a column or stats tee
    // needs every item, or a degraded batch scan would attach a deferred
    // SELECT error to whichever record fills the batch.
    if (m.build_column || m.build_stats ||
        (setup.lenient && setup.batch_mode)) {
      filter = nullptr;
    } else if (filter != nullptr) {
      filter->dropped = [&]() -> Status {
        ++slot->filtered;
        return count_item();
      };
    }
    if (m.column != nullptr) {
      // Columnar read: emit the cached values; zone maps prune whole
      // blocks against the scan's annotated SELECT predicate, and the
      // filter drops the records it rejects undecoded.
      slot->bytes += m.column->bytes;
      if (setup.lenient) slot->skipped += m.column->skipped_records;
      JPAR_RETURN_NOT_OK(EmitColumn(*m.column, scan, filter, emit,
                                    &slot->blocks_pruned));
    } else if (m.file->is_binary()) {
      // Binary file: deserialize, then navigate the path steps in
      // memory.
      const std::string& bytes = *m.file->binary();
      slot->bytes += bytes.size();
      JPAR_ASSIGN_OR_RETURN(Item doc, DeserializeItem(bytes));
      JPAR_RETURN_NOT_OK(NavigateItemPath(doc, scan.steps, 0, emit));
    } else {
      // Collection files are document streams: one document or many
      // (NDJSON / concatenated JSON). With a cached tape, the whole-file
      // index serves this morsel at absolute offsets (origin m.begin);
      // without one, stage 1 is built over just this sub-view. In
      // lenient mode malformed records are skipped and counted.
      std::string_view view(*m.text);
      view = view.substr(m.begin, m.end - m.begin);
      slot->bytes += view.size();
      ProjectionStats pstats;
      JPAR_RETURN_NOT_OK(ProjectJsonStreamWithIndex(
          view, scan.steps, m.tape.get(), m.begin, emit,
          m.build_stats ? &pstats : nullptr,
          setup.lenient ? &slot->skipped : nullptr, options_.scan_mode,
          filter));
      if (builder != nullptr && !pipe_parse_error) {
        StorageManager::Instance().PutColumn(m.file->path(), setup.path,
                                             builder->Finish(slot->skipped),
                                             m.sig, setup.storage_cfg);
      }
      slot->path_stats.documents = pstats.documents;
    }
    slot->built_stats = m.build_stats;
    return pipe.Finish();
  }();
  if (m.column != nullptr && setup.lenient &&
      slot->status.code() == StatusCode::kParseError) {
    // A parse error raised downstream of a lenient scan (the SELECT's
    // dateTime over a bad string, say) skips the rest of the record's
    // raw line, which a column of values cannot replay: rescan the
    // file's text instead, so the warm answer stays the cold one.
    ScanMorsel text = m;
    text.column.reset();
    text.build_stats = false;
    auto loaded = m.file->Load();
    if (loaded.ok()) {
      text.text = std::move(*loaded);
      text.end = text.text->size();
      *slot = TaskResult{};
      RunMorsel(setup, text, memory, filter, slot);
      return;
    }
  }
  slot->ms = ElapsedMs(start);
}

Status Executor::RunPartitionTasks(
    size_t n, const std::function<Status(size_t)>& task) const {
  if (!options_.use_threads || n < 2) {
    for (size_t p = 0; p < n; ++p) JPAR_RETURN_NOT_OK(task(p));
    return Status::OK();
  }
  std::vector<Status> status(n);
  std::vector<std::thread> threads;
  threads.reserve(n);
  for (size_t p = 0; p < n; ++p) {
    threads.emplace_back([&task, &status, p] { status[p] = task(p); });
  }
  for (std::thread& t : threads) t.join();
  for (const Status& st : status) JPAR_RETURN_NOT_OK(st);
  return Status::OK();
}

Result<Executor::PartitionSet> Executor::Exchange(
    PartitionSet input, const std::vector<ScalarEvalPtr>& key_evals,
    StageStats* stage, ExecStats* stats) const {
  const size_t pcount = static_cast<size_t>(std::max(options_.partitions, 1));
  const size_t nsrc = input.parts.size();
  auto start = Clock::now();

  // Sender side: each source partition routes its tuples by key and
  // moves each one into its (source, destination) stream. The tally
  // counts the frames that stream would ship from each tuple's encoded
  // size; no frame is materialized.
  std::vector<std::vector<std::vector<Tuple>>> streams(nsrc);
  std::vector<std::vector<EncodedKeys>> key_streams(nsrc);
  std::vector<std::vector<FrameTally>> tallies(nsrc);
  std::vector<double> src_ms(nsrc, 0.0);
  JPAR_RETURN_NOT_OK(RunPartitionTasks(nsrc, [&](size_t src) -> Status {
    JPAR_RETURN_NOT_OK(Interrupted("exchange"));
    auto src_start = Clock::now();
    std::vector<Tuple>& tuples = input.parts[src];
    std::vector<std::vector<Tuple>>& to = streams[src];
    std::vector<FrameTally>& tally = tallies[src];
    to.resize(pcount);
    key_streams[src].resize(pcount);
    tally.assign(pcount, FrameTally(options_.frame_bytes));
    // RouteByKey is done with tuple i once it names its destination.
    Status st = RouteByKey(
        tuples, key_evals, pcount,
        [&](size_t dst, size_t i, std::string_view key, size_t hash) {
          tally[dst].Add(EncodedTupleSize(tuples[i]));
          to[dst].push_back(std::move(tuples[i]));
          key_streams[src][dst].Append(key, hash);
        });
    src_ms[src] = ElapsedMs(src_start);
    std::vector<Tuple>().swap(tuples);
    return st;
  }));

  // Each (source, destination) stream is one network transfer in the
  // modeled cluster — the natural place to lose frames. Streams that
  // cross node boundaries are charged modeled network time.
  uint64_t cross_bytes = 0;
  uint64_t critical_stream_frames = 0;  // frames on the slowest stream
  for (size_t src = 0; src < nsrc; ++src) {
    for (size_t dst = 0; dst < pcount; ++dst) {
      JPAR_RETURN_NOT_OK(Fault(FaultInjector::kExchangeFrameDrop));
      const FrameTally& t = tallies[src][dst];
      stage->exchange_bytes += t.total_bytes();
      stage->exchange_tuples += t.tuple_count();
      stage->exchange_frames += t.frames();
      stage->oversized_frames += t.oversized_frames();
      stage->max_tuple_bytes =
          std::max(stage->max_tuple_bytes, t.max_tuple_bytes());
      if (NodeOfPartition(static_cast<int>(src)) !=
          NodeOfPartition(static_cast<int>(dst))) {
        cross_bytes += t.total_bytes();
        critical_stream_frames =
            std::max(critical_stream_frames, t.frames());
      }
    }
  }

  // Receiver side: each destination concatenates its streams in source
  // order, so partition contents and order do not depend on threading.
  PartitionSet output;
  output.parts.resize(pcount);
  output.keys.resize(pcount);
  std::vector<double> dst_ms(pcount, 0.0);
  JPAR_RETURN_NOT_OK(RunPartitionTasks(pcount, [&](size_t dst) -> Status {
    auto dst_start = Clock::now();
    std::vector<Tuple>& out = output.parts[dst];
    size_t total = 0;
    for (size_t src = 0; src < nsrc; ++src) total += streams[src][dst].size();
    out.reserve(total);
    for (size_t src = 0; src < nsrc; ++src) {
      std::vector<Tuple>& in = streams[src][dst];
      out.insert(out.end(), std::make_move_iterator(in.begin()),
                 std::make_move_iterator(in.end()));
      output.keys[dst].Take(std::move(key_streams[src][dst]));
    }
    dst_ms[dst] = ElapsedMs(dst_start);
    for (size_t src = 0; src < nsrc; ++src) {
      std::vector<Tuple>().swap(streams[src][dst]);
    }
    return Status::OK();
  }));
  stage->exchange_task_ms.push_back(std::move(src_ms));
  stage->exchange_task_ms.push_back(std::move(dst_ms));

  stage->exchange_ms += ElapsedMs(start);
  // All point-to-point streams transfer concurrently: bandwidth is
  // charged on the total cross-node volume, latency only on the
  // longest single stream.
  double gbps = options_.network_gbps > 0 ? options_.network_gbps : 1.0;
  double net_ms = static_cast<double>(cross_bytes) * 8.0 / (gbps * 1e6) +
                  static_cast<double>(critical_stream_frames) *
                      options_.network_latency_ms_per_frame;
  stage->network_ms += net_ms;
  stats->network_ms += net_ms;
  return output;
}

Result<Executor::PartitionSet> Executor::ExecGroupBy(
    const PNode& node, ExecStats* stats) const {
  JPAR_ASSIGN_OR_RETURN(PartitionSet input, Exec(*node.input, stats));

  const bool spilling = options_.spill == SpillMode::kEnabled;
  MemoryTracker memory(options_.memory_limit_bytes, spilling);
  // Aggregates every partition of `in`, one task per partition, timing
  // each into `stage`. Each task has its own spill manager (spill.h
  // wants one per thread) and merge-pass count, folded into `stats`
  // after the tasks finish. `release` makes each task return its memory
  // once it emits.
  auto aggregate = [&](AggStep step, PartitionSet in, StageStats* stage,
                       bool release) -> Result<PartitionSet> {
    const size_t n = in.parts.size();
    stage->partition_ms.assign(n, 0.0);
    PartitionSet out;
    out.parts.assign(n, {});
    std::vector<std::unique_ptr<SpillManager>> spills(n);
    std::vector<uint64_t> merge_passes(n, 0);
    JPAR_RETURN_NOT_OK(RunPartitionTasks(n, [&](size_t p) -> Status {
      auto start = Clock::now();
      if (spilling) {
        JPAR_ASSIGN_OR_RETURN(spills[p],
                              SpillManager::Create(options_.spill_dir, ctx_));
      }
      MemoryTracker task_memory(&memory);
      std::vector<Tuple> groups;  // local: siblings share cache lines
      Status st = AggregatePartition(
          node, step, in.parts[p], in.keys.empty() ? nullptr : &in.keys[p],
          memory.ShareOf(n), &task_memory, spills[p].get(), &merge_passes[p],
          &groups);
      out.parts[p] = std::move(groups);
      if (release) task_memory.ReleaseAll();
      stage->partition_ms[p] = ElapsedMs(start);
      std::vector<Tuple>().swap(in.parts[p]);
      return st;
    }));
    for (size_t p = 0; p < n; ++p) {
      NoteSpill(spills[p].get(), merge_passes[p], stats);
    }
    return out;
  };

  // ---- Optional local pre-aggregation stage -------------------------
  const bool two_step = GroupByUsesTwoStep(node);
  if (two_step) {
    StageStats local_stage;
    local_stage.name = GroupByStageName(AggStep::kLocal);
    JPAR_ASSIGN_OR_RETURN(input, aggregate(AggStep::kLocal, std::move(input),
                                           &local_stage, /*release=*/true));
    stats->Merge(local_stage);
  }

  // ---- Exchange by key, then global aggregation ----------------------
  const AggStep step = two_step ? AggStep::kGlobal : AggStep::kComplete;
  StageStats global_stage;
  global_stage.name = GroupByStageName(step);
  JPAR_ASSIGN_OR_RETURN(PartitionSet exchanged,
                        Exchange(std::move(input), GroupKeyEvals(node, step),
                                 &global_stage, stats));
  // The hard-limit mode deliberately never releases between global
  // partitions (it emulates all partitions resident at once, which is
  // what Table 3 measures); the budgeted mode governs each partition
  // task, so its memory returns as soon as the task emits.
  JPAR_ASSIGN_OR_RETURN(
      PartitionSet output,
      aggregate(step, std::move(exchanged), &global_stage, spilling));
  NotePeak(memory, stats);
  stats->Merge(global_stage);
  return output;
}

Status Executor::AggregatePartition(const PNode& node, AggStep step,
                                    const std::vector<Tuple>& input,
                                    const EncodedKeys* keys, uint64_t budget,
                                    MemoryTracker* memory,
                                    SpillManager* spill,
                                    uint64_t* merge_passes,
                                    std::vector<Tuple>* out) const {
  EvalContext ctx;
  ctx.catalog = catalog_;
  ctx.memory = memory;
  const KeyEncoder encoder(GroupKeyEvals(node, step));
  const size_t nkeys = node.keys.size();
  // Pre-spilling semantics kept exactly when disabled: the local stage
  // never tracked aggregate growth (incremental partials are O(1)); with
  // spilling on, growth counts against the budget too.
  const bool track_growth = step != AggStep::kLocal || spill != nullptr;
  SpillableGroupTable table(node.aggs, step, memory, track_growth, ctx_,
                            spill, EffectiveSpillFanout(node), budget,
                            merge_passes);
  std::string encoded;
  Tuple key_items;
  for (size_t i = 0; i < input.size(); ++i) {
    if ((i + 1) % kCheckIntervalTuples == 0) {
      JPAR_RETURN_NOT_OK(Interrupted("group-by build"));
    }
    const Tuple& tuple = input[i];
    if (keys == nullptr) {
      JPAR_RETURN_NOT_OK(encoder.Encode(tuple, &ctx, &encoded, &key_items));
    }
    JPAR_RETURN_NOT_OK(table.Add(
        keys != nullptr ? keys->key(i) : std::string_view(encoded),
        keys != nullptr ? keys->hash(i) : std::hash<std::string>{}(encoded),
        [&](Tuple* items) {
          if (keys != nullptr) {
            return encoder.Encode(tuple, &ctx, &encoded, items);
          }
          *items = std::move(key_items);
          return Status::OK();
        },
        [&](size_t a) -> Result<Item> {
          if (step == AggStep::kGlobal) {
            // Partial for agg a sits right after the key columns.
            return tuple[nkeys + a];
          }
          return node.aggs[a].arg->Eval(tuple, &ctx);
        }));
  }
  return table.Emit(out);
}

Status Executor::JoinOnePartition(const PNode& node,
                                  const std::vector<Tuple>& left,
                                  const std::vector<Tuple>& right,
                                  const EncodedKeys& left_keys,
                                  const EncodedKeys& right_keys,
                                  EvalContext* ctx, MemoryTracker* memory,
                                  std::vector<Tuple>* out) const {
  // Cost-model flip (DESIGN.md §15): hash the estimated-smaller side.
  // Output order must not depend on the choice — see the index-pair
  // sort below — because distributed workers may compile the same
  // query against different stats.
  const bool build_left = node.build_left;
  const std::vector<Tuple>& build = build_left ? left : right;
  const EncodedKeys& build_keys = build_left ? left_keys : right_keys;
  JoinTable table(&build_keys);
  for (size_t i = 0; i < build.size(); ++i) {
    if ((i + 1) % kCheckIntervalTuples == 0) {
      JPAR_RETURN_NOT_OK(Interrupted("join build"));
    }
    table.Add();
    JPAR_RETURN_NOT_OK(Fault(FaultInjector::kAllocFail));
    JPAR_RETURN_NOT_OK(memory->Allocate(TupleSizeBytes(build[i]) +
                                        build_keys.key(i).size()));
  }
  table.Seal();
  auto emit = [&](const Tuple& l, const Tuple& r) -> Status {
    Tuple joined = l;
    joined.insert(joined.end(), r.begin(), r.end());
    if (node.residual != nullptr) {
      JPAR_ASSIGN_OR_RETURN(Item cond, node.residual->Eval(joined, ctx));
      JPAR_ASSIGN_OR_RETURN(bool keep, cond.EffectiveBooleanValue());
      if (!keep) return Status::OK();
    }
    out->push_back(std::move(joined));
    return Status::OK();
  };
  if (!build_left) {
    // Canonical: probe with the left side, in order.
    for (size_t l = 0; l < left.size(); ++l) {
      if ((l + 1) % kCheckIntervalTuples == 0) {
        JPAR_RETURN_NOT_OK(Interrupted("join probe"));
      }
      for (uint32_t r : table.Rows(left_keys.key(l), left_keys.hash(l))) {
        JPAR_RETURN_NOT_OK(emit(left[l], right[r]));
      }
    }
    return Status::OK();
  }
  // Flipped build: probe with the right side collecting (left, right)
  // index pairs, then sort them. The canonical loop emits pairs in
  // lexicographic (left index, right index) order — each key's rows
  // come out ascending — so the sorted pairs materialize the exact same
  // output sequence with the hash table on the smaller side.
  std::vector<std::pair<size_t, size_t>> matches;
  for (size_t r = 0; r < right.size(); ++r) {
    if ((r + 1) % kCheckIntervalTuples == 0) {
      JPAR_RETURN_NOT_OK(Interrupted("join probe"));
    }
    for (uint32_t l : table.Rows(right_keys.key(r), right_keys.hash(r))) {
      matches.emplace_back(l, r);
    }
  }
  std::sort(matches.begin(), matches.end());
  uint64_t emitted = 0;
  for (const auto& [l, r] : matches) {
    if (++emitted % kCheckIntervalTuples == 0) {
      JPAR_RETURN_NOT_OK(Interrupted("join emit"));
    }
    JPAR_RETURN_NOT_OK(emit(left[l], right[r]));
  }
  return Status::OK();
}

Result<Executor::PartitionSet> Executor::ExecJoin(const PNode& node,
                                                  ExecStats* stats) const {
  JPAR_ASSIGN_OR_RETURN(PartitionSet left, Exec(*node.left, stats));
  JPAR_ASSIGN_OR_RETURN(PartitionSet right, Exec(*node.right, stats));

  // Each side's keys are encoded once, to route it; the exchange hands
  // them to the join beside the tuples.
  StageStats stage;
  stage.name = "hash-join";
  JPAR_ASSIGN_OR_RETURN(PartitionSet left_ex,
                        Exchange(std::move(left), node.left_keys, &stage,
                                 stats));
  JPAR_ASSIGN_OR_RETURN(PartitionSet right_ex,
                        Exchange(std::move(right), node.right_keys, &stage,
                                 stats));

  // Hash joins cannot spill yet; with spilling enabled the build side
  // overruns the budget softly instead of failing the query
  // (DESIGN.md §10 lists spillable joins as future work). A hard limit
  // bounds every build side resident at once: one partition's without
  // threads, all concurrent partitions' with them.
  MemoryTracker memory(options_.memory_limit_bytes,
                       options_.spill == SpillMode::kEnabled);
  const size_t n = left_ex.parts.size();
  stage.partition_ms.assign(n, 0.0);
  PartitionSet output;
  output.parts.assign(n, {});
  JPAR_RETURN_NOT_OK(RunPartitionTasks(n, [&](size_t p) -> Status {
    auto start = Clock::now();
    MemoryTracker task_memory(&memory);
    EvalContext ctx;
    ctx.catalog = catalog_;
    ctx.memory = &task_memory;
    // Sibling tasks' output vectors share cache lines: emit into a
    // local one.
    std::vector<Tuple> out;
    Status st = JoinOnePartition(node, left_ex.parts[p], right_ex.parts[p],
                                 left_ex.keys[p], right_ex.keys[p], &ctx,
                                 &task_memory, &out);
    output.parts[p] = std::move(out);
    task_memory.ReleaseAll();
    stage.partition_ms[p] = ElapsedMs(start);
    std::vector<Tuple>().swap(left_ex.parts[p]);
    std::vector<Tuple>().swap(right_ex.parts[p]);
    return st;
  }));
  NotePeak(memory, stats);
  stats->Merge(stage);
  return output;
}

Result<Executor::PartitionSet> Executor::ExecSort(const PNode& node,
                                                  ExecStats* stats) const {
  JPAR_ASSIGN_OR_RETURN(PartitionSet input, Exec(*node.input, stats));

  StageStats stage;
  stage.name = "sort";
  stage.partition_ms.assign(input.parts.size(), 0.0);

  EvalContext ctx;
  ctx.catalog = catalog_;

  // Memory governance (DESIGN.md §10): when spilling is enabled each
  // partition tracks its keyed rows against its budget share and, on
  // overflow, stable-sorts what it holds and writes it out as one
  // sorted run. The global merge then reads runs and the in-memory
  // remainders as ordered sources; because runs are emitted in input
  // order and the merge takes the *first* strictly-smaller source, the
  // output is byte-identical to the in-memory stable sort. When
  // disabled, sort is untracked, exactly as before.
  const bool spilling = options_.spill == SpillMode::kEnabled &&
                        options_.memory_limit_bytes > 0;
  MemoryTracker memory(options_.memory_limit_bytes, /*soft=*/true);
  std::unique_ptr<SpillManager> spill_mgr;
  if (options_.spill == SpillMode::kEnabled) {
    JPAR_ASSIGN_OR_RETURN(spill_mgr,
                          SpillManager::Create(options_.spill_dir, ctx_));
  }
  const uint64_t budget = memory.ShareOf(input.parts.size());

  // Local phase: evaluate keys and sort each partition.
  struct Keyed {
    Tuple keys;
    Tuple row;
  };
  // Validated kind class per key column ('n'umeric, or the ItemKind).
  auto kind_class = [](const Item& item) -> int {
    if (item.is_numeric()) return -1;
    return static_cast<int>(item.kind());
  };
  std::vector<int> key_classes(node.sort_keys.size(), INT_MIN);
  auto compare = [&](const Keyed& a, const Keyed& b) {
    for (size_t i = 0; i < a.keys.size(); ++i) {
      bool ea = a.keys[i].SequenceLength() == 0;
      bool eb = b.keys[i].SequenceLength() == 0;
      int c;
      if (ea || eb) {
        c = static_cast<int>(eb) - static_cast<int>(ea);  // empty first
      } else {
        c = a.keys[i].Compare(b.keys[i]).ValueOrDie();
      }
      if (i < node.sort_descending.size() && node.sort_descending[i]) {
        c = -c;
      }
      if (c != 0) return c < 0;
    }
    return false;
  };

  std::vector<std::vector<Keyed>> sorted(input.parts.size());
  // Sorted run files per partition, in the order they were written.
  std::vector<std::vector<std::string>> run_paths(input.parts.size());
  std::string record;
  auto spill_rows = [&](std::vector<Keyed>* rows,
                        std::vector<std::string>* paths,
                        uint64_t* charged) -> Status {
    std::stable_sort(rows->begin(), rows->end(), compare);
    JPAR_ASSIGN_OR_RETURN(std::unique_ptr<SpillRunWriter> writer,
                          spill_mgr->NewRun());
    uint64_t n = 0;
    for (const Keyed& k : *rows) {
      if (++n % kCheckIntervalTuples == 0) {
        JPAR_RETURN_NOT_OK(Interrupted("sort spill"));
      }
      record.clear();
      EncodeTupleTo(k.keys, &record);
      EncodeTupleTo(k.row, &record);
      JPAR_RETURN_NOT_OK(writer->Append(record));
    }
    JPAR_RETURN_NOT_OK(writer->Finish());
    paths->push_back(writer->path());
    rows->clear();
    memory.Release(*charged);
    *charged = 0;
    return Status::OK();
  };

  for (size_t p = 0; p < input.parts.size(); ++p) {
    JPAR_RETURN_NOT_OK(Interrupted("sort"));
    auto start = Clock::now();
    std::vector<Keyed>& rows = sorted[p];
    uint64_t keyed_rows = 0;
    uint64_t charged = 0;
    for (Tuple& t : input.parts[p]) {
      if (++keyed_rows % kCheckIntervalTuples == 0) {
        JPAR_RETURN_NOT_OK(Interrupted("sort"));
      }
      Keyed k;
      for (const ScalarEvalPtr& key : node.sort_keys) {
        JPAR_ASSIGN_OR_RETURN(Item v, key->Eval(t, &ctx));
        k.keys.push_back(std::move(v));
      }
      // Validate comparability up front so the sort comparator cannot
      // fail (empty sequences sort first and skip validation).
      for (size_t i = 0; i < k.keys.size(); ++i) {
        if (k.keys[i].SequenceLength() == 0) continue;
        int cls = kind_class(k.keys[i]);
        if (key_classes[i] == INT_MIN) {
          key_classes[i] = cls;
        } else if (key_classes[i] != cls) {
          return Status::TypeError(
              "order by key mixes incomparable types");
        }
      }
      k.row = std::move(t);
      if (spilling) {
        uint64_t bytes = TupleSizeBytes(k.keys) + TupleSizeBytes(k.row);
        JPAR_RETURN_NOT_OK(memory.Allocate(bytes));
        charged += bytes;
      }
      rows.push_back(std::move(k));
      if (spilling && charged > budget) {
        JPAR_RETURN_NOT_OK(spill_rows(&rows, &run_paths[p], &charged));
      }
    }
    input.parts[p].clear();
    std::stable_sort(rows.begin(), rows.end(), compare);
    stage.partition_ms[p] = ElapsedMs(start);
  }

  // Merge phase (the gather exchange): k-way merge into one partition.
  // Sources are ordered (partition, its runs in write order, its
  // in-memory remainder last); ties go to the earliest source, which
  // reproduces the stable in-memory merge exactly.
  auto merge_start = Clock::now();
  struct SortSource {
    std::unique_ptr<SpillRunReader> reader;  // null for in-memory rows
    std::string path;
    std::vector<Keyed>* mem = nullptr;
    size_t pos = 0;
    Keyed head;
    bool has_head = false;
  };
  auto advance = [&](SortSource* s) -> Status {
    if (s->reader != nullptr) {
      JPAR_ASSIGN_OR_RETURN(bool more, s->reader->Next(&record));
      if (!more) {
        s->has_head = false;
        s->reader.reset();
        spill_mgr->Remove(s->path);
        return Status::OK();
      }
      ItemReader item_reader(record);
      JPAR_RETURN_NOT_OK(DecodeTupleFrom(&item_reader, &s->head.keys));
      JPAR_RETURN_NOT_OK(DecodeTupleFrom(&item_reader, &s->head.row));
      s->has_head = true;
      return Status::OK();
    }
    if (s->pos >= s->mem->size()) {
      s->has_head = false;
      return Status::OK();
    }
    s->head = std::move((*s->mem)[s->pos++]);
    s->has_head = true;
    return Status::OK();
  };
  std::vector<SortSource> sources;
  for (size_t p = 0; p < sorted.size(); ++p) {
    for (const std::string& path : run_paths[p]) {
      SortSource s;
      JPAR_ASSIGN_OR_RETURN(s.reader, spill_mgr->OpenRun(path));
      s.path = path;
      sources.push_back(std::move(s));
    }
    SortSource s;
    s.mem = &sorted[p];
    sources.push_back(std::move(s));
  }
  for (SortSource& s : sources) {
    JPAR_RETURN_NOT_OK(advance(&s));
  }

  PartitionSet output;
  output.parts.assign(1, {});
  uint64_t merged = 0;
  while (true) {
    if (++merged % kCheckIntervalTuples == 0) {
      JPAR_RETURN_NOT_OK(Interrupted("sort merge"));
    }
    int best = -1;
    for (size_t s = 0; s < sources.size(); ++s) {
      if (!sources[s].has_head) continue;
      if (best < 0 ||
          compare(sources[s].head,
                  sources[static_cast<size_t>(best)].head)) {
        best = static_cast<int>(s);
      }
    }
    if (best < 0) break;
    SortSource& win = sources[static_cast<size_t>(best)];
    output.parts[0].push_back(std::move(win.head.row));
    JPAR_RETURN_NOT_OK(advance(&win));
  }
  stage.exchange_ms += ElapsedMs(merge_start);
  if (spill_mgr != nullptr) {
    NotePeak(memory, stats);
    NoteSpill(spill_mgr.get(), /*merge_passes=*/0, stats);
  }
  stats->Merge(stage);
  return output;
}

// ---------------------------------------------------------------------
// Fragment execution API (src/dist, DESIGN.md §11). Each function runs
// one partition's share of an operator through the same per-partition
// function the in-process operator loops over.

bool Executor::GroupByUsesTwoStep(const PNode& node) {
  bool can_two_step = node.two_step;
  for (const AggSpec& a : node.aggs) {
    if (a.kind == AggKind::kSequence) can_two_step = false;
  }
  return can_two_step;
}

std::vector<ScalarEvalPtr> Executor::GroupKeyEvals(const PNode& node,
                                                   AggStep step) {
  if (step != AggStep::kGlobal) return node.keys;
  std::vector<ScalarEvalPtr> columns;
  for (size_t i = 0; i < node.keys.size(); ++i) {
    columns.push_back(MakeColumnEval(static_cast<int>(i)));
  }
  return columns;
}

Result<std::vector<Tuple>> Executor::RunSubtree(const PNode& node,
                                                ExecStats* stats) const {
  JPAR_RETURN_NOT_OK(ValidateExecOptions(options_));
  JPAR_ASSIGN_OR_RETURN(PartitionSet result, Exec(node, stats));
  std::vector<Tuple> out;
  for (std::vector<Tuple>& part : result.parts) {
    if (out.empty()) {
      out = std::move(part);
    } else {
      out.insert(out.end(), std::make_move_iterator(part.begin()),
                 std::make_move_iterator(part.end()));
    }
  }
  return out;
}

Result<std::vector<Tuple>> Executor::GroupByFragment(
    const PNode& node, AggStep step, const std::vector<Tuple>& input,
    ExecStats* stats) const {
  const bool spilling = options_.spill == SpillMode::kEnabled;
  MemoryTracker memory(options_.memory_limit_bytes, spilling);
  std::unique_ptr<SpillManager> spill_mgr;
  if (spilling) {
    JPAR_ASSIGN_OR_RETURN(spill_mgr,
                          SpillManager::Create(options_.spill_dir, ctx_));
  }
  uint64_t merge_passes = 0;
  StageStats stage;
  stage.name = GroupByStageName(step);
  auto start = Clock::now();
  std::vector<Tuple> out;
  JPAR_RETURN_NOT_OK(AggregatePartition(node, step, input, /*keys=*/nullptr,
                                        memory.ShareOf(1), &memory,
                                        spill_mgr.get(), &merge_passes, &out));
  NotePeak(memory, stats);
  NoteSpill(spill_mgr.get(), merge_passes, stats);
  stage.partition_ms.assign(1, ElapsedMs(start));
  stats->Merge(stage);
  return out;
}

Result<std::vector<Tuple>> Executor::JoinPartition(
    const PNode& node, const std::vector<Tuple>& left,
    const std::vector<Tuple>& right, ExecStats* stats) const {
  MemoryTracker memory(options_.memory_limit_bytes,
                       options_.spill == SpillMode::kEnabled);
  StageStats stage;
  stage.name = "hash-join";
  auto start = Clock::now();
  // Each tuple's key, encoded once as the in-process exchange encodes
  // it; left keys first, as the in-process join routes them.
  EncodedKeys left_keys, right_keys;
  auto collect = [](EncodedKeys* keys) {
    return [keys](size_t, size_t, std::string_view key, size_t hash) {
      keys->Append(key, hash);
    };
  };
  JPAR_RETURN_NOT_OK(
      RouteByKey(left, node.left_keys, 1, collect(&left_keys)));
  JPAR_RETURN_NOT_OK(
      RouteByKey(right, node.right_keys, 1, collect(&right_keys)));
  EvalContext ctx;
  ctx.catalog = catalog_;
  ctx.memory = &memory;
  std::vector<Tuple> out;
  JPAR_RETURN_NOT_OK(JoinOnePartition(node, left, right, left_keys,
                                      right_keys, &ctx, &memory, &out));
  memory.ReleaseAll();
  NotePeak(memory, stats);
  stage.partition_ms.assign(1, ElapsedMs(start));
  stats->Merge(stage);
  return out;
}

Result<std::vector<Tuple>> Executor::RunOps(
    const std::vector<UnaryOpDesc>& ops, std::vector<Tuple> input,
    ExecStats* stats) const {
  if (ops.empty()) return input;
  MemoryTracker memory(options_.memory_limit_bytes,
                       options_.spill == SpillMode::kEnabled);
  TaskResult task;
  RunPipelinePartition(ops, std::move(input), UseBatchMode(), &memory, &task);
  JPAR_RETURN_NOT_OK(task.status);
  StageStats stage;
  stage.name = "pipeline";
  stage.partition_ms.assign(1, task.ms);
  FoldTask(task, &stage, stats);
  NotePeak(memory, stats);
  stats->Merge(stage);
  return std::move(task.out);
}

Status Executor::RouteByKey(const std::vector<Tuple>& input,
                            const std::vector<ScalarEvalPtr>& key_evals,
                            size_t fanout, const RouteFn& route) const {
  EvalContext ctx;
  ctx.catalog = catalog_;
  const KeyEncoder encoder(key_evals);
  std::hash<std::string> hasher;
  std::string encoded;
  for (size_t i = 0; i < input.size(); ++i) {
    if ((i + 1) % kCheckIntervalTuples == 0) {
      JPAR_RETURN_NOT_OK(Interrupted("exchange"));
    }
    JPAR_RETURN_NOT_OK(encoder.Encode(input[i], &ctx, &encoded));
    const size_t hash = hasher(encoded);
    route(hash % fanout, i, encoded, hash);
  }
  return Status::OK();
}

Result<std::vector<std::vector<Tuple>>> Executor::HashPartition(
    const std::vector<Tuple>& input,
    const std::vector<ScalarEvalPtr>& key_evals, int fanout) const {
  std::vector<std::vector<Tuple>> buckets(
      static_cast<size_t>(std::max(fanout, 1)));
  JPAR_RETURN_NOT_OK(RouteByKey(
      input, key_evals, buckets.size(),
      [&](size_t dst, size_t i, std::string_view, size_t) {
        buckets[dst].push_back(input[i]);
      }));
  return buckets;
}

Status ValidateExecOptions(const ExecOptions& options) {
  if (options.partitions < 1) {
    return Status::InvalidArgument(
        "partitions must be >= 1, got " + std::to_string(options.partitions));
  }
  if (options.partitions_per_node < 1) {
    return Status::InvalidArgument(
        "partitions_per_node must be >= 1, got " +
        std::to_string(options.partitions_per_node));
  }
  if (options.cores_per_node < 1) {
    return Status::InvalidArgument(
        "cores_per_node must be >= 1, got " +
        std::to_string(options.cores_per_node));
  }
  if (options.frame_bytes == 0) {
    return Status::InvalidArgument("frame_bytes must be > 0");
  }
  if (options.deadline_ms < 0) {
    return Status::InvalidArgument(
        "deadline_ms must be >= 0 (0 = no deadline), got " +
        std::to_string(options.deadline_ms));
  }
  if (options.on_parse_error != ParseErrorPolicy::kFail &&
      options.on_parse_error != ParseErrorPolicy::kSkipAndCount) {
    return Status::InvalidArgument(
        "unknown on_parse_error policy: " +
        std::to_string(static_cast<int>(options.on_parse_error)));
  }
  if (options.scan_mode != ScanMode::kScalar &&
      options.scan_mode != ScanMode::kIndexed) {
    return Status::InvalidArgument(
        "unknown scan_mode: " +
        std::to_string(static_cast<int>(options.scan_mode)));
  }
  if (options.spill != SpillMode::kDisabled &&
      options.spill != SpillMode::kEnabled) {
    return Status::InvalidArgument(
        "unknown spill mode: " +
        std::to_string(static_cast<int>(options.spill)));
  }
  if (options.expr_mode != ExprMode::kAuto &&
      options.expr_mode != ExprMode::kTree &&
      options.expr_mode != ExprMode::kBytecode) {
    return Status::InvalidArgument(
        "unknown expr_mode: " +
        std::to_string(static_cast<int>(options.expr_mode)));
  }
  if (options.storage_mode != StorageMode::kAuto &&
      options.storage_mode != StorageMode::kOff &&
      options.storage_mode != StorageMode::kTape &&
      options.storage_mode != StorageMode::kColumnar) {
    return Status::InvalidArgument(
        "unknown storage_mode: " +
        std::to_string(static_cast<int>(options.storage_mode)));
  }
  if (options.stats_mode != StatsMode::kAuto &&
      options.stats_mode != StatsMode::kOff &&
      options.stats_mode != StatsMode::kForced) {
    return Status::InvalidArgument(
        "unknown stats_mode: " +
        std::to_string(static_cast<int>(options.stats_mode)));
  }
  if (options.batch_size < 1 || options.batch_size > 65536) {
    // Batches above 64Ki tuples gain nothing (cancellation checks tick
    // every 256 lanes regardless) and risk oversized scratch columns.
    return Status::InvalidArgument(
        "batch_size must be in [1, 65536], got " +
        std::to_string(options.batch_size));
  }
  if (options.spill == SpillMode::kEnabled) {
    if (options.spill_fanout < 2) {
      return Status::InvalidArgument(
          "spill_fanout must be >= 2 when spilling is enabled, got " +
          std::to_string(options.spill_fanout));
    }
    if (!options.spill_dir.empty()) {
      // Fail at validation (admission time through the service), not
      // deep inside a half-finished aggregation.
      Result<std::string> dir = ResolveSpillDir(options.spill_dir);
      if (!dir.ok()) return dir.status();
    }
  }
  return Status::OK();
}

Result<QueryOutput> Executor::Run(const PhysicalPlan& plan) const {
  if (plan.root == nullptr) {
    return Status::InvalidArgument("physical plan has no root");
  }
  JPAR_RETURN_NOT_OK(ValidateExecOptions(options_));
  // A query cancelled (or past its deadline) before execution starts
  // never touches the catalog.
  JPAR_RETURN_NOT_OK(Interrupted("startup"));
  auto start = Clock::now();
  QueryOutput out;
  JPAR_ASSIGN_OR_RETURN(PartitionSet result, Exec(*plan.root, &out.stats));
  for (const std::vector<Tuple>& part : result.parts) {
    for (const Tuple& tuple : part) {
      if (plan.result_column < 0 ||
          static_cast<size_t>(plan.result_column) >= tuple.size()) {
        return Status::Internal("result column out of range");
      }
      out.items.push_back(tuple[static_cast<size_t>(plan.result_column)]);
    }
  }
  out.stats.result_rows = out.items.size();
  out.stats.exprs_compiled = UseBatchMode() ? plan.exprs_compiled : 0;
  out.stats.real_ms = ElapsedMs(start);
  int nodes = (options_.partitions + options_.partitions_per_node - 1) /
              (options_.partitions_per_node > 0 ? options_.partitions_per_node
                                                : 1);
  if (nodes < 1) nodes = 1;
  int cores = nodes * (options_.cores_per_node > 0 ? options_.cores_per_node
                                                   : 1);
  double makespan = 0;
  for (const StageStats& s : out.stats.stages) {
    makespan += LptMakespanMs(s.partition_ms, cores) + s.network_ms;
    for (const std::vector<double>& phase : s.exchange_task_ms) {
      makespan += LptMakespanMs(phase, cores);
    }
  }
  out.stats.makespan_ms = makespan;
  return out;
}

double LptMakespanMs(const std::vector<double>& task_ms, int cores) {
  if (cores < 1) cores = 1;
  std::vector<double> sorted = task_ms;
  std::sort(sorted.begin(), sorted.end(), std::greater<double>());
  std::vector<double> bins(static_cast<size_t>(cores), 0.0);
  for (double t : sorted) {
    // Assign to the least-loaded core.
    size_t best = 0;
    for (size_t b = 1; b < bins.size(); ++b) {
      if (bins[b] < bins[best]) best = b;
    }
    bins[best] += t;
  }
  double max_bin = 0;
  for (double b : bins) max_bin = b > max_bin ? b : max_bin;
  return max_bin;
}

}  // namespace jpar
