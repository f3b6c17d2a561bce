#ifndef JPAR_RUNTIME_EXECUTOR_H_
#define JPAR_RUNTIME_EXECUTOR_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "json/structural_index.h"
#include "stats/collection_stats.h"
#include "storage/storage_tier.h"
#include "runtime/catalog.h"
#include "runtime/memory.h"
#include "runtime/operators.h"
#include "runtime/query_context.h"
#include "runtime/stats.h"
#include "runtime/tuple.h"

namespace jpar {

class SpillManager;
struct PNode;
using PNodePtr = std::shared_ptr<const PNode>;

// Task-level state of the executor, defined in executor.cc.
namespace exec_detail {
struct TaskResult;
struct ScanSetup;
struct ScanMorsel;
}  // namespace exec_detail

/// Longest-processing-time list scheduling of `task_ms` onto `cores`
/// identical cores; returns the busiest core's total. Exposed for the
/// cluster-model tests.
double LptMakespanMs(const std::vector<double>& task_ms, int cores);

/// A node of the physical plan. One struct with kind-dependent fields
/// (plans are descriptors produced by the physical translator, not a
/// behavior hierarchy — execution logic lives in the Executor).
struct PNode {
  enum class Kind : uint8_t {
    /// A streaming pipeline: a scan source (when `input` is null) or the
    /// partitions of `input`, run through `ops`.
    kPipeline,
    /// Hash group-by over `input` (keys ++ aggregates out).
    kGroupBy,
    /// Hash equi-join of `left` and `right` (left ++ right columns out).
    kJoin,
    /// Global sort of `input` by `sort_keys` (parallel local sorts,
    /// then a merge to one partition).
    kSort,
  };

  Kind kind = Kind::kPipeline;

  // kPipeline
  ScanDesc scan;  // used when input == nullptr
  PNodePtr input;
  std::vector<UnaryOpDesc> ops;

  // kGroupBy
  std::vector<ScalarEvalPtr> keys;
  std::vector<AggSpec> aggs;
  /// Algebricks two-step aggregation: local pre-aggregation per input
  /// partition, hash exchange of partials, global merge. Requires all
  /// aggs incremental (never kSequence).
  bool two_step = false;
  /// Cost-model grace-hash fanout advice (DESIGN.md §15); honored only
  /// while ExecOptions::spill_fanout sits at its default. 0 = none.
  int spill_fanout_hint = 0;

  // kJoin
  PNodePtr left;
  PNodePtr right;
  std::vector<ScalarEvalPtr> left_keys;
  std::vector<ScalarEvalPtr> right_keys;
  ScalarEvalPtr residual;  // optional extra predicate on joined tuples
  /// Cost-model flip (DESIGN.md §15): build the hash table over the
  /// (estimated smaller) left side and probe with the right, emitting
  /// matches in canonical probe-left order via an index-pair sort so
  /// the output bytes are identical either way.
  bool build_left = false;

  // kSort
  std::vector<ScalarEvalPtr> sort_keys;
  std::vector<uint8_t> sort_descending;  // parallel to sort_keys

  std::string ToString(int indent = 0) const;
};

/// A complete physical plan: the root node plus which output column the
/// DISTRIBUTE-RESULT operator ships to the client.
struct PhysicalPlan {
  PNodePtr root;
  int result_column = 0;
  /// ASSIGN/SELECT expressions the translator compiled to bytecode
  /// (DESIGN.md §13); surfaces as ExecStats::exprs_compiled when the
  /// executor actually runs them vectorized.
  uint64_t exprs_compiled = 0;
  /// Cost-model output (DESIGN.md §15): the planner's estimate of the
  /// result cardinality (-1 = unknown) — the dispatcher sizes exchange
  /// credit windows from it — and a human-readable record of each
  /// stats-driven choice, for tests and EXPLAIN-style diagnostics.
  double est_result_rows = -1;
  std::vector<std::string> cost_choices;

  std::string ToString() const;
};

/// What a blocking operator (group-by, sort) does when its tracked
/// bytes exceed the memory budget (DESIGN.md §10).
enum class SpillMode : uint8_t {
  /// memory_limit_bytes is a hard limit: crossing it fails the query
  /// with kResourceExhausted (the pre-spilling fail-fast semantics; the
  /// default).
  kDisabled = 0,
  /// memory_limit_bytes is a soft per-operator budget: group-by and
  /// sort partitions that exceed their share hash-partition (group-by)
  /// or sort (sort) their in-memory state into temp run files via
  /// SpillManager, keep going, and merge the runs at the end.
  /// Results are byte-identical to in-memory execution. Operators that
  /// cannot spill (join build sides, materialized sequences) overrun
  /// the budget softly instead of failing.
  kEnabled = 1,
};

/// How pipelines evaluate ASSIGN/SELECT expressions (DESIGN.md §13).
enum class ExprMode : uint8_t {
  /// Batch-at-a-time with compiled bytecode, unless the
  /// JPAR_DISABLE_EXPR_BYTECODE environment variable forces the legacy
  /// path (the swar-fallback-style CI escape hatch). The default.
  kAuto = 0,
  /// Legacy tuple-at-a-time tree interpretation, always.
  kTree = 1,
  /// Batch-at-a-time with bytecode, ignoring the environment override.
  kBytecode = 2,
};

/// What a DATASCAN does when a collection record fails to parse.
enum class ParseErrorPolicy : uint8_t {
  /// The whole query fails with kParseError (strict; the default).
  kFail = 0,
  /// The malformed record is skipped, counted in
  /// ExecStats::skipped_records, and the scan resynchronizes at the
  /// next newline — one bad line must not fail an 800 GB NDJSON scan.
  kSkipAndCount = 1,
};

struct ExecOptions {
  /// Total data parallelism (scan partitions and exchange fan-out) —
  /// nodes x partitions-per-node in the paper's terms.
  int partitions = 1;
  /// Used only to model which partitions share a node (cross-node
  /// exchange traffic incurs simulated network time).
  int partitions_per_node = 4;
  /// Physical cores per node for the makespan model. When a stage has
  /// more partition tasks than cores, tasks are LPT-scheduled onto
  /// cores and the stage's simulated time is the busiest core — which
  /// reproduces the paper's observation that 8 hyper-threaded
  /// partitions on 4 cores do not beat 4 partitions (Fig. 17).
  int cores_per_node = 4;
  /// Target Hyracks frame size for exchanges.
  size_t frame_bytes = 32 * 1024;
  /// 0 = unlimited. With spill == kDisabled exceeding it fails the
  /// query (ResourceExhausted); with kEnabled it is the soft budget
  /// spilling operators stay under (see SpillMode). It bounds what an
  /// operator holds at once: with use_threads that is the sum over its
  /// concurrently running partitions.
  uint64_t memory_limit_bytes = 0;
  /// Memory-governance discipline for blocking operators.
  SpillMode spill = SpillMode::kDisabled;
  /// Hash-partition fan-out of a group-by spill flush (and of each
  /// recursive repartition of a skewed bucket). Must be >= 2 when
  /// spilling is enabled. While this sits at kDefaultSpillFanout, a
  /// plan's cost-model fanout hint may adjust it (DESIGN.md §15); an
  /// explicit setting always wins. Spilled results are byte-identical
  /// to in-memory results at any fanout, so the hint is answer-safe.
  static constexpr int kDefaultSpillFanout = 8;
  int spill_fanout = kDefaultSpillFanout;
  /// Directory for temp run files; empty = the system temp directory.
  /// Must exist and be writable when spilling is enabled.
  std::string spill_dir;
  /// Run partition tasks on real threads: the DATASCAN morsel pool,
  /// and one thread per partition for every later pipeline, exchange
  /// half, join and group-by stage. Off by default, because sequential
  /// execution gives uncontended per-partition timings for the makespan
  /// model. Answers, their order and every counter except timings and
  /// peak memory are the same either way. A DATASCAN runs the same
  /// plan/run steps either way; without threads each file is one
  /// morsel, planned and run in file order on the calling thread.
  bool use_threads = false;
  /// Simulated interconnect for cross-node exchange bytes.
  double network_gbps = 1.0;
  double network_latency_ms_per_frame = 0.05;
  /// Relative deadline in milliseconds. Through the query service the
  /// clock starts at Submit() (queue wait counts); through
  /// Engine::Execute it starts when execution begins. 0 = none;
  /// negative values are rejected by ValidateExecOptions.
  double deadline_ms = 0;
  /// Malformed-record policy for DATASCAN (see ParseErrorPolicy).
  ParseErrorPolicy on_parse_error = ParseErrorPolicy::kFail;
  /// Scanning pipeline for DATASCAN (DESIGN.md §9): kIndexed builds a
  /// stage-1 StructuralIndex per buffer and parses against its bitmaps;
  /// kScalar keeps the original byte-at-a-time recursive descent.
  ScanMode scan_mode = ScanMode::kIndexed;
  /// Approximate morsel size for threaded DATASCANs. With use_threads,
  /// each collection file is split into newline-aligned morsels of
  /// about this many bytes and worker threads pull them from a shared
  /// queue, so one huge NDJSON file no longer serializes a scan stage.
  /// 0 disables splitting (one morsel per file), as does running
  /// without use_threads. While this sits at
  /// kDefaultMorselBytes, a plan's cost-model morsel hint may adjust
  /// the split size (DESIGN.md §15); an explicit setting always wins.
  static constexpr size_t kDefaultMorselBytes = 1 << 20;
  size_t morsel_bytes = kDefaultMorselBytes;
  /// Cooperative cancellation/deadline/fault checks at batch
  /// granularity. On by default; turning them off exists only so
  /// bench_service_throughput can measure their cost.
  bool cooperative_checks = true;
  /// ASSIGN/SELECT evaluation strategy (see ExprMode).
  ExprMode expr_mode = ExprMode::kAuto;
  /// Tuples per pipeline batch in vectorized mode. Any size keeps the
  /// every-256-tuples cancellation guarantee — checks are threaded
  /// through the batch kernels at kCheckIntervalTuples lane granularity
  /// — but ValidateExecOptions caps it at 65536 so a typo cannot turn
  /// batches into whole-partition materialization.
  size_t batch_size = TupleBatch::kDefaultCapacity;
  /// Warm storage tier (DESIGN.md §14): which cache levels DATASCAN may
  /// use over path-backed collection files. kAuto enables tapes and
  /// columns; kOff keeps every scan cold.
  StorageMode storage_mode = StorageMode::kAuto;
  /// Directory for this query's tape, column and stats sidecars; empty
  /// = next to the data files. Resolved per call: it never changes
  /// where other queries' sidecars go. The cache's memory budget is
  /// process-wide (StorageManager::kDefaultBudgetBytes), not a query
  /// option.
  std::string storage_cache_dir;
  /// Sampled-statistics policy (DESIGN.md §15): whether scans build
  /// PathStats samples and whether compilation consults them. kAuto
  /// builds and consumes confident samples; kOff neither builds nor
  /// reads them.
  StatsMode stats_mode = StatsMode::kAuto;
};

/// Checks an ExecOptions for values that would make execution
/// meaningless or divide by zero (`partitions >= 1`,
/// `partitions_per_node >= 1`, `cores_per_node >= 1`, `frame_bytes > 0`)
/// and for nonsensical robustness knobs (`deadline_ms >= 0`, known
/// `on_parse_error`, `scan_mode` and `spill` values; with spilling
/// enabled, `spill_fanout >= 2` and a usable `spill_dir`). Called by
/// Executor::Run and by the query service at admission, so bad options
/// fail fast with InvalidArgument instead of relying on inline guards
/// deep in the executor.
Status ValidateExecOptions(const ExecOptions& options);

/// Result rows plus the execution statistics the benchmarks plot.
struct QueryOutput {
  /// The DISTRIBUTE-RESULT column of every output tuple, in partition
  /// order.
  std::vector<Item> items;
  ExecStats stats;
};

/// Executes physical plans against a catalog. Stateless between runs;
/// safe to reuse.
///
/// The optional QueryContext makes execution abortable: every stage
/// polls ctx->Check() at frame/batch granularity (each scanned file,
/// every kCheckIntervalTuples tuples through a pipeline / build / probe
/// / sort loop, each exchanged source partition), so a cancel or an
/// expired deadline surfaces within one batch of work, and fault
/// points fire where the corresponding real failure would occur.
class Executor {
 public:
  /// Tuples processed between cooperative checks. Small enough that a
  /// cancel lands promptly, large enough that the check (an atomic load
  /// plus, with a deadline, a clock read) is amortized to noise — the
  /// bench_service_throughput guard pins the overhead below 2%.
  static constexpr uint64_t kCheckIntervalTuples = 256;

  Executor(const Catalog* catalog, ExecOptions options,
           QueryContext* ctx = nullptr)
      : catalog_(catalog),
        options_(options),
        ctx_(options.cooperative_checks ? ctx : nullptr) {}

  Result<QueryOutput> Run(const PhysicalPlan& plan) const;

  // ---- Fragment execution API (src/dist, DESIGN.md §11) -------------
  // Entry points for a distributed worker running one slice of a plan
  // that was split at its exchange boundaries. Each calls the same
  // per-partition function as the in-process operator (RunMorsel,
  // RunPipelinePartition, AggregatePartition, JoinOnePartition,
  // RouteByKey), so a distributed run reassembles byte-identical
  // results by construction.

  /// True when this group-by runs as two-step aggregation (local
  /// pre-aggregation, exchange of partials, global merge).
  static bool GroupByUsesTwoStep(const PNode& node);

  /// Executes a whole subtree (a leaf fragment: everything below the
  /// first exchange boundary) and returns its output partitions
  /// concatenated in partition order. Workers run this over a sliced
  /// catalog with options_.partitions == 1, which reproduces exactly
  /// one in-process scan partition.
  Result<std::vector<Tuple>> RunSubtree(const PNode& node,
                                        ExecStats* stats) const;

  /// The local half of a two-step group-by over one input partition
  /// (AggStep::kLocal; emits key columns ++ partial aggregates).
  Result<std::vector<Tuple>> GroupByLocal(const PNode& node,
                                          const std::vector<Tuple>& input,
                                          ExecStats* stats) const;

  /// The global half of a group-by over one exchanged partition.
  /// `from_partials` selects AggStep::kGlobal over two-step partials
  /// (keys in columns [0, nkeys)) vs. AggStep::kComplete over raw
  /// tuples keyed by node.keys.
  Result<std::vector<Tuple>> GroupByGlobal(const PNode& node,
                                           const std::vector<Tuple>& input,
                                           bool from_partials,
                                           ExecStats* stats) const;

  /// One partition of the hash join over already-exchanged inputs
  /// (build right, probe left, optional residual filter).
  Result<std::vector<Tuple>> JoinPartition(const PNode& node,
                                           const std::vector<Tuple>& left,
                                           const std::vector<Tuple>& right,
                                           ExecStats* stats) const;

  /// Applies a streaming op chain to one partition of tuples.
  Result<std::vector<Tuple>> RunOps(const std::vector<UnaryOpDesc>& ops,
                                    std::vector<Tuple> input,
                                    ExecStats* stats) const;

  /// Routes tuples into `fanout` buckets by std::hash of their encoded
  /// key — the exact routing of the in-process Exchange, so the union
  /// of every worker's bucket b equals in-process partition b.
  Result<std::vector<std::vector<Tuple>>> HashPartition(
      const std::vector<Tuple>& input,
      const std::vector<ScalarEvalPtr>& key_evals, int fanout) const;

 private:
  struct PartitionSet {
    std::vector<std::vector<Tuple>> parts;
  };

  Result<PartitionSet> Exec(const PNode& node, ExecStats* stats) const;
  Result<PartitionSet> ExecPipeline(const PNode& node, ExecStats* stats) const;
  /// Every leaf DATASCAN: PlanFile picks each file's access path and
  /// tees and cuts it into morsels; RunMorsel runs one morsel. Without
  /// use_threads each file is one morsel, run on the calling thread
  /// right after it is planned (one file's bytes held at a time); with
  /// use_threads all files are planned first and worker threads pull
  /// morsels (~morsel_bytes each) from a shared queue. Per-morsel
  /// outputs and stats land in private slots merged in task order, and
  /// each morsel's time is added to its partition's partition_ms entry,
  /// so both modes give the same items, stats and stage shape.
  Result<PartitionSet> ExecDataScan(const PNode& node, ExecStats* stats) const;
  Status PlanFile(const exec_detail::ScanSetup& setup, const JsonFile& file,
                  int partition, ExecStats* stats,
                  std::vector<exec_detail::ScanMorsel>* tasks) const;
  void RunMorsel(const exec_detail::ScanSetup& setup,
                 const exec_detail::ScanMorsel& morsel, MemoryTracker* memory,
                 exec_detail::TaskResult* slot) const;
  /// One partition of a non-leaf pipeline, shared by ExecPipeline and
  /// RunOps: pushes `input` through `ops` into `task`.
  void RunPipelinePartition(const std::vector<UnaryOpDesc>& ops,
                            std::vector<Tuple> input, bool batch_mode,
                            MemoryTracker* memory,
                            exec_detail::TaskResult* task) const;
  Result<PartitionSet> ExecGroupBy(const PNode& node, ExecStats* stats) const;
  /// One group-by partition, shared by both stages of ExecGroupBy and
  /// by GroupByLocal/GroupByGlobal. `step` picks the keys and inputs:
  /// kLocal and kComplete aggregate raw tuples keyed by node.keys,
  /// kGlobal merges two-step partials keyed by columns [0, nkeys).
  Status AggregatePartition(const PNode& node, AggStep step,
                            const std::vector<Tuple>& input, uint64_t budget,
                            MemoryTracker* memory, SpillManager* spill,
                            uint64_t* merge_passes,
                            std::vector<Tuple>* out) const;
  /// GroupByLocal/GroupByGlobal: one AggregatePartition as its own stage.
  Result<std::vector<Tuple>> GroupByFragment(const PNode& node, AggStep step,
                                             const std::vector<Tuple>& input,
                                             ExecStats* stats) const;
  Result<PartitionSet> ExecJoin(const PNode& node, ExecStats* stats) const;
  /// One partition of the hash join, shared by ExecJoin and
  /// JoinPartition. Canonically builds right / probes left; with
  /// node.build_left the hash table is built over the left side and an
  /// index-pair sort restores the canonical emit order, so the output
  /// bytes are identical either way (DESIGN.md §15).
  Status JoinOnePartition(const PNode& node, const std::vector<Tuple>& left,
                          const std::vector<Tuple>& right, EvalContext* ctx,
                          MemoryTracker* memory,
                          std::vector<Tuple>* out) const;
  Result<PartitionSet> ExecSort(const PNode& node, ExecStats* stats) const;

  /// Runs task(p) for every partition p < n and returns the first
  /// failure in partition order. With use_threads each task runs on its
  /// own thread and all of them run to the end; otherwise they run in
  /// order on the calling thread, stopping at the first failure. Every
  /// operator stage past the DATASCAN morsel pool runs through it.
  Status RunPartitionTasks(size_t n,
                           const std::function<Status(size_t)>& task) const;
  /// Hash-exchanges `input` into options_.partitions buckets by the
  /// encoded value of `key_evals`. In process, one sender task per
  /// source partition moves its tuples into per-destination streams and
  /// one receiver task per destination concatenates them in source
  /// order; no frame is built. The frame and byte counters in `stage`
  /// and the modeled network time come from each tuple's encoded size
  /// under the FrameTally packing rule, so they equal what a frame-
  /// encoding exchange would report, byte for byte.
  Result<PartitionSet> Exchange(PartitionSet input,
                                const std::vector<ScalarEvalPtr>& key_evals,
                                StageStats* stage, ExecStats* stats) const;
  /// The routing rule of Exchange and HashPartition: calls route(b, i)
  /// for each tuple i of `input`, with bucket b = std::hash(encoded
  /// key) % fanout. Tuple i is not read again once routed.
  Status RouteByKey(const std::vector<Tuple>& input,
                    const std::vector<ScalarEvalPtr>& key_evals,
                    size_t fanout,
                    const std::function<void(size_t, size_t)>& route) const;

  int NodeOfPartition(int p) const {
    return p / (options_.partitions_per_node > 0
                    ? options_.partitions_per_node
                    : 1);
  }

  /// True when pipelines run batch-at-a-time (DESIGN.md §13): forced by
  /// expr_mode, defaulted on under kAuto unless the environment
  /// override disables it.
  bool UseBatchMode() const {
    switch (options_.expr_mode) {
      case ExprMode::kTree:
        return false;
      case ExprMode::kBytecode:
        return true;
      case ExprMode::kAuto:
        break;
    }
    return !ExprBytecodeDisabledByEnv();
  }

  /// Group-by spill fanout after the plan's cost hint (DESIGN.md §15):
  /// the hint applies only while the option sits at its default.
  int EffectiveSpillFanout(const PNode& node) const {
    if (node.spill_fanout_hint >= 2 &&
        options_.spill_fanout == ExecOptions::kDefaultSpillFanout) {
      return node.spill_fanout_hint;
    }
    return options_.spill_fanout;
  }

  /// The cooperative cancellation/deadline poll; OK without a context.
  Status Interrupted(const char* stage) const {
    return ctx_ != nullptr ? ctx_->Check(stage) : Status::OK();
  }
  /// Fault-injection hook; OK without a context or injector.
  Status Fault(std::string_view point) const {
    return ctx_ != nullptr ? ctx_->Fault(point) : Status::OK();
  }

  const Catalog* catalog_;
  ExecOptions options_;
  QueryContext* ctx_;  // not owned; null = no lifecycle checks
};

}  // namespace jpar

#endif  // JPAR_RUNTIME_EXECUTOR_H_
