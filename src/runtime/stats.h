#ifndef JPAR_RUNTIME_STATS_H_
#define JPAR_RUNTIME_STATS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace jpar {

/// How two measurements of one counter combine.
enum class CounterMerge : uint8_t {
  kSum,     // added
  kMax,     // a peak: the larger value wins
  kCaller,  // set by whoever aggregates (a wall clock, a cluster shape)
};

// Every counter is declared once, as X(type, name, merge) in one of the
// two lists below. The lists generate the struct members (all 0 by
// default), their ForEachCounter visitors (which the wire codec and the
// service totals loop over) and ExecCounters::MergeFrom. Adding a
// counter is one line here plus a kProtocolVersion bump.

/// Scalar counters of one StageStats; partition tasks of a stage fold
/// into them by their merge rule.
#define JPAR_STAGE_COUNTERS(X)                                                \
  /* Total wall-clock time of this stage's exchanges: routing tuples by       \
     key and accounting their frames (kept for reference). */                 \
  X(double, exchange_ms, kSum)                                                \
  /* Simulated cross-node network time for this stage's exchange. */          \
  X(double, network_ms, kSum)                                                 \
  X(uint64_t, exchange_bytes, kSum)                                           \
  X(uint64_t, exchange_frames, kSum)                                          \
  X(uint64_t, exchange_tuples, kSum)                                          \
  /* Largest single serialized tuple seen at an operator boundary or          \
     exchange (shows how the rewrite rules shrink tuple granularity). */      \
  X(uint64_t, max_tuple_bytes, kMax)                                          \
  /* Total bytes materialized into frames at intra-pipeline operator          \
     boundaries (the "buffer size between operators" of paper §4.1). */       \
  X(uint64_t, pipeline_bytes, kSum)                                           \
  /* Frames larger than the configured frame size (tuple > frame). */         \
  X(uint64_t, oversized_frames, kSum)

/// Scalar counters of one query (ExecCounters, and so ExecStats). A
/// worker fragment's counters fold into the dispatcher's aggregate, and
/// each successful query into the QueryService totals, by these rules.
/// kCaller counters are left to the aggregating caller: in a distributed
/// run the timing aggregates are genuine wall-clock, not sums.
#define JPAR_EXEC_COUNTERS(X)                                                 \
  /* Real wall-clock time of the whole job on this host. */                   \
  X(double, real_ms, kCaller)                                                 \
  /* Simulated parallel time: sum over stages of                              \
     max(partition_ms) + exchange_ms (+ modeled network cost). This is        \
     the quantity the paper's speed-up/scale-up figures plot. */              \
  X(double, makespan_ms, kCaller)                                             \
  /* Modeled cross-node network time included in makespan_ms. */              \
  X(double, network_ms, kSum)                                                 \
  X(uint64_t, bytes_scanned, kSum)                                            \
  X(uint64_t, items_scanned, kSum)                                            \
  X(uint64_t, result_rows, kCaller)                                           \
  X(uint64_t, peak_retained_bytes, kMax)                                      \
  /* Malformed records skipped by degraded scans                              \
     (ExecOptions::on_parse_error == kSkipAndCount); 0 in strict mode. */     \
  X(uint64_t, skipped_records, kSum)                                          \
  /* Scan tasks (morsels) every DATASCAN ran: one per file in a               \
     sequential scan; threaded runs split files into newline-aligned          \
     ~morsel_bytes chunks, so they may report more. */                        \
  X(uint64_t, morsels_scanned, kSum)                                          \
  /* Memory-governed spilling (ExecOptions::spill == kEnabled,                \
     DESIGN.md §10). Run files written by group-by/sort operators that        \
     exceeded their budget share; all 0 when nothing spilled. */              \
  X(uint64_t, spill_runs, kSum)                                               \
  X(uint64_t, spill_bytes_written, kSum)                                      \
  /* Bucket merge passes, counting recursive repartitions of                  \
     hash-collision-heavy buckets. */                                         \
  X(uint64_t, spill_merge_passes, kSum)                                       \
  /* Distributed execution (src/dist, DESIGN.md §11); all 0 for               \
     single-process runs: worker processes that ran fragments, fragment       \
     rounds (attempts) dispatched, data frames routed through the             \
     dispatcher, and the payload bytes of those frames. */                    \
  X(uint64_t, dist_workers, kCaller)                                          \
  X(uint64_t, dist_rounds, kCaller)                                           \
  X(uint64_t, dist_frames, kSum)                                              \
  X(uint64_t, dist_bytes, kSum)                                               \
  /* Vectorized execution (DESIGN.md §13): TupleBatches flushed through       \
     pipelines and ASSIGN/SELECT exprs running as bytecode; both 0 under      \
     the tuple-at-a-time path (ExprMode::kTree or                             \
     JPAR_DISABLE_EXPR_BYTECODE). */                                          \
  X(uint64_t, batches_emitted, kSum)                                          \
  X(uint64_t, exprs_compiled, kSum)                                           \
  /* Warm storage tier (DESIGN.md §14): scans served a cached structural      \
     tape, tapes built (and cached) this query, files served from the         \
     columnar cache, column blocks skipped via zone maps; all 0 when the      \
     cache is off or every scanned file is in-memory/binary. */               \
  X(uint64_t, tape_hits, kSum)                                                \
  X(uint64_t, tape_builds, kSum)                                              \
  X(uint64_t, columns_read, kSum)                                             \
  X(uint64_t, blocks_pruned, kSum)                                            \
  /* Sampled statistics (DESIGN.md §15): (file, path) samples this            \
     query contributed to the per-file cache; 0 when stats are off or         \
     every sample was already fresh. */                                       \
  X(uint64_t, stats_paths_built, kSum)                                        \
  /* Failure recovery (DESIGN.md §12); all 0 when no worker was lost:         \
     fragment re-dispatches after kWorkerLost, worker processes respawned     \
     mid-query, input frames re-sent to retried fragments, replay-buffer      \
     bytes spilled to disk, and the wall clock from first loss detection      \
     until the affected stages completed (includes backoff, respawn, and      \
     re-execution time). */                                                   \
  X(uint64_t, fragment_retries, kSum)                                         \
  X(uint64_t, workers_respawned, kSum)                                        \
  X(uint64_t, frames_replayed, kSum)                                          \
  X(uint64_t, replay_spill_bytes, kSum)                                       \
  X(double, recovery_ms, kSum)

#define JPAR_COUNTER_MEMBER(type, name, merge) type name = 0;
#define JPAR_COUNTER_VISIT(type, name, merge) \
  f(#name, name, CounterMerge::merge);
#define JPAR_COUNTER_MERGE(type, name, merge)                           \
  if (CounterMerge::merge == CounterMerge::kSum) name += other.name;    \
  if (CounterMerge::merge == CounterMerge::kMax && other.name > name) { \
    name = other.name;                                                  \
  }

/// Per-stage measurements. A "stage" is a Hyracks-style superstep: all
/// partitions of one pipeline (or one exchange + blocking operator) run
/// to completion before the next stage starts.
struct StageStats {
  std::string name;
  /// Wall-clock milliseconds per partition task. Without use_threads
  /// partitions run sequentially; the simulated-parallel makespan of the
  /// stage is max(partition_ms).
  std::vector<double> partition_ms;
  /// Per-task exchange times for the makespan model: one vector per
  /// exchange phase (sender-side route-and-account tasks, receiver-side
  /// gather tasks), each LPT-scheduled onto the modeled cores like
  /// ordinary partition tasks.
  std::vector<std::vector<double>> exchange_task_ms;
  JPAR_STAGE_COUNTERS(JPAR_COUNTER_MEMBER)

  /// Calls f(name, value, merge) for each JPAR_STAGE_COUNTERS entry.
  template <typename F>
  void ForEachCounter(F&& f) {
    JPAR_STAGE_COUNTERS(JPAR_COUNTER_VISIT)
  }
  template <typename F>
  void ForEachCounter(F&& f) const {
    JPAR_STAGE_COUNTERS(JPAR_COUNTER_VISIT)
  }

  double MaxPartitionMs() const {
    double m = 0;
    for (double v : partition_ms) m = v > m ? v : m;
    return m;
  }
  double SumPartitionMs() const {
    double s = 0;
    for (double v : partition_ms) s += v;
    return s;
  }
};

/// The scalar counters of one query (ExecStats without its stages);
/// also the QueryService's running totals.
struct ExecCounters {
  JPAR_EXEC_COUNTERS(JPAR_COUNTER_MEMBER)

  /// Calls f(name, value, merge) for each JPAR_EXEC_COUNTERS entry.
  template <typename F>
  void ForEachCounter(F&& f) {
    JPAR_EXEC_COUNTERS(JPAR_COUNTER_VISIT)
  }
  template <typename F>
  void ForEachCounter(F&& f) const {
    JPAR_EXEC_COUNTERS(JPAR_COUNTER_VISIT)
  }

  /// Folds `other` into this by each counter's merge rule.
  void MergeFrom(const ExecCounters& other) {
    JPAR_EXEC_COUNTERS(JPAR_COUNTER_MERGE)
  }
};

#undef JPAR_COUNTER_MEMBER
#undef JPAR_COUNTER_VISIT
#undef JPAR_COUNTER_MERGE

/// End-to-end execution statistics returned with every query result.
struct ExecStats : ExecCounters {
  std::vector<StageStats> stages;

  void Merge(const StageStats& stage) { stages.push_back(stage); }

  /// Folds a worker-side fragment's stats into this (dispatcher-side)
  /// aggregate: stages are appended, counters merged by their rule.
  void MergeFrom(const ExecStats& other) {
    for (const StageStats& s : other.stages) stages.push_back(s);
    ExecCounters::MergeFrom(other);
  }
};

}  // namespace jpar

#endif  // JPAR_RUNTIME_STATS_H_
