#ifndef JPAR_RUNTIME_STATS_H_
#define JPAR_RUNTIME_STATS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace jpar {

/// Per-stage measurements. A "stage" is a Hyracks-style superstep: all
/// partitions of one pipeline (or one exchange + blocking operator) run
/// to completion before the next stage starts.
struct StageStats {
  std::string name;
  /// Wall-clock milliseconds per partition task. On a single-core host
  /// partitions run sequentially; the simulated-parallel makespan of the
  /// stage is max(partition_ms).
  std::vector<double> partition_ms;
  /// Total time spent serializing/deserializing and routing exchange
  /// frames (single-host wall clock; kept for reference).
  double exchange_ms = 0;
  /// Per-task exchange times for the makespan model: one vector per
  /// exchange phase (sender-side encode tasks, receiver-side decode
  /// tasks), each LPT-scheduled onto the modeled cores like ordinary
  /// partition tasks.
  std::vector<std::vector<double>> exchange_task_ms;
  /// Simulated cross-node network time for this stage's exchange.
  double network_ms = 0;
  uint64_t exchange_bytes = 0;
  uint64_t exchange_frames = 0;
  uint64_t exchange_tuples = 0;
  /// Largest single serialized tuple seen at an operator boundary or
  /// exchange (shows how the rewrite rules shrink tuple granularity).
  uint64_t max_tuple_bytes = 0;
  /// Total bytes materialized into frames at intra-pipeline operator
  /// boundaries (the "buffer size between operators" of paper §4.1).
  uint64_t pipeline_bytes = 0;
  /// Frames larger than the configured frame size (tuple > frame).
  uint64_t oversized_frames = 0;

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

/// End-to-end execution statistics returned with every query result.
struct ExecStats {
  std::vector<StageStats> stages;

  /// Real wall-clock time of the whole job on this host.
  double real_ms = 0;
  /// Simulated parallel time: sum over stages of
  /// max(partition_ms) + exchange_ms (+ modeled network cost). This is
  /// the quantity the paper's speed-up/scale-up figures plot.
  double makespan_ms = 0;
  /// Modeled cross-node network time included in makespan_ms.
  double network_ms = 0;

  uint64_t bytes_scanned = 0;
  uint64_t items_scanned = 0;
  uint64_t result_rows = 0;
  uint64_t peak_retained_bytes = 0;
  /// Malformed records skipped by degraded scans
  /// (ExecOptions::on_parse_error == kSkipAndCount); 0 in strict mode.
  uint64_t skipped_records = 0;
  /// Scan tasks (morsels) every DATASCAN ran: one per file in a
  /// sequential scan; threaded runs split files into newline-aligned
  /// ~morsel_bytes chunks, so they may report more.
  uint64_t morsels_scanned = 0;
  /// Memory-governed spilling (ExecOptions::spill == kEnabled,
  /// DESIGN.md §10). Run files written by group-by/sort operators that
  /// exceeded their budget share; all 0 when nothing spilled.
  uint64_t spill_runs = 0;
  uint64_t spill_bytes_written = 0;
  /// Bucket merge passes, counting recursive repartitions of
  /// hash-collision-heavy buckets.
  uint64_t spill_merge_passes = 0;

  /// Distributed execution (src/dist, DESIGN.md §11); all 0 for
  /// single-process runs.
  uint64_t dist_workers = 0;  // worker processes that ran fragments
  uint64_t dist_rounds = 0;   // fragment rounds (attempts) dispatched
  uint64_t dist_frames = 0;   // data frames routed through the dispatcher
  uint64_t dist_bytes = 0;    // payload bytes of those frames

  /// Vectorized execution (DESIGN.md §13); both 0 under the legacy
  /// tuple-at-a-time path (ExprMode::kTree or JPAR_DISABLE_EXPR_BYTECODE).
  uint64_t batches_emitted = 0;  // TupleBatches flushed through pipelines
  uint64_t exprs_compiled = 0;   // ASSIGN/SELECT exprs running as bytecode

  /// Warm storage tier (DESIGN.md §14); all 0 when the cache is off or
  /// every scanned file is in-memory/binary.
  uint64_t tape_hits = 0;      // scans served a cached structural tape
  uint64_t tape_builds = 0;    // tapes built (and cached) this query
  uint64_t columns_read = 0;   // files served from the columnar cache
  uint64_t blocks_pruned = 0;  // column blocks skipped via zone maps

  /// Sampled statistics (DESIGN.md §15): (file, path) samples this
  /// query contributed to the StatsStore; 0 when stats are off or
  /// every sample was already fresh.
  uint64_t stats_paths_built = 0;

  /// Failure recovery (DESIGN.md §12); all 0 when no worker was lost.
  uint64_t fragment_retries = 0;   // fragment re-dispatches after kWorkerLost
  uint64_t workers_respawned = 0;  // worker processes respawned mid-query
  uint64_t frames_replayed = 0;    // input frames re-sent to retried fragments
  uint64_t replay_spill_bytes = 0;  // replay-buffer bytes spilled to disk
  /// Wall clock from first loss detection until the affected stages
  /// completed (includes backoff, respawn, and re-execution time).
  double recovery_ms = 0;

  void Merge(const StageStats& stage) { stages.push_back(stage); }

  /// Folds a worker-side fragment's stats into this (dispatcher-side)
  /// aggregate: stages are appended, counters summed, peaks maxed.
  /// Timing aggregates (real_ms/makespan_ms) are left to the caller —
  /// in a distributed run they are genuine wall-clock, not sums.
  void MergeFrom(const ExecStats& other) {
    for (const StageStats& s : other.stages) stages.push_back(s);
    network_ms += other.network_ms;
    bytes_scanned += other.bytes_scanned;
    items_scanned += other.items_scanned;
    if (other.peak_retained_bytes > peak_retained_bytes) {
      peak_retained_bytes = other.peak_retained_bytes;
    }
    skipped_records += other.skipped_records;
    morsels_scanned += other.morsels_scanned;
    spill_runs += other.spill_runs;
    spill_bytes_written += other.spill_bytes_written;
    spill_merge_passes += other.spill_merge_passes;
    batches_emitted += other.batches_emitted;
    exprs_compiled += other.exprs_compiled;
    tape_hits += other.tape_hits;
    tape_builds += other.tape_builds;
    columns_read += other.columns_read;
    blocks_pruned += other.blocks_pruned;
    stats_paths_built += other.stats_paths_built;
    dist_frames += other.dist_frames;
    dist_bytes += other.dist_bytes;
    fragment_retries += other.fragment_retries;
    workers_respawned += other.workers_respawned;
    frames_replayed += other.frames_replayed;
    replay_spill_bytes += other.replay_spill_bytes;
    recovery_ms += other.recovery_ms;
  }
};

}  // namespace jpar

#endif  // JPAR_RUNTIME_STATS_H_
