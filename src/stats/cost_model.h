#ifndef JPAR_STATS_COST_MODEL_H_
#define JPAR_STATS_COST_MODEL_H_

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "json/projecting_reader.h"
#include "runtime/catalog.h"
#include "stats/collection_stats.h"
#include "storage/column_store.h"

namespace jpar {

/// What the planner believes about one (collection, projected path)
/// scan, merged across the collection's files from the per-file cache.
struct ScanEstimate {
  double rows = -1;   // estimated items emitted (-1 = unknown)
  double bytes = -1;  // total collection bytes (-1 = unknown)
  bool from_stats = false;  // any sampled stats contributed
  bool confident = false;   // coverage and sample size clear the bar
  double coverage = 0;      // fraction of bytes covered by fresh stats
  // Merged per-path sample across covered files; null when none.
  std::shared_ptr<const PathStats> merged;
};

/// Read-side costing over the cached PathStats (DESIGN.md §15).
/// Constructed per compilation (Engine::Compile) from the session's
/// StatsMode and handed to the rewriter and physical translator; every
/// estimate is advisory — consumers may only toggle answer-preserving
/// physical annotations, never plan structure, because distributed
/// workers recompile fragments against their own (possibly divergent)
/// stats.
class CostModel {
 public:
  CostModel(const Catalog* catalog, StatsMode mode, StorageConfig cfg);

  /// False when the mode turns stats off — estimates then return the
  /// unknown defaults.
  bool enabled() const { return enabled_; }
  bool forced() const { return mode_ == StatsMode::kForced; }

  /// Merged estimate for scanning `collection` projected to `steps`.
  /// Cached per (collection, path) for the compilation's lifetime.
  ScanEstimate EstimateScan(const std::string& collection,
                            const std::vector<PathStep>& steps) const;

  /// Selectivity of `value-of-path <op> constant` over the rows of
  /// `scan`, in [0, 1]. kDefaultSelectivity when the estimate carries
  /// no usable sample. Monotone in `value` for range operators and
  /// nonincreasing in the distinct count for equality.
  double EstimateSelectivity(const ScanEstimate& scan, ZoneCompare op,
                             double value) const;

  /// Whether an estimate is trustworthy enough to act on: kForced
  /// trusts any sample; kAuto wants most bytes covered and a
  /// non-trivial sample.
  bool Trust(const ScanEstimate& e) const;

  /// Grace-hash fanout suited to `input_rows` rows (monotone,
  /// clamped to [2, 64]); 0 when unknown.
  int SpillFanoutHint(double input_rows) const;

  /// Morsel size suited to `scan_bytes` total bytes (monotone, clamped
  /// to [64 KiB, 4 MiB]); 0 when unknown.
  size_t MorselBytesHint(double scan_bytes) const;

  static constexpr double kDefaultSelectivity = 0.25;
  /// kAuto trusts a sample only past these bars.
  static constexpr double kMinCoverage = 0.5;
  static constexpr uint64_t kMinSampledRows = 16;
  /// A zone-prunable predicate at or below this selectivity routes the
  /// scan to the columnar access path (AccessHint::kColumnar).
  static constexpr double kColumnarSelectivity = 0.2;
  /// Build on the left join input when its trusted estimate is at most
  /// half the right's (hysteresis so borderline stats don't flap).
  static constexpr double kBuildFlipRatio = 0.5;
  /// An equality above this selectivity prunes too few files for a
  /// path-index probe to pay off; the rewriter keeps the plain scan.
  static constexpr double kIndexVetoSelectivity = 0.5;

 private:
  const Catalog* catalog_;
  StatsMode mode_;
  StorageConfig cfg_;
  bool enabled_;
  mutable std::mutex mu_;
  mutable std::map<std::string, ScanEstimate> cache_;
};

}  // namespace jpar

#endif  // JPAR_STATS_COST_MODEL_H_
