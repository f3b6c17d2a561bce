#include "stats/cost_model.h"

#include <algorithm>
#include <cmath>

namespace jpar {

CostModel::CostModel(const Catalog* catalog, StatsMode mode,
                     StorageConfig cfg)
    : catalog_(catalog),
      mode_(mode),
      cfg_(std::move(cfg)),
      enabled_(catalog != nullptr && StatsEnabled(mode)) {}

ScanEstimate CostModel::EstimateScan(
    const std::string& collection, const std::vector<PathStep>& steps) const {
  ScanEstimate est;
  if (!enabled_) return est;
  const std::string path_str = PathToString(steps);
  const std::string cache_key = collection + "\x1f" + path_str;
  std::lock_guard<std::mutex> lock(mu_);
  auto cached = cache_.find(cache_key);
  if (cached != cache_.end()) return cached->second;

  auto coll = catalog_->GetCollection(collection);
  if (coll.ok()) {
    double total_bytes = 0;
    double covered_bytes = 0;
    double covered_rows = 0;
    auto merged = std::make_shared<PathStats>();
    StorageManager& store = StorageManager::Instance();
    for (const JsonFile& file : (*coll)->files) {
      auto size = file.SizeBytes();
      const double file_bytes = size.ok() ? static_cast<double>(*size) : 0;
      total_bytes += file_bytes;
      if (file.path().empty() || file.is_binary() || file.in_memory()) {
        continue;
      }
      auto stats = store.GetStats(file.path(), path_str, cfg_);
      if (stats == nullptr) continue;
      merged->MergeFrom(*stats);
      covered_bytes += file_bytes;
      covered_rows += static_cast<double>(stats->rows);
    }
    est.bytes = total_bytes;
    if (merged->sampled > 0 || merged->rows > 0) {
      est.from_stats = true;
      est.coverage =
          total_bytes > 0 ? covered_bytes / total_bytes
                          : 1.0;
      // Extrapolate the uncovered bytes at the covered density.
      double rows = covered_rows;
      if (covered_bytes > 0 && total_bytes > covered_bytes) {
        rows += covered_rows / covered_bytes * (total_bytes - covered_bytes);
      }
      est.rows = rows;
      est.confident = est.coverage >= kMinCoverage &&
                      merged->sampled >= kMinSampledRows;
      est.merged = std::move(merged);
    }
  }
  cache_.emplace(cache_key, est);
  return est;
}

bool CostModel::Trust(const ScanEstimate& e) const {
  if (!enabled_ || !e.from_stats) return false;
  return forced() || e.confident;
}

double CostModel::EstimateSelectivity(const ScanEstimate& scan,
                                      ZoneCompare op, double value) const {
  if (op == ZoneCompare::kNone) return 1.0;
  if (!Trust(scan) || scan.merged == nullptr ||
      scan.merged->sampled == 0) {
    return kDefaultSelectivity;
  }
  const PathStats& s = *scan.merged;
  const double numeric = s.NumericFraction();
  if (!s.has_minmax || numeric <= 0) {
    // No numeric values sampled: a numeric comparison matches (almost)
    // nothing.
    return 0.01;
  }
  double sel;
  if (op == ZoneCompare::kEq) {
    if (value < s.min_value || value > s.max_value) {
      sel = 0.005;  // outside the observed range; keep a safety floor
    } else {
      const double distinct = std::max(1.0, s.DistinctEstimate());
      sel = std::max(1.0 / distinct, 0.001);
    }
  } else {
    // Linear interpolation over the observed [min, max], clamped away
    // from 0/1 so an estimate never claims certainty.
    double frac;
    if (s.max_value <= s.min_value) {
      frac = value >= s.min_value ? 1.0 : 0.0;
    } else {
      frac = (value - s.min_value) / (s.max_value - s.min_value);
    }
    frac = std::clamp(frac, 0.0, 1.0);
    switch (op) {
      case ZoneCompare::kLt:
      case ZoneCompare::kLe:
        sel = frac;
        break;
      default:  // kGt, kGe
        sel = 1.0 - frac;
        break;
    }
    sel = std::clamp(sel, 0.02, 0.98);
  }
  return std::clamp(sel * numeric, 0.0, 1.0);
}

int CostModel::SpillFanoutHint(double input_rows) const {
  if (!enabled_ || input_rows < 0) return 0;
  const double fanout = input_rows / 4096.0;
  return static_cast<int>(std::clamp(fanout, 2.0, 64.0));
}

size_t CostModel::MorselBytesHint(double scan_bytes) const {
  if (!enabled_ || scan_bytes < 0) return 0;
  const double bytes = scan_bytes / 32.0;
  return static_cast<size_t>(
      std::clamp(bytes, 64.0 * 1024.0, 4.0 * 1024.0 * 1024.0));
}

}  // namespace jpar
