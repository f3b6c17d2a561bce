#ifndef JPAR_STORAGE_PATH_STATS_H_
#define JPAR_STORAGE_PATH_STATS_H_

#include <array>
#include <cstdint>
#include <string>
#include <string_view>

#include "json/item.h"

namespace jpar {

/// Per-(file, projected path) sampled statistics, gathered as a tee on
/// the projecting reader during cold scans. Row and document counts
/// are exact (every emitted item ticks them); value-shape facts
/// (type mix, min/max, the distinct sketch) come from a deterministic
/// stride sample — the first kSampleFullRows rows, then every
/// kSampleStride-th — so the cost of observation is O(1) amortized and
/// independent of randomness (stats built on any host, under any
/// thread count, converge to mergeable sketches).
struct PathStats {
  static constexpr size_t kHllRegisters = 256;
  static constexpr uint64_t kSampleFullRows = 8192;
  static constexpr uint64_t kSampleStride = 16;

  uint64_t rows = 0;        // items emitted for the projected path
  uint64_t documents = 0;   // top-level documents scanned
  uint64_t file_bytes = 0;  // size of the file the sample came from
  uint64_t sampled = 0;     // rows that contributed to the shape facts

  uint64_t count_numeric = 0;
  uint64_t count_string = 0;
  uint64_t count_bool = 0;
  uint64_t count_null = 0;
  uint64_t count_object = 0;
  uint64_t count_array = 0;

  uint8_t has_minmax = 0;  // numeric min/max observed at least once
  double min_value = 0;
  double max_value = 0;

  // HyperLogLog registers over the group-key encoding of each sampled
  // value (m=256, ~6.5% relative error); register-max merge makes the
  // sketch order-independent across morsels and files.
  std::array<uint8_t, kHllRegisters> hll{};

  /// Folds one emitted item into the stats (row count always; shape
  /// facts when the stride admits it).
  void Observe(const Item& item);

  /// Register-max / sum merge; order-independent.
  void MergeFrom(const PathStats& other);

  /// HLL estimate with the standard small-range linear-counting
  /// correction. Zero when nothing was sampled.
  double DistinctEstimate() const;

  /// Fraction of documents that produced at least one item for the
  /// path, clamped to [0, 1]. (rows/documents can exceed 1 under array
  /// fan-out; see MeanRowsPerDocument for the unclamped ratio.)
  double PresenceFraction() const;

  /// Fraction of sampled values that were numeric.
  double NumericFraction() const;

  /// rows / documents, the fan-out estimate (0 when no documents).
  double MeanRowsPerDocument() const;
};

/// Serialize/parse the PathStats payload (everything after the sidecar
/// header). Parse rejects internally inconsistent payloads (a sample
/// larger than the row count, non-finite or inverted bounds); byte-level
/// corruption is the sidecar checksum's job (DESIGN.md §14). Public so
/// the serde tests can corrupt precisely.
void AppendPathStatsPayload(const PathStats& stats, std::string* out);
bool ParsePathStatsPayload(std::string_view data, PathStats* out);

}  // namespace jpar

#endif  // JPAR_STORAGE_PATH_STATS_H_
