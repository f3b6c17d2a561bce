#ifndef JPAR_STATS_COLLECTION_STATS_H_
#define JPAR_STATS_COLLECTION_STATS_H_

#include <cstdint>

#include "storage/path_stats.h"
#include "storage/storage_tier.h"

namespace jpar {

/// Whether the planner may read and the executor may build sampled
/// collection statistics (DESIGN.md §15).
///   kAuto   — build during cold scans, consume when the sample is
///             large enough to trust; the default.
///   kOff    — no stats reads, no stats builds; plans fall back to the
///             stats-free heuristics.
///   kForced — consume whatever stats exist, however small the sample;
///             benchmarking/testing aid.
enum class StatsMode : uint8_t { kAuto = 0, kOff = 1, kForced = 2 };

/// True when `mode` permits building or reading stats at all.
inline bool StatsEnabled(StatsMode mode) { return mode != StatsMode::kOff; }

/// Sampled PathStats live in the one per-file cache, beside the file's
/// tape and columns (DESIGN.md §15). The old name is kept only for the
/// benchmark harness, until a benchmark change moves it to
/// StorageManager.
using StatsStore = StorageManager;

}  // namespace jpar

#endif  // JPAR_STATS_COLLECTION_STATS_H_
