#ifndef JPAR_STORAGE_STORAGE_TIER_H_
#define JPAR_STORAGE_STORAGE_TIER_H_

#include <cstdint>
#include <future>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "common/result.h"
#include "json/structural_index.h"
#include "storage/column_store.h"
#include "storage/path_stats.h"

namespace jpar {

/// Which warm-storage access paths a query may use (DESIGN.md §14).
///   kAuto     — tapes + columns; the default.
///   kOff      — always cold: no cache reads, no cache builds.
///   kTape     — structural-index tapes only; columns neither built
///               nor read (isolates the stage-1 win in benchmarks).
///   kColumnar — tapes + columns, same surface as kAuto but explicit.
enum class StorageMode : uint8_t { kAuto = 0, kOff = 1, kTape = 2,
                                   kColumnar = 3 };

/// Per-call settings, resolved from ExecOptions on every call and never
/// kept by the cache: an empty `cache_dir` puts sidecars next to the
/// data file, a nonempty one puts them under that directory.
struct StorageConfig {
  std::string cache_dir;
};

/// Identity of the bytes a cache entry was built over. Two stats with
/// equal (size, mtime_ns) are presumed to be the same content — the
/// standard sidecar-cache tradeoff; any size change or mtime tick
/// invalidates.
struct FileSignature {
  uint64_t size = 0;
  int64_t mtime_ns = 0;

  friend bool operator==(const FileSignature& a, const FileSignature& b) {
    return a.size == b.size && a.mtime_ns == b.mtime_ns;
  }
  friend bool operator!=(const FileSignature& a, const FileSignature& b) {
    return !(a == b);
  }
};

/// Stats `path`: NotFound when the file is absent or unreadable.
Result<FileSignature> StatFileSignature(const std::string& path);

/// The three things cached per data file, each with its own sidecar.
enum class SidecarKind : uint8_t { kTape = 0, kColumn = 1, kStats = 2 };

/// The per-file cache over collection files (DESIGN.md §14, §15). One
/// entry per data path, checked against the live FileSignature on every
/// access, holds the file's text and stage-1 tape, its per-path
/// shredded columns and its per-path sampled PathStats. All three share
/// one LRU byte budget and one epoch, and persist to sidecar files
/// (.jtape, .jcol, .jstats) in one checksummed format, so a fresh
/// process or a distributed worker on the same host warms from disk.
///
/// Thread-safe. The mutex guards only the map: stat calls, file reads,
/// stage-1 builds and sidecar I/O all run outside it. A cold tape is
/// built once per entry — concurrent callers for the same file wait for
/// that build and count as hits — while other files proceed.
class StorageManager {
 public:
  static constexpr uint64_t kDefaultBudgetBytes = 256ull << 20;

  /// The process-wide cache the executor and planner use, with
  /// kDefaultBudgetBytes.
  static StorageManager& Instance();

  explicit StorageManager(uint64_t budget_bytes = kDefaultBudgetBytes)
      : budget_bytes_(budget_bytes) {}
  StorageManager(const StorageManager&) = delete;
  StorageManager& operator=(const StorageManager&) = delete;

  /// A tape serving: the file's bytes plus its stage-1 tape. `hit`
  /// distinguishes reuse (memory, sidecar, or another caller's build)
  /// from a build by this call (the tape_hits / tape_builds counters).
  /// `signature` is what the bytes were read under — pass it back to
  /// PutColumn / PutStats so data built from them is dropped if the
  /// file changed mid-scan.
  struct Tape {
    std::shared_ptr<const std::string> text;
    std::shared_ptr<const StructuralIndex> index;
    FileSignature signature;
    bool hit = false;
  };

  /// Returns text + tape for `path`, building and caching on first
  /// use. A stale entry (file drifted) is dropped and rebuilt. Errors
  /// only when the file cannot be stat'ed or read.
  Result<Tape> AcquireTape(const std::string& path, const StorageConfig& cfg);

  /// The cached column / stats for (file, projected-path string), or
  /// null when absent, stale or unreadable. Never touches the file's
  /// JSON bytes — only a stat and, on a memory miss, a sidecar read.
  std::shared_ptr<const ColumnData> GetColumn(const std::string& path,
                                              const std::string& path_str,
                                              const StorageConfig& cfg);
  std::shared_ptr<const PathStats> GetStats(const std::string& path,
                                            const std::string& path_str,
                                            const StorageConfig& cfg);

  /// Install a column / stats built by a scan over bytes with signature
  /// `built_for`, and write the sidecar. Dropped when the live file no
  /// longer matches; the first install for a (file, path) wins. Bumps
  /// the epoch.
  void PutColumn(const std::string& path, const std::string& path_str,
                 ColumnData column, const FileSignature& built_for,
                 const StorageConfig& cfg);
  void PutStats(const std::string& path, const std::string& path_str,
                PathStats stats, const FileSignature& built_for,
                const StorageConfig& cfg);

  /// Monotonic counter bumped when the cache learns a column or stats,
  /// drops a stale entry, or is cleared; it joins the plan-cache key so
  /// cached plans revalidate their access-path and cost assumptions.
  uint64_t epoch() const;

  /// Drops every in-memory entry (sidecar files stay — they are the
  /// persistence layer). Tests use this to simulate a fresh process.
  void Clear();

  struct Totals {
    uint64_t bytes = 0;
    uint64_t files = 0;
  };
  Totals totals() const;

  uint64_t budget_bytes() const { return budget_bytes_; }

  /// Where the `kind` sidecar for `path` lands under `cfg`; `path_str`
  /// names the projected path for columns and stats and is ignored for
  /// tapes. Public so tests can corrupt or forge sidecars precisely.
  static std::string SidecarPath(SidecarKind kind, const std::string& path,
                                 const std::string& path_str,
                                 const StorageConfig& cfg);

 private:
  struct TapeData {
    std::shared_ptr<const std::string> text;
    std::shared_ptr<const StructuralIndex> index;
  };
  using TapeFuture = std::shared_future<Result<TapeData>>;

  template <typename T>
  using PathMap = std::map<std::string, std::shared_ptr<const T>>;

  struct Entry {
    FileSignature sig;
    uint64_t id = 0;  // distinguishes a re-created entry for the path
    TapeFuture tape;  // invalid until a build starts
    PathMap<ColumnData> columns;
    PathMap<PathStats> stats;
    uint64_t bytes = 0;
    std::list<std::string>::iterator lru;
  };

  Result<TapeData> LoadTape(const std::string& path, const FileSignature& sig,
                            const StorageConfig& cfg, bool* built);
  template <typename T>
  std::shared_ptr<const T> GetPerPath(PathMap<T> Entry::*map,
                                      SidecarKind kind,
                                      const std::string& path,
                                      const std::string& path_str,
                                      const StorageConfig& cfg);
  template <typename T>
  void PutPerPath(PathMap<T> Entry::*map, SidecarKind kind,
                  const std::string& path, const std::string& path_str,
                  std::shared_ptr<const T> value,
                  const FileSignature& built_for, const StorageConfig& cfg);

  // The live entry for `path` if it was built for `sig`, touched in the
  // LRU; an entry for other bytes is dropped and the epoch bumped.
  Entry* FindLocked(const std::string& path, const FileSignature& sig);
  // FindLocked, creating an empty entry on a miss.
  Entry* EnsureLocked(const std::string& path, const FileSignature& sig);
  // The entry for `path` if it is still the one numbered `id`.
  Entry* SameEntryLocked(const std::string& path, uint64_t id);
  // Charges `bytes` to `e`, then evicts cold entries over the budget.
  void ChargeLocked(Entry* e, uint64_t bytes);

  const uint64_t budget_bytes_;
  mutable std::mutex mu_;
  std::unordered_map<std::string, Entry> entries_;
  std::list<std::string> lru_;  // front = most recently used
  uint64_t total_bytes_ = 0;
  uint64_t next_id_ = 1;
  uint64_t epoch_ = 1;
};

}  // namespace jpar

#endif  // JPAR_STORAGE_STORAGE_TIER_H_
