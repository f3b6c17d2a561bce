#ifndef JPAR_SERVICE_PLAN_CACHE_H_
#define JPAR_SERVICE_PLAN_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>

#include "core/engine.h"

namespace jpar {

/// Counters exposed through QueryService::Metrics().
struct PlanCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  uint64_t entries = 0;   // current size
  uint64_t capacity = 0;  // configured maximum
};

/// A thread-safe LRU cache of compiled queries, keyed by the query text
/// plus a fingerprint of every option that influences compilation or
/// the physical plan. Repeated queries — the common case for a service
/// fronting dashboards or API endpoints — skip lex/parse/rewrite/lower
/// entirely.
///
/// Entries are shared_ptr<const CompiledQuery>: a cached plan can be
/// executing on several workers while eviction drops the cache's own
/// reference. The Executor treats plans as immutable descriptors, so
/// concurrent execution of one plan is safe.
class PlanCache {
 public:
  /// capacity == 0 disables caching (every lookup is a miss, inserts
  /// are dropped).
  explicit PlanCache(size_t capacity) : capacity_(capacity) {}

  PlanCache(const PlanCache&) = delete;
  PlanCache& operator=(const PlanCache&) = delete;

  /// A stable cache key for (query, rules, exec). ExecOptions
  /// participates because two_step_aggregation (mirrored into the
  /// physical translation) and partitioning feed plan-shape decisions;
  /// fingerprinting all of it keeps the key trivially correct as the
  /// planner grows more option-sensitive. `cache_epoch` is the
  /// StorageManager epoch (DESIGN.md §14, §15): it advances whenever
  /// cached columns or sampled stats are installed, dropped stale, or
  /// cleared, so a plan compiled against one cache generation — its
  /// access paths and its cost-model choices — is never replayed
  /// against another.
  static std::string Key(std::string_view query, const RuleOptions& rules,
                         const ExecOptions& exec, uint64_t cache_epoch = 0);

  /// Returns the cached plan and promotes it to most-recently-used, or
  /// nullptr on a miss. Counts a hit or miss.
  std::shared_ptr<const CompiledQuery> Lookup(const std::string& key);

  /// Inserts (or refreshes) an entry, evicting the least-recently-used
  /// entry when over capacity.
  void Insert(const std::string& key,
              std::shared_ptr<const CompiledQuery> plan);

  /// Drops all entries (counted as evictions).
  void Clear();

  PlanCacheStats Stats() const;

 private:
  struct Entry {
    std::string key;
    std::shared_ptr<const CompiledQuery> plan;
  };

  mutable std::mutex mu_;
  size_t capacity_;
  // Front = most recently used.
  std::list<Entry> lru_;
  std::unordered_map<std::string, std::list<Entry>::iterator> index_;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t evictions_ = 0;
};

}  // namespace jpar

#endif  // JPAR_SERVICE_PLAN_CACHE_H_
