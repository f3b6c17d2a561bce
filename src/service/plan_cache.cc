#include "service/plan_cache.h"

namespace jpar {

std::string PlanCache::Key(std::string_view query, const RuleOptions& rules,
                           const ExecOptions& exec, uint64_t cache_epoch) {
  std::string key;
  key.reserve(query.size() + 64);
  key.append(query);
  key.push_back('\n');
  // One character per rule toggle keeps the fingerprint readable in
  // debug dumps.
  key.push_back(rules.path_rules ? 'P' : 'p');
  key.push_back(rules.pipelining_rules ? 'L' : 'l');
  key.push_back(rules.pipelining_pushdown ? 'D' : 'd');
  key.push_back(rules.groupby_rules ? 'G' : 'g');
  key.push_back(rules.two_step_aggregation ? 'T' : 't');
  key.push_back(rules.join_rules ? 'J' : 'j');
  key.push_back(rules.index_rules ? 'I' : 'i');
  key.push_back(rules.scan_filter ? 'F' : 'f');
  key.push_back('|');
  key += std::to_string(exec.partitions);
  key.push_back(',');
  key += std::to_string(exec.partitions_per_node);
  key.push_back(',');
  key += std::to_string(exec.frame_bytes);
  // Translation itself depends on expr_mode (it decides whether plans
  // carry compiled bytecode), so it must key the cache; batch_size
  // rides along to keep stats comparable across cached hits.
  key.push_back(',');
  key += std::to_string(static_cast<int>(exec.expr_mode));
  key.push_back(',');
  key += std::to_string(exec.batch_size);
  // The storage mode picks the access path family and the stats mode
  // whether the cost model runs. The cache epoch pins the generation of
  // columns and sampled stats the plan was selected and costed against
  // (DESIGN.md §14, §15): fresh columns or samples and invalidations
  // advance it, so plans recompile rather than replay choices made
  // against a stale cache. Eventually consistent — the key is computed
  // before compilation, so what a run learns takes effect on the next.
  key.push_back(',');
  key += std::to_string(static_cast<int>(exec.storage_mode));
  key.push_back(',');
  key += std::to_string(static_cast<int>(exec.stats_mode));
  key.push_back('@');
  key += std::to_string(cache_epoch);
  return key;
}

std::shared_ptr<const CompiledQuery> PlanCache::Lookup(
    const std::string& key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it == index_.end()) {
    ++misses_;
    return nullptr;
  }
  ++hits_;
  lru_.splice(lru_.begin(), lru_, it->second);
  return it->second->plan;
}

void PlanCache::Insert(const std::string& key,
                       std::shared_ptr<const CompiledQuery> plan) {
  if (capacity_ == 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it != index_.end()) {
    // Concurrent compilers can race to insert the same key; keep the
    // newest plan and refresh recency.
    it->second->plan = std::move(plan);
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.push_front(Entry{key, std::move(plan)});
  index_[key] = lru_.begin();
  while (lru_.size() > capacity_) {
    index_.erase(lru_.back().key);
    lru_.pop_back();
    ++evictions_;
  }
}

void PlanCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  evictions_ += lru_.size();
  index_.clear();
  lru_.clear();
}

PlanCacheStats PlanCache::Stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  PlanCacheStats s;
  s.hits = hits_;
  s.misses = misses_;
  s.evictions = evictions_;
  s.entries = lru_.size();
  s.capacity = capacity_;
  return s;
}

}  // namespace jpar
