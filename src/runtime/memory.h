#ifndef JPAR_RUNTIME_MEMORY_H_
#define JPAR_RUNTIME_MEMORY_H_

#include <atomic>
#include <cstdint>

#include "common/status.h"

namespace jpar {

/// Tracks retained bytes of the engine's materializing structures (group
/// tables, join build sides, materialized sequences, exchange buffers).
/// Used for the paper's Table 3 memory comparison and to emulate the
/// Spark-SQL OOM cliff in the MemTable baseline. Thread-safe.
///
/// Two limit disciplines (DESIGN.md §10):
///   hard (default) — Allocate fails with kResourceExhausted the moment
///     the limit is crossed; the pre-spilling fail-fast semantics.
///   soft — the limit is a *budget*: Allocate always succeeds (usage and
///     peak still tracked) and spill-capable operators poll over_limit()
///     / ShareOf() to decide when to flush state to disk. Operators that
///     cannot spill overrun the budget instead of failing the query.
class MemoryTracker {
 public:
  /// limit_bytes == 0 means unlimited.
  explicit MemoryTracker(uint64_t limit_bytes = 0, bool soft = false)
      : limit_(limit_bytes), soft_(soft) {}

  /// One task's view of `parent`: every charge and release also applies
  /// to the parent, whose limit and discipline decide, while
  /// current_bytes() counts only this task's bytes. Concurrent partition
  /// tasks of one operator each charge through their own view, so a
  /// finished task returns exactly what it charged and never a running
  /// sibling's bytes.
  explicit MemoryTracker(MemoryTracker* parent)
      : limit_(parent->limit_), soft_(parent->soft_), parent_(parent) {}

  Status Allocate(uint64_t bytes) {
    uint64_t now = current_.fetch_add(bytes) + bytes;
    // Lock-free peak update.
    uint64_t peak = peak_.load();
    while (now > peak && !peak_.compare_exchange_weak(peak, now)) {
    }
    if (parent_ != nullptr) return parent_->Allocate(bytes);
    if (!soft_ && limit_ != 0 && now > limit_) {
      return Status::ResourceExhausted(
          "memory limit exceeded: " + std::to_string(now) + " > " +
          std::to_string(limit_) + " bytes");
    }
    return Status::OK();
  }

  void Release(uint64_t bytes) {
    current_.fetch_sub(bytes);
    if (parent_ != nullptr) parent_->Release(bytes);
  }

  /// Returns everything still charged through this tracker.
  void ReleaseAll() { Release(current_.load()); }

  uint64_t current_bytes() const { return current_.load(); }
  uint64_t peak_bytes() const { return peak_.load(); }
  uint64_t limit_bytes() const { return limit_; }
  bool soft() const { return soft_; }
  bool over_limit() const {
    return limit_ != 0 && current_.load() > limit_;
  }

  /// Equal per-operator-instance slice of the budget (e.g. one slice
  /// per partition task of a group-by stage). 0 = unlimited. Never
  /// returns 0 for a nonzero limit so a tiny budget split many ways
  /// still triggers spilling instead of disabling it.
  uint64_t ShareOf(size_t instances) const {
    if (limit_ == 0) return 0;
    if (instances < 1) instances = 1;
    uint64_t share = limit_ / instances;
    return share > 0 ? share : 1;
  }

 private:
  std::atomic<uint64_t> current_{0};
  std::atomic<uint64_t> peak_{0};
  uint64_t limit_;
  bool soft_;
  MemoryTracker* parent_ = nullptr;  // not owned; null = a root tracker
};

}  // namespace jpar

#endif  // JPAR_RUNTIME_MEMORY_H_
