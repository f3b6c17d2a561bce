#ifndef PERFBENCH_HARNESS_TRACER_H_
#define PERFBENCH_HARNESS_TRACER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"

namespace perfbench {

/// Spans around the harness's calls into the program's public API. A
/// span names the layer call, carries the id of the request it serves
/// and of the span that caused it, and its start and end on the steady
/// clock. Spans stay in memory until WriteJsonl() at the end of a run.
/// Recording happens only while active, so a traced run can alternate
/// traced and untraced rounds. Thread-safe.
class Tracer {
 public:
  struct Span {
    uint64_t request = 0;
    uint64_t id = 0;
    uint64_t parent = 0;  // 0 = the request's root
    const char* name = "";
    int64_t start_ns = 0;
    int64_t end_ns = 0;
  };

  /// Records one span on destruction; inert when the tracer was inactive
  /// at construction.
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name, uint64_t request,
          uint64_t parent);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    uint64_t id() const { return span_.id; }

   private:
    Tracer* tracer_;  // null when inert
    Span span_;
  };

  void set_active(bool active) { active_.store(active); }
  bool active() const { return active_.load(); }

  uint64_t NewRequest() { return next_request_.fetch_add(1); }

  jpar::Status WriteJsonl(const std::string& path) const;

 private:
  static int64_t NowNs() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  std::atomic<bool> active_{false};
  std::atomic<uint64_t> next_request_{1};
  std::atomic<uint64_t> next_span_{1};
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_TRACER_H_
