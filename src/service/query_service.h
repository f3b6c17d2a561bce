#ifndef JPAR_SERVICE_QUERY_SERVICE_H_
#define JPAR_SERVICE_QUERY_SERVICE_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>

#include "core/engine.h"
#include "dist/dispatcher.h"
#include "runtime/query_context.h"
#include "service/admission.h"
#include "service/plan_cache.h"
#include "service/worker_pool.h"

namespace jpar {

class QueryService;
class Session;

/// Configuration of a QueryService.
struct ServiceOptions {
  /// Defaults for sessions created without explicit overrides; the
  /// catalog lives on the service's engine regardless.
  EngineOptions engine;
  /// Worker threads executing admitted queries concurrently.
  int worker_threads = 4;
  /// Maximum cached compiled plans (0 disables the cache).
  size_t plan_cache_capacity = 128;
  /// Maximum queries admitted but not yet running (the submission
  /// queue). Further submissions are rejected with kUnavailable.
  uint64_t max_queue_depth = 64;
  /// Global memory budget across in-flight queries; 0 = unlimited.
  /// Submissions whose reservation does not fit are rejected with
  /// kResourceExhausted — unless the session enables spilling
  /// (ExecOptions::spill == kEnabled), in which case admission clips
  /// the reservation to what is left of the budget (floored at
  /// max(1 MiB, budget/16)) and runs the query with that smaller soft
  /// budget instead of rejecting it (DESIGN.md §10).
  uint64_t memory_budget_bytes = 0;
  /// Reservation charged for a query whose ExecOptions does not set
  /// memory_limit_bytes.
  uint64_t default_query_cost_bytes = 16ull << 20;
  /// Instrumentation hook invoked on a worker thread just before a
  /// query starts executing (tracing, fault injection, test
  /// synchronization). Must be thread-safe.
  std::function<void(std::string_view query)> on_query_start;
  /// Fault injector threaded into every executed query's
  /// QueryContext. Not owned; must outlive the service. Null (the
  /// default) injects nothing — used by the fault-injection tests and
  /// bench_fault_recovery.
  FaultInjector* fault_injector = nullptr;
  /// Distributed execution (DESIGN.md §11–§12). When enabled, queries
  /// whose plan shape supports it run across the worker cluster; the
  /// rest fall back to in-process execution (counted as
  /// dist_fallbacks). Worker failures are first retried inside the
  /// cluster (DistOptions::max_fragment_retries); what happens when
  /// the retry budget is exhausted is governed by
  /// dist_fallback_on_worker_loss below.
  DistOptions dist;
  /// Graceful degradation: when a distributed query fails with
  /// kWorkerLost (retry budget exhausted or retries disabled), re-run
  /// it in-process instead of surfacing the error — the client sees a
  /// successful answer, the operator sees dist_worker_lost_fallbacks.
  /// Set false to surface kWorkerLost to the client (the pre-§12
  /// behavior). Cancelled/expired queries are never re-run.
  bool dist_fallback_on_worker_loss = true;
};

/// Per-submission knobs (Session::Submit's second argument).
struct SubmitOptions {
  /// Deadline in milliseconds measured from Submit() — time spent
  /// waiting in the admission queue counts against it. 0 falls back to
  /// the session's ExecOptions::deadline_ms (also measured from
  /// Submit); negative is rejected with kInvalidArgument.
  double deadline_ms = 0;
};

/// One query's progress through the service: a future-like handle
/// fulfilled by a worker thread (or immediately, for submissions
/// rejected at admission). Cheap to copy; all copies share one state.
class QueryTicket {
 public:
  /// Blocks until the query completes (or was rejected).
  void Wait() const;
  bool done() const;

  /// Requests cooperative cancellation. Never blocks: execution stops
  /// at its next lifecycle check (within one batch of work) and the
  /// ticket completes with kCancelled; a query still waiting for a
  /// worker is cancelled before it executes. Idempotent, safe from any
  /// thread, a no-op once the query is done.
  void Cancel();

  /// The final status. Blocks until done.
  Status status() const;
  /// Result rows + stats; only meaningful when status().ok(). Blocks
  /// until done.
  const QueryOutput& output() const;
  /// True when execution reused a cached plan. Blocks until done.
  bool plan_cache_hit() const;

 private:
  friend class QueryService;

  struct State {
    mutable std::mutex mu;
    mutable std::condition_variable cv;
    bool done = false;
    Status status;
    QueryOutput output;
    bool cache_hit = false;
    /// Shared with the worker's QueryContext; created eagerly so
    /// Cancel() works on every ticket (rejected ones included).
    std::shared_ptr<CancellationToken> cancel =
        std::make_shared<CancellationToken>();
  };

  QueryTicket() : state_(std::make_shared<State>()) {}

  std::shared_ptr<State> state_;
};

/// Per-session counters (a snapshot; the session keeps counting).
struct SessionStats {
  uint64_t submitted = 0;
  uint64_t rejected = 0;   // failed admission or validation
  uint64_t succeeded = 0;
  uint64_t failed = 0;     // ran but returned an error
};

/// A client's handle onto the service: per-session engine options
/// (rule configuration and execution options) plus counters. Sessions
/// are independent — two sessions can run different rule sets against
/// the shared catalog concurrently. Thread-safe; must not outlive the
/// QueryService that created it.
class Session : public std::enable_shared_from_this<Session> {
 public:
  /// Submits a query for asynchronous execution. Never blocks on query
  /// execution: rejected submissions return an already-completed
  /// ticket.
  QueryTicket Submit(std::string query);
  /// Submit with per-submission options (e.g. a deadline).
  QueryTicket Submit(std::string query, const SubmitOptions& options);

  uint64_t id() const { return id_; }
  const EngineOptions& options() const { return options_; }
  SessionStats Stats() const;

 private:
  friend class QueryService;

  Session(QueryService* service, uint64_t id, EngineOptions options)
      : service_(service), id_(id), options_(std::move(options)) {}

  QueryService* service_;
  const uint64_t id_;
  const EngineOptions options_;
  std::atomic<uint64_t> submitted_{0};
  std::atomic<uint64_t> rejected_{0};
  std::atomic<uint64_t> succeeded_{0};
  std::atomic<uint64_t> failed_{0};
};

/// A point-in-time snapshot of every service counter.
struct ServiceMetrics {
  PlanCacheStats plan_cache;
  AdmissionStats admission;
  uint64_t sessions = 0;
  uint64_t submitted = 0;  // all Submit() calls
  uint64_t rejected = 0;   // failed validation or admission
  uint64_t succeeded = 0;
  uint64_t failed = 0;     // executed but returned an error
  // Failure breakdown (both are included in `failed`).
  uint64_t cancelled = 0;          // ended with kCancelled
  uint64_t deadline_exceeded = 0;  // ended with kDeadlineExceeded
  // Distributed execution (zero unless ServiceOptions::dist enabled).
  uint64_t distributed = 0;      // ran on the worker cluster
  uint64_t dist_fallbacks = 0;   // ran in-process instead (any reason)
  uint64_t dist_worker_lost_fallbacks = 0;  // kWorkerLost → in-process rerun
  /// The ExecStats counters of every successfully completed query
  /// (a query that fails outright reports no stats), folded by each
  /// counter's merge rule; CounterMerge::kCaller counters stay 0.
  ExecCounters totals;

  /// Multi-line human-readable dump (used by bench_service_throughput).
  std::string ToString() const;
};

/// A thread-safe, multi-client query service in front of the Engine —
/// the reproduction's stand-in for VXQuery's client/coordinator tier
/// (queries arrive concurrently, are admitted, scheduled onto the
/// dataflow runtime, and answered asynchronously):
///
///   QueryService service(options);
///   service.catalog()->RegisterCollection("/sensors", ...);
///   auto session = service.CreateSession();
///   QueryTicket t = session->Submit("count(collection(\"/sensors\"))");
///   t.Wait();
///
/// Submission path: validate ExecOptions (kInvalidArgument) → admission
/// control (bounded queue → kUnavailable; memory budget →
/// kResourceExhausted) → worker pool → plan cache lookup → compile on
/// miss → execute. Register catalog data before serving queries; the
/// Engine is shared const across workers after that.
class QueryService {
 public:
  explicit QueryService(ServiceOptions options = ServiceOptions());
  /// Drains in-flight queries, then stops the workers.
  ~QueryService();

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// The shared catalog. Register collections/documents/indexes before
  /// submitting queries.
  Catalog* catalog() { return engine_.catalog(); }
  const Engine& engine() const { return engine_; }

  /// Creates a session with the service-default engine options, or
  /// with explicit per-session options (e.g. a different rule set or
  /// partition count).
  std::shared_ptr<Session> CreateSession();
  std::shared_ptr<Session> CreateSession(const EngineOptions& options);

  /// Blocks until every query submitted so far has completed.
  void Drain();

  ServiceMetrics Metrics() const;

 private:
  friend class Session;

  QueryTicket SubmitInternal(Session* session, std::string query,
                             const SubmitOptions& submit);
  void Complete(const std::shared_ptr<QueryTicket::State>& state, Status status,
                QueryOutput output, bool cache_hit);

  ServiceOptions options_;
  Engine engine_;
  PlanCache plan_cache_;
  AdmissionController admission_;

  std::atomic<uint64_t> next_session_id_{1};
  std::atomic<uint64_t> sessions_{0};
  std::atomic<uint64_t> submitted_{0};
  std::atomic<uint64_t> rejected_{0};
  std::atomic<uint64_t> succeeded_{0};
  std::atomic<uint64_t> failed_{0};
  std::atomic<uint64_t> cancelled_{0};
  std::atomic<uint64_t> deadline_exceeded_{0};
  std::atomic<uint64_t> distributed_{0};
  std::atomic<uint64_t> dist_fallbacks_{0};
  std::atomic<uint64_t> dist_worker_lost_fallbacks_{0};
  mutable std::mutex totals_mu_;
  ExecCounters totals_;  // guarded by totals_mu_

  /// Non-null iff options_.dist.enabled(). Declared before pool_ so
  /// worker threads (which call into it) stop before it is destroyed;
  /// ~QueryService additionally calls Stop() after the pool shutdown.
  std::unique_ptr<Cluster> cluster_;

  std::mutex drain_mu_;
  std::condition_variable drain_cv_;
  uint64_t outstanding_ = 0;

  // Last member: workers must stop before anything they touch is
  // destroyed.
  WorkerPool pool_;
};

}  // namespace jpar

#endif  // JPAR_SERVICE_QUERY_SERVICE_H_
