#include "service/query_service.h"

#include <utility>

#include "storage/storage_tier.h"

namespace jpar {

// ---------------------------------------------------------------------
// QueryTicket

void QueryTicket::Wait() const {
  std::unique_lock<std::mutex> lock(state_->mu);
  state_->cv.wait(lock, [this] { return state_->done; });
}

bool QueryTicket::done() const {
  std::lock_guard<std::mutex> lock(state_->mu);
  return state_->done;
}

Status QueryTicket::status() const {
  Wait();
  // After done, the state is immutable: no lock needed.
  return state_->status;
}

const QueryOutput& QueryTicket::output() const {
  Wait();
  return state_->output;
}

bool QueryTicket::plan_cache_hit() const {
  Wait();
  return state_->cache_hit;
}

void QueryTicket::Cancel() { state_->cancel->Cancel(); }

// ---------------------------------------------------------------------
// Session

QueryTicket Session::Submit(std::string query) {
  return service_->SubmitInternal(this, std::move(query), SubmitOptions());
}

QueryTicket Session::Submit(std::string query, const SubmitOptions& options) {
  return service_->SubmitInternal(this, std::move(query), options);
}

SessionStats Session::Stats() const {
  SessionStats s;
  s.submitted = submitted_.load();
  s.rejected = rejected_.load();
  s.succeeded = succeeded_.load();
  s.failed = failed_.load();
  return s;
}

// ---------------------------------------------------------------------
// QueryService

QueryService::QueryService(ServiceOptions options)
    : options_(std::move(options)),
      engine_(options_.engine),
      plan_cache_(options_.plan_cache_capacity),
      admission_(options_.memory_budget_bytes, options_.max_queue_depth),
      cluster_(options_.dist.enabled() ? new Cluster(options_.dist) : nullptr),
      pool_(options_.worker_threads) {}

QueryService::~QueryService() {
  Drain();
  pool_.Shutdown();
  if (cluster_) cluster_->Stop();
}

std::shared_ptr<Session> QueryService::CreateSession() {
  return CreateSession(options_.engine);
}

std::shared_ptr<Session> QueryService::CreateSession(
    const EngineOptions& options) {
  ++sessions_;
  return std::shared_ptr<Session>(
      new Session(this, next_session_id_.fetch_add(1), options));
}

void QueryService::Drain() {
  std::unique_lock<std::mutex> lock(drain_mu_);
  drain_cv_.wait(lock, [this] { return outstanding_ == 0; });
}

void QueryService::Complete(const std::shared_ptr<QueryTicket::State>& state,
                            Status status, QueryOutput output,
                            bool cache_hit) {
  {
    std::lock_guard<std::mutex> lock(state->mu);
    state->status = std::move(status);
    state->output = std::move(output);
    state->cache_hit = cache_hit;
    state->done = true;
  }
  state->cv.notify_all();
}

namespace {

/// Releases an admission reservation on scope exit — the ONLY way a
/// worker returns its queue slot and memory, so every exit path
/// (success, compile error, execution error, injected fault, cancel,
/// deadline) releases exactly once.
class AdmissionRelease {
 public:
  AdmissionRelease(AdmissionController* admission, uint64_t cost)
      : admission_(admission), cost_(cost) {}
  ~AdmissionRelease() { admission_->Finish(cost_); }

  AdmissionRelease(const AdmissionRelease&) = delete;
  AdmissionRelease& operator=(const AdmissionRelease&) = delete;

 private:
  AdmissionController* admission_;
  uint64_t cost_;
};

}  // namespace

QueryTicket QueryService::SubmitInternal(Session* session, std::string query,
                                         const SubmitOptions& submit) {
  ++submitted_;
  ++session->submitted_;

  QueryTicket ticket;
  std::shared_ptr<QueryTicket::State> state = ticket.state_;
  const EngineOptions& opts = session->options();

  // Admission: validate options, then reserve a queue slot and memory.
  // Spill-capable queries go through AdmitSoft: a tight service budget
  // shrinks their per-query soft budget instead of rejecting them.
  const bool spill_capable = opts.exec.spill == SpillMode::kEnabled;
  uint64_t cost = opts.exec.memory_limit_bytes > 0
                      ? opts.exec.memory_limit_bytes
                      : options_.default_query_cost_bytes;
  Status st = ValidateExecOptions(opts.exec);
  if (st.ok() && submit.deadline_ms < 0) {
    st = Status::InvalidArgument(
        "SubmitOptions::deadline_ms must be >= 0, got " +
        std::to_string(submit.deadline_ms));
  }
  if (st.ok()) {
    if (spill_capable) {
      uint64_t floor_bytes = options_.memory_budget_bytes / 16;
      if (floor_bytes < (1ull << 20)) floor_bytes = 1ull << 20;
      if (floor_bytes > cost) floor_bytes = cost;
      Result<uint64_t> grant = admission_.AdmitSoft(cost, floor_bytes);
      if (grant.ok()) {
        cost = *grant;
      } else {
        st = grant.status();
      }
    } else {
      st = admission_.Admit(cost);
    }
  }
  if (!st.ok()) {
    ++rejected_;
    ++session->rejected_;
    Complete(state, std::move(st), QueryOutput(), false);
    return ticket;
  }

  // The deadline clock starts now: time queued behind other work
  // counts against the submission, matching what a client timing out
  // on the call would observe.
  double deadline_ms =
      submit.deadline_ms > 0 ? submit.deadline_ms : opts.exec.deadline_ms;
  std::optional<std::chrono::steady_clock::time_point> deadline;
  if (deadline_ms > 0) {
    deadline = std::chrono::steady_clock::now() +
               std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                   std::chrono::duration<double, std::milli>(deadline_ms));
  }

  {
    std::lock_guard<std::mutex> lock(drain_mu_);
    ++outstanding_;
  }

  std::string key = PlanCache::Key(query, opts.rules, opts.exec,
                                   StorageManager::Instance().epoch());
  // The session is kept alive for the query's whole lifetime even if
  // the client drops its handle right after Submit().
  std::shared_ptr<Session> self = session->shared_from_this();
  pool_.Submit([this, self, state, query = std::move(query),
                key = std::move(key), cost, spill_capable, deadline]() {
    admission_.StartRunning();
    Status st;
    QueryOutput output;
    bool cache_hit = false;
    {
      // Scoped so the reservation is released before the ticket
      // completes: a client that observes done() must also observe the
      // queue slot and memory returned.
      AdmissionRelease release(&admission_, cost);
      if (options_.on_query_start) options_.on_query_start(query);
      EngineOptions opts = self->options();
      // A spill-capable query runs under the budget admission actually
      // granted it (possibly clipped below its request); derive the
      // operator budget from the grant so the global budget holds.
      if (spill_capable && options_.memory_budget_bytes != 0 &&
          (opts.exec.memory_limit_bytes == 0 ||
           cost < opts.exec.memory_limit_bytes)) {
        opts.exec.memory_limit_bytes = cost;
      }

      QueryContext ctx;
      ctx.set_cancellation(state->cancel);
      if (deadline.has_value()) ctx.set_deadline(*deadline);
      ctx.set_fault_injector(options_.fault_injector);

      // Cancelled or timed out while waiting for a worker: don't
      // compile, don't execute.
      st = ctx.Check("admission queue");

      std::shared_ptr<const CompiledQuery> plan;
      if (st.ok()) {
        plan = plan_cache_.Lookup(key);
        cache_hit = plan != nullptr;
        if (!cache_hit) {
          Result<CompiledQuery> compiled =
              engine_.Compile(query, opts.rules, opts.exec);
          if (compiled.ok()) {
            plan = std::make_shared<const CompiledQuery>(*std::move(compiled));
            plan_cache_.Insert(key, plan);
          } else {
            st = compiled.status();
          }
        }
      }

      if (st.ok()) {
        Result<QueryOutput> result = Status::Internal("unreachable");
        if (cluster_ && Cluster::CanDistribute(plan->physical)) {
          ++distributed_;
          result = cluster_->Run(query, opts.rules, opts.exec, *plan,
                                 *engine_.catalog(), &ctx);
          if (!result.ok() &&
              result.status().code() == StatusCode::kWorkerLost &&
              options_.dist_fallback_on_worker_loss &&
              ctx.Check("dist fallback").ok()) {
            // Graceful degradation (DESIGN.md §12): the cluster's
            // retry budget is spent, but the query itself is fine —
            // finish it in-process rather than failing the client.
            ++dist_fallbacks_;
            ++dist_worker_lost_fallbacks_;
            result = engine_.Execute(*plan, opts.exec, &ctx);
          }
        } else {
          if (cluster_) ++dist_fallbacks_;
          result = engine_.Execute(*plan, opts.exec, &ctx);
        }
        if (result.ok()) {
          {
            std::lock_guard<std::mutex> lock(totals_mu_);
            totals_.MergeFrom(result->stats);
          }
          output = *std::move(result);
        } else {
          st = result.status();
        }
      }
    }

    if (st.ok()) {
      ++succeeded_;
      ++self->succeeded_;
    } else {
      ++failed_;
      ++self->failed_;
      if (st.code() == StatusCode::kCancelled) ++cancelled_;
      if (st.code() == StatusCode::kDeadlineExceeded) ++deadline_exceeded_;
    }
    Complete(state, std::move(st), std::move(output), cache_hit);
    {
      std::lock_guard<std::mutex> lock(drain_mu_);
      --outstanding_;
    }
    drain_cv_.notify_all();
  });
  return ticket;
}

ServiceMetrics QueryService::Metrics() const {
  ServiceMetrics m;
  m.plan_cache = plan_cache_.Stats();
  m.admission = admission_.Stats();
  m.sessions = sessions_.load();
  m.submitted = submitted_.load();
  m.rejected = rejected_.load();
  m.succeeded = succeeded_.load();
  m.failed = failed_.load();
  m.cancelled = cancelled_.load();
  m.deadline_exceeded = deadline_exceeded_.load();
  m.distributed = distributed_.load();
  m.dist_fallbacks = dist_fallbacks_.load();
  m.dist_worker_lost_fallbacks = dist_worker_lost_fallbacks_.load();
  {
    std::lock_guard<std::mutex> lock(totals_mu_);
    m.totals = totals_;
  }
  return m;
}

std::string ServiceMetrics::ToString() const {
  std::string out;
  auto line = [&out](const char* name, auto v) {
    out += "  ";
    out += name;
    out += ": ";
    out += std::to_string(v);
    out += "\n";
  };
  out += "queries:\n";
  line("submitted", submitted);
  line("succeeded", succeeded);
  line("failed", failed);
  line("cancelled", cancelled);
  line("deadline exceeded", deadline_exceeded);
  line("rejected", rejected);
  line("sessions", sessions);
  line("distributed", distributed);
  line("distributed fallbacks", dist_fallbacks);
  line("worker-lost fallbacks", dist_worker_lost_fallbacks);
  out += "execution totals:\n";
  totals.ForEachCounter(
      [&line](const char* name, auto v, CounterMerge merge) {
        if (merge != CounterMerge::kCaller) line(name, v);
      });
  out += "plan cache:\n";
  line("hits", plan_cache.hits);
  line("misses", plan_cache.misses);
  line("evictions", plan_cache.evictions);
  line("entries", plan_cache.entries);
  line("capacity", plan_cache.capacity);
  out += "admission:\n";
  line("admitted", admission.admitted);
  line("rejected (queue full)", admission.rejected_queue_full);
  line("rejected (memory)", admission.rejected_memory);
  line("soft-budget grants clipped", admission.soft_clipped);
  line("queued peak", admission.queued_peak);
  line("reserved bytes", admission.reserved_bytes);
  return out;
}

}  // namespace jpar
