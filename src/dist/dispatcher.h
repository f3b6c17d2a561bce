#ifndef JPAR_DIST_DISPATCHER_H_
#define JPAR_DIST_DISPATCHER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "dist/exchange.h"
#include "dist/fragment.h"
#include "dist/protocol.h"
#include "dist/replay.h"
#include "dist/wire.h"

namespace jpar {

/// Cluster topology, failure-detection, and recovery knobs
/// (DESIGN.md §11–§12).
struct DistOptions {
  /// Worker processes to spawn locally over socketpairs (the test and
  /// single-host deployment). Dead local workers are respawned at the
  /// start of the next query (and mid-query during fragment retry).
  int local_workers = 0;
  /// Already-running workers to attach by endpoint ("host:port" or
  /// "unix:<path>"); appended after the locally spawned ranks.
  std::vector<std::string> endpoints;
  /// Worker executable for local spawns; empty falls back to the
  /// JPAR_WORKER_BIN environment variable.
  std::string worker_binary;
  /// Initial send credits per direction of each worker connection; the
  /// in-flight exchange data is bounded by credit_window × frame_bytes.
  uint32_t credit_window = 64;
  /// Ping a busy worker after this much silence.
  int heartbeat_ms = 1000;
  /// Declare a worker lost (kWorkerLost) after this much silence.
  int worker_timeout_ms = 10000;
  /// After a cancel broadcast, how long to wait for workers to
  /// acknowledge with kOutputEof before force-dropping them.
  int drain_timeout_ms = 2000;
  /// Times a lost fragment may be re-dispatched (per stage, across all
  /// ranks) before the query fails with kWorkerLost. 0 — the default —
  /// disables recovery: any worker loss surfaces immediately, the
  /// pre-§12 behavior. Recompilation is deterministic and retried
  /// fragments replay their recorded inputs, so a retry re-executes
  /// the exact same fragment. A query's start-up (spawn, hello,
  /// catalog sync) has a budget of its own of the same size.
  int max_fragment_retries = 0;
  /// Base backoff before re-dispatching a lost fragment; doubles per
  /// consecutive retry of the same stage (capped at worker_timeout_ms).
  int retry_backoff_ms = 100;
  /// Memory budget for the dispatcher's replay buffer (completed
  /// stages' output frames, kept for retry replay); stages beyond the
  /// budget overflow to disk via SpillManager (counted as
  /// ExecStats::replay_spill_bytes). The buffer is also what the final
  /// gather reads, so it exists even with retries disabled.
  uint64_t replay_memory_bytes = 64ull << 20;
  /// Test hook fired before each round dispatch with (stage_id,
  /// attempt); attempt 0 is the first dispatch of that stage. Lets the
  /// chaos tests place kills deterministically. Must be thread-safe
  /// against worker reader threads (it runs on the Run() thread).
  std::function<void(int stage_id, int attempt)> test_round_hook;
  /// Test hook fired with (rank, pid) right after a local worker is
  /// forked, before the dispatcher awaits its hello. Lets the chaos
  /// tests kill a worker during start-up. Runs on the thread that
  /// starts the workers.
  std::function<void(int rank, pid_t pid)> test_spawn_hook;

  bool enabled() const { return local_workers > 0 || !endpoints.empty(); }
};

/// The ISSUE/ROADMAP name for the dispatcher's option set.
using ClusterOptions = DistOptions;

/// Rejects non-positive timing/window knobs (and a negative retry
/// budget) with kInvalidArgument — a zero heartbeat or drain timeout
/// would spin or hang instead of failing visibly. Checked by
/// Cluster::Start() and Run().
Status ValidateDistOptions(const DistOptions& options);

/// The dispatcher: owns the worker connections and runs distributed
/// queries round by round — one fragment stage per round, every worker
/// running its rank's fragment, all shuffle traffic routed through the
/// dispatcher (star topology, ordered by source rank so results are
/// byte-identical to the in-process exchange).
///
/// Thread-safe: Run() serializes distributed queries internally; the
/// per-worker reader threads handle frames, credits, and completion
/// concurrently with the sender side.
class Cluster {
 public:
  explicit Cluster(DistOptions options) : options_(std::move(options)) {}
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  /// Spawns/attaches and handshakes all configured workers. Also called
  /// lazily by Run(); exposed so callers can fail fast at startup.
  Status Start();

  /// Sends kShutdown, reaps local worker processes (SIGKILL after
  /// drain_timeout_ms), and joins reader threads. Idempotent.
  void Stop();

  int worker_count() const {
    return options_.local_workers + static_cast<int>(options_.endpoints.size());
  }

  /// Whether this plan's shape can run distributed (see
  /// SplitPlanForDistribution); callers fall back to in-process
  /// execution when false.
  static bool CanDistribute(const PhysicalPlan& plan);

  /// Runs `compiled` (the compilation of `query` under `rules`) across
  /// the cluster and gathers the result. `catalog` is shipped to any
  /// worker whose replica is older than catalog->version(). `ctx` may
  /// be null; with a null ctx a positive exec.deadline_ms starts
  /// counting now. A worker that dies or goes silent mid-query is
  /// respawned and its fragment re-dispatched (with replayed inputs)
  /// up to max_fragment_retries times per stage, and one lost while the
  /// query starts its workers is respawned up to as many times; past
  /// the budget — or always, when the budget is 0 — the query yields
  /// kWorkerLost and local workers are respawned on the next query.
  Result<QueryOutput> Run(const std::string& query, const RuleOptions& rules,
                          const ExecOptions& exec,
                          const CompiledQuery& compiled,
                          const Catalog& catalog, QueryContext* ctx);

 private:
  struct Worker {
    int rank = 0;
    bool local = false;
    std::string endpoint;  // attached workers only
    Socket sock;
    std::mutex send_mu;
    std::thread reader;
    pid_t pid = -1;  // local child pid; -1 until hello (attached: remote pid)
    bool started = false;  // spawned or attached at least once

    // State below is guarded by Cluster::mu_ unless noted.
    bool alive = false;
    bool hello_seen = false;
    uint64_t synced_version = 0;
    bool sync_acked = false;
    Status death;  // why the connection died
    /// Last time the reader heard anything (atomic millis since epoch).
    std::atomic<int64_t> last_heard_ms{0};
    std::chrono::steady_clock::time_point last_ping{};
    /// Dispatcher -> worker data-frame credits (self-synchronized).
    CreditWindow send_window;
  };

  /// Per-round collection state, guarded by mu_. `out[src][bucket]`
  /// holds worker src's output frames for bucket, in arrival order
  /// (each worker sends its buckets in order on one connection).
  struct Round {
    bool active = false;
    int fanout = 1;
    std::vector<std::vector<std::vector<FrameMsg>>> out;
    std::vector<bool> done;
    std::vector<Status> status;
    std::vector<ExecStats> stats;
    int done_count = 0;
    uint64_t frames = 0;
    uint64_t bytes = 0;
    uint64_t replayed = 0;  // input frames re-sent on retry attempts
    /// When true, a rank lost to kWorkerLost does not set `failure`
    /// (the round completes and the lost ranks are re-dispatched);
    /// fragment-reported errors still fail the round immediately.
    bool retry_worker_lost = false;
    Status failure;  // first non-retryable failure
    QueryContext* ctx = nullptr;  // for exchange fault injection
  };

  /// Spawns or attaches every rank that is not alive and awaits its
  /// hello; a rank lost on the way is left dead and fails the call
  /// with kWorkerLost. Adds to *respawned (when non-null) each rank
  /// started again after an earlier incarnation.
  Status EnsureWorkers(uint64_t* respawned);
  Status SpawnLocal(Worker* worker);
  Status AttachRemote(Worker* worker);
  Status AwaitHello(Worker* worker);
  void DropWorker(Worker* worker, const Status& why);
  void ReapLocal(Worker* worker, bool graceful);

  Status SyncCatalog(const Catalog& catalog);

  /// Before a query's first round: EnsureWorkers, then SyncCatalog. A
  /// rank lost on the way (killed before its hello, say) is retried
  /// like a lost fragment — up to max_fragment_retries times, after
  /// the same backoff — and a retry's respawns count in
  /// stats->workers_respawned. Other failures return at once.
  Status StartQueryWorkers(const Catalog& catalog, QueryContext* ctx,
                           ExecStats* stats);
  /// Sleeps the backoff before retry `attempt` (1-based): doubling per
  /// attempt, capped at worker_timeout_ms, in slices so cancellation
  /// stays responsive.
  Status RetryBackoff(int attempt, QueryContext* ctx);

  /// One dispatch attempt of `stage` over the ranks in `ranks` (every
  /// other rank is treated as already complete — its output is banked
  /// in the spool from a previous attempt). Inputs are streamed from
  /// `spool`. Successful ranks' output buckets move into
  /// (*accum)[rank] and their fragment stats merge into *stats; ranks
  /// lost to kWorkerLost are appended to *lost. When `retry_allowed`,
  /// such losses do not fail the round — healthy ranks run to
  /// completion; any other failure cancels the round and is returned.
  /// `replay` marks a retry attempt (forwarded input frames count as
  /// frames_replayed).
  Status RunRound(const std::string& query, const RuleOptions& rules,
                  const ExecOptions& exec, const FragmentStage& stage,
                  int fanout, ReplaySpool* spool,
                  const std::vector<int>& ranks, bool retry_allowed,
                  bool replay, QueryContext* ctx, ExecStats* stats,
                  std::vector<std::vector<std::vector<FrameMsg>>>* accum,
                  std::vector<int>* lost);

  void SenderLoop(Worker* worker, const std::string& query,
                  const RuleOptions& rules, const ExecOptions& exec,
                  const FragmentStage& stage, int fanout,
                  double deadline_remaining_ms, ReplaySpool* spool,
                  bool replay, QueryContext* ctx);

  void ReaderLoop(Worker* worker);
  /// Fails the current round with a non-retryable error (the wait loop
  /// broadcasts the cancel). Used for dispatcher-side faults like
  /// replay-buffer I/O errors that are not any worker's fault.
  void FailRound(const Status& why);
  void OnOutputFrame(Worker* worker, FrameMsg frame);
  void OnOutputEof(Worker* worker, OutputEofMsg eof);

  /// Broadcast kCancel(code,message) to workers still busy this round.
  void CancelRound(const Status& why);

  DistOptions options_;
  std::mutex query_mu_;  // one distributed query at a time
  /// Per-query exchange credit window (guarded by query_mu_): the
  /// configured DistOptions::credit_window, shrunk when the plan's
  /// cost-model estimate says the result is small (DESIGN.md §15).
  /// Pure flow control — a window is pacing, never a row limit — so a
  /// wrong estimate costs throughput, not answers. 0 until first Run.
  uint32_t query_credit_window_ = 0;
  std::vector<std::unique_ptr<Worker>> workers_;
  bool started_ = false;
  bool stopped_ = false;

  std::mutex mu_;
  std::condition_variable cv_;
  Round round_;
};

}  // namespace jpar

#endif  // JPAR_DIST_DISPATCHER_H_
