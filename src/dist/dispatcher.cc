#include "dist/dispatcher.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <utility>

namespace jpar {

namespace {

int64_t NowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double RemainingMs(const QueryContext* ctx) {
  if (ctx == nullptr || !ctx->has_deadline()) return 0;
  return std::chrono::duration<double, std::milli>(
             ctx->deadline() - std::chrono::steady_clock::now())
      .count();
}

// Serialized send on one worker connection (reader and sender threads
// both write: credits/pings vs. fragments/frames).
Status SendTo(std::mutex* mu, Socket* sock, MsgType type,
              std::string_view payload) {
  std::lock_guard<std::mutex> lock(*mu);
  return WriteMessage(sock, static_cast<uint8_t>(type), payload);
}

}  // namespace

Status ValidateDistOptions(const DistOptions& options) {
  if (options.credit_window < 1) {
    return Status::InvalidArgument("DistOptions::credit_window must be >= 1");
  }
  if (options.heartbeat_ms <= 0) {
    return Status::InvalidArgument("DistOptions::heartbeat_ms must be > 0");
  }
  if (options.worker_timeout_ms <= 0) {
    return Status::InvalidArgument(
        "DistOptions::worker_timeout_ms must be > 0");
  }
  if (options.drain_timeout_ms <= 0) {
    return Status::InvalidArgument("DistOptions::drain_timeout_ms must be > 0");
  }
  if (options.max_fragment_retries < 0) {
    return Status::InvalidArgument(
        "DistOptions::max_fragment_retries must be >= 0");
  }
  if (options.retry_backoff_ms <= 0) {
    return Status::InvalidArgument(
        "DistOptions::retry_backoff_ms must be > 0");
  }
  return Status::OK();
}

Cluster::~Cluster() { Stop(); }

bool Cluster::CanDistribute(const PhysicalPlan& plan) {
  return SplitPlanForDistribution(plan).ok();
}

Status Cluster::Start() {
  std::lock_guard<std::mutex> qlock(query_mu_);
  return EnsureWorkers(nullptr);
}

void Cluster::Stop() {
  std::lock_guard<std::mutex> qlock(query_mu_);
  if (stopped_) return;
  stopped_ = true;
  for (auto& w : workers_) {
    bool alive;
    {
      std::lock_guard<std::mutex> lock(mu_);
      alive = w->alive;
    }
    if (alive) {
      (void)SendTo(&w->send_mu, &w->sock, MsgType::kShutdown, "");
    }
  }
  for (auto& w : workers_) {
    w->sock.ShutdownBoth();
    if (w->reader.joinable()) w->reader.join();
  }
  for (auto& w : workers_) {
    if (w->local) ReapLocal(w.get(), /*graceful=*/true);
    w->sock.Close();
  }
  workers_.clear();
}

Status Cluster::EnsureWorkers(uint64_t* respawned) {
  if (stopped_) return Status::Internal("cluster already stopped");
  JPAR_RETURN_NOT_OK(ValidateDistOptions(options_));
  const int total = worker_count();
  if (total <= 0) {
    return Status::InvalidArgument(
        "distributed execution needs local_workers > 0 or endpoints");
  }
  if (workers_.empty()) {
    workers_.reserve(static_cast<size_t>(total));
    for (int rank = 0; rank < total; ++rank) {
      auto w = std::make_unique<Worker>();
      w->rank = rank;
      w->local = rank < options_.local_workers;
      if (!w->local) {
        w->endpoint = options_.endpoints[static_cast<size_t>(
            rank - options_.local_workers)];
      }
      workers_.push_back(std::move(w));
    }
  }
  for (auto& w : workers_) {
    bool alive;
    {
      std::lock_guard<std::mutex> lock(mu_);
      alive = w->alive;
    }
    if (alive) continue;
    // Tear down the previous incarnation, then respawn/reconnect.
    w->sock.ShutdownBoth();
    if (w->reader.joinable()) w->reader.join();
    if (w->local) ReapLocal(w.get(), /*graceful=*/false);
    w->sock.Close();
    {
      std::lock_guard<std::mutex> lock(mu_);
      w->hello_seen = false;
      w->sync_acked = false;
      w->synced_version = 0;
      w->death = Status::OK();
    }
    JPAR_RETURN_NOT_OK(w->local ? SpawnLocal(w.get()) : AttachRemote(w.get()));
    if (options_.test_spawn_hook && w->local) {
      options_.test_spawn_hook(w->rank, w->pid);
    }
    const bool again = w->started;
    w->started = true;
    {
      std::lock_guard<std::mutex> lock(mu_);
      w->alive = true;
    }
    w->last_heard_ms.store(NowMs());
    w->reader = std::thread(&Cluster::ReaderLoop, this, w.get());
    Status hello = AwaitHello(w.get());
    if (hello.ok()) {
      Status ack = SendTo(&w->send_mu, &w->sock, MsgType::kHelloAck, "");
      if (!ack.ok()) {
        hello = Status::WorkerLost("hello ack to worker " +
                                   std::to_string(w->rank) +
                                   " failed: " + ack.ToString());
      }
    }
    if (!hello.ok()) {
      // Leave the rank dead, not half-started, so the next
      // EnsureWorkers respawns it even when the hello only timed out.
      DropWorker(w.get(), hello);
      if (w->reader.joinable()) w->reader.join();
      return hello;
    }
    if (again && respawned != nullptr) ++*respawned;
  }
  started_ = true;
  return Status::OK();
}

Status Cluster::SpawnLocal(Worker* worker) {
  std::string binary = options_.worker_binary;
  if (binary.empty()) {
    const char* env = std::getenv("JPAR_WORKER_BIN");
    if (env != nullptr) binary = env;
  }
  if (binary.empty()) {
    return Status::InvalidArgument(
        "cannot spawn local worker: set DistOptions::worker_binary or "
        "JPAR_WORKER_BIN");
  }
  JPAR_ASSIGN_OR_RETURN(auto pair, Socket::Pair());
  // Close-on-exec on both ends so future forks don't leak this
  // connection into sibling workers (a leaked fd would keep the
  // connection half-open after the dispatcher closes it).
  ::fcntl(pair.first.fd(), F_SETFD, FD_CLOEXEC);
  ::fcntl(pair.second.fd(), F_SETFD, FD_CLOEXEC);
  pid_t pid = ::fork();
  if (pid < 0) {
    return Status::IOError("fork failed for local worker");
  }
  if (pid == 0) {
    // Child: expose its socketpair end as fd 3 and exec the worker.
    // Only async-signal-safe calls between fork and exec.
    int fd = pair.second.fd();
    if (fd == 3) {
      ::fcntl(3, F_SETFD, 0);  // clear CLOEXEC so it survives exec
    } else {
      ::dup2(fd, 3);  // the duplicate is not close-on-exec
    }
    ::execl(binary.c_str(), "jpar_worker", "--socket-fd", "3",
            static_cast<char*>(nullptr));
    ::_exit(127);
  }
  worker->pid = pid;
  worker->sock = std::move(pair.first);
  return Status::OK();
}

Status Cluster::AttachRemote(Worker* worker) {
  JPAR_ASSIGN_OR_RETURN(worker->sock, Socket::Connect(worker->endpoint));
  ::fcntl(worker->sock.fd(), F_SETFD, FD_CLOEXEC);
  return Status::OK();
}

Status Cluster::AwaitHello(Worker* worker) {
  std::unique_lock<std::mutex> lock(mu_);
  bool ok = cv_.wait_for(
      lock, std::chrono::milliseconds(options_.worker_timeout_ms),
      [&] { return worker->hello_seen || !worker->alive; });
  if (!ok || !worker->alive) {
    Status death = worker->death;
    lock.unlock();
    return Status::WorkerLost(
        "worker " + std::to_string(worker->rank) + " did not say hello" +
        (death.ok() ? "" : ": " + death.ToString()));
  }
  return Status::OK();
}

void Cluster::ReapLocal(Worker* worker, bool graceful) {
  if (worker->pid <= 0) return;
  int status = 0;
  if (graceful) {
    auto deadline = std::chrono::steady_clock::now() +
                    std::chrono::milliseconds(options_.drain_timeout_ms);
    while (std::chrono::steady_clock::now() < deadline) {
      pid_t r = ::waitpid(worker->pid, &status, WNOHANG);
      if (r != 0) {
        worker->pid = -1;
        return;
      }
      ::usleep(10 * 1000);
    }
  } else {
    pid_t r = ::waitpid(worker->pid, &status, WNOHANG);
    if (r != 0) {
      worker->pid = -1;
      return;
    }
  }
  ::kill(worker->pid, SIGKILL);
  ::waitpid(worker->pid, &status, 0);
  worker->pid = -1;
}

void Cluster::DropWorker(Worker* worker, const Status& why) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (worker->death.ok()) worker->death = why;
  }
  worker->sock.ShutdownBoth();  // the reader exits and finalizes state
}

void Cluster::ReaderLoop(Worker* worker) {
  Status death = Status::OK();
  while (true) {
    WireMessage msg;
    Result<bool> have = ReadMessage(&worker->sock, &msg);
    if (!have.ok()) {
      death = have.status();
      break;
    }
    if (!*have) {
      death = Status::IOError("worker closed the connection");
      break;
    }
    worker->last_heard_ms.store(NowMs());
    bool keep = true;
    switch (static_cast<MsgType>(msg.type)) {
      case MsgType::kHello: {
        Result<HelloMsg> hello = DecodeHello(msg.payload);
        if (!hello.ok()) {
          death = hello.status();
          keep = false;
          break;
        }
        std::lock_guard<std::mutex> lock(mu_);
        worker->hello_seen = true;
        if (!worker->local) worker->pid = static_cast<pid_t>(hello->pid);
        cv_.notify_all();
        break;
      }
      case MsgType::kSyncAck: {
        Result<uint64_t> version = DecodeSyncAck(msg.payload);
        if (!version.ok()) {
          death = version.status();
          keep = false;
          break;
        }
        std::lock_guard<std::mutex> lock(mu_);
        worker->synced_version = *version;
        worker->sync_acked = true;
        cv_.notify_all();
        break;
      }
      case MsgType::kCredit: {
        Result<uint32_t> n = DecodeCredit(msg.payload);
        if (!n.ok()) {
          death = n.status();
          keep = false;
          break;
        }
        worker->send_window.Grant(*n);
        break;
      }
      case MsgType::kOutputFrame: {
        Result<FrameMsg> frame = DecodeFrameMsg(msg.payload);
        if (!frame.ok()) {
          death = frame.status();
          keep = false;
          break;
        }
        OnOutputFrame(worker, *std::move(frame));
        // A poisoned frame path records the reason as worker->death.
        {
          std::lock_guard<std::mutex> lock(mu_);
          keep = worker->death.ok();
        }
        break;
      }
      case MsgType::kOutputEof: {
        Result<OutputEofMsg> eof = DecodeOutputEof(msg.payload);
        if (!eof.ok()) {
          death = eof.status();
          keep = false;
          break;
        }
        OnOutputEof(worker, *std::move(eof));
        break;
      }
      case MsgType::kPong:
        break;  // last_heard_ms already refreshed
      default:
        break;  // tolerate unknown/stale messages from workers
    }
    if (!keep) break;
  }
  // Finalize: the worker is gone for this cluster's purposes.
  {
    std::lock_guard<std::mutex> lock(mu_);
    worker->alive = false;
    if (worker->death.ok()) worker->death = death;
    if (round_.active && !round_.done[static_cast<size_t>(worker->rank)]) {
      Status lost = Status::WorkerLost(
          "worker " + std::to_string(worker->rank) + " lost mid-fragment: " +
          worker->death.ToString());
      round_.done[static_cast<size_t>(worker->rank)] = true;
      round_.status[static_cast<size_t>(worker->rank)] = lost;
      // A retry-eligible loss does not fail the round: healthy ranks
      // run to completion and only this rank is re-dispatched.
      if (!round_.retry_worker_lost && round_.failure.ok()) {
        round_.failure = lost;
      }
      ++round_.done_count;
    }
    // Under mu_ for the same reason as in OnOutputEof: the poison must
    // not be reorderable after a later round's Reset.
    worker->send_window.Poison(Status::WorkerLost(
        "worker " + std::to_string(worker->rank) + " connection lost"));
    cv_.notify_all();
  }
}

void Cluster::OnOutputFrame(Worker* worker, FrameMsg frame) {
  QueryContext* ctx = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!round_.active || round_.done[static_cast<size_t>(worker->rank)]) {
      return;  // stale frame from an aborted fragment
    }
    ctx = round_.ctx;
  }
  if (ctx != nullptr) {
    Status fault = ctx->Fault(FaultInjector::kExchangeFrameDrop);
    if (!fault.ok()) {
      // A dropped exchange frame is unrecoverable at this protocol
      // layer: the stream is now incomplete, so the worker's whole
      // contribution is declared lost (the reader tears the
      // connection down and reports kWorkerLost).
      std::lock_guard<std::mutex> lock(mu_);
      if (worker->death.ok()) {
        worker->death = Status::WorkerLost(
            "exchange frame dropped (fault injection): " +
            std::string(fault.message()));
      }
      return;
    }
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!round_.active || round_.done[static_cast<size_t>(worker->rank)]) {
      return;
    }
    if (frame.channel >= static_cast<uint32_t>(round_.fanout)) {
      if (worker->death.ok()) {
        worker->death = Status::IOError(
            "worker sent frame for bucket " + std::to_string(frame.channel) +
            " but the round fanout is " + std::to_string(round_.fanout));
      }
      return;
    }
    round_.frames += 1;
    round_.bytes += frame.bytes.size();
    round_.out[static_cast<size_t>(worker->rank)][frame.channel].push_back(
        std::move(frame));
  }
  // Replenish the worker's output window for the ingested frame.
  (void)SendTo(&worker->send_mu, &worker->sock, MsgType::kCredit,
               EncodeCredit(1));
}

void Cluster::OnOutputEof(Worker* worker, OutputEofMsg eof) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    size_t rank = static_cast<size_t>(worker->rank);
    if (!round_.active || round_.done[rank]) return;
    round_.done[rank] = true;
    round_.status[rank] = StatusFromCode(eof.code, std::move(eof.message));
    round_.stats[rank] = std::move(eof.stats);
    if (!round_.status[rank].ok() && round_.failure.ok()) {
      round_.failure = round_.status[rank];
    }
    ++round_.done_count;
    // Unblock a sender that is still pushing inputs after an early EOF
    // (fragment failed before consuming them). Poisoning must happen
    // before anyone can observe the round as complete: done under mu_,
    // otherwise the next round's Reset can race ahead and this poison
    // lands on the fresh window, silently killing that round's sender.
    worker->send_window.Poison(
        Status::Cancelled("fragment already reported completion"));
    cv_.notify_all();
  }
}

void Cluster::FailRound(const Status& why) {
  std::lock_guard<std::mutex> lock(mu_);
  if (round_.active && round_.failure.ok()) {
    round_.failure = why;
    cv_.notify_all();
  }
}

void Cluster::CancelRound(const Status& why) {
  std::vector<Worker*> targets;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!round_.active) return;
    if (round_.failure.ok()) round_.failure = why;
    for (auto& w : workers_) {
      if (w->alive && !round_.done[static_cast<size_t>(w->rank)]) {
        targets.push_back(w.get());
      }
    }
  }
  CancelMsg msg;
  msg.code = why.code();
  msg.message = std::string(why.message());
  std::string payload = EncodeCancel(msg);
  for (Worker* w : targets) {
    (void)SendTo(&w->send_mu, &w->sock, MsgType::kCancel, payload);
  }
}

void Cluster::SenderLoop(Worker* worker, const std::string& query,
                         const RuleOptions& rules, const ExecOptions& exec,
                         const FragmentStage& stage, int fanout,
                         double deadline_remaining_ms, ReplaySpool* spool,
                         bool replay, QueryContext* ctx) {
  const int W = worker_count();
  auto abort_with = [&](const Status& why) { DropWorker(worker, why); };

  if (ctx != nullptr) {
    // The dispatch-side stall/fault point: an armed stall delays this
    // worker's fragment; an armed error loses the worker.
    Status fault = ctx->Fault(FaultInjector::kWorkerStall);
    if (!fault.ok()) {
      abort_with(Status::WorkerLost("fragment dispatch failed (fault "
                                    "injection): " +
                                    std::string(fault.message())));
      return;
    }
  }

  FragmentRequest req;
  req.query = query;
  req.rules = rules;
  req.exec = exec;
  req.stage_id = stage.id;
  req.worker_id = worker->rank;
  req.worker_count = W;
  req.fanout = stage.shuffled ? fanout : 0;
  req.num_inputs = static_cast<int>(stage.inputs.size());
  req.deadline_remaining_ms = deadline_remaining_ms;
  req.credit_window =
      query_credit_window_ != 0 ? query_credit_window_ : options_.credit_window;
  Status st = SendTo(&worker->send_mu, &worker->sock, MsgType::kRunFragment,
                     EncodeFragmentRequest(req));
  if (!st.ok()) {
    abort_with(st);
    return;
  }

  for (size_t slot = 0; slot < stage.inputs.size(); ++slot) {
    for (int src = 0; src < W; ++src) {
      Result<ReplaySpool::Cursor> cursor =
          spool->Open(stage.inputs[slot], src, worker->rank);
      if (!cursor.ok()) {
        // A replay-buffer fault is the dispatcher's problem, not this
        // worker's — fail the round instead of declaring a loss that
        // a retry could never fix.
        FailRound(cursor.status());
        return;
      }
      while (true) {
        FrameMsg frame;
        Result<bool> have = cursor->Next(&frame);
        if (!have.ok()) {
          FailRound(have.status());
          return;
        }
        if (!*have) break;
        if (ctx != nullptr) {
          Status fault = ctx->Fault(FaultInjector::kExchangeFrameDrop);
          if (!fault.ok()) {
            abort_with(Status::WorkerLost(
                "exchange frame dropped (fault injection): " +
                std::string(fault.message())));
            return;
          }
        }
        // Credit-gated forward; abort promptly on round failure.
        while (true) {
          Status credit = worker->send_window.Acquire(100);
          if (credit.ok()) break;
          if (credit.code() != StatusCode::kUnavailable) return;  // poisoned
          bool aborted;
          {
            std::lock_guard<std::mutex> lock(mu_);
            aborted = !round_.failure.ok() ||
                      round_.done[static_cast<size_t>(worker->rank)];
          }
          if (aborted) return;
          if (ctx != nullptr && !ctx->Check("exchange (dispatch)").ok()) {
            return;  // the main loop broadcasts the cancel
          }
        }
        const uint64_t payload_bytes = frame.bytes.size();
        FrameMsg forward;
        forward.channel = static_cast<uint32_t>(slot);
        forward.tuple_count = frame.tuple_count;
        forward.bytes = std::move(frame.bytes);
        st = SendTo(&worker->send_mu, &worker->sock, MsgType::kInputFrame,
                    EncodeFrameMsg(forward));
        if (!st.ok()) {
          abort_with(st);
          return;
        }
        std::lock_guard<std::mutex> lock(mu_);
        round_.frames += 1;
        round_.bytes += payload_bytes;
        if (replay) round_.replayed += 1;
      }
    }
    st = SendTo(&worker->send_mu, &worker->sock, MsgType::kInputEof,
                EncodeCredit(static_cast<uint32_t>(slot)));
    if (!st.ok()) {
      abort_with(st);
      return;
    }
  }
}

Status Cluster::RunRound(
    const std::string& query, const RuleOptions& rules,
    const ExecOptions& exec, const FragmentStage& stage, int fanout,
    ReplaySpool* spool, const std::vector<int>& ranks, bool retry_allowed,
    bool replay, QueryContext* ctx, ExecStats* stats,
    std::vector<std::vector<std::vector<FrameMsg>>>* accum,
    std::vector<int>* lost) {
  const int W = worker_count();
  double deadline_remaining_ms = 0;
  if (ctx != nullptr && ctx->has_deadline()) {
    deadline_remaining_ms = RemainingMs(ctx);
    if (deadline_remaining_ms <= 0) return ctx->Check("dispatch");
  }

  std::vector<bool> participating(static_cast<size_t>(W), false);
  for (int rank : ranks) participating[static_cast<size_t>(rank)] = true;

  std::vector<Worker*> participants;
  {
    std::lock_guard<std::mutex> lock(mu_);
    round_ = Round();
    round_.active = true;
    round_.fanout = fanout;
    round_.ctx = ctx;
    round_.retry_worker_lost = retry_allowed;
    round_.out.assign(static_cast<size_t>(W),
                      std::vector<std::vector<FrameMsg>>(
                          static_cast<size_t>(fanout)));
    round_.done.assign(static_cast<size_t>(W), false);
    round_.status.assign(static_cast<size_t>(W), Status::OK());
    round_.stats.assign(static_cast<size_t>(W), ExecStats());
    for (auto& w : workers_) {
      size_t rank = static_cast<size_t>(w->rank);
      if (!participating[rank]) {
        // Already completed in a previous attempt; its output is
        // banked in the spool.
        round_.done[rank] = true;
        ++round_.done_count;
        continue;
      }
      if (!w->alive) {
        round_.done[rank] = true;
        round_.status[rank] = Status::WorkerLost(
            "worker " + std::to_string(w->rank) + " is down: " +
            w->death.ToString());
        if (!retry_allowed && round_.failure.ok()) {
          round_.failure = round_.status[rank];
        }
        ++round_.done_count;
      } else {
        participants.push_back(w.get());
      }
    }
  }

  std::vector<std::thread> senders;
  senders.reserve(participants.size());
  for (Worker* w : participants) {
    w->send_window.Reset(query_credit_window_ != 0 ? query_credit_window_
                                                   : options_.credit_window);
    {
      std::lock_guard<std::mutex> lock(mu_);
      w->last_ping = std::chrono::steady_clock::now();
    }
    w->last_heard_ms.store(NowMs());
    senders.emplace_back([=, this, &query, &rules, &exec, &stage] {
      SenderLoop(w, query, rules, exec, stage, fanout, deadline_remaining_ms,
                 spool, replay, ctx);
    });
  }

  // Wait for every rank to be accounted for, policing lifecycle:
  // cancellation/deadline, worker heartbeats, and the post-cancel drain.
  bool cancel_sent = false;
  auto cancel_at = std::chrono::steady_clock::time_point::max();
  bool force_dropped = false;
  {
    std::unique_lock<std::mutex> lock(mu_);
    while (round_.done_count < W) {
      cv_.wait_for(lock, std::chrono::milliseconds(100));
      if (round_.done_count >= W) break;
      auto now = std::chrono::steady_clock::now();
      if (!cancel_sent) {
        Status why = ctx != nullptr ? ctx->Check("dispatch") : Status::OK();
        if (why.ok()) why = round_.failure;
        if (!why.ok()) {
          lock.unlock();
          CancelRound(why);
          lock.lock();
          cancel_sent = true;
          cancel_at = std::chrono::steady_clock::now();
        }
      } else if (!force_dropped &&
                 now - cancel_at > std::chrono::milliseconds(
                                       options_.drain_timeout_ms)) {
        // Workers that did not acknowledge the cancel in time are
        // declared lost; their readers finalize the round state.
        force_dropped = true;
        std::vector<Worker*> laggards;
        for (auto& w : workers_) {
          if (w->alive && !round_.done[static_cast<size_t>(w->rank)]) {
            if (w->death.ok()) {
              w->death = Status::WorkerLost(
                  "worker " + std::to_string(w->rank) +
                  " did not acknowledge cancellation within " +
                  std::to_string(options_.drain_timeout_ms) + "ms");
            }
            laggards.push_back(w.get());
          }
        }
        lock.unlock();
        for (Worker* w : laggards) w->sock.ShutdownBoth();
        lock.lock();
      }
      // Heartbeats / silence detection.
      std::vector<Worker*> to_ping;
      std::vector<Worker*> to_drop;
      int64_t now_ms = NowMs();
      for (auto& w : workers_) {
        if (!w->alive || round_.done[static_cast<size_t>(w->rank)]) continue;
        int64_t silent_ms = now_ms - w->last_heard_ms.load();
        if (silent_ms > options_.worker_timeout_ms) {
          if (w->death.ok()) {
            w->death = Status::WorkerLost(
                "worker " + std::to_string(w->rank) + " silent for " +
                std::to_string(silent_ms) + "ms");
          }
          to_drop.push_back(w.get());
        } else if (silent_ms > options_.heartbeat_ms &&
                   now - w->last_ping >
                       std::chrono::milliseconds(options_.heartbeat_ms)) {
          w->last_ping = now;
          to_ping.push_back(w.get());
        }
      }
      if (!to_ping.empty() || !to_drop.empty()) {
        lock.unlock();
        for (Worker* w : to_ping) {
          (void)SendTo(&w->send_mu, &w->sock, MsgType::kPing, "");
        }
        for (Worker* w : to_drop) w->sock.ShutdownBoth();
        lock.lock();
      }
    }
  }
  for (std::thread& t : senders) t.join();

  std::lock_guard<std::mutex> lock(mu_);
  round_.active = false;
  Status result = round_.failure;
  stats->dist_frames += round_.frames;
  stats->dist_bytes += round_.bytes;
  stats->frames_replayed += round_.replayed;
  if (!result.ok()) return result;
  for (int rank : ranks) {
    size_t r = static_cast<size_t>(rank);
    if (round_.status[r].ok()) {
      stats->MergeFrom(round_.stats[r]);
      (*accum)[r] = std::move(round_.out[r]);
    } else {
      // With retry_allowed the only per-rank failure that leaves
      // round_.failure OK is a worker loss — re-dispatchable.
      lost->push_back(rank);
    }
  }
  return Status::OK();
}

Status Cluster::SyncCatalog(const Catalog& catalog) {
  const uint64_t version = catalog.version();
  std::vector<Worker*> need;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& w : workers_) {
      if (w->alive && w->synced_version != version) {
        w->sync_acked = false;
        need.push_back(w.get());
      }
    }
  }
  if (need.empty()) return Status::OK();
  std::string payload = EncodeCatalogSync(catalog);
  for (Worker* w : need) {
    Status st = SendTo(&w->send_mu, &w->sock, MsgType::kSyncCatalog, payload);
    if (!st.ok()) {
      DropWorker(w, st);
      return Status::WorkerLost("catalog sync to worker " +
                                std::to_string(w->rank) +
                                " failed: " + st.ToString());
    }
  }
  std::unique_lock<std::mutex> lock(mu_);
  for (Worker* w : need) {
    bool ok = cv_.wait_for(
        lock, std::chrono::milliseconds(options_.worker_timeout_ms),
        [&] { return (w->sync_acked && w->synced_version == version) ||
                     !w->alive; });
    if (!ok || !w->alive) {
      return Status::WorkerLost("worker " + std::to_string(w->rank) +
                                " did not acknowledge catalog sync" +
                                (w->death.ok() ? ""
                                               : ": " + w->death.ToString()));
    }
  }
  return Status::OK();
}

Status Cluster::RetryBackoff(int attempt, QueryContext* ctx) {
  // Exponential backoff, sliced so cancellation stays responsive.
  int shift = attempt - 1 < 20 ? attempt - 1 : 20;
  int64_t backoff_ms = static_cast<int64_t>(options_.retry_backoff_ms)
                       << shift;
  if (backoff_ms > options_.worker_timeout_ms) {
    backoff_ms = options_.worker_timeout_ms;
  }
  auto backoff_until = std::chrono::steady_clock::now() +
                       std::chrono::milliseconds(backoff_ms);
  while (std::chrono::steady_clock::now() < backoff_until) {
    JPAR_RETURN_NOT_OK(ctx->Check("fragment retry backoff"));
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return Status::OK();
}

Status Cluster::StartQueryWorkers(const Catalog& catalog, QueryContext* ctx,
                                  ExecStats* stats) {
  for (int attempt = 0;; ++attempt) {
    // A query's first pass starts whatever the last one lost; only the
    // respawns of a retry count, as in the stage rounds.
    Status st =
        EnsureWorkers(attempt > 0 ? &stats->workers_respawned : nullptr);
    if (st.ok()) st = SyncCatalog(catalog);
    if (st.ok() || st.code() != StatusCode::kWorkerLost ||
        attempt >= options_.max_fragment_retries) {
      return st;
    }
    JPAR_RETURN_NOT_OK(RetryBackoff(attempt + 1, ctx));
  }
}

Result<QueryOutput> Cluster::Run(const std::string& query,
                                 const RuleOptions& rules,
                                 const ExecOptions& exec,
                                 const CompiledQuery& compiled,
                                 const Catalog& catalog, QueryContext* ctx) {
  std::lock_guard<std::mutex> qlock(query_mu_);
  JPAR_RETURN_NOT_OK(ValidateExecOptions(exec));
  QueryContext local_ctx;
  if (ctx == nullptr) {
    if (exec.deadline_ms > 0) local_ctx.set_deadline_after_ms(exec.deadline_ms);
    ctx = &local_ctx;
  }
  JPAR_ASSIGN_OR_RETURN(StagePlan split,
                        SplitPlanForDistribution(compiled.physical));
  QueryOutput out;
  JPAR_RETURN_NOT_OK(StartQueryWorkers(catalog, ctx, &out.stats));

  // Size the exchange credit window from the plan's cardinality
  // estimate: a query the cost model expects to produce few rows does
  // not need credit_window × frame_bytes of in-flight buffering per
  // worker. Flow control only — credits pace sends, they never cap
  // rows — so a bad estimate can slow the exchange but not change it.
  query_credit_window_ = options_.credit_window;
  if (compiled.physical.est_result_rows >= 0) {
    double frames = compiled.physical.est_result_rows / 64.0 + 4.0;
    if (frames < static_cast<double>(query_credit_window_)) {
      query_credit_window_ =
          static_cast<uint32_t>(frames < 4.0 ? 4.0 : frames);
    }
  }

  const int W = worker_count();
  auto start = std::chrono::steady_clock::now();
  out.stats.dist_workers = static_cast<uint64_t>(W);

  // Replay-buffer lifecycle: stage t's banked frames can be freed once
  // its last consumer stage succeeds (the final stage stays for the
  // gather below).
  std::vector<int> last_consumer(split.stages.size(), -1);
  for (const FragmentStage& stage : split.stages) {
    for (int input : stage.inputs) {
      size_t i = static_cast<size_t>(input);
      if (stage.id > last_consumer[i]) last_consumer[i] = stage.id;
    }
  }

  ReplaySpool spool(options_.replay_memory_bytes, exec.spill_dir);
  for (const FragmentStage& stage : split.stages) {
    int fanout = stage.shuffled ? W : 1;
    std::vector<std::vector<std::vector<FrameMsg>>> accum(
        static_cast<size_t>(W),
        std::vector<std::vector<FrameMsg>>(static_cast<size_t>(fanout)));
    std::vector<int> ranks(static_cast<size_t>(W));
    for (int r = 0; r < W; ++r) ranks[static_cast<size_t>(r)] = r;
    int retries_left = options_.max_fragment_retries;
    int attempt = 0;
    bool recovering = false;
    std::chrono::steady_clock::time_point recovery_start{};
    while (true) {
      if (options_.test_round_hook) options_.test_round_hook(stage.id, attempt);
      std::vector<int> lost;
      Status st = RunRound(query, rules, exec, stage, fanout, &spool, ranks,
                           /*retry_allowed=*/retries_left > 0,
                           /*replay=*/attempt > 0, ctx, &out.stats, &accum,
                           &lost);
      ++out.stats.dist_rounds;
      if (!st.ok()) return st;
      if (lost.empty()) break;
      if (retries_left <= 0) {
        return Status::WorkerLost(
            "stage " + std::to_string(stage.id) + " lost " +
            std::to_string(lost.size()) + " worker(s) with no retry budget "
            "left (max_fragment_retries=" +
            std::to_string(options_.max_fragment_retries) + ")");
      }
      if (!recovering) {
        recovering = true;
        recovery_start = std::chrono::steady_clock::now();
      }
      --retries_left;
      ++attempt;
      out.stats.fragment_retries += lost.size();
      JPAR_RETURN_NOT_OK(RetryBackoff(attempt, ctx));
      // Respawn dead ranks and resync their catalogs. Best-effort: a
      // rank that cannot be revived (or resynced) is simply lost again
      // on the next attempt, which consumes the remaining budget and
      // fails cleanly.
      Status revive = EnsureWorkers(&out.stats.workers_respawned);
      if (revive.ok()) (void)SyncCatalog(catalog);
      ranks = std::move(lost);
    }
    if (recovering) {
      out.stats.recovery_ms +=
          std::chrono::duration<double, std::milli>(
              std::chrono::steady_clock::now() - recovery_start)
              .count();
    }
    JPAR_RETURN_NOT_OK(spool.StoreStage(stage.id, W, fanout, std::move(accum)));
    for (int input : stage.inputs) {
      if (last_consumer[static_cast<size_t>(input)] == stage.id) {
        spool.Free(input);
      }
    }
  }

  // Gather: the last stage's single bucket, in worker-rank order —
  // exactly the in-process partition concatenation order.
  const int final_stage = split.stages.back().id;
  std::vector<Frame> frames;
  for (int src = 0; src < W; ++src) {
    JPAR_ASSIGN_OR_RETURN(ReplaySpool::Cursor cursor,
                          spool.Open(final_stage, src, 0));
    while (true) {
      FrameMsg f;
      JPAR_ASSIGN_OR_RETURN(bool have, cursor.Next(&f));
      if (!have) break;
      Frame frame;
      frame.bytes = std::move(f.bytes);
      frame.tuple_count = f.tuple_count;
      frames.push_back(std::move(frame));
    }
  }
  FrameReader reader(frames);
  while (true) {
    Tuple tuple;
    JPAR_ASSIGN_OR_RETURN(bool have, reader.Next(&tuple));
    if (!have) break;
    if (split.result_column < 0 ||
        static_cast<size_t>(split.result_column) >= tuple.size()) {
      return Status::Internal("result column out of range");
    }
    out.items.push_back(
        std::move(tuple[static_cast<size_t>(split.result_column)]));
  }
  out.stats.result_rows = out.items.size();
  out.stats.replay_spill_bytes = spool.spill_bytes();
  double wall = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - start)
                    .count();
  // Workers genuinely ran in parallel: makespan is real wall clock.
  out.stats.real_ms = wall;
  out.stats.makespan_ms = wall;
  return out;
}

}  // namespace jpar
