#include "dist/worker.h"

#include <unistd.h>

#include <atomic>
#include <thread>
#include <utility>

namespace jpar {

namespace {

Status SendLocked(Socket* sock, std::mutex* mu, MsgType type,
                  std::string_view payload) {
  std::lock_guard<std::mutex> lock(*mu);
  return WriteMessage(sock, static_cast<uint8_t>(type), payload);
}

}  // namespace

Status WorkerServer::Serve(Socket sock) {
  std::mutex send_mu;
  HelloMsg hello;
  hello.pid = static_cast<int64_t>(::getpid());
  JPAR_RETURN_NOT_OK(
      SendLocked(&sock, &send_mu, MsgType::kHello, EncodeHello(hello)));
  while (!shutdown_) {
    WireMessage msg;
    JPAR_ASSIGN_OR_RETURN(bool have, ReadMessage(&sock, &msg));
    if (!have) return Status::OK();  // dispatcher closed: clean exit
    switch (static_cast<MsgType>(msg.type)) {
      case MsgType::kHelloAck:
        break;
      case MsgType::kSyncCatalog: {
        uint64_t version = 0;
        JPAR_RETURN_NOT_OK(
            DecodeCatalogSyncInto(msg.payload, engine_.catalog(), &version));
        catalog_version_ = version;
        // Collections may have appeared or changed; cached compilations
        // (and their existence checks) are stale.
        plan_cache_.clear();
        JPAR_RETURN_NOT_OK(SendLocked(&sock, &send_mu, MsgType::kSyncAck,
                                      EncodeSyncAck(version)));
        break;
      }
      case MsgType::kRunFragment:
        JPAR_RETURN_NOT_OK(HandleFragment(&sock, &send_mu, msg.payload));
        break;
      case MsgType::kPing:
        JPAR_RETURN_NOT_OK(SendLocked(&sock, &send_mu, MsgType::kPong, ""));
        break;
      case MsgType::kShutdown:
        shutdown_ = true;
        break;
      case MsgType::kCancel:
      case MsgType::kCredit:
      case MsgType::kInputFrame:
      case MsgType::kInputEof:
        break;  // stale leftovers of a fragment that already reported EOF
      default:
        return Status::IOError("worker: unexpected message type " +
                               std::to_string(msg.type));
    }
  }
  return Status::OK();
}

Result<WorkerServer::PlanEntry*> WorkerServer::GetPlan(
    const std::string& query, const RuleOptions& rules,
    const ExecOptions& exec) {
  std::string key;
  EncodeRuleOptions(rules, &key);
  key.push_back(static_cast<char>('0' + static_cast<int>(exec.stats_mode)));
  key.push_back('\0');
  key += query;
  auto it = plan_cache_.find(key);
  if (it != plan_cache_.end()) return it->second.get();
  auto entry = std::make_unique<PlanEntry>();
  JPAR_ASSIGN_OR_RETURN(entry->compiled, engine_.Compile(query, rules, exec));
  JPAR_ASSIGN_OR_RETURN(entry->split,
                        SplitPlanForDistribution(entry->compiled.physical));
  PlanEntry* raw = entry.get();
  plan_cache_.emplace(std::move(key), std::move(entry));
  return raw;
}

Catalog WorkerServer::SliceCatalog(int rank, int count) const {
  Catalog sliced;
  for (const auto& [name, coll] : engine_.catalog()->collections()) {
    Collection part;
    for (size_t i = 0; i < coll.files.size(); ++i) {
      if (static_cast<int>(i % static_cast<size_t>(count)) == rank) {
        part.files.push_back(coll.files[i]);
      }
    }
    sliced.RegisterCollection(name, std::move(part));
  }
  for (const auto& [name, file] : engine_.catalog()->documents()) {
    sliced.RegisterDocument(name, file);
  }
  return sliced;
}

Result<std::vector<std::vector<Tuple>>> WorkerServer::ExecuteStage(
    const FragmentRequest& req, const FragmentStage& stage,
    std::vector<std::vector<Tuple>> inputs, QueryContext* ctx,
    ExecStats* stats) const {
  ExecOptions exec = req.exec;
  // This process is exactly one partition of the distributed plan; the
  // deadline already arrived as ctx's absolute deadline.
  exec.partitions = 1;
  exec.use_threads = false;
  exec.deadline_ms = 0;

  Catalog sliced;
  const Catalog* catalog = engine_.catalog();
  if (stage.core == FragmentStage::Core::kLeaf) {
    sliced = SliceCatalog(req.worker_id, req.worker_count);
    catalog = &sliced;
  }
  Executor executor(catalog, exec, ctx);

  std::vector<Tuple> tuples;
  if (stage.core == FragmentStage::Core::kLeaf) {
    JPAR_ASSIGN_OR_RETURN(tuples,
                          executor.RunSubtree(*stage.core_node, stats));
  } else if (stage.core == FragmentStage::Core::kGroupByMerge) {
    JPAR_ASSIGN_OR_RETURN(
        tuples, executor.GroupByFragment(
                    *stage.core_node,
                    stage.from_partials ? AggStep::kGlobal : AggStep::kComplete,
                    inputs[0], stats));
  } else {
    JPAR_ASSIGN_OR_RETURN(
        tuples, executor.JoinPartition(*stage.core_node, inputs[0],
                                       inputs[1], stats));
  }
  if (!stage.post_ops.empty()) {
    JPAR_ASSIGN_OR_RETURN(
        tuples, executor.RunOps(stage.post_ops, std::move(tuples), stats));
  }
  if (stage.local_groupby != nullptr) {
    JPAR_ASSIGN_OR_RETURN(
        tuples, executor.GroupByFragment(*stage.local_groupby,
                                         AggStep::kLocal, tuples, stats));
  }
  if (stage.shuffled) {
    if (req.fanout <= 0) {
      return Status::IOError("shuffled fragment needs a positive fanout, "
                             "got " + std::to_string(req.fanout));
    }
    return executor.HashPartition(tuples, stage.shuffle_keys, req.fanout);
  }
  std::vector<std::vector<Tuple>> gather(1);
  gather[0] = std::move(tuples);
  return gather;
}

Status WorkerServer::HandleFragment(Socket* sock, std::mutex* send_mu,
                                    std::string_view payload) {
  Result<FragmentRequest> req_r = DecodeFragmentRequest(payload);
  if (!req_r.ok()) return req_r.status();
  FragmentRequest req = *std::move(req_r);

  auto cancel = std::make_shared<CancellationToken>();
  QueryContext ctx;
  ctx.set_cancellation(cancel);
  if (req.deadline_remaining_ms > 0) {
    ctx.set_deadline_after_ms(req.deadline_remaining_ms);
  }

  OutputEofMsg eof;
  // The request came off the wire: check it against the plan before
  // sizing anything from it.
  Status frag = ValidateExecOptions(req.exec);
  const FragmentStage* stage = nullptr;
  if (frag.ok()) {
    Result<PlanEntry*> plan = GetPlan(req.query, req.rules, req.exec);
    if (!plan.ok()) {
      frag = plan.status();
    } else if (static_cast<size_t>(req.stage_id) >=
               (*plan)->split.stages.size()) {
      frag = Status::InvalidArgument(
          "fragment stage " + std::to_string(req.stage_id) +
          " out of range (plan has " +
          std::to_string((*plan)->split.stages.size()) + " stages)");
    } else {
      stage = &(*plan)->split.stages[static_cast<size_t>(req.stage_id)];
      if (static_cast<size_t>(req.num_inputs) != stage->inputs.size()) {
        frag = Status::InvalidArgument(
            "fragment stage " + std::to_string(req.stage_id) + " takes " +
            std::to_string(stage->inputs.size()) +
            " inputs, request declares " + std::to_string(req.num_inputs));
      }
    }
  }

  // -- Phase 1: collect exchanged inputs (control handled inline) ------
  std::vector<std::vector<Tuple>> inputs(
      frag.ok() ? static_cast<size_t>(req.num_inputs) : 0);
  CreditWindow out_window;
  out_window.Reset(req.credit_window);
  int eofs_seen = 0;
  while (frag.ok() && eofs_seen < req.num_inputs) {
    frag = ctx.Check("exchange (worker input)");
    if (!frag.ok()) break;
    WireMessage msg;
    JPAR_ASSIGN_OR_RETURN(bool have, ReadMessage(sock, &msg));
    if (!have) return Status::IOError("worker: dispatcher closed mid-fragment");
    switch (static_cast<MsgType>(msg.type)) {
      case MsgType::kInputFrame: {
        JPAR_ASSIGN_OR_RETURN(FrameMsg frame, DecodeFrameMsg(msg.payload));
        if (frame.channel >= inputs.size()) {
          return Status::IOError("worker: input frame for unknown slot " +
                                 std::to_string(frame.channel));
        }
        JPAR_RETURN_NOT_OK(AppendFrameTuples(frame, &inputs[frame.channel]));
        JPAR_RETURN_NOT_OK(
            SendLocked(sock, send_mu, MsgType::kCredit, EncodeCredit(1)));
        break;
      }
      case MsgType::kInputEof:
        ++eofs_seen;
        break;
      case MsgType::kCancel: {
        Result<CancelMsg> c = DecodeCancel(msg.payload);
        frag = c.ok() ? StatusFromCode(c->code, std::move(c->message))
                      : Status::Cancelled("fragment cancelled");
        break;
      }
      case MsgType::kPing:
        JPAR_RETURN_NOT_OK(SendLocked(sock, send_mu, MsgType::kPong, ""));
        break;
      case MsgType::kCredit: {
        JPAR_ASSIGN_OR_RETURN(uint32_t n, DecodeCredit(msg.payload));
        out_window.Grant(n);
        break;
      }
      case MsgType::kShutdown:
        shutdown_ = true;
        frag = Status::Cancelled("worker shutting down");
        break;
      default:
        return Status::IOError(
            "worker: unexpected message type " + std::to_string(msg.type) +
            " during fragment input");
    }
  }

  // -- Phase 2: execute under a control pump, then stream output -------
  if (frag.ok()) {
    std::atomic<bool> pump_stop{false};
    std::atomic<bool> conn_dead{false};
    std::mutex pump_mu;
    Status conn_status;    // guarded by pump_mu, valid once conn_dead
    Status cancel_status;  // guarded by pump_mu, from a kCancel message
    std::thread pump([&] {
      while (!pump_stop.load(std::memory_order_relaxed)) {
        Status fail;
        Result<bool> readable = sock->WaitReadable(50);
        if (!readable.ok()) {
          fail = readable.status();
        } else if (!*readable) {
          continue;
        } else {
          WireMessage msg;
          Result<bool> have = ReadMessage(sock, &msg);
          if (!have.ok()) {
            fail = have.status();
          } else if (!*have) {
            fail = Status::IOError("worker: dispatcher closed mid-fragment");
          } else {
            switch (static_cast<MsgType>(msg.type)) {
              case MsgType::kCredit: {
                Result<uint32_t> n = DecodeCredit(msg.payload);
                if (n.ok()) {
                  out_window.Grant(*n);
                } else {
                  fail = n.status();
                }
                break;
              }
              case MsgType::kCancel: {
                Result<CancelMsg> c = DecodeCancel(msg.payload);
                Status st = c.ok()
                                ? StatusFromCode(c->code,
                                                 std::move(c->message))
                                : Status::Cancelled("fragment cancelled");
                {
                  std::lock_guard<std::mutex> lock(pump_mu);
                  cancel_status = st;
                }
                cancel->Cancel();
                out_window.Poison(st);
                break;
              }
              case MsgType::kPing: {
                Status st = SendLocked(sock, send_mu, MsgType::kPong, "");
                if (!st.ok()) fail = st;
                break;
              }
              case MsgType::kShutdown: {
                Status st = Status::Cancelled("worker shutting down");
                {
                  std::lock_guard<std::mutex> lock(pump_mu);
                  cancel_status = st;
                }
                shutdown_requested_.store(true);
                cancel->Cancel();
                out_window.Poison(st);
                break;
              }
              default:
                break;  // stale traffic for a previous fragment
            }
          }
        }
        if (!fail.ok()) {
          {
            std::lock_guard<std::mutex> lock(pump_mu);
            conn_status = fail;
          }
          conn_dead.store(true);
          cancel->Cancel();
          out_window.Poison(fail);
          return;
        }
      }
    });

    std::vector<std::vector<Tuple>> buckets;
    {
      Result<std::vector<std::vector<Tuple>>> r =
          ExecuteStage(req, *stage, std::move(inputs), &ctx, &eof.stats);
      if (r.ok()) {
        buckets = *std::move(r);
      } else {
        frag = r.status();
      }
    }

    for (uint32_t b = 0; frag.ok() && b < buckets.size(); ++b) {
      std::vector<FrameMsg> frames =
          TuplesToFrames(buckets[b], b, req.exec.frame_bytes);
      for (FrameMsg& frame : frames) {
        while (true) {
          Status st = out_window.Acquire(100);
          if (st.ok()) break;
          if (cancel->cancelled() || conn_dead.load() ||
              st.code() != StatusCode::kUnavailable) {
            frag = st;  // poisoned window or terminal starvation
            break;
          }
          Status check = ctx.Check("exchange (worker output)");
          if (!check.ok()) {
            frag = check;
            break;
          }
        }
        if (!frag.ok()) break;
        frag = SendLocked(sock, send_mu, MsgType::kOutputFrame,
                          EncodeFrameMsg(frame));
        if (!frag.ok()) break;
      }
    }

    pump_stop.store(true);
    pump.join();
    if (shutdown_requested_.load()) shutdown_ = true;
    if (conn_dead.load()) {
      std::lock_guard<std::mutex> lock(pump_mu);
      return conn_status;
    }
    // Execution surfaces a pump-delivered cancel as generic kCancelled;
    // report the dispatcher's original reason (e.g. kDeadlineExceeded).
    if (!frag.ok() && frag.code() == StatusCode::kCancelled) {
      std::lock_guard<std::mutex> lock(pump_mu);
      if (!cancel_status.ok()) frag = cancel_status;
    }
  }

  eof.code = frag.code();
  eof.message = std::string(frag.message());
  return SendLocked(sock, send_mu, MsgType::kOutputEof, EncodeOutputEof(eof));
}

}  // namespace jpar
