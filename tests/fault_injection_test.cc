// The query-lifecycle acceptance matrix: for each executor stage kind
// (pipeline, group-by + exchange, join, sort) a query is cancelled,
// deadlined, and subjected to each named fault point, and in every case
// we assert the triple the service guarantees — the ticket ends with
// the right status code, admission reservations and queue depth return
// to zero, and a subsequent query on the same service succeeds.

#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "runtime/query_context.h"
#include "service/query_service.h"

namespace jpar {
namespace {

std::vector<std::string> MakeDocs(int n = 60) {
  std::vector<std::string> docs;
  docs.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    docs.push_back("{\"v\": " + std::to_string(i) + ", \"g\": " +
                   std::to_string(i % 5) + "}");
  }
  return docs;
}

void RegisterDocs(Catalog* catalog, const std::vector<std::string>& docs) {
  Collection c;
  for (const std::string& d : docs) c.files.push_back(JsonFile::FromText(d));
  catalog->RegisterCollection("/c", std::move(c));
}

std::vector<std::string> Rows(const QueryOutput& out) {
  std::vector<std::string> rows;
  for (const Item& i : out.items) rows.push_back(i.ToJsonString());
  return rows;
}

// One query per physical stage kind the executor implements.
struct StageQuery {
  const char* name;
  const char* query;
};

const StageQuery kStageQueries[] = {
    {"pipeline", R"(
        for $d in collection("/c")
        where $d("v") gt 54
        return $d("v"))"},
    // Group-by also exercises the hash exchange (two-step aggregation).
    {"group-by", R"(
        for $d in collection("/c")
        group by $g := $d("g")
        order by $g
        return $g)"},
    {"join", R"(
        count(
          for $a in collection("/c")
          for $b in collection("/c")
          where $a("v") eq $b("v")
          return $a("v")))"},
    {"sort", R"(
        for $d in collection("/c")
        where $d("v") gt 54
        order by $d("v") descending
        return $d("v"))"},
    // Same plan shape as group-by; the matrix runs it with partitions=2
    // so the hash exchange between the local and global aggregation
    // steps is a real multi-partition redistribution.
    {"exchange", R"(
        for $d in collection("/c")
        group by $g := $d("g")
        order by $g
        return $g)"},
};

// Pins queries inside on_query_start until Release() so a test can
// cancel or expire them deterministically while they hold a worker and
// an admission reservation.
class QueryGate {
 public:
  std::function<void(std::string_view)> Hook() {
    return [this](std::string_view) {
      std::unique_lock<std::mutex> lock(mu_);
      ++started_;
      cv_.notify_all();
      cv_.wait(lock, [this] { return released_; });
    };
  }
  void AwaitStarted(int n) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return started_ >= n; });
  }
  void Release() {
    std::lock_guard<std::mutex> lock(mu_);
    released_ = true;
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  int started_ = 0;
  bool released_ = false;
};

// The post-failure invariants every scenario must restore.
void ExpectQuiescent(const QueryService& service) {
  ServiceMetrics m = service.Metrics();
  EXPECT_EQ(m.admission.reserved_bytes, 0u);
  EXPECT_EQ(m.admission.queued, 0u);
  EXPECT_EQ(m.admission.running, 0u);
}

void ExpectSubsequentQuerySucceeds(Session* session, const char* query,
                                   const std::vector<std::string>& expected) {
  QueryTicket retry = session->Submit(query);
  ASSERT_TRUE(retry.status().ok()) << retry.status().ToString();
  EXPECT_EQ(Rows(retry.output()), expected);
}

std::vector<std::string> CleanRows(const char* query, int partitions = 1) {
  EngineOptions options;
  options.exec.partitions = partitions;
  Engine engine(options);
  RegisterDocs(engine.catalog(), MakeDocs());
  auto out = engine.Run(query);
  EXPECT_TRUE(out.ok()) << out.status().ToString();
  return out.ok() ? Rows(*out) : std::vector<std::string>{};
}

// ---------------------------------------------------------------------
// Cancel at each stage kind
// ---------------------------------------------------------------------

TEST(LifecycleMatrixTest, CancelEachStageKind) {
  for (const StageQuery& sq : kStageQueries) {
    SCOPED_TRACE(sq.name);
    const std::vector<std::string> expected = CleanRows(sq.query, 2);

    QueryGate gate;
    ServiceOptions options;
    options.worker_threads = 1;
    options.memory_budget_bytes = 64ull << 20;
    options.engine.exec.memory_limit_bytes = 8ull << 20;
    options.engine.exec.partitions = 2;  // real exchanges in the plan
    options.on_query_start = gate.Hook();
    QueryService service(options);
    RegisterDocs(service.catalog(), MakeDocs());
    auto session = service.CreateSession();

    QueryTicket t = session->Submit(sq.query);
    gate.AwaitStarted(1);  // holds a worker and an 8 MB reservation
    t.Cancel();
    gate.Release();

    EXPECT_EQ(t.status().code(), StatusCode::kCancelled)
        << t.status().ToString();
    service.Drain();
    ExpectQuiescent(service);
    EXPECT_EQ(service.Metrics().cancelled, 1u);
    ExpectSubsequentQuerySucceeds(session.get(), sq.query, expected);
  }
}

// ---------------------------------------------------------------------
// Deadline at each stage kind
// ---------------------------------------------------------------------

TEST(LifecycleMatrixTest, DeadlineEachStageKind) {
  for (const StageQuery& sq : kStageQueries) {
    SCOPED_TRACE(sq.name);
    const std::vector<std::string> expected = CleanRows(sq.query, 2);

    QueryGate gate;
    ServiceOptions options;
    options.worker_threads = 1;
    options.engine.exec.partitions = 2;  // real exchanges in the plan
    options.on_query_start = gate.Hook();
    QueryService service(options);
    RegisterDocs(service.catalog(), MakeDocs());
    auto session = service.CreateSession();

    // The deadline clock starts at Submit(): holding the query in the
    // gate past the deadline is a deterministic expiry, however fast
    // the query itself would run.
    SubmitOptions submit;
    submit.deadline_ms = 20;
    QueryTicket t = session->Submit(sq.query, submit);
    gate.AwaitStarted(1);
    std::this_thread::sleep_for(std::chrono::milliseconds(40));
    gate.Release();

    EXPECT_EQ(t.status().code(), StatusCode::kDeadlineExceeded)
        << t.status().ToString();
    service.Drain();
    ExpectQuiescent(service);
    EXPECT_EQ(service.Metrics().deadline_exceeded, 1u);
    ExpectSubsequentQuerySucceeds(session.get(), sq.query, expected);
  }
}

// ---------------------------------------------------------------------
// Fault points
// ---------------------------------------------------------------------

// Each named fault point, armed at probability 1 against the stage
// whose real failure it models; after disarming, the same service must
// serve the same query.
TEST(LifecycleMatrixTest, EachFaultPointFailsThenRecovers) {
  struct FaultCase {
    std::string_view point;
    const char* query;
    Status error;
    StatusCode expected;
  };
  const FaultCase kCases[] = {
      {FaultInjector::kScanIOError, kStageQueries[0].query,
       Status::IOError("injected: scan read failed"), StatusCode::kIOError},
      {FaultInjector::kExchangeFrameDrop, kStageQueries[1].query,
       Status::IOError("injected: exchange frame dropped"),
       StatusCode::kIOError},
      {FaultInjector::kAllocFail, kStageQueries[1].query,
       Status::ResourceExhausted("injected: group table allocation"),
       StatusCode::kResourceExhausted},
      {FaultInjector::kAllocFail, kStageQueries[2].query,
       Status::ResourceExhausted("injected: join table allocation"),
       StatusCode::kResourceExhausted},
  };

  for (const FaultCase& fc : kCases) {
    SCOPED_TRACE(std::string(fc.point) + " on " + fc.query);
    const std::vector<std::string> expected = CleanRows(fc.query, 2);

    FaultInjector faults(/*seed=*/7);
    ServiceOptions options;
    options.worker_threads = 1;
    options.engine.exec.partitions = 2;
    options.fault_injector = &faults;
    QueryService service(options);
    RegisterDocs(service.catalog(), MakeDocs());
    auto session = service.CreateSession();

    faults.ArmProbability(fc.point, 1.0, fc.error);
    QueryTicket t = session->Submit(fc.query);
    EXPECT_EQ(t.status().code(), fc.expected) << t.status().ToString();
    EXPECT_GE(faults.injected_count(fc.point), 1u);

    service.Drain();
    ExpectQuiescent(service);

    faults.Disarm(fc.point);
    ExpectSubsequentQuerySucceeds(session.get(), fc.query, expected);
  }
}

// A spill I/O fault fails the query cleanly — with the injected code,
// with every temp run file removed, and with the same engine serving
// the same query once the fault is disarmed (and once spilling
// actually happens, since the fault sits on the spill I/O path).
TEST(LifecycleMatrixTest, SpillIOFaultFailsCleanlyAndRemovesTempFiles) {
  namespace fs = std::filesystem;
  const std::string spill_dir = ::testing::TempDir() + "/jpar_spill_fault";
  fs::remove_all(spill_dir);
  fs::create_directories(spill_dir);

  // Grouping on the distinct "v" field yields one group per document —
  // far over the 1 KiB budget, so the group table must spill.
  constexpr const char* kWideGroupBy = R"(
      for $d in collection("/c")
      group by $v := $d("v")
      return sum($d("v")))";
  FaultInjector faults;
  Engine engine;
  RegisterDocs(engine.catalog(), MakeDocs(600));
  auto compiled = engine.Compile(kWideGroupBy);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();

  ExecOptions exec;
  exec.partitions = 2;
  exec.memory_limit_bytes = 1024;
  exec.spill = SpillMode::kEnabled;
  exec.spill_dir = spill_dir;

  faults.ArmProbability(FaultInjector::kSpillIOError, 1.0,
                        Status::Internal("injected: spill device failed"));
  QueryContext ctx;
  ctx.set_fault_injector(&faults);
  auto out = engine.Execute(*compiled, exec, &ctx);
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kInternal)
      << out.status().ToString();
  EXPECT_GE(faults.injected_count(FaultInjector::kSpillIOError), 1u);
  // The failed query left no temp runs behind.
  EXPECT_TRUE(fs::is_empty(spill_dir));

  faults.Disarm(FaultInjector::kSpillIOError);
  QueryContext retry_ctx;
  retry_ctx.set_fault_injector(&faults);
  auto retry = engine.Execute(*compiled, exec, &retry_ctx);
  ASSERT_TRUE(retry.ok()) << retry.status().ToString();
  EXPECT_GT(retry->stats.spill_runs, 0u);
  // Consumed runs are removed eagerly; success leaves the dir empty too.
  EXPECT_TRUE(fs::is_empty(spill_dir));
  fs::remove_all(spill_dir);
}

// worker.stall does not fail by itself — it models a stuck worker, so
// its observable effect is a deadline expiring mid-execution (not in
// the admission queue): the error surfaces from inside the pipeline.
TEST(LifecycleMatrixTest, WorkerStallTripsDeadlineMidExecution) {
  FaultInjector faults;
  faults.ArmStall(FaultInjector::kWorkerStall, /*stall_ms=*/50);

  ServiceOptions options;
  options.worker_threads = 1;
  options.fault_injector = &faults;
  QueryService service(options);
  RegisterDocs(service.catalog(), MakeDocs());
  auto session = service.CreateSession();

  SubmitOptions submit;
  submit.deadline_ms = 10;
  QueryTicket t = session->Submit(kStageQueries[0].query, submit);
  Status st = t.status();
  EXPECT_EQ(st.code(), StatusCode::kDeadlineExceeded) << st.ToString();
  // Caught by an executor-stage check, past the admission-queue one.
  EXPECT_EQ(st.message().find("admission queue"), std::string::npos)
      << st.ToString();
  EXPECT_GE(faults.hit_count(FaultInjector::kWorkerStall), 1u);

  service.Drain();
  ExpectQuiescent(service);
  faults.Disarm(FaultInjector::kWorkerStall);
  QueryTicket retry = session->Submit(kStageQueries[0].query);
  EXPECT_TRUE(retry.status().ok()) << retry.status().ToString();
}

// A cancel issued while the scan is crawling through a stalled file
// lands mid-pipeline and is honored within one batch of work.
TEST(LifecycleMatrixTest, CancelLandsDuringStalledScan) {
  FaultInjector faults;
  // 60 files x 5ms: the scan takes ~300ms unless interrupted.
  faults.ArmStall(FaultInjector::kScanIOError, /*stall_ms=*/5);

  std::mutex mu;
  std::condition_variable cv;
  bool started = false;

  ServiceOptions options;
  options.worker_threads = 1;
  options.fault_injector = &faults;
  options.on_query_start = [&](std::string_view) {
    std::lock_guard<std::mutex> lock(mu);
    started = true;
    cv.notify_all();
  };
  QueryService service(options);
  RegisterDocs(service.catalog(), MakeDocs());
  auto session = service.CreateSession();

  QueryTicket t = session->Submit(kStageQueries[0].query);
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return started; });
  }
  t.Cancel();
  EXPECT_EQ(t.status().code(), StatusCode::kCancelled)
      << t.status().ToString();
  // The cancel cut the scan short: the per-file check fired before all
  // 60 files stalled through the fault point.
  EXPECT_LT(faults.hit_count(FaultInjector::kScanIOError), 60u);

  service.Drain();
  ExpectQuiescent(service);
}

// A fault on the Nth scan stops the scan there: earlier files were
// read, later ones were never touched.
TEST(LifecycleMatrixTest, NthScanFaultStopsTheScan) {
  FaultInjector faults;
  faults.ArmAfter(FaultInjector::kScanIOError, /*nth=*/30,
                  Status::IOError("disk gave up"));

  ServiceOptions options;
  options.worker_threads = 1;
  options.fault_injector = &faults;
  QueryService service(options);
  RegisterDocs(service.catalog(), MakeDocs());
  auto session = service.CreateSession();

  QueryTicket t = session->Submit(kStageQueries[0].query);
  EXPECT_EQ(t.status().code(), StatusCode::kIOError) << t.status().ToString();
  EXPECT_EQ(faults.hit_count(FaultInjector::kScanIOError), 30u);
  EXPECT_EQ(faults.injected_count(FaultInjector::kScanIOError), 1u);
}

// ---------------------------------------------------------------------
// Queue and lifecycle interactions
// ---------------------------------------------------------------------

// A ticket cancelled while still waiting for a worker never compiles
// or executes — it dies at the admission-queue check.
TEST(LifecycleMatrixTest, CancelWhileQueuedSkipsExecution) {
  QueryGate gate;
  ServiceOptions options;
  options.worker_threads = 1;
  options.on_query_start = gate.Hook();
  QueryService service(options);
  RegisterDocs(service.catalog(), MakeDocs());
  auto session = service.CreateSession();

  QueryTicket running = session->Submit(kStageQueries[0].query);
  gate.AwaitStarted(1);  // pins the only worker

  QueryTicket queued = session->Submit(kStageQueries[3].query);
  queued.Cancel();  // still waiting for a worker
  gate.Release();

  EXPECT_TRUE(running.status().ok()) << running.status().ToString();
  Status st = queued.status();
  EXPECT_EQ(st.code(), StatusCode::kCancelled);
  EXPECT_NE(st.message().find("admission queue"), std::string::npos)
      << st.ToString();
  // The cancelled query never reached the plan cache or the engine.
  service.Drain();
  EXPECT_EQ(service.Metrics().plan_cache.misses, 1u);
  ExpectQuiescent(service);
}

// Negative per-submission deadline is a synchronous rejection, before
// admission.
TEST(LifecycleMatrixTest, NegativeSubmitDeadlineRejected) {
  QueryService service;
  RegisterDocs(service.catalog(), MakeDocs());
  auto session = service.CreateSession();

  SubmitOptions bad;
  bad.deadline_ms = -5;
  QueryTicket t = session->Submit(kStageQueries[0].query, bad);
  EXPECT_TRUE(t.done());
  EXPECT_EQ(t.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(service.Metrics().rejected, 1u);
  EXPECT_EQ(service.Metrics().admission.admitted, 0u);
}

// The session-level ExecOptions::deadline_ms is the fallback when the
// submission does not set one.
TEST(LifecycleMatrixTest, SessionDeadlineAppliesWhenSubmitOmitsOne) {
  QueryGate gate;
  ServiceOptions options;
  options.worker_threads = 1;
  options.on_query_start = gate.Hook();
  QueryService service(options);
  RegisterDocs(service.catalog(), MakeDocs());

  EngineOptions session_opts;
  session_opts.exec.deadline_ms = 20;
  auto session = service.CreateSession(session_opts);

  QueryTicket t = session->Submit(kStageQueries[0].query);
  gate.AwaitStarted(1);
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  gate.Release();
  EXPECT_EQ(t.status().code(), StatusCode::kDeadlineExceeded)
      << t.status().ToString();
}

// After a mix of outcomes, every counter balances and the admission
// state is fully quiescent.
TEST(LifecycleMatrixTest, MixedOutcomesLeaveBalancedCounters) {
  FaultInjector faults;
  ServiceOptions options;
  options.worker_threads = 2;
  options.fault_injector = &faults;
  QueryService service(options);
  RegisterDocs(service.catalog(), MakeDocs());
  auto session = service.CreateSession();

  // Success.
  QueryTicket ok = session->Submit(kStageQueries[0].query);
  ASSERT_TRUE(ok.status().ok()) << ok.status().ToString();
  // Cancelled (immediately; may land before or during execution).
  QueryTicket cancelled = session->Submit(kStageQueries[1].query);
  cancelled.Cancel();
  cancelled.Wait();
  // Deadline already expired relative to Submit.
  SubmitOptions tight;
  tight.deadline_ms = 0.001;
  QueryTicket late = session->Submit(kStageQueries[3].query, tight);
  late.Wait();
  // Injected fault.
  faults.ArmProbability(FaultInjector::kScanIOError, 1.0,
                        Status::IOError("injected"));
  QueryTicket faulty = session->Submit(kStageQueries[0].query);
  faulty.Wait();
  faults.Disarm(FaultInjector::kScanIOError);
  // Compile error.
  QueryTicket broken = session->Submit("for $d in (((");
  broken.Wait();
  // Rejected before admission.
  SubmitOptions bad;
  bad.deadline_ms = -1;
  QueryTicket rejected = session->Submit(kStageQueries[0].query, bad);
  rejected.Wait();

  service.Drain();
  ServiceMetrics m = service.Metrics();
  EXPECT_EQ(m.submitted, 6u);
  EXPECT_EQ(m.succeeded + m.failed + m.rejected, m.submitted);
  EXPECT_EQ(m.rejected, 1u);
  EXPECT_LE(m.cancelled + m.deadline_exceeded, m.failed);
  ExpectQuiescent(service);

  // And the service still works.
  QueryTicket again = session->Submit(kStageQueries[0].query);
  EXPECT_TRUE(again.status().ok()) << again.status().ToString();
}

// ---------------------------------------------------------------------
// Threaded operator stages: with use_threads every exchange half, join
// and group-by partition runs on its own thread. A fault or a cancel
// must come back as the same typed error as without threads, and no
// partition thread may outlive the failed query.
// ---------------------------------------------------------------------

// Threads of this process, from /proc/self/task (Linux).
size_t ProcessThreadCount() {
  size_t n = 0;
  for (const auto& task :
       std::filesystem::directory_iterator("/proc/self/task")) {
    (void)task;
    ++n;
  }
  return n;
}

// ProcessThreadCount once it is at most `limit`, polled for up to 2 s.
// A joined thread's /proc/self/task entry can outlive pthread_join by a
// moment (the kernel wakes the joiner before it reaps the thread), so a
// single read right after a join may still count it; a thread that
// really outlives its query is still counted when the poll gives up.
size_t SettledThreadCount(size_t limit) {
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(2);
  size_t n = ProcessThreadCount();
  while (n > limit && std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    n = ProcessThreadCount();
  }
  return n;
}

Status RunWithFault(const char* query, bool threads, std::string_view point,
                    const Status& error) {
  FaultInjector faults;
  faults.ArmProbability(point, 1.0, error);
  Engine engine;
  RegisterDocs(engine.catalog(), MakeDocs());
  auto compiled = engine.Compile(query);
  EXPECT_TRUE(compiled.ok()) << compiled.status().ToString();
  if (!compiled.ok()) return compiled.status();
  ExecOptions exec;
  exec.partitions = 4;
  exec.use_threads = threads;
  QueryContext ctx;
  ctx.set_fault_injector(&faults);
  auto out = engine.Execute(*compiled, exec, &ctx);
  EXPECT_GE(faults.injected_count(point), 1u);
  return out.status();
}

TEST(ThreadedLifecycleTest, FaultsMatchSequentialAndLeaveNoThreads) {
  struct FaultCase {
    std::string_view point;
    const char* query;
    Status error;
  };
  const FaultCase kCases[] = {
      {FaultInjector::kExchangeFrameDrop, kStageQueries[4].query,
       Status::IOError("injected: exchange frame dropped")},
      {FaultInjector::kAllocFail, kStageQueries[2].query,
       Status::ResourceExhausted("injected: join table allocation")},
      {FaultInjector::kAllocFail, kStageQueries[1].query,
       Status::ResourceExhausted("injected: group table allocation")},
  };
  const size_t threads_before = ProcessThreadCount();
  for (const FaultCase& fc : kCases) {
    SCOPED_TRACE(std::string(fc.point) + " on " + fc.query);
    Status sequential = RunWithFault(fc.query, false, fc.point, fc.error);
    Status threaded = RunWithFault(fc.query, true, fc.point, fc.error);
    EXPECT_EQ(threaded.code(), fc.error.code()) << threaded.ToString();
    EXPECT_EQ(threaded.ToString(), sequential.ToString());
    EXPECT_LE(SettledThreadCount(threads_before), threads_before);
  }
}

// A cancel that lands while the join's partitions are building (each
// build row stalls at alloc.fail) surfaces as kCancelled with threads
// on and off, and the query returns only after every partition thread
// has finished.
TEST(ThreadedLifecycleTest, CancelDuringJoinMatchesSequential) {
  Engine engine;
  RegisterDocs(engine.catalog(), MakeDocs());
  auto compiled = engine.Compile(kStageQueries[2].query);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  const size_t threads_before = ProcessThreadCount();
  for (bool threads : {false, true}) {
    SCOPED_TRACE(threads ? "threaded" : "sequential");
    FaultInjector faults;
    faults.ArmStall(FaultInjector::kAllocFail, /*stall_ms=*/2);
    auto token = std::make_shared<CancellationToken>();
    QueryContext ctx;
    ctx.set_cancellation(token);
    ctx.set_fault_injector(&faults);
    ExecOptions exec;
    exec.partitions = 4;
    exec.use_threads = threads;
    std::thread canceller([&] {
      while (faults.hit_count(FaultInjector::kAllocFail) == 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      token->Cancel();
    });
    auto out = engine.Execute(*compiled, exec, &ctx);
    canceller.join();
    ASSERT_FALSE(out.ok());
    EXPECT_EQ(out.status().code(), StatusCode::kCancelled)
        << out.status().ToString();
    EXPECT_LE(SettledThreadCount(threads_before), threads_before);
  }
}

// ---------------------------------------------------------------------
// Engine-level (no service): the same context drives a bare Execute.
// ---------------------------------------------------------------------

TEST(EngineLifecycleTest, ExecDeadlineMsAppliesWithoutAService) {
  FaultInjector faults;
  faults.ArmStall(FaultInjector::kWorkerStall, /*stall_ms=*/50);

  Engine engine;
  RegisterDocs(engine.catalog(), MakeDocs());
  auto compiled = engine.Compile(kStageQueries[0].query);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();

  ExecOptions exec;
  exec.deadline_ms = 10;
  QueryContext ctx;
  ctx.set_deadline_after_ms(exec.deadline_ms);
  ctx.set_fault_injector(&faults);
  auto out = engine.Execute(*compiled, exec, &ctx);
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kDeadlineExceeded)
      << out.status().ToString();
}

TEST(EngineLifecycleTest, PreCancelledContextStopsAtStartup) {
  Engine engine;
  RegisterDocs(engine.catalog(), MakeDocs());
  auto compiled = engine.Compile(kStageQueries[0].query);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();

  auto token = std::make_shared<CancellationToken>();
  token->Cancel();
  QueryContext ctx;
  ctx.set_cancellation(token);
  auto out = engine.Execute(*compiled, ExecOptions(), &ctx);
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kCancelled);
}

TEST(EngineLifecycleTest, CooperativeChecksOffIgnoresContext) {
  Engine engine;
  RegisterDocs(engine.catalog(), MakeDocs());
  auto compiled = engine.Compile(kStageQueries[0].query);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();

  auto token = std::make_shared<CancellationToken>();
  token->Cancel();
  QueryContext ctx;
  ctx.set_cancellation(token);
  ExecOptions exec;
  exec.cooperative_checks = false;  // the bench-only escape hatch
  auto out = engine.Execute(*compiled, exec, &ctx);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
}

}  // namespace
}  // namespace jpar
