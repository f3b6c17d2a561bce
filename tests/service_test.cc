// Tests for the concurrent query service (src/service/): sessions and
// tickets, the LRU plan cache, admission control (bounded queue +
// memory budget), the worker pool, and stress tests asserting that
// concurrent execution matches sequential results. Run under
// ThreadSanitizer in CI (see .github/workflows/ci.yml).

#include "service/query_service.h"

#include <gtest/gtest.h>

#include <dirent.h>
#include <sys/stat.h>
#include <utime.h>

#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "service/admission.h"
#include "service/plan_cache.h"
#include "stats/collection_stats.h"

namespace jpar {
namespace {

// 60 docs: {"v": i, "g": i % 5}.
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

constexpr const char* kSortedTailQuery = R"(
    for $d in collection("/c")
    where $d("v") gt 54
    order by $d("v") descending
    return $d("v"))";

constexpr const char* kGroupQuery = R"(
    for $d in collection("/c")
    group by $g := $d("g")
    order by $g
    return $g)";

// ---------------------------------------------------------------------
// PlanCache (unit)
// ---------------------------------------------------------------------

TEST(PlanCacheTest, KeyCoversQueryRulesAndExec) {
  RuleOptions rules;
  ExecOptions exec;
  std::string base = PlanCache::Key("q", rules, exec);
  EXPECT_NE(base, PlanCache::Key("q2", rules, exec));
  RuleOptions no_rules = RuleOptions::None();
  EXPECT_NE(base, PlanCache::Key("q", no_rules, exec));
  ExecOptions exec8 = exec;
  exec8.partitions = 8;
  EXPECT_NE(base, PlanCache::Key("q", rules, exec8));
}

TEST(PlanCacheTest, KeyCoversStorageAndStatsEpochsAndStatsMode) {
  RuleOptions rules;
  ExecOptions exec;
  std::string base = PlanCache::Key("q", rules, exec, 0);
  // A plan costed against one cache generation (columns and stats)
  // must not serve a session seeing another.
  EXPECT_NE(base, PlanCache::Key("q", rules, exec, 1));
  ExecOptions off = exec;
  off.stats_mode = StatsMode::kOff;
  EXPECT_NE(base, PlanCache::Key("q", rules, off, 0));
  ExecOptions cold = exec;
  cold.storage_mode = StorageMode::kOff;
  EXPECT_NE(base, PlanCache::Key("q", rules, cold, 0));
}

TEST(PlanCacheTest, LruHitMissEviction) {
  PlanCache cache(2);
  EXPECT_EQ(cache.Lookup("a"), nullptr);  // miss
  cache.Insert("a", std::make_shared<const CompiledQuery>());
  cache.Insert("b", std::make_shared<const CompiledQuery>());
  EXPECT_NE(cache.Lookup("a"), nullptr);  // hit; "a" is now MRU
  cache.Insert("c", std::make_shared<const CompiledQuery>());  // evicts "b"
  EXPECT_EQ(cache.Lookup("b"), nullptr);
  EXPECT_NE(cache.Lookup("a"), nullptr);
  EXPECT_NE(cache.Lookup("c"), nullptr);

  PlanCacheStats s = cache.Stats();
  EXPECT_EQ(s.hits, 3u);
  EXPECT_EQ(s.misses, 2u);
  EXPECT_EQ(s.evictions, 1u);
  EXPECT_EQ(s.entries, 2u);
  EXPECT_EQ(s.capacity, 2u);
}

TEST(PlanCacheTest, ZeroCapacityDisables) {
  PlanCache cache(0);
  cache.Insert("a", std::make_shared<const CompiledQuery>());
  EXPECT_EQ(cache.Lookup("a"), nullptr);
  EXPECT_EQ(cache.Stats().entries, 0u);
}

// ---------------------------------------------------------------------
// AdmissionController (unit)
// ---------------------------------------------------------------------

TEST(AdmissionTest, MemoryBudget) {
  AdmissionController ac(/*memory_budget_bytes=*/100, /*max_queue_depth=*/10);
  // A single reservation beyond the whole budget can never run.
  Status too_big = ac.Admit(150);
  EXPECT_EQ(too_big.code(), StatusCode::kResourceExhausted);

  ASSERT_TRUE(ac.Admit(60).ok());
  Status no_room = ac.Admit(60);  // 60 + 60 > 100
  EXPECT_EQ(no_room.code(), StatusCode::kResourceExhausted);

  ac.StartRunning();
  ac.Finish(60);  // releases the reservation
  EXPECT_TRUE(ac.Admit(60).ok());

  AdmissionStats s = ac.Stats();
  EXPECT_EQ(s.admitted, 2u);
  EXPECT_EQ(s.rejected_memory, 2u);
  EXPECT_EQ(s.reserved_bytes, 60u);
}

TEST(AdmissionTest, BoundedQueue) {
  AdmissionController ac(/*memory_budget_bytes=*/0, /*max_queue_depth=*/1);
  ASSERT_TRUE(ac.Admit(1).ok());
  Status full = ac.Admit(1);
  EXPECT_EQ(full.code(), StatusCode::kUnavailable);

  ac.StartRunning();  // queued -> running frees the queue slot
  EXPECT_TRUE(ac.Admit(1).ok());

  AdmissionStats s = ac.Stats();
  EXPECT_EQ(s.rejected_queue_full, 1u);
  EXPECT_EQ(s.queued_peak, 1u);
  EXPECT_EQ(s.running, 1u);
}

TEST(AdmissionTest, SoftAdmissionClipsInsteadOfRejecting) {
  AdmissionController ac(/*memory_budget_bytes=*/100, /*max_queue_depth=*/2);
  // A request beyond the whole budget is clipped to what is available.
  Result<uint64_t> grant = ac.AdmitSoft(150, /*min_grant_bytes=*/10);
  ASSERT_TRUE(grant.ok());
  EXPECT_EQ(*grant, 100u);
  // Budget exhausted: the floor wins, overcommitting mildly.
  grant = ac.AdmitSoft(60, /*min_grant_bytes=*/10);
  ASSERT_TRUE(grant.ok());
  EXPECT_EQ(*grant, 10u);
  // The queue-depth gate still applies to spill-capable queries.
  EXPECT_EQ(ac.AdmitSoft(1, 1).status().code(), StatusCode::kUnavailable);

  AdmissionStats s = ac.Stats();
  EXPECT_EQ(s.soft_clipped, 2u);
  EXPECT_EQ(s.rejected_memory, 0u);
  EXPECT_EQ(s.rejected_queue_full, 1u);
  EXPECT_EQ(s.reserved_bytes, 110u);

  ac.StartRunning();
  ac.Finish(100);  // release exactly what was granted
  ac.StartRunning();
  ac.Finish(10);
  EXPECT_EQ(ac.Stats().reserved_bytes, 0u);

  // With no budget the full request is granted unclipped.
  AdmissionController unlimited(0, 2);
  grant = unlimited.AdmitSoft(1ull << 40, 1);
  ASSERT_TRUE(grant.ok());
  EXPECT_EQ(*grant, 1ull << 40);
  EXPECT_EQ(unlimited.Stats().soft_clipped, 0u);
}

TEST(AdmissionTest, UnavailableStatusString) {
  EXPECT_EQ(Status::Unavailable("x").ToString(), "Unavailable: x");
  EXPECT_EQ(StatusCodeToString(StatusCode::kUnavailable), "Unavailable");
}

// ---------------------------------------------------------------------
// QueryService end-to-end
// ---------------------------------------------------------------------

TEST(QueryServiceTest, TwoSessionsConcurrentIndependentResults) {
  ServiceOptions options;
  options.worker_threads = 4;
  QueryService service(options);
  RegisterDocs(service.catalog(), MakeDocs());

  // Session A: full rules, 3 partitions. Session B: rules off, serial —
  // independent configurations against the shared catalog.
  EngineOptions a_opts;
  a_opts.exec.partitions = 3;
  auto a = service.CreateSession(a_opts);
  EngineOptions b_opts;
  b_opts.rules = RuleOptions::None();
  auto b = service.CreateSession(b_opts);

  std::vector<QueryTicket> a_tickets, b_tickets;
  for (int i = 0; i < 8; ++i) {
    a_tickets.push_back(a->Submit(kSortedTailQuery));
    b_tickets.push_back(b->Submit(kGroupQuery));
  }
  const std::vector<std::string> a_expected = {"59", "58", "57", "56", "55"};
  const std::vector<std::string> b_expected = {"0", "1", "2", "3", "4"};
  for (QueryTicket& t : a_tickets) {
    ASSERT_TRUE(t.status().ok()) << t.status().ToString();
    EXPECT_EQ(Rows(t.output()), a_expected);
  }
  for (QueryTicket& t : b_tickets) {
    ASSERT_TRUE(t.status().ok()) << t.status().ToString();
    EXPECT_EQ(Rows(t.output()), b_expected);
  }

  EXPECT_EQ(a->Stats().succeeded, 8u);
  EXPECT_EQ(b->Stats().succeeded, 8u);
  ServiceMetrics m = service.Metrics();
  EXPECT_EQ(m.sessions, 2u);
  EXPECT_EQ(m.submitted, 16u);
  EXPECT_EQ(m.succeeded, 16u);
  EXPECT_EQ(m.failed, 0u);
}

TEST(QueryServiceTest, RepeatedQueryIsAPlanCacheHit) {
  QueryService service;
  RegisterDocs(service.catalog(), MakeDocs());
  auto session = service.CreateSession();

  QueryTicket first = session->Submit(kSortedTailQuery);
  first.Wait();
  ASSERT_TRUE(first.status().ok()) << first.status().ToString();
  EXPECT_FALSE(first.plan_cache_hit());

  QueryTicket second = session->Submit(kSortedTailQuery);
  second.Wait();
  ASSERT_TRUE(second.status().ok()) << second.status().ToString();
  EXPECT_TRUE(second.plan_cache_hit());
  EXPECT_EQ(Rows(second.output()), Rows(first.output()));

  ServiceMetrics m = service.Metrics();
  EXPECT_EQ(m.plan_cache.hits, 1u);
  EXPECT_EQ(m.plan_cache.misses, 1u);
}

TEST(QueryServiceTest, TotalsAreTheFoldOfCompletedQueries) {
  QueryService service;
  RegisterDocs(service.catalog(), MakeDocs());
  EngineOptions threaded;
  threaded.exec.partitions = 3;
  threaded.exec.use_threads = true;
  auto a = service.CreateSession();
  auto b = service.CreateSession(threaded);
  std::vector<QueryTicket> tickets;
  for (int i = 0; i < 6; ++i) {
    tickets.push_back(a->Submit(kGroupQuery));
    tickets.push_back(b->Submit(kSortedTailQuery));
  }
  tickets.push_back(a->Submit("for $d in"));  // fails: reports no stats
  service.Drain();

  // Fold each successful query's counters by the rule the list gives.
  std::map<std::string, double> want;
  int succeeded = 0;
  for (const QueryTicket& t : tickets) {
    if (!t.status().ok()) continue;
    ++succeeded;
    t.output().stats.ForEachCounter(
        [&want](const char* name, auto v, CounterMerge merge) {
          double& w = want[name];
          const double d = static_cast<double>(v);
          if (merge == CounterMerge::kSum) w += d;
          if (merge == CounterMerge::kMax && d > w) w = d;
        });
  }
  EXPECT_EQ(succeeded, 12);

  ServiceMetrics m = service.Metrics();
  size_t checked = 0;
  m.totals.ForEachCounter([&](const char* name, auto v, CounterMerge) {
    const double w = want[name];
    EXPECT_NEAR(static_cast<double>(v), w, 1e-9 * std::max(1.0, w)) << name;
    ++checked;
  });
  EXPECT_EQ(checked, want.size());
  EXPECT_GT(m.totals.bytes_scanned, 0u);
  EXPECT_EQ(m.totals.real_ms, 0);  // caller-set: never folded
}

// Stats-epoch invalidation: a plan compiled against one stats
// generation must not be served once the collection (and therefore its
// sampled statistics) has changed. Mutations are applied on disk —
// append, truncate, and a same-size rewrite that only an mtime tick
// distinguishes — and after each, the cache must recompile.
TEST(QueryServiceTest, StatsEpochInvalidatesPlanCache) {
  // Runs with everything on, with the storage tier off and with stats
  // off: learned stats or learned columns each advance the epoch.
  struct Modes {
    StorageMode storage;
    StatsMode stats;
  };
  for (Modes modes : {Modes{StorageMode::kAuto, StatsMode::kAuto},
                      Modes{StorageMode::kOff, StatsMode::kAuto},
                      Modes{StorageMode::kAuto, StatsMode::kOff}}) {
    SCOPED_TRACE("storage " + std::to_string(static_cast<int>(modes.storage)) +
                 ", stats " + std::to_string(static_cast<int>(modes.stats)));
    StorageManager::Instance().Clear();

    // One on-disk NDJSON file; all lines the same width so the
    // same-size rewrite below is easy to produce.
    std::string tmpl = ::testing::TempDir() + "/jpar_svc_stats_XXXXXX";
    std::vector<char> buf(tmpl.begin(), tmpl.end());
    buf.push_back('\0');
    char* made = ::mkdtemp(buf.data());
    ASSERT_NE(made, nullptr);
    const std::string dir = made;
    const std::string path = dir + "/rows.ndjson";
    auto write_rows = [&](int base, int n) {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      for (int i = 0; i < n; ++i) {
        out << "{\"v\": " << (base + i) << "}\n";  // 3-digit values
      }
    };
    int mtime_step = 0;
    auto bump_mtime = [&](const std::string& p) {
      struct utimbuf times;
      times.actime = ::time(nullptr) + (++mtime_step) * 2;
      times.modtime = times.actime;
      ASSERT_EQ(::utime(p.c_str(), &times), 0) << p;
    };
    write_rows(/*base=*/110, /*n=*/64);

    ServiceOptions options;
    options.engine.exec.storage_mode = modes.storage;
    options.engine.exec.stats_mode = modes.stats;
    QueryService service(options);
    Collection c;
    c.files.push_back(JsonFile::FromPath(path));
    service.catalog()->RegisterCollection("/disk", std::move(c));
    auto session = service.CreateSession();
    const char* query = R"(
        for $d in collection("/disk")
        where $d("v") gt 120
        order by $d("v")
        return $d("v"))";
    auto run = [&]() -> bool {
      QueryTicket t = session->Submit(query);
      t.Wait();
      EXPECT_TRUE(t.status().ok()) << t.status().ToString();
      return t.plan_cache_hit();
    };

    // First run misses and learns stats or columns (bumping the cache
    // epoch), so the second run's key differs and misses again; by the
    // third run the epoch is quiescent and the cache hits.
    EXPECT_FALSE(run());
    run();  // epoch moved mid-flight; hit-or-miss depends on timing
    EXPECT_TRUE(run());

    struct Mutation {
      const char* what;
      std::function<void()> apply;
    };
    const Mutation mutations[] = {
        {"append", [&] { write_rows(110, 65); }},
        {"truncate", [&] { write_rows(110, 40); }},
        {"same-size rewrite", [&] { write_rows(210, 40); }},
    };
    for (const Mutation& m : mutations) {
      m.apply();
      bump_mtime(path);
      // The first post-mutation submit computes its key before executing,
      // so it may still hit; its execution detects the stale sample and
      // rebuilds, bumping the epoch. The next submit must recompile.
      run();
      EXPECT_FALSE(run()) << "stale plan served after " << m.what;
    }

    std::remove(path.c_str());
    if (DIR* d = ::opendir(dir.c_str())) {
      while (struct dirent* e = ::readdir(d)) {
        std::string name = e->d_name;
        if (name == "." || name == "..") continue;
        std::remove((dir + "/" + name).c_str());
      }
      ::closedir(d);
    }
    ::rmdir(dir.c_str());
  }
}

TEST(QueryServiceTest, CacheKeyedByOptionsNotJustText) {
  QueryService service;
  RegisterDocs(service.catalog(), MakeDocs());
  auto full = service.CreateSession();
  EngineOptions none;
  none.rules = RuleOptions::None();
  auto bare = service.CreateSession(none);

  full->Submit(kSortedTailQuery).Wait();
  QueryTicket t = bare->Submit(kSortedTailQuery);
  t.Wait();
  // Same text, different rule set: must compile separately (the plans
  // differ), not reuse the cached plan.
  EXPECT_FALSE(t.plan_cache_hit());
  EXPECT_EQ(service.Metrics().plan_cache.misses, 2u);
}

TEST(QueryServiceTest, PlanCacheEvictsAtCapacity) {
  ServiceOptions options;
  options.plan_cache_capacity = 2;
  options.worker_threads = 1;
  QueryService service(options);
  RegisterDocs(service.catalog(), MakeDocs());
  auto session = service.CreateSession();

  for (int threshold : {10, 20, 30}) {
    std::string q = "for $d in collection(\"/c\") where $d(\"v\") gt " +
                    std::to_string(threshold) + " return $d(\"v\")";
    QueryTicket t = session->Submit(q);
    ASSERT_TRUE(t.status().ok()) << t.status().ToString();
  }
  ServiceMetrics m = service.Metrics();
  EXPECT_EQ(m.plan_cache.misses, 3u);
  EXPECT_EQ(m.plan_cache.evictions, 1u);
  EXPECT_EQ(m.plan_cache.entries, 2u);
}

// Holds queries inside on_query_start until Release() — makes the
// admission tests deterministic: the gated query is pinned "in flight".
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

TEST(QueryServiceTest, MemoryBudgetRejectsWhileInFlightCompletes) {
  QueryGate gate;
  ServiceOptions options;
  options.worker_threads = 1;
  options.memory_budget_bytes = 100ull << 20;
  options.on_query_start = gate.Hook();
  // Each query reserves 60 MB of the 100 MB budget.
  options.engine.exec.memory_limit_bytes = 60ull << 20;
  QueryService service(options);
  RegisterDocs(service.catalog(), MakeDocs());
  auto session = service.CreateSession();

  QueryTicket in_flight = session->Submit(kSortedTailQuery);
  gate.AwaitStarted(1);  // pinned on the worker, reservation held

  QueryTicket rejected = session->Submit(kSortedTailQuery);
  // Rejection is synchronous: no worker ever sees this query.
  EXPECT_TRUE(rejected.done());
  EXPECT_EQ(rejected.status().code(), StatusCode::kResourceExhausted);

  gate.Release();
  in_flight.Wait();
  EXPECT_TRUE(in_flight.status().ok()) << in_flight.status().ToString();
  EXPECT_EQ(Rows(in_flight.output()),
            (std::vector<std::string>{"59", "58", "57", "56", "55"}));

  ServiceMetrics m = service.Metrics();
  EXPECT_EQ(m.admission.rejected_memory, 1u);
  EXPECT_EQ(m.rejected, 1u);
  EXPECT_EQ(m.succeeded, 1u);
  EXPECT_EQ(session->Stats().rejected, 1u);

  // With the reservation released, the same submission is admitted.
  QueryTicket retry = session->Submit(kSortedTailQuery);
  retry.Wait();
  EXPECT_TRUE(retry.status().ok()) << retry.status().ToString();
}

// The spill-enabled twin of the test above: under the same budget
// pressure, a session that can degrade to disk is admitted with a
// clipped grant instead of being rejected, and its query still
// succeeds (running under the smaller soft budget).
TEST(QueryServiceTest, SpillCapableSessionClippedInsteadOfRejected) {
  QueryGate gate;
  ServiceOptions options;
  options.worker_threads = 2;
  options.memory_budget_bytes = 100ull << 20;
  options.on_query_start = gate.Hook();
  options.engine.exec.memory_limit_bytes = 60ull << 20;
  QueryService service(options);
  RegisterDocs(service.catalog(), MakeDocs());
  auto strict_session = service.CreateSession();

  EngineOptions spill_opts = options.engine;
  spill_opts.exec.spill = SpillMode::kEnabled;
  auto spill_session = service.CreateSession(spill_opts);

  QueryTicket in_flight = strict_session->Submit(kSortedTailQuery);
  gate.AwaitStarted(1);  // holds 60 MB of the 100 MB budget

  // Only 40 MB remain; the same 60 MB request from the spill-capable
  // session is clipped, not rejected.
  QueryTicket clipped = spill_session->Submit(kSortedTailQuery);
  gate.Release();

  EXPECT_TRUE(in_flight.status().ok()) << in_flight.status().ToString();
  EXPECT_TRUE(clipped.status().ok()) << clipped.status().ToString();
  EXPECT_EQ(Rows(clipped.output()),
            (std::vector<std::string>{"59", "58", "57", "56", "55"}));

  service.Drain();
  ServiceMetrics m = service.Metrics();
  EXPECT_EQ(m.admission.soft_clipped, 1u);
  EXPECT_EQ(m.admission.rejected_memory, 0u);
  EXPECT_EQ(m.rejected, 0u);
  EXPECT_EQ(m.succeeded, 2u);
  EXPECT_EQ(m.admission.reserved_bytes, 0u);
  // The metrics dump names the new counter.
  EXPECT_NE(m.ToString().find("soft-budget grants clipped"),
            std::string::npos);
}

TEST(QueryServiceTest, FullQueueRejectsWithUnavailable) {
  QueryGate gate;
  ServiceOptions options;
  options.worker_threads = 1;
  options.max_queue_depth = 1;
  options.on_query_start = gate.Hook();
  QueryService service(options);
  RegisterDocs(service.catalog(), MakeDocs());
  auto session = service.CreateSession();

  QueryTicket running = session->Submit(kSortedTailQuery);
  gate.AwaitStarted(1);  // running on the only worker, queue empty

  QueryTicket queued = session->Submit(kSortedTailQuery);
  QueryTicket overflow = session->Submit(kSortedTailQuery);
  EXPECT_TRUE(overflow.done());
  EXPECT_EQ(overflow.status().code(), StatusCode::kUnavailable);

  gate.Release();
  EXPECT_TRUE(running.status().ok()) << running.status().ToString();
  EXPECT_TRUE(queued.status().ok()) << queued.status().ToString();

  ServiceMetrics m = service.Metrics();
  EXPECT_EQ(m.admission.rejected_queue_full, 1u);
  EXPECT_EQ(m.admission.queued_peak, 1u);
}

TEST(QueryServiceTest, InvalidExecOptionsRejectedAtAdmission) {
  QueryService service;
  RegisterDocs(service.catalog(), MakeDocs());

  EngineOptions bad;
  bad.exec.partitions = 0;
  auto s1 = service.CreateSession(bad);
  EXPECT_EQ(s1->Submit(kSortedTailQuery).status().code(),
            StatusCode::kInvalidArgument);

  bad = EngineOptions();
  bad.exec.frame_bytes = 0;
  auto s2 = service.CreateSession(bad);
  EXPECT_EQ(s2->Submit(kSortedTailQuery).status().code(),
            StatusCode::kInvalidArgument);

  bad = EngineOptions();
  bad.exec.cores_per_node = -2;
  auto s3 = service.CreateSession(bad);
  EXPECT_EQ(s3->Submit(kSortedTailQuery).status().code(),
            StatusCode::kInvalidArgument);

  // Nothing reached the workers or the admission queue.
  ServiceMetrics m = service.Metrics();
  EXPECT_EQ(m.rejected, 3u);
  EXPECT_EQ(m.admission.admitted, 0u);
}

TEST(QueryServiceTest, CompileErrorsCompleteTheTicket) {
  QueryService service;
  RegisterDocs(service.catalog(), MakeDocs());
  auto session = service.CreateSession();
  QueryTicket t = session->Submit("for $d in (((");
  t.Wait();
  EXPECT_FALSE(t.status().ok());
  EXPECT_EQ(service.Metrics().failed, 1u);
  // A failed compile must not poison the cache.
  EXPECT_EQ(service.Metrics().plan_cache.entries, 0u);
}

TEST(QueryServiceTest, DrainWaitsForAllSubmitted) {
  ServiceOptions options;
  options.worker_threads = 2;
  QueryService service(options);
  RegisterDocs(service.catalog(), MakeDocs());
  auto session = service.CreateSession();

  std::vector<QueryTicket> tickets;
  for (int i = 0; i < 12; ++i) tickets.push_back(session->Submit(kGroupQuery));
  service.Drain();
  for (QueryTicket& t : tickets) {
    EXPECT_TRUE(t.done());
    EXPECT_TRUE(t.status().ok()) << t.status().ToString();
  }
}

// ---------------------------------------------------------------------
// Concurrency stress: service and bare-engine results must match the
// sequential baseline exactly.
// ---------------------------------------------------------------------

std::vector<std::string> StressQueries() {
  std::vector<std::string> queries;
  for (int threshold : {0, 10, 20, 30, 40, 50}) {
    queries.push_back(
        "for $d in collection(\"/c\") where $d(\"v\") gt " +
        std::to_string(threshold) +
        " order by $d(\"v\") return $d(\"v\")");
  }
  queries.push_back(kGroupQuery);
  return queries;
}

TEST(QueryServiceStressTest, ManyClientsMatchSequentialResults) {
  const std::vector<std::string> docs = MakeDocs();
  const std::vector<std::string> queries = StressQueries();

  // Sequential baseline on a bare engine.
  Engine baseline;
  RegisterDocs(baseline.catalog(), docs);
  std::vector<std::vector<std::string>> expected;
  for (const std::string& q : queries) {
    auto out = baseline.Run(q);
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    expected.push_back(Rows(*out));
  }

  ServiceOptions options;
  options.worker_threads = 4;
  options.engine.exec.partitions = 2;
  // This test measures correctness under load, not admission: keep the
  // queue deep enough that nothing is rejected.
  options.max_queue_depth = 1000;
  QueryService service(options);
  RegisterDocs(service.catalog(), docs);

  constexpr int kClientThreads = 4;
  constexpr int kQueriesPerClient = 20;
  std::vector<std::thread> clients;
  std::vector<std::string> failures;
  std::mutex failures_mu;
  for (int c = 0; c < kClientThreads; ++c) {
    clients.emplace_back([&, c] {
      auto session = service.CreateSession();
      std::vector<std::pair<size_t, QueryTicket>> tickets;
      for (int i = 0; i < kQueriesPerClient; ++i) {
        size_t qi = static_cast<size_t>(c + i) % queries.size();
        tickets.emplace_back(qi, session->Submit(queries[qi]));
      }
      for (auto& [qi, ticket] : tickets) {
        ticket.Wait();
        std::string failure;
        if (!ticket.status().ok()) {
          failure = ticket.status().ToString();
        } else if (Rows(ticket.output()) != expected[qi]) {
          failure = "wrong rows for query " + std::to_string(qi);
        }
        if (!failure.empty()) {
          std::lock_guard<std::mutex> lock(failures_mu);
          failures.push_back(std::move(failure));
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_TRUE(failures.empty()) << failures.front();

  ServiceMetrics m = service.Metrics();
  EXPECT_EQ(m.submitted, static_cast<uint64_t>(kClientThreads) *
                             kQueriesPerClient);
  EXPECT_EQ(m.succeeded, m.submitted);
  EXPECT_EQ(m.rejected, 0u);
  EXPECT_EQ(m.failed, 0u);
  // Every distinct (query, options) compiles at least once; everything
  // else should hit (racing first-compiles may add a few misses).
  EXPECT_EQ(m.plan_cache.hits + m.plan_cache.misses, m.submitted);
  EXPECT_GE(m.plan_cache.misses, queries.size());
  EXPECT_GT(m.plan_cache.hits, 0u);
}

// Clients hammer Submit while a dedicated thread cancels every other
// ticket as fast as it can. Run under TSan in CI: the point is that
// Cancel racing execution, completion, and Drain is data-race-free,
// and that every ticket still resolves to success or kCancelled with
// balanced counters.
TEST(QueryServiceStressTest, CancelRacingExecutionIsCleanAndBalanced) {
  ServiceOptions options;
  options.worker_threads = 4;
  options.max_queue_depth = 1000;
  QueryService service(options);
  RegisterDocs(service.catalog(), MakeDocs());

  constexpr int kClientThreads = 4;
  constexpr int kQueriesPerClient = 25;
  std::vector<std::thread> clients;
  std::vector<std::string> failures;
  std::mutex failures_mu;
  for (int c = 0; c < kClientThreads; ++c) {
    clients.emplace_back([&, c] {
      auto session = service.CreateSession();
      const std::vector<std::string> queries = StressQueries();
      for (int i = 0; i < kQueriesPerClient; ++i) {
        size_t qi = static_cast<size_t>(c + i) % queries.size();
        QueryTicket t = session->Submit(queries[qi]);
        // Odd submissions race a cancel against the running query;
        // either outcome (finished first or cancelled) is legal.
        if (i % 2 == 1) t.Cancel();
        Status st = t.status();
        if (!st.ok() && st.code() != StatusCode::kCancelled) {
          std::lock_guard<std::mutex> lock(failures_mu);
          failures.push_back(st.ToString());
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_TRUE(failures.empty()) << failures.front();

  service.Drain();
  ServiceMetrics m = service.Metrics();
  EXPECT_EQ(m.submitted,
            static_cast<uint64_t>(kClientThreads) * kQueriesPerClient);
  EXPECT_EQ(m.succeeded + m.failed, m.submitted);
  EXPECT_EQ(m.failed, m.cancelled);  // cancels are the only failures
  EXPECT_EQ(m.admission.reserved_bytes, 0u);
  EXPECT_EQ(m.admission.queued, 0u);
  EXPECT_EQ(m.admission.running, 0u);
}

// Destroying the service with queries still in flight — some of them
// just cancelled, some still queued — must drain cleanly rather than
// orphan workers or deadlock; the tickets outlive the service and all
// resolve.
TEST(QueryServiceStressTest, DestructionWithInFlightCancelledQueriesDrains) {
  std::vector<QueryTicket> tickets;
  {
    ServiceOptions options;
    options.worker_threads = 2;
    options.max_queue_depth = 1000;
    QueryService service(options);
    RegisterDocs(service.catalog(), MakeDocs());
    auto session = service.CreateSession();

    for (int i = 0; i < 30; ++i) {
      tickets.push_back(session->Submit(kGroupQuery));
      if (i % 3 == 0) tickets.back().Cancel();
    }
    // The destructor drains in-flight work, then stops the pool.
  }
  for (QueryTicket& t : tickets) {
    EXPECT_TRUE(t.done());
    Status st = t.status();
    EXPECT_TRUE(st.ok() || st.code() == StatusCode::kCancelled)
        << st.ToString();
  }
}

TEST(QueryServiceStressTest, BareEngineConcurrentRunWithThreads) {
  const std::vector<std::string> docs = MakeDocs();
  const std::vector<std::string> queries = StressQueries();

  Engine baseline;
  RegisterDocs(baseline.catalog(), docs);
  std::vector<std::vector<std::string>> expected;
  for (const std::string& q : queries) {
    auto out = baseline.Run(q);
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    expected.push_back(Rows(*out));
  }

  // One shared engine, real partition threads, concurrent callers.
  EngineOptions options;
  options.exec.partitions = 4;
  options.exec.use_threads = true;
  Engine engine(options);
  RegisterDocs(engine.catalog(), docs);

  constexpr int kThreads = 4;
  constexpr int kRepeats = 5;
  std::vector<std::thread> callers;
  std::vector<std::string> failures;
  std::mutex failures_mu;
  for (int c = 0; c < kThreads; ++c) {
    callers.emplace_back([&, c] {
      for (int i = 0; i < kRepeats; ++i) {
        size_t qi = static_cast<size_t>(c + i) % queries.size();
        auto out = engine.Run(queries[qi]);
        std::string failure;
        if (!out.ok()) {
          failure = out.status().ToString();
        } else if (Rows(*out) != expected[qi]) {
          failure = "wrong rows for query " + std::to_string(qi);
        }
        if (!failure.empty()) {
          std::lock_guard<std::mutex> lock(failures_mu);
          failures.push_back(std::move(failure));
        }
      }
    });
  }
  for (std::thread& t : callers) t.join();
  EXPECT_TRUE(failures.empty()) << failures.front();
}

}  // namespace
}  // namespace jpar
