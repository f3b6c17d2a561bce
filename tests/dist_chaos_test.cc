// Seeded chaos schedules against the fault-tolerant distributed
// runtime (DESIGN.md §12): worker processes SIGKILLed at randomized
// points across the paper's five evaluation queries must either be
// recovered transparently (retry budget available — results stay
// byte-identical to the in-process reference) or surface kWorkerLost
// (retries disabled), and never leak worker processes or spill files.
//
// The schedule RNG is seeded from JPAR_CHAOS_SEED (default 1) so CI
// can sweep seeds while every individual run stays reproducible.

#include <gtest/gtest.h>

#include <dirent.h>
#include <signal.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "data/sensor_generator.h"
#include "dist/dispatcher.h"

#ifndef JPAR_WORKER_BIN_PATH
#error "build must define JPAR_WORKER_BIN_PATH (see tests/CMakeLists.txt)"
#endif

namespace jpar {
namespace {

constexpr const char* kQ0 = R"(
  for $r in collection("/sensors")("root")()("results")()
  let $datetime := dateTime(data($r("date")))
  where year-from-dateTime($datetime) ge 2003
    and month-from-dateTime($datetime) eq 12
    and day-from-dateTime($datetime) eq 25
  return $r)";

constexpr const char* kQ0b = R"(
  for $r in collection("/sensors")("root")()("results")()("date")
  let $datetime := dateTime(data($r))
  where year-from-dateTime($datetime) ge 2003
    and month-from-dateTime($datetime) eq 12
    and day-from-dateTime($datetime) eq 25
  return $r)";

constexpr const char* kQ1 = R"(
  for $r in collection("/sensors")("root")()("results")()
  where $r("dataType") eq "TMIN"
  group by $date := $r("date")
  return count($r("station")))";

constexpr const char* kQ1b = R"(
  for $r in collection("/sensors")("root")()("results")()
  where $r("dataType") eq "TMIN"
  group by $date := $r("date")
  return count(for $i in $r return $i("station")))";

constexpr const char* kQ2 = R"(
  avg(
    for $r_min in collection("/sensors")("root")()("results")()
    for $r_max in collection("/sensors")("root")()("results")()
    where $r_min("station") eq $r_max("station")
      and $r_min("date") eq $r_max("date")
      and $r_min("dataType") eq "TMIN"
      and $r_max("dataType") eq "TMAX"
    return $r_max("value") - $r_min("value")
  ) div 10)";

constexpr const char* kAllQueries[] = {kQ0, kQ0b, kQ1, kQ1b, kQ2};

uint64_t ChaosSeed() {
  const char* env = std::getenv("JPAR_CHAOS_SEED");
  if (env == nullptr || env[0] == '\0') return 1;
  return static_cast<uint64_t>(std::strtoull(env, nullptr, 10));
}

Collection MakeData() {
  SensorDataSpec spec;
  spec.num_files = 5;
  spec.records_per_file = 8;
  spec.measurements_per_array = 16;
  spec.num_stations = 6;
  spec.seed = 7;
  return GenerateSensorCollection(spec);
}

DistOptions MakeDist(int workers) {
  DistOptions dist;
  dist.local_workers = workers;
  dist.worker_binary = JPAR_WORKER_BIN_PATH;
  dist.heartbeat_ms = 200;
  dist.worker_timeout_ms = 3000;
  dist.drain_timeout_ms = 1000;
  return dist;
}

std::vector<std::string> Rows(const QueryOutput& output) {
  std::vector<std::string> rows;
  for (const Item& item : output.items) rows.push_back(item.ToJsonString());
  return rows;
}

/// jpar_worker children of this test process, zombies included — an
/// unreaped child is a leak (scans /proc).
std::vector<pid_t> ChildWorkerPids() {
  std::vector<pid_t> pids;
  DIR* proc = opendir("/proc");
  if (proc == nullptr) return pids;
  while (dirent* entry = readdir(proc)) {
    pid_t pid = static_cast<pid_t>(std::atol(entry->d_name));
    if (pid <= 0) continue;
    char path[64];
    std::snprintf(path, sizeof(path), "/proc/%d/stat", pid);
    std::FILE* f = std::fopen(path, "r");
    if (f == nullptr) continue;
    char comm[64] = {0};
    char state = 0;
    int ppid = 0;
    int n = std::fscanf(f, "%*d (%63[^)]) %c %d", comm, &state, &ppid);
    std::fclose(f);
    (void)state;
    if (n == 3 && ppid == getpid() && std::strcmp(comm, "jpar_worker") == 0) {
      pids.push_back(pid);
    }
  }
  closedir(proc);
  return pids;
}

void ExpectNoWorkerLeaks() {
  for (int i = 0; i < 100 && !ChildWorkerPids().empty(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_TRUE(ChildWorkerPids().empty());
}

/// Per-query kill plan consulted by a cluster-lifetime test_round_hook
/// (the hook is fixed at construction; the plan is re-armed per run).
struct KillPlan {
  std::atomic<bool> armed{false};
  std::atomic<int> victims{1};
};

/// Kills `victims` live workers (SIGKILL) right before the first
/// dispatch of the leaf stage, once per arming.
void HookKill(KillPlan* plan, int stage_id, int attempt) {
  if (stage_id != 0 || attempt != 0) return;
  if (!plan->armed.exchange(false)) return;
  std::vector<pid_t> pids = ChildWorkerPids();
  int n = std::min(plan->victims.load(), static_cast<int>(pids.size()));
  for (int i = 0; i < n; ++i) kill(pids[i], SIGKILL);
}

/// One engine + compiled plan + reference rows per (query, W) pair:
/// byte-identity is defined against an in-process run with
/// partitions = W.
struct Reference {
  std::unique_ptr<Engine> engine;
  std::unique_ptr<CompiledQuery> compiled;
  std::vector<std::string> rows;
};

Reference MakeReference(const char* query, int workers) {
  Reference ref;
  EngineOptions options;
  options.rules = RuleOptions::All();
  options.exec.partitions = workers;
  ref.engine = std::make_unique<Engine>(options);
  ref.engine->catalog()->RegisterCollection("/sensors", MakeData());
  auto compiled = ref.engine->Compile(query, options.rules);
  EXPECT_TRUE(compiled.ok()) << compiled.status().ToString();
  if (!compiled.ok()) return ref;
  ref.compiled = std::make_unique<CompiledQuery>(*std::move(compiled));
  auto local = ref.engine->Execute(*ref.compiled, options.exec);
  EXPECT_TRUE(local.ok()) << local.status().ToString();
  if (local.ok()) ref.rows = Rows(*local);
  return ref;
}

TEST(DistChaosTest, SeededKillSchedulesConvergeToByteIdenticalResults) {
  const uint64_t seed = ChaosSeed();
  uint64_t total_retries = 0;
  for (int workers : {2, 4}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    std::mt19937_64 rng(seed * 1000003 + static_cast<uint64_t>(workers));

    KillPlan plan;
    DistOptions dist = MakeDist(workers);
    dist.max_fragment_retries = 3;
    dist.retry_backoff_ms = 25;
    dist.test_round_hook = [&plan](int stage_id, int attempt) {
      HookKill(&plan, stage_id, attempt);
    };
    Cluster cluster(dist);

    for (size_t q = 0; q < std::size(kAllQueries); ++q) {
      SCOPED_TRACE("query=" + std::to_string(q));
      Reference ref = MakeReference(kAllQueries[q], workers);
      ASSERT_NE(ref.compiled, nullptr);
      EngineOptions opts;
      opts.rules = RuleOptions::All();
      opts.exec.partitions = workers;

      for (int run = 0; run < 3; ++run) {
        SCOPED_TRACE("run=" + std::to_string(run));
        // Schedule: 0 = kill one worker before the leaf dispatch,
        // 1 = kill two workers before the leaf dispatch, 2 = kill one
        // worker from a concurrent thread at a random point mid-query.
        const int schedule = static_cast<int>(rng() % 3);
        std::thread killer;
        if (schedule == 2) {
          const int delay_ms = static_cast<int>(rng() % 80);
          killer = std::thread([delay_ms] {
            std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
            std::vector<pid_t> pids = ChildWorkerPids();
            if (!pids.empty()) kill(pids[0], SIGKILL);
          });
        } else {
          plan.victims.store(schedule == 1 ? 2 : 1);
          plan.armed.store(true);
        }
        QueryContext ctx;
        ctx.set_deadline_after_ms(30000);
        auto out = cluster.Run(kAllQueries[q], opts.rules, opts.exec,
                               *ref.compiled, *ref.engine->catalog(), &ctx);
        if (killer.joinable()) killer.join();
        plan.armed.store(false);
        ASSERT_TRUE(out.ok()) << out.status().ToString();
        EXPECT_EQ(Rows(*out), ref.rows);
        EXPECT_EQ(out->stats.dist_workers, static_cast<uint64_t>(workers));
        total_retries += out->stats.fragment_retries;
        if (out->stats.fragment_retries > 0) {
          EXPECT_GE(out->stats.workers_respawned, 1u);
        }
      }
    }
    cluster.Stop();
    ExpectNoWorkerLeaks();
  }
  // The hook schedules always land: across the whole sweep recovery
  // must actually have been exercised, not just survived-by-luck.
  EXPECT_GE(total_retries, 10u);
}

TEST(DistChaosTest, RetriesDisabledSurfaceWorkerLostUnchanged) {
  KillPlan plan;
  DistOptions dist = MakeDist(2);  // max_fragment_retries = 0
  dist.test_round_hook = [&plan](int stage_id, int attempt) {
    HookKill(&plan, stage_id, attempt);
  };
  Cluster cluster(dist);
  Reference ref = MakeReference(kQ1, 2);
  ASSERT_NE(ref.compiled, nullptr);
  EngineOptions opts;
  opts.rules = RuleOptions::All();
  opts.exec.partitions = 2;

  plan.victims.store(1);
  plan.armed.store(true);
  auto out = cluster.Run(kQ1, opts.rules, opts.exec, *ref.compiled,
                         *ref.engine->catalog(), nullptr);
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kWorkerLost)
      << out.status().ToString();

  // The loss is not sticky: the next query respawns and succeeds.
  auto retry = cluster.Run(kQ1, opts.rules, opts.exec, *ref.compiled,
                           *ref.engine->catalog(), nullptr);
  ASSERT_TRUE(retry.ok()) << retry.status().ToString();
  EXPECT_EQ(Rows(*retry), ref.rows);
  cluster.Stop();
  ExpectNoWorkerLeaks();
}

// A worker killed between its spawn and its hello is a start-up loss:
// with a retry budget the query respawns it and answers; without one
// the loss surfaces as kWorkerLost, and the next query starts afresh.
TEST(DistChaosTest, WorkerKilledBeforeHelloIsRespawnedWithinTheBudget) {
  Reference ref = MakeReference(kQ0b, 2);
  ASSERT_NE(ref.compiled, nullptr);
  EngineOptions opts;
  opts.rules = RuleOptions::All();
  opts.exec.partitions = 2;
  for (int retries : {2, 0}) {
    SCOPED_TRACE("max_fragment_retries=" + std::to_string(retries));
    std::atomic<int> kills{0};
    DistOptions dist = MakeDist(2);
    dist.max_fragment_retries = retries;
    dist.retry_backoff_ms = 25;
    // Kills the first worker spawned, right after its fork.
    dist.test_spawn_hook = [&kills](int /*rank*/, pid_t pid) {
      if (kills.fetch_add(1) == 0) kill(pid, SIGKILL);
    };
    Cluster cluster(dist);
    auto out = cluster.Run(kQ0b, opts.rules, opts.exec, *ref.compiled,
                           *ref.engine->catalog(), nullptr);
    if (retries > 0) {
      ASSERT_TRUE(out.ok()) << out.status().ToString();
      EXPECT_EQ(Rows(*out), ref.rows);
      EXPECT_EQ(out->stats.workers_respawned, 1u);
      EXPECT_EQ(out->stats.fragment_retries, 0u);
      EXPECT_EQ(kills.load(), 3);  // two ranks, one respawn
    } else {
      ASSERT_FALSE(out.ok());
      EXPECT_EQ(out.status().code(), StatusCode::kWorkerLost)
          << out.status().ToString();
      auto again = cluster.Run(kQ0b, opts.rules, opts.exec, *ref.compiled,
                               *ref.engine->catalog(), nullptr);
      ASSERT_TRUE(again.ok()) << again.status().ToString();
      EXPECT_EQ(Rows(*again), ref.rows);
    }
    cluster.Stop();
    ExpectNoWorkerLeaks();
  }
}

TEST(DistChaosTest, ZeroReplayBudgetSpillsAndLeavesNoFilesBehind) {
  // Force every banked stage output through the disk spill path, then
  // verify recovery still reproduces the reference rows and the spool
  // cleans up its run files.
  std::string spill_dir =
      ::testing::TempDir() + "/jpar_chaos_replay_spill";
  std::filesystem::remove_all(spill_dir);
  ASSERT_TRUE(std::filesystem::create_directories(spill_dir));

  KillPlan plan;
  DistOptions dist = MakeDist(2);
  dist.max_fragment_retries = 2;
  dist.retry_backoff_ms = 25;
  dist.replay_memory_bytes = 0;  // spill everything
  dist.test_round_hook = [&plan](int stage_id, int attempt) {
    HookKill(&plan, stage_id, attempt);
  };
  Cluster cluster(dist);
  Reference ref = MakeReference(kQ1, 2);
  ASSERT_NE(ref.compiled, nullptr);
  EngineOptions opts;
  opts.rules = RuleOptions::All();
  opts.exec.partitions = 2;
  opts.exec.spill_dir = spill_dir;

  plan.victims.store(1);
  plan.armed.store(true);
  auto out = cluster.Run(kQ1, opts.rules, opts.exec, *ref.compiled,
                         *ref.engine->catalog(), nullptr);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(Rows(*out), ref.rows);
  EXPECT_GE(out->stats.fragment_retries, 1u);
  EXPECT_GT(out->stats.replay_spill_bytes, 0u);
  cluster.Stop();
  ExpectNoWorkerLeaks();

  // Every replay run file was removed when its stage was freed (or by
  // the spool's destructor sweep at end of query).
  int leftovers = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(spill_dir)) {
    ++leftovers;
    ADD_FAILURE() << "leaked spill file: " << entry.path();
  }
  EXPECT_EQ(leftovers, 0);
  std::filesystem::remove_all(spill_dir);
}

}  // namespace
}  // namespace jpar
