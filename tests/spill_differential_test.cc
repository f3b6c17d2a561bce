// Spill-vs-in-memory differential suite (DESIGN.md §10): every paper
// query must produce byte-identical rows whether its blocking operators
// run fully in memory or spill to disk under a tiny budget — across
// rule configurations (two-step aggregation on and off), spill fan-outs
// (a fan-out of 2 forces recursive repartitions), threaded morsel
// scans, and degraded scans over dirty input (where the skip counts
// must also agree). The acceptance case runs a Q1-style group-by over
// data many times the budget: fail-fast mode must reject it with
// kResourceExhausted and spilling mode must complete it.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include "bench/queries.h"
#include "core/engine.h"
#include "data/sensor_generator.h"

namespace jpar {
namespace {

// A named ExecOptions/RuleOptions combination under test.
struct SpillConfig {
  const char* name;
  RuleOptions rules;
  ExecOptions exec;
};

RuleOptions NoTwoStep() {
  RuleOptions rules = RuleOptions::All();
  rules.two_step_aggregation = false;
  return rules;
}

ExecOptions TinyBudget(uint64_t budget = 4096) {
  ExecOptions exec;
  exec.partitions = 2;
  exec.memory_limit_bytes = budget;
  exec.spill = SpillMode::kEnabled;
  return exec;
}

// Baseline first; every later config must match it exactly.
std::vector<SpillConfig> PaperConfigs() {
  std::vector<SpillConfig> configs;
  ExecOptions unlimited;
  unlimited.partitions = 2;
  configs.push_back({"in-memory", RuleOptions::All(), unlimited});
  configs.push_back({"spill-tiny", RuleOptions::All(), TinyBudget()});
  configs.push_back({"spill-no-two-step", NoTwoStep(), TinyBudget()});
  ExecOptions fanout2 = TinyBudget();
  fanout2.spill_fanout = 2;  // skewed buckets must repartition
  configs.push_back({"spill-fanout-2", RuleOptions::All(), fanout2});
  ExecOptions threaded = TinyBudget();
  threaded.partitions = 4;
  threaded.use_threads = true;
  configs.push_back({"spill-threads", RuleOptions::All(), threaded});
  return configs;
}

Collection SensorData() {
  SensorDataSpec spec;
  spec.num_files = 3;
  spec.records_per_file = 12;
  spec.measurements_per_array = 24;
  spec.num_stations = 6;  // few stations => the self-join finds pairs
  spec.seed = 7;
  return GenerateSensorCollection(spec);
}

Result<QueryOutput> RunSensors(const char* query, const SpillConfig& config) {
  EngineOptions options;
  options.rules = config.rules;
  options.exec = config.exec;
  Engine engine(options);
  engine.catalog()->RegisterCollection("/sensors", SensorData());
  return engine.Run(query);
}

std::vector<std::string> Rows(const QueryOutput& out) {
  std::vector<std::string> rows;
  for (const Item& i : out.items) rows.push_back(i.ToJsonString());
  return rows;
}

std::vector<std::string> SortedRows(const QueryOutput& out) {
  std::vector<std::string> rows = Rows(out);
  std::sort(rows.begin(), rows.end());
  return rows;
}

// ---------------------------------------------------------------------
// All five paper queries, identical rows in every configuration.
// ---------------------------------------------------------------------

TEST(SpillDifferentialTest, PaperQueriesAgreeAcrossSpillConfigs) {
  for (const jparbench::NamedQuery& q : jparbench::kAllQueries) {
    SCOPED_TRACE(q.name);
    std::vector<std::string> baseline;
    for (const SpillConfig& config : PaperConfigs()) {
      SCOPED_TRACE(config.name);
      auto out = RunSensors(q.text, config);
      ASSERT_TRUE(out.ok()) << out.status().ToString();
      std::vector<std::string> rows = SortedRows(*out);
      if (baseline.empty()) {
        baseline = rows;
      } else {
        EXPECT_EQ(rows, baseline);
      }
    }
  }
}

// The group-by queries actually spill under the tiny budget — the
// differential above must not be vacuous.
TEST(SpillDifferentialTest, GroupByQueriesSpillUnderTinyBudget) {
  for (const char* query : {jparbench::kQ1, jparbench::kQ1b}) {
    for (const SpillConfig& config : PaperConfigs()) {
      if (config.exec.spill != SpillMode::kEnabled) continue;
      SCOPED_TRACE(config.name);
      auto out = RunSensors(query, config);
      ASSERT_TRUE(out.ok()) << out.status().ToString();
      EXPECT_GT(out->stats.spill_runs, 0u);
      EXPECT_GT(out->stats.spill_bytes_written, 0u);
      EXPECT_GT(out->stats.spill_merge_passes, 0u);
    }
  }
}

// ---------------------------------------------------------------------
// Threaded spilling: every group-by and join partition runs on its own
// thread, each group-by task with its own spill manager. The rows must
// be byte-identical, in order, to the same spilling run without
// threads; the group-bys must really spill; and no run file may outlive
// the query.
// ---------------------------------------------------------------------

TEST(SpillDifferentialTest, ThreadedSpillingMatchesSequentialInOrder) {
  namespace fs = std::filesystem;
  const std::string dir = ::testing::TempDir() + "/jpar_spill_threads";
  fs::remove_all(dir);
  fs::create_directories(dir);
  for (const RuleOptions& rules : {RuleOptions::All(), NoTwoStep()}) {
    for (const jparbench::NamedQuery& q : jparbench::kAllQueries) {
      SCOPED_TRACE(std::string(q.name) +
                   (rules.two_step_aggregation ? "" : " without two-step"));
      SpillConfig sequential{"spill-sequential", rules, TinyBudget()};
      sequential.exec.partitions = 4;
      sequential.exec.spill_dir = dir;
      SpillConfig threaded = sequential;
      threaded.name = "spill-threaded";
      threaded.exec.use_threads = true;
      auto expected = RunSensors(q.text, sequential);
      ASSERT_TRUE(expected.ok()) << expected.status().ToString();
      auto out = RunSensors(q.text, threaded);
      ASSERT_TRUE(out.ok()) << out.status().ToString();
      EXPECT_EQ(Rows(*out), Rows(*expected));  // ordered comparison
      EXPECT_EQ(out->stats.spill_runs, expected->stats.spill_runs);
      EXPECT_EQ(out->stats.spill_bytes_written,
                expected->stats.spill_bytes_written);
      if (q.text == jparbench::kQ1 || q.text == jparbench::kQ1b) {
        EXPECT_GT(out->stats.spill_runs, 0u);
      }
      EXPECT_TRUE(fs::is_empty(dir));
    }
  }
  fs::remove_all(dir);
}

// ---------------------------------------------------------------------
// Sort spilling: ordered output (not just the row multiset) must be
// byte-identical, including the order of ties — external runs merge
// back in stable order.
// ---------------------------------------------------------------------

constexpr const char* kOrderByQuery = R"(
  for $r in collection("/sensors")("root")()("results")()
  order by $r("date"), $r("station") descending
  return $r)";

TEST(SpillDifferentialTest, SortSpillPreservesOrderAndTies) {
  for (const SpillConfig& config : PaperConfigs()) {
    if (config.exec.spill != SpillMode::kEnabled) continue;
    SCOPED_TRACE(config.name);
    // The in-memory reference keeps the config's partitioning: the
    // global merge breaks cross-partition ties in partition order, so
    // only runs with identical partitioning are comparable row-by-row.
    SpillConfig reference = config;
    reference.exec.spill = SpillMode::kDisabled;
    reference.exec.memory_limit_bytes = 0;
    auto expected = RunSensors(kOrderByQuery, reference);
    ASSERT_TRUE(expected.ok()) << expected.status().ToString();
    auto out = RunSensors(kOrderByQuery, config);
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    EXPECT_EQ(Rows(*out), Rows(*expected));  // ordered comparison
    EXPECT_GT(out->stats.spill_runs, 0u);
    EXPECT_GT(out->stats.spill_bytes_written, 0u);
  }
}

// ---------------------------------------------------------------------
// Dirty input: degraded scans (kSkipAndCount) must skip the same
// records and return the same rows whether or not downstream operators
// spill.
// ---------------------------------------------------------------------

Collection DirtyNdjson() {
  Collection c;
  for (int f = 0; f < 4; ++f) {
    std::string text;
    for (int i = 0; i < 50; ++i) {
      int v = f * 50 + i;
      if (i % 9 == 4) {
        text += "{\"v\": " + std::to_string(v) + ", \"g\":\n";  // truncated
      } else {
        text += "{\"v\": " + std::to_string(v) + ", \"g\": \"g" +
                std::to_string(v % 23) + "\"}\n";
      }
    }
    c.files.push_back(JsonFile::FromText(std::move(text)));
  }
  return c;
}

constexpr const char* kDirtyGroupQuery = R"(
  for $d in collection("/dirty")
  group by $g := $d("g")
  return sum($d("v")))";

TEST(SpillDifferentialTest, DirtyInputSkipCountsAndRowsAgree) {
  std::vector<std::string> baseline_rows;
  uint64_t baseline_skipped = 0;
  for (const SpillConfig& config : PaperConfigs()) {
    SCOPED_TRACE(config.name);
    EngineOptions options;
    options.rules = config.rules;
    options.exec = config.exec;
    options.exec.memory_limit_bytes =
        config.exec.spill == SpillMode::kEnabled ? 512 : 0;
    options.exec.on_parse_error = ParseErrorPolicy::kSkipAndCount;
    Engine engine(options);
    engine.catalog()->RegisterCollection("/dirty", DirtyNdjson());
    auto out = engine.Run(kDirtyGroupQuery);
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    EXPECT_GT(out->stats.skipped_records, 0u);
    std::vector<std::string> rows = SortedRows(*out);
    if (baseline_rows.empty()) {
      baseline_rows = rows;
      baseline_skipped = out->stats.skipped_records;
    } else {
      EXPECT_EQ(rows, baseline_rows);
      EXPECT_EQ(out->stats.skipped_records, baseline_skipped);
    }
  }
}

// ---------------------------------------------------------------------
// Acceptance: a Q1-style group-by over data several times the budget.
// ---------------------------------------------------------------------

TEST(SpillDifferentialTest, LargeGroupByCompletesOnlyWithSpilling) {
  SensorDataSpec spec;
  spec.num_files = 4;
  spec.records_per_file = 24;
  spec.measurements_per_array = 30;
  spec.num_stations = 12;
  spec.seed = 11;
  Collection data = GenerateSensorCollection(spec);
  auto total = data.TotalBytes();
  ASSERT_TRUE(total.ok());
  const uint64_t budget = 16u << 10;
  // The premise of the test: the data is at least 4x the budget.
  ASSERT_GE(*total, 4 * budget) << "spec too small, grow it";

  EngineOptions unlimited;
  unlimited.exec.partitions = 2;
  Engine reference(unlimited);
  reference.catalog()->RegisterCollection("/sensors", data);
  auto expected = reference.Run(jparbench::kQ1);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();

  // Fail-fast mode rejects the query: the budget really is too small.
  EngineOptions strict = unlimited;
  strict.exec.memory_limit_bytes = budget;
  Engine strict_engine(strict);
  strict_engine.catalog()->RegisterCollection("/sensors", data);
  auto rejected = strict_engine.Run(jparbench::kQ1);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kResourceExhausted)
      << rejected.status().ToString();

  // Spilling mode completes it, with the same rows, and reports the
  // spill work it did.
  EngineOptions spilling = strict;
  spilling.exec.spill = SpillMode::kEnabled;
  Engine spill_engine(spilling);
  spill_engine.catalog()->RegisterCollection("/sensors", data);
  auto out = spill_engine.Run(jparbench::kQ1);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(SortedRows(*out), SortedRows(*expected));
  EXPECT_GT(out->stats.spill_runs, 0u);
  EXPECT_GT(out->stats.spill_bytes_written, 0u);
}

}  // namespace
}  // namespace jpar
