// The paper's five evaluation queries (Listings 7-11) run against the
// synthetic NOAA dataset and are checked against an independent
// reference evaluator (plain DOM walking, no query engine), with every
// rule configuration and several partition counts.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "core/engine.h"
#include "data/sensor_generator.h"
#include "json/parser.h"
#include "runtime/frame.h"

namespace jpar {
namespace {

// ---------------------------------------------------------------------
// Queries (verbatim from the paper, Listings 7-11).
// ---------------------------------------------------------------------

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

// ---------------------------------------------------------------------
// Reference evaluator: direct DOM computation, no query machinery.
// ---------------------------------------------------------------------

struct Measurement {
  std::string date;
  std::string data_type;
  std::string station;
  int64_t value;
};

std::vector<Measurement> ExtractMeasurements(const Collection& collection) {
  std::vector<Measurement> out;
  for (const JsonFile& file : collection.files) {
    auto text = file.Load();
    EXPECT_TRUE(text.ok());
    auto doc = ParseJson(**text);
    EXPECT_TRUE(doc.ok());
    // GetField returns optional<Item> by value; copy fields out rather
    // than binding references into expiring temporaries.
    const Item root = *doc->GetField("root");
    for (const Item& record : root.array()) {
      const Item results = *record.GetField("results");
      for (const Item& m : results.array()) {
        out.push_back({m.GetField("date")->string_value(),
                       m.GetField("dataType")->string_value(),
                       m.GetField("station")->string_value(),
                       m.GetField("value")->int64_value()});
      }
    }
  }
  return out;
}

bool IsChristmasFrom2003(const std::string& date) {
  // Dates are "YYYYMMDDT00:00".
  return date.size() >= 8 && date.substr(0, 4) >= "2003" &&
         date.substr(4, 4) == "1225";
}

int64_t ReferenceQ0Count(const std::vector<Measurement>& ms) {
  int64_t n = 0;
  for (const Measurement& m : ms) n += IsChristmasFrom2003(m.date) ? 1 : 0;
  return n;
}

std::multiset<int64_t> ReferenceQ1Counts(const std::vector<Measurement>& ms) {
  std::map<std::string, int64_t> by_date;
  for (const Measurement& m : ms) {
    if (m.data_type == "TMIN") ++by_date[m.date];
  }
  std::multiset<int64_t> out;
  for (const auto& [date, count] : by_date) out.insert(count);
  return out;
}

double ReferenceQ2(const std::vector<Measurement>& ms, bool* has_pairs) {
  std::map<std::pair<std::string, std::string>, std::vector<int64_t>> tmin;
  std::map<std::pair<std::string, std::string>, std::vector<int64_t>> tmax;
  for (const Measurement& m : ms) {
    if (m.data_type == "TMIN") tmin[{m.station, m.date}].push_back(m.value);
    if (m.data_type == "TMAX") tmax[{m.station, m.date}].push_back(m.value);
  }
  double sum = 0;
  int64_t count = 0;
  for (const auto& [key, max_values] : tmax) {
    auto it = tmin.find(key);
    if (it == tmin.end()) continue;
    for (int64_t mx : max_values) {
      for (int64_t mn : it->second) {
        sum += static_cast<double>(mx - mn);
        ++count;
      }
    }
  }
  *has_pairs = count > 0;
  return count > 0 ? (sum / static_cast<double>(count)) / 10.0 : 0.0;
}

// ---------------------------------------------------------------------

class PaperQueriesTest : public ::testing::Test {
 protected:
  static Collection MakeData() {
    SensorDataSpec spec;
    spec.num_files = 3;
    spec.records_per_file = 12;
    spec.measurements_per_array = 24;
    spec.num_stations = 6;  // few stations => the self-join finds pairs
    spec.seed = 7;
    return GenerateSensorCollection(spec);
  }

  static Engine MakeEngine(RuleOptions rules, int partitions) {
    EngineOptions options;
    options.rules = rules;
    options.exec.partitions = partitions;
    Engine engine(options);
    engine.catalog()->RegisterCollection("/sensors", MakeData());
    return engine;
  }
};

TEST_F(PaperQueriesTest, Q0MatchesReference) {
  std::vector<Measurement> ms = ExtractMeasurements(MakeData());
  Engine engine = MakeEngine(RuleOptions::All(), 2);
  auto result = engine.Run(kQ0);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(static_cast<int64_t>(result->items.size()),
            ReferenceQ0Count(ms));
  for (const Item& r : result->items) {
    EXPECT_TRUE(IsChristmasFrom2003(r.GetField("date")->string_value()));
  }
}

TEST_F(PaperQueriesTest, Q0bMatchesReference) {
  std::vector<Measurement> ms = ExtractMeasurements(MakeData());
  Engine engine = MakeEngine(RuleOptions::All(), 2);
  auto result = engine.Run(kQ0b);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(static_cast<int64_t>(result->items.size()),
            ReferenceQ0Count(ms));
  for (const Item& r : result->items) {
    ASSERT_TRUE(r.is_string());
    EXPECT_TRUE(IsChristmasFrom2003(r.string_value()));
  }
}

TEST_F(PaperQueriesTest, Q1MatchesReference) {
  std::vector<Measurement> ms = ExtractMeasurements(MakeData());
  std::multiset<int64_t> expected = ReferenceQ1Counts(ms);
  for (const char* query : {kQ1, kQ1b}) {
    Engine engine = MakeEngine(RuleOptions::All(), 2);
    auto result = engine.Run(query);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    std::multiset<int64_t> actual;
    for (const Item& item : result->items) {
      ASSERT_TRUE(item.is_int64()) << item;
      actual.insert(item.int64_value());
    }
    EXPECT_EQ(actual, expected) << query;
  }
}

TEST_F(PaperQueriesTest, Q2MatchesReference) {
  std::vector<Measurement> ms = ExtractMeasurements(MakeData());
  bool has_pairs = false;
  double expected = ReferenceQ2(ms, &has_pairs);
  ASSERT_TRUE(has_pairs) << "spec produced no TMIN/TMAX pairs; adjust seed";
  Engine engine = MakeEngine(RuleOptions::All(), 2);
  auto result = engine.Run(kQ2);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->items.size(), 1u);
  ASSERT_TRUE(result->items[0].is_numeric()) << result->items[0];
  EXPECT_NEAR(result->items[0].AsDouble(), expected, 1e-9);
}

TEST_F(PaperQueriesTest, AllRuleConfigurationsAgree) {
  struct Config {
    const char* name;
    RuleOptions rules;
  };
  RuleOptions path_only = RuleOptions::None();
  path_only.path_rules = true;
  RuleOptions path_pipe = path_only;
  path_pipe.pipelining_rules = true;
  RuleOptions all = RuleOptions::All();
  RuleOptions no_two_step = RuleOptions::All();
  no_two_step.two_step_aggregation = false;
  const Config configs[] = {
      {"none", RuleOptions::None()},
      {"path", path_only},
      {"path+pipe", path_pipe},
      {"all", all},
      {"all-no-two-step", no_two_step},
  };
  for (const char* query : {kQ0, kQ0b, kQ1, kQ1b, kQ2}) {
    std::vector<std::string> baseline;
    for (const Config& config : configs) {
      Engine engine = MakeEngine(config.rules, 2);
      auto result = engine.Run(query);
      ASSERT_TRUE(result.ok())
          << config.name << ": " << result.status().ToString();
      std::vector<std::string> rows;
      for (const Item& item : result->items) {
        rows.push_back(item.ToJsonString());
      }
      std::sort(rows.begin(), rows.end());
      if (baseline.empty()) {
        baseline = rows;
      } else {
        EXPECT_EQ(rows, baseline) << config.name << " on " << query;
      }
    }
  }
}

TEST_F(PaperQueriesTest, PartitionCountsAgree) {
  for (const char* query : {kQ0, kQ0b, kQ1, kQ2}) {
    std::vector<std::string> baseline;
    for (int partitions : {1, 2, 4, 8}) {
      Engine engine = MakeEngine(RuleOptions::All(), partitions);
      auto result = engine.Run(query);
      ASSERT_TRUE(result.ok())
          << partitions << " partitions: " << result.status().ToString();
      std::vector<std::string> rows;
      for (const Item& item : result->items) {
        rows.push_back(item.ToJsonString());
      }
      std::sort(rows.begin(), rows.end());
      if (baseline.empty()) {
        baseline = rows;
      } else {
        EXPECT_EQ(rows, baseline) << partitions << " partitions on " << query;
      }
    }
  }
}

// Threads run every operator stage's partitions concurrently; the
// answer must come back in exactly the sequential order.
TEST_F(PaperQueriesTest, ThreadedExecutionAgrees) {
  for (const char* query : {kQ0, kQ0b, kQ1, kQ1b, kQ2}) {
    EngineOptions options;
    options.exec.partitions = 4;
    options.exec.use_threads = true;
    Engine threaded(options);
    threaded.catalog()->RegisterCollection("/sensors", MakeData());
    Engine serial = MakeEngine(RuleOptions::All(), 4);
    auto a = threaded.Run(query);
    auto b = serial.Run(query);
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    std::vector<std::string> ra, rb;
    for (const Item& i : a->items) ra.push_back(i.ToJsonString());
    for (const Item& i : b->items) rb.push_back(i.ToJsonString());
    EXPECT_EQ(ra, rb) << query;
  }
}

// Batch mode counts each leaf DATASCAN output tuple's frame size
// without serializing it: the stage's pipeline_bytes and
// max_tuple_bytes equal the sum and the max of AppendTupleTo over the
// tuples it emits.
TEST_F(PaperQueriesTest, ScanPipelineBytesEqualSerializedOutput) {
  for (const char* query : {kQ0, kQ0b, kQ1, kQ1b, kQ2}) {
    SCOPED_TRACE(query);
    EngineOptions options;
    options.exec.partitions = 2;
    options.exec.expr_mode = ExprMode::kBytecode;
    Engine engine(options);
    engine.catalog()->RegisterCollection("/sensors", MakeData());
    Result<CompiledQuery> compiled = engine.Compile(query);
    ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
    std::vector<const PNode*> scans;
    std::function<void(const PNode*)> collect = [&](const PNode* node) {
      if (node == nullptr) return;
      if (node->kind == PNode::Kind::kPipeline && node->input == nullptr &&
          node->scan.kind == ScanDesc::Kind::kDataScan) {
        scans.push_back(node);
      }
      collect(node->input.get());
      collect(node->left.get());
      collect(node->right.get());
    };
    collect(compiled->physical.root.get());
    ASSERT_FALSE(scans.empty());
    Executor executor(engine.catalog(), options.exec);
    for (const PNode* scan : scans) {
      ExecStats stats;
      Result<std::vector<Tuple>> out = executor.RunSubtree(*scan, &stats);
      ASSERT_TRUE(out.ok()) << out.status().ToString();
      ASSERT_EQ(stats.stages.size(), 1u);
      uint64_t sum = 0;
      uint64_t max = 0;
      std::string frame;
      for (const Tuple& t : *out) {
        frame.clear();
        const uint64_t bytes = AppendTupleTo(t, &frame);
        sum += bytes;
        max = std::max(max, bytes);
      }
      EXPECT_GT(sum, 0u);
      EXPECT_EQ(stats.stages[0].pipeline_bytes, sum);
      EXPECT_EQ(stats.stages[0].max_tuple_bytes, max);
    }
  }
}

}  // namespace
}  // namespace jpar
