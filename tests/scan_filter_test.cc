// Oracle for the scan filter (RuleOptions::scan_filter, DESIGN.md §9):
// DATASCAN tests the SELECTs above it on a slim record and never builds
// the objects they reject. The filter must be invisible in every answer,
// so each case runs with the flag off (the reference: every record is
// built and the SELECT decides) and on, and compares the ordered
// answers, the error codes and messages, and the degraded-scan skip
// counts.

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "bench/queries.h"
#include "core/engine.h"
#include "data/sensor_generator.h"
#include "json/parser.h"

namespace jpar {
namespace {

struct Answer {
  Status status;
  std::vector<std::string> items;
  ExecStats stats;
};

Answer Execute(const Collection& data, std::string_view query,
            const ExecOptions& exec, bool scan_filter) {
  EngineOptions options;
  options.exec = exec;
  options.rules.scan_filter = scan_filter;
  Engine engine(options);
  engine.catalog()->RegisterCollection("/sensors", data);
  Answer run;
  auto out = engine.Run(query);
  if (!out.ok()) {
    run.status = out.status();
    return run;
  }
  for (const Item& item : out->items) run.items.push_back(item.ToJsonString());
  run.stats = out->stats;
  return run;
}

/// Runs `query` with the filter off and on and expects the same answer.
/// Returns the run with the filter on.
Answer ExpectSameAnswer(const Collection& data, std::string_view query,
                     const ExecOptions& exec) {
  Answer off = Execute(data, query, exec, false);
  Answer on = Execute(data, query, exec, true);
  EXPECT_EQ(on.status.ToString(), off.status.ToString());
  EXPECT_EQ(on.items, off.items);
  EXPECT_EQ(on.stats.skipped_records, off.stats.skipped_records);
  EXPECT_EQ(on.stats.items_scanned, off.stats.items_scanned);
  EXPECT_EQ(off.stats.scan_items_filtered, 0u);
  return on;
}

Collection SensorData() {
  SensorDataSpec spec;
  spec.num_files = 6;
  spec.records_per_file = 12;
  spec.measurements_per_array = 20;
  spec.num_stations = 5;
  spec.end_year = 2004;  // Dec 25 of 2003/2004 turns up in Q0
  spec.seed = 18;
  return GenerateSensorCollection(spec);
}

/// Every leaf DATASCAN of the plan.
void CollectScans(const PNode* node, std::vector<const ScanDesc*>* out) {
  if (node == nullptr) return;
  if (node->kind == PNode::Kind::kPipeline && node->input == nullptr &&
      node->scan.kind == ScanDesc::Kind::kDataScan) {
    out->push_back(&node->scan);
  }
  CollectScans(node->input.get(), out);
  CollectScans(node->left.get(), out);
  CollectScans(node->right.get(), out);
}

TEST(ScanFilterTest, PaperQueriesGetTheFilterExceptQ0b) {
  Engine engine;
  for (const jparbench::NamedQuery& q : jparbench::kAllQueries) {
    SCOPED_TRACE(q.name);
    auto compiled = engine.Compile(q.text);
    ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
    std::vector<const ScanDesc*> scans;
    CollectScans(compiled->physical.root.get(), &scans);
    ASSERT_FALSE(scans.empty());
    const bool string_path = std::string_view(q.name) == "Q0b";
    for (const ScanDesc* scan : scans) {
      EXPECT_EQ(scan->filter == nullptr, string_path) << scan->ToString();
    }
    if (std::string_view(q.name) == "Q0") {
      EXPECT_EQ(scans[0]->filter_keys, std::vector<std::string>{"date"});
    }
    auto off = engine.Compile(q.text, RuleOptions::None());
    ASSERT_TRUE(off.ok());
    scans.clear();
    CollectScans(off->physical.root.get(), &scans);
    for (const ScanDesc* scan : scans) EXPECT_EQ(scan->filter, nullptr);
  }
}

TEST(ScanFilterTest, PaperQueriesMatchWithoutTheFilter) {
  const Collection data = SensorData();
  for (const jparbench::NamedQuery& q : jparbench::kAllQueries) {
    for (int partitions = 1; partitions <= 4; ++partitions) {
      for (bool threads : {false, true}) {
        for (ExprMode mode : {ExprMode::kTree, ExprMode::kBytecode}) {
          SCOPED_TRACE(std::string(q.name) + " p=" +
                       std::to_string(partitions) +
                       (threads ? " threaded" : " sequential") +
                       (mode == ExprMode::kTree ? " tree" : " bytecode"));
          ExecOptions exec;
          exec.partitions = partitions;
          exec.use_threads = threads;
          exec.expr_mode = mode;
          exec.storage_mode = StorageMode::kOff;
          Answer on = ExpectSameAnswer(data, q.text, exec);
          EXPECT_TRUE(on.status.ok()) << on.status.ToString();
          EXPECT_FALSE(on.items.empty());
        }
      }
    }
  }
}

// Every item the path selects is counted in items_scanned; the ones the
// filter dropped are also counted in scan_items_filtered, so the rest
// are exactly what Q0's SELECT keeps.
TEST(ScanFilterTest, FilteredCounterCountsDroppedItems) {
  const Collection data = SensorData();
  ExecOptions exec;
  exec.storage_mode = StorageMode::kOff;
  Answer on = Execute(data, jparbench::kQ0, exec, true);
  ASSERT_TRUE(on.status.ok()) << on.status.ToString();
  ASSERT_GT(on.stats.result_rows, 0u);
  EXPECT_GT(on.stats.scan_items_filtered, 0u);
  EXPECT_EQ(on.stats.items_scanned - on.stats.scan_items_filtered,
            on.stats.result_rows);
  Answer off = Execute(data, jparbench::kQ0, exec, false);
  ASSERT_TRUE(off.status.ok());
  EXPECT_EQ(off.stats.scan_items_filtered, 0u);
  EXPECT_EQ(off.stats.items_scanned, on.stats.items_scanned);
}

// ---------------------------------------------------------------------
// Adversarial NDJSON: one dirty record among clean ones.
// ---------------------------------------------------------------------

constexpr const char* kTypeQuery = R"(
  for $r in collection("/sensors")
  where $r("dataType") eq "TMIN"
  return $r)";

constexpr const char* kNestedTypeQuery = R"(
  for $r in collection("/sensors")("results")()
  where $r("dataType") eq "TMIN"
  return $r("station"))";

constexpr const char* kDateQuery = R"(
  for $r in collection("/sensors")
  let $d := dateTime(data($r("date")))
  where year-from-dateTime($d) ge 2003 and month-from-dateTime($d) eq 12
  return $r("station"))";

std::string Record(const std::string& type, const std::string& date,
                   int station) {
  return "{\"date\":\"" + date + "\",\"dataType\":\"" + type +
         "\",\"station\":\"S" + std::to_string(station) + "\",\"value\":" +
         std::to_string(station * 7 - 20) + "}";
}

/// Clean records around `dirty`, one per line, with `dirty` in the
/// middle; also wrapped in a {"results": [...]} line for the nested
/// query.
Collection DirtyCollection(const std::string& dirty) {
  std::string text;
  for (int i = 0; i < 6; ++i) {
    if (i == 3) text += dirty + "\n";
    text += Record(i % 2 == 0 ? "TMIN" : "TMAX",
                   i % 3 == 0 ? "20031225T00:00" : "20020704T00:00", i) +
            "\n";
  }
  text += "{\"results\":[" + Record("TMAX", "20031201T00:00", 20) + "," +
          dirty + "," + Record("TMIN", "20031201T00:00", 21) + "]}\n";
  Collection data;
  data.files.push_back(JsonFile::FromText(text));
  data.files.push_back(
      JsonFile::FromText(Record("TMIN", "20041224T00:00", 30) + "\n"));
  return data;
}

std::string Nested(int depth) {
  return std::string(static_cast<size_t>(depth), '[') +
         std::string(static_cast<size_t>(depth), ']');
}

struct DirtyCase {
  const char* name;
  std::string record;
};

std::vector<DirtyCase> DirtyCases() {
  const int deep = JsonCursor::kMaxDepth + 8;
  return {
      // The probed field itself.
      {"probe missing", R"({"station":"S9","value":1})"},
      {"probe numeric", R"({"dataType":5,"date":20031225,"station":"S9"})"},
      {"probe null", R"({"dataType":null,"date":null,"station":"S9"})"},
      {"probe object",
       R"({"dataType":{"t":"TMIN"},"date":{"d":1},"station":"S9"})"},
      {"probe duplicated",
       R"({"dataType":"TMAX","dataType":"TMIN","date":"20031224T00:00",)"
       R"("date":"20010101T00:00","station":"S9"})"},
      {"probe key escaped",
       R"({"d\u0061taType":"TMIN","d\u0061te":"20031231T00:00","station":"S9"})"},
      {"probe value escaped",
       R"({"dataType":"TM\u0049N","date":"2003-12-0\u0031","station":"S9"})"},
      {"garbage date", R"({"dataType":"TMIN","date":"garbage","station":"S9"})"},
      // Rejected records, malformed outside the probed fields, behind a
      // probe value the filter would drop.
      {"bad escape",
       R"({"dataType":"TMAX","date":"20010101T00:00","station":"S\q9"})"},
      {"bad number",
       R"({"dataType":"TMAX","date":"20010101T00:00","value":12x3})"},
      {"missing colon",
       R"({"dataType":"TMAX","date":"20010101T00:00","value" 1})"},
      {"unterminated string",
       R"({"dataType":"TMAX","date":"20010101T00:00","station":"S9})"},
      {"too deep", R"({"dataType":"TMAX","date":"20010101T00:00","deep":)" +
                       Nested(deep) + "}"},
      {"bad escape first",
       R"({"station":"S\q9","dataType":"TMAX","date":"20010101T00:00"})"},
      {"bad literal", R"({"dataType":"TMAX","date":"20010101T00:00","ok":tru})"},
  };
}

TEST(ScanFilterTest, DirtyRecordsFailAndSkipAsWithoutTheFilter) {
  for (const DirtyCase& dirty : DirtyCases()) {
    const Collection data = DirtyCollection(dirty.record);
    for (const char* query : {kTypeQuery, kNestedTypeQuery, kDateQuery}) {
      for (ParseErrorPolicy policy :
           {ParseErrorPolicy::kFail, ParseErrorPolicy::kSkipAndCount}) {
        for (ExprMode mode : {ExprMode::kTree, ExprMode::kBytecode}) {
          for (ScanMode scan : {ScanMode::kIndexed, ScanMode::kScalar}) {
            SCOPED_TRACE(std::string(dirty.name) + " | " + query +
                         (policy == ParseErrorPolicy::kFail ? " | strict"
                                                            : " | lenient") +
                         (mode == ExprMode::kTree ? " tuple" : " batch") +
                         (scan == ScanMode::kIndexed ? " indexed"
                                                     : " scalar"));
            ExecOptions exec;
            exec.storage_mode = StorageMode::kOff;
            exec.on_parse_error = policy;
            exec.expr_mode = mode;
            exec.scan_mode = scan;
            ExpectSameAnswer(data, query, exec);
          }
        }
      }
    }
  }
}

// The filter really is exercised by the dirty suite: a clean-false
// record is dropped before it is built, and a malformed one behind a
// rejecting probe still fails the strict scan.
TEST(ScanFilterTest, MalformedRecordBehindRejectingProbeStillFails) {
  const Collection clean = DirtyCollection(
      R"({"dataType":"TMAX","date":"20010101T00:00","station":"S9"})");
  ExecOptions exec;
  exec.storage_mode = StorageMode::kOff;
  Answer ok = Execute(clean, kTypeQuery, exec, true);
  ASSERT_TRUE(ok.status.ok()) << ok.status.ToString();
  EXPECT_GT(ok.stats.scan_items_filtered, 0u);

  const Collection dirty = DirtyCollection(
      R"({"dataType":"TMAX","date":"20010101T00:00","station":"S\q9"})");
  Answer bad = Execute(dirty, kTypeQuery, exec, true);
  EXPECT_EQ(bad.status.code(), StatusCode::kParseError);
  EXPECT_NE(bad.status.message().find("unknown escape"), std::string::npos)
      << bad.status.ToString();
}

}  // namespace
}  // namespace jpar
