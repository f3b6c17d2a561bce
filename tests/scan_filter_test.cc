// Oracle for the scan filter (RuleOptions::scan_filter, DESIGN.md §9):
// DATASCAN tests the SELECTs above it on a slim record and never builds
// the objects they reject. The filter must be invisible in every answer,
// so each case runs with the flag off (the reference: every record is
// built and the SELECT decides) and on, and compares the ordered
// answers, the error codes and messages, and the degraded-scan skip
// counts. The warm-column cases (DESIGN.md §14) compare a filtered read
// of cached binary records with a cold, unfiltered scan of the text.

#include <gtest/gtest.h>

#include <dirent.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "bench/queries.h"
#include "core/engine.h"
#include "data/sensor_generator.h"
#include "json/parser.h"
#include "storage/storage_tier.h"

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

// Every paper query gets a filter with the flag on and none with it off.
// Q0b reads its projected date itself, so its filter probes the whole
// value and names no keys; Q0 probes the "date" field of each record.
TEST(ScanFilterTest, PaperQueriesGetTheFilter) {
  Engine engine;
  for (const jparbench::NamedQuery& q : jparbench::kAllQueries) {
    SCOPED_TRACE(q.name);
    auto compiled = engine.Compile(q.text);
    ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
    std::vector<const ScanDesc*> scans;
    CollectScans(compiled->physical.root.get(), &scans);
    ASSERT_FALSE(scans.empty());
    const bool projected = std::string_view(q.name) == "Q0b";
    for (const ScanDesc* scan : scans) {
      EXPECT_NE(scan->filter, nullptr) << scan->ToString();
      EXPECT_EQ(scan->filter_whole_value, projected) << scan->ToString();
      if (projected) {
        EXPECT_TRUE(scan->filter_keys.empty());
      }
      EXPECT_NE(scan->ToString().find(projected ? "[filter: whole value]"
                                                : "[filter: \""),
                std::string::npos)
          << scan->ToString();
    }
    if (std::string_view(q.name) == "Q0") {
      EXPECT_EQ(scans[0]->filter_keys, std::vector<std::string>{"date"});
    }
    auto off = engine.Compile(q.text, RuleOptions::None());
    ASSERT_TRUE(off.ok());
    scans.clear();
    CollectScans(off->physical.root.get(), &scans);
    for (const ScanDesc* scan : scans) {
      EXPECT_EQ(scan->filter, nullptr);
      EXPECT_FALSE(scan->filter_whole_value);
    }
  }
}

// A prefix that reads the scanned item both as a whole and through a
// field gets no filter: neither a slim record nor an atomic probe
// answers both reads.
TEST(ScanFilterTest, PrefixReadingTheItemBothWaysGetsNoFilter) {
  Engine engine;
  auto compiled = engine.Compile(R"(
    for $r in collection("/sensors")
    where $r("dataType") eq "TMIN" and exists($r)
    return $r)");
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  std::vector<const ScanDesc*> scans;
  CollectScans(compiled->physical.root.get(), &scans);
  ASSERT_EQ(scans.size(), 1u);
  EXPECT_EQ(scans[0]->filter, nullptr) << scans[0]->ToString();
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

constexpr const char* kNestedDateQuery = R"(
  for $r in collection("/sensors")("results")()
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

// ---------------------------------------------------------------------
// Warm columns: the filter probes cached binary records
// ---------------------------------------------------------------------

/// A fresh directory of path-backed files; removes them, and the
/// sidecars the storage tier writes beside them, on destruction.
class TempDir {
 public:
  TempDir() {
    std::string tmpl = ::testing::TempDir() + "/jpar_filter_XXXXXX";
    std::vector<char> buf(tmpl.begin(), tmpl.end());
    buf.push_back('\0');
    const char* made = ::mkdtemp(buf.data());
    EXPECT_NE(made, nullptr);
    dir_ = made != nullptr ? made : tmpl;
  }
  ~TempDir() {
    if (DIR* d = ::opendir(dir_.c_str())) {
      while (struct dirent* e = ::readdir(d)) {
        const std::string name = e->d_name;
        if (name != "." && name != "..") {
          std::remove((dir_ + "/" + name).c_str());
        }
      }
      ::closedir(d);
    }
    ::rmdir(dir_.c_str());
  }

  JsonFile Write(const std::string& name, const std::string& text) {
    const std::string path = dir_ + "/" + name;
    std::ofstream(path, std::ios::binary | std::ios::trunc) << text;
    return JsonFile::FromPath(path);
  }

 private:
  std::string dir_;
};

/// The same answer as the reference — status text, ordered items and
/// skip count.
void ExpectAnswerMatches(const Answer& reference, const Answer& run) {
  EXPECT_EQ(run.status.ToString(), reference.status.ToString());
  EXPECT_EQ(run.items, reference.items);
  EXPECT_EQ(run.stats.skipped_records, reference.stats.skipped_records);
}

/// Runs `query` over `data` until its scans are served from columns
/// (the first kAuto run builds tapes, columns and stats).
void WarmColumns(const Collection& data, std::string_view query,
                 ExecOptions exec) {
  exec.storage_mode = StorageMode::kAuto;
  for (int i = 0; i < 2; ++i) Execute(data, query, exec, true);
}

TEST(ScanFilterTest, WarmColumnReadsMatchColdScans) {
  StorageManager::Instance().Clear();
  TempDir dir;
  SensorDataSpec spec;
  spec.num_files = 4;
  spec.records_per_file = 10;
  spec.measurements_per_array = 20;
  spec.num_stations = 5;
  spec.end_year = 2004;
  spec.seed = 22;
  Collection data;
  for (int f = 0; f < spec.num_files; ++f) {
    data.files.push_back(dir.Write("sensors_" + std::to_string(f) + ".json",
                                   GenerateSensorFile(spec, f)));
  }
  const jparbench::NamedQuery kQueries[] = {{"Q0", jparbench::kQ0},
                                            {"Q1", jparbench::kQ1},
                                            {"Q1b", jparbench::kQ1b},
                                            {"Q2", jparbench::kQ2}};
  for (const jparbench::NamedQuery& q : kQueries) {
    WarmColumns(data, q.text, ExecOptions());
    for (int partitions = 1; partitions <= 3; ++partitions) {
      for (bool threads : {false, true}) {
        SCOPED_TRACE(std::string(q.name) + " p=" +
                     std::to_string(partitions) +
                     (threads ? " threaded" : " sequential"));
        ExecOptions exec;
        exec.partitions = partitions;
        exec.use_threads = threads;
        exec.storage_mode = StorageMode::kOff;
        const Answer cold = Execute(data, q.text, exec, false);
        const Answer cold_filtered = Execute(data, q.text, exec, true);
        ASSERT_TRUE(cold.status.ok()) << cold.status.ToString();
        exec.storage_mode = StorageMode::kColumnar;
        const Answer warm = Execute(data, q.text, exec, true);
        const Answer warm_unfiltered = Execute(data, q.text, exec, false);
        ExpectAnswerMatches(cold, warm);
        ExpectAnswerMatches(cold, warm_unfiltered);
        EXPECT_GT(warm.stats.columns_read, 0u);
        EXPECT_EQ(warm.stats.tape_hits + warm.stats.tape_builds, 0u);
        EXPECT_GT(warm.stats.scan_items_filtered, 0u);
        // Every record the text filter drops, the column filter drops.
        EXPECT_EQ(warm.stats.scan_items_filtered,
                  cold_filtered.stats.scan_items_filtered);
        EXPECT_EQ(warm.stats.items_scanned,
                  warm_unfiltered.stats.items_scanned);
        EXPECT_EQ(warm_unfiltered.stats.scan_items_filtered, 0u);
        if (std::string_view(q.name) == "Q0") {
          ASSERT_GT(warm.stats.result_rows, 0u);
          EXPECT_EQ(warm.stats.items_scanned - warm.stats.scan_items_filtered,
                    warm.stats.result_rows);
        }
      }
    }
  }
}

/// Clean records with `odd` (one record, no newline) among them, also
/// inside a {"results": [...]} line for the nested queries.
std::string NdjsonWith(const std::string& odd) {
  std::string text;
  for (int i = 0; i < 8; ++i) {
    if (i == 5) text += odd + "\n";
    text += Record(i % 2 == 0 ? "TMIN" : "TMAX",
                   i % 3 == 0 ? "20031225T00:00" : "20020704T00:00", i) +
            "\n";
  }
  text += "{\"results\":[" + Record("TMAX", "20020704T00:00", 20) + "," +
          odd + "," + Record("TMIN", "20031201T00:00", 21) + "]}\n";
  return text;
}

struct OddCase {
  const char* name;
  std::string record;
};

/// Cached records whose probe key is missing, null, nested, numeric
/// (the SELECT raises a type error) or duplicated (the first occurrence
/// decides, as Item::GetField picks it); a date the filter's own
/// dateTime rejects with a parse error (the record is kept, the SELECT
/// raises the error, and a lenient scan skips the rest of its line, so
/// the column read falls back to the text); and a malformed record: the
/// strict scan fails on it, the lenient one skips it, and the column
/// records the skip so that a strict query refuses it.
std::vector<OddCase> OddCases() {
  return {
      {"probe missing", R"({"station":"S9","value":1})"},
      {"probe null", R"({"dataType":null,"date":null,"station":"S9"})"},
      {"probe nested",
       R"({"dataType":{"t":"TMIN"},"date":{"d":1},"station":"S9"})"},
      {"probe numeric", R"({"dataType":5,"date":20031225,"station":"S9"})"},
      {"probe duplicated, first kept",
       R"({"dataType":"TMIN","dataType":"TMAX","date":"20031225T00:00",)"
       R"("date":"20010101T00:00","station":"S9"})"},
      {"probe duplicated, first rejected",
       R"({"dataType":"TMAX","dataType":"TMIN","date":"20010101T00:00",)"
       R"("date":"20031225T00:00","station":"S9"})"},
      {"garbage date", R"({"dataType":"TMIN","date":"garbage","station":"S9"})"},
      {"malformed", R"({"dataType":"TMAX","station":"S\q9"})"},
  };
}

TEST(ScanFilterTest, WarmColumnOddProbesMatchColdScans) {
  int filtered_runs = 0;
  for (const OddCase& odd : OddCases()) {
    StorageManager::Instance().Clear();
    TempDir dir;
    Collection data;
    data.files.push_back(dir.Write("odd.ndjson", NdjsonWith(odd.record)));
    const bool malformed = std::string_view(odd.name) == "malformed";
    const bool garbage = std::string_view(odd.name) == "garbage date";
    for (const char* query :
         {kTypeQuery, kNestedTypeQuery, kDateQuery, kNestedDateQuery}) {
      for (ParseErrorPolicy policy :
           {ParseErrorPolicy::kFail, ParseErrorPolicy::kSkipAndCount}) {
        for (ExprMode mode : {ExprMode::kTree, ExprMode::kBytecode}) {
          const bool lenient = policy == ParseErrorPolicy::kSkipAndCount;
          SCOPED_TRACE(std::string(odd.name) + " | " + query +
                       (lenient ? " | lenient" : " | strict") +
                       (mode == ExprMode::kTree ? " tuple" : " batch"));
          ExecOptions exec;
          exec.on_parse_error = policy;
          exec.expr_mode = mode;
          // Columns learned by unfiltered lenient scans that return
          // whole records, so they exist even where this query fails.
          ExecOptions build = exec;
          build.on_parse_error = ParseErrorPolicy::kSkipAndCount;
          build.storage_mode = StorageMode::kAuto;
          for (int i = 0; i < 2; ++i) {
            Execute(data, R"(for $r in collection("/sensors") return $r)",
                    build, false);
            Execute(data,
                    R"(for $r in collection("/sensors")("results")() )"
                    "return $r",
                    build, false);
          }
          exec.storage_mode = StorageMode::kOff;
          const Answer cold = Execute(data, query, exec, false);
          exec.storage_mode = StorageMode::kColumnar;
          const Answer warm = Execute(data, query, exec, true);
          ExpectAnswerMatches(cold, warm);
          ExpectAnswerMatches(cold, Execute(data, query, exec, false));
          if (!warm.status.ok()) continue;
          const bool dated = query == kDateQuery || query == kNestedDateQuery;
          EXPECT_EQ(warm.stats.skipped_records > 0,
                    malformed || (garbage && dated));
          // A strict query refuses a column with skips and scans the
          // text; every other answered query read columns, and filtered
          // them unless it is a degraded batch scan.
          if (malformed && !lenient) continue;
          EXPECT_GT(warm.stats.columns_read, 0u);
          EXPECT_EQ(warm.stats.scan_items_filtered > 0,
                    !(lenient && mode == ExprMode::kBytecode));
          if (warm.stats.scan_items_filtered > 0) ++filtered_runs;
        }
      }
    }
  }
  // Not vacuous: most answered runs dropped cached records unbuilt.
  EXPECT_GE(filtered_runs, 30);
}

// A lenient scan whose SELECT raises a parse error skips the rest of the
// record's line; the column it would tee lacks those items, so it
// learns none, and a later query's warm read still answers as cold.
TEST(ScanFilterTest, NoColumnIsLearnedFromAScanWhoseSelectRaised) {
  StorageManager::Instance().Clear();
  TempDir dir;
  Collection data;
  data.files.push_back(dir.Write(
      "garbage.ndjson",
      NdjsonWith(R"({"dataType":"TMIN","date":"garbage","station":"S9"})")));
  ExecOptions exec;
  exec.on_parse_error = ParseErrorPolicy::kSkipAndCount;
  exec.expr_mode = ExprMode::kTree;  // a batch scan fails on the error
  exec.storage_mode = StorageMode::kAuto;
  for (int i = 0; i < 2; ++i) {
    const Answer dated = Execute(data, kNestedDateQuery, exec, true);
    ASSERT_TRUE(dated.status.ok()) << dated.status.ToString();
    EXPECT_EQ(dated.stats.skipped_records, 1u);
    EXPECT_EQ(dated.stats.columns_read, 0u);
  }
  WarmColumns(data, kNestedTypeQuery, exec);
  exec.storage_mode = StorageMode::kOff;
  const Answer cold = Execute(data, kNestedTypeQuery, exec, false);
  ASSERT_TRUE(cold.status.ok()) << cold.status.ToString();
  EXPECT_EQ(cold.stats.skipped_records, 0u);
  exec.storage_mode = StorageMode::kColumnar;
  const Answer warm = Execute(data, kNestedTypeQuery, exec, true);
  ExpectAnswerMatches(cold, warm);
  EXPECT_EQ(warm.stats.columns_read, 1u);
}

// One scan worker reads a column-served file and a text-served one
// (in-memory files never take a column) with one filter and one memo.
TEST(ScanFilterTest, OneWorkerMixesColumnAndTextServedFiles) {
  StorageManager::Instance().Clear();
  TempDir dir;
  const std::string text = NdjsonWith(R"({"station":"S9","value":1})");
  Collection cached;
  cached.files.push_back(dir.Write("cached.ndjson", text));
  WarmColumns(cached, kTypeQuery, ExecOptions());
  Collection mixed = cached;
  mixed.files.push_back(JsonFile::FromText(text));
  mixed.files.push_back(cached.files[0]);
  for (bool threads : {false, true}) {
    for (const char* query : {kTypeQuery, kDateQuery}) {
      SCOPED_TRACE(std::string(query) + (threads ? " threaded" : ""));
      ExecOptions exec;
      exec.partitions = 1;
      exec.use_threads = threads;
      exec.storage_mode = StorageMode::kOff;
      const Answer cold = Execute(mixed, query, exec, false);
      const Answer cold_filtered = Execute(mixed, query, exec, true);
      ASSERT_TRUE(cold.status.ok()) << cold.status.ToString();
      exec.storage_mode = StorageMode::kColumnar;
      const Answer warm = Execute(mixed, query, exec, true);
      ExpectAnswerMatches(cold, warm);
      EXPECT_EQ(warm.stats.columns_read, 2u);
      EXPECT_EQ(warm.stats.scan_items_filtered,
                cold_filtered.stats.scan_items_filtered);
      EXPECT_GT(warm.stats.scan_items_filtered, 0u);
    }
  }
}

// ---------------------------------------------------------------------
// Projected scans: the filter probes the projected value itself (Q0b)
// ---------------------------------------------------------------------

constexpr const char* kProjectedDateQuery = R"(
  for $d in collection("/sensors")("date")
  let $dt := dateTime(data($d))
  where year-from-dateTime($dt) ge 2003 and month-from-dateTime($dt) eq 12
  return $d)";

constexpr const char* kNestedProjectedDateQuery = R"(
  for $d in collection("/sensors")("results")()("date")
  let $dt := dateTime(data($d))
  where year-from-dateTime($dt) ge 2003 and month-from-dateTime($dt) eq 12
  return $d)";

/// A file of clean records with one odd projected value: `odd` is a
/// whole record (NdjsonWith's placement), `tail` is appended after the
/// last newline as it stands (a truncated last line).
struct ProjectedCase {
  const char* name;
  std::string odd;
  std::string tail;
};

std::vector<ProjectedCase> ProjectedCases() {
  auto dated = [](const std::string& date) {
    return R"({"date":)" + date + R"(,"dataType":"TMIN","station":"S9"})";
  };
  return {
      {"garbage", dated(R"("garbage")"), ""},
      {"number", dated("20031225"), ""},
      {"null", dated("null"), ""},
      {"true", dated("true"), ""},
      {"object", dated(R"({"d":"20031225T00:00"})"), ""},
      {"array", dated(R"(["20031225T00:00"])"), ""},
      {"escaped kept date", dated(R"("2003122\u0035T00:00")"), ""},
      {"escaped dropped date", dated(R"("2002070\u0034T00:00")"), ""},
      {"bad escape", dated(R"("20031225T00:00\q")"), ""},
      {"unpaired surrogate", dated(R"("20031225T00:00\ud800")"), ""},
      {"bad number", dated("-e5"), ""},
      {"duplicate date keys",
       R"({"date":"20020704T00:00","date":"20031224T00:00","station":"S9"})",
       ""},
      {"truncated date", dated(R"("20020704T00:00")"),
       R"({"date":"20031225T00)"},
      {"truncated results", dated(R"("20020704T00:00")"),
       R"({"results":[{"date":"20031225T00:00"},{"date":"2002)"},
  };
}

/// Runs `query` with the filter off and on and expects the same answer
/// and the same count of selected items. Returns the run with the
/// filter on.
Answer ExpectProjectedRunsAgree(const Collection& data, const char* query,
                                const ExecOptions& exec) {
  const Answer off = Execute(data, query, exec, false);
  Answer on = Execute(data, query, exec, true);
  ExpectAnswerMatches(off, on);
  EXPECT_EQ(off.stats.scan_items_filtered, 0u);
  if (on.status.ok()) {
    EXPECT_EQ(on.stats.items_scanned, off.stats.items_scanned);
  }
  return on;
}

TEST(ScanFilterTest, ProjectedValuesMatchWithoutTheFilter) {
  int answered = 0;
  int filtered_column_reads = 0;
  for (const ProjectedCase& odd : ProjectedCases()) {
    StorageManager::Instance().Clear();
    TempDir dir;
    Collection data;
    data.files.push_back(
        dir.Write("odd.ndjson", NdjsonWith(odd.odd) + odd.tail));
    data.files.push_back(dir.Write(
        "clean.ndjson", Record("TMIN", "20041224T00:00", 30) + "\n"));
    // Columns learned by unfiltered lenient scans of the bare paths.
    ExecOptions build;
    build.on_parse_error = ParseErrorPolicy::kSkipAndCount;
    build.storage_mode = StorageMode::kAuto;
    for (int i = 0; i < 2; ++i) {
      Execute(data, R"(for $d in collection("/sensors")("date") return $d)",
              build, false);
      Execute(data,
              R"(for $d in collection("/sensors")("results")()("date") )"
              "return $d",
              build, false);
    }
    for (const char* query :
         {kProjectedDateQuery, kNestedProjectedDateQuery}) {
      for (ParseErrorPolicy policy :
           {ParseErrorPolicy::kFail, ParseErrorPolicy::kSkipAndCount}) {
        for (ExprMode mode : {ExprMode::kTree, ExprMode::kBytecode}) {
          for (StorageMode read : {StorageMode::kOff, StorageMode::kTape,
                                   StorageMode::kColumnar}) {
            for (int partitions = 1; partitions <= 3; ++partitions) {
              for (bool threads : {false, true}) {
                const bool lenient =
                    policy == ParseErrorPolicy::kSkipAndCount;
                SCOPED_TRACE(
                    std::string(odd.name) + " | " + query +
                    (lenient ? " | lenient" : " | strict") +
                    (mode == ExprMode::kTree ? " tuple" : " batch") +
                    (read == StorageMode::kOff    ? " text"
                     : read == StorageMode::kTape ? " tape"
                                                  : " column") +
                    " p=" + std::to_string(partitions) +
                    (threads ? " threaded" : ""));
                ExecOptions exec;
                exec.on_parse_error = policy;
                exec.expr_mode = mode;
                exec.storage_mode = read;
                exec.partitions = partitions;
                exec.use_threads = threads;
                const Answer on = ExpectProjectedRunsAgree(data, query, exec);
                if (read == StorageMode::kColumnar) {
                  // The warm read answers as the cold text scan.
                  ExecOptions cold = exec;
                  cold.storage_mode = StorageMode::kOff;
                  ExpectAnswerMatches(Execute(data, query, cold, false), on);
                }
                if (!on.status.ok()) continue;
                ++answered;
                // Every file holds a date the SELECT rejects; only a
                // degraded batch scan runs without the filter.
                EXPECT_EQ(on.stats.scan_items_filtered > 0,
                          !(lenient && mode == ExprMode::kBytecode));
                if (read == StorageMode::kTape) {
                  EXPECT_GT(on.stats.tape_hits + on.stats.tape_builds, 0u);
                }
                if (on.stats.columns_read > 0 &&
                    on.stats.scan_items_filtered > 0) {
                  ++filtered_column_reads;
                }
              }
            }
          }
        }
      }
    }
  }
  // Not vacuous: the clean and lenient cases answer, and the filter
  // probes cached binary values too.
  EXPECT_GE(answered, 700);
  EXPECT_GE(filtered_column_reads, 150);
}

// Q0b's filter drops exactly the dates its SELECT rejects, on text,
// tape and warm-column reads alike: the items it keeps are the result
// rows.
TEST(ScanFilterTest, Q0bFilteredCounterCountsDroppedDates) {
  StorageManager::Instance().Clear();
  TempDir dir;
  SensorDataSpec spec;
  spec.num_files = 4;
  spec.records_per_file = 10;
  spec.measurements_per_array = 20;
  spec.num_stations = 5;
  spec.end_year = 2004;
  spec.seed = 23;
  Collection data;
  for (int f = 0; f < spec.num_files; ++f) {
    data.files.push_back(dir.Write("sensors_" + std::to_string(f) + ".json",
                                   GenerateSensorFile(spec, f)));
  }
  WarmColumns(data, jparbench::kQ0b, ExecOptions());
  ExecOptions exec;
  exec.storage_mode = StorageMode::kOff;
  const Answer cold = Execute(data, jparbench::kQ0b, exec, false);
  ASSERT_TRUE(cold.status.ok()) << cold.status.ToString();
  ASSERT_GT(cold.stats.result_rows, 0u);
  for (StorageMode read :
       {StorageMode::kOff, StorageMode::kTape, StorageMode::kColumnar}) {
    SCOPED_TRACE(static_cast<int>(read));
    exec.storage_mode = read;
    const Answer on = Execute(data, jparbench::kQ0b, exec, true);
    ExpectAnswerMatches(cold, on);
    EXPECT_GT(on.stats.scan_items_filtered, 0u);
    EXPECT_EQ(on.stats.items_scanned - on.stats.scan_items_filtered,
              on.stats.result_rows);
    EXPECT_EQ(on.stats.items_scanned, cold.stats.items_scanned);
    EXPECT_EQ(on.stats.columns_read > 0, read == StorageMode::kColumnar);
  }
}

}  // namespace
}  // namespace jpar
