// Direct physical-plan tests: PNode trees built by hand (no JSONiq
// frontend) run through the Executor against a small catalog, plus an
// exchange-accounting oracle over the compiled paper queries.

#include "runtime/executor.h"

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "bench/queries.h"
#include "core/engine.h"
#include "data/sensor_generator.h"
#include "json/binary_serde.h"
#include "json/parser.h"
#include "runtime/frame.h"
#include "runtime/spill.h"

namespace jpar {
namespace {

Catalog MakeCatalog() {
  Catalog catalog;
  Collection numbers;
  // Four files of measurement-like rows.
  numbers.files.push_back(JsonFile::FromText(
      R"({"rows": [{"k": "a", "v": 1}, {"k": "b", "v": 2}]})"));
  numbers.files.push_back(JsonFile::FromText(
      R"({"rows": [{"k": "a", "v": 3}]})"));
  numbers.files.push_back(JsonFile::FromText(
      R"({"rows": [{"k": "c", "v": 4}, {"k": "a", "v": 5}]})"));
  numbers.files.push_back(JsonFile::FromText(R"({"rows": []})"));
  catalog.RegisterCollection("numbers", std::move(numbers));
  return catalog;
}

std::shared_ptr<PNode> ScanRows() {
  auto scan = std::make_shared<PNode>();
  scan->kind = PNode::Kind::kPipeline;
  scan->scan.kind = ScanDesc::Kind::kDataScan;
  scan->scan.collection = "numbers";
  scan->scan.steps = {PathStep::Key("rows"), PathStep::KeysOrMembers()};
  return scan;
}

ScalarEvalPtr Field(int col, const char* key) {
  return *MakeFunctionEval(
      Builtin::kValue, {MakeColumnEval(col), MakeConstantEval(Item::String(key))});
}

TEST(ExecutorTest, EmptyTupleSourcePipeline) {
  Catalog catalog = MakeCatalog();
  auto ets = std::make_shared<PNode>();
  ets->kind = PNode::Kind::kPipeline;
  ets->scan.kind = ScanDesc::Kind::kEmptyTupleSource;
  ets->ops.push_back(UnaryOpDesc::Assign(MakeConstantEval(Item::Int64(7))));
  PhysicalPlan plan;
  plan.root = ets;
  plan.result_column = 0;
  Executor executor(&catalog, ExecOptions{});
  auto out = executor.Run(plan);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ASSERT_EQ(out->items.size(), 1u);
  EXPECT_EQ(out->items[0], Item::Int64(7));
}

TEST(ExecutorTest, DataScanEmitsProjectedItems) {
  Catalog catalog = MakeCatalog();
  PhysicalPlan plan;
  plan.root = ScanRows();
  plan.result_column = 0;
  for (int partitions : {1, 2, 4, 7}) {
    ExecOptions options;
    options.partitions = partitions;
    Executor executor(&catalog, options);
    auto out = executor.Run(plan);
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    EXPECT_EQ(out->items.size(), 5u) << partitions;
    EXPECT_GT(out->stats.bytes_scanned, 0u);
  }
}

TEST(ExecutorTest, ScanOverBinaryItemsSkipsParsing) {
  Catalog catalog;
  Collection binary;
  Item doc = *ParseJson(R"({"rows": [{"k": "z", "v": 10}]})");
  binary.files.push_back(JsonFile::FromBinaryItem(SerializeItem(doc)));
  catalog.RegisterCollection("numbers", std::move(binary));
  PhysicalPlan plan;
  plan.root = ScanRows();
  plan.result_column = 0;
  Executor executor(&catalog, ExecOptions{});
  auto out = executor.Run(plan);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ASSERT_EQ(out->items.size(), 1u);
  EXPECT_EQ(*out->items[0].GetField("v"), Item::Int64(10));
}

TEST(ExecutorTest, GroupByCountsPerKey) {
  Catalog catalog = MakeCatalog();
  for (bool two_step : {false, true}) {
    auto groupby = std::make_shared<PNode>();
    groupby->kind = PNode::Kind::kGroupBy;
    groupby->input = ScanRows();
    groupby->keys.push_back(Field(0, "k"));
    AggSpec count;
    count.kind = AggKind::kCount;
    count.arg = Field(0, "v");
    groupby->aggs.push_back(count);
    groupby->two_step = two_step;

    PhysicalPlan plan;
    plan.root = groupby;
    plan.result_column = 1;  // the count
    ExecOptions options;
    options.partitions = 3;
    Executor executor(&catalog, options);
    auto out = executor.Run(plan);
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    // keys: a->3, b->1, c->1
    std::multiset<int64_t> counts;
    for (const Item& i : out->items) counts.insert(i.int64_value());
    EXPECT_EQ(counts, (std::multiset<int64_t>{1, 1, 3})) << two_step;
  }
}

TEST(ExecutorTest, GroupByMaterializingSequences) {
  // Pre-rewrite semantics: AGGREGATE sequence materializes groups.
  Catalog catalog = MakeCatalog();
  auto groupby = std::make_shared<PNode>();
  groupby->kind = PNode::Kind::kGroupBy;
  groupby->input = ScanRows();
  groupby->keys.push_back(Field(0, "k"));
  AggSpec seq;
  seq.kind = AggKind::kSequence;
  seq.arg = MakeColumnEval(0);
  groupby->aggs.push_back(seq);
  groupby->two_step = true;  // must be ignored for sequence aggs

  PhysicalPlan plan;
  plan.root = groupby;
  plan.result_column = 1;
  Executor executor(&catalog, ExecOptions{});
  auto out = executor.Run(plan);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ASSERT_EQ(out->items.size(), 3u);
  size_t total = 0;
  for (const Item& i : out->items) total += i.SequenceLength();
  EXPECT_EQ(total, 5u);
  // Materialized group state shows up in peak memory.
  EXPECT_GT(out->stats.peak_retained_bytes, 0u);
}

TEST(ExecutorTest, ZeroKeyGroupByIsGlobalAggregate) {
  Catalog catalog = MakeCatalog();
  auto agg = std::make_shared<PNode>();
  agg->kind = PNode::Kind::kGroupBy;
  agg->input = ScanRows();
  AggSpec sum;
  sum.kind = AggKind::kSum;
  sum.arg = Field(0, "v");
  agg->aggs.push_back(sum);
  agg->two_step = true;

  PhysicalPlan plan;
  plan.root = agg;
  plan.result_column = 0;
  ExecOptions options;
  options.partitions = 4;
  Executor executor(&catalog, options);
  auto out = executor.Run(plan);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ASSERT_EQ(out->items.size(), 1u);
  EXPECT_EQ(out->items[0], Item::Int64(15));
}

TEST(ExecutorTest, HashJoinMatchesKeys) {
  Catalog catalog = MakeCatalog();
  auto join = std::make_shared<PNode>();
  join->kind = PNode::Kind::kJoin;
  join->left = ScanRows();
  join->right = ScanRows();
  join->left_keys.push_back(Field(0, "k"));
  join->right_keys.push_back(Field(0, "k"));

  // Count join pairs per key: a:3x3, b:1x1, c:1x1 => 11 pairs.
  auto pipeline = std::make_shared<PNode>();
  pipeline->kind = PNode::Kind::kPipeline;
  pipeline->input = join;
  PhysicalPlan plan;
  plan.root = pipeline;
  plan.result_column = 0;
  ExecOptions options;
  options.partitions = 3;
  Executor executor(&catalog, options);
  auto out = executor.Run(plan);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out->items.size(), 11u);
}

TEST(ExecutorTest, JoinResidualFilters) {
  Catalog catalog = MakeCatalog();
  auto join = std::make_shared<PNode>();
  join->kind = PNode::Kind::kJoin;
  join->left = ScanRows();
  join->right = ScanRows();
  join->left_keys.push_back(Field(0, "k"));
  join->right_keys.push_back(Field(0, "k"));
  // Residual: left.v < right.v (strictly increasing pairs).
  join->residual = *MakeFunctionEval(
      Builtin::kLt, {Field(0, "v"), Field(1, "v")});

  PhysicalPlan plan;
  plan.root = join;
  plan.result_column = 0;
  Executor executor(&catalog, ExecOptions{});
  auto out = executor.Run(plan);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  // key a values {1,3,5}: ordered pairs (1,3),(1,5),(3,5) => 3 pairs.
  EXPECT_EQ(out->items.size(), 3u);
}

TEST(ExecutorTest, KeylessJoinIsCrossProduct) {
  Catalog catalog = MakeCatalog();
  auto join = std::make_shared<PNode>();
  join->kind = PNode::Kind::kJoin;
  join->left = ScanRows();
  join->right = ScanRows();
  PhysicalPlan plan;
  plan.root = join;
  plan.result_column = 0;
  Executor executor(&catalog, ExecOptions{});
  auto out = executor.Run(plan);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out->items.size(), 25u);
}

TEST(ExecutorTest, MakespanAndStagesPopulated) {
  Catalog catalog = MakeCatalog();
  auto groupby = std::make_shared<PNode>();
  groupby->kind = PNode::Kind::kGroupBy;
  groupby->input = ScanRows();
  groupby->keys.push_back(Field(0, "k"));
  AggSpec count;
  count.kind = AggKind::kCount;
  count.arg = MakeColumnEval(0);
  groupby->aggs.push_back(count);
  groupby->two_step = true;
  PhysicalPlan plan;
  plan.root = groupby;
  plan.result_column = 1;
  ExecOptions options;
  options.partitions = 4;
  Executor executor(&catalog, options);
  auto out = executor.Run(plan);
  ASSERT_TRUE(out.ok());
  EXPECT_GE(out->stats.stages.size(), 3u);  // scan, local, global
  EXPECT_GT(out->stats.makespan_ms, 0.0);
  EXPECT_GT(out->stats.real_ms, 0.0);
  bool saw_exchange = false;
  for (const StageStats& s : out->stats.stages) {
    if (s.exchange_tuples > 0) saw_exchange = true;
  }
  EXPECT_TRUE(saw_exchange);
}

TEST(ExecutorTest, UnknownCollectionFails) {
  Catalog catalog;
  PhysicalPlan plan;
  plan.root = ScanRows();
  plan.result_column = 0;
  Executor executor(&catalog, ExecOptions{});
  EXPECT_EQ(executor.Run(plan).status().code(), StatusCode::kNotFound);
}

TEST(ExecutorTest, ResultColumnOutOfRangeFails) {
  Catalog catalog = MakeCatalog();
  PhysicalPlan plan;
  plan.root = ScanRows();
  plan.result_column = 9;
  Executor executor(&catalog, ExecOptions{});
  EXPECT_FALSE(executor.Run(plan).ok());
}

TEST(LptMakespanTest, SchedulesOntoCores) {
  // 4 equal tasks on 4 cores: one task per core.
  EXPECT_DOUBLE_EQ(LptMakespanMs({1, 1, 1, 1}, 4), 1.0);
  // 8 equal tasks on 4 cores: two per core (the hyperthreading plateau).
  EXPECT_DOUBLE_EQ(LptMakespanMs({1, 1, 1, 1, 1, 1, 1, 1}, 4), 2.0);
  // Unbalanced tasks: the longest dominates.
  EXPECT_DOUBLE_EQ(LptMakespanMs({10, 1, 1, 1}, 4), 10.0);
  // Greedy LPT on {5,4,3,3,3} with 2 cores: 5|4 -> 5,3|4,3 -> 5,3|4,3,3
  // => busiest core 10 (optimal would be 9; LPT is a 4/3-approximation,
  // which is fine for a makespan model).
  EXPECT_DOUBLE_EQ(LptMakespanMs({5, 4, 3, 3, 3}, 2), 10.0);
  // Degenerate inputs.
  EXPECT_DOUBLE_EQ(LptMakespanMs({}, 4), 0.0);
  EXPECT_DOUBLE_EQ(LptMakespanMs({2.5}, 0), 2.5);
}

TEST(ValidateExecOptionsTest, DefaultsAreValid) {
  EXPECT_TRUE(ValidateExecOptions(ExecOptions()).ok());
}

TEST(ValidateExecOptionsTest, RejectsDegenerateParallelism) {
  ExecOptions o;
  o.partitions = 0;
  EXPECT_EQ(ValidateExecOptions(o).code(), StatusCode::kInvalidArgument);
  o = ExecOptions();
  o.partitions_per_node = 0;
  EXPECT_EQ(ValidateExecOptions(o).code(), StatusCode::kInvalidArgument);
  o = ExecOptions();
  o.cores_per_node = -1;
  EXPECT_EQ(ValidateExecOptions(o).code(), StatusCode::kInvalidArgument);
  o = ExecOptions();
  o.frame_bytes = 0;
  EXPECT_EQ(ValidateExecOptions(o).code(), StatusCode::kInvalidArgument);
}

TEST(ValidateExecOptionsTest, RejectsNegativeDeadline) {
  ExecOptions o;
  o.deadline_ms = -1;
  Status st = ValidateExecOptions(o);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("deadline"), std::string::npos)
      << st.ToString();
  // Zero means "no deadline" and is fine.
  o.deadline_ms = 0;
  EXPECT_TRUE(ValidateExecOptions(o).ok());
}

TEST(ValidateExecOptionsTest, RejectsUnknownExprMode) {
  ExecOptions o;
  o.expr_mode = static_cast<ExprMode>(7);
  Status st = ValidateExecOptions(o);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("expr_mode"), std::string::npos)
      << st.ToString();
  // All three named modes pass.
  for (ExprMode mode :
       {ExprMode::kAuto, ExprMode::kTree, ExprMode::kBytecode}) {
    o.expr_mode = mode;
    EXPECT_TRUE(ValidateExecOptions(o).ok());
  }
}

TEST(ValidateExecOptionsTest, RejectsBatchSizeOutOfRange) {
  ExecOptions o;
  o.batch_size = 0;
  Status st = ValidateExecOptions(o);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("batch_size"), std::string::npos)
      << st.ToString();
  o.batch_size = 65537;
  EXPECT_EQ(ValidateExecOptions(o).code(), StatusCode::kInvalidArgument);
  // Any batch size in range keeps the every-256-tuples cancellation
  // guarantee: the batch evaluator ticks its check hook per lane batch
  // internally, so even batch_size = 65536 is admissible.
  for (size_t bs : {1u, 256u, 1024u, 65536u}) {
    o.batch_size = bs;
    EXPECT_TRUE(ValidateExecOptions(o).ok()) << bs;
  }
}

TEST(ValidateExecOptionsTest, RejectsUnknownParseErrorPolicy) {
  ExecOptions o;
  o.on_parse_error = static_cast<ParseErrorPolicy>(99);
  Status st = ValidateExecOptions(o);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("on_parse_error"), std::string::npos)
      << st.ToString();
  // Both named policies pass.
  o.on_parse_error = ParseErrorPolicy::kFail;
  EXPECT_TRUE(ValidateExecOptions(o).ok());
  o.on_parse_error = ParseErrorPolicy::kSkipAndCount;
  EXPECT_TRUE(ValidateExecOptions(o).ok());
}

// ---- Morsel-driven scans (DESIGN.md §9) -----------------------------

/// NDJSON collection: `files` files of `records` one-line documents
/// {"v": id, "pad": "..."} each. With dirty=true every 7th record is an
/// unterminated string, exercising degraded scans and index poisoning.
Catalog MakeNdjsonCatalog(int files, int records, bool dirty) {
  Catalog catalog;
  Collection c;
  int id = 0;
  for (int f = 0; f < files; ++f) {
    std::string text;
    for (int r = 0; r < records; ++r, ++id) {
      if (dirty && r % 7 == 3) {
        text += "{\"v\":\"unterminated\n";
      } else {
        text += "{\"v\":" + std::to_string(id) +
                ",\"pad\":\"xxxxxxxxxxxxxxxx\"}\n";
      }
    }
    c.files.push_back(JsonFile::FromText(std::move(text)));
  }
  catalog.RegisterCollection("nd", std::move(c));
  return catalog;
}

std::shared_ptr<PNode> ScanNd() {
  auto scan = std::make_shared<PNode>();
  scan->kind = PNode::Kind::kPipeline;
  scan->scan.kind = ScanDesc::Kind::kDataScan;
  scan->scan.collection = "nd";
  scan->scan.steps = {PathStep::Key("v")};
  return scan;
}

TEST(ExecutorTest, MorselScanMatchesSequentialOnNdjson) {
  Catalog catalog = MakeNdjsonCatalog(3, 40, false);
  PhysicalPlan plan;
  plan.root = ScanNd();
  plan.result_column = 0;
  for (int partitions : {1, 2, 4}) {
    ExecOptions seq;
    seq.partitions = partitions;
    Executor sequential(&catalog, seq);
    auto want = sequential.Run(plan);
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    ASSERT_EQ(want->items.size(), 120u);
    EXPECT_EQ(want->stats.morsels_scanned, 3u);

    ExecOptions opt = seq;
    opt.use_threads = true;
    opt.morsel_bytes = 64;  // force many morsels per file
    Executor morsel(&catalog, opt);
    auto got = morsel.Run(plan);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    // Same items in the same order, and the same scan statistics.
    EXPECT_EQ(got->items, want->items) << partitions;
    EXPECT_EQ(got->stats.bytes_scanned, want->stats.bytes_scanned);
    EXPECT_EQ(got->stats.items_scanned, want->stats.items_scanned);
    // Each file is bigger than one morsel, so files really split.
    EXPECT_GT(got->stats.morsels_scanned, 3u);
  }
}

TEST(ExecutorTest, MorselDegradedScanCountsMatchSequential) {
  Catalog catalog = MakeNdjsonCatalog(3, 40, true);
  PhysicalPlan plan;
  plan.root = ScanNd();
  plan.result_column = 0;
  for (int partitions : {1, 3}) {
    ExecOptions seq;
    seq.partitions = partitions;
    seq.on_parse_error = ParseErrorPolicy::kSkipAndCount;
    Executor sequential(&catalog, seq);
    auto want = sequential.Run(plan);
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    EXPECT_GT(want->stats.skipped_records, 0u);

    ExecOptions opt = seq;
    opt.use_threads = true;
    opt.morsel_bytes = 96;
    Executor morsel(&catalog, opt);
    auto got = morsel.Run(plan);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(got->items, want->items) << partitions;
    EXPECT_EQ(got->stats.skipped_records, want->stats.skipped_records);
  }
}

TEST(ExecutorTest, MorselStrictFallbackOnMultiLineDocuments) {
  // Pretty-printed documents have newlines inside records, so every
  // newline-aligned split lands mid-document. The threaded scan must
  // detect the morsel parse failures and fall back to whole-file scans
  // with results identical to the sequential path.
  Catalog catalog;
  Collection c;
  std::string text;
  for (int i = 0; i < 30; ++i) {
    text += "{\n  \"v\": " + std::to_string(i) + ",\n  \"w\": [1,\n 2]\n}\n";
  }
  c.files.push_back(JsonFile::FromText(std::move(text)));
  catalog.RegisterCollection("nd", std::move(c));
  PhysicalPlan plan;
  plan.root = ScanNd();
  plan.result_column = 0;

  ExecOptions seq;
  Executor sequential(&catalog, seq);
  auto want = sequential.Run(plan);
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  ASSERT_EQ(want->items.size(), 30u);

  ExecOptions opt;
  opt.partitions = 2;
  opt.use_threads = true;
  opt.morsel_bytes = 32;
  Executor morsel(&catalog, opt);
  auto got = morsel.Run(plan);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got->items, want->items);
}

TEST(ExecutorTest, MorselScanHandlesBinaryFiles) {
  Catalog catalog;
  Collection binary;
  for (int i = 0; i < 3; ++i) {
    Item doc = *ParseJson("{\"v\": " + std::to_string(i) + "}");
    binary.files.push_back(JsonFile::FromBinaryItem(SerializeItem(doc)));
  }
  catalog.RegisterCollection("nd", std::move(binary));
  PhysicalPlan plan;
  plan.root = ScanNd();
  plan.result_column = 0;
  ExecOptions opt;
  opt.partitions = 2;
  opt.use_threads = true;
  Executor executor(&catalog, opt);
  auto out = executor.Run(plan);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ASSERT_EQ(out->items.size(), 3u);
  EXPECT_EQ(out->stats.morsels_scanned, 3u);

  // A lenient sequential scan runs the same morsel path: one morsel per
  // binary file, nothing skipped, the same items.
  ExecOptions seq;
  seq.partitions = 2;
  seq.on_parse_error = ParseErrorPolicy::kSkipAndCount;
  auto lenient = Executor(&catalog, seq).Run(plan);
  ASSERT_TRUE(lenient.ok()) << lenient.status().ToString();
  EXPECT_EQ(lenient->items, out->items);
  EXPECT_EQ(lenient->stats.morsels_scanned, 3u);
  EXPECT_EQ(lenient->stats.skipped_records, 0u);
  EXPECT_EQ(lenient->stats.bytes_scanned, out->stats.bytes_scanned);
}

/// The DATASCAN stage of a scan-only run.
const StageStats* ScanStage(const ExecStats& stats) {
  for (const StageStats& s : stats.stages) {
    if (s.name.rfind("DATASCAN", 0) == 0) return &s;
  }
  return nullptr;
}

TEST(ExecutorTest, SequentialScanTimesEveryScanPartition) {
  for (int files : {3, 5}) {
    Catalog catalog = MakeNdjsonCatalog(files, 10, false);
    PhysicalPlan plan;
    plan.root = ScanNd();
    plan.result_column = 0;
    for (int partitions : {1, 2, 4}) {
      const size_t want_parts =
          static_cast<size_t>(std::min(partitions, files));
      for (bool threads : {false, true}) {
        ExecOptions opt;
        opt.partitions = partitions;
        opt.use_threads = threads;
        auto out = Executor(&catalog, opt).Run(plan);
        ASSERT_TRUE(out.ok()) << out.status().ToString();
        EXPECT_EQ(out->items.size(), static_cast<size_t>(files) * 10);
        EXPECT_EQ(out->stats.morsels_scanned, static_cast<uint64_t>(files));
        const StageStats* scan = ScanStage(out->stats);
        ASSERT_NE(scan, nullptr);
        EXPECT_EQ(scan->partition_ms.size(), want_parts)
            << files << " files, " << partitions << " partitions, threads "
            << threads;
      }
    }
  }
}

TEST(ExecutorTest, SequentialAndThreadedScansFailOnTheFirstBadFile) {
  // Files 1 and 2 are malformed at different offsets; with 2 partitions
  // file 2 shares partition 0 with file 0. Both modes must report file
  // 1's error: the first failing file in file order.
  Catalog catalog;
  Collection c;
  c.files.push_back(JsonFile::FromText("{\"v\": 1}\n"));
  c.files.push_back(JsonFile::FromText("{\"v\": tru}\n"));
  c.files.push_back(
      JsonFile::FromText("{\"v\": 2}\n{\"v\": 3}\n{\"v\": [1,}\n"));
  catalog.RegisterCollection("nd", std::move(c));
  PhysicalPlan plan;
  plan.root = ScanNd();
  plan.result_column = 0;
  ExecOptions seq;
  seq.partitions = 2;
  auto want = Executor(&catalog, seq).Run(plan);
  ASSERT_FALSE(want.ok());
  EXPECT_EQ(want.status().code(), StatusCode::kParseError);
  ExecOptions threaded = seq;
  threaded.use_threads = true;
  auto got = Executor(&catalog, threaded).Run(plan);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().ToString(), want.status().ToString());
}

TEST(ExecutorTest, SequentialPathBackedScanMatchesThreadedStorageStats) {
  // Two directories with the same files: the cache keys on the path, so
  // each mode starts cold on its own copy. Runs with everything on,
  // with the storage tier off and with stats off.
  namespace fs = std::filesystem;
  const fs::path root =
      fs::path(::testing::TempDir()) /
      ("jpar_seq_scan_" + std::to_string(::getpid()));
  struct Modes {
    StorageMode storage;
    StatsMode stats;
  };
  for (Modes modes : {Modes{StorageMode::kAuto, StatsMode::kAuto},
                      Modes{StorageMode::kOff, StatsMode::kAuto},
                      Modes{StorageMode::kAuto, StatsMode::kOff}}) {
    const bool storage = modes.storage != StorageMode::kOff;
    const bool stats = modes.stats != StatsMode::kOff;
    SCOPED_TRACE(std::string("storage ") + (storage ? "on" : "off") +
                 ", stats " + (stats ? "on" : "off"));
    // The paths repeat across iterations: start each one cold.
    fs::remove_all(root);
    StorageManager::Instance().Clear();
    auto make_catalog = [&](const std::string& name) {
      fs::create_directories(root / name);
      Catalog catalog;
      Collection c;
      for (int f = 0; f < 3; ++f) {
        std::string text;
        for (int r = 0; r < 20; ++r) {
          text += "{\"v\":" + std::to_string(f * 100 + r) + "}\n";
        }
        fs::path path = root / name / ("part" + std::to_string(f) + ".json");
        std::ofstream(path, std::ios::binary) << text;
        c.files.push_back(JsonFile::FromPath(path.string()));
      }
      catalog.RegisterCollection("nd", std::move(c));
      return catalog;
    };
    Catalog seq_catalog = make_catalog("seq");
    Catalog threaded_catalog = make_catalog("threaded");
    PhysicalPlan plan;
    plan.root = ScanNd();
    plan.result_column = 0;
    ExecOptions seq;
    seq.partitions = 2;
    seq.storage_mode = modes.storage;
    seq.stats_mode = modes.stats;
    ExecOptions threaded = seq;
    threaded.use_threads = true;
    // Round 0 builds tapes, columns and stats samples; round 1 reads the
    // columns back.
    for (int round = 0; round < 2; ++round) {
      auto want = Executor(&threaded_catalog, threaded).Run(plan);
      auto got = Executor(&seq_catalog, seq).Run(plan);
      ASSERT_TRUE(want.ok()) << want.status().ToString();
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      ASSERT_EQ(got->items.size(), 60u);
      EXPECT_EQ(got->items, want->items) << round;
      EXPECT_EQ(got->stats.tape_builds, want->stats.tape_builds) << round;
      EXPECT_EQ(got->stats.tape_hits, want->stats.tape_hits) << round;
      EXPECT_EQ(got->stats.columns_read, want->stats.columns_read) << round;
      EXPECT_EQ(got->stats.stats_paths_built, want->stats.stats_paths_built)
          << round;
      EXPECT_EQ(got->stats.tape_builds, storage && round == 0 ? 3u : 0u);
      EXPECT_EQ(got->stats.columns_read, storage && round == 1 ? 3u : 0u);
      EXPECT_EQ(got->stats.stats_paths_built, stats && round == 0 ? 3u : 0u);
    }
  }
  fs::remove_all(root);
}

TEST(ExecutorTest, ScanModesAgreeThroughExecutor) {
  Catalog catalog = MakeNdjsonCatalog(2, 30, false);
  PhysicalPlan plan;
  plan.root = ScanNd();
  plan.result_column = 0;
  for (bool threads : {false, true}) {
    ExecOptions indexed;
    indexed.partitions = 2;
    indexed.use_threads = threads;
    indexed.morsel_bytes = 128;
    ExecOptions scalar = indexed;
    scalar.scan_mode = ScanMode::kScalar;
    auto want = Executor(&catalog, scalar).Run(plan);
    auto got = Executor(&catalog, indexed).Run(plan);
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(got->items, want->items) << threads;
    EXPECT_EQ(got->stats.bytes_scanned, want->stats.bytes_scanned);
  }
}

TEST(ExecutorTest, MorselScanRespectsCancellation) {
  Catalog catalog = MakeNdjsonCatalog(2, 50, false);
  PhysicalPlan plan;
  plan.root = ScanNd();
  plan.result_column = 0;
  auto token = std::make_shared<CancellationToken>();
  token->Cancel();
  QueryContext ctx;
  ctx.set_cancellation(token);
  ExecOptions opt;
  opt.partitions = 2;
  opt.use_threads = true;
  opt.morsel_bytes = 64;
  Executor executor(&catalog, opt, &ctx);
  auto out = executor.Run(plan);
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kCancelled);
}

TEST(ExecutorTest, MorselScanSurfacesIOFault) {
  Catalog catalog = MakeNdjsonCatalog(3, 20, false);
  PhysicalPlan plan;
  plan.root = ScanNd();
  plan.result_column = 0;
  FaultInjector faults;
  faults.ArmAfter(FaultInjector::kScanIOError, 2,
                  Status::IOError("injected disk error"));
  QueryContext ctx;
  ctx.set_fault_injector(&faults);
  ExecOptions opt;
  opt.partitions = 2;
  opt.use_threads = true;
  opt.morsel_bytes = 64;
  Executor executor(&catalog, opt, &ctx);
  auto out = executor.Run(plan);
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kIOError);
}

// Run under TSan in CI: many workers hammering the per-morsel slots,
// the shared task queue, and the atomic memory tracker, with totals
// checked so a lost update shows up even without the sanitizer.
TEST(ExecutorTest, MorselStatsMergeUnderThreads) {
  Catalog catalog = MakeNdjsonCatalog(4, 100, false);
  PhysicalPlan plan;
  plan.root = ScanNd();
  plan.result_column = 0;
  ExecOptions seq;
  seq.partitions = 4;
  auto want = Executor(&catalog, seq).Run(plan);
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  for (int round = 0; round < 3; ++round) {
    ExecOptions opt = seq;
    opt.use_threads = true;
    opt.morsel_bytes = 128;
    auto got = Executor(&catalog, opt).Run(plan);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ASSERT_EQ(got->items.size(), 400u);
    EXPECT_EQ(got->items, want->items);
    EXPECT_EQ(got->stats.bytes_scanned, want->stats.bytes_scanned);
    EXPECT_EQ(got->stats.items_scanned, want->stats.items_scanned);
  }
}

TEST(ValidateExecOptionsTest, RejectsUnknownScanMode) {
  ExecOptions o;
  o.scan_mode = static_cast<ScanMode>(9);
  Status st = ValidateExecOptions(o);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("scan_mode"), std::string::npos)
      << st.ToString();
  o.scan_mode = ScanMode::kScalar;
  EXPECT_TRUE(ValidateExecOptions(o).ok());
  o.scan_mode = ScanMode::kIndexed;
  EXPECT_TRUE(ValidateExecOptions(o).ok());
}

TEST(ValidateExecOptionsTest, RejectsBadSpillKnobs) {
  ExecOptions o;
  o.spill = static_cast<SpillMode>(7);
  Status st = ValidateExecOptions(o);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("spill"), std::string::npos) << st.ToString();

  // Spill knobs only matter once spilling is enabled: a disabled config
  // with nonsense fan-out still validates (it is never consulted).
  o = ExecOptions();
  o.spill_fanout = -3;
  EXPECT_TRUE(ValidateExecOptions(o).ok());

  o.spill = SpillMode::kEnabled;
  st = ValidateExecOptions(o);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("spill_fanout"), std::string::npos)
      << st.ToString();
  o.spill_fanout = 1;  // a fan-out below 2 cannot shrink a bucket
  EXPECT_EQ(ValidateExecOptions(o).code(), StatusCode::kInvalidArgument);
  o.spill_fanout = 2;
  EXPECT_TRUE(ValidateExecOptions(o).ok()) << ValidateExecOptions(o).ToString();

  // A spill_dir that does not exist (or is not a directory — a regular
  // file here, since permission bits are invisible to root) is rejected
  // up front rather than at first flush.
  o.spill_dir = "/nonexistent/jpar/spill";
  EXPECT_EQ(ValidateExecOptions(o).code(), StatusCode::kInvalidArgument);
  std::string file_path = ::testing::TempDir() + "/jpar_spill_dir_file";
  { std::ofstream(file_path) << "x"; }
  o.spill_dir = file_path;
  EXPECT_EQ(ValidateExecOptions(o).code(), StatusCode::kInvalidArgument);
  std::remove(file_path.c_str());
  o.spill_dir = ::testing::TempDir();
  EXPECT_TRUE(ValidateExecOptions(o).ok()) << ValidateExecOptions(o).ToString();
}

TEST(SpillSweepTest, OrphanSweepRemovesOnlyDeadPidRunFiles) {
  std::string dir = ::testing::TempDir() + "/jpar_sweep_test";
  std::filesystem::remove_all(dir);
  ASSERT_TRUE(std::filesystem::create_directories(dir));

  // A pid guaranteed dead and reaped: fork a child that exits at once.
  pid_t dead = fork();
  ASSERT_GE(dead, 0);
  if (dead == 0) _exit(0);
  ASSERT_EQ(waitpid(dead, nullptr, 0), dead);

  auto touch = [&](const std::string& name) {
    std::ofstream(dir + "/" + name) << "x";
  };
  const std::string orphan =
      "jpar-spill-" + std::to_string(dead) + "-deadbeef-0.run";
  const std::string live =
      "jpar-spill-" + std::to_string(getpid()) + "-deadbeef-1.run";
  touch(orphan);                  // dead owner: swept
  touch(live);                    // live owner: kept
  touch("jpar-spill-x-bad.run");  // non-numeric pid: kept
  touch("unrelated.txt");         // not a spill run: kept

  EXPECT_EQ(SweepOrphanedSpillFiles(dir), 1);
  EXPECT_FALSE(std::filesystem::exists(dir + "/" + orphan));
  EXPECT_TRUE(std::filesystem::exists(dir + "/" + live));
  EXPECT_TRUE(std::filesystem::exists(dir + "/jpar-spill-x-bad.run"));
  EXPECT_TRUE(std::filesystem::exists(dir + "/unrelated.txt"));

  // Idempotent: a second sweep finds nothing left to reclaim.
  EXPECT_EQ(SweepOrphanedSpillFiles(dir), 0);
  std::filesystem::remove_all(dir);
}

TEST(ValidateExecOptionsTest, ExecutorRunRejectsBadRobustnessKnobs) {
  // The validation is wired into Run, not just the service: a bare
  // executor with a negative deadline fails before touching the plan.
  Catalog catalog = MakeCatalog();
  ExecOptions o;
  o.deadline_ms = -5;
  Executor executor(&catalog, o);
  PhysicalPlan plan;
  plan.root = ScanRows();
  auto out = executor.Run(plan);
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------
// Exchange accounting oracle. The in-process exchange moves tuples and
// computes its frame counters from encoded sizes; the reference below
// re-runs a plan partition by partition through the fragment API and
// encodes every (source, destination) stream into real frames with
// FrameBuilder. A scan partition is the executor over the files
// assigned to it round-robin, as a distributed worker sees it.
// ---------------------------------------------------------------------

struct ExchangeCounters {
  std::string stage;
  uint64_t bytes = 0;
  uint64_t frames = 0;
  uint64_t tuples = 0;
  uint64_t oversized = 0;
  uint64_t max_tuple = 0;
  double network_ms = 0;
};

bool IsExchangeStage(const std::string& name) {
  return name == "hash-join" || name == "group-by (global merge)" ||
         name == "group-by (hash)";
}

class ReferenceExchangeRun {
 public:
  ReferenceExchangeRun(const Catalog* catalog, const ExecOptions& options)
      : catalog_(catalog), options_(options) {
    options_.use_threads = false;
  }

  using Parts = std::vector<std::vector<Tuple>>;

  Parts Exec(const PNode& node) {
    Executor executor(catalog_, options_);
    ExecStats ignored;
    Parts out;
    switch (node.kind) {
      case PNode::Kind::kPipeline:
        if (node.input == nullptr) return ScanPartitions(node);
        for (std::vector<Tuple>& part : Exec(*node.input)) {
          out.push_back(Must(executor.RunOps(node.ops, std::move(part),
                                             &ignored)));
        }
        return out;
      case PNode::Kind::kGroupBy: {
        const bool two_step = Executor::GroupByUsesTwoStep(node);
        Parts input = Exec(*node.input);
        std::vector<ScalarEvalPtr> keys = node.keys;
        if (two_step) {
          for (std::vector<Tuple>& part : input) {
            part = Must(executor.GroupByLocal(node, part, &ignored));
          }
          keys.clear();
          for (size_t i = 0; i < node.keys.size(); ++i) {
            keys.push_back(MakeColumnEval(static_cast<int>(i)));
          }
        }
        ExchangeCounters stage;
        stage.stage = two_step ? "group-by (global merge)" : "group-by (hash)";
        for (std::vector<Tuple>& part : Exchange(input, keys, &stage)) {
          out.push_back(Must(
              executor.GroupByGlobal(node, part, two_step, &ignored)));
        }
        stages.push_back(stage);
        return out;
      }
      case PNode::Kind::kJoin: {
        Parts left = Exec(*node.left);
        Parts right = Exec(*node.right);
        ExchangeCounters stage;
        stage.stage = "hash-join";
        Parts left_ex = Exchange(left, node.left_keys, &stage);
        Parts right_ex = Exchange(right, node.right_keys, &stage);
        for (size_t p = 0; p < left_ex.size(); ++p) {
          out.push_back(Must(executor.JoinPartition(node, left_ex[p],
                                                    right_ex[p], &ignored)));
        }
        stages.push_back(stage);
        return out;
      }
      case PNode::Kind::kSort:
        ADD_FAILURE() << "the reference does not model sort";
        return out;
    }
    return out;
  }

  std::vector<ExchangeCounters> stages;

 private:
  template <typename T>
  static T Must(Result<T> r) {
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? std::move(*r) : T();
  }

  Parts ScanPartitions(const PNode& node) {
    Parts out;
    if (node.scan.kind != ScanDesc::Kind::kDataScan) {
      Executor executor(catalog_, options_);
      ExecStats ignored;
      out.push_back(Must(executor.RunSubtree(node, &ignored)));
      return out;
    }
    const Collection* coll = *catalog_->GetCollection(node.scan.collection);
    const size_t pcount = std::max<size_t>(
        1, std::min(coll->files.size(),
                    static_cast<size_t>(options_.partitions)));
    for (size_t p = 0; p < pcount; ++p) {
      Collection slice;
      for (size_t i = p; i < coll->files.size(); i += pcount) {
        slice.files.push_back(coll->files[i]);
      }
      Catalog sliced;
      sliced.RegisterCollection(node.scan.collection, std::move(slice));
      ExecOptions one = options_;
      one.partitions = 1;
      Executor executor(&sliced, one);
      ExecStats ignored;
      out.push_back(Must(executor.RunSubtree(node, &ignored)));
    }
    return out;
  }

  Parts Exchange(const Parts& input, const std::vector<ScalarEvalPtr>& keys,
                 ExchangeCounters* stage) {
    Executor executor(catalog_, options_);
    const int pcount = options_.partitions;
    auto node_of = [&](size_t p) {
      return static_cast<int>(p) / options_.partitions_per_node;
    };
    Parts out(static_cast<size_t>(pcount));
    uint64_t cross_bytes = 0;
    uint64_t critical_frames = 0;
    for (size_t src = 0; src < input.size(); ++src) {
      Parts buckets = Must(executor.HashPartition(input[src], keys, pcount));
      for (size_t dst = 0; dst < buckets.size(); ++dst) {
        FrameBuilder builder(options_.frame_bytes);
        for (const Tuple& t : buckets[dst]) builder.Append(t);
        stage->bytes += builder.total_bytes();
        stage->tuples += builder.tuple_count();
        stage->oversized += builder.oversized_frames();
        stage->max_tuple = std::max(stage->max_tuple, builder.max_tuple_bytes());
        std::vector<Frame> frames = builder.Finish();
        stage->frames += frames.size();
        if (node_of(src) != node_of(dst)) {
          for (const Frame& f : frames) cross_bytes += f.bytes.size();
          critical_frames = std::max<uint64_t>(critical_frames, frames.size());
        }
        out[dst].insert(out[dst].end(), buckets[dst].begin(),
                        buckets[dst].end());
      }
    }
    stage->network_ms += static_cast<double>(cross_bytes) * 8.0 /
                             (options_.network_gbps * 1e6) +
                         static_cast<double>(critical_frames) *
                             options_.network_latency_ms_per_frame;
    return out;
  }

  const Catalog* catalog_;
  ExecOptions options_;
};

std::vector<std::string> JsonRows(const std::vector<Item>& items) {
  std::vector<std::string> rows;
  for (const Item& i : items) rows.push_back(i.ToJsonString());
  return rows;
}

TEST(ExchangeOracleTest, PaperQueryCountersMatchFrameEncodingReference) {
  SensorDataSpec spec;
  spec.num_files = 5;
  spec.records_per_file = 6;
  spec.measurements_per_array = 16;
  spec.num_stations = 4;
  spec.seed = 15;
  const Collection data = GenerateSensorCollection(spec);
  // Over the whole grid the oracle must see what it is meant to check.
  uint64_t oversized = 0;
  double network_ms = 0;
  for (const jparbench::NamedQuery& q : jparbench::kAllQueries) {
    for (int partitions = 1; partitions <= 4; ++partitions) {
      // Small frames give multi-frame streams and oversized tuples; two
      // partitions per node make some streams cross-node.
      for (size_t frame_bytes : {size_t{24}, size_t{32} * 1024}) {
        SCOPED_TRACE(std::string(q.name) + " at " +
                     std::to_string(partitions) + " partitions, " +
                     std::to_string(frame_bytes) + "-byte frames");
        EngineOptions options;
        options.exec.partitions = partitions;
        options.exec.partitions_per_node = 2;
        options.exec.frame_bytes = frame_bytes;
        Engine engine(options);
        engine.catalog()->RegisterCollection("/sensors", data);
        auto compiled = engine.Compile(q.text);
        ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();

        ReferenceExchangeRun reference(engine.catalog(), options.exec);
        ASSERT_NE(compiled->physical.root, nullptr);
        std::vector<std::string> rows;
        for (const std::vector<Tuple>& part :
             reference.Exec(*compiled->physical.root)) {
          for (const Tuple& t : part) {
            const size_t col =
                static_cast<size_t>(compiled->physical.result_column);
            ASSERT_LT(col, t.size());
            rows.push_back(t[col].ToJsonString());
          }
        }
        double reference_network_ms = 0;
        for (const ExchangeCounters& c : reference.stages) {
          reference_network_ms += c.network_ms;
          oversized += c.oversized;
        }
        network_ms += reference_network_ms;

        for (bool threads : {false, true}) {
          SCOPED_TRACE(threads ? "threaded" : "sequential");
          ExecOptions exec = options.exec;
          exec.use_threads = threads;
          auto out = engine.Execute(*compiled, exec);
          ASSERT_TRUE(out.ok()) << out.status().ToString();
          std::vector<ExchangeCounters> actual;
          for (const StageStats& s : out->stats.stages) {
            if (!IsExchangeStage(s.name)) continue;
            actual.push_back({s.name, s.exchange_bytes, s.exchange_frames,
                              s.exchange_tuples, s.oversized_frames,
                              s.max_tuple_bytes, s.network_ms});
          }
          ASSERT_EQ(actual.size(), reference.stages.size());
          for (size_t i = 0; i < actual.size(); ++i) {
            const ExchangeCounters& a = actual[i];
            const ExchangeCounters& r = reference.stages[i];
            EXPECT_EQ(a.stage, r.stage);
            EXPECT_EQ(a.bytes, r.bytes) << a.stage;
            EXPECT_EQ(a.frames, r.frames) << a.stage;
            EXPECT_EQ(a.tuples, r.tuples) << a.stage;
            EXPECT_EQ(a.oversized, r.oversized) << a.stage;
            EXPECT_EQ(a.max_tuple, r.max_tuple) << a.stage;
            EXPECT_DOUBLE_EQ(a.network_ms, r.network_ms) << a.stage;
          }
          EXPECT_DOUBLE_EQ(out->stats.network_ms, reference_network_ms);
          // Neither the exchange nor threads change the answer or its
          // order.
          EXPECT_EQ(JsonRows(out->items), rows);
        }
      }
    }
  }
  EXPECT_GT(oversized, 0u);
  EXPECT_GT(network_ms, 0.0);
}

}  // namespace
}  // namespace jpar
