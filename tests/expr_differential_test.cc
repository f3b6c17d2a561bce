// Tree-vs-bytecode differential suite (DESIGN.md §13).
//
// Part A generates random ScalarEval trees and checks that the batch
// bytecode interpreter produces exactly what the tuple-at-a-time tree
// interpreter produces, lane by lane: the same items (JSON-identical)
// and, for failing lanes, the same error code and message.
//
// Part B runs the paper queries end to end with ExprMode::kTree vs
// ExprMode::kBytecode across partitioning, threading, spilling, and
// batch-size configurations — rows must be byte-identical, skip counts
// must agree on dirty input, and injected runtime errors (division by
// zero, string+int) must surface with identical status text.

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "bench/queries.h"
#include "core/engine.h"
#include "data/sensor_generator.h"
#include "runtime/expr_compile.h"
#include "runtime/expression.h"
#include "runtime/tuple_batch.h"

namespace jpar {
namespace {

// ---------------------------------------------------------------------
// Part A: randomized expression trees.
// ---------------------------------------------------------------------

struct FnSpec {
  Builtin fn;
  int arity;
};

// Every eager builtin the generator can produce with a fixed arity,
// plus the lazy connectives (compiled to sub-programs). kCollection /
// kJsonDoc need a catalog and are produced only by DATASCAN rewrites,
// never by ASSIGN/SELECT compilation — excluded.
constexpr FnSpec kFnTable[] = {
    {Builtin::kValue, 2},          {Builtin::kKeysOrMembers, 1},
    {Builtin::kData, 1},           {Builtin::kPromote, 1},
    {Builtin::kTreat, 1},          {Builtin::kDateTime, 1},
    {Builtin::kYearFromDateTime, 1}, {Builtin::kMonthFromDateTime, 1},
    {Builtin::kDayFromDateTime, 1},  {Builtin::kEq, 2},
    {Builtin::kNe, 2},             {Builtin::kLt, 2},
    {Builtin::kLe, 2},             {Builtin::kGt, 2},
    {Builtin::kGe, 2},             {Builtin::kAnd, 2},
    {Builtin::kOr, 2},             {Builtin::kNot, 1},
    {Builtin::kAdd, 2},            {Builtin::kSub, 2},
    {Builtin::kMul, 2},            {Builtin::kDiv, 2},
    {Builtin::kMod, 2},            {Builtin::kNeg, 1},
    {Builtin::kCount, 1},          {Builtin::kSum, 1},
    {Builtin::kAvg, 1},            {Builtin::kMin, 1},
    {Builtin::kMax, 1},            {Builtin::kConcat, 2},
    {Builtin::kSubstring, 3},      {Builtin::kStringLength, 1},
    {Builtin::kContains, 2},       {Builtin::kStartsWith, 2},
    {Builtin::kUpperCase, 1},      {Builtin::kLowerCase, 1},
    {Builtin::kStringFn, 1},       {Builtin::kAbs, 1},
    {Builtin::kRound, 1},          {Builtin::kFloor, 1},
    {Builtin::kCeiling, 1},        {Builtin::kEmpty, 1},
    {Builtin::kExists, 1},         {Builtin::kDistinctValues, 1},
    {Builtin::kBooleanFn, 1},      {Builtin::kArrayConstructor, 2},
};

class TreeGen {
 public:
  TreeGen(uint64_t seed, int width) : rng_(seed), width_(width) {}

  Item RandomScalar(int depth = 0) {
    switch (rng_() % (depth < 1 ? 9 : 7)) {
      case 0: return Item::Null();
      case 1: return Item::Boolean(rng_() % 2 == 0);
      case 2: return Item::Int64(static_cast<int64_t>(rng_() % 2000) - 1000);
      case 3: return Item::Double(static_cast<double>(rng_() % 1000) / 8.0);
      case 4: return Item::String("s" + std::to_string(rng_() % 30));
      case 5: return Item::String("2003-12-25");
      case 6: return Item::Int64(static_cast<int64_t>(rng_() % 3));
      case 7: {  // small array (value()/keys-or-members() fodder)
        Item::ItemVector elems;
        for (uint32_t i = 0, n = rng_() % 4; i < n; ++i) {
          elems.push_back(RandomScalar(depth + 1));
        }
        return Item::MakeArray(std::move(elems));
      }
      default: {  // small object
        Item::Object fields;
        for (uint32_t i = 0, n = rng_() % 3; i < n; ++i) {
          fields.push_back(
              {"k" + std::to_string(i), RandomScalar(depth + 1)});
        }
        return Item::MakeObject(std::move(fields));
      }
    }
  }

  ScalarEvalPtr RandomTree(int depth) {
    if (depth <= 0 || rng_() % 4 == 0) {
      // Leaves: constants and columns, occasionally out of range so the
      // two interpreters must agree on the error too.
      uint32_t pick = rng_() % 8;
      if (pick < 3) return MakeConstantEval(RandomScalar());
      if (pick == 7) return MakeColumnEval(width_ + 1);
      return MakeColumnEval(static_cast<int>(rng_() % width_));
    }
    const FnSpec& spec = kFnTable[rng_() % std::size(kFnTable)];
    std::vector<ScalarEvalPtr> args;
    for (int i = 0; i < spec.arity; ++i) {
      args.push_back(RandomTree(depth - 1));
    }
    auto made = MakeFunctionEval(spec.fn, std::move(args));
    if (!made.ok()) return MakeConstantEval(Item::Null());
    return *made;
  }

 private:
  std::mt19937 rng_;
  int width_;
};

TupleBatch RandomBatch(uint64_t seed, int width, size_t rows) {
  TreeGen gen(seed, width);
  TupleBatch batch(rows);
  batch.Reset(static_cast<size_t>(width));
  for (size_t r = 0; r < rows; ++r) {
    Tuple t;
    for (int c = 0; c < width; ++c) t.push_back(gen.RandomScalar());
    batch.AppendTuple(std::move(t));
  }
  return batch;
}

// One differential run: every lane of `sel` must agree between the two
// interpreters on value or on (code, message).
void CheckTreeVsBytecode(const ScalarEvalPtr& tree, const TupleBatch& batch,
                         const std::vector<uint32_t>& sel) {
  ExprProgramPtr prog = CompileExprProgram(tree);
  ASSERT_NE(prog, nullptr) << tree->ToString();

  EvalContext batch_ctx;
  std::vector<Item> out;
  std::vector<LaneError> errors;
  ASSERT_TRUE(EvalExprProgram(*prog, batch, sel, &batch_ctx, nullptr, &out,
                              &errors)
                  .ok());
  ASSERT_EQ(out.size(), sel.size());

  std::vector<const Status*> lane_error(sel.size(), nullptr);
  for (const LaneError& e : errors) {
    ASSERT_LT(e.lane, sel.size());
    if (lane_error[e.lane] == nullptr) lane_error[e.lane] = &e.status;
  }

  for (size_t lane = 0; lane < sel.size(); ++lane) {
    SCOPED_TRACE(tree->ToString() + " @lane " + std::to_string(lane));
    EvalContext tree_ctx;
    Tuple row = batch.MaterializeRow(sel[lane]);
    Result<Item> expected = tree->Eval(row, &tree_ctx);
    if (expected.ok()) {
      ASSERT_EQ(lane_error[lane], nullptr)
          << "bytecode errored where the tree succeeded: "
          << lane_error[lane]->ToString();
      EXPECT_EQ(out[lane].ToJsonString(), expected->ToJsonString());
      EXPECT_TRUE(out[lane].Equals(*expected));
    } else {
      ASSERT_NE(lane_error[lane], nullptr)
          << "tree errored (" << expected.status().ToString()
          << ") but bytecode produced " << out[lane].ToJsonString();
      EXPECT_EQ(lane_error[lane]->ToString(), expected.status().ToString());
    }
  }
}

TEST(ExprDifferentialTest, RandomTreesAgreeLaneByLane) {
  constexpr int kWidth = 3;
  constexpr size_t kRows = 48;
  for (uint64_t seed = 0; seed < 150; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    TreeGen gen(seed * 7919 + 1, kWidth);
    ScalarEvalPtr tree = gen.RandomTree(4);
    TupleBatch batch = RandomBatch(seed * 104729 + 3, kWidth, kRows);
    std::vector<uint32_t> all;
    for (uint32_t r = 0; r < kRows; ++r) all.push_back(r);
    CheckTreeVsBytecode(tree, batch, all);
    // A strided selection: deselected rows must be invisible.
    std::vector<uint32_t> odd;
    for (uint32_t r = 1; r < kRows; r += 2) odd.push_back(r);
    CheckTreeVsBytecode(tree, batch, odd);
  }
}

TEST(ExprDifferentialTest, FusedKernelShapesAgree) {
  // The shapes the peephole pass fuses (column-vs-constant compare,
  // arithmetic-vs-constant, value(x, const), and/or chains) deserve
  // direct coverage beyond what random trees happen to hit.
  auto fn = [](Builtin b, std::vector<ScalarEvalPtr> args) {
    auto made = MakeFunctionEval(b, std::move(args));
    EXPECT_TRUE(made.ok());
    return *made;
  };
  std::vector<ScalarEvalPtr> trees;
  trees.push_back(fn(Builtin::kGe, {MakeColumnEval(0),
                                    MakeConstantEval(Item::Int64(100))}));
  trees.push_back(fn(Builtin::kAdd, {MakeColumnEval(1),
                                     MakeConstantEval(Item::Int64(7))}));
  trees.push_back(fn(Builtin::kDiv, {MakeColumnEval(1),
                                     MakeConstantEval(Item::Int64(0))}));
  trees.push_back(fn(Builtin::kValue,
                     {MakeColumnEval(2), MakeConstantEval(Item::String("k0"))}));
  trees.push_back(fn(
      Builtin::kAnd,
      {fn(Builtin::kLt, {MakeColumnEval(0), MakeConstantEval(Item::Int64(0))}),
       fn(Builtin::kEq,
          {MakeColumnEval(1), MakeConstantEval(Item::String("s1"))})}));
  trees.push_back(fn(
      Builtin::kOr,
      {fn(Builtin::kGt, {MakeColumnEval(0), MakeConstantEval(Item::Int64(0))}),
       fn(Builtin::kAdd,
          {MakeColumnEval(1), MakeConstantEval(Item::Int64(1))})}));

  for (uint64_t seed = 0; seed < 20; ++seed) {
    TupleBatch batch = RandomBatch(seed + 500, 3, 64);
    std::vector<uint32_t> all;
    for (uint32_t r = 0; r < 64; ++r) all.push_back(r);
    for (const ScalarEvalPtr& tree : trees) {
      CheckTreeVsBytecode(tree, batch, all);
    }
  }
}

// The existential loop of XQuery general comparison, written out: the
// reference for GeneralCompareOp, whose non-sequence operands take a
// direct path.
Result<Item> ReferenceCompare(Builtin fn, const Item& lhs, const Item& rhs) {
  auto members = [](const Item& x) {
    return x.is_sequence() ? x.sequence() : Item::ItemVector{x};
  };
  for (const Item& a : members(lhs)) {
    for (const Item& b : members(rhs)) {
      JPAR_ASSIGN_OR_RETURN(int c, a.Compare(b));
      bool hit = fn == Builtin::kEq   ? c == 0
                 : fn == Builtin::kNe ? c != 0
                 : fn == Builtin::kLt ? c < 0
                 : fn == Builtin::kLe ? c <= 0
                 : fn == Builtin::kGt ? c > 0
                                      : c >= 0;
      if (hit) return Item::Boolean(true);
    }
  }
  return Item::Boolean(false);
}

TEST(ExprDifferentialTest, GeneralCompareMatchesExistentialReference) {
  const std::vector<Item> operands = {
      Item::Null(),
      Item::Boolean(true),
      Item::Int64(1),
      Item::Double(1.0),
      Item::Double(2.5),
      Item::String("a"),
      Item::String("b"),
      Item::DateTime(*ParseDateTime("2013-12-25T00:00")),
      Item::MakeArray({Item::Int64(1)}),
      Item::MakeObject({}),
      Item::EmptySequence(),
      Item::MakeSequence({Item::Int64(1), Item::Int64(3)}),
      Item::MakeSequence({Item::String("a"), Item::Int64(3)}),
  };
  for (Builtin fn : {Builtin::kEq, Builtin::kNe, Builtin::kLt, Builtin::kLe,
                     Builtin::kGt, Builtin::kGe}) {
    for (const Item& a : operands) {
      for (const Item& b : operands) {
        SCOPED_TRACE(std::string(BuiltinToString(fn)) + "(" +
                     a.ToJsonString() + ", " + b.ToJsonString() + ")");
        Result<Item> got = GeneralCompareOp(fn, a, b);
        Result<Item> want = ReferenceCompare(fn, a, b);
        ASSERT_EQ(got.ok(), want.ok());
        if (got.ok()) {
          EXPECT_EQ(got->ToJsonString(), want->ToJsonString());
        } else {
          EXPECT_EQ(got.status().ToString(), want.status().ToString());
        }
      }
    }
  }
}

TEST(ExprDifferentialTest, IncomparableOperandsKeepTheirErrorText) {
  // The error text is part of the contract: tree and bytecode must both
  // raise it, for scalar and for sequence operands alike.
  auto compare = [](Builtin fn, Item lhs, Item rhs) {
    auto made = MakeFunctionEval(fn, {MakeConstantEval(std::move(lhs)),
                                      MakeConstantEval(std::move(rhs))});
    EXPECT_TRUE(made.ok());
    return *made;
  };
  struct Case {
    ScalarEvalPtr tree;
    const char* text;
  };
  const Case cases[] = {
      {compare(Builtin::kEq, Item::Int64(1), Item::String("1")),
       "TypeError: cannot compare integer with string"},
      {compare(Builtin::kLt, Item::String("x"), Item::Boolean(false)),
       "TypeError: cannot compare string with boolean"},
      {compare(Builtin::kGe, Item::Null(), Item::Null()),
       "TypeError: cannot compare null with null"},
      {compare(Builtin::kNe, Item::MakeObject({}), Item::Double(2)),
       "TypeError: cannot compare object with double"},
      {compare(Builtin::kGt,
               Item::MakeSequence({Item::Int64(0), Item::String("s")}),
               Item::Int64(5)),
       "TypeError: cannot compare string with integer"},
  };
  TupleBatch batch = RandomBatch(1, 1, 4);
  std::vector<uint32_t> all = {0, 1, 2, 3};
  for (const Case& c : cases) {
    SCOPED_TRACE(c.tree->ToString());
    EvalContext ctx;
    Result<Item> out = c.tree->Eval(Tuple{Item::Null()}, &ctx);
    ASSERT_FALSE(out.ok());
    EXPECT_EQ(out.status().ToString(), c.text);
    CheckTreeVsBytecode(c.tree, batch, all);
  }
}

TEST(ExprDifferentialTest, CompileIsShapeDriven) {
  // Every maker-built tree is compilable; an opaque node anywhere makes
  // the whole program nullptr (stays on the tree interpreter).
  class OpaqueEval : public ScalarEval {
   public:
    Result<Item> Eval(const Tuple&, EvalContext*) const override {
      return Item::Null();
    }
    std::string ToString() const override { return "opaque()"; }
  };
  EXPECT_NE(CompileExprProgram(MakeConstantEval(Item::Int64(1))), nullptr);
  EXPECT_NE(CompileExprProgram(MakeColumnEval(0)), nullptr);
  EXPECT_EQ(CompileExprProgram(std::make_shared<OpaqueEval>()), nullptr);
  auto wrapped = MakeFunctionEval(
      Builtin::kNot, {std::make_shared<OpaqueEval>()});
  ASSERT_TRUE(wrapped.ok());
  EXPECT_EQ(CompileExprProgram(*wrapped), nullptr);
}

TEST(ExprDifferentialTest, EvalCheckHonorsCancellationInterval) {
  // A batch wider than the check interval must tick the hook; a firing
  // hook must abort the whole batch (not defer per-lane).
  auto tree = MakeFunctionEval(
      Builtin::kAdd, {MakeColumnEval(0), MakeConstantEval(Item::Int64(1))});
  ASSERT_TRUE(tree.ok());
  ExprProgramPtr prog = CompileExprProgram(*tree);
  ASSERT_NE(prog, nullptr);
  TupleBatch batch(1024);
  batch.Reset(1);
  for (int i = 0; i < 1024; ++i) batch.AppendRow(Item::Int64(i));
  std::vector<uint32_t> sel;
  for (uint32_t r = 0; r < 1024; ++r) sel.push_back(r);
  uint64_t ticks = 0;
  EvalCheck counting([&ticks]() {
    ++ticks;
    return Status::OK();
  });
  EvalContext ctx;
  std::vector<Item> out;
  std::vector<LaneError> errors;
  ASSERT_TRUE(
      EvalExprProgram(*prog, batch, sel, &ctx, &counting, &out, &errors)
          .ok());
  EXPECT_GE(ticks, 1024 / kExprCheckIntervalLanes);

  EvalCheck cancelling([]() { return Status::Cancelled("stop"); });
  Status st =
      EvalExprProgram(*prog, batch, sel, &ctx, &cancelling, &out, &errors);
  EXPECT_EQ(st.code(), StatusCode::kCancelled);
}

// ---------------------------------------------------------------------
// Part B: end-to-end pipelines, tree vs. bytecode.
// ---------------------------------------------------------------------

struct ModeConfig {
  const char* name;
  ExecOptions exec;
};

std::vector<ModeConfig> PipelineConfigs() {
  std::vector<ModeConfig> configs;
  ExecOptions single;
  configs.push_back({"single-partition", single});
  ExecOptions parts4;
  parts4.partitions = 4;
  configs.push_back({"4-partitions", parts4});
  ExecOptions threaded = parts4;
  threaded.use_threads = true;
  configs.push_back({"4-partitions-threaded", threaded});
  ExecOptions spilling;
  spilling.partitions = 2;
  spilling.memory_limit_bytes = 4096;
  spilling.spill = SpillMode::kEnabled;
  configs.push_back({"spill-tiny", spilling});
  for (size_t bs : {1u, 3u, 256u}) {
    ExecOptions sized;
    sized.batch_size = bs;
    configs.push_back({bs == 1u   ? "batch-1"
                       : bs == 3u ? "batch-3"
                                  : "batch-256",
                       sized});
  }
  return configs;
}

Collection SmallSensorData() {
  SensorDataSpec spec;
  spec.num_files = 3;
  spec.records_per_file = 12;
  spec.measurements_per_array = 24;
  spec.num_stations = 6;
  spec.seed = 7;
  return GenerateSensorCollection(spec);
}

Collection DirtySensorNdjson() {
  // Sensor-shaped records with every ninth line truncated mid-object.
  Collection c;
  for (int f = 0; f < 3; ++f) {
    std::string text;
    for (int i = 0; i < 40; ++i) {
      int v = f * 40 + i;
      if (i % 9 == 4) {
        text += "{\"station\": \"s" + std::to_string(v % 5) + "\",\n";
      } else {
        text += "{\"station\": \"s" + std::to_string(v % 5) +
                "\", \"value\": " + std::to_string(v) +
                ", \"dataType\": \"" + (v % 2 == 0 ? "TMIN" : "TMAX") +
                "\"}\n";
      }
    }
    c.files.push_back(JsonFile::FromText(std::move(text)));
  }
  return c;
}

std::vector<std::string> Rows(const QueryOutput& out) {
  std::vector<std::string> rows;
  for (const Item& item : out.items) rows.push_back(item.ToJsonString());
  return rows;
}

Result<QueryOutput> RunWithMode(const Collection& data, const char* query,
                                const ExecOptions& exec, ExprMode mode,
                                const char* collection_name = "/sensors") {
  EngineOptions options;
  options.exec = exec;
  options.exec.expr_mode = mode;
  Engine engine(options);
  engine.catalog()->RegisterCollection(collection_name, data);
  return engine.Run(query);
}

TEST(ExprDifferentialTest, PaperQueriesByteIdenticalAcrossModes) {
  Collection data = SmallSensorData();
  for (const ModeConfig& config : PipelineConfigs()) {
    for (const jparbench::NamedQuery& q : jparbench::kAllQueries) {
      SCOPED_TRACE(std::string(config.name) + " " + q.name);
      auto tree = RunWithMode(data, q.text, config.exec, ExprMode::kTree);
      auto bytecode =
          RunWithMode(data, q.text, config.exec, ExprMode::kBytecode);
      ASSERT_TRUE(tree.ok()) << tree.status().ToString();
      ASSERT_TRUE(bytecode.ok()) << bytecode.status().ToString();
      EXPECT_EQ(Rows(*bytecode), Rows(*tree));
      EXPECT_EQ(bytecode->stats.result_rows, tree->stats.result_rows);
      // The mode must actually differ: bytecode runs report compiled
      // expressions and emitted batches, tree runs report neither.
      EXPECT_EQ(tree->stats.exprs_compiled, 0u);
      EXPECT_EQ(tree->stats.batches_emitted, 0u);
      if (bytecode->stats.result_rows > 0) {
        EXPECT_GT(bytecode->stats.batches_emitted, 0u);
      }
    }
  }
}

TEST(ExprDifferentialTest, DirtyInputSkipCountsAgreeAcrossModes) {
  constexpr const char* kQuery = R"(
    for $d in collection("/dirty")
    where $d("dataType") eq "TMIN" and $d("value") ge 10
    return $d("value") + 1)";
  Collection dirty = DirtySensorNdjson();
  for (const ModeConfig& config : PipelineConfigs()) {
    SCOPED_TRACE(config.name);
    ExecOptions exec = config.exec;
    exec.on_parse_error = ParseErrorPolicy::kSkipAndCount;
    auto tree = RunWithMode(dirty, kQuery, exec, ExprMode::kTree, "/dirty");
    auto bytecode =
        RunWithMode(dirty, kQuery, exec, ExprMode::kBytecode, "/dirty");
    ASSERT_TRUE(tree.ok()) << tree.status().ToString();
    ASSERT_TRUE(bytecode.ok()) << bytecode.status().ToString();
    EXPECT_GT(tree->stats.skipped_records, 0u);
    EXPECT_EQ(bytecode->stats.skipped_records, tree->stats.skipped_records);
    EXPECT_EQ(Rows(*bytecode), Rows(*tree));
  }
}

TEST(ExprDifferentialTest, RuntimeErrorsIdenticalAcrossModes) {
  // Injected per-tuple failures: the batch path defers lane errors and
  // must still report the error of the first failing tuple, with the
  // same status text the tuple-at-a-time path stops on. Sequential
  // configs only — with racing threads, "first" is not deterministic.
  constexpr const char* kDivByZero = R"(
    for $d in collection("/dirty")
    return $d("value") div 0)";
  constexpr const char* kStringPlusInt = R"(
    for $d in collection("/dirty")
    where $d("station") + 1 eq 2
    return $d)";
  Collection dirty = DirtySensorNdjson();
  for (int partitions : {1, 2}) {
    for (const char* query : {kDivByZero, kStringPlusInt}) {
      for (size_t bs : {1u, 3u, 1024u}) {
        SCOPED_TRACE(std::string(query) + " partitions=" +
                     std::to_string(partitions) +
                     " batch=" + std::to_string(bs));
        ExecOptions exec;
        exec.partitions = partitions;
        exec.batch_size = bs;
        exec.on_parse_error = ParseErrorPolicy::kSkipAndCount;
        auto tree = RunWithMode(dirty, query, exec, ExprMode::kTree, "/dirty");
        auto bytecode =
            RunWithMode(dirty, query, exec, ExprMode::kBytecode, "/dirty");
        ASSERT_FALSE(tree.ok());
        ASSERT_FALSE(bytecode.ok());
        EXPECT_EQ(bytecode.status().ToString(), tree.status().ToString());
      }
    }
  }
}

}  // namespace
}  // namespace jpar
