// Keys encoded once (DESIGN.md §6): the flat KeySet and JoinTable,
// KeyEncoder against the reference per-expression encoding, the hash
// join against a nested-loop oracle, both through the fragment API's
// JoinPartition and through in-process plans whose exchanges carry
// each tuple's key to the join, and the group-by over the same keys:
// its first-appearance order and how often it evaluates a key.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "common/key_table.h"
#include "runtime/executor.h"
#include "runtime/key_encoder.h"

namespace jpar {
namespace {

// ---------------------------------------------------------------------
// KeyIndex and JoinTable.
// ---------------------------------------------------------------------

TEST(KeySetTest, InternsInInsertionOrderAndGrows) {
  KeySet set;
  EXPECT_EQ(set.Find("absent", 1), KeyIndex::kAbsent);
  // Hashes that share their low 16 bits, as the keys of one exchange
  // partition share hash % fanout, and pairs of keys with one hash.
  for (uint32_t i = 0; i < 5000; ++i) {
    const std::string key = "k" + std::to_string(i);
    auto [id, inserted] = set.Insert(key, (uint64_t{i} / 2) << 16);
    EXPECT_TRUE(inserted);
    EXPECT_EQ(id, i);
  }
  EXPECT_EQ(set.size(), 5000u);
  for (uint32_t i = 0; i < 5000; ++i) {
    const std::string key = "k" + std::to_string(i);
    const uint64_t hash = (uint64_t{i} / 2) << 16;
    ASSERT_EQ(set.Find(key, hash), i);
    EXPECT_EQ(set.Insert(key, hash), std::make_pair(i, false));
    // The right bytes under another hash are another key.
    EXPECT_EQ(set.Find(key, hash ^ (uint64_t{1} << 40)), KeyIndex::kAbsent);
  }
  EXPECT_EQ(set.Find("k5000", 2500ull << 16), KeyIndex::kAbsent);
  set.Clear();
  EXPECT_EQ(set.size(), 0u);
  EXPECT_EQ(set.Find("k7", 3ull << 16), KeyIndex::kAbsent);
  EXPECT_EQ(set.Insert("k7", 3ull << 16), std::make_pair(0u, true));
  // Empty and '\0'-holding keys are keys like any other.
  EXPECT_EQ(set.Insert(std::string_view(), 0), std::make_pair(1u, true));
  EXPECT_EQ(set.Insert(std::string_view("\0", 1), 0),
            std::make_pair(2u, true));
  EXPECT_EQ(set.Find(std::string_view(), 0), 1u);
}

TEST(KeySetTest, KeyReturnsEachInsertedKey) {
  KeySet set;
  std::vector<std::string> keys = {"b", "", std::string("\0x", 2), "a"};
  for (int i = 0; i < 300; ++i) keys.push_back("key" + std::to_string(i));
  for (const std::string& key : keys) {
    set.Insert(key, std::hash<std::string>{}(key));
    set.Insert(key, std::hash<std::string>{}(key));  // found, not added
  }
  ASSERT_EQ(set.size(), keys.size());
  for (uint32_t id = 0; id < keys.size(); ++id) {
    EXPECT_EQ(set.key(id), keys[id]);
  }
}

TEST(EncodedKeysTest, TakeAppendsInOrder) {
  EncodedKeys a, b, c;
  a.Append("x", 1);
  b.Append("", 2);
  b.Append("yz", 3);
  c.Take(std::move(a));  // into an empty sequence: a move
  c.Take(std::move(b));
  EXPECT_EQ(a.size(), 0u);
  EXPECT_EQ(b.size(), 0u);
  ASSERT_EQ(c.size(), 3u);
  EXPECT_EQ(c.key(0), "x");
  EXPECT_EQ(c.key(1), "");
  EXPECT_EQ(c.key(2), "yz");
  EXPECT_EQ(c.hash(2), 3u);
}

TEST(JoinTableTest, RowsComeBackAscendingPerKey) {
  EncodedKeys keys;
  for (const char* k : {"b", "a", "b", "c", "a", "b"}) keys.Append(k, k[0]);
  JoinTable table(&keys);
  for (size_t i = 0; i < keys.size(); ++i) table.Add();
  table.Seal();
  auto rows = [&](const char* k) {
    auto span = table.Rows(k, k[0]);
    return std::vector<uint32_t>(span.begin(), span.end());
  };
  EXPECT_EQ(rows("a"), (std::vector<uint32_t>{1, 4}));
  EXPECT_EQ(rows("b"), (std::vector<uint32_t>{0, 2, 5}));
  EXPECT_EQ(rows("c"), (std::vector<uint32_t>{3}));
  EXPECT_TRUE(rows("d").empty());
  EncodedKeys none;
  JoinTable empty(&none);
  empty.Seal();
  EXPECT_TRUE(empty.Rows("a", 'a').empty());
}

// ---------------------------------------------------------------------
// KeyEncoder.
// ---------------------------------------------------------------------

ScalarEvalPtr Fn(Builtin fn, std::vector<ScalarEvalPtr> args) {
  Result<ScalarEvalPtr> made = MakeFunctionEval(fn, std::move(args));
  EXPECT_TRUE(made.ok()) << made.status().ToString();
  return *made;
}

ScalarEvalPtr Field(int col, const char* key) {
  return Fn(Builtin::kValue,
            {MakeColumnEval(col), MakeConstantEval(Item::String(key))});
}

/// The per-expression encoding every key evaluation used before the
/// copy-free paths: Eval, AppendGroupKeyTo, '\0'.
Status ReferenceEncode(const std::vector<ScalarEvalPtr>& evals,
                       const Tuple& tuple, std::string* out,
                       Tuple* key_items) {
  EvalContext ctx;
  out->clear();
  key_items->clear();
  for (const ScalarEvalPtr& eval : evals) {
    JPAR_ASSIGN_OR_RETURN(Item k, eval->Eval(tuple, &ctx));
    k.AppendGroupKeyTo(out);
    out->push_back('\0');
    key_items->push_back(std::move(k));
  }
  return Status::OK();
}

/// A key value of every kind, with 1 and 1.0 both likely.
Item RandomKey(std::mt19937* rng) {
  switch ((*rng)() % 9) {
    case 0:
      return Item::Int64(1);
    case 1:
      return Item::Double(1.0);
    case 2:
      return Item::Int64(static_cast<int64_t>((*rng)() % 3));
    case 3:
      return Item::String((*rng)() % 2 ? "1" : "a");
    case 4:
      return Item::Null();
    case 5:
      return Item::Boolean((*rng)() % 2 == 0);
    case 6:
      return Item::MakeArray({Item::Int64(1)});
    case 7:
      return Item::MakeObject({{"x", Item::Int64(1)}});
    default:
      return Item::String("b");
  }
}

/// A row: usually an object with or without "k" (sometimes twice) and
/// "v"; otherwise a non-object the key's value() selects nothing from,
/// or a sequence of objects it maps over.
Item RandomRow(std::mt19937* rng, int v) {
  switch ((*rng)() % 10) {
    case 0:
      return Item::Int64(v);
    case 1:
      return Item::MakeArray({Item::MakeObject({{"k", Item::Int64(1)}})});
    case 2:
      return Item::MakeSequence(
          {Item::MakeObject({{"k", RandomKey(rng)}}),
           Item::MakeObject({{"k", RandomKey(rng)}})});
    case 3:
      return Item::MakeObject({{"v", Item::Int64(v)}});  // no "k"
    case 4:
      return Item::MakeObject({{"k", RandomKey(rng)},
                               {"v", Item::Int64(v)},
                               {"k", RandomKey(rng)}});
    default:
      return Item::MakeObject({{"v", Item::Int64(v)}, {"k", RandomKey(rng)}});
  }
}

TEST(KeyEncoderTest, BytesAndItemsEqualTheReferenceEncoding) {
  const std::vector<std::vector<ScalarEvalPtr>> key_sets = {
      {Field(0, "k")},
      {Field(1, "k"), Field(0, "k")},
      {MakeColumnEval(0)},
      {MakeColumnEval(0), Field(1, "v")},
      {Field(2, "k")},  // past the tuple's width: the column error
      {MakeColumnEval(3)},
      // Shapes the encoder evaluates through Eval.
      {Fn(Builtin::kValue,
          {Field(0, "k"), MakeConstantEval(Item::String("x"))})},
      {Fn(Builtin::kValue,
          {MakeColumnEval(0), MakeConstantEval(Item::Int64(1))})},
      {Fn(Builtin::kAdd, {Field(0, "k"), MakeConstantEval(Item::Int64(1))})},
      {},
  };
  std::mt19937 rng(7);
  for (size_t s = 0; s < key_sets.size(); ++s) {
    const KeyEncoder encoder(key_sets[s]);
    for (int i = 0; i < 500; ++i) {
      Tuple tuple = {RandomRow(&rng, i), RandomRow(&rng, i)};
      SCOPED_TRACE("key set " + std::to_string(s) + ", tuple (" +
                   tuple[0].ToJsonString() + ", " + tuple[1].ToJsonString() +
                   ")");
      std::string want, got = "stale";
      Tuple want_items, got_items = {Item::Int64(9)};
      Status want_st = ReferenceEncode(key_sets[s], tuple, &want, &want_items);
      EvalContext ctx;
      Status got_st = encoder.Encode(tuple, &ctx, &got, &got_items);
      ASSERT_EQ(got_st.ToString(), want_st.ToString());
      if (!want_st.ok()) continue;
      EXPECT_EQ(got, want);
      ASSERT_EQ(got_items.size(), want_items.size());
      for (size_t k = 0; k < want_items.size(); ++k) {
        EXPECT_EQ(got_items[k].ToJsonString(), want_items[k].ToJsonString());
        EXPECT_EQ(got_items[k].kind(), want_items[k].kind());
      }
      std::string bytes_only;
      ASSERT_TRUE(encoder.Encode(tuple, &ctx, &bytes_only).ok());
      EXPECT_EQ(bytes_only, want);
    }
  }
}

TEST(KeyEncoderTest, IntegerAndDoubleKeysEncodeEqual) {
  const KeyEncoder encoder({Field(0, "k")});
  EvalContext ctx;
  std::string one, one_point_zero;
  ASSERT_TRUE(encoder
                  .Encode({Item::MakeObject({{"k", Item::Int64(1)}})}, &ctx,
                          &one)
                  .ok());
  ASSERT_TRUE(encoder
                  .Encode({Item::MakeObject({{"k", Item::Double(1.0)}})}, &ctx,
                          &one_point_zero)
                  .ok());
  EXPECT_EQ(one, one_point_zero);
}

// ---------------------------------------------------------------------
// The join against a nested-loop oracle.
// ---------------------------------------------------------------------

/// Every (l, r) pair, in left-then-right order, whose reference-encoded
/// keys are equal and which the residual keeps; evaluation errors fail.
Result<std::vector<Tuple>> NestedLoopJoin(const PNode& node,
                                          const std::vector<Tuple>& left,
                                          const std::vector<Tuple>& right) {
  std::vector<std::string> lk(left.size()), rk(right.size());
  Tuple items;
  for (size_t i = 0; i < left.size(); ++i) {
    JPAR_RETURN_NOT_OK(
        ReferenceEncode(node.left_keys, left[i], &lk[i], &items));
  }
  for (size_t i = 0; i < right.size(); ++i) {
    JPAR_RETURN_NOT_OK(
        ReferenceEncode(node.right_keys, right[i], &rk[i], &items));
  }
  std::vector<Tuple> out;
  EvalContext ctx;
  for (size_t l = 0; l < left.size(); ++l) {
    for (size_t r = 0; r < right.size(); ++r) {
      if (lk[l] != rk[r]) continue;
      Tuple joined = left[l];
      joined.insert(joined.end(), right[r].begin(), right[r].end());
      if (node.residual != nullptr) {
        JPAR_ASSIGN_OR_RETURN(Item cond, node.residual->Eval(joined, &ctx));
        JPAR_ASSIGN_OR_RETURN(bool keep, cond.EffectiveBooleanValue());
        if (!keep) continue;
      }
      out.push_back(std::move(joined));
    }
  }
  return out;
}

std::vector<std::string> Render(const std::vector<Tuple>& tuples) {
  std::vector<std::string> out;
  for (const Tuple& t : tuples) {
    std::string row;
    for (const Item& item : t) row += item.ToJsonString() + " | ";
    out.push_back(std::move(row));
  }
  return out;
}

/// Join nodes keyed on value($0, "k"), flipped or not, with or without
/// a residual on "v" of the left row and of the right row (the joined
/// tuple's column `right_col`), and, over two-column tuples, keyed on
/// value($0, "k") and $1.
std::vector<PNode> JoinVariants(int right_col) {
  std::vector<PNode> nodes;
  for (bool build_left : {false, true}) {
    for (bool residual : {false, true}) {
      PNode node;
      node.kind = PNode::Kind::kJoin;
      node.left_keys = {Field(0, "k")};
      node.right_keys = {Field(0, "k")};
      node.build_left = build_left;
      if (residual) {
        // Keeps pairs whose left "v" is below the right's; rows without
        // "v" compare () and drop out.
        node.residual =
            Fn(Builtin::kLt, {Field(0, "v"), Field(right_col, "v")});
      }
      nodes.push_back(node);
    }
  }
  if (right_col != 2) return nodes;
  PNode two_keys;
  two_keys.kind = PNode::Kind::kJoin;
  two_keys.left_keys = {Field(0, "k"), MakeColumnEval(1)};
  two_keys.right_keys = {Field(0, "k"), MakeColumnEval(1)};
  nodes.push_back(two_keys);
  two_keys.build_left = true;
  nodes.push_back(two_keys);
  return nodes;
}

TEST(JoinOracleTest, JoinPartitionMatchesNestedLoopInOrder) {
  Catalog catalog;
  Executor executor(&catalog, ExecOptions{});
  std::mt19937 rng(42);
  for (int round = 0; round < 40; ++round) {
    std::vector<Tuple> left, right;
    const int nl = static_cast<int>(rng() % 60);
    const int nr = static_cast<int>(rng() % 60);
    for (int i = 0; i < nl; ++i) {
      left.push_back({RandomRow(&rng, i), Item::Int64(i % 2)});
    }
    for (int i = 0; i < nr; ++i) {
      right.push_back({RandomRow(&rng, i), Item::Int64(i % 2)});
    }
    for (const PNode& node : JoinVariants(/*right_col=*/2)) {
      SCOPED_TRACE("round " + std::to_string(round) + ", build_left " +
                   std::to_string(node.build_left) + ", residual " +
                   std::to_string(node.residual != nullptr) + ", keys " +
                   std::to_string(node.left_keys.size()));
      Result<std::vector<Tuple>> want = NestedLoopJoin(node, left, right);
      ExecStats stats;
      Result<std::vector<Tuple>> got =
          executor.JoinPartition(node, left, right, &stats);
      ASSERT_EQ(got.ok(), want.ok());
      if (!want.ok()) {
        EXPECT_EQ(got.status().ToString(), want.status().ToString());
        continue;
      }
      EXPECT_EQ(Render(*got), Render(*want));
    }
  }
}

/// An opaque key expression that counts its evaluations.
class CountingEval : public ScalarEval {
 public:
  explicit CountingEval(ScalarEvalPtr inner) : inner_(std::move(inner)) {}
  Result<Item> Eval(const Tuple& tuple, EvalContext* ctx) const override {
    calls.fetch_add(1, std::memory_order_relaxed);
    return inner_->Eval(tuple, ctx);
  }
  std::string ToString() const override { return inner_->ToString(); }
  mutable std::atomic<uint64_t> calls{0};

 private:
  ScalarEvalPtr inner_;
};

/// A DATASCAN over the members of each file's "rows" array.
std::shared_ptr<PNode> ScanRows(const std::string& collection) {
  auto scan = std::make_shared<PNode>();
  scan->kind = PNode::Kind::kPipeline;
  scan->scan.kind = ScanDesc::Kind::kDataScan;
  scan->scan.collection = collection;
  scan->scan.steps = {PathStep::Key("rows"), PathStep::KeysOrMembers()};
  return scan;
}

/// `rows` as a collection of files of up to seven rows each.
Collection RowFiles(const std::vector<Tuple>& rows) {
  Collection coll;
  for (size_t begin = 0; begin < rows.size(); begin += 7) {
    std::string text = R"({"rows": [)";
    for (size_t i = begin; i < std::min(rows.size(), begin + 7); ++i) {
      if (i > begin) text += ", ";
      text += rows[i][0].ToJsonString();
    }
    coll.files.push_back(JsonFile::FromText(text + "]}"));
  }
  return coll;
}

TEST(JoinOracleTest, InProcessJoinMatchesNestedLoopAndEncodesEachKeyOnce) {
  std::mt19937 rng(11);
  for (int round = 0; round < 8; ++round) {
    // JSON rows only: no sequences inside files.
    auto json_row = [&](int v) {
      Item row = RandomRow(&rng, v);
      while (row.is_sequence()) row = RandomRow(&rng, v);
      return Tuple{row};
    };
    std::vector<Tuple> left, right;
    for (int i = 0; i < 90; ++i) left.push_back(json_row(i));
    for (int i = 0; i < 70; ++i) right.push_back(json_row(i));
    Catalog catalog;
    catalog.RegisterCollection("left", RowFiles(left));
    catalog.RegisterCollection("right", RowFiles(right));
    for (PNode variant : JoinVariants(/*right_col=*/1)) {
      auto left_key = std::make_shared<CountingEval>(variant.left_keys[0]);
      auto right_key = std::make_shared<CountingEval>(variant.right_keys[0]);
      variant.left_keys = {left_key};
      variant.right_keys = {right_key};
      variant.left = ScanRows("left");
      variant.right = ScanRows("right");
      auto node = std::make_shared<PNode>(variant);
      Result<std::vector<Tuple>> want = NestedLoopJoin(*node, left, right);
      ASSERT_TRUE(want.ok()) << want.status().ToString();
      std::vector<std::string> want_rows;
      for (const Tuple& t : *want) {
        want_rows.push_back(Item::MakeArray(t).ToJsonString());
      }
      // Ships each joined pair as one [left, right] array.
      auto pairs = std::make_shared<PNode>();
      pairs->kind = PNode::Kind::kPipeline;
      pairs->input = node;
      pairs->ops.push_back(UnaryOpDesc::Assign(Fn(
          Builtin::kArrayConstructor, {MakeColumnEval(0), MakeColumnEval(1)})));
      std::sort(want_rows.begin(), want_rows.end());
      for (int partitions : {1, 2, 3}) {
        for (bool threads : {false, true}) {
          SCOPED_TRACE("round " + std::to_string(round) + ", build_left " +
                       std::to_string(node->build_left) + ", residual " +
                       std::to_string(node->residual != nullptr) + ", p=" +
                       std::to_string(partitions) +
                       (threads ? " threaded" : ""));
          ExecOptions options;
          options.partitions = partitions;
          options.use_threads = threads;
          Executor executor(&catalog, options);
          PhysicalPlan plan;
          plan.root = pairs;
          plan.result_column = 2;
          left_key->calls = 0;
          right_key->calls = 0;
          Result<QueryOutput> out = executor.Run(plan);
          ASSERT_TRUE(out.ok()) << out.status().ToString();
          std::vector<std::string> got_rows;
          for (const Item& item : out->items) {
            got_rows.push_back(item.ToJsonString());
          }
          std::sort(got_rows.begin(), got_rows.end());
          EXPECT_EQ(got_rows, want_rows);
          EXPECT_EQ(left_key->calls.load(), left.size());
          EXPECT_EQ(right_key->calls.load(), right.size());
        }
      }
    }
  }
}

// ---------------------------------------------------------------------
// The group-by over the same keys.
// ---------------------------------------------------------------------

/// A group-by counting the rows of `input` per `key`, one- or two-step.
std::shared_ptr<PNode> CountByKey(ScalarEvalPtr key, bool two_step,
                                  std::shared_ptr<PNode> input) {
  auto node = std::make_shared<PNode>();
  node->kind = PNode::Kind::kGroupBy;
  node->keys = {std::move(key)};
  AggSpec count;
  count.kind = AggKind::kCount;
  count.arg = MakeColumnEval(0);
  node->aggs = {count};
  node->two_step = two_step;
  node->input = std::move(input);
  return node;
}

/// Runs `group_by` in process and returns each group as a
/// [key, count] array, in output order.
std::vector<std::string> RunGroups(const Catalog& catalog,
                                   const ExecOptions& options,
                                   std::shared_ptr<PNode> group_by) {
  auto pairs = std::make_shared<PNode>();
  pairs->kind = PNode::Kind::kPipeline;
  pairs->input = std::move(group_by);
  pairs->ops.push_back(UnaryOpDesc::Assign(Fn(
      Builtin::kArrayConstructor, {MakeColumnEval(0), MakeColumnEval(1)})));
  PhysicalPlan plan;
  plan.root = pairs;
  plan.result_column = 2;
  Executor executor(&catalog, options);
  Result<QueryOutput> out = executor.Run(plan);
  EXPECT_TRUE(out.ok()) << out.status().ToString();
  std::vector<std::string> rows;
  if (!out.ok()) return rows;
  for (const Item& item : out->items) rows.push_back(item.ToJsonString());
  return rows;
}

std::string Group(Item key, int64_t count) {
  return Item::MakeArray({std::move(key), Item::Int64(count)}).ToJsonString();
}

TEST(GroupByOrderTest, OnePartitionEmitsGroupsInFirstAppearanceOrder) {
  std::vector<Tuple> rows;
  for (const char* k : {"c", "a", "b", "a"}) {
    rows.push_back({Item::MakeObject({{"k", Item::String(k)}})});
  }
  const std::vector<std::string> want = {Group(Item::String("c"), 1),
                                         Group(Item::String("a"), 2),
                                         Group(Item::String("b"), 1)};
  Catalog catalog;
  catalog.RegisterCollection("rows", RowFiles(rows));
  Executor executor(&catalog, ExecOptions{});
  ExecStats stats;
  Result<std::vector<Tuple>> fragment = executor.GroupByFragment(
      *CountByKey(Field(0, "k"), false, nullptr), AggStep::kComplete, rows,
      &stats);
  ASSERT_TRUE(fragment.ok()) << fragment.status().ToString();
  std::vector<std::string> got;
  for (const Tuple& t : *fragment) {
    got.push_back(Item::MakeArray(t).ToJsonString());
  }
  EXPECT_EQ(got, want);
  for (bool two_step : {false, true}) {
    for (bool threads : {false, true}) {
      SCOPED_TRACE(std::string(two_step ? "two-step" : "one-step") +
                   (threads ? ", threaded" : ""));
      ExecOptions options;
      options.use_threads = threads;
      auto node = CountByKey(Field(0, "k"), two_step, ScanRows("rows"));
      EXPECT_EQ(RunGroups(catalog, options, node), want);
    }
  }
}

TEST(GroupByOracleTest, KeysAreEvaluatedOncePerTupleAndOncePerNewGroup) {
  std::mt19937 rng(5);
  std::vector<Tuple> rows;
  std::map<int64_t, int64_t> counts;
  for (int i = 0; i < 150; ++i) {
    const int64_t k = static_cast<int64_t>(rng() % 23);
    ++counts[k];
    rows.push_back({Item::MakeObject(
        {{"v", Item::Int64(i)}, {"k", Item::Int64(k)}})});
  }
  std::vector<std::string> want;
  for (const auto& [k, n] : counts) want.push_back(Group(Item::Int64(k), n));
  std::sort(want.begin(), want.end());
  Catalog catalog;
  catalog.RegisterCollection("rows", RowFiles(rows));
  for (bool two_step : {false, true}) {
    // An opaque key: every evaluation goes through CountingEval::Eval.
    auto key = std::make_shared<CountingEval>(Field(0, "k"));
    for (int partitions : {1, 2, 3}) {
      for (bool threads : {false, true}) {
        SCOPED_TRACE(std::string(two_step ? "two-step" : "one-step") +
                     ", p=" + std::to_string(partitions) +
                     (threads ? " threaded" : ""));
        ExecOptions options;
        options.partitions = partitions;
        options.use_threads = threads;
        key->calls = 0;
        std::vector<std::string> got = RunGroups(
            catalog, options, CountByKey(key, two_step, ScanRows("rows")));
        std::sort(got.begin(), got.end());
        EXPECT_EQ(got, want);
        // One-step: once per tuple to route it, once per group for its
        // key value. Two-step: once per tuple in the local step; the
        // global step reads key columns.
        EXPECT_EQ(key->calls.load(),
                  two_step ? rows.size() : rows.size() + counts.size());
      }
    }
  }
}

TEST(GroupByOracleTest, ChargesKeyBytesAndAggregateGrowthPerGroup) {
  std::mt19937 rng(9);
  std::vector<Tuple> rows;
  for (int i = 0; i < 200; ++i) {
    rows.push_back({Item::MakeObject(
        {{"k", Item::String(std::string(1 + rng() % 9, 'a' + rng() % 5))},
         {"v", Item::String(std::string(rng() % 40, 'x'))}})});
  }
  PNode node = *CountByKey(Field(0, "k"), false, nullptr);
  for (AggKind kind : {AggKind::kSequence, AggKind::kMax}) {
    AggSpec spec;
    spec.kind = kind;
    spec.arg = Field(0, "v");
    node.aggs.push_back(spec);
  }
  // The charges, worked out per group: key bytes + 64 when it is new,
  // and each Step's growth in retained bytes (tracked by every step but
  // the local one).
  std::map<std::string, std::vector<std::unique_ptr<Aggregator>>> groups;
  uint64_t key_charges = 0;
  uint64_t growth = 0;
  for (const Tuple& row : rows) {
    std::string key;
    Tuple items;
    ASSERT_TRUE(ReferenceEncode(node.keys, row, &key, &items).ok());
    auto [it, inserted] = groups.try_emplace(key);
    if (inserted) {
      key_charges += key.size() + 64;
      for (const AggSpec& spec : node.aggs) {
        it->second.push_back(*MakeAggregator(spec.kind, AggStep::kComplete));
      }
    }
    for (size_t a = 0; a < node.aggs.size(); ++a) {
      EvalContext ctx;
      const size_t before = it->second[a]->RetainedBytes();
      ASSERT_TRUE(it->second[a]->Step(*node.aggs[a].arg->Eval(row, &ctx)).ok());
      const size_t after = it->second[a]->RetainedBytes();
      if (after > before) growth += after - before;
    }
  }
  ASSERT_GT(growth, 0u);
  Catalog catalog;
  Executor executor(&catalog, ExecOptions{});
  for (AggStep step : {AggStep::kComplete, AggStep::kLocal}) {
    if (step == AggStep::kLocal) node.aggs.erase(node.aggs.begin() + 1);
    ExecStats stats;
    ASSERT_TRUE(executor.GroupByFragment(node, step, rows, &stats).ok());
    EXPECT_EQ(stats.peak_retained_bytes,
              key_charges + (step == AggStep::kComplete ? growth : 0));
  }
}

}  // namespace
}  // namespace jpar
