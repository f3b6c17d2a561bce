// End-to-end tests of the Engine facade: compile + execute the paper's
// query shapes against small in-memory datasets, with rules on and off,
// asserting identical results and the expected plan transformations.

#include "core/engine.h"

#include <gtest/gtest.h>

#include "data/sensor_generator.h"

namespace jpar {
namespace {

// The bookstore document of the paper's Listing 1.
constexpr const char* kBookstoreJson = R"({
  "bookstore": {
    "book": [
      {"-category": "COOKING", "title": "Everyday Italian",
       "author": "Giada De Laurentiis", "year": "2005", "price": "30.00"},
      {"-category": "CHILDREN", "title": "Harry Potter",
       "author": "J K. Rowling", "year": "2005", "price": "29.99"},
      {"-category": "WEB", "title": "Learning XML",
       "author": "Erik T. Ray", "year": "2003", "price": "39.95"}
    ]
  }
})";

Engine MakeBookstoreEngine(RuleOptions rules = RuleOptions::All()) {
  EngineOptions options;
  options.rules = rules;
  Engine engine(options);
  engine.catalog()->RegisterDocument("books.json",
                                     JsonFile::FromText(kBookstoreJson));
  Collection books;
  books.files.push_back(JsonFile::FromText(kBookstoreJson));
  engine.catalog()->RegisterCollection("/books", std::move(books));
  return engine;
}

TEST(EngineTest, BookstoreJsonDocQuery) {
  // Paper Listing 2.
  Engine engine = MakeBookstoreEngine();
  auto result = engine.Run(
      R"(json-doc("books.json")("bookstore")("book")())");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->items.size(), 3u);
  EXPECT_EQ(*result->items[0].GetField("title"),
            Item::String("Everyday Italian"));
  EXPECT_EQ(result->items[2].GetField("author")->string_value(),
            "Erik T. Ray");
}

TEST(EngineTest, ParenthesizedSequences) {
  Engine engine;
  auto count = engine.Run("count((1,2,3))");
  ASSERT_TRUE(count.ok()) << count.status().ToString();
  ASSERT_EQ(count->items.size(), 1u);
  EXPECT_EQ(count->items[0], Item::Int64(3));

  auto loop = engine.Run("for $i in (1,2,3) return $i");
  ASSERT_TRUE(loop.ok()) << loop.status().ToString();
  ASSERT_EQ(loop->items.size(), 3u);
  for (int64_t i = 0; i < 3; ++i) {
    EXPECT_EQ(loop->items[static_cast<size_t>(i)], Item::Int64(i + 1));
  }

  auto empty = engine.Run("count(())");
  ASSERT_TRUE(empty.ok()) << empty.status().ToString();
  ASSERT_EQ(empty->items.size(), 1u);
  EXPECT_EQ(empty->items[0], Item::Int64(0));
}

TEST(EngineTest, BookstoreCollectionQuery) {
  // Paper Listing 3.
  Engine engine = MakeBookstoreEngine();
  auto result = engine.Run(R"(collection("/books")("bookstore")("book")())");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->items.size(), 3u);
}

TEST(EngineTest, CollectionQueryPlanUsesDataScan) {
  Engine engine = MakeBookstoreEngine();
  auto compiled =
      engine.Compile(R"(collection("/books")("bookstore")("book")())");
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  // The naive plan reads via ASSIGN collection(...).
  EXPECT_NE(compiled->original_plan.find("collection"), std::string::npos);
  EXPECT_EQ(compiled->original_plan.find("DATASCAN"), std::string::npos);
  // The optimized plan is a single DATASCAN with all steps merged
  // (paper Fig. 8).
  EXPECT_NE(compiled->optimized_plan.find(
                "<- collection(\"/books\")(\"bookstore\")(\"book\")()"),
            std::string::npos)
      << compiled->optimized_plan;
  EXPECT_NE(compiled->optimized_plan.find("DATASCAN"), std::string::npos);
  // All ASSIGN/UNNEST steps were absorbed by the scan.
  EXPECT_EQ(compiled->optimized_plan.find("ASSIGN"), std::string::npos)
      << compiled->optimized_plan;
  EXPECT_EQ(compiled->optimized_plan.find("UNNEST"), std::string::npos)
      << compiled->optimized_plan;
}

TEST(EngineTest, BookstoreGroupByCount) {
  // Paper Listing 4.
  Engine engine = MakeBookstoreEngine();
  auto result = engine.Run(R"(
    for $x in collection("/books")("bookstore")("book")()
    group by $author := $x("author")
    return count($x("title")))");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // Three distinct authors, one book each.
  ASSERT_EQ(result->items.size(), 3u);
  for (const Item& item : result->items) {
    EXPECT_EQ(item, Item::Int64(1));
  }
}

TEST(EngineTest, BookstoreGroupByCountSecondForm) {
  // Paper Listing 5 (the nested-FLWOR count).
  Engine engine = MakeBookstoreEngine();
  auto result = engine.Run(R"(
    for $x in collection("/books")("bookstore")("book")()
    group by $author := $x("author")
    return count(for $j in $x return $j("title")))");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->items.size(), 3u);
  for (const Item& item : result->items) {
    EXPECT_EQ(item, Item::Int64(1));
  }
}

TEST(EngineTest, RulesOnAndOffAgreeOnBookstore) {
  const char* queries[] = {
      R"(collection("/books")("bookstore")("book")())",
      R"(for $x in collection("/books")("bookstore")("book")()
         group by $author := $x("author")
         return count($x("title")))",
  };
  for (const char* query : queries) {
    Engine with_rules = MakeBookstoreEngine(RuleOptions::All());
    Engine without_rules = MakeBookstoreEngine(RuleOptions::None());
    auto a = with_rules.Run(query);
    auto b = without_rules.Run(query);
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    ASSERT_EQ(a->items.size(), b->items.size()) << query;
    // Group-by output order may differ between plans; compare as
    // multisets via serialized form.
    std::vector<std::string> sa, sb;
    for (const Item& i : a->items) sa.push_back(i.ToJsonString());
    for (const Item& i : b->items) sb.push_back(i.ToJsonString());
    std::sort(sa.begin(), sa.end());
    std::sort(sb.begin(), sb.end());
    EXPECT_EQ(sa, sb) << query;
  }
}

TEST(EngineTest, SensorSelectionQueryQ0) {
  EngineOptions options;
  Engine engine(options);
  SensorDataSpec spec;
  spec.num_files = 2;
  spec.records_per_file = 8;
  spec.measurements_per_array = 10;
  engine.catalog()->RegisterCollection("/sensors",
                                       GenerateSensorCollection(spec));
  auto result = engine.Run(R"(
    for $r in collection("/sensors")("root")()("results")()
    let $datetime := dateTime(data($r("date")))
    where year-from-dateTime($datetime) ge 2003
      and month-from-dateTime($datetime) eq 12
      and day-from-dateTime($datetime) eq 25
    return $r)");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // Every result is a measurement on a December 25th, 2003+.
  for (const Item& r : result->items) {
    const std::string& date = r.GetField("date")->string_value();
    EXPECT_GE(date.substr(0, 4), "2003");
    EXPECT_EQ(date.substr(4, 4), "1225");
  }
}

// Degraded scans end-to-end: one corrupt line in an NDJSON collection
// fails the whole query under the strict default, but is skipped and
// counted under ParseErrorPolicy::kSkipAndCount.
TEST(EngineTest, DegradedScanSkipsCorruptNdjsonLines) {
  auto make_engine = [](ParseErrorPolicy policy) {
    EngineOptions options;
    options.exec.on_parse_error = policy;
    Engine engine(options);
    Collection c;
    c.files.push_back(JsonFile::FromText(
        "{\"v\": 1}\n{\"v\": 2}\n{corrupt line\n{\"v\": 4}\n"));
    c.files.push_back(JsonFile::FromText("{\"v\": 5}\nalso corrupt\n"));
    engine.catalog()->RegisterCollection("/dirty", std::move(c));
    return engine;
  };
  const char* query =
      R"(for $d in collection("/dirty") return $d("v"))";

  Engine strict = make_engine(ParseErrorPolicy::kFail);
  auto failed = strict.Run(query);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kParseError);

  Engine lenient = make_engine(ParseErrorPolicy::kSkipAndCount);
  auto out = lenient.Run(query);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ASSERT_EQ(out->items.size(), 4u);
  EXPECT_EQ(out->items[0], Item::Int64(1));
  EXPECT_EQ(out->items[3], Item::Int64(5));
  EXPECT_EQ(out->stats.skipped_records, 2u);
}

TEST(EngineTest, CleanScanReportsZeroSkippedRecords) {
  Engine engine = MakeBookstoreEngine();
  auto out = engine.Run(R"(collection("/books")("bookstore")("book")())");
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->stats.skipped_records, 0u);
}

TEST(EngineTest, ExecutionStatsArePopulated) {
  Engine engine = MakeBookstoreEngine();
  auto result = engine.Run(R"(collection("/books")("bookstore")("book")())");
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->stats.bytes_scanned, 0u);
  EXPECT_EQ(result->stats.result_rows, 3u);
  EXPECT_GT(result->stats.real_ms, 0.0);
  EXPECT_FALSE(result->stats.stages.empty());
}

}  // namespace
}  // namespace jpar
