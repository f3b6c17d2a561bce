// Multi-document collection files (NDJSON / concatenated JSON): every
// collection file is a document stream, through every read path —
// streaming DATASCAN, naive collection(), the loaded baselines — plus
// disk-backed files.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "baselines/asterix_like.h"
#include "baselines/memtable.h"
#include "core/engine.h"
#include "json/parser.h"

namespace jpar {
namespace {

constexpr const char* kNdjson =
    "{\"v\": 1, \"g\": \"a\"}\n"
    "{\"v\": 2, \"g\": \"b\"}\n"
    "{\"v\": 3, \"g\": \"a\"}\n";

TEST(NdjsonTest, ParseJsonStreamSplitsDocuments) {
  auto docs = ParseJsonStream(kNdjson);
  ASSERT_TRUE(docs.ok()) << docs.status().ToString();
  ASSERT_EQ(docs->size(), 3u);
  EXPECT_EQ(*(*docs)[2].GetField("v"), Item::Int64(3));
  // Concatenated without newlines works too.
  docs = ParseJsonStream("{\"a\":1}{\"a\":2}");
  ASSERT_TRUE(docs.ok());
  EXPECT_EQ(docs->size(), 2u);
  // Whitespace-only input: zero documents.
  docs = ParseJsonStream("  \n\t ");
  ASSERT_TRUE(docs.ok());
  EXPECT_TRUE(docs->empty());
  // A malformed second document is an error.
  EXPECT_FALSE(ParseJsonStream("{\"a\":1} {bad").ok());
}

TEST(NdjsonTest, EngineScansMultiDocumentFiles) {
  for (bool with_rules : {true, false}) {
    EngineOptions options;
    options.rules = with_rules ? RuleOptions::All() : RuleOptions::None();
    Engine engine(options);
    Collection c;
    c.files.push_back(JsonFile::FromText(kNdjson));
    c.files.push_back(JsonFile::FromText("{\"v\": 10, \"g\": \"b\"}"));
    engine.catalog()->RegisterCollection("/c", std::move(c));
    auto out = engine.Run(R"(
        for $d in collection("/c")
        where $d("g") eq "a"
        return $d("v"))");
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    std::multiset<std::string> rows;
    for (const Item& i : out->items) rows.insert(i.ToJsonString());
    EXPECT_EQ(rows, (std::multiset<std::string>{"1", "3"}))
        << "rules=" << with_rules;
  }
}

TEST(NdjsonTest, BaselinesSplitDocumentsToo) {
  Collection c;
  c.files.push_back(JsonFile::FromText(kNdjson));

  MemTable table;
  auto stats = table.Load(c);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->documents, 3u);

  AsterixLikeOptions options;
  options.preload = true;
  AsterixLike asterix(options);
  auto load = asterix.Register("/c", c);
  ASSERT_TRUE(load.ok());
  EXPECT_EQ(load->documents, 3u);
  auto out = asterix.Run(R"(for $d in collection("/c") return $d("v"))");
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out->items.size(), 3u);
}

TEST(NdjsonTest, DiskBackedFilesWork) {
  std::string path = ::testing::TempDir() + "/jpar_ndjson_test.json";
  {
    std::ofstream out(path, std::ios::binary);
    out << kNdjson;
  }
  Engine engine;
  Collection c;
  c.files.push_back(JsonFile::FromPath(path));
  engine.catalog()->RegisterCollection("/disk", std::move(c));
  // Everything on, then the storage tier off, then sampled stats off.
  ExecOptions on;
  ExecOptions storage_off;
  storage_off.storage_mode = StorageMode::kOff;
  ExecOptions stats_off;
  stats_off.stats_mode = StatsMode::kOff;
  for (const ExecOptions& exec : {on, storage_off, stats_off}) {
    auto compiled = engine.Compile(
        R"(for $d in collection("/disk") return $d("v"))", RuleOptions::All(),
        exec);
    ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
    auto out = engine.Execute(*compiled, exec);
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    EXPECT_EQ(out->items.size(), 3u);
  }
  std::remove(path.c_str());
}

TEST(NdjsonTest, MissingDiskFileReportsIOError) {
  Engine engine;
  Collection c;
  c.files.push_back(JsonFile::FromPath("/nonexistent/nowhere.json"));
  engine.catalog()->RegisterCollection("/disk", std::move(c));
  auto out = engine.Run(R"(for $d in collection("/disk") return $d)");
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kIOError);
}

TEST(NdjsonTest, MalformedFileFailsQueryCleanly) {
  Engine engine;
  Collection c;
  c.files.push_back(JsonFile::FromText("{\"ok\": 1}"));
  c.files.push_back(JsonFile::FromText("{\"broken\":"));
  engine.catalog()->RegisterCollection("/c", std::move(c));
  auto out = engine.Run(R"(for $d in collection("/c") return $d)");
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kParseError);
}

}  // namespace
}  // namespace jpar
