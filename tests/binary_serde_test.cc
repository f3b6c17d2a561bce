#include "json/binary_serde.h"

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "json/parser.h"

namespace jpar {
namespace {

void ExpectRoundTrip(const Item& item) {
  std::string binary = SerializeItem(item);
  auto back = DeserializeItem(binary);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_TRUE(item.Equals(*back)) << item.ToJsonString();
  // Kind must be preserved exactly (not just value equality).
  EXPECT_EQ(item.kind(), back->kind());
}

TEST(BinarySerdeTest, Scalars) {
  ExpectRoundTrip(Item::Null());
  ExpectRoundTrip(Item::Boolean(true));
  ExpectRoundTrip(Item::Boolean(false));
  ExpectRoundTrip(Item::Int64(0));
  ExpectRoundTrip(Item::Int64(-1));
  ExpectRoundTrip(Item::Int64(INT64_MAX));
  ExpectRoundTrip(Item::Int64(INT64_MIN));
  ExpectRoundTrip(Item::Double(3.14159));
  ExpectRoundTrip(Item::Double(-0.0));
  ExpectRoundTrip(Item::String(""));
  ExpectRoundTrip(Item::String("hello world"));
  ExpectRoundTrip(Item::String(std::string(100000, 'x')));
}

TEST(BinarySerdeTest, DateTime) {
  ExpectRoundTrip(Item::DateTime({2013, 12, 25, 1, 2, 3}));
  ExpectRoundTrip(Item::DateTime({-44, 3, 15, 0, 0, 0}));  // negative year
}

TEST(BinarySerdeTest, Structures) {
  ExpectRoundTrip(Item::MakeArray({}));
  ExpectRoundTrip(Item::MakeObject({}));
  ExpectRoundTrip(Item::EmptySequence());
  ExpectRoundTrip(Item::MakeArray(
      {Item::Int64(1), Item::String("a"),
       Item::MakeObject({{"k", Item::Null()}})}));
  ExpectRoundTrip(Item::MakeSequence({Item::Int64(1), Item::Int64(2)}));
}

TEST(BinarySerdeTest, ComplexDocumentRoundTrip) {
  auto doc = ParseJson(R"({
    "root": [
      {"metadata": {"count": 2}, "values": [1.5, -2, "s", null, true]},
      {"empty": {}, "list": []}
    ]
  })");
  ASSERT_TRUE(doc.ok());
  ExpectRoundTrip(*doc);
}

TEST(BinarySerdeTest, VarintBoundaries) {
  // Strings of lengths around varint byte boundaries.
  for (size_t len : {0u, 1u, 127u, 128u, 129u, 16383u, 16384u}) {
    ExpectRoundTrip(Item::String(std::string(len, 'v')));
  }
  for (int64_t v : {63ll, 64ll, -64ll, -65ll, 8191ll, -8192ll}) {
    ExpectRoundTrip(Item::Int64(v));
  }
}

TEST(BinarySerdeTest, ZigZagEncoding) {
  EXPECT_EQ(ItemWriter::ZigZag(0), 0u);
  EXPECT_EQ(ItemWriter::ZigZag(-1), 1u);
  EXPECT_EQ(ItemWriter::ZigZag(1), 2u);
  EXPECT_EQ(ItemReader::UnZigZag(ItemWriter::ZigZag(-123456789)),
            -123456789);
  EXPECT_EQ(ItemReader::UnZigZag(ItemWriter::ZigZag(INT64_MIN)), INT64_MIN);
}

TEST(BinarySerdeTest, TruncatedInputsFailCleanly) {
  Item item = Item::MakeObject(
      {{"a", Item::MakeArray({Item::Int64(1), Item::String("xyz")})}});
  std::string binary = SerializeItem(item);
  for (size_t cut = 0; cut < binary.size(); ++cut) {
    auto result = DeserializeItem(binary.substr(0, cut));
    EXPECT_FALSE(result.ok()) << "cut at " << cut;
  }
}

TEST(BinarySerdeTest, TrailingBytesRejected) {
  std::string binary = SerializeItem(Item::Int64(7));
  binary.push_back('\0');
  EXPECT_FALSE(DeserializeItem(binary).ok());
}

TEST(BinarySerdeTest, EmptyInputRejected) {
  EXPECT_FALSE(DeserializeItem("").ok());
}

TEST(BinarySerdeTest, UnknownTagRejected) {
  std::string bad(1, static_cast<char>(0x7F));
  EXPECT_FALSE(DeserializeItem(bad).ok());
}

TEST(BinarySerdeTest, BinaryIsCompacterThanJsonForNumbers) {
  Item::ItemVector numbers;
  for (int i = 0; i < 1000; ++i) numbers.push_back(Item::Int64(i));
  Item arr = Item::MakeArray(std::move(numbers));
  EXPECT_LT(SerializeItem(arr).size(), arr.ToJsonString().size());
}

// ---------------------------------------------------------------------
// The walkers: Skip and ScanObjectFields against Read
// ---------------------------------------------------------------------

/// A random item of every kind, nesting at most `depth` more levels.
/// Keys come from a small alphabet so objects repeat them.
Item RandomItem(std::mt19937* rng, int depth) {
  auto pick = [&](int n) {
    return static_cast<int>(std::uniform_int_distribution<int>(0, n - 1)(*rng));
  };
  const int kind = pick(depth > 0 ? 9 : 6);
  switch (kind) {
    case 0:
      return Item::Null();
    case 1:
      return Item::Boolean(pick(2) == 1);
    case 2:
      return Item::Int64(static_cast<int64_t>((*rng)()) *
                         (pick(2) == 1 ? 1 : -997));
    case 3:
      return Item::Double(std::uniform_real_distribution<double>(-1e6,
                                                                 1e6)(*rng));
    case 4:
      return Item::String(std::string(static_cast<size_t>(pick(140)),
                                      static_cast<char>('a' + pick(26))));
    case 5:
      return Item::DateTime({1990 + pick(30), static_cast<int8_t>(1 + pick(12)),
                             static_cast<int8_t>(1 + pick(28)), 0, 0, 0});
    case 6:
    case 7: {
      Item::Object fields;
      for (int i = pick(6); i > 0; --i) {
        fields.push_back({std::string(1, static_cast<char>('k' + pick(4))),
                          RandomItem(rng, depth - 1)});
      }
      return Item::MakeObject(std::move(fields));
    }
    default: {
      Item::ItemVector elems;
      for (int i = pick(5); i > 0; --i) {
        elems.push_back(RandomItem(rng, depth - 1));
      }
      return pick(4) == 0 ? Item::MakeSequence(std::move(elems))
                          : Item::MakeArray(std::move(elems));
    }
  }
}

struct Walk {
  Status status;
  size_t end = 0;
};

Walk ReadWalk(std::string_view bytes) {
  ItemReader reader(bytes);
  Result<Item> item = reader.Read();
  return {item.status(), reader.position()};
}

Walk SkipWalk(std::string_view bytes) {
  ItemReader reader(bytes);
  Status st = reader.Skip();
  return {st, reader.position()};
}

/// Skip, and ScanObjectFields on an object, succeed or fail exactly as
/// Read does, with the same status; on success they end where it ends.
void ExpectWalksAgree(std::string_view bytes, const std::string& what) {
  const Walk read = ReadWalk(bytes);
  const Walk skip = SkipWalk(bytes);
  ASSERT_EQ(skip.status.ToString(), read.status.ToString()) << what;
  if (read.status.ok()) {
    ASSERT_EQ(skip.end, read.end) << what;
  }
  if (bytes.empty() ||
      static_cast<ItemKind>(bytes[0]) != ItemKind::kObject) {
    return;
  }
  ItemReader reader(bytes);
  std::vector<std::string_view> spans;
  Status scan = reader.ScanObjectFields({"k", "m"}, &spans);
  ASSERT_EQ(scan.ToString(), read.status.ToString()) << what;
  if (read.status.ok()) {
    ASSERT_EQ(reader.position(), read.end) << what;
  }
}

TEST(BinarySerdeTest, SkipAndFieldScanAgreeWithReadUnderMutation) {
  std::mt19937 rng(20240);
  int failures_seen = 0;
  for (int round = 0; round < 2000; ++round) {
    const Item item = RandomItem(&rng, 4);
    const std::string bytes = SerializeItem(item);
    ExpectWalksAgree(bytes, "clean round " + std::to_string(round));
    for (int m = 0; m < 12; ++m) {
      std::string mutated = bytes;
      const size_t at = std::uniform_int_distribution<size_t>(
          0, mutated.size() - 1)(rng);
      switch (m % 3) {
        case 0:  // flip one bit
          mutated[at] = static_cast<char>(mutated[at] ^ (1 << (rng() % 8)));
          break;
        case 1:  // overwrite a byte (often a tag or a varint)
          mutated[at] = static_cast<char>(rng());
          break;
        case 2:  // truncate
          mutated.resize(at);
          break;
      }
      if (!ReadWalk(mutated).status.ok()) ++failures_seen;
      ExpectWalksAgree(mutated, "round " + std::to_string(round) +
                                    " mutation " + std::to_string(m));
    }
  }
  // The loop reaches the error paths, not only clean decodes.
  EXPECT_GT(failures_seen, 2000);
}

TEST(BinarySerdeTest, SkipHonorsTheDepthCap) {
  // The innermost value of `levels` nested arrays sits at depth
  // `levels`; 512 is the deepest Read accepts.
  for (int levels : {511, 512, 513, 600}) {
    SCOPED_TRACE(levels);
    Item deep = Item::Int64(1);
    for (int i = 0; i < levels; ++i) deep = Item::MakeArray({deep});
    const std::string bytes = SerializeItem(deep);
    const Walk read = ReadWalk(bytes);
    EXPECT_EQ(read.status.ok(), levels <= 512);
    if (!read.status.ok()) {
      EXPECT_NE(read.status.message().find("too deeply nested"),
                std::string::npos);
    }
    const Walk skip = SkipWalk(bytes);
    EXPECT_EQ(skip.status.ToString(), read.status.ToString());
    if (read.status.ok()) {
      EXPECT_EQ(skip.end, read.end);
    }
  }
}

TEST(BinarySerdeTest, FieldScanPicksTheFirstDuplicateAsGetFieldDoes) {
  std::mt19937 rng(7);
  for (int round = 0; round < 300; ++round) {
    Item item = RandomItem(&rng, 3);
    if (!item.is_object()) continue;
    const std::string bytes = SerializeItem(item);
    const std::vector<std::string> keys = {"k", "l", "m", "n", "absent"};
    ItemReader reader(bytes);
    std::vector<std::string_view> spans;
    ASSERT_TRUE(reader.ScanObjectFields(keys, &spans).ok());
    EXPECT_TRUE(reader.AtEnd());
    ASSERT_EQ(spans.size(), keys.size());
    for (size_t i = 0; i < keys.size(); ++i) {
      const Item* field = item.FindField(keys[i]);
      if (field == nullptr) {
        EXPECT_TRUE(spans[i].empty()) << keys[i];
        continue;
      }
      EXPECT_EQ(spans[i], SerializeItem(*field)) << keys[i];
    }
  }
  const Item dup = Item::MakeObject({{"a", Item::Int64(1)},
                                     {"b", Item::String("x")},
                                     {"a", Item::Int64(2)}});
  const std::string bytes = SerializeItem(dup);
  ItemReader reader(bytes);
  std::vector<std::string_view> spans;
  ASSERT_TRUE(reader.ScanObjectFields({"a"}, &spans).ok());
  auto first = DeserializeItem(spans[0]);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(*first, Item::Int64(1));
  EXPECT_EQ(*first, *dup.GetField("a"));
}

TEST(BinarySerdeTest, FieldScanRejectsNonObjects) {
  for (const Item& item : {Item::Int64(3), Item::String("{"),
                           Item::MakeArray({Item::MakeObject({})})}) {
    const std::string bytes = SerializeItem(item);
    ItemReader reader(bytes);
    std::vector<std::string_view> spans;
    EXPECT_FALSE(reader.ScanObjectFields({"a"}, &spans).ok());
  }
  ItemReader empty("");
  std::vector<std::string_view> spans;
  EXPECT_FALSE(empty.ScanObjectFields({"a"}, &spans).ok());
}

}  // namespace
}  // namespace jpar
