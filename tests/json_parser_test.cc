#include "json/parser.h"

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "json/structural_index.h"

namespace jpar {
namespace {

TEST(JsonParserTest, Scalars) {
  EXPECT_EQ(*ParseJson("null"), Item::Null());
  EXPECT_EQ(*ParseJson("true"), Item::Boolean(true));
  EXPECT_EQ(*ParseJson("false"), Item::Boolean(false));
  EXPECT_EQ(*ParseJson("42"), Item::Int64(42));
  EXPECT_EQ(*ParseJson("-7"), Item::Int64(-7));
  EXPECT_EQ(*ParseJson("2.5"), Item::Double(2.5));
  EXPECT_EQ(*ParseJson("1e3"), Item::Double(1000.0));
  EXPECT_EQ(*ParseJson("\"hi\""), Item::String("hi"));
}

TEST(JsonParserTest, IntegerOverflowBecomesDouble) {
  auto item = ParseJson("99999999999999999999999");
  ASSERT_TRUE(item.ok());
  EXPECT_TRUE(item->is_double());
}

TEST(JsonParserTest, StringEscapes) {
  EXPECT_EQ(ParseJson(R"("a\"b\\c\/d\n\t\r\b\f")")->string_value(),
            "a\"b\\c/d\n\t\r\b\f");
  EXPECT_EQ(ParseJson(R"("Aé中")")->string_value(),
            "A\xC3\xA9\xE4\xB8\xAD");
}

TEST(JsonParserTest, NestedStructures) {
  auto item = ParseJson(R"({"a": [1, {"b": null}, []], "c": {}})");
  ASSERT_TRUE(item.ok());
  // GetField returns optional<Item> by value; copy it out rather than
  // binding a reference into the expiring temporary.
  const Item a = *item->GetField("a");
  ASSERT_TRUE(a.is_array());
  ASSERT_EQ(a.array().size(), 3u);
  EXPECT_EQ(*a.array()[1].GetField("b"), Item::Null());
  EXPECT_TRUE(a.array()[2].array().empty());
  EXPECT_TRUE(item->GetField("c")->object().empty());
}

TEST(JsonParserTest, WhitespaceTolerance) {
  auto item = ParseJson(" \n\t{ \"a\" :\r 1 , \"b\" : [ 2 ] } \n");
  ASSERT_TRUE(item.ok());
  EXPECT_EQ(*item->GetField("a"), Item::Int64(1));
}

TEST(JsonParserTest, PreservesKeyOrder) {
  auto item = ParseJson(R"({"z": 1, "a": 2, "m": 3})");
  ASSERT_TRUE(item.ok());
  EXPECT_EQ(item->object()[0].key, "z");
  EXPECT_EQ(item->object()[1].key, "a");
  EXPECT_EQ(item->object()[2].key, "m");
}

TEST(JsonParserTest, RejectsMalformedDocuments) {
  for (const char* bad :
       {"", "{", "}", "[", "]", "{\"a\"}", "{\"a\":}", "{\"a\":1,}",
        "[1,]", "[1 2]", "tru", "nul", "+1", "1.", "\"unterminated",
        "{\"a\":1}}", "[1]extra", "01e", "{'a':1}", "\"bad\\escape q\""}) {
    auto result = ParseJson(bad);
    if (std::string(bad) == "\"bad\\escape q\"") continue;  // see below
    EXPECT_FALSE(result.ok()) << "accepted: " << bad;
  }
  // Unknown escapes are rejected.
  EXPECT_FALSE(ParseJson("\"\\q\"").ok());
}

TEST(JsonParserTest, DepthLimitGuardsStack) {
  std::string deep(1000, '[');
  deep += std::string(1000, ']');
  auto result = ParseJson(deep);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kParseError);
}

TEST(JsonParserTest, RoundTripThroughSerializer) {
  const char* docs[] = {
      R"({"a":1,"b":[true,null,2.5],"c":{"d":"x"}})",
      R"([[],{},[{}],""])",
      R"({"n":-123456789,"s":"A"})",
  };
  for (const char* doc : docs) {
    auto item = ParseJson(doc);
    ASSERT_TRUE(item.ok()) << doc;
    auto again = ParseJson(item->ToJsonString());
    ASSERT_TRUE(again.ok()) << item->ToJsonString();
    EXPECT_TRUE(item->Equals(*again)) << doc;
  }
}

TEST(JsonParserTest, SkipValueMatchesParseExtent) {
  // SkipValue must consume exactly the bytes ParseValue would.
  const char* docs[] = {
      "{\"a\": [1, 2, {\"b\": \"x\"}]} tail",
      "[null, true, 1.5e2] tail",
      "\"str\\\"ing\" tail",
      "12345 tail",
  };
  for (const char* doc : docs) {
    JsonCursor parse_cursor(doc);
    ASSERT_TRUE(parse_cursor.ParseValue().ok());
    JsonCursor skip_cursor(doc);
    ASSERT_TRUE(skip_cursor.SkipValue().ok());
    EXPECT_EQ(parse_cursor.position(), skip_cursor.position()) << doc;
  }
}

// The scan filter (projecting_reader.h) drops an atomic record on
// ValidateValue's word, then resumes after it; so on every atomic value
// ValidateValue and ParseValue must succeed or fail together, with the
// same status, and stop at the same byte — with and without a
// structural index.
void ExpectAtomicWalksAgree(const std::string& text, const char* which) {
  const StructuralIndex index = StructuralIndex::Build(text);
  for (const StructuralIndex* idx : {static_cast<const StructuralIndex*>(
                                         nullptr),
                                     &index}) {
    SCOPED_TRACE(std::string(which) + (idx != nullptr ? " indexed" : "") +
                 " | " + text);
    JsonCursor parse = idx != nullptr ? JsonCursor(text, idx)
                                      : JsonCursor(text);
    JsonCursor validate = idx != nullptr ? JsonCursor(text, idx)
                                         : JsonCursor(text);
    const Result<Item> parsed = parse.ParseValue();
    const Status validated = validate.ValidateValue();
    ASSERT_EQ(validated.ToString(), parsed.status().ToString());
    if (parsed.ok()) ASSERT_EQ(validate.position(), parse.position());
  }
}

TEST(JsonParserTest, ValidateValueAgreesWithParseValueOnAtomicsUnderMutation) {
  const std::vector<std::string> seeds = {
      R"("20031225T00:00")", R"("2003-12-25")", R"("")", R"("plain")",
      R"("q\"uote")", R"("back\\slash")", R"("s\/l")",
      R"("\b\f\n\r\t")", R"("\u0041\u00e9\u4e2d")",
      R"("2003-12-2\u0035")", R"("\ud83d\ude00")", R"("\ud800 alone")",
      R"("\udc00")", R"("\q bad")", R"("\u12g4")", R"("trunc\u00")",
      "0", "-0", "7", "-12", "1.5", "-0.25", "1e5", "1E+5", "2e-3",
      "-1.5e-3", "9223372036854775807", "9223372036854775808",
      "-9223372036854775808", "-9223372036854775809", "1e400", "-1e-400",
      "00", "01", "-01.5", "true", "false", "null",
  };
  // Suffixes put the value where the filter meets it: alone, before a
  // record separator, or inside an object or array.
  const char* suffixes[] = {"", " ", "\n{\"date\":1}\n", ",\"k\":2}", "]",
                            "x", "\"", "\\", "e5", ".5"};
  // Bytes a mutation writes: JSON punctuation, escape and number
  // characters, and a few outsiders.
  const std::string alphabet = "\"\\/bfnrtu0123456789abcdefABCDEF-+.eE "
                               "\t\n:,{}[]xlsq\x01\x7f\xc3\xa9";
  std::mt19937 rng(2311);
  auto pick = [&rng](size_t n) {
    return std::uniform_int_distribution<size_t>(0, n - 1)(rng);
  };
  int checked = 0;
  int failures = 0;
  for (int round = 0; round < 400; ++round) {
    for (const std::string& seed : seeds) {
      std::string value = seed;
      const int edits = 1 + static_cast<int>(pick(3));
      for (int e = 0; e < edits && !value.empty(); ++e) {
        const size_t at = pick(value.size());
        switch (pick(5)) {
          case 0:  // flip one bit
            value[at] = static_cast<char>(value[at] ^ (1 << pick(8)));
            break;
          case 1:  // overwrite a byte
            value[at] = alphabet[pick(alphabet.size())];
            break;
          case 2:  // truncate
            value.resize(at);
            break;
          case 3:  // insert a byte
            value.insert(at, 1, alphabet[pick(alphabet.size())]);
            break;
          case 4:  // insert an escape
            value.insert(at, std::string("\\") +
                                 alphabet[pick(alphabet.size())]);
            break;
        }
      }
      // Atomic values only: the filter builds objects and arrays.
      const size_t first = value.find_first_not_of(" \t\n\r");
      if (first != std::string::npos &&
          (value[first] == '{' || value[first] == '[')) {
        continue;
      }
      const std::string text = value + suffixes[pick(std::size(suffixes))];
      ExpectAtomicWalksAgree(text, "mutated");
      if (::testing::Test::HasFatalFailure()) return;
      ++checked;
      if (!JsonCursor(text).ParseValue().ok()) ++failures;
    }
  }
  for (const std::string& seed : seeds) {
    for (const char* suffix : suffixes) {
      ExpectAtomicWalksAgree(seed + suffix, "seed");
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
  // The loop reaches the error paths as often as the clean ones.
  EXPECT_GT(failures, checked / 4);
  EXPECT_LT(failures, checked * 3 / 4);
}

}  // namespace
}  // namespace jpar
