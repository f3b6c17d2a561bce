#include "jsoniq/parser.h"

#include <gtest/gtest.h>

namespace jpar {
namespace {

AstPtr Parse(std::string_view q) {
  auto ast = ParseQuery(q);
  EXPECT_TRUE(ast.ok()) << q << " -> " << ast.status().ToString();
  return ast.ok() ? *ast : nullptr;
}

TEST(JsoniqParserTest, Literals) {
  EXPECT_EQ(Parse("42")->literal, Item::Int64(42));
  EXPECT_EQ(Parse("2.5")->literal, Item::Double(2.5));
  EXPECT_EQ(Parse("\"hi\"")->literal, Item::String("hi"));
  EXPECT_EQ(Parse("true")->literal, Item::Boolean(true));
  EXPECT_EQ(Parse("null")->literal, Item::Null());
}

TEST(JsoniqParserTest, NegativeLiteralIsUnaryMinus) {
  AstPtr ast = Parse("-5");
  ASSERT_EQ(ast->kind, AstNode::Kind::kUnaryMinus);
  EXPECT_EQ(ast->args[0]->literal, Item::Int64(5));
}

TEST(JsoniqParserTest, FunctionCallsAndDynCalls) {
  AstPtr ast = Parse(R"(collection("/books")("bookstore")("book")())");
  // Outermost: keys-or-members dyncall (1 arg).
  ASSERT_EQ(ast->kind, AstNode::Kind::kDynCall);
  ASSERT_EQ(ast->args.size(), 1u);
  // Next: ("book") value step.
  const AstPtr& book = ast->args[0];
  ASSERT_EQ(book->kind, AstNode::Kind::kDynCall);
  ASSERT_EQ(book->args.size(), 2u);
  EXPECT_EQ(book->args[1]->literal, Item::String("book"));
  // Base: collection("/books") function call.
  const AstPtr& base = book->args[0]->args[0];
  ASSERT_EQ(base->kind, AstNode::Kind::kFunctionCall);
  EXPECT_EQ(base->name, "collection");
}

TEST(JsoniqParserTest, OperatorPrecedence) {
  // a + b * c parses as a + (b * c)
  AstPtr ast = Parse("1 + 2 * 3");
  ASSERT_EQ(ast->kind, AstNode::Kind::kBinaryOp);
  EXPECT_EQ(ast->name, "add");
  EXPECT_EQ(ast->args[1]->name, "mul");

  // comparison binds looser than arithmetic
  ast = Parse("1 + 2 eq 3");
  EXPECT_EQ(ast->name, "eq");
  EXPECT_EQ(ast->args[0]->name, "add");

  // and/or lowest; or looser than and
  ast = Parse("1 eq 1 and 2 eq 2 or 3 eq 3");
  EXPECT_EQ(ast->name, "or");
  EXPECT_EQ(ast->args[0]->name, "and");
}

TEST(JsoniqParserTest, SymbolicComparators) {
  EXPECT_EQ(Parse("1 = 2")->name, "eq");
  EXPECT_EQ(Parse("1 != 2")->name, "ne");
  EXPECT_EQ(Parse("1 < 2")->name, "lt");
  EXPECT_EQ(Parse("1 <= 2")->name, "le");
  EXPECT_EQ(Parse("1 > 2")->name, "gt");
  EXPECT_EQ(Parse("1 >= 2")->name, "ge");
}

TEST(JsoniqParserTest, DivAndMod) {
  EXPECT_EQ(Parse("6 div 2")->name, "div");
  EXPECT_EQ(Parse("6 mod 4")->name, "mod");
}

TEST(JsoniqParserTest, FlworClauses) {
  AstPtr ast = Parse(R"(
    for $x in collection("/c"), $y in $x("list")()
    let $v := $y("value")
    where $v gt 3
    group by $k := $y("key")
    return count($x("t")))");
  ASSERT_EQ(ast->kind, AstNode::Kind::kFlwor);
  ASSERT_EQ(ast->clauses.size(), 4u);
  EXPECT_EQ(ast->clauses[0].type, FlworClause::Type::kFor);
  EXPECT_EQ(ast->clauses[0].bindings.size(), 2u);
  EXPECT_EQ(ast->clauses[0].bindings[0].first, "x");
  EXPECT_EQ(ast->clauses[1].type, FlworClause::Type::kLet);
  EXPECT_EQ(ast->clauses[2].type, FlworClause::Type::kWhere);
  EXPECT_EQ(ast->clauses[3].type, FlworClause::Type::kGroupBy);
  EXPECT_EQ(ast->clauses[3].bindings[0].first, "k");
  ASSERT_NE(ast->return_expr, nullptr);
}

TEST(JsoniqParserTest, InterleavedForAndLet) {
  AstPtr ast = Parse(R"(
    for $x in collection("/c")
    let $a := $x("a")
    for $y in $x("list")()
    return $y)");
  ASSERT_EQ(ast->clauses.size(), 3u);
  EXPECT_EQ(ast->clauses[0].type, FlworClause::Type::kFor);
  EXPECT_EQ(ast->clauses[1].type, FlworClause::Type::kLet);
  EXPECT_EQ(ast->clauses[2].type, FlworClause::Type::kFor);
}

TEST(JsoniqParserTest, NestedFlworInsideFunction) {
  AstPtr ast = Parse(R"(count(for $j in $x return $j("title")))");
  ASSERT_EQ(ast->kind, AstNode::Kind::kFunctionCall);
  EXPECT_EQ(ast->name, "count");
  ASSERT_EQ(ast->args[0]->kind, AstNode::Kind::kFlwor);
}

TEST(JsoniqParserTest, Constructors) {
  AstPtr arr = Parse("[1, 2, 3]");
  ASSERT_EQ(arr->kind, AstNode::Kind::kArrayCtor);
  EXPECT_EQ(arr->args.size(), 3u);
  AstPtr empty = Parse("[]");
  EXPECT_TRUE(empty->args.empty());
  AstPtr obj = Parse(R"({"a": 1, "b": [2]})");
  ASSERT_EQ(obj->kind, AstNode::Kind::kObjectCtor);
  EXPECT_EQ(obj->args.size(), 4u);  // alternating key, value
}

TEST(JsoniqParserTest, ParenthesesGroup) {
  AstPtr ast = Parse("(1 + 2) * 3");
  EXPECT_EQ(ast->name, "mul");
  EXPECT_EQ(ast->args[0]->name, "add");
}

TEST(JsoniqParserTest, ParenthesizedSequences) {
  AstPtr three = Parse("count((1,2,3))");
  ASSERT_EQ(three->kind, AstNode::Kind::kFunctionCall);
  const AstPtr& seq = three->args[0];
  ASSERT_EQ(seq->kind, AstNode::Kind::kSequence);
  ASSERT_EQ(seq->args.size(), 3u);
  EXPECT_EQ(seq->args[2]->literal, Item::Int64(3));

  AstPtr loop = Parse("for $i in (1, 2, 3) return $i");
  ASSERT_EQ(loop->kind, AstNode::Kind::kFlwor);
  EXPECT_EQ(loop->clauses[0].bindings[0].second->kind,
            AstNode::Kind::kSequence);

  AstPtr empty = Parse("count(())");
  EXPECT_EQ(empty->args[0]->literal, Item::EmptySequence());
  // A single parenthesized expression is still just a group.
  EXPECT_EQ(Parse("(7)")->literal, Item::Int64(7));
  EXPECT_FALSE(ParseQuery("(1, 2").ok());
  EXPECT_FALSE(ParseQuery("(1,)").ok());
}

TEST(JsoniqParserTest, AllPaperQueriesParse) {
  const char* queries[] = {
      R"(json-doc("books.json")("bookstore")("book")())",
      R"(collection("/books")("bookstore")("book")())",
      R"(for $x in collection("/books")("bookstore")("book")()
         group by $author := $x("author") return count($x("title")))",
      R"(for $x in collection("/books")("bookstore")("book")()
         group by $author := $x("author")
         return count(for $j in $x return $j("title")))",
      R"(for $r in collection("/sensors")("root")()("results")()
         let $datetime := dateTime(data($r("date")))
         where year-from-dateTime($datetime) ge 2003
           and month-from-dateTime($datetime) eq 12
           and day-from-dateTime($datetime) eq 25
         return $r)",
      R"(avg(for $r_min in collection("/sensors")("root")()("results")()
             for $r_max in collection("/sensors")("root")()("results")()
             where $r_min("station") eq $r_max("station")
               and $r_min("date") eq $r_max("date")
               and $r_min("dataType") eq "TMIN"
               and $r_max("dataType") eq "TMAX"
             return $r_max("value") - $r_min("value")) div 10)",
  };
  for (const char* q : queries) {
    EXPECT_TRUE(ParseQuery(q).ok()) << q;
  }
}

TEST(JsoniqParserTest, SyntaxErrors) {
  const char* bad[] = {
      "",
      "for",
      "for $x return $x",          // missing 'in'
      "for $x in 1",               // missing return
      "let $x = 1 return $x",      // '=' is eq, not bind
      "group by $k := 1 return 1", // group-by without for
      "1 +",
      "count(",
      "[1, 2",
      R"({"a" 1})",
      "for $x in 1 return $x extra",
      "$",
  };
  for (const char* q : bad) {
    EXPECT_FALSE(ParseQuery(q).ok()) << "accepted: " << q;
  }
}

TEST(JsoniqParserTest, AstUsesVarSeesAllPositions) {
  AstPtr ast = Parse(R"(
    for $x in collection("/c")
    where $x("a") eq 1
    return count(for $j in $x return $j))");
  EXPECT_TRUE(AstUsesVar(ast, "x"));
  EXPECT_TRUE(AstUsesVar(ast, "j"));
  EXPECT_FALSE(AstUsesVar(ast, "z"));
}

}  // namespace
}  // namespace jpar
