#ifndef JPAR_JSONIQ_AST_H_
#define JPAR_JSONIQ_AST_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "json/item.h"

namespace jpar {

struct AstNode;
using AstPtr = std::shared_ptr<AstNode>;

/// One FLWOR clause. `bindings` carries (variable name, expression)
/// pairs for for/let/group-by; `cond` carries the where predicate;
/// order-by keys live in `bindings` (empty names) with a parallel
/// `descending` flag per key.
struct FlworClause {
  enum class Type : uint8_t { kFor, kLet, kWhere, kGroupBy, kOrderBy };

  Type type = Type::kFor;
  std::vector<std::pair<std::string, AstPtr>> bindings;
  std::vector<uint8_t> descending;  // kOrderBy, parallel to bindings
  AstPtr cond;
};

/// Abstract syntax of the JSONiq subset. One node type with
/// kind-dependent fields (the translator pattern-matches on kinds).
struct AstNode {
  enum class Kind : uint8_t {
    kLiteral,       // literal
    kVarRef,        // name
    kFunctionCall,  // name(args...)
    kDynCall,       // args[0](args[1]) value step, or args[0]() when
                    // args.size() == 1 (keys-or-members)
    kBinaryOp,      // name in {eq,ne,lt,le,gt,ge,and,or,add,sub,mul,div,mod}
    kUnaryMinus,    // -args[0]
    kFlwor,         // clauses + return_expr
    kArrayCtor,     // [args...]
    kObjectCtor,    // {k1: v1, ...}: args alternate key-expr, value-expr
    kSequence,      // (args...): comma operator, a flat sequence
  };

  Kind kind = Kind::kLiteral;
  Item literal;
  std::string name;
  std::vector<AstPtr> args;
  std::vector<FlworClause> clauses;  // kFlwor
  AstPtr return_expr;                // kFlwor

  static AstPtr Literal(Item value) {
    auto n = std::make_shared<AstNode>();
    n->kind = Kind::kLiteral;
    n->literal = std::move(value);
    return n;
  }
  static AstPtr Var(std::string name) {
    auto n = std::make_shared<AstNode>();
    n->kind = Kind::kVarRef;
    n->name = std::move(name);
    return n;
  }
  static AstPtr Call(std::string name, std::vector<AstPtr> args) {
    auto n = std::make_shared<AstNode>();
    n->kind = Kind::kFunctionCall;
    n->name = std::move(name);
    n->args = std::move(args);
    return n;
  }
  static AstPtr Binary(std::string op, AstPtr lhs, AstPtr rhs) {
    auto n = std::make_shared<AstNode>();
    n->kind = Kind::kBinaryOp;
    n->name = std::move(op);
    n->args = {std::move(lhs), std::move(rhs)};
    return n;
  }
};

/// True if the subtree references variable `name` (ignores shadowing —
/// fine for the paper's query shapes, where names are unique).
bool AstUsesVar(const AstPtr& node, const std::string& name);

}  // namespace jpar

#endif  // JPAR_JSONIQ_AST_H_
