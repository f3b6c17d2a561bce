#include "jsoniq/parser.h"

#include <utility>

#include "jsoniq/lexer.h"

namespace jpar {

namespace {

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<AstPtr> Parse() {
    JPAR_ASSIGN_OR_RETURN(AstPtr expr, ParseExpr());
    if (Peek().kind != TokenKind::kEnd) {
      return ErrorHere("trailing tokens after query");
    }
    return expr;
  }

 private:
  const Token& Peek(size_t ahead = 0) const {
    size_t i = pos_ + ahead;
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }
  const Token& Advance() { return tokens_[pos_++]; }
  bool Consume(TokenKind kind) {
    if (Peek().kind == kind) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool ConsumeName(std::string_view name) {
    if (Peek().IsName(name)) {
      ++pos_;
      return true;
    }
    return false;
  }
  Status ErrorHere(const std::string& msg) const {
    return Status::ParseError(msg + " at offset " +
                              std::to_string(Peek().offset));
  }

  Result<AstPtr> ParseExpr() {
    if (Peek().IsName("for") || Peek().IsName("let")) return ParseFlwor();
    return ParseOrExpr();
  }

  Result<AstPtr> ParseFlwor() {
    auto flwor = std::make_shared<AstNode>();
    flwor->kind = AstNode::Kind::kFlwor;
    // for / let clauses, possibly interleaved.
    while (true) {
      if (ConsumeName("for")) {
        FlworClause clause;
        clause.type = FlworClause::Type::kFor;
        do {
          if (Peek().kind != TokenKind::kVariable) {
            return ErrorHere("expected $variable after 'for'");
          }
          std::string var = Advance().text;
          if (!ConsumeName("in")) return ErrorHere("expected 'in'");
          JPAR_ASSIGN_OR_RETURN(AstPtr src, ParseExpr());
          clause.bindings.emplace_back(std::move(var), std::move(src));
        } while (Consume(TokenKind::kComma));
        flwor->clauses.push_back(std::move(clause));
        continue;
      }
      if (ConsumeName("let")) {
        FlworClause clause;
        clause.type = FlworClause::Type::kLet;
        do {
          if (Peek().kind != TokenKind::kVariable) {
            return ErrorHere("expected $variable after 'let'");
          }
          std::string var = Advance().text;
          if (!Consume(TokenKind::kBind)) return ErrorHere("expected ':='");
          JPAR_ASSIGN_OR_RETURN(AstPtr value, ParseExpr());
          clause.bindings.emplace_back(std::move(var), std::move(value));
        } while (Consume(TokenKind::kComma));
        flwor->clauses.push_back(std::move(clause));
        continue;
      }
      break;
    }
    if (ConsumeName("where")) {
      FlworClause clause;
      clause.type = FlworClause::Type::kWhere;
      JPAR_ASSIGN_OR_RETURN(clause.cond, ParseExpr());
      flwor->clauses.push_back(std::move(clause));
    }
    if (ConsumeName("group")) {
      if (!ConsumeName("by")) return ErrorHere("expected 'by' after 'group'");
      FlworClause clause;
      clause.type = FlworClause::Type::kGroupBy;
      do {
        if (Peek().kind != TokenKind::kVariable) {
          return ErrorHere("expected $variable in group by");
        }
        std::string var = Advance().text;
        if (!Consume(TokenKind::kBind)) return ErrorHere("expected ':='");
        JPAR_ASSIGN_OR_RETURN(AstPtr key, ParseExpr());
        clause.bindings.emplace_back(std::move(var), std::move(key));
      } while (Consume(TokenKind::kComma));
      flwor->clauses.push_back(std::move(clause));
    }
    // A where clause may also follow group by (post-grouping filter).
    if (ConsumeName("where")) {
      FlworClause clause;
      clause.type = FlworClause::Type::kWhere;
      JPAR_ASSIGN_OR_RETURN(clause.cond, ParseExpr());
      flwor->clauses.push_back(std::move(clause));
    }
    if (Peek().IsName("order") || Peek().IsName("stable")) {
      ConsumeName("stable");
      if (!ConsumeName("order") || !ConsumeName("by")) {
        return ErrorHere("expected 'order by'");
      }
      FlworClause clause;
      clause.type = FlworClause::Type::kOrderBy;
      do {
        JPAR_ASSIGN_OR_RETURN(AstPtr key, ParseExpr());
        bool desc = false;
        if (ConsumeName("descending")) {
          desc = true;
        } else {
          ConsumeName("ascending");
        }
        clause.bindings.emplace_back(std::string(), std::move(key));
        clause.descending.push_back(desc ? 1 : 0);
      } while (Consume(TokenKind::kComma));
      flwor->clauses.push_back(std::move(clause));
    }
    if (!ConsumeName("return")) return ErrorHere("expected 'return'");
    JPAR_ASSIGN_OR_RETURN(flwor->return_expr, ParseExpr());
    return AstPtr(flwor);
  }

  Result<AstPtr> ParseOrExpr() {
    JPAR_ASSIGN_OR_RETURN(AstPtr lhs, ParseAndExpr());
    while (Peek().IsName("or")) {
      Advance();
      JPAR_ASSIGN_OR_RETURN(AstPtr rhs, ParseAndExpr());
      lhs = AstNode::Binary("or", std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  Result<AstPtr> ParseAndExpr() {
    JPAR_ASSIGN_OR_RETURN(AstPtr lhs, ParseCmpExpr());
    while (Peek().IsName("and")) {
      Advance();
      JPAR_ASSIGN_OR_RETURN(AstPtr rhs, ParseCmpExpr());
      lhs = AstNode::Binary("and", std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  Result<AstPtr> ParseCmpExpr() {
    JPAR_ASSIGN_OR_RETURN(AstPtr lhs, ParseAddExpr());
    std::string op;
    const Token& t = Peek();
    if (t.IsName("eq") || t.IsName("ne") || t.IsName("lt") || t.IsName("le") ||
        t.IsName("gt") || t.IsName("ge")) {
      op = t.text;
    } else {
      switch (t.kind) {
        case TokenKind::kEq:
          op = "eq";
          break;
        case TokenKind::kNe:
          op = "ne";
          break;
        case TokenKind::kLt:
          op = "lt";
          break;
        case TokenKind::kLe:
          op = "le";
          break;
        case TokenKind::kGt:
          op = "gt";
          break;
        case TokenKind::kGe:
          op = "ge";
          break;
        default:
          return lhs;
      }
    }
    Advance();
    JPAR_ASSIGN_OR_RETURN(AstPtr rhs, ParseAddExpr());
    return AstNode::Binary(op, std::move(lhs), std::move(rhs));
  }

  Result<AstPtr> ParseAddExpr() {
    JPAR_ASSIGN_OR_RETURN(AstPtr lhs, ParseMulExpr());
    while (true) {
      if (Consume(TokenKind::kPlus)) {
        JPAR_ASSIGN_OR_RETURN(AstPtr rhs, ParseMulExpr());
        lhs = AstNode::Binary("add", std::move(lhs), std::move(rhs));
      } else if (Consume(TokenKind::kMinus)) {
        JPAR_ASSIGN_OR_RETURN(AstPtr rhs, ParseMulExpr());
        lhs = AstNode::Binary("sub", std::move(lhs), std::move(rhs));
      } else {
        return lhs;
      }
    }
  }

  Result<AstPtr> ParseMulExpr() {
    JPAR_ASSIGN_OR_RETURN(AstPtr lhs, ParseUnaryExpr());
    while (true) {
      if (Consume(TokenKind::kStar)) {
        JPAR_ASSIGN_OR_RETURN(AstPtr rhs, ParseUnaryExpr());
        lhs = AstNode::Binary("mul", std::move(lhs), std::move(rhs));
      } else if (ConsumeName("div")) {
        JPAR_ASSIGN_OR_RETURN(AstPtr rhs, ParseUnaryExpr());
        lhs = AstNode::Binary("div", std::move(lhs), std::move(rhs));
      } else if (ConsumeName("mod")) {
        JPAR_ASSIGN_OR_RETURN(AstPtr rhs, ParseUnaryExpr());
        lhs = AstNode::Binary("mod", std::move(lhs), std::move(rhs));
      } else {
        return lhs;
      }
    }
  }

  Result<AstPtr> ParseUnaryExpr() {
    if (Consume(TokenKind::kMinus)) {
      JPAR_ASSIGN_OR_RETURN(AstPtr inner, ParseUnaryExpr());
      auto n = std::make_shared<AstNode>();
      n->kind = AstNode::Kind::kUnaryMinus;
      n->args.push_back(std::move(inner));
      return AstPtr(n);
    }
    return ParsePostfixExpr();
  }

  Result<AstPtr> ParsePostfixExpr() {
    JPAR_ASSIGN_OR_RETURN(AstPtr primary, ParsePrimary());
    while (Peek().kind == TokenKind::kLParen) {
      Advance();
      auto call = std::make_shared<AstNode>();
      call->kind = AstNode::Kind::kDynCall;
      call->args.push_back(std::move(primary));
      if (!Consume(TokenKind::kRParen)) {
        JPAR_ASSIGN_OR_RETURN(AstPtr spec, ParseExpr());
        call->args.push_back(std::move(spec));
        if (!Consume(TokenKind::kRParen)) {
          return ErrorHere("expected ')' after navigation step");
        }
      }
      primary = call;
    }
    return primary;
  }

  Result<AstPtr> ParsePrimary() {
    const Token& t = Peek();
    switch (t.kind) {
      case TokenKind::kString: {
        Advance();
        return AstNode::Literal(Item::String(t.text));
      }
      case TokenKind::kInteger: {
        Advance();
        return AstNode::Literal(Item::Int64(t.int_value));
      }
      case TokenKind::kDouble: {
        Advance();
        return AstNode::Literal(Item::Double(t.double_value));
      }
      case TokenKind::kVariable: {
        Advance();
        return AstNode::Var(t.text);
      }
      case TokenKind::kLParen: {
        // "()" is the empty sequence, "(e)" is e, and "(e1, e2, ...)"
        // is the comma operator: the items of e1, then of e2, ...
        Advance();
        if (Consume(TokenKind::kRParen)) {
          return AstNode::Literal(Item::EmptySequence());
        }
        JPAR_ASSIGN_OR_RETURN(AstPtr inner, ParseExpr());
        if (Consume(TokenKind::kRParen)) return inner;
        if (Peek().kind != TokenKind::kComma) return ErrorHere("expected ')'");
        auto seq = std::make_shared<AstNode>();
        seq->kind = AstNode::Kind::kSequence;
        seq->args.push_back(std::move(inner));
        while (Consume(TokenKind::kComma)) {
          JPAR_ASSIGN_OR_RETURN(AstPtr item, ParseExpr());
          seq->args.push_back(std::move(item));
        }
        if (!Consume(TokenKind::kRParen)) return ErrorHere("expected ')'");
        return AstPtr(seq);
      }
      case TokenKind::kLBracket: {
        Advance();
        auto ctor = std::make_shared<AstNode>();
        ctor->kind = AstNode::Kind::kArrayCtor;
        if (!Consume(TokenKind::kRBracket)) {
          do {
            JPAR_ASSIGN_OR_RETURN(AstPtr elem, ParseExpr());
            ctor->args.push_back(std::move(elem));
          } while (Consume(TokenKind::kComma));
          if (!Consume(TokenKind::kRBracket)) {
            return ErrorHere("expected ']'");
          }
        }
        return AstPtr(ctor);
      }
      case TokenKind::kLBrace: {
        Advance();
        auto ctor = std::make_shared<AstNode>();
        ctor->kind = AstNode::Kind::kObjectCtor;
        if (!Consume(TokenKind::kRBrace)) {
          do {
            JPAR_ASSIGN_OR_RETURN(AstPtr key, ParseExpr());
            if (!Consume(TokenKind::kColon)) return ErrorHere("expected ':'");
            JPAR_ASSIGN_OR_RETURN(AstPtr value, ParseExpr());
            ctor->args.push_back(std::move(key));
            ctor->args.push_back(std::move(value));
          } while (Consume(TokenKind::kComma));
          if (!Consume(TokenKind::kRBrace)) return ErrorHere("expected '}'");
        }
        return AstPtr(ctor);
      }
      case TokenKind::kName: {
        // Literals true/false/null, or a function call.
        if (t.IsName("true") && Peek(1).kind != TokenKind::kLParen) {
          Advance();
          return AstNode::Literal(Item::Boolean(true));
        }
        if (t.IsName("false") && Peek(1).kind != TokenKind::kLParen) {
          Advance();
          return AstNode::Literal(Item::Boolean(false));
        }
        if (t.IsName("null") && Peek(1).kind != TokenKind::kLParen) {
          Advance();
          return AstNode::Literal(Item::Null());
        }
        if (Peek(1).kind != TokenKind::kLParen) {
          return ErrorHere("unexpected name '" + t.text + "'");
        }
        std::string name = Advance().text;
        Advance();  // '('
        std::vector<AstPtr> args;
        if (!Consume(TokenKind::kRParen)) {
          do {
            JPAR_ASSIGN_OR_RETURN(AstPtr arg, ParseExpr());
            args.push_back(std::move(arg));
          } while (Consume(TokenKind::kComma));
          if (!Consume(TokenKind::kRParen)) {
            return ErrorHere("expected ')' after function arguments");
          }
        }
        return AstNode::Call(std::move(name), std::move(args));
      }
      default:
        return ErrorHere("unexpected token");
    }
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
};

}  // namespace

bool AstUsesVar(const AstPtr& node, const std::string& name) {
  if (node == nullptr) return false;
  if (node->kind == AstNode::Kind::kVarRef) return node->name == name;
  for (const AstPtr& a : node->args) {
    if (AstUsesVar(a, name)) return true;
  }
  for (const FlworClause& c : node->clauses) {
    if (AstUsesVar(c.cond, name)) return true;
    for (const auto& [var, expr] : c.bindings) {
      if (AstUsesVar(expr, name)) return true;
    }
  }
  return AstUsesVar(node->return_expr, name);
}

Result<AstPtr> ParseQuery(std::string_view query) {
  JPAR_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(query));
  Parser parser(std::move(tokens));
  return parser.Parse();
}

}  // namespace jpar
