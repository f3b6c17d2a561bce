#include "jsoniq/translator.h"

#include <map>
#include <utility>

namespace jpar {

namespace {

/// Builtins accepted as named function calls in queries.
Result<Builtin> LookupFunction(const std::string& name) {
  static const std::pair<const char*, Builtin> kTable[] = {
      {"count", Builtin::kCount},
      {"sum", Builtin::kSum},
      {"avg", Builtin::kAvg},
      {"min", Builtin::kMin},
      {"max", Builtin::kMax},
      {"not", Builtin::kNot},
      {"data", Builtin::kData},
      {"dateTime", Builtin::kDateTime},
      {"year-from-dateTime", Builtin::kYearFromDateTime},
      {"month-from-dateTime", Builtin::kMonthFromDateTime},
      {"day-from-dateTime", Builtin::kDayFromDateTime},
      {"collection", Builtin::kCollection},
      {"json-doc", Builtin::kJsonDoc},
      {"keys-or-members", Builtin::kKeysOrMembers},
      {"concat", Builtin::kConcat},
      {"substring", Builtin::kSubstring},
      {"string-length", Builtin::kStringLength},
      {"contains", Builtin::kContains},
      {"starts-with", Builtin::kStartsWith},
      {"upper-case", Builtin::kUpperCase},
      {"lower-case", Builtin::kLowerCase},
      {"string", Builtin::kStringFn},
      {"abs", Builtin::kAbs},
      {"round", Builtin::kRound},
      {"floor", Builtin::kFloor},
      {"ceiling", Builtin::kCeiling},
      {"empty", Builtin::kEmpty},
      {"exists", Builtin::kExists},
      {"distinct-values", Builtin::kDistinctValues},
      {"boolean", Builtin::kBooleanFn},
  };
  for (const auto& [n, fn] : kTable) {
    if (name == n) return fn;
  }
  return Status::Unsupported("unknown function: " + name);
}

Result<Builtin> LookupBinaryOp(const std::string& name) {
  static const std::pair<const char*, Builtin> kTable[] = {
      {"eq", Builtin::kEq},   {"ne", Builtin::kNe},  {"lt", Builtin::kLt},
      {"le", Builtin::kLe},   {"gt", Builtin::kGt},  {"ge", Builtin::kGe},
      {"and", Builtin::kAnd}, {"or", Builtin::kOr},  {"add", Builtin::kAdd},
      {"sub", Builtin::kSub}, {"mul", Builtin::kMul}, {"div", Builtin::kDiv},
      {"mod", Builtin::kMod},
  };
  for (const auto& [n, fn] : kTable) {
    if (name == n) return fn;
  }
  return Status::Internal("unknown binary operator: " + name);
}

bool IsAggregateName(const std::string& name) {
  return name == "count" || name == "sum" || name == "avg" ||
         name == "min" || name == "max";
}

AggKind AggKindForName(const std::string& name) {
  if (name == "count") return AggKind::kCount;
  if (name == "sum") return AggKind::kSum;
  if (name == "avg") return AggKind::kAvg;
  if (name == "min") return AggKind::kMin;
  return AggKind::kMax;
}

class Translator {
 public:
  Result<LogicalPlan> Translate(const AstPtr& query) {
    cur_ = MakeOp(LOpKind::kEmptyTupleSource);
    VarId result = kNoVar;
    if (query->kind == AstNode::Kind::kFlwor) {
      JPAR_ASSIGN_OR_RETURN(result, TranslateFlworIntoChain(query));
    } else {
      JPAR_ASSIGN_OR_RETURN(result, TranslateTopExpr(query));
    }
    auto distribute = MakeOp(LOpKind::kDistributeResult);
    distribute->result_var = result;
    distribute->inputs.push_back(cur_);
    LogicalPlan plan;
    plan.root = distribute;
    return plan;
  }

 private:
  struct Binding {
    VarId var = kNoVar;
    bool grouped = false;      // var holds a group-by sequence
    VarId treat_var = kNoVar;  // cached ASSIGN treat output
  };

  static LOpPtr MakeOp(LOpKind kind) {
    auto op = std::make_shared<LOp>();
    op->kind = kind;
    return op;
  }

  VarId NewVar() { return next_var_++; }

  /// Appends a unary operator above the current chain top.
  void Append(LOpPtr op) {
    op->inputs.push_back(cur_);
    cur_ = std::move(op);
  }

  VarId EmitAssign(LExprPtr expr) {
    auto assign = MakeOp(LOpKind::kAssign);
    assign->out_var = NewVar();
    assign->expr = std::move(expr);
    VarId var = assign->out_var;
    Append(std::move(assign));
    return var;
  }

  VarId EmitUnnestIterate(LExprPtr expr) {
    auto unnest = MakeOp(LOpKind::kUnnest);
    unnest->out_var = NewVar();
    unnest->expr = LExpr::Fn(Builtin::kIterate, {std::move(expr)});
    VarId var = unnest->out_var;
    Append(std::move(unnest));
    return var;
  }

  /// Resolves a variable by name; grouped variables are re-exposed via
  /// a cached ASSIGN treat (paper Fig. 9).
  Result<VarId> ResolveVar(const std::string& name) {
    auto it = env_.find(name);
    if (it == env_.end()) {
      return Status::NotFound("unbound variable $" + name);
    }
    Binding& b = it->second;
    if (!b.grouped) return b.var;
    if (b.treat_var == kNoVar) {
      auto assign = MakeOp(LOpKind::kAssign);
      assign->out_var = NewVar();
      assign->expr = LExpr::Fn(Builtin::kTreat, {LExpr::Var(b.var)});
      b.treat_var = assign->out_var;
      Append(std::move(assign));
    }
    return b.treat_var;
  }

  /// True when the expression never reads in-scope variables (so it can
  /// run as an independent join branch).
  bool IsIndependent(const AstPtr& ast) const {
    for (const auto& [name, binding] : env_) {
      (void)binding;
      if (AstUsesVar(ast, name)) return false;
    }
    return true;
  }

  /// Translates a for-clause source and returns the variable bound per
  /// iteration, following the paper's naive shapes.
  Result<VarId> TranslateForSource(const AstPtr& ast) {
    // Decompose the DynCall spine into base + navigation steps.
    std::vector<const AstNode*> steps;  // outermost first
    const AstNode* node = ast.get();
    while (node->kind == AstNode::Kind::kDynCall) {
      steps.push_back(node);
      node = node->args[0].get();
    }
    std::reverse(steps.begin(), steps.end());

    // Translate the base into a current pending expression.
    LExprPtr pending;
    bool ends_with_unnest = false;
    if (node->kind == AstNode::Kind::kFunctionCall &&
        node->name == "collection") {
      if (node->args.size() != 1) {
        return Status::InvalidArgument("collection() takes one argument");
      }
      JPAR_ASSIGN_OR_RETURN(LExprPtr arg, TranslateScalar(node->args[0]));
      VarId c = EmitAssign(LExpr::Fn(Builtin::kCollection, {std::move(arg)}));
      VarId f = EmitUnnestIterate(LExpr::Var(c));
      pending = LExpr::Var(f);
      ends_with_unnest = true;
    } else if (node->kind == AstNode::Kind::kFunctionCall &&
               node->name == "json-doc") {
      if (node->args.size() != 1) {
        return Status::InvalidArgument("json-doc() takes one argument");
      }
      JPAR_ASSIGN_OR_RETURN(LExprPtr arg, TranslateScalar(node->args[0]));
      // Paper Fig. 3: promote/data ensure the argument is a string.
      pending = LExpr::Fn(
          Builtin::kJsonDoc,
          {LExpr::Fn(Builtin::kPromote,
                     {LExpr::Fn(Builtin::kData, {std::move(arg)})})});
    } else if (node->kind == AstNode::Kind::kVarRef) {
      JPAR_ASSIGN_OR_RETURN(VarId v, ResolveVar(node->name));
      pending = LExpr::Var(v);
    } else {
      // Arbitrary expression source.
      AstPtr base = steps.empty()
                        ? ast
                        : std::const_pointer_cast<AstNode>(
                              std::shared_ptr<const AstNode>(ast, node));
      JPAR_ASSIGN_OR_RETURN(pending, TranslateScalar(base));
    }

    // Apply navigation steps.
    for (const AstNode* step : steps) {
      if (step->args.size() == 1) {
        // keys-or-members: the paper's two-step form (ASSIGN + UNNEST).
        VarId s = EmitAssign(
            LExpr::Fn(Builtin::kKeysOrMembers, {std::move(pending)}));
        VarId u = EmitUnnestIterate(LExpr::Var(s));
        pending = LExpr::Var(u);
        ends_with_unnest = true;
      } else {
        JPAR_ASSIGN_OR_RETURN(LExprPtr spec, TranslateScalar(step->args[1]));
        pending =
            LExpr::Fn(Builtin::kValue, {std::move(pending), std::move(spec)});
        ends_with_unnest = false;
      }
    }

    if (ends_with_unnest && pending->IsVarRef()) {
      return pending->var;
    }
    // Bind via a final iterate so the for iterates the path's value.
    if (!pending->IsVarRef()) {
      VarId a = EmitAssign(std::move(pending));
      pending = LExpr::Var(a);
    }
    return EmitUnnestIterate(std::move(pending));
  }

  /// Translates FLWOR clauses into the current chain and returns the
  /// result variable of the return expression.
  Result<VarId> TranslateFlworIntoChain(const AstPtr& flwor) {
    for (size_t ci = 0; ci < flwor->clauses.size(); ++ci) {
      const FlworClause& clause = flwor->clauses[ci];
      switch (clause.type) {
        case FlworClause::Type::kFor: {
          for (const auto& [name, source] : clause.bindings) {
            if (has_source_ && IsIndependent(source) &&
                ReadsDataSource(source)) {
              // Independent data source: a join branch (Q2).
              LOpPtr saved = cur_;
              cur_ = MakeOp(LOpKind::kEmptyTupleSource);
              JPAR_ASSIGN_OR_RETURN(VarId v, TranslateForSource(source));
              LOpPtr branch = cur_;
              auto join = MakeOp(LOpKind::kJoin);
              join->inputs.push_back(saved);
              join->inputs.push_back(branch);
              cur_ = join;
              env_[name] = Binding{v, false, kNoVar};
            } else {
              JPAR_ASSIGN_OR_RETURN(VarId v, TranslateForSource(source));
              env_[name] = Binding{v, false, kNoVar};
            }
            if (ReadsDataSource(source)) has_source_ = true;
          }
          break;
        }
        case FlworClause::Type::kLet: {
          for (const auto& [name, value] : clause.bindings) {
            JPAR_ASSIGN_OR_RETURN(LExprPtr e, TranslateScalar(value));
            VarId v = EmitAssign(std::move(e));
            env_[name] = Binding{v, false, kNoVar};
          }
          break;
        }
        case FlworClause::Type::kWhere: {
          JPAR_ASSIGN_OR_RETURN(LExprPtr e, TranslateScalar(clause.cond));
          auto select = MakeOp(LOpKind::kSelect);
          select->expr = std::move(e);
          Append(std::move(select));
          break;
        }
        case FlworClause::Type::kGroupBy: {
          JPAR_RETURN_NOT_OK(TranslateGroupBy(flwor, ci));
          break;
        }
        case FlworClause::Type::kOrderBy: {
          auto orderby = MakeOp(LOpKind::kOrderBy);
          for (const auto& [unused, key_expr] : clause.bindings) {
            (void)unused;
            JPAR_ASSIGN_OR_RETURN(LExprPtr e, TranslateScalar(key_expr));
            orderby->keys.push_back({kNoVar, std::move(e)});
          }
          orderby->sort_descending = clause.descending;
          Append(std::move(orderby));
          break;
        }
      }
    }
    // Return expression.
    JPAR_ASSIGN_OR_RETURN(LExprPtr e, TranslateScalar(flwor->return_expr));
    if (e->IsVarRef()) return e->var;
    return EmitAssign(std::move(e));
  }

  Status TranslateGroupBy(const AstPtr& flwor, size_t clause_index) {
    const FlworClause& clause = flwor->clauses[clause_index];
    auto groupby = MakeOp(LOpKind::kGroupBy);

    // Grouping keys evaluate in the pre-grouping scope.
    std::vector<std::pair<std::string, VarId>> key_bindings;
    for (const auto& [name, key_expr] : clause.bindings) {
      JPAR_ASSIGN_OR_RETURN(LExprPtr e, TranslateScalar(key_expr));
      VarId kv = NewVar();
      groupby->keys.push_back({kv, std::move(e)});
      key_bindings.emplace_back(name, kv);
    }

    // Variables still needed afterwards are materialized into per-group
    // sequences (paper Fig. 9: AGGREGATE sequence).
    auto nts = MakeOp(LOpKind::kNestedTupleSource);
    auto aggregate = MakeOp(LOpKind::kAggregate);
    aggregate->inputs.push_back(nts);

    std::map<std::string, Binding> new_env;
    for (auto& [name, binding] : env_) {
      bool used_later = AstUsesVar(flwor->return_expr, name);
      for (size_t cj = clause_index + 1;
           !used_later && cj < flwor->clauses.size(); ++cj) {
        const FlworClause& later = flwor->clauses[cj];
        if (AstUsesVar(later.cond, name)) used_later = true;
        for (const auto& [n2, e2] : later.bindings) {
          (void)n2;
          if (AstUsesVar(e2, name)) used_later = true;
        }
      }
      if (!used_later) continue;
      VarId seq = NewVar();
      aggregate->aggs.push_back(
          {seq, AggKind::kSequence, LExpr::Var(binding.var)});
      new_env[name] = Binding{seq, true, kNoVar};
    }
    groupby->nested = aggregate;
    for (const auto& [name, kv] : key_bindings) {
      new_env[name] = Binding{kv, false, kNoVar};
    }
    env_ = std::move(new_env);
    Append(std::move(groupby));
    return Status::OK();
  }

  /// True when the AST reads collection()/json-doc() somewhere.
  static bool ReadsDataSource(const AstPtr& ast) {
    if (ast == nullptr) return false;
    if (ast->kind == AstNode::Kind::kFunctionCall &&
        (ast->name == "collection" || ast->name == "json-doc")) {
      return true;
    }
    for (const AstPtr& a : ast->args) {
      if (ReadsDataSource(a)) return true;
    }
    for (const FlworClause& c : ast->clauses) {
      if (ReadsDataSource(c.cond)) return true;
      for (const auto& [n, e] : c.bindings) {
        (void)n;
        if (ReadsDataSource(e)) return true;
      }
    }
    return ReadsDataSource(ast->return_expr);
  }

  /// Scalar translation: produces an expression over the current schema;
  /// may append ASSIGN treat / SUBPLAN operators to the chain.
  Result<LExprPtr> TranslateScalar(const AstPtr& ast) {
    switch (ast->kind) {
      case AstNode::Kind::kLiteral:
        return LExpr::Constant(ast->literal);
      case AstNode::Kind::kVarRef: {
        JPAR_ASSIGN_OR_RETURN(VarId v, ResolveVar(ast->name));
        return LExpr::Var(v);
      }
      case AstNode::Kind::kDynCall: {
        JPAR_ASSIGN_OR_RETURN(LExprPtr target, TranslateScalar(ast->args[0]));
        if (ast->args.size() == 1) {
          return LExpr::Fn(Builtin::kKeysOrMembers, {std::move(target)});
        }
        JPAR_ASSIGN_OR_RETURN(LExprPtr spec, TranslateScalar(ast->args[1]));
        return LExpr::Fn(Builtin::kValue,
                         {std::move(target), std::move(spec)});
      }
      case AstNode::Kind::kBinaryOp: {
        JPAR_ASSIGN_OR_RETURN(Builtin fn, LookupBinaryOp(ast->name));
        JPAR_ASSIGN_OR_RETURN(LExprPtr lhs, TranslateScalar(ast->args[0]));
        JPAR_ASSIGN_OR_RETURN(LExprPtr rhs, TranslateScalar(ast->args[1]));
        return LExpr::Fn(fn, {std::move(lhs), std::move(rhs)});
      }
      case AstNode::Kind::kUnaryMinus: {
        JPAR_ASSIGN_OR_RETURN(LExprPtr inner, TranslateScalar(ast->args[0]));
        return LExpr::Fn(Builtin::kNeg, {std::move(inner)});
      }
      case AstNode::Kind::kArrayCtor: {
        std::vector<LExprPtr> elems;
        for (const AstPtr& a : ast->args) {
          JPAR_ASSIGN_OR_RETURN(LExprPtr e, TranslateScalar(a));
          elems.push_back(std::move(e));
        }
        return LExpr::Fn(Builtin::kArrayConstructor, std::move(elems));
      }
      case AstNode::Kind::kSequence: {
        std::vector<LExprPtr> items;
        for (const AstPtr& a : ast->args) {
          JPAR_ASSIGN_OR_RETURN(LExprPtr e, TranslateScalar(a));
          items.push_back(std::move(e));
        }
        return LExpr::Fn(Builtin::kSequenceConstructor, std::move(items));
      }
      case AstNode::Kind::kObjectCtor: {
        std::vector<LExprPtr> kv;
        for (const AstPtr& a : ast->args) {
          JPAR_ASSIGN_OR_RETURN(LExprPtr e, TranslateScalar(a));
          kv.push_back(std::move(e));
        }
        return LExpr::Fn(Builtin::kObjectConstructor, std::move(kv));
      }
      case AstNode::Kind::kFunctionCall: {
        if (IsAggregateName(ast->name) && ast->args.size() == 1 &&
            ast->args[0]->kind == AstNode::Kind::kFlwor) {
          return TranslateAggregateOverFlwor(ast->name, ast->args[0]);
        }
        JPAR_ASSIGN_OR_RETURN(Builtin fn, LookupFunction(ast->name));
        std::vector<LExprPtr> args;
        for (const AstPtr& a : ast->args) {
          JPAR_ASSIGN_OR_RETURN(LExprPtr e, TranslateScalar(a));
          args.push_back(std::move(e));
        }
        return LExpr::Fn(fn, std::move(args));
      }
      case AstNode::Kind::kFlwor:
        return Status::Unsupported(
            "FLWOR expressions are supported at the top level, inside "
            "aggregate functions, and as for-sources only");
    }
    return Status::Internal("unknown AST node kind");
  }

  /// agg(for $j in $x ... return E) in scalar position: a SUBPLAN with
  /// a nested UNNEST + AGGREGATE (paper Fig. 11 / query Q1b).
  Result<LExprPtr> TranslateAggregateOverFlwor(const std::string& agg_name,
                                               const AstPtr& flwor) {
    if (!flwor->clauses.empty() &&
        flwor->clauses[0].type == FlworClause::Type::kFor &&
        IsIndependent(flwor->clauses[0].bindings[0].second)) {
      return Status::Unsupported(
          "aggregates over independent FLWORs are supported at the top "
          "level only");
    }
    LOpPtr saved = cur_;
    cur_ = MakeOp(LOpKind::kNestedTupleSource);
    // Nested clauses run per outer tuple.
    for (const FlworClause& clause : flwor->clauses) {
      switch (clause.type) {
        case FlworClause::Type::kFor:
          for (const auto& [name, source] : clause.bindings) {
            JPAR_ASSIGN_OR_RETURN(VarId v, TranslateForSource(source));
            env_[name] = Binding{v, false, kNoVar};
          }
          break;
        case FlworClause::Type::kLet:
          for (const auto& [name, value] : clause.bindings) {
            JPAR_ASSIGN_OR_RETURN(LExprPtr e, TranslateScalar(value));
            VarId v = EmitAssign(std::move(e));
            env_[name] = Binding{v, false, kNoVar};
          }
          break;
        case FlworClause::Type::kWhere: {
          JPAR_ASSIGN_OR_RETURN(LExprPtr e, TranslateScalar(clause.cond));
          auto select = MakeOp(LOpKind::kSelect);
          select->expr = std::move(e);
          Append(std::move(select));
          break;
        }
        case FlworClause::Type::kGroupBy:
          return Status::Unsupported("group by inside nested aggregates");
        case FlworClause::Type::kOrderBy:
          // Ordering inside an aggregate is a no-op (aggregates are
          // order-insensitive); skip it.
          break;
      }
    }
    JPAR_ASSIGN_OR_RETURN(LExprPtr ret, TranslateScalar(flwor->return_expr));
    auto aggregate = MakeOp(LOpKind::kAggregate);
    VarId out = NewVar();
    aggregate->aggs.push_back({out, AggKindForName(agg_name), std::move(ret)});
    aggregate->inputs.push_back(cur_);

    auto subplan = MakeOp(LOpKind::kSubplan);
    subplan->nested = aggregate;
    cur_ = saved;
    Append(std::move(subplan));
    return LExpr::Var(out);
  }

  /// Top-level non-FLWOR queries: either a streaming path expression
  /// (paper Listing 2) or an aggregate over an independent FLWOR (Q2).
  Result<VarId> TranslateTopExpr(const AstPtr& ast) {
    // Aggregate over an independent FLWOR, possibly inside arithmetic:
    // translate the FLWOR into the main chain and a global AGGREGATE.
    if (ast->kind == AstNode::Kind::kFunctionCall &&
        IsAggregateName(ast->name) && ast->args.size() == 1 &&
        ast->args[0]->kind == AstNode::Kind::kFlwor) {
      const AstPtr& flwor = ast->args[0];
      LOpPtr before = cur_;
      (void)before;
      // Translate clauses and return expression into the main chain.
      AstPtr inner = flwor;
      std::vector<FlworClause> clauses = inner->clauses;
      auto shell = std::make_shared<AstNode>();
      shell->kind = AstNode::Kind::kFlwor;
      shell->clauses = std::move(clauses);
      shell->return_expr = inner->return_expr;
      JPAR_ASSIGN_OR_RETURN(VarId row, TranslateFlworIntoChain(shell));
      auto aggregate = MakeOp(LOpKind::kAggregate);
      VarId out = NewVar();
      aggregate->aggs.push_back(
          {out, AggKindForName(ast->name), LExpr::Var(row)});
      Append(std::move(aggregate));
      return out;
    }
    if (ast->kind == AstNode::Kind::kBinaryOp ||
        ast->kind == AstNode::Kind::kUnaryMinus) {
      // Arithmetic wrapper around an aggregate (Q2's `avg(...) div 10`):
      // translate children, then combine.
      std::vector<LExprPtr> parts;
      for (const AstPtr& a : ast->args) {
        if (a->kind == AstNode::Kind::kFunctionCall &&
            IsAggregateName(a->name) && a->args.size() == 1 &&
            a->args[0]->kind == AstNode::Kind::kFlwor) {
          JPAR_ASSIGN_OR_RETURN(VarId v, TranslateTopExpr(a));
          parts.push_back(LExpr::Var(v));
        } else {
          JPAR_ASSIGN_OR_RETURN(LExprPtr e, TranslateScalar(a));
          parts.push_back(std::move(e));
        }
      }
      LExprPtr combined;
      if (ast->kind == AstNode::Kind::kUnaryMinus) {
        combined = LExpr::Fn(Builtin::kNeg, {parts[0]});
      } else {
        JPAR_ASSIGN_OR_RETURN(Builtin fn, LookupBinaryOp(ast->name));
        combined = LExpr::Fn(fn, {parts[0], parts[1]});
      }
      return EmitAssign(std::move(combined));
    }
    if (ast->kind == AstNode::Kind::kDynCall) {
      // Streaming path expression (paper Listing 2 / Fig. 3): each
      // selected item is distributed separately.
      return TranslateForSource(ast);
    }
    JPAR_ASSIGN_OR_RETURN(LExprPtr e, TranslateScalar(ast));
    if (e->IsVarRef()) return e->var;
    return EmitAssign(std::move(e));
  }

  VarId next_var_ = 0;
  LOpPtr cur_;
  std::map<std::string, Binding> env_;
  bool has_source_ = false;
};

}  // namespace

Result<LogicalPlan> TranslateToLogical(const AstPtr& query) {
  if (query == nullptr) {
    return Status::InvalidArgument("empty query");
  }
  Translator translator;
  return translator.Translate(query);
}

}  // namespace jpar
