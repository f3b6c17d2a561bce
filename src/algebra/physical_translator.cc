#include "algebra/physical_translator.h"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace jpar {

namespace {

/// Variable -> column positions of the tuples flowing at some plan
/// point.
using Schema = std::vector<VarId>;

int ColumnOf(const Schema& schema, VarId var) {
  for (size_t i = 0; i < schema.size(); ++i) {
    if (schema[i] == var) return static_cast<int>(i);
  }
  return -1;
}

Result<ScalarEvalPtr> CompileExpr(const LExprPtr& expr,
                                  const Schema& schema) {
  if (expr == nullptr) return Status::Internal("compiling a null expression");
  switch (expr->kind) {
    case LExpr::Kind::kConstant:
      return MakeConstantEval(expr->constant);
    case LExpr::Kind::kVarRef: {
      int col = ColumnOf(schema, expr->var);
      if (col < 0) {
        return Status::Internal("unbound variable " + VarName(expr->var) +
                                " during physical translation");
      }
      return MakeColumnEval(col);
    }
    case LExpr::Kind::kFunction: {
      std::vector<ScalarEvalPtr> args;
      args.reserve(expr->args.size());
      for (const LExprPtr& a : expr->args) {
        JPAR_ASSIGN_OR_RETURN(ScalarEvalPtr ev, CompileExpr(a, schema));
        args.push_back(std::move(ev));
      }
      return MakeFunctionEval(expr->fn, std::move(args));
    }
  }
  return Status::Internal("unknown expression kind");
}

struct NodeAndSchema {
  std::shared_ptr<PNode> node;
  Schema schema;
  /// Trusted cardinality estimate flowing at this plan point, or -1.
  /// Only ever set from stats the CostModel trusts, so downstream
  /// decisions (build side, spill fanout) inherit that trust.
  double est_rows = -1;
};

std::string FmtRows(double rows) {
  if (rows < 0) return "?";
  return std::to_string(static_cast<long long>(rows + 0.5));
}

std::string FmtSel(double sel) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", sel);
  return buf;
}

/// Records the zone-map comparison (DESIGN.md §14) when the pipeline's
/// only op is a SELECT comparing the scan's output column against a
/// numeric constant (either argument order), normalized so the
/// executor's columnar access path can prune whole blocks by their
/// min/max zone maps.
void AnnotateZonePredicate(PNode* node) {
  if (node->ops.size() != 1) return;
  const ScalarEval* ev = node->ops.front().eval.get();
  if (ev == nullptr || ev->shape() != ScalarEval::Shape::kFunction) return;
  Builtin fn = ev->shape_function();
  if (fn != Builtin::kEq && fn != Builtin::kLt && fn != Builtin::kLe &&
      fn != Builtin::kGt && fn != Builtin::kGe) {
    return;
  }
  const std::vector<ScalarEvalPtr>* args = ev->shape_args();
  if (args == nullptr || args->size() != 2) return;
  const ScalarEval* lhs = (*args)[0].get();
  const ScalarEval* rhs = (*args)[1].get();
  // Normalize to column <op> constant; a constant on the left flips
  // the comparison direction (c < x  ==  x > c).
  bool flipped = false;
  if (lhs->shape() == ScalarEval::Shape::kConstant &&
      rhs->shape() == ScalarEval::Shape::kColumn) {
    std::swap(lhs, rhs);
    flipped = true;
  }
  if (lhs->shape() != ScalarEval::Shape::kColumn ||
      rhs->shape() != ScalarEval::Shape::kConstant) {
    return;
  }
  // The scan's output is the leaf pipeline's only column.
  if (lhs->shape_column() != 0) return;
  const Item* constant = rhs->shape_constant();
  if (constant == nullptr || !constant->is_numeric()) return;
  // Beyond 2^53 an int64 constant rounds when widened to double and
  // the zone-map comparison would no longer be exact — skip.
  constexpr double kMaxExactInt = 9007199254740992.0;
  if (constant->is_int64() && (constant->int64_value() > kMaxExactInt ||
                               constant->int64_value() < -kMaxExactInt)) {
    return;
  }
  ZoneCompare op = ZoneCompare::kNone;
  switch (fn) {
    case Builtin::kEq:
      op = ZoneCompare::kEq;
      break;
    case Builtin::kLt:
      op = flipped ? ZoneCompare::kGt : ZoneCompare::kLt;
      break;
    case Builtin::kLe:
      op = flipped ? ZoneCompare::kGe : ZoneCompare::kLe;
      break;
    case Builtin::kGt:
      op = flipped ? ZoneCompare::kLt : ZoneCompare::kGt;
      break;
    case Builtin::kGe:
      op = flipped ? ZoneCompare::kLe : ZoneCompare::kGe;
      break;
    default:
      return;
  }
  node->scan.zone_op = op;
  node->scan.zone_value = constant->AsDouble();
}

/// How a scan filter's prefix reads column 0, the scanned item:
/// through value($col0, "k") for each k in `keys`, and/or `whole`, as
/// the item itself.
struct FilterReads {
  std::vector<std::string> keys;
  bool whole = false;
};

/// Adds to *reads every way `ev` reads column 0: the field k of each
/// value($col0, "k") (deduplicated), and any other use of the column.
/// False when `ev` is opaque or reads a data source
/// (collection()/json-doc() are not pure).
bool CollectFilterReads(const ScalarEval& ev, FilterReads* reads) {
  switch (ev.shape()) {
    case ScalarEval::Shape::kConstant:
      return true;
    case ScalarEval::Shape::kColumn:
      if (ev.shape_column() == 0) reads->whole = true;
      return true;
    case ScalarEval::Shape::kOpaque:
      return false;
    case ScalarEval::Shape::kFunction:
      break;
  }
  const Builtin fn = ev.shape_function();
  if (fn == Builtin::kCollection || fn == Builtin::kJsonDoc) return false;
  const std::vector<ScalarEvalPtr>& args = *ev.shape_args();
  if (fn == Builtin::kValue && args.size() == 2 &&
      args[0]->shape() == ScalarEval::Shape::kColumn &&
      args[0]->shape_column() == 0) {
    const Item* key = args[1]->shape_constant();
    if (key == nullptr || !key->is_string()) return false;
    std::vector<std::string>& keys = reads->keys;
    if (std::find(keys.begin(), keys.end(), key->string_value()) ==
        keys.end()) {
      keys.push_back(key->string_value());
    }
    return true;
  }
  return std::all_of(args.begin(), args.end(), [&](const ScalarEvalPtr& a) {
    return CollectFilterReads(*a, reads);
  });
}

/// Records the scan filter (DESIGN.md §9): the leading ASSIGNs and
/// SELECTs of the leaf pipeline, up to its last leading SELECT, become
/// one predicate the reader tests before building each record. A
/// prefix qualifies when it reads the scanned item only through
/// constant-key value() steps — then a slim record of those keys
/// answers every read exactly as the full object would — or only as
/// the whole item (Q0b's dateTime(data($r))), which the reader then
/// tests on atomic values decoded alone. A prefix that reads it both
/// ways gets no filter.
void AnnotateScanFilter(PNode* node) {
  size_t end = 0;  // one past the last SELECT of the leading prefix
  for (size_t i = 0; i < node->ops.size(); ++i) {
    const UnaryOpDesc::Kind kind = node->ops[i].kind;
    if (kind == UnaryOpDesc::Kind::kSelect) {
      end = i + 1;
    } else if (kind != UnaryOpDesc::Kind::kAssign) {
      break;
    }
  }
  if (end == 0) return;
  FilterReads reads;
  for (size_t i = 0; i < end; ++i) {
    if (!CollectFilterReads(*node->ops[i].eval, &reads)) return;
  }
  if (reads.whole && !reads.keys.empty()) return;
  node->scan.filter = MakeChainPredicate(std::vector<UnaryOpDesc>(
      node->ops.begin(), node->ops.begin() + static_cast<std::ptrdiff_t>(end)));
  node->scan.filter_keys = std::move(reads.keys);
  node->scan.filter_whole_value = reads.whole;
}

/// Compile-time scan-predicate annotation, run as each SELECT joins a
/// leaf DATASCAN pipeline: the zone-map comparison for the columnar
/// path and, when `scan_filter` is on, the filter the text and tape
/// readers test before building. The SELECTs stay in the plan
/// untouched — both only ever remove rows the SELECTs would drop.
void AnnotateScanPredicate(PNode* node, bool scan_filter) {
  if (node->scan.kind != ScanDesc::Kind::kDataScan) return;
  if (node->input != nullptr) return;
  AnnotateZonePredicate(node);
  if (scan_filter) AnnotateScanFilter(node);
}

class Translator {
 public:
  explicit Translator(const PhysicalOptions& options) : options_(options) {}

  Result<PhysicalPlan> Translate(const LogicalPlan& plan) {
    if (plan.root == nullptr || plan.root->kind != LOpKind::kDistributeResult) {
      return Status::InvalidArgument(
          "logical plan must be rooted at DISTRIBUTE-RESULT");
    }
    JPAR_ASSIGN_OR_RETURN(NodeAndSchema body,
                          TranslateOp(plan.root->input()));
    int col = ColumnOf(body.schema, plan.root->result_var);
    if (col < 0) {
      return Status::Internal("result variable " +
                              VarName(plan.root->result_var) +
                              " not in final schema");
    }
    PhysicalPlan out;
    out.root = body.node;
    out.result_column = col;
    out.exprs_compiled = exprs_compiled_;
    out.est_result_rows = body.est_rows;
    out.cost_choices = std::move(cost_choices_);
    return out;
  }

 private:
  /// Attaches flat bytecode to a main-pipeline ASSIGN/SELECT when
  /// compilation is on and the tree is compilable. Subplan ops are left
  /// alone: the batch chain runs subplan suffixes through the tuple
  /// fallback, so counting them would overstate `exprs_compiled`.
  UnaryOpDesc MaybeCompile(UnaryOpDesc d) {
    if (!options_.compile_expr_bytecode) return d;
    d.program = CompileExprProgram(d.eval);
    if (d.program != nullptr) ++exprs_compiled_;
    return d;
  }

  /// Returns `ns` if its node is an extensible pipeline, otherwise wraps
  /// it in a fresh pipeline stage.
  NodeAndSchema AsPipeline(NodeAndSchema ns) {
    if (ns.node->kind == PNode::Kind::kPipeline) return ns;
    auto pipe = std::make_shared<PNode>();
    pipe->kind = PNode::Kind::kPipeline;
    pipe->input = ns.node;
    ns.node = pipe;
    return ns;
  }

  const CostModel* cost() const {
    return options_.cost_model != nullptr && options_.cost_model->enabled()
               ? options_.cost_model
               : nullptr;
  }

  Result<NodeAndSchema> TranslateOp(const LOpPtr& op) {
    if (op == nullptr) return Status::Internal("translating a null operator");
    switch (op->kind) {
      case LOpKind::kEmptyTupleSource: {
        NodeAndSchema ns;
        ns.node = std::make_shared<PNode>();
        ns.node->kind = PNode::Kind::kPipeline;
        ns.node->scan.kind = ScanDesc::Kind::kEmptyTupleSource;
        return ns;
      }
      case LOpKind::kDataScan: {
        NodeAndSchema ns;
        ns.node = std::make_shared<PNode>();
        ns.node->kind = PNode::Kind::kPipeline;
        ns.node->scan.kind = ScanDesc::Kind::kDataScan;
        ns.node->scan.collection = op->collection;
        ns.node->scan.steps = op->steps;
        ns.node->scan.use_index = op->use_index;
        ns.node->scan.index_path = op->index_path;
        ns.node->scan.index_value = op->index_value;
        ns.schema.push_back(op->out_var);
        if (cost() != nullptr) {
          ScanEstimate est = cost()->EstimateScan(op->collection, op->steps);
          if (est.from_stats) ns.node->scan.est_rows = est.rows;
          if (cost()->Trust(est)) {
            ns.est_rows = est.rows;
            size_t hint = cost()->MorselBytesHint(est.bytes);
            if (hint > 0) ns.node->scan.morsel_bytes_hint = hint;
            cost_choices_.push_back("scan " + op->collection +
                                    ": est-rows=" + FmtRows(est.rows) +
                                    " morsel-hint=" + std::to_string(hint));
          }
        }
        return ns;
      }
      case LOpKind::kProject: {
        JPAR_ASSIGN_OR_RETURN(NodeAndSchema in, TranslateOp(op->input()));
        NodeAndSchema ns = AsPipeline(std::move(in));
        std::vector<int> columns;
        Schema new_schema;
        for (VarId v : op->project_vars) {
          int col = ColumnOf(ns.schema, v);
          if (col < 0) {
            return Status::Internal("PROJECT of unbound variable " +
                                    VarName(v));
          }
          columns.push_back(col);
          new_schema.push_back(v);
        }
        ns.node->ops.push_back(UnaryOpDesc::Project(std::move(columns)));
        ns.schema = std::move(new_schema);
        return ns;
      }
      case LOpKind::kAssign:
      case LOpKind::kSelect:
      case LOpKind::kUnnest: {
        JPAR_ASSIGN_OR_RETURN(NodeAndSchema in, TranslateOp(op->input()));
        NodeAndSchema ns = AsPipeline(std::move(in));
        JPAR_ASSIGN_OR_RETURN(ScalarEvalPtr ev,
                              CompileExpr(op->expr, ns.schema));
        if (op->kind == LOpKind::kAssign) {
          ns.node->ops.push_back(MaybeCompile(UnaryOpDesc::Assign(std::move(ev))));
          ns.schema.push_back(op->out_var);
        } else if (op->kind == LOpKind::kSelect) {
          ns.node->ops.push_back(MaybeCompile(UnaryOpDesc::Select(std::move(ev))));
          AnnotateScanPredicate(ns.node.get(), options_.scan_filter);
          if (cost() != nullptr) {
            double sel = CostModel::kDefaultSelectivity;
            // A zone-annotated SELECT (necessarily this one: annotation
            // requires a single-op pipeline on the scan) carries enough
            // shape to estimate from the sampled value distribution —
            // and, when selective, to route the scan to the columnar
            // access path where zone maps can prune whole blocks.
            if (ns.node->ops.size() == 1 &&
                ns.node->scan.zone_op != ZoneCompare::kNone) {
              ScanEstimate est = cost()->EstimateScan(ns.node->scan.collection,
                                                      ns.node->scan.steps);
              sel = cost()->EstimateSelectivity(est, ns.node->scan.zone_op,
                                                ns.node->scan.zone_value);
              if (cost()->Trust(est) &&
                  sel <= CostModel::kColumnarSelectivity &&
                  ns.node->scan.access_hint == AccessHint::kAny) {
                ns.node->scan.access_hint = AccessHint::kColumnar;
                cost_choices_.push_back("select on " +
                                        ns.node->scan.collection + ": sel=" +
                                        FmtSel(sel) + " -> columnar scan");
              }
            }
            if (ns.est_rows >= 0) ns.est_rows *= sel;
          }
        } else {
          ns.node->ops.push_back(UnaryOpDesc::Unnest(std::move(ev)));
          ns.schema.push_back(op->out_var);
          ns.est_rows = -1;  // fan-out per row is unknown
        }
        return ns;
      }
      case LOpKind::kSubplan: {
        JPAR_ASSIGN_OR_RETURN(NodeAndSchema in, TranslateOp(op->input()));
        NodeAndSchema ns = AsPipeline(std::move(in));
        JPAR_ASSIGN_OR_RETURN(std::shared_ptr<const SubplanDesc> sub,
                              CompileSubplan(op->nested, &ns.schema));
        ns.node->ops.push_back(UnaryOpDesc::Subplan(std::move(sub)));
        return ns;
      }
      case LOpKind::kAggregate: {
        // A top-level AGGREGATE is a GROUP-BY with no keys.
        JPAR_ASSIGN_OR_RETURN(NodeAndSchema in, TranslateOp(op->input()));
        auto node = std::make_shared<PNode>();
        node->kind = PNode::Kind::kGroupBy;
        node->input = in.node;
        node->two_step = options_.two_step_aggregation;
        Schema out_schema;
        for (const LOp::AggItem& a : op->aggs) {
          AggSpec spec;
          spec.kind = a.agg;
          JPAR_ASSIGN_OR_RETURN(spec.arg, CompileExpr(a.arg, in.schema));
          node->aggs.push_back(std::move(spec));
          out_schema.push_back(a.var);
        }
        NodeAndSchema ns;
        ns.node = node;
        ns.schema = std::move(out_schema);
        ns.est_rows = 1;  // a keyless aggregate emits exactly one row
        return ns;
      }
      case LOpKind::kGroupBy: {
        JPAR_ASSIGN_OR_RETURN(NodeAndSchema in, TranslateOp(op->input()));
        if (op->nested == nullptr ||
            op->nested->kind != LOpKind::kAggregate ||
            op->nested->input()->kind != LOpKind::kNestedTupleSource) {
          return Status::Unsupported(
              "GROUP-BY nested plans must be a single AGGREGATE over "
              "NESTED-TUPLE-SOURCE at physical translation time");
        }
        auto node = std::make_shared<PNode>();
        node->kind = PNode::Kind::kGroupBy;
        node->input = in.node;
        Schema out_schema;
        for (const LOp::KeyItem& k : op->keys) {
          JPAR_ASSIGN_OR_RETURN(ScalarEvalPtr ev,
                                CompileExpr(k.expr, in.schema));
          node->keys.push_back(std::move(ev));
          out_schema.push_back(k.var);
        }
        bool all_incremental = true;
        for (const LOp::AggItem& a : op->nested->aggs) {
          AggSpec spec;
          spec.kind = a.agg;
          if (a.agg == AggKind::kSequence) all_incremental = false;
          JPAR_ASSIGN_OR_RETURN(spec.arg, CompileExpr(a.arg, in.schema));
          node->aggs.push_back(std::move(spec));
          out_schema.push_back(a.var);
        }
        node->two_step = options_.two_step_aggregation && all_incremental;
        if (cost() != nullptr && in.est_rows >= 0) {
          int fanout = cost()->SpillFanoutHint(in.est_rows);
          if (fanout > 0) {
            node->spill_fanout_hint = fanout;
            cost_choices_.push_back(
                "group-by: est-input-rows=" + FmtRows(in.est_rows) +
                " fanout-hint=" + std::to_string(fanout));
          }
        }
        NodeAndSchema ns;
        ns.node = node;
        ns.schema = std::move(out_schema);
        return ns;
      }
      case LOpKind::kOrderBy: {
        JPAR_ASSIGN_OR_RETURN(NodeAndSchema in, TranslateOp(op->input()));
        auto node = std::make_shared<PNode>();
        node->kind = PNode::Kind::kSort;
        node->input = in.node;
        for (const LOp::KeyItem& k : op->keys) {
          JPAR_ASSIGN_OR_RETURN(ScalarEvalPtr ev,
                                CompileExpr(k.expr, in.schema));
          node->sort_keys.push_back(std::move(ev));
        }
        node->sort_descending = op->sort_descending;
        NodeAndSchema ns;
        ns.node = node;
        ns.schema = in.schema;  // sorting preserves the schema
        ns.est_rows = in.est_rows;  // ... and the cardinality
        return ns;
      }
      case LOpKind::kJoin: {
        JPAR_ASSIGN_OR_RETURN(NodeAndSchema left, TranslateOp(op->inputs[0]));
        JPAR_ASSIGN_OR_RETURN(NodeAndSchema right, TranslateOp(op->inputs[1]));
        auto node = std::make_shared<PNode>();
        node->kind = PNode::Kind::kJoin;
        node->left = left.node;
        node->right = right.node;
        for (const LExprPtr& k : op->left_keys) {
          JPAR_ASSIGN_OR_RETURN(ScalarEvalPtr ev, CompileExpr(k, left.schema));
          node->left_keys.push_back(std::move(ev));
        }
        for (const LExprPtr& k : op->right_keys) {
          JPAR_ASSIGN_OR_RETURN(ScalarEvalPtr ev,
                                CompileExpr(k, right.schema));
          node->right_keys.push_back(std::move(ev));
        }
        Schema out_schema = left.schema;
        out_schema.insert(out_schema.end(), right.schema.begin(),
                          right.schema.end());
        if (op->expr != nullptr) {
          JPAR_ASSIGN_OR_RETURN(node->residual,
                                CompileExpr(op->expr, out_schema));
        }
        // Build-side choice: hash joins canonically build on the right;
        // when both inputs carry trusted estimates and the left is
        // clearly smaller, build there instead. The executor reproduces
        // the canonical emit order either way (pair-sort), so this is
        // an answer-preserving annotation like every other cost lever.
        if (cost() != nullptr && !node->left_keys.empty() &&
            left.est_rows >= 0 && right.est_rows >= 0 &&
            left.est_rows <= right.est_rows * CostModel::kBuildFlipRatio) {
          node->build_left = true;
          cost_choices_.push_back("join: build=left (est " +
                                  FmtRows(left.est_rows) + " vs " +
                                  FmtRows(right.est_rows) + ")");
        }
        NodeAndSchema ns;
        ns.node = node;
        ns.schema = std::move(out_schema);
        if (left.est_rows >= 0 && right.est_rows >= 0) {
          ns.est_rows = std::max(left.est_rows, right.est_rows);
        }
        return ns;
      }
      case LOpKind::kNestedTupleSource:
        return Status::Internal(
            "NESTED-TUPLE-SOURCE outside a nested plan");
      case LOpKind::kDistributeResult:
        return Status::Internal("nested DISTRIBUTE-RESULT");
    }
    return Status::Internal("unknown logical operator kind");
  }

  /// Compiles a SUBPLAN nested chain (AGGREGATE over streaming ops over
  /// NESTED-TUPLE-SOURCE). `outer_schema` is extended with the
  /// aggregate output variables.
  Result<std::shared_ptr<const SubplanDesc>> CompileSubplan(
      const LOpPtr& nested, Schema* outer_schema) {
    if (nested == nullptr || nested->kind != LOpKind::kAggregate) {
      return Status::Unsupported(
          "SUBPLAN nested plans must end in AGGREGATE");
    }
    // Collect the chain bottom-up.
    std::vector<LOpPtr> chain;
    LOpPtr cursor = nested->input();
    while (cursor != nullptr && cursor->kind != LOpKind::kNestedTupleSource) {
      chain.push_back(cursor);
      if (cursor->inputs.empty()) {
        return Status::Unsupported("SUBPLAN chain without a tuple source");
      }
      cursor = cursor->input();
    }
    if (cursor == nullptr) {
      return Status::Unsupported("SUBPLAN chain without a tuple source");
    }
    std::reverse(chain.begin(), chain.end());

    auto desc = std::make_shared<SubplanDesc>();
    Schema schema = *outer_schema;  // nested plans see the outer tuple
    for (const LOpPtr& op : chain) {
      JPAR_ASSIGN_OR_RETURN(ScalarEvalPtr ev, CompileExpr(op->expr, schema));
      switch (op->kind) {
        case LOpKind::kAssign:
          desc->ops.push_back(UnaryOpDesc::Assign(std::move(ev)));
          schema.push_back(op->out_var);
          break;
        case LOpKind::kSelect:
          desc->ops.push_back(UnaryOpDesc::Select(std::move(ev)));
          break;
        case LOpKind::kUnnest:
          desc->ops.push_back(UnaryOpDesc::Unnest(std::move(ev)));
          schema.push_back(op->out_var);
          break;
        default:
          return Status::Unsupported(
              "SUBPLAN chains support ASSIGN/SELECT/UNNEST only");
      }
    }
    for (const LOp::AggItem& a : nested->aggs) {
      AggSpec spec;
      spec.kind = a.agg;
      JPAR_ASSIGN_OR_RETURN(spec.arg, CompileExpr(a.arg, schema));
      desc->aggs.push_back(std::move(spec));
      outer_schema->push_back(a.var);
    }
    return std::shared_ptr<const SubplanDesc>(desc);
  }

  PhysicalOptions options_;
  uint64_t exprs_compiled_ = 0;
  std::vector<std::string> cost_choices_;
};

}  // namespace

Result<PhysicalPlan> TranslateToPhysical(const LogicalPlan& plan,
                                         const PhysicalOptions& options) {
  Translator translator(options);
  return translator.Translate(plan);
}

}  // namespace jpar
