#include "runtime/operators.h"

#include <utility>

#include "json/binary_serde.h"
#include "runtime/frame.h"
#include "runtime/spill.h"

namespace jpar {

Status EncodeGroupSpillRecord(
    std::string_view encoded_key, const Tuple& key_items,
    const std::vector<std::unique_ptr<Aggregator>>& aggs, std::string* out) {
  ItemWriter writer(out);
  writer.Write(Item::String(encoded_key));
  EncodeTupleTo(key_items, out);
  writer.Write(Item::Int64(static_cast<int64_t>(aggs.size())));
  for (const std::unique_ptr<Aggregator>& agg : aggs) {
    JPAR_ASSIGN_OR_RETURN(Item partial, agg->SavePartial());
    writer.Write(partial);
  }
  return Status::OK();
}

Result<GroupSpillRecord> DecodeGroupSpillRecord(std::string_view record) {
  ItemReader reader(record);
  GroupSpillRecord out;
  JPAR_ASSIGN_OR_RETURN(Item key, reader.Read());
  if (!key.is_string()) {
    return Status::Internal("corrupt group spill record: bad key");
  }
  out.encoded_key = key.string_value();
  JPAR_RETURN_NOT_OK(DecodeTupleFrom(&reader, &out.key_items));
  JPAR_ASSIGN_OR_RETURN(Item count, reader.Read());
  if (!count.is_int64() || count.int64_value() < 0) {
    return Status::Internal("corrupt group spill record: bad agg count");
  }
  size_t n = static_cast<size_t>(count.int64_value());
  out.partials.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    JPAR_ASSIGN_OR_RETURN(Item partial, reader.Read());
    out.partials.push_back(std::move(partial));
  }
  return out;
}

Result<std::string> PeekGroupSpillKey(std::string_view record) {
  ItemReader reader(record);
  JPAR_ASSIGN_OR_RETURN(Item key, reader.Read());
  if (!key.is_string()) {
    return Status::Internal("corrupt group spill record: bad key");
  }
  return std::string(key.string_value());
}

std::string AggSpec::ToString() const {
  std::string out(AggKindToString(kind));
  out.push_back('(');
  out += arg != nullptr ? arg->ToString() : std::string("?");
  out.push_back(')');
  return out;
}

std::string UnaryOpDesc::ToString() const {
  switch (kind) {
    case Kind::kAssign:
      return "ASSIGN " + eval->ToString();
    case Kind::kSelect:
      return "SELECT " + eval->ToString();
    case Kind::kUnnest:
      return "UNNEST " + eval->ToString();
    case Kind::kSubplan:
      return "SUBPLAN { " + subplan->ToString() + " }";
    case Kind::kProject: {
      std::string out = "PROJECT";
      for (size_t i = 0; i < columns.size(); ++i) {
        out += (i == 0 ? " $col" : ", $col") + std::to_string(columns[i]);
      }
      return out;
    }
  }
  return "?";
}

std::string SubplanDesc::ToString() const {
  std::string out;
  for (const UnaryOpDesc& op : ops) {
    out += op.ToString();
    out += "; ";
  }
  out += "AGGREGATE ";
  for (size_t i = 0; i < aggs.size(); ++i) {
    if (i > 0) out += ", ";
    out += aggs[i].ToString();
  }
  return out;
}

std::string ScanDesc::ToString() const {
  switch (kind) {
    case Kind::kEmptyTupleSource:
      return "EMPTY-TUPLE-SOURCE";
    case Kind::kDataScan: {
      std::string out = "DATASCAN collection(\"" + collection + "\")" +
                        PathToString(steps);
      if (use_index) {
        out += " [index: " + PathToString(index_path) +
               " = " + index_value.ToJsonString() + "]";
      }
      // Cost annotations print only when set, so stats-free plans keep
      // their historical rendering.
      switch (access_hint) {
        case AccessHint::kAny:
          break;
        case AccessHint::kColumnar:
          out += " [access: columnar]";
          break;
        case AccessHint::kTape:
          out += " [access: tape]";
          break;
        case AccessHint::kCold:
          out += " [access: cold]";
          break;
      }
      if (filter != nullptr) {
        out += " [filter:";
        if (filter_whole_value) out += " whole value";
        for (const std::string& k : filter_keys) out += " \"" + k + "\"";
        out += "]";
      }
      if (est_rows >= 0) {
        out += " [est-rows: " + std::to_string(static_cast<int64_t>(est_rows)) +
               "]";
      }
      return out;
    }
  }
  return "?";
}

namespace {

class ChainPredicateEval : public ScalarEval {
 public:
  explicit ChainPredicateEval(std::vector<UnaryOpDesc> ops)
      : ops_(std::move(ops)) {}

  // RunChain's ASSIGN and SELECT steps, without its frame charges.
  Result<Item> Eval(const Tuple& tuple, EvalContext* ctx) const override {
    Tuple row;
    row.reserve(tuple.size() + ops_.size());
    row.assign(tuple.begin(), tuple.end());
    for (const UnaryOpDesc& op : ops_) {
      JPAR_ASSIGN_OR_RETURN(Item value, op.eval->Eval(row, ctx));
      if (op.kind == UnaryOpDesc::Kind::kAssign) {
        row.push_back(std::move(value));
        continue;
      }
      JPAR_ASSIGN_OR_RETURN(bool keep, value.EffectiveBooleanValue());
      if (!keep) return Item::Boolean(false);
    }
    return Item::Boolean(true);
  }

  std::string ToString() const override {
    std::string out = "chain(";
    for (size_t i = 0; i < ops_.size(); ++i) {
      if (i > 0) out += "; ";
      out += ops_[i].ToString();
    }
    return out + ")";
  }

 private:
  std::vector<UnaryOpDesc> ops_;
};

}  // namespace

ScalarEvalPtr MakeChainPredicate(std::vector<UnaryOpDesc> ops) {
  return std::make_shared<ChainPredicateEval>(std::move(ops));
}

Status RunChain(const std::vector<UnaryOpDesc>& ops, size_t from,
                Tuple tuple, EvalContext* ctx, const TupleSink& sink) {
  if (from == ops.size()) return sink(std::move(tuple));
  if (ctx->charge_boundaries) {
    // Materialize the tuple into a frame, as Hyracks does between
    // operators. The buffer is reused; the serialization work and the
    // byte counts are the point.
    ctx->frame_scratch.clear();
    size_t encoded = AppendTupleTo(tuple, &ctx->frame_scratch);
    ctx->boundary_bytes += encoded;
    ++ctx->boundary_tuples;
    if (encoded > ctx->max_tuple_bytes) ctx->max_tuple_bytes = encoded;
  }
  const UnaryOpDesc& op = ops[from];
  switch (op.kind) {
    case UnaryOpDesc::Kind::kAssign: {
      JPAR_ASSIGN_OR_RETURN(Item value, op.eval->Eval(tuple, ctx));
      tuple.push_back(std::move(value));
      return RunChain(ops, from + 1, std::move(tuple), ctx, sink);
    }
    case UnaryOpDesc::Kind::kSelect: {
      JPAR_ASSIGN_OR_RETURN(Item cond, op.eval->Eval(tuple, ctx));
      JPAR_ASSIGN_OR_RETURN(bool keep, cond.EffectiveBooleanValue());
      if (!keep) return Status::OK();
      return RunChain(ops, from + 1, std::move(tuple), ctx, sink);
    }
    case UnaryOpDesc::Kind::kUnnest: {
      JPAR_ASSIGN_OR_RETURN(Item seq, op.eval->Eval(tuple, ctx));
      if (seq.is_sequence()) {
        for (const Item& member : seq.sequence()) {
          Tuple next = tuple;
          next.push_back(member);
          JPAR_RETURN_NOT_OK(RunChain(ops, from + 1, std::move(next), ctx,
                                      sink));
        }
        return Status::OK();
      }
      // A non-sequence unnests as a singleton.
      tuple.push_back(std::move(seq));
      return RunChain(ops, from + 1, std::move(tuple), ctx, sink);
    }
    case UnaryOpDesc::Kind::kSubplan: {
      JPAR_ASSIGN_OR_RETURN(Tuple out, RunSubplan(*op.subplan, tuple, ctx));
      return RunChain(ops, from + 1, std::move(out), ctx, sink);
    }
    case UnaryOpDesc::Kind::kProject: {
      Tuple out;
      out.reserve(op.columns.size());
      for (int col : op.columns) {
        if (col < 0 || static_cast<size_t>(col) >= tuple.size()) {
          return Status::Internal("PROJECT column out of range");
        }
        out.push_back(tuple[static_cast<size_t>(col)]);
      }
      return RunChain(ops, from + 1, std::move(out), ctx, sink);
    }
  }
  return Status::Internal("unknown unary operator kind");
}

namespace {

/// Deferred per-row failures for a batch chain. Tuple-at-a-time
/// execution stops at the first erroring tuple; a batch discovers
/// errors op-by-op instead, so it records (row, first error) pairs and
/// reports the lowest row's error once the chain has run — each row
/// errors at most once because its lane is deselected on failure.
using DeferredErrors = std::vector<std::pair<uint32_t, Status>>;

Status FirstRowError(DeferredErrors& deferred) {
  size_t best = 0;
  for (size_t i = 1; i < deferred.size(); ++i) {
    if (deferred[i].first < deferred[best].first) best = i;
  }
  return std::move(deferred[best].second);
}

/// Drops errored lanes from the batch selection and compacts `vals` to
/// match, moving the failures into `deferred`.
void DropErroredLanes(std::vector<LaneError>& lane_errors, TupleBatch* batch,
                      std::vector<Item>* vals, DeferredErrors* deferred) {
  const std::vector<uint32_t>& sel = batch->selection();
  std::vector<uint8_t> dead(sel.size(), 0);
  for (LaneError& e : lane_errors) {
    deferred->emplace_back(sel[e.lane], std::move(e.status));
    dead[e.lane] = 1;
  }
  std::vector<uint32_t> keep_sel;
  std::vector<Item> keep_vals;
  keep_sel.reserve(sel.size() - lane_errors.size());
  keep_vals.reserve(sel.size() - lane_errors.size());
  for (size_t lane = 0; lane < sel.size(); ++lane) {
    if (dead[lane]) continue;
    keep_sel.push_back(sel[lane]);
    keep_vals.push_back(std::move((*vals)[lane]));
  }
  batch->SetSelection(std::move(keep_sel));
  *vals = std::move(keep_vals);
}

}  // namespace

Status RunBatchChain(const std::vector<UnaryOpDesc>& ops, TupleBatch* batch,
                     EvalContext* ctx, bool use_bytecode, EvalCheck* check,
                     const BatchSink& sink) {
  DeferredErrors deferred;
  std::vector<Item> vals;
  std::vector<LaneError> lane_errors;
  for (size_t i = 0; i < ops.size(); ++i) {
    if (batch->selection().empty()) break;
    const UnaryOpDesc& op = ops[i];
    switch (op.kind) {
      case UnaryOpDesc::Kind::kAssign:
      case UnaryOpDesc::Kind::kSelect: {
        const std::vector<uint32_t>& sel = batch->selection();
        vals.clear();
        lane_errors.clear();
        if (use_bytecode && op.program != nullptr) {
          JPAR_RETURN_NOT_OK(EvalExprProgram(*op.program, *batch, sel, ctx,
                                             check, &vals, &lane_errors));
        } else {
          vals.reserve(sel.size());
          for (size_t lane = 0; lane < sel.size(); ++lane) {
            if (check != nullptr) JPAR_RETURN_NOT_OK(check->Tick());
            Result<Item> r =
                op.eval->Eval(batch->MaterializeRow(sel[lane]), ctx);
            if (!r.ok()) {
              lane_errors.push_back(LaneError{lane, r.status()});
              vals.emplace_back();
            } else {
              vals.push_back(*std::move(r));
            }
          }
        }
        if (!lane_errors.empty()) {
          DropErroredLanes(lane_errors, batch, &vals, &deferred);
        }
        if (op.kind == UnaryOpDesc::Kind::kAssign) {
          batch->AddColumn(std::move(vals));
          vals = std::vector<Item>();
        } else {
          const std::vector<uint32_t>& live = batch->selection();
          std::vector<uint32_t> keep;
          keep.reserve(live.size());
          for (size_t lane = 0; lane < live.size(); ++lane) {
            Result<bool> b = vals[lane].EffectiveBooleanValue();
            if (!b.ok()) {
              deferred.emplace_back(live[lane], b.status());
            } else if (*b) {
              keep.push_back(live[lane]);
            }
          }
          batch->SetSelection(std::move(keep));
        }
        break;
      }
      case UnaryOpDesc::Kind::kProject: {
        for (int col : op.columns) {
          if (col < 0 || static_cast<size_t>(col) >= batch->width()) {
            // Uniform schema: every live row fails identically, and the
            // first live row is the one tuple-at-a-time stops on.
            deferred.emplace_back(batch->selection().front(),
                                  Status::Internal(
                                      "PROJECT column out of range"));
            return FirstRowError(deferred);
          }
        }
        batch->Project(op.columns);
        break;
      }
      case UnaryOpDesc::Kind::kUnnest:
      case UnaryOpDesc::Kind::kSubplan: {
        // Fan-out operators fall back to the tuple chain for the whole
        // remaining suffix, lane by lane, preserving emission order.
        TupleBatch carry(batch->capacity());
        bool carry_init = false;
        TupleSink tsink = [&](Tuple t) -> Status {
          if (!carry_init) {
            carry.Reset(t.size());
            carry_init = true;
          }
          carry.AppendTuple(std::move(t));
          if (carry.full()) {
            JPAR_RETURN_NOT_OK(sink(carry));
            carry.Reset(carry.width());
          }
          return Status::OK();
        };
        for (uint32_t row : batch->selection()) {
          if (check != nullptr) JPAR_RETURN_NOT_OK(check->Tick());
          Status st = RunChain(ops, i, batch->MaterializeRow(row), ctx, tsink);
          if (!st.ok()) {
            // Later lanes can only fail on larger rows; deferred already
            // holds any lower-row candidates from earlier operators.
            deferred.emplace_back(row, std::move(st));
            break;
          }
        }
        if (!deferred.empty()) return FirstRowError(deferred);
        if (carry_init && !carry.empty()) JPAR_RETURN_NOT_OK(sink(carry));
        return Status::OK();
      }
    }
  }
  if (!deferred.empty()) return FirstRowError(deferred);
  if (batch->selection().empty()) return Status::OK();
  return sink(*batch);
}

Result<Tuple> RunSubplan(const SubplanDesc& subplan, const Tuple& seed,
                         EvalContext* ctx) {
  std::vector<std::unique_ptr<Aggregator>> aggs;
  aggs.reserve(subplan.aggs.size());
  for (const AggSpec& spec : subplan.aggs) {
    JPAR_ASSIGN_OR_RETURN(std::unique_ptr<Aggregator> agg,
                          MakeAggregator(spec.kind, AggStep::kComplete));
    aggs.push_back(std::move(agg));
  }
  JPAR_RETURN_NOT_OK(RunChain(
      subplan.ops, 0, seed, ctx, [&](Tuple inner) -> Status {
        for (size_t i = 0; i < aggs.size(); ++i) {
          JPAR_ASSIGN_OR_RETURN(Item value,
                                subplan.aggs[i].arg->Eval(inner, ctx));
          JPAR_RETURN_NOT_OK(aggs[i]->Step(value));
        }
        return Status::OK();
      }));
  Tuple out = seed;
  for (std::unique_ptr<Aggregator>& agg : aggs) {
    JPAR_ASSIGN_OR_RETURN(Item value, agg->Finish());
    out.push_back(std::move(value));
  }
  return out;
}

}  // namespace jpar
