#include "runtime/expression.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <set>
#include <utility>

#include "json/binary_serde.h"
#include "json/parser.h"

namespace jpar {

namespace {

/// Expands an item into a span of sequence members ([item] when atomic
/// or json-item, the members when a sequence).
void ExpandSequence(const Item& item, std::vector<Item>* out) {
  if (item.is_sequence()) {
    const Item::ItemVector& seq = item.sequence();
    out->insert(out->end(), seq.begin(), seq.end());
  } else {
    out->push_back(item);
  }
}

class ConstantEval : public ScalarEval {
 public:
  explicit ConstantEval(Item value) : value_(std::move(value)) {}
  Result<Item> Eval(const Tuple&, EvalContext*) const override {
    return value_;
  }
  std::string ToString() const override { return value_.ToJsonString(); }
  Shape shape() const override { return Shape::kConstant; }
  const Item* shape_constant() const override { return &value_; }

 private:
  Item value_;
};

class ColumnEval : public ScalarEval {
 public:
  explicit ColumnEval(int column) : column_(column) {}
  Result<Item> Eval(const Tuple& tuple, EvalContext*) const override {
    if (column_ < 0 || static_cast<size_t>(column_) >= tuple.size()) {
      return Status::Internal("column " + std::to_string(column_) +
                              " out of range for tuple of width " +
                              std::to_string(tuple.size()));
    }
    return tuple[static_cast<size_t>(column_)];
  }
  std::string ToString() const override {
    return "$col" + std::to_string(column_);
  }
  Shape shape() const override { return Shape::kColumn; }
  int shape_column() const override { return column_; }

 private:
  int column_;
};

int BuiltinArity(Builtin fn) {
  switch (fn) {
    case Builtin::kValue:
    case Builtin::kEq:
    case Builtin::kNe:
    case Builtin::kLt:
    case Builtin::kLe:
    case Builtin::kGt:
    case Builtin::kGe:
    case Builtin::kAnd:
    case Builtin::kOr:
    case Builtin::kAdd:
    case Builtin::kSub:
    case Builtin::kMul:
    case Builtin::kDiv:
    case Builtin::kMod:
      return 2;
    case Builtin::kContains:
    case Builtin::kStartsWith:
      return 2;
    case Builtin::kArrayConstructor:
    case Builtin::kObjectConstructor:
    case Builtin::kSequenceConstructor:
    case Builtin::kConcat:
    case Builtin::kSubstring:  // 2 or 3 args, checked at eval
      return -1;  // variadic
    default:
      return 1;
  }
}

Result<double> RequireNumeric(const Item& item, const char* what) {
  if (item.is_numeric()) return item.AsDouble();
  return Status::TypeError(std::string(what) + " requires a numeric value, got " +
                           std::string(ItemKindToString(item.kind())));
}

Result<Item> Atomize(const Item& item) {
  // XQuery fn:data — atomization. Atomics pass through; sequences map;
  // arrays/objects have no typed value in this model.
  if (item.is_atomic()) return item;
  if (item.is_sequence()) {
    Item::ItemVector out;
    out.reserve(item.sequence().size());
    for (const Item& member : item.sequence()) {
      JPAR_ASSIGN_OR_RETURN(Item a, Atomize(member));
      ExpandSequence(a, &out);
    }
    return Item::MakeSequence(std::move(out));
  }
  return Status::TypeError("data() applied to a " +
                           std::string(ItemKindToString(item.kind())));
}

/// Whether three-way result `c` satisfies comparison builtin `fn`.
Result<bool> CompareHit(Builtin fn, int c) {
  switch (fn) {
    case Builtin::kEq:
      return c == 0;
    case Builtin::kNe:
      return c != 0;
    case Builtin::kLt:
      return c < 0;
    case Builtin::kLe:
      return c <= 0;
    case Builtin::kGt:
      return c > 0;
    case Builtin::kGe:
      return c >= 0;
    default:
      return Status::Internal("not a comparison builtin");
  }
}

/// General comparison with XQuery existential sequence semantics: true
/// iff some pair of members (lhs x rhs) satisfies the comparison;
/// incomparable member types are a dynamic error.
Result<Item> GeneralCompare(Builtin fn, const Item& lhs, const Item& rhs) {
  if (!lhs.is_sequence() && !rhs.is_sequence()) {
    // The one pair, compared in place.
    JPAR_ASSIGN_OR_RETURN(int c, lhs.Compare(rhs));
    JPAR_ASSIGN_OR_RETURN(bool hit, CompareHit(fn, c));
    return Item::Boolean(hit);
  }
  std::vector<Item> left, right;
  ExpandSequence(lhs, &left);
  ExpandSequence(rhs, &right);
  for (const Item& a : left) {
    for (const Item& b : right) {
      JPAR_ASSIGN_OR_RETURN(int c, a.Compare(b));
      JPAR_ASSIGN_OR_RETURN(bool hit, CompareHit(fn, c));
      if (hit) return Item::Boolean(true);
    }
  }
  return Item::Boolean(false);
}

Result<Item> Arithmetic(Builtin fn, const Item& lhs, const Item& rhs) {
  // Empty-sequence operands propagate the empty sequence (XQuery).
  if ((lhs.is_sequence() && lhs.sequence().empty()) ||
      (rhs.is_sequence() && rhs.sequence().empty())) {
    return Item::EmptySequence();
  }
  JPAR_ASSIGN_OR_RETURN(double a, RequireNumeric(lhs, "arithmetic"));
  JPAR_ASSIGN_OR_RETURN(double b, RequireNumeric(rhs, "arithmetic"));
  bool both_int = lhs.is_int64() && rhs.is_int64();
  switch (fn) {
    case Builtin::kAdd:
      if (both_int) return Item::Int64(lhs.int64_value() + rhs.int64_value());
      return Item::Double(a + b);
    case Builtin::kSub:
      if (both_int) return Item::Int64(lhs.int64_value() - rhs.int64_value());
      return Item::Double(a - b);
    case Builtin::kMul:
      if (both_int) return Item::Int64(lhs.int64_value() * rhs.int64_value());
      return Item::Double(a * b);
    case Builtin::kDiv:
      if (b == 0) return Status::TypeError("division by zero");
      return Item::Double(a / b);
    case Builtin::kMod:
      if (b == 0) return Status::TypeError("modulo by zero");
      if (both_int) return Item::Int64(lhs.int64_value() % rhs.int64_value());
      return Item::Double(std::fmod(a, b));
    default:
      return Status::Internal("not an arithmetic builtin");
  }
}

/// Lexical string form of an atomic item (XQuery fn:string for the
/// types this engine models).
Result<std::string> LexicalString(const Item& item) {
  switch (item.kind()) {
    case ItemKind::kNull:
      return std::string("null");
    case ItemKind::kBoolean:
      return std::string(item.boolean_value() ? "true" : "false");
    case ItemKind::kInt64:
    case ItemKind::kDouble:
      return item.ToJsonString();
    case ItemKind::kString:
      return item.string_value();
    case ItemKind::kDateTime:
      return FormatDateTime(item.datetime_value());
    case ItemKind::kSequence:
      if (item.sequence().empty()) return std::string();
      return Status::TypeError("string() of a multi-item sequence");
    default:
      return Status::TypeError("string() of a " +
                               std::string(ItemKindToString(item.kind())));
  }
}

Result<Item> StringFunction(Builtin fn, const std::vector<Item>& vals) {
  switch (fn) {
    case Builtin::kConcat: {
      std::string out;
      for (const Item& v : vals) {
        if (v.is_sequence() && v.sequence().empty()) continue;
        JPAR_ASSIGN_OR_RETURN(std::string s, LexicalString(v));
        out += s;
      }
      return Item::String(std::move(out));
    }
    case Builtin::kSubstring: {
      if (vals.size() != 2 && vals.size() != 3) {
        return Status::InvalidArgument("substring expects 2 or 3 arguments");
      }
      JPAR_ASSIGN_OR_RETURN(std::string s, LexicalString(vals[0]));
      JPAR_ASSIGN_OR_RETURN(double start_d, [&]() -> Result<double> {
        if (!vals[1].is_numeric()) {
          return Status::TypeError("substring start must be numeric");
        }
        return vals[1].AsDouble();
      }());
      // XQuery substring is 1-based with rounding semantics; this
      // engine clamps to the simple integral case.
      int64_t start = static_cast<int64_t>(start_d);
      int64_t len = vals.size() == 3 && vals[2].is_numeric()
                        ? static_cast<int64_t>(vals[2].AsDouble())
                        : static_cast<int64_t>(s.size()) - (start - 1);
      if (start < 1) {
        len += start - 1;
        start = 1;
      }
      if (len <= 0 || static_cast<size_t>(start) > s.size()) {
        return Item::String("");
      }
      size_t from = static_cast<size_t>(start - 1);
      size_t count = std::min(static_cast<size_t>(len), s.size() - from);
      return Item::String(s.substr(from, count));
    }
    case Builtin::kStringLength: {
      JPAR_ASSIGN_OR_RETURN(std::string s, LexicalString(vals[0]));
      return Item::Int64(static_cast<int64_t>(s.size()));
    }
    case Builtin::kContains: {
      JPAR_ASSIGN_OR_RETURN(std::string hay, LexicalString(vals[0]));
      JPAR_ASSIGN_OR_RETURN(std::string needle, LexicalString(vals[1]));
      return Item::Boolean(hay.find(needle) != std::string::npos);
    }
    case Builtin::kStartsWith: {
      JPAR_ASSIGN_OR_RETURN(std::string hay, LexicalString(vals[0]));
      JPAR_ASSIGN_OR_RETURN(std::string prefix, LexicalString(vals[1]));
      return Item::Boolean(hay.rfind(prefix, 0) == 0);
    }
    case Builtin::kUpperCase:
    case Builtin::kLowerCase: {
      JPAR_ASSIGN_OR_RETURN(std::string s, LexicalString(vals[0]));
      for (char& c : s) {
        c = fn == Builtin::kUpperCase
                ? static_cast<char>(std::toupper(static_cast<unsigned char>(c)))
                : static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
      }
      return Item::String(std::move(s));
    }
    case Builtin::kStringFn: {
      JPAR_ASSIGN_OR_RETURN(std::string s, LexicalString(vals[0]));
      return Item::String(std::move(s));
    }
    default:
      return Status::Internal("not a string builtin");
  }
}

Result<Item> NumericFunction(Builtin fn, const Item& arg) {
  if (arg.is_sequence() && arg.sequence().empty()) {
    return Item::EmptySequence();
  }
  JPAR_ASSIGN_OR_RETURN(double v, RequireNumeric(arg, "numeric function"));
  switch (fn) {
    case Builtin::kAbs:
      if (arg.is_int64()) {
        int64_t i = arg.int64_value();
        return Item::Int64(i < 0 ? -i : i);
      }
      return Item::Double(std::fabs(v));
    case Builtin::kRound:
      if (arg.is_int64()) return arg;
      // XQuery fn:round: halves round toward positive infinity.
      return Item::Double(std::floor(v + 0.5));
    case Builtin::kFloor:
      if (arg.is_int64()) return arg;
      return Item::Double(std::floor(v));
    case Builtin::kCeiling:
      if (arg.is_int64()) return arg;
      return Item::Double(std::ceil(v));
    default:
      return Status::Internal("not a numeric builtin");
  }
}

Result<Item> DateTimeComponent(Builtin fn, const Item& arg) {
  if (arg.is_sequence() && arg.sequence().empty()) {
    return Item::EmptySequence();
  }
  if (!arg.is_datetime()) {
    return Status::TypeError(std::string(BuiltinToString(fn)) +
                             " requires a dateTime, got " +
                             std::string(ItemKindToString(arg.kind())));
  }
  const DateTimeValue& dt = arg.datetime_value();
  switch (fn) {
    case Builtin::kYearFromDateTime:
      return Item::Int64(dt.year);
    case Builtin::kMonthFromDateTime:
      return Item::Int64(dt.month);
    case Builtin::kDayFromDateTime:
      return Item::Int64(dt.day);
    default:
      return Status::Internal("not a dateTime component builtin");
  }
}

class FunctionEval : public ScalarEval {
 public:
  FunctionEval(Builtin fn, std::vector<ScalarEvalPtr> args)
      : fn_(fn), args_(std::move(args)) {
    if (fn_ == Builtin::kValue && args_.size() == 2) {
      value_key_ = args_[1]->shape_constant();
    }
  }

  Result<Item> Eval(const Tuple& tuple, EvalContext* ctx) const override;

  std::string ToString() const override {
    std::string out(BuiltinToString(fn_));
    out.push_back('(');
    for (size_t i = 0; i < args_.size(); ++i) {
      if (i > 0) out += ", ";
      out += args_[i]->ToString();
    }
    out.push_back(')');
    return out;
  }
  Shape shape() const override { return Shape::kFunction; }
  Builtin shape_function() const override { return fn_; }
  const std::vector<ScalarEvalPtr>* shape_args() const override {
    return &args_;
  }

 private:
  Builtin fn_;
  std::vector<ScalarEvalPtr> args_;
  // value(x, <constant>) reads its key in place, like bytecode's
  // kValueConst: copying the one shared constant per call would bounce
  // its refcount between the cores running sibling partitions.
  const Item* value_key_ = nullptr;
};

Result<Item> EvalCollection(const std::string& name, EvalContext* ctx) {
  // The naive (pre-DATASCAN) semantics: parse every file of the
  // collection and return all documents as one sequence. Deliberately
  // expensive — this is the plan shape the pipelining rules eliminate.
  if (ctx == nullptr || ctx->catalog == nullptr) {
    return Status::Internal("collection() evaluated without a catalog");
  }
  JPAR_ASSIGN_OR_RETURN(const Collection* coll,
                        ctx->catalog->GetCollection(name));
  Item::ItemVector docs;
  docs.reserve(coll->files.size());
  for (const JsonFile& file : coll->files) {
    if (file.is_binary()) {
      JPAR_ASSIGN_OR_RETURN(Item doc, DeserializeItem(*file.binary()));
      ctx->bytes_parsed += file.binary()->size();
      docs.push_back(std::move(doc));
      continue;
    }
    JPAR_ASSIGN_OR_RETURN(std::shared_ptr<const std::string> text,
                          file.Load());
    ctx->bytes_parsed += text->size();
    // Files are document streams (one document or many).
    JPAR_ASSIGN_OR_RETURN(std::vector<Item> file_docs,
                          ParseJsonStream(*text));
    for (Item& doc : file_docs) docs.push_back(std::move(doc));
  }
  if (ctx->memory != nullptr) {
    uint64_t bytes = 0;
    for (const Item& d : docs) bytes += d.EstimateSizeBytes();
    JPAR_RETURN_NOT_OK(ctx->memory->Allocate(bytes));
    ctx->memory->Release(bytes);  // transient: retained only in the tuple
  }
  // A one-document collection must still behave as a collection, so a
  // singleton does not collapse here semantically — MakeSequence's
  // collapse is fine because iterate() treats a non-sequence as a
  // singleton.
  return Item::MakeSequence(std::move(docs));
}

Result<Item> FunctionEval::Eval(const Tuple& tuple, EvalContext* ctx) const {
  // Lazy evaluation for boolean connectives.
  if (fn_ == Builtin::kAnd || fn_ == Builtin::kOr) {
    JPAR_ASSIGN_OR_RETURN(Item lhs, args_[0]->Eval(tuple, ctx));
    JPAR_ASSIGN_OR_RETURN(bool lb, lhs.EffectiveBooleanValue());
    if (fn_ == Builtin::kAnd && !lb) return Item::Boolean(false);
    if (fn_ == Builtin::kOr && lb) return Item::Boolean(true);
    JPAR_ASSIGN_OR_RETURN(Item rhs, args_[1]->Eval(tuple, ctx));
    JPAR_ASSIGN_OR_RETURN(bool rb, rhs.EffectiveBooleanValue());
    return Item::Boolean(rb);
  }

  if (value_key_ != nullptr) {
    JPAR_ASSIGN_OR_RETURN(Item target, args_[0]->Eval(tuple, ctx));
    return ValueStep(target, *value_key_);
  }

  std::vector<Item> vals;
  vals.reserve(args_.size());
  for (const ScalarEvalPtr& arg : args_) {
    JPAR_ASSIGN_OR_RETURN(Item v, arg->Eval(tuple, ctx));
    vals.push_back(std::move(v));
  }
  return ApplyBuiltin(fn_, vals, ctx);
}

}  // namespace

Result<Item> GeneralCompareOp(Builtin fn, const Item& lhs, const Item& rhs) {
  return GeneralCompare(fn, lhs, rhs);
}

Result<Item> ArithmeticOp(Builtin fn, const Item& lhs, const Item& rhs) {
  return Arithmetic(fn, lhs, rhs);
}

Result<Item> ApplyBuiltin(Builtin fn, std::vector<Item>& vals,
                          EvalContext* ctx) {
  switch (fn) {
    case Builtin::kValue:
      return ValueStep(vals[0], vals[1]);
    case Builtin::kKeysOrMembers:
      return KeysOrMembersStep(vals[0]);
    case Builtin::kData:
      return Atomize(vals[0]);
    case Builtin::kPromote:
    case Builtin::kTreat:
    case Builtin::kIterate:
      // promote/treat are dynamic no-ops in this engine's type model
      // (the path rules remove them statically); iterate is handled by
      // UNNEST but degrades to identity as a scalar.
      return vals[0];
    case Builtin::kDateTime: {
      const Item& v = vals[0];
      if (v.is_sequence() && v.sequence().empty()) {
        return Item::EmptySequence();
      }
      if (v.is_datetime()) return v;
      if (!v.is_string()) {
        return Status::TypeError("dateTime() requires a string, got " +
                                 std::string(ItemKindToString(v.kind())));
      }
      JPAR_ASSIGN_OR_RETURN(DateTimeValue dt, ParseDateTime(v.string_value()));
      return Item::DateTime(dt);
    }
    case Builtin::kYearFromDateTime:
    case Builtin::kMonthFromDateTime:
    case Builtin::kDayFromDateTime:
      return DateTimeComponent(fn, vals[0]);
    case Builtin::kEq:
    case Builtin::kNe:
    case Builtin::kLt:
    case Builtin::kLe:
    case Builtin::kGt:
    case Builtin::kGe:
      return GeneralCompare(fn, vals[0], vals[1]);
    case Builtin::kNot: {
      JPAR_ASSIGN_OR_RETURN(bool b, vals[0].EffectiveBooleanValue());
      return Item::Boolean(!b);
    }
    case Builtin::kAdd:
    case Builtin::kSub:
    case Builtin::kMul:
    case Builtin::kDiv:
    case Builtin::kMod:
      return Arithmetic(fn, vals[0], vals[1]);
    case Builtin::kNeg: {
      if (vals[0].is_int64()) return Item::Int64(-vals[0].int64_value());
      JPAR_ASSIGN_OR_RETURN(double d, RequireNumeric(vals[0], "unary minus"));
      return Item::Double(-d);
    }
    case Builtin::kCount:
    case Builtin::kSum:
    case Builtin::kAvg:
    case Builtin::kMin:
    case Builtin::kMax:
      return ScalarAggregate(fn, vals[0]);
    case Builtin::kCollection: {
      if (!vals[0].is_string()) {
        return Status::TypeError("collection() requires a string name");
      }
      return EvalCollection(vals[0].string_value(), ctx);
    }
    case Builtin::kJsonDoc: {
      if (!vals[0].is_string()) {
        return Status::TypeError("json-doc() requires a string name");
      }
      if (ctx == nullptr || ctx->catalog == nullptr) {
        return Status::Internal("json-doc() evaluated without a catalog");
      }
      JPAR_ASSIGN_OR_RETURN(const JsonFile* file,
                            ctx->catalog->GetDocument(vals[0].string_value()));
      JPAR_ASSIGN_OR_RETURN(std::shared_ptr<const std::string> text,
                            file->Load());
      ctx->bytes_parsed += text->size();
      return ParseJson(*text);
    }
    case Builtin::kArrayConstructor: {
      Item::ItemVector elems;
      elems.reserve(vals.size());
      for (Item& v : vals) {
        // JSONiq array constructors flatten sequence arguments.
        if (v.is_sequence()) {
          for (const Item& m : v.sequence()) elems.push_back(m);
        } else {
          elems.push_back(std::move(v));
        }
      }
      return Item::MakeArray(std::move(elems));
    }
    case Builtin::kObjectConstructor: {
      if (vals.size() % 2 != 0) {
        return Status::Internal("object constructor with odd argument count");
      }
      Item::Object fields;
      fields.reserve(vals.size() / 2);
      for (size_t i = 0; i < vals.size(); i += 2) {
        if (!vals[i].is_string()) {
          return Status::TypeError("object key must be a string");
        }
        fields.push_back({vals[i].string_value(), std::move(vals[i + 1])});
      }
      return Item::MakeObject(std::move(fields));
    }
    case Builtin::kSequenceConstructor:
      return Item::MakeSequence(std::move(vals));
    case Builtin::kConcat:
    case Builtin::kSubstring:
    case Builtin::kStringLength:
    case Builtin::kContains:
    case Builtin::kStartsWith:
    case Builtin::kUpperCase:
    case Builtin::kLowerCase:
    case Builtin::kStringFn:
      return StringFunction(fn, vals);
    case Builtin::kAbs:
    case Builtin::kRound:
    case Builtin::kFloor:
    case Builtin::kCeiling:
      return NumericFunction(fn, vals[0]);
    case Builtin::kEmpty:
      return Item::Boolean(vals[0].SequenceLength() == 0);
    case Builtin::kExists:
      return Item::Boolean(vals[0].SequenceLength() > 0);
    case Builtin::kDistinctValues: {
      std::vector<Item> members;
      ExpandSequence(vals[0], &members);
      Item::ItemVector distinct;
      std::set<std::string> seen;
      for (Item& m : members) {
        if (!m.is_atomic()) {
          return Status::TypeError(
              "distinct-values over a non-atomic member");
        }
        std::string key;
        m.AppendGroupKeyTo(&key);
        if (seen.insert(std::move(key)).second) {
          distinct.push_back(std::move(m));
        }
      }
      return Item::MakeSequence(std::move(distinct));
    }
    case Builtin::kBooleanFn: {
      JPAR_ASSIGN_OR_RETURN(bool b, vals[0].EffectiveBooleanValue());
      return Item::Boolean(b);
    }
    case Builtin::kAnd:
    case Builtin::kOr:
      // Lazy connectives are evaluated by the interpreters themselves.
      return Status::Internal("lazy builtin passed to ApplyBuiltin");
  }
  return Status::Internal("unhandled builtin in ApplyBuiltin");
}

std::string_view BuiltinToString(Builtin fn) {
  switch (fn) {
    case Builtin::kValue:
      return "value";
    case Builtin::kKeysOrMembers:
      return "keys-or-members";
    case Builtin::kData:
      return "data";
    case Builtin::kPromote:
      return "promote";
    case Builtin::kTreat:
      return "treat";
    case Builtin::kIterate:
      return "iterate";
    case Builtin::kDateTime:
      return "dateTime";
    case Builtin::kYearFromDateTime:
      return "year-from-dateTime";
    case Builtin::kMonthFromDateTime:
      return "month-from-dateTime";
    case Builtin::kDayFromDateTime:
      return "day-from-dateTime";
    case Builtin::kEq:
      return "eq";
    case Builtin::kNe:
      return "ne";
    case Builtin::kLt:
      return "lt";
    case Builtin::kLe:
      return "le";
    case Builtin::kGt:
      return "gt";
    case Builtin::kGe:
      return "ge";
    case Builtin::kAnd:
      return "and";
    case Builtin::kOr:
      return "or";
    case Builtin::kNot:
      return "not";
    case Builtin::kAdd:
      return "add";
    case Builtin::kSub:
      return "sub";
    case Builtin::kMul:
      return "mul";
    case Builtin::kDiv:
      return "div";
    case Builtin::kMod:
      return "mod";
    case Builtin::kNeg:
      return "neg";
    case Builtin::kCount:
      return "count";
    case Builtin::kSum:
      return "sum";
    case Builtin::kAvg:
      return "avg";
    case Builtin::kMin:
      return "min";
    case Builtin::kMax:
      return "max";
    case Builtin::kCollection:
      return "collection";
    case Builtin::kJsonDoc:
      return "json-doc";
    case Builtin::kArrayConstructor:
      return "array";
    case Builtin::kObjectConstructor:
      return "object";
    case Builtin::kSequenceConstructor:
      return "sequence";
    case Builtin::kConcat:
      return "concat";
    case Builtin::kSubstring:
      return "substring";
    case Builtin::kStringLength:
      return "string-length";
    case Builtin::kContains:
      return "contains";
    case Builtin::kStartsWith:
      return "starts-with";
    case Builtin::kUpperCase:
      return "upper-case";
    case Builtin::kLowerCase:
      return "lower-case";
    case Builtin::kStringFn:
      return "string";
    case Builtin::kAbs:
      return "abs";
    case Builtin::kRound:
      return "round";
    case Builtin::kFloor:
      return "floor";
    case Builtin::kCeiling:
      return "ceiling";
    case Builtin::kEmpty:
      return "empty";
    case Builtin::kExists:
      return "exists";
    case Builtin::kDistinctValues:
      return "distinct-values";
    case Builtin::kBooleanFn:
      return "boolean";
  }
  return "?";
}

Result<Item> ValueStep(const Item& target, const Item& spec) {
  if (target.is_object()) {
    if (!spec.is_string()) {
      // value(object, non-string) selects nothing.
      return Item::EmptySequence();
    }
    const Item* field = target.FindField(spec.string_value());
    if (field == nullptr) return Item::EmptySequence();
    return *field;
  }
  if (target.is_array()) {
    if (!spec.is_int64()) return Item::EmptySequence();
    int64_t index = spec.int64_value();  // 1-based
    const Item::ItemVector& elems = target.array();
    if (index < 1 || static_cast<size_t>(index) > elems.size()) {
      return Item::EmptySequence();
    }
    return elems[static_cast<size_t>(index - 1)];
  }
  if (target.is_sequence()) {
    // JSONiq navigation maps over sequences.
    Item::ItemVector out;
    for (const Item& member : target.sequence()) {
      JPAR_ASSIGN_OR_RETURN(Item v, ValueStep(member, spec));
      ExpandSequence(v, &out);
    }
    return Item::MakeSequence(std::move(out));
  }
  // value() on an atomic selects nothing.
  return Item::EmptySequence();
}

Result<Item> KeysOrMembersStep(const Item& target) {
  if (target.is_array()) {
    Item::ItemVector members = target.array();
    return Item::MakeSequence(std::move(members));
  }
  if (target.is_object()) {
    Item::ItemVector keys;
    keys.reserve(target.object().size());
    for (const ObjectField& f : target.object()) {
      keys.push_back(Item::String(f.key));
    }
    return Item::MakeSequence(std::move(keys));
  }
  if (target.is_sequence()) {
    Item::ItemVector out;
    for (const Item& member : target.sequence()) {
      JPAR_ASSIGN_OR_RETURN(Item v, KeysOrMembersStep(member));
      ExpandSequence(v, &out);
    }
    return Item::MakeSequence(std::move(out));
  }
  return Item::EmptySequence();
}

Result<Item> ScalarAggregate(Builtin fn, const Item& sequence) {
  std::vector<Item> members;
  ExpandSequence(sequence, &members);
  if (fn == Builtin::kCount) {
    return Item::Int64(static_cast<int64_t>(members.size()));
  }
  if (members.empty()) {
    // sum(()) is 0; avg/min/max of the empty sequence are empty.
    if (fn == Builtin::kSum) return Item::Int64(0);
    return Item::EmptySequence();
  }
  if (fn == Builtin::kMin || fn == Builtin::kMax) {
    Item best = members[0];
    for (size_t i = 1; i < members.size(); ++i) {
      JPAR_ASSIGN_OR_RETURN(int c, members[i].Compare(best));
      if ((fn == Builtin::kMin && c < 0) || (fn == Builtin::kMax && c > 0)) {
        best = members[i];
      }
    }
    return best;
  }
  // sum / avg.
  double total = 0;
  bool all_int = true;
  int64_t int_total = 0;
  for (const Item& m : members) {
    JPAR_ASSIGN_OR_RETURN(double v, RequireNumeric(m, "sum/avg"));
    total += v;
    if (m.is_int64()) {
      int_total += m.int64_value();
    } else {
      all_int = false;
    }
  }
  if (fn == Builtin::kSum) {
    if (all_int) return Item::Int64(int_total);
    return Item::Double(total);
  }
  return Item::Double(total / static_cast<double>(members.size()));
}

ScalarEvalPtr MakeConstantEval(Item value) {
  return std::make_shared<ConstantEval>(std::move(value));
}

ScalarEvalPtr MakeColumnEval(int column) {
  return std::make_shared<ColumnEval>(column);
}

Result<ScalarEvalPtr> MakeFunctionEval(Builtin fn,
                                       std::vector<ScalarEvalPtr> args) {
  int arity = BuiltinArity(fn);
  if (arity >= 0 && args.size() != static_cast<size_t>(arity)) {
    return Status::InvalidArgument(
        std::string(BuiltinToString(fn)) + " expects " +
        std::to_string(arity) + " arguments, got " +
        std::to_string(args.size()));
  }
  for (const ScalarEvalPtr& a : args) {
    if (a == nullptr) return Status::Internal("null argument evaluator");
  }
  return ScalarEvalPtr(std::make_shared<FunctionEval>(fn, std::move(args)));
}

}  // namespace jpar
