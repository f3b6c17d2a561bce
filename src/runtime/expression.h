#ifndef JPAR_RUNTIME_EXPRESSION_H_
#define JPAR_RUNTIME_EXPRESSION_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "json/item.h"
#include "runtime/catalog.h"
#include "runtime/memory.h"
#include "runtime/tuple.h"

namespace jpar {

/// Builtin functions of the JSONiq-extension subset. Scalar aggregate
/// forms (kCount..kMax) operate on a whole sequence at once — these are
/// the "before group-by rules" semantics; the incremental aggregators in
/// runtime/aggregates.h are the rewritten form.
enum class Builtin : uint8_t {
  // JSONiq navigation (paper §3.2 terminology).
  kValue,           // value(target, key-or-index)
  kKeysOrMembers,   // keys-or-members(target)
  // XQuery coercions the path rules eliminate.
  kData,            // data(x): atomization
  kPromote,         // promote(x): type promotion (identity here)
  kTreat,           // treat(x): runtime type assertion (identity here)
  kIterate,         // iterate(x): unnest a sequence (UNNEST's expression)
  // Date/time functions used by the sensor queries.
  kDateTime,
  kYearFromDateTime,
  kMonthFromDateTime,
  kDayFromDateTime,
  // General comparisons (XQuery existential semantics over sequences).
  kEq,
  kNe,
  kLt,
  kLe,
  kGt,
  kGe,
  // Boolean connectives.
  kAnd,
  kOr,
  kNot,
  // Arithmetic.
  kAdd,
  kSub,
  kMul,
  kDiv,
  kMod,
  kNeg,
  // Scalar (sequence-at-once) aggregates.
  kCount,
  kSum,
  kAvg,
  kMin,
  kMax,
  // Data access.
  kCollection,      // collection("name"): ALL documents as one sequence
  kJsonDoc,         // json-doc("name"): one parsed document
  // Constructors.
  kArrayConstructor,
  kObjectConstructor,  // args alternate key, value
  kSequenceConstructor,  // (a, b, ...): the comma operator, flattened
  // String functions (XQuery F&O subset).
  kConcat,          // variadic
  kSubstring,       // substring(s, start[, length]) — 1-based
  kStringLength,
  kContains,
  kStartsWith,
  kUpperCase,
  kLowerCase,
  kStringFn,        // string(x): lexical form
  // Numeric functions.
  kAbs,
  kRound,
  kFloor,
  kCeiling,
  // Sequence predicates and utilities.
  kEmpty,           // empty(seq)
  kExists,          // exists(seq)
  kDistinctValues,  // distinct-values(seq)
  kBooleanFn,       // boolean(x): effective boolean value
};

std::string_view BuiltinToString(Builtin fn);

/// Services available while evaluating expressions.
struct EvalContext {
  const Catalog* catalog = nullptr;
  MemoryTracker* memory = nullptr;
  /// Bytes of JSON text parsed by collection()/json-doc() during
  /// evaluation (feeds ExecStats::bytes_scanned).
  uint64_t bytes_parsed = 0;

  /// Hyracks frame-write cost model: every tuple crossing an operator
  /// boundary is serialized into a (reusable) frame buffer — real work,
  /// so carrying a materialized sequence through the pipeline costs
  /// what it would cost in Hyracks. The statistics feed the per-stage
  /// max-tuple/pipeline-bytes numbers the benches report.
  bool charge_boundaries = true;
  std::string frame_scratch;
  uint64_t boundary_bytes = 0;
  uint64_t boundary_tuples = 0;
  uint64_t max_tuple_bytes = 0;
};

class ScalarEval;
using ScalarEvalPtr = std::shared_ptr<const ScalarEval>;

/// A compiled scalar expression evaluated against one tuple. Thread-safe
/// once constructed (no mutable state); shared between partitions.
class ScalarEval {
 public:
  /// Structural introspection for the bytecode compiler
  /// (runtime/expr_compile.*): a node advertises its shape so the
  /// compiler can flatten the tree without knowing the concrete types.
  /// kOpaque means "not compilable" — the whole expression then stays
  /// on the legacy tree interpreter.
  enum class Shape : uint8_t { kConstant, kColumn, kFunction, kOpaque };

  virtual ~ScalarEval() = default;
  virtual Result<Item> Eval(const Tuple& tuple, EvalContext* ctx) const = 0;
  /// Human-readable form for plan printing and tests.
  virtual std::string ToString() const = 0;

  virtual Shape shape() const { return Shape::kOpaque; }
  /// Valid iff shape() == kConstant.
  virtual const Item* shape_constant() const { return nullptr; }
  /// Valid iff shape() == kColumn.
  virtual int shape_column() const { return -1; }
  /// Valid iff shape() == kFunction.
  virtual Builtin shape_function() const { return Builtin::kValue; }
  virtual const std::vector<ScalarEvalPtr>* shape_args() const {
    return nullptr;
  }
};

ScalarEvalPtr MakeConstantEval(Item value);
ScalarEvalPtr MakeColumnEval(int column);
/// Builds a builtin function evaluator; verifies arity.
Result<ScalarEvalPtr> MakeFunctionEval(Builtin fn,
                                       std::vector<ScalarEvalPtr> args);

/// The dynamic semantics of value(): field lookup on objects, 1-based
/// indexing on arrays, mapping over sequences, empty sequence otherwise.
/// Exposed for the DATASCAN runtime and the baselines.
Result<Item> ValueStep(const Item& target, const Item& spec);

/// keys-or-members(): members of an array, keys of an object, mapping
/// over sequences, empty sequence otherwise.
Result<Item> KeysOrMembersStep(const Item& target);

/// Scalar aggregate over a (possibly single-item) sequence.
Result<Item> ScalarAggregate(Builtin fn, const Item& sequence);

/// Applies an eager builtin to already-evaluated arguments — the body of
/// the tree interpreter after argument evaluation, shared with the
/// vectorized bytecode interpreter so both paths are one implementation.
/// `vals` may be consumed (moved from). The lazy connectives kAnd/kOr
/// are not eager and return Internal here.
Result<Item> ApplyBuiltin(Builtin fn, std::vector<Item>& vals,
                          EvalContext* ctx);

/// General comparison (kEq..kGe) with XQuery existential sequence
/// semantics; exposed for fused batch kernels.
Result<Item> GeneralCompareOp(Builtin fn, const Item& lhs, const Item& rhs);

/// Binary arithmetic (kAdd..kMod) with empty-sequence propagation and
/// the int64 fast path; exposed for fused batch kernels.
Result<Item> ArithmeticOp(Builtin fn, const Item& lhs, const Item& rhs);

}  // namespace jpar

#endif  // JPAR_RUNTIME_EXPRESSION_H_
