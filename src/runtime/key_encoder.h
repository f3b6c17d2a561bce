#ifndef JPAR_RUNTIME_KEY_ENCODER_H_
#define JPAR_RUNTIME_KEY_ENCODER_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "runtime/expression.h"
#include "runtime/tuple.h"

namespace jpar {

/// Encodes the grouping or join key of a tuple: for each key expression
/// in order, its value's Item::AppendGroupKeyTo bytes and a '\0'. Equal
/// keys (1 and 1.0 included) encode to equal bytes; the hash exchange
/// routes on them and the group-by and join tables match on them.
///
/// The keys the paper queries use, `value($c, "<string constant>")` and
/// `$c`, are read straight from the tuple's object or column, with no
/// Item copy; every other expression, and a `value()` whose target is
/// not an object, goes through ScalarEval::Eval. Both produce the same
/// bytes and the same errors.
class KeyEncoder {
 public:
  explicit KeyEncoder(const std::vector<ScalarEvalPtr>& evals);

  /// Replaces *out with `tuple`'s encoded key; with `key_items`
  /// non-null, also replaces it with the key values.
  Status Encode(const Tuple& tuple, EvalContext* ctx, std::string* out,
                Tuple* key_items = nullptr) const;

 private:
  struct Part {
    ScalarEvalPtr eval;
    int column = -1;                    // $column or value($column, field)
    const std::string* field = nullptr;  // value()'s constant key
  };

  std::vector<Part> parts_;
  std::string empty_sequence_;  // the bytes of a missing field's ()
};

}  // namespace jpar

#endif  // JPAR_RUNTIME_KEY_ENCODER_H_
