#include "runtime/key_encoder.h"

namespace jpar {

KeyEncoder::KeyEncoder(const std::vector<ScalarEvalPtr>& evals) {
  Item::EmptySequence().AppendGroupKeyTo(&empty_sequence_);
  parts_.reserve(evals.size());
  for (const ScalarEvalPtr& eval : evals) {
    Part part{eval};
    if (eval->shape() == ScalarEval::Shape::kColumn) {
      part.column = eval->shape_column();
    } else if (eval->shape() == ScalarEval::Shape::kFunction &&
               eval->shape_function() == Builtin::kValue) {
      const std::vector<ScalarEvalPtr>& args = *eval->shape_args();
      if (args.size() == 2 &&
          args[0]->shape() == ScalarEval::Shape::kColumn &&
          args[1]->shape() == ScalarEval::Shape::kConstant &&
          args[1]->shape_constant()->is_string()) {
        part.column = args[0]->shape_column();
        part.field = &args[1]->shape_constant()->string_value();
      }
    }
    parts_.push_back(std::move(part));
  }
}

Status KeyEncoder::Encode(const Tuple& tuple, EvalContext* ctx,
                          std::string* out, Tuple* key_items) const {
  out->clear();
  if (key_items != nullptr) key_items->clear();
  for (const Part& part : parts_) {
    const Item* target =
        part.column >= 0 && static_cast<size_t>(part.column) < tuple.size()
            ? &tuple[static_cast<size_t>(part.column)]
            : nullptr;
    if (target != nullptr && part.field == nullptr) {
      target->AppendGroupKeyTo(out);
      if (key_items != nullptr) key_items->push_back(*target);
    } else if (target != nullptr && target->is_object()) {
      // ValueStep on an object: the first field named `field`, else ().
      const Item* value = target->FindField(*part.field);
      if (value != nullptr) {
        value->AppendGroupKeyTo(out);
        if (key_items != nullptr) key_items->push_back(*value);
      } else {
        out->append(empty_sequence_);
        if (key_items != nullptr) key_items->push_back(Item::EmptySequence());
      }
    } else {
      JPAR_ASSIGN_OR_RETURN(Item k, part.eval->Eval(tuple, ctx));
      k.AppendGroupKeyTo(out);
      if (key_items != nullptr) key_items->push_back(std::move(k));
    }
    out->push_back('\0');
  }
  return Status::OK();
}

}  // namespace jpar
