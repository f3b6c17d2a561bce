#include "dist/fragment.h"

namespace jpar {

namespace {

/// Expressions that read the catalog directly (collection(), json-doc())
/// cannot run on a leaf fragment: leaves execute over a *sliced*
/// catalog, so such an eval would see one worker's file subset instead
/// of the whole collection. Conservatively reject the plan; the
/// dispatcher falls back to single-process execution.
Status CheckEval(const ScalarEvalPtr& eval) {
  if (eval == nullptr) return Status::OK();
  std::string s = eval->ToString();
  if (s.find("collection(") != std::string::npos ||
      s.find("json-doc(") != std::string::npos) {
    return Status::Unsupported(
        "distributed execution: expression reads a data source directly: " +
        s);
  }
  return Status::OK();
}

Status CheckEvals(const std::vector<ScalarEvalPtr>& evals) {
  for (const ScalarEvalPtr& e : evals) JPAR_RETURN_NOT_OK(CheckEval(e));
  return Status::OK();
}

Status CheckOps(const std::vector<UnaryOpDesc>& ops) {
  for (const UnaryOpDesc& op : ops) {
    JPAR_RETURN_NOT_OK(CheckEval(op.eval));
    if (op.subplan != nullptr) {
      JPAR_RETURN_NOT_OK(CheckOps(op.subplan->ops));
      for (const AggSpec& agg : op.subplan->aggs) {
        JPAR_RETURN_NOT_OK(CheckEval(agg.arg));
      }
    }
  }
  return Status::OK();
}

class Builder {
 public:
  Result<StagePlan> Split(const PhysicalPlan& plan) {
    if (plan.root == nullptr) {
      return Status::InvalidArgument("physical plan has no root");
    }
    JPAR_ASSIGN_OR_RETURN(int root_stage, Build(*plan.root));
    (void)root_stage;  // last stage; stays unshuffled = gather
    plan_.result_column = plan.result_column;
    return std::move(plan_);
  }

 private:
  Result<int> Build(const PNode& node) {
    switch (node.kind) {
      case PNode::Kind::kPipeline:
        return BuildPipeline(node);
      case PNode::Kind::kGroupBy:
        return BuildGroupBy(node);
      case PNode::Kind::kJoin:
        return BuildJoin(node);
      case PNode::Kind::kSort:
        return Status::Unsupported(
            "distributed execution: SORT is not distributed yet");
    }
    return Status::Internal("unknown physical node kind");
  }

  Result<int> BuildPipeline(const PNode& node) {
    JPAR_RETURN_NOT_OK(CheckOps(node.ops));
    if (node.input == nullptr) {
      if (node.scan.kind != ScanDesc::Kind::kDataScan) {
        return Status::Unsupported(
            "distributed execution: plan scans via EMPTY-TUPLE-SOURCE "
            "(enable the pipelining rules)");
      }
      if (node.scan.use_index) {
        return Status::Unsupported(
            "distributed execution: index-assisted scans prune files "
            "globally and cannot be sliced per worker");
      }
      FragmentStage stage;
      stage.id = static_cast<int>(plan_.stages.size());
      stage.core = FragmentStage::Core::kLeaf;
      stage.core_node = &node;  // the whole subtree, ops included
      plan_.stages.push_back(std::move(stage));
      return plan_.stages.back().id;
    }
    // A pipeline over another operator runs partition-wise on whatever
    // worker produced its input: append the ops to that stage.
    JPAR_ASSIGN_OR_RETURN(int producer, Build(*node.input));
    FragmentStage& stage = plan_.stages[static_cast<size_t>(producer)];
    for (const UnaryOpDesc& op : node.ops) stage.post_ops.push_back(op);
    return producer;
  }

  Result<int> BuildGroupBy(const PNode& node) {
    JPAR_RETURN_NOT_OK(CheckEvals(node.keys));
    for (const AggSpec& agg : node.aggs) {
      JPAR_RETURN_NOT_OK(CheckEval(agg.arg));
    }
    JPAR_ASSIGN_OR_RETURN(int producer, Build(*node.input));
    const bool two_step = Executor::GroupByUsesTwoStep(node);
    {
      FragmentStage& prod = plan_.stages[static_cast<size_t>(producer)];
      if (two_step) prod.local_groupby = &node;
      prod.shuffle_keys = Executor::GroupKeyEvals(
          node, two_step ? AggStep::kGlobal : AggStep::kComplete);
      prod.shuffled = true;
    }
    FragmentStage merge;
    merge.id = static_cast<int>(plan_.stages.size());
    merge.core = FragmentStage::Core::kGroupByMerge;
    merge.core_node = &node;
    merge.from_partials = two_step;
    merge.inputs.push_back(producer);
    plan_.stages.push_back(std::move(merge));
    return plan_.stages.back().id;
  }

  Result<int> BuildJoin(const PNode& node) {
    JPAR_RETURN_NOT_OK(CheckEvals(node.left_keys));
    JPAR_RETURN_NOT_OK(CheckEvals(node.right_keys));
    JPAR_RETURN_NOT_OK(CheckEval(node.residual));
    JPAR_ASSIGN_OR_RETURN(int left, Build(*node.left));
    {
      FragmentStage& stage = plan_.stages[static_cast<size_t>(left)];
      stage.shuffle_keys = node.left_keys;
      stage.shuffled = true;
    }
    JPAR_ASSIGN_OR_RETURN(int right, Build(*node.right));
    {
      FragmentStage& stage = plan_.stages[static_cast<size_t>(right)];
      stage.shuffle_keys = node.right_keys;
      stage.shuffled = true;
    }
    FragmentStage join;
    join.id = static_cast<int>(plan_.stages.size());
    join.core = FragmentStage::Core::kJoin;
    join.core_node = &node;
    join.inputs.push_back(left);
    join.inputs.push_back(right);
    plan_.stages.push_back(std::move(join));
    return plan_.stages.back().id;
  }

  StagePlan plan_;
};

}  // namespace

Result<StagePlan> SplitPlanForDistribution(const PhysicalPlan& plan) {
  Builder builder;
  return builder.Split(plan);
}

}  // namespace jpar
