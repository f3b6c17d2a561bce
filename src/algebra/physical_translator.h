#ifndef JPAR_ALGEBRA_PHYSICAL_TRANSLATOR_H_
#define JPAR_ALGEBRA_PHYSICAL_TRANSLATOR_H_

#include "algebra/logical_plan.h"
#include "algebra/rewriter.h"
#include "common/result.h"
#include "runtime/executor.h"
#include "stats/cost_model.h"

namespace jpar {

/// Options controlling logical -> physical translation.
struct PhysicalOptions {
  /// Algebricks two-step aggregation: GROUP-BY and AGGREGATE operators
  /// with incremental aggregate functions pre-aggregate per partition
  /// and merge globally (paper §4.3, "partitioned computation").
  bool two_step_aggregation = true;
  /// Compile ASSIGN/SELECT expression trees to flat postfix bytecode
  /// (DESIGN.md §13) so the executor's batch pipelines can run them
  /// vectorized. Off when the engine runs in ExprMode::kTree or the
  /// JPAR_DISABLE_EXPR_BYTECODE env kill-switch is set.
  bool compile_expr_bytecode = true;
  /// Record the scan filter on leaf DATASCANs whose leading SELECTs
  /// read the scanned item only through constant-key value() steps
  /// (RuleOptions::scan_filter, DESIGN.md §9).
  bool scan_filter = true;
  /// Sampled-statistics cost model (DESIGN.md §15), or null. When set
  /// and enabled, the translator attaches answer-preserving physical
  /// annotations: scan access hints, morsel-size and spill-fanout
  /// hints, and the hash-join build side. Plan *structure* never
  /// depends on it — distributed workers recompile fragments against
  /// their own stats and must produce the same operator tree.
  const CostModel* cost_model = nullptr;
};

/// Lowers an optimized logical plan to the executor's physical plan:
/// assigns tuple columns to variables, compiles expressions to
/// evaluators, fuses streaming operators into pipelines, and maps
/// GROUP-BY/AGGREGATE/JOIN to their partitioned physical forms.
Result<PhysicalPlan> TranslateToPhysical(const LogicalPlan& plan,
                                         const PhysicalOptions& options);

}  // namespace jpar

#endif  // JPAR_ALGEBRA_PHYSICAL_TRANSLATOR_H_
