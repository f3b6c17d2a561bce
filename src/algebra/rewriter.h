#ifndef JPAR_ALGEBRA_REWRITER_H_
#define JPAR_ALGEBRA_REWRITER_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "algebra/logical_plan.h"
#include "common/result.h"

namespace jpar {

/// Toggles for the paper's three rewrite-rule categories (§4) plus the
/// auxiliary join rule and Algebricks' two-step aggregation. Each
/// benchmark enables them cumulatively, exactly like the paper's
/// Figures 13-15.
struct RuleOptions {
  bool path_rules = true;        // §4.1
  bool pipelining_rules = true;  // §4.2
  /// Sub-toggle of the pipelining rules: when false, DATASCAN is still
  /// introduced (partitioned scans) but value()/keys-or-members() are
  /// NOT merged into its second argument. This models AsterixDB, which
  /// shares Algebricks' DATASCAN but lacks the paper's JSONiq pushdown
  /// rules and therefore materializes whole arrays before unnesting.
  bool pipelining_pushdown = true;
  bool groupby_rules = true;     // §4.3
  /// Algebricks two-step (local/global) aggregation, activated by the
  /// group-by rules in the paper; applied during physical translation.
  bool two_step_aggregation = true;
  /// Converts SELECT-over-cross-product into hash equi-joins (needed to
  /// run Q2 at scale regardless of the JSONiq rule sets).
  bool join_rules = true;
  /// Extension (the paper's future work, §6): use catalog path indexes
  /// to prune the files an equality-filtered DATASCAN reads. Off by
  /// default — indexes must be built explicitly via
  /// Catalog::BuildPathIndex.
  bool index_rules = false;
  /// Extension (DESIGN.md §9): filter before build. The leaf DATASCAN
  /// tests its pipeline's leading SELECTs on a slim record of the
  /// fields they read and builds only the objects that pass. Applied
  /// during physical translation; answer-preserving.
  bool scan_filter = true;

  static RuleOptions None() {
    RuleOptions o;
    o.path_rules = o.pipelining_rules = o.groupby_rules = false;
    o.two_step_aggregation = false;
    o.scan_filter = false;
    o.join_rules = true;  // join extraction is kept: cross products of
                          // the sensor data are infeasible even scaled
    return o;
  }
  static RuleOptions All() { return RuleOptions(); }
};

class CostModel;

/// Context handed to rules: access to the whole plan for variable-usage
/// queries and substitutions, plus the catalog for metadata-dependent
/// rules (index selection) and the optional sampled-statistics cost
/// model (DESIGN.md §15) for cost-aware ones.
struct RewriteContext {
  LOpPtr root;
  const Catalog* catalog = nullptr;
  const CostModel* cost_model = nullptr;
};

/// A single rewrite rule. Apply() examines the operator in `slot`
/// (whose inputs/nested plans have already been visited this pass) and
/// may replace or restructure it. Returns true when it changed the
/// plan.
class RewriteRule {
 public:
  virtual ~RewriteRule() = default;
  virtual std::string_view name() const = 0;
  virtual Result<bool> Apply(LOpPtr& slot, RewriteContext* ctx) = 0;
};

/// Runs the configured rule sets to fixpoint, in the paper's category
/// order: path-expression rules, then pipelining rules, then group-by
/// rules (each category itself iterated to fixpoint).
class RewriteEngine {
 public:
  explicit RewriteEngine(RuleOptions options);

  /// Rewrites the plan in place (the root pointer may be replaced).
  /// Returns the names of rules that fired, in order. `catalog` (may be
  /// null) enables metadata-dependent rules such as index selection;
  /// `cost_model` (may be null) lets those rules weigh their
  /// annotations against sampled statistics.
  Result<std::vector<std::string>> Rewrite(
      LogicalPlan* plan, const Catalog* catalog = nullptr,
      const CostModel* cost_model = nullptr);

 private:
  Result<bool> RunRuleSet(
      LogicalPlan* plan, const Catalog* catalog,
      const CostModel* cost_model,
      const std::vector<std::unique_ptr<RewriteRule>>& rules,
      std::vector<std::string>* fired);

  RuleOptions options_;
  std::vector<std::unique_ptr<RewriteRule>> path_rules_;
  std::vector<std::unique_ptr<RewriteRule>> pipelining_rules_;
  std::vector<std::unique_ptr<RewriteRule>> groupby_rules_;
  std::vector<std::unique_ptr<RewriteRule>> join_rules_;
  std::vector<std::unique_ptr<RewriteRule>> index_rules_;
};

// Rule factories (implementations in algebra/rules/*).
// Path expression rules (paper §4.1).
std::unique_ptr<RewriteRule> MakeRemovePromoteDataRule();
std::unique_ptr<RewriteRule> MakeMergeKeysOrMembersIntoUnnestRule();
// Pipelining rules (paper §4.2).
std::unique_ptr<RewriteRule> MakeIntroduceDataScanRule();
std::unique_ptr<RewriteRule> MakePushValueIntoDataScanRule();
std::unique_ptr<RewriteRule> MakePushKeysOrMembersIntoDataScanRule();
std::unique_ptr<RewriteRule> MakeElideTrivialUnnestIterateRule();
// Group-by rules (paper §4.3).
std::unique_ptr<RewriteRule> MakeRemoveRedundantTreatRule();
std::unique_ptr<RewriteRule> MakeConvertScalarToAggregateRule();
std::unique_ptr<RewriteRule> MakePushAggregateIntoGroupByRule();
// Join normalization.
std::unique_ptr<RewriteRule> MakeExtractJoinConditionRule();
// Index selection (extension; paper §6 future work).
std::unique_ptr<RewriteRule> MakeUsePathIndexRule();

}  // namespace jpar

#endif  // JPAR_ALGEBRA_REWRITER_H_
