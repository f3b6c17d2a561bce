#include "core/engine.h"

#include "jsoniq/parser.h"
#include "jsoniq/translator.h"

namespace jpar {

Engine::Engine(EngineOptions options) : options_(options) {}

Result<CompiledQuery> Engine::Compile(std::string_view query) const {
  return Compile(query, options_.rules);
}

Result<CompiledQuery> Engine::Compile(std::string_view query,
                                      const RuleOptions& rules) const {
  return Compile(query, rules, options_.exec);
}

Result<CompiledQuery> Engine::Compile(std::string_view query,
                                      const RuleOptions& rules,
                                      const ExecOptions& exec) const {
  JPAR_ASSIGN_OR_RETURN(AstPtr ast, ParseQuery(query));
  JPAR_ASSIGN_OR_RETURN(LogicalPlan plan, TranslateToLogical(ast));

  CompiledQuery compiled;
  compiled.original_plan = plan.ToString();

  // The cost model lives for this compilation only: estimates are
  // advisory annotations, so a plan compiled against stale or missing
  // stats still returns identical answers (DESIGN.md §15).
  CostModel cost_model(&catalog_, exec.stats_mode,
                       StorageConfig{exec.storage_cache_dir});

  RewriteEngine rewriter(rules);
  JPAR_ASSIGN_OR_RETURN(compiled.fired_rules,
                        rewriter.Rewrite(&plan, &catalog_, &cost_model));
  // Algebricks-core variable pruning: always on, independent of the
  // JSONiq rule categories (see InsertProjections).
  JPAR_RETURN_NOT_OK(InsertProjections(&plan));
  compiled.optimized_plan = plan.ToString();

  PhysicalOptions popts;
  popts.two_step_aggregation = rules.two_step_aggregation;
  popts.scan_filter = rules.scan_filter;
  // No point paying compilation (or carrying programs into the plan
  // cache) when the engine will never run them.
  popts.compile_expr_bytecode = options_.exec.expr_mode != ExprMode::kTree &&
                                !ExprBytecodeDisabledByEnv();
  popts.cost_model = &cost_model;
  JPAR_ASSIGN_OR_RETURN(compiled.physical, TranslateToPhysical(plan, popts));
  compiled.logical = std::move(plan);
  return compiled;
}

Result<QueryOutput> Engine::Execute(const CompiledQuery& query) const {
  return Execute(query, options_.exec);
}

Result<QueryOutput> Engine::Execute(const CompiledQuery& query,
                                    const ExecOptions& exec) const {
  QueryContext ctx;
  if (exec.deadline_ms > 0) ctx.set_deadline_after_ms(exec.deadline_ms);
  return Execute(query, exec, &ctx);
}

Result<QueryOutput> Engine::Execute(const CompiledQuery& query,
                                    const ExecOptions& exec,
                                    QueryContext* ctx) const {
  Executor executor(&catalog_, exec, ctx);
  return executor.Run(query.physical);
}

Result<QueryOutput> Engine::Run(std::string_view query) const {
  JPAR_ASSIGN_OR_RETURN(CompiledQuery compiled, Compile(query));
  return Execute(compiled);
}

}  // namespace jpar
