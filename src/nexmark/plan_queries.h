// NEXMark Q1-Q8 authored on the declarative plan layer (src/plan/): the
// logical plans here, lowered with fusion on, give QueryPlans
// structurally identical to the imperative builders in queries.cc — same
// stage names, stream names, operator chains, and UDFs (the named
// functions in udfs.h back both paths). tests/plan_nexmark_parity_test.cc
// holds that equivalence as the correctness oracle.
#ifndef IMPELLER_SRC_NEXMARK_PLAN_QUERIES_H_
#define IMPELLER_SRC_NEXMARK_PLAN_QUERIES_H_

#include "src/nexmark/queries.h"
#include "src/plan/explain.h"
#include "src/plan/ir.h"
#include "src/plan/lowering.h"
#include "src/plan/registry.h"

namespace impeller {
namespace nexmark {

// Registry mapping every NEXMark UDF handle to the shared named functions
// in udfs.h. Built once on first use and never changed after, so every
// plan build shares it.
const plan::UdfRegistry& NexmarkUdfRegistry();

// The logical (unfused) plan for query `number` (1-8).
Result<plan::LogicalPlan> BuildNexmarkLogicalPlan(
    int number, const NexmarkQueryOptions& options = {});

struct NexmarkPlanQuery {
  plan::LogicalPlan logical;
  plan::LoweredPlan lowered;
};

// Full pipeline: build the logical plan and lower it (`fuse` false = every
// operator its own stage, the ablation baseline).
Result<NexmarkPlanQuery> BuildNexmarkPlanQuery(
    int number, const NexmarkQueryOptions& options = {}, bool fuse = true);

// Name of the lowered stage carrying the sink (its egress stream is
// "<query>.<stage>.out"). With fusion on this equals NexmarkSinkStage().
Result<std::string> PlanSinkStage(const plan::LoweredPlan& lowered);

}  // namespace nexmark
}  // namespace impeller

#endif  // IMPELLER_SRC_NEXMARK_PLAN_QUERIES_H_
