// The plan layer's one optimizer step: operator fusion. It decides which
// plan nodes share a stage; lowering (src/plan/lowering.h) turns each group
// into one stage of the imperative QueryPlan. Every edge fusion keeps inside
// a stage deletes one shared-log append/read round trip.
//
// Nothing here rewrites the plan: fusion only groups nodes, so the plan
// validated at the lowering entry is the plan that lowers.
#ifndef IMPELLER_SRC_PLAN_OPTIMIZER_H_
#define IMPELLER_SRC_PLAN_OPTIMIZER_H_

#include <string>
#include <utility>
#include <vector>

#include "src/plan/ir.h"

namespace impeller {
namespace plan {

// Fusion's output. It lives beside the IR, not in it, so LogicalPlan stays
// serializable without derived state.
struct StageGrouping {
  // Node ids per stage, each group a linear operator chain listed
  // head-first, groups in deterministic topological order. Source nodes are
  // not grouped: they lower to ingress streams, not stages.
  std::vector<std::vector<std::string>> groups;
  // Fused producer->consumer edges; each one is a log hop that no longer
  // exists in the lowered plan.
  std::vector<std::pair<std::string, std::string>> fused_edges;
  // One-line summary, surfaced in Explain()'s pass log.
  std::string note;
};

// Groups `plan`'s nodes into stages. `fuse` true packs maximal linear
// operator chains into single stages; false gives every operator its own
// stage, the "every boundary is a log hop" strawman the ablation benchmark
// measures against. `plan` must be valid (LogicalPlan::Validate).
StageGrouping FuseStages(const LogicalPlan& plan, bool fuse);

}  // namespace plan
}  // namespace impeller

#endif  // IMPELLER_SRC_PLAN_OPTIMIZER_H_
