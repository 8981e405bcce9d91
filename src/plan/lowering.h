// Compiles a LogicalPlan onto the imperative QueryPlan machinery
// (src/core/query.h) in one pass: validate, fuse (src/plan/optimizer.h),
// lower. Each fused group becomes one stage, each edge between groups
// becomes one log-backed stream, UDF handles resolve against a
// UdfRegistry. The engine, protocols, and sharding layers are untouched —
// a lowered plan is indistinguishable from a hand-built one.
#ifndef IMPELLER_SRC_PLAN_LOWERING_H_
#define IMPELLER_SRC_PLAN_LOWERING_H_

#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/core/query.h"
#include "src/plan/optimizer.h"
#include "src/plan/registry.h"

namespace impeller {
namespace plan {

// Per-stage record of what lowering did, consumed by Explain().
struct LoweredStage {
  std::string name;
  uint32_t tasks = 0;
  bool stateful = false;
  std::vector<std::string> node_ids;  // fused plan nodes, chain order
  std::vector<std::string> operators;  // human-readable operator labels
  std::vector<std::string> inputs;    // stream names, positional
  std::vector<std::string> outputs;   // stream names (incl. egress)
  bool fans_out = false;  // a FanOut tail broadcasts to every output
};

struct LoweredPlan {
  QueryPlan query;
  std::vector<LoweredStage> stages;
  std::vector<std::string> ingress;  // external streams, declaration order
  std::vector<std::pair<std::string, std::string>> fused_edges;
  std::string pass_log;  // fusion's one-line summary

  int hops_eliminated() const { return static_cast<int>(fused_edges.size()); }
};

// Stream name carrying `producer`'s output to `consumer` when that edge
// crosses a stage boundary. Single-consumer edges use the producer's
// stream hint (or "<plan>.<producer-id>"); fan-out edges append the
// consumer id so each boundary stream keeps exactly one consumer.
std::string BoundaryStreamName(const LogicalPlan& plan,
                               const PlanNode& producer,
                               std::string_view consumer_id);

// Validates `plan` (it may come from anywhere, not only PlanBuilder::Build
// or FromJson), groups it with FuseStages(plan, fuse) and lowers the
// groups. Fails with actionable messages when the plan is invalid, a UDF
// handle is unregistered, or the plan shape cannot map onto the stage model
// (e.g. an ingress stream with two consuming nodes).
Result<LoweredPlan> LowerPlan(const LogicalPlan& plan,
                              const UdfRegistry& registry, bool fuse = true);

}  // namespace plan
}  // namespace impeller

#endif  // IMPELLER_SRC_PLAN_LOWERING_H_
