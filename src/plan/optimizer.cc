// Operator fusion: packs linear chains of plan nodes into shared stages so
// records cross one shared-log hop per *stage* boundary instead of one per
// *operator* boundary. Each fused edge deletes an append + read round trip
// against the log — the dominant per-record latency term.
//
// A node starts a new stage (instead of fusing into its producer's) when:
//   - fusion is disabled (ablation baseline: every operator its own stage);
//   - it is a join (two inputs cannot share one upstream chain);
//   - its producer is a source (sources lower to ingress streams, not
//     stages, so the first real operator always heads a stage);
//   - its producer has more than one consumer (the producer's stage must
//     end there and fan its output across several boundary streams);
//   - it is stateful and its producer's stage re-keyed the records (a
//     key_by earlier in the same stage): state is partitioned by key, and
//     records only migrate to the partition owning their new key by
//     crossing a log boundary whose partitioner hashes that key. Fusing
//     across the re-key would leave state on the wrong shard.
//
// Everything else — stateless operators, sinks, stateful operators whose
// input partitioning is already correct — fuses.
#include "src/plan/optimizer.h"

#include <map>

namespace impeller {
namespace plan {

StageGrouping FuseStages(const LogicalPlan& plan, bool fuse) {
  StageGrouping out;
  // Per-group bookkeeping, indexed by position in out.groups.
  std::vector<bool> rekeyed;  // a key_by ran since the group started
  std::map<std::string, size_t> group_index;  // node id -> group

  for (const std::string& id : plan.TopoOrder()) {
    const PlanNode* node = plan.FindNode(id);
    if (node->kind == OpKind::kSource) {
      continue;
    }

    bool head = true;
    if (fuse && node->inputs.size() == 1) {
      const PlanNode* producer = plan.FindNode(node->inputs[0]);
      if (producer->kind != OpKind::kSource &&
          plan.ConsumersOf(producer->id).size() == 1) {
        size_t gi = group_index.at(producer->id);
        bool needs_repartition = !IsStatelessKind(node->kind) && rekeyed[gi];
        head = needs_repartition;
      }
    }

    if (head) {
      group_index[id] = out.groups.size();
      out.groups.push_back({id});
      rekeyed.push_back(node->kind == OpKind::kKeyBy);
    } else {
      size_t gi = group_index.at(node->inputs[0]);
      group_index[id] = gi;
      out.groups[gi].push_back(id);
      rekeyed[gi] = rekeyed[gi] || node->kind == OpKind::kKeyBy;
      out.fused_edges.emplace_back(node->inputs[0], id);
    }
  }

  out.note = fuse ? "fusion: " + std::to_string(out.fused_edges.size()) +
                        " edge(s) fused; " +
                        std::to_string(out.groups.size()) + " stage(s)"
                  : "fusion(off): fusion disabled; " +
                        std::to_string(out.groups.size()) +
                        " single-operator stage(s)";
  return out;
}

}  // namespace plan
}  // namespace impeller
