#include "src/plan/lowering.h"

#include <set>
#include <utility>

namespace impeller {
namespace plan {
namespace {

// Appended as the tail of a stage whose output feeds several consumer
// stages: broadcasts every record to all output streams. Valid because the
// chain tail's collector routes EmitTo(i) to stage output i.
class FanOutOperator final : public Operator {
 public:
  explicit FanOutOperator(uint32_t fan) : fan_(fan) {}
  void Process(uint32_t, StreamRecord record, Collector* out) override {
    for (uint32_t i = 0; i + 1 < fan_; ++i) {
      out->EmitTo(i, record);
    }
    out->EmitTo(fan_ - 1, std::move(record));
  }

 private:
  uint32_t fan_;
};

Status NodeError(const PlanNode& node, const std::string& what) {
  return InvalidArgumentError("plan node '" + node.id + "' (" +
                              std::string(OpKindName(node.kind)) + "): " +
                              what);
}

Status MissingHandle(const PlanNode& node, std::string_view what,
                     std::string_view handle, std::string_view register_fn) {
  return InvalidArgumentError(
      "plan node '" + node.id + "' (" + std::string(OpKindName(node.kind)) +
      "): " + std::string(what) + " '" + std::string(handle) +
      "' is not registered; call UdfRegistry::" + std::string(register_fn) +
      "(\"" + std::string(handle) + "\", ...)");
}

std::string OperatorLabel(const PlanNode& node) {
  std::string label(OpKindName(node.kind));
  if (!node.expr.empty()) {
    label += "(" + node.expr + ")";
  } else if (node.kind == OpKind::kSink) {
    label += "(" + node.sink + ")";
  } else if (!node.agg.empty()) {
    label += "(" + node.agg + ")";
  }
  return label;
}

}  // namespace

std::string BoundaryStreamName(const LogicalPlan& plan,
                               const PlanNode& producer,
                               std::string_view consumer_id) {
  std::string base = producer.stream.empty()
                         ? plan.name + "." + producer.id
                         : producer.stream;
  if (plan.ConsumersOf(producer.id).size() > 1) {
    base += "." + std::string(consumer_id);
  }
  return base;
}

Result<LoweredPlan> LowerPlan(const LogicalPlan& plan,
                              const UdfRegistry& registry, bool fuse) {
  IMPELLER_RETURN_IF_ERROR(plan.Validate());
  StageGrouping grouping = FuseStages(plan, fuse);

  LoweredPlan out;
  out.fused_edges = std::move(grouping.fused_edges);
  out.pass_log = std::move(grouping.note);

  QueryBuilder qb(plan.name);

  // Ingress streams, in node order. The stage model gives every stream one
  // consumer, so an ingress read by two nodes cannot lower.
  std::set<std::string> declared;
  for (const auto& node : plan.nodes) {
    if (node.kind != OpKind::kSource) {
      continue;
    }
    if (plan.ConsumersOf(node.id).size() > 1) {
      return NodeError(node, "ingress stream '" + node.stream +
                                 "' has multiple consuming nodes; streams "
                                 "are single-consumer — read it once and "
                                 "branch after a shared operator");
    }
    if (declared.insert(node.stream).second) {
      qb.Ingress(node.stream);
      out.ingress.push_back(node.stream);
    }
  }

  for (const auto& group : grouping.groups) {
    const PlanNode* head = plan.FindNode(group.front());
    const PlanNode* tail = plan.FindNode(group.back());

    LoweredStage info;
    info.name = head->stage_hint.empty() ? head->id : head->stage_hint;
    info.tasks = head->tasks != 0 ? head->tasks : plan.default_tasks;
    info.node_ids = group;

    // Input streams: one per head input, positional order preserved (join
    // input 0 = left).
    for (const auto& input_id : head->inputs) {
      const PlanNode* producer = plan.FindNode(input_id);
      info.inputs.push_back(producer->kind == OpKind::kSource
                                ? producer->stream
                                : BoundaryStreamName(plan, *producer,
                                                     head->id));
    }

    StageBuilder& sb =
        qb.AddStage(info.name, info.tasks).ReadsFrom(info.inputs);

    for (const auto& node_id : group) {
      const PlanNode* node = plan.FindNode(node_id);
      info.operators.push_back(OperatorLabel(*node));
      switch (node->kind) {
        case OpKind::kSource:
          return NodeError(*node, "source cannot appear in a fused stage");
        case OpKind::kFilter: {
          const auto* fn = registry.Predicate(node->expr);
          if (fn == nullptr) {
            return MissingHandle(*node, "predicate", node->expr,
                                 "RegisterPredicate");
          }
          sb.Filter(*fn);
          break;
        }
        case OpKind::kMap: {
          const auto* fn = registry.Map(node->expr);
          if (fn == nullptr) {
            return MissingHandle(*node, "map", node->expr, "RegisterMap");
          }
          sb.Map(*fn);
          break;
        }
        case OpKind::kFlatMap: {
          const auto* fn = registry.FlatMap(node->expr);
          if (fn == nullptr) {
            return MissingHandle(*node, "flat_map", node->expr,
                                 "RegisterFlatMap");
          }
          sb.FlatMap(*fn);
          break;
        }
        case OpKind::kKeyBy: {
          const auto* fn = registry.Key(node->expr);
          if (fn == nullptr) {
            return MissingHandle(*node, "key", node->expr, "RegisterKey");
          }
          sb.KeyBy(*fn);
          break;
        }
        case OpKind::kAggregate: {
          const auto* agg = registry.Aggregate(node->agg);
          if (agg == nullptr) {
            return MissingHandle(*node, "aggregate", node->agg,
                                 "RegisterAggregate");
          }
          sb.Aggregate(node->store, *agg);
          break;
        }
        case OpKind::kTableAggregate: {
          const auto* agg = registry.Aggregate(node->agg);
          if (agg == nullptr) {
            return MissingHandle(*node, "aggregate", node->agg,
                                 "RegisterAggregate");
          }
          const auto* group_key = registry.Key(node->group_key);
          if (group_key == nullptr) {
            return MissingHandle(*node, "group key", node->group_key,
                                 "RegisterKey");
          }
          TableAggregateOperator::RowKeyFn row_key = nullptr;
          if (!node->row_key.empty()) {
            const auto* rk = registry.Key(node->row_key);
            if (rk == nullptr) {
              return MissingHandle(*node, "row key", node->row_key,
                                   "RegisterKey");
            }
            row_key = *rk;
          }
          sb.TableAggregate(node->store, *group_key, *agg, row_key);
          break;
        }
        case OpKind::kWindowAggregate: {
          const auto* agg = registry.Aggregate(node->agg);
          if (agg == nullptr) {
            return MissingHandle(*node, "aggregate", node->agg,
                                 "RegisterAggregate");
          }
          WindowSpec window =
              node->window_slide > 0
                  ? WindowSpec::Sliding(node->window_size, node->window_slide)
                  : WindowSpec::Tumbling(node->window_size);
          sb.WindowAggregate(node->store, window, *agg,
                             node->allowed_lateness, node->emit_mode);
          break;
        }
        case OpKind::kJoinStreams: {
          const auto* join = registry.Join(node->expr);
          if (join == nullptr) {
            return MissingHandle(*node, "join", node->expr, "RegisterJoin");
          }
          sb.JoinStreams(node->store, node->join_window, *join,
                         node->allowed_lateness);
          break;
        }
        case OpKind::kJoinTable: {
          const auto* join = registry.Join(node->expr);
          if (join == nullptr) {
            return MissingHandle(*node, "join", node->expr, "RegisterJoin");
          }
          sb.JoinTable(node->store, *join);
          break;
        }
        case OpKind::kJoinTables: {
          const auto* join = registry.Join(node->expr);
          if (join == nullptr) {
            return MissingHandle(*node, "join", node->expr, "RegisterJoin");
          }
          sb.JoinTables(node->store, *join);
          break;
        }
        case OpKind::kSink:
          sb.Sink(node->sink);
          info.outputs.push_back(EgressStreamName(plan.name, info.name));
          break;
      }
    }

    // Boundary output streams: one per consumer of the tail, consumer order.
    std::vector<std::string> consumers = plan.ConsumersOf(tail->id);
    for (const auto& consumer_id : consumers) {
      std::string stream = BoundaryStreamName(plan, *tail, consumer_id);
      sb.WritesTo(stream);
      info.outputs.push_back(stream);
    }
    if (consumers.size() > 1) {
      uint32_t fan = static_cast<uint32_t>(consumers.size());
      sb.AddOperator(
          [fan]() { return std::make_unique<FanOutOperator>(fan); },
          /*stateful=*/false);
      info.operators.push_back("fan_out(" + std::to_string(fan) + ")");
      info.fans_out = true;
    }

    out.stages.push_back(std::move(info));
  }

  IMPELLER_ASSIGN_OR_RETURN(out.query, qb.Build());

  // Backfill per-stage statefulness from the built plan.
  for (auto& stage : out.stages) {
    const StageSpec* spec = out.query.FindStage(stage.name);
    stage.stateful = spec != nullptr && spec->stateful;
  }
  return out;
}

}  // namespace plan
}  // namespace impeller
