#include "src/plan/ir.h"

#include <algorithm>
#include <map>
#include <set>

#include "src/plan/json.h"

namespace impeller {
namespace plan {

std::string_view OpKindName(OpKind kind) {
  switch (kind) {
    case OpKind::kSource:
      return "source";
    case OpKind::kFilter:
      return "filter";
    case OpKind::kMap:
      return "map";
    case OpKind::kFlatMap:
      return "flat_map";
    case OpKind::kKeyBy:
      return "key_by";
    case OpKind::kAggregate:
      return "aggregate";
    case OpKind::kTableAggregate:
      return "table_aggregate";
    case OpKind::kWindowAggregate:
      return "window_aggregate";
    case OpKind::kJoinStreams:
      return "join_streams";
    case OpKind::kJoinTable:
      return "join_table";
    case OpKind::kJoinTables:
      return "join_tables";
    case OpKind::kSink:
      return "sink";
  }
  return "?";
}

Result<OpKind> OpKindFromName(std::string_view name) {
  static constexpr OpKind kAll[] = {
      OpKind::kSource,         OpKind::kFilter,      OpKind::kMap,
      OpKind::kFlatMap,        OpKind::kKeyBy,       OpKind::kAggregate,
      OpKind::kTableAggregate, OpKind::kWindowAggregate,
      OpKind::kJoinStreams,    OpKind::kJoinTable,   OpKind::kJoinTables,
      OpKind::kSink,
  };
  for (OpKind kind : kAll) {
    if (OpKindName(kind) == name) {
      return kind;
    }
  }
  return InvalidArgumentError("unknown plan op kind '" + std::string(name) +
                              "'");
}

bool IsStatelessKind(OpKind kind) {
  switch (kind) {
    case OpKind::kSource:
    case OpKind::kFilter:
    case OpKind::kMap:
    case OpKind::kFlatMap:
    case OpKind::kKeyBy:
    case OpKind::kSink:
      return true;
    default:
      return false;
  }
}

bool IsJoinKind(OpKind kind) {
  return kind == OpKind::kJoinStreams || kind == OpKind::kJoinTable ||
         kind == OpKind::kJoinTables;
}

const PlanNode* LogicalPlan::FindNode(std::string_view id) const {
  for (const auto& node : nodes) {
    if (node.id == id) {
      return &node;
    }
  }
  return nullptr;
}

PlanNode* LogicalPlan::FindNode(std::string_view id) {
  for (auto& node : nodes) {
    if (node.id == id) {
      return &node;
    }
  }
  return nullptr;
}

std::vector<std::string> LogicalPlan::ConsumersOf(std::string_view id) const {
  std::vector<std::string> out;
  for (const auto& node : nodes) {
    for (const auto& input : node.inputs) {
      if (input == id) {
        out.push_back(node.id);
        break;
      }
    }
  }
  return out;
}

namespace {

size_t ExpectedArity(OpKind kind) {
  if (kind == OpKind::kSource) {
    return 0;
  }
  return IsJoinKind(kind) ? 2 : 1;
}

Status NodeError(const PlanNode& node, const std::string& what) {
  return InvalidArgumentError("plan node '" + node.id + "' (" +
                              std::string(OpKindName(node.kind)) + "): " +
                              what);
}

}  // namespace

Status LogicalPlan::Validate() const {
  if (name.empty()) {
    return InvalidArgumentError("plan has no name");
  }
  if (nodes.empty()) {
    return InvalidArgumentError("plan '" + name + "' has no nodes");
  }

  std::set<std::string> ids;
  bool any_source = false, any_sink = false;
  for (const auto& node : nodes) {
    if (node.id.empty()) {
      return InvalidArgumentError("plan '" + name +
                                  "' contains a node with an empty id");
    }
    if (!ids.insert(node.id).second) {
      return InvalidArgumentError("plan '" + name + "' has duplicate node id '" +
                                  node.id + "'");
    }
    any_source = any_source || node.kind == OpKind::kSource;
    any_sink = any_sink || node.kind == OpKind::kSink;
  }
  if (!any_source) {
    return InvalidArgumentError("plan '" + name +
                                "' has no source node; add Source(<stream>)");
  }
  if (!any_sink) {
    return InvalidArgumentError("plan '" + name +
                                "' has no sink node; every plan must "
                                "terminate in Sink(<name>)");
  }

  for (const auto& node : nodes) {
    size_t arity = ExpectedArity(node.kind);
    if (node.inputs.size() != arity) {
      return NodeError(node, "expects " + std::to_string(arity) +
                                 " input(s), has " +
                                 std::to_string(node.inputs.size()));
    }
    std::set<std::string> seen_inputs;
    for (const auto& input : node.inputs) {
      if (FindNode(input) == nullptr) {
        return NodeError(node, "reads unknown node '" + input + "'");
      }
      if (input == node.id) {
        return NodeError(node, "reads itself");
      }
      if (!seen_inputs.insert(input).second) {
        return NodeError(node, "reads node '" + input + "' twice");
      }
      if (FindNode(input)->kind == OpKind::kSink) {
        return NodeError(node, "reads sink node '" + input +
                                   "'; sinks are terminal");
      }
    }
    switch (node.kind) {
      case OpKind::kSource:
        if (node.stream.empty()) {
          return NodeError(node, "source needs an ingress stream name");
        }
        break;
      case OpKind::kFilter:
      case OpKind::kMap:
      case OpKind::kFlatMap:
      case OpKind::kKeyBy:
        if (node.expr.empty()) {
          return NodeError(node, "needs an expression handle (expr)");
        }
        break;
      case OpKind::kAggregate:
      case OpKind::kTableAggregate:
      case OpKind::kWindowAggregate:
        if (node.agg.empty()) {
          return NodeError(node, "needs an aggregate handle (agg)");
        }
        if (node.store.empty()) {
          return NodeError(node, "needs a state store name");
        }
        if (node.kind == OpKind::kTableAggregate && node.group_key.empty()) {
          return NodeError(node, "needs a group_key handle");
        }
        if (node.kind == OpKind::kWindowAggregate && node.window_size <= 0) {
          return NodeError(node, "needs window_size > 0");
        }
        if (node.kind == OpKind::kWindowAggregate && node.window_slide < 0) {
          return NodeError(node, "window_slide must be >= 0 (0 = tumbling)");
        }
        break;
      case OpKind::kJoinStreams:
        if (node.join_window <= 0) {
          return NodeError(node, "needs join_window > 0");
        }
        [[fallthrough]];
      case OpKind::kJoinTable:
      case OpKind::kJoinTables:
        if (node.expr.empty()) {
          return NodeError(node, "needs a join expression handle (expr)");
        }
        if (node.store.empty()) {
          return NodeError(node, "needs a state store name");
        }
        break;
      case OpKind::kSink:
        if (node.sink.empty()) {
          return NodeError(node, "sink needs a metric name");
        }
        break;
    }
  }

  // Every non-sink node must be consumed.
  for (const auto& node : nodes) {
    if (node.kind != OpKind::kSink && ConsumersOf(node.id).empty()) {
      return NodeError(node,
                       "output is never consumed; route it to a sink or "
                       "remove the node");
    }
  }

  // Acyclicity via Kahn's algorithm; report a node on the cycle.
  std::map<std::string, size_t> indegree;
  for (const auto& node : nodes) {
    indegree[node.id] = node.inputs.size();
  }
  std::vector<std::string> frontier;
  for (const auto& node : nodes) {
    if (indegree[node.id] == 0) {
      frontier.push_back(node.id);
    }
  }
  size_t visited = 0;
  while (!frontier.empty()) {
    std::string id = frontier.back();
    frontier.pop_back();
    ++visited;
    for (const auto& consumer : ConsumersOf(id)) {
      if (--indegree[consumer] == 0) {
        frontier.push_back(consumer);
      }
    }
  }
  if (visited != nodes.size()) {
    std::string on_cycle;
    for (const auto& node : nodes) {
      if (indegree[node.id] > 0) {
        if (!on_cycle.empty()) {
          on_cycle += ", ";
        }
        on_cycle += node.id;
      }
    }
    return InvalidArgumentError("plan '" + name +
                                "' contains a cycle through nodes: " +
                                on_cycle);
  }
  return OkStatus();
}

std::vector<std::string> LogicalPlan::TopoOrder() const {
  // Kahn's with construction order as the deterministic tie-break: scan the
  // node list repeatedly, emitting every node whose inputs are all emitted.
  std::vector<std::string> order;
  order.reserve(nodes.size());
  std::set<std::string> emitted;
  while (order.size() < nodes.size()) {
    bool progress = false;
    for (const auto& node : nodes) {
      if (emitted.count(node.id) != 0) {
        continue;
      }
      bool ready = true;
      for (const auto& input : node.inputs) {
        if (emitted.count(input) == 0) {
          ready = false;
          break;
        }
      }
      if (ready) {
        order.push_back(node.id);
        emitted.insert(node.id);
        progress = true;
      }
    }
    if (!progress) {
      break;  // cycle; Validate() reports it properly
    }
  }
  return order;
}

// --- JSON serialization ---

namespace {

std::string_view EmitModeName(WindowEmitMode mode) {
  return mode == WindowEmitMode::kOnClose ? "on_close" : "eager_suppressed";
}

void SetIfNotEmpty(Json& obj, const char* key, const std::string& value) {
  if (!value.empty()) {
    obj.Set(key, Json::Str(value));
  }
}

}  // namespace

std::string LogicalPlan::ToJson(int indent) const {
  Json root = Json::Object();
  root.Set("name", Json::Str(name));
  root.Set("default_tasks", Json::Int(default_tasks));
  Json& node_array = root.Set("nodes", Json::Array());
  for (const auto& node : nodes) {
    Json obj = Json::Object();
    obj.Set("id", Json::Str(node.id));
    obj.Set("kind", Json::Str(std::string(OpKindName(node.kind))));
    if (!node.inputs.empty()) {
      Json& inputs = obj.Set("inputs", Json::Array());
      for (const auto& input : node.inputs) {
        inputs.Push(Json::Str(input));
      }
    }
    SetIfNotEmpty(obj, "expr", node.expr);
    SetIfNotEmpty(obj, "agg", node.agg);
    SetIfNotEmpty(obj, "group_key", node.group_key);
    SetIfNotEmpty(obj, "row_key", node.row_key);
    SetIfNotEmpty(obj, "store", node.store);
    SetIfNotEmpty(obj, "sink", node.sink);
    SetIfNotEmpty(obj, "stream", node.stream);
    SetIfNotEmpty(obj, "stage_hint", node.stage_hint);
    if (node.tasks != 0) {
      obj.Set("tasks", Json::Int(node.tasks));
    }
    if (node.kind == OpKind::kWindowAggregate) {
      obj.Set("window_size_ns", Json::Int(node.window_size));
      obj.Set("window_slide_ns", Json::Int(node.window_slide));
      obj.Set("emit_mode", Json::Str(std::string(EmitModeName(node.emit_mode))));
    }
    if (node.kind == OpKind::kJoinStreams) {
      obj.Set("join_window_ns", Json::Int(node.join_window));
    }
    if (node.kind == OpKind::kWindowAggregate ||
        node.kind == OpKind::kJoinStreams) {
      obj.Set("allowed_lateness_ns", Json::Int(node.allowed_lateness));
    }
    node_array.Push(std::move(obj));
  }
  return root.Dump(indent);
}

Result<LogicalPlan> LogicalPlan::FromJson(std::string_view json_text) {
  IMPELLER_ASSIGN_OR_RETURN(Json root, Json::Parse(json_text));
  if (!root.is_object()) {
    return InvalidArgumentError("plan JSON must be an object");
  }
  LogicalPlan plan;
  plan.name = root.GetString("name");
  plan.default_tasks = static_cast<uint32_t>(root.GetInt("default_tasks", 1));
  const Json* nodes = root.Find("nodes");
  if (nodes == nullptr || !nodes->is_array()) {
    return InvalidArgumentError("plan JSON needs a \"nodes\" array");
  }
  for (size_t i = 0; i < nodes->size(); ++i) {
    const Json& obj = nodes->at(i);
    if (!obj.is_object()) {
      return InvalidArgumentError("plan node " + std::to_string(i) +
                                  " is not an object");
    }
    PlanNode node;
    node.id = obj.GetString("id");
    IMPELLER_ASSIGN_OR_RETURN(node.kind,
                              OpKindFromName(obj.GetString("kind")));
    if (const Json* inputs = obj.Find("inputs"); inputs != nullptr) {
      if (!inputs->is_array()) {
        return InvalidArgumentError("node '" + node.id +
                                    "': \"inputs\" must be an array");
      }
      for (size_t j = 0; j < inputs->size(); ++j) {
        if (!inputs->at(j).is_string()) {
          return InvalidArgumentError("node '" + node.id +
                                      "': inputs must be node-id strings");
        }
        node.inputs.push_back(inputs->at(j).AsString());
      }
    }
    node.expr = obj.GetString("expr");
    node.agg = obj.GetString("agg");
    node.group_key = obj.GetString("group_key");
    node.row_key = obj.GetString("row_key");
    node.store = obj.GetString("store");
    node.sink = obj.GetString("sink");
    node.stream = obj.GetString("stream");
    node.stage_hint = obj.GetString("stage_hint");
    node.tasks = static_cast<uint32_t>(obj.GetInt("tasks", 0));
    node.window_size = obj.GetInt("window_size_ns", 0);
    node.window_slide = obj.GetInt("window_slide_ns", 0);
    std::string mode = obj.GetString("emit_mode", "on_close");
    if (mode == "on_close") {
      node.emit_mode = WindowEmitMode::kOnClose;
    } else if (mode == "eager_suppressed") {
      node.emit_mode = WindowEmitMode::kEagerSuppressed;
    } else {
      return InvalidArgumentError("node '" + node.id +
                                  "': unknown emit_mode '" + mode + "'");
    }
    // Older saved plans may carry "suppress_interval_ns"; eager panes now
    // emit at commit, so it is ignored like any unknown field.
    node.join_window = obj.GetInt("join_window_ns", 0);
    node.allowed_lateness =
        obj.GetInt("allowed_lateness_ns", 100 * kMillisecond);
    plan.nodes.push_back(std::move(node));
  }
  IMPELLER_RETURN_IF_ERROR(plan.Validate());
  return plan;
}

// --- PlanBuilder ---

PlanBuilder::PlanBuilder(std::string name, uint32_t default_tasks) {
  plan_.name = std::move(name);
  plan_.default_tasks = default_tasks;
}

PlanBuilder::NodeRef& PlanBuilder::NodeRef::Stage(std::string name) {
  builder_->plan_.nodes[index_].stage_hint = std::move(name);
  return *this;
}

PlanBuilder::NodeRef& PlanBuilder::NodeRef::Via(std::string stream) {
  builder_->plan_.nodes[index_].stream = std::move(stream);
  return *this;
}

PlanBuilder::NodeRef& PlanBuilder::NodeRef::Tasks(uint32_t n) {
  builder_->plan_.nodes[index_].tasks = n;
  return *this;
}

PlanBuilder::NodeRef& PlanBuilder::NodeRef::Id(std::string id) {
  std::string old = builder_->plan_.nodes[index_].id;
  builder_->plan_.nodes[index_].id = id;
  for (auto& node : builder_->plan_.nodes) {
    for (auto& input : node.inputs) {
      if (input == old) {
        input = id;
      }
    }
  }
  return *this;
}

const std::string& PlanBuilder::NodeRef::id() const {
  return builder_->plan_.nodes[index_].id;
}

PlanBuilder::NodeRef PlanBuilder::Add(OpKind kind,
                                      std::vector<std::string> inputs) {
  PlanNode node;
  // Deterministic short ids: first letter(s) of the kind plus a counter.
  std::string prefix;
  switch (kind) {
    case OpKind::kSource:
      prefix = "src";
      break;
    case OpKind::kFilter:
      prefix = "f";
      break;
    case OpKind::kMap:
      prefix = "m";
      break;
    case OpKind::kFlatMap:
      prefix = "fm";
      break;
    case OpKind::kKeyBy:
      prefix = "k";
      break;
    case OpKind::kAggregate:
      prefix = "agg";
      break;
    case OpKind::kTableAggregate:
      prefix = "tagg";
      break;
    case OpKind::kWindowAggregate:
      prefix = "wagg";
      break;
    case OpKind::kJoinStreams:
    case OpKind::kJoinTable:
    case OpKind::kJoinTables:
      prefix = "join";
      break;
    case OpKind::kSink:
      prefix = "sink";
      break;
  }
  node.id = prefix + std::to_string(next_id_++);
  node.kind = kind;
  node.inputs = std::move(inputs);
  plan_.nodes.push_back(std::move(node));
  return NodeRef(this, plan_.nodes.size() - 1);
}

PlanBuilder::NodeRef PlanBuilder::Source(std::string stream) {
  NodeRef ref = Add(OpKind::kSource, {});
  plan_.nodes[ref.index_].stream = stream;
  plan_.nodes[ref.index_].id = "src_" + stream;
  return ref;
}

PlanBuilder::NodeRef PlanBuilder::Filter(NodeRef input, std::string expr) {
  NodeRef ref = Add(OpKind::kFilter, {input.id()});
  plan_.nodes[ref.index_].expr = std::move(expr);
  return ref;
}

PlanBuilder::NodeRef PlanBuilder::Map(NodeRef input, std::string expr) {
  NodeRef ref = Add(OpKind::kMap, {input.id()});
  plan_.nodes[ref.index_].expr = std::move(expr);
  return ref;
}

PlanBuilder::NodeRef PlanBuilder::FlatMap(NodeRef input, std::string expr) {
  NodeRef ref = Add(OpKind::kFlatMap, {input.id()});
  plan_.nodes[ref.index_].expr = std::move(expr);
  return ref;
}

PlanBuilder::NodeRef PlanBuilder::KeyBy(NodeRef input, std::string expr) {
  NodeRef ref = Add(OpKind::kKeyBy, {input.id()});
  plan_.nodes[ref.index_].expr = std::move(expr);
  return ref;
}

PlanBuilder::NodeRef PlanBuilder::Aggregate(NodeRef input, std::string store,
                                            std::string agg) {
  NodeRef ref = Add(OpKind::kAggregate, {input.id()});
  plan_.nodes[ref.index_].store = std::move(store);
  plan_.nodes[ref.index_].agg = std::move(agg);
  return ref;
}

PlanBuilder::NodeRef PlanBuilder::TableAggregate(NodeRef input,
                                                 std::string store,
                                                 std::string group_key,
                                                 std::string agg,
                                                 std::string row_key) {
  NodeRef ref = Add(OpKind::kTableAggregate, {input.id()});
  plan_.nodes[ref.index_].store = std::move(store);
  plan_.nodes[ref.index_].group_key = std::move(group_key);
  plan_.nodes[ref.index_].agg = std::move(agg);
  plan_.nodes[ref.index_].row_key = std::move(row_key);
  return ref;
}

PlanBuilder::NodeRef PlanBuilder::WindowAggregate(
    NodeRef input, std::string store, WindowSpec window, std::string agg,
    DurationNs allowed_lateness, WindowEmitMode mode) {
  NodeRef ref = Add(OpKind::kWindowAggregate, {input.id()});
  PlanNode& node = plan_.nodes[ref.index_];
  node.store = std::move(store);
  node.agg = std::move(agg);
  node.window_size = window.size;
  node.window_slide = window.IsTumbling() ? 0 : window.slide;
  node.allowed_lateness = allowed_lateness;
  node.emit_mode = mode;
  return ref;
}

PlanBuilder::NodeRef PlanBuilder::JoinStreams(NodeRef left, NodeRef right,
                                              std::string store,
                                              DurationNs window,
                                              std::string expr,
                                              DurationNs allowed_lateness) {
  NodeRef ref = Add(OpKind::kJoinStreams, {left.id(), right.id()});
  PlanNode& node = plan_.nodes[ref.index_];
  node.store = std::move(store);
  node.join_window = window;
  node.expr = std::move(expr);
  node.allowed_lateness = allowed_lateness;
  return ref;
}

PlanBuilder::NodeRef PlanBuilder::JoinTable(NodeRef stream, NodeRef table,
                                            std::string store,
                                            std::string expr) {
  NodeRef ref = Add(OpKind::kJoinTable, {stream.id(), table.id()});
  plan_.nodes[ref.index_].store = std::move(store);
  plan_.nodes[ref.index_].expr = std::move(expr);
  return ref;
}

PlanBuilder::NodeRef PlanBuilder::JoinTables(NodeRef left, NodeRef right,
                                             std::string store,
                                             std::string expr) {
  NodeRef ref = Add(OpKind::kJoinTables, {left.id(), right.id()});
  plan_.nodes[ref.index_].store = std::move(store);
  plan_.nodes[ref.index_].expr = std::move(expr);
  return ref;
}

PlanBuilder::NodeRef PlanBuilder::Sink(NodeRef input, std::string name) {
  NodeRef ref = Add(OpKind::kSink, {input.id()});
  plan_.nodes[ref.index_].sink = std::move(name);
  return ref;
}

Result<LogicalPlan> PlanBuilder::Build() const {
  IMPELLER_RETURN_IF_ERROR(plan_.Validate());
  return plan_;
}

}  // namespace plan
}  // namespace impeller
