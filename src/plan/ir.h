// Declarative plan IR: a serializable logical DAG of stream operators that
// lowering (src/plan/lowering.h) compiles onto the imperative
// QueryPlan/StageSpec machinery (src/core/query.h).
//
// The IR is *logical*: one node per operator, not per stage. Which nodes
// share a stage — and therefore how many shared-log hops a record pays,
// the dominant latency term per Table 2 of the paper — is decided by
// fusion (FuseStages, src/plan/optimizer.h), not by the author.
//
// UDFs (predicates, maps, keys, aggregates, joins) are referenced by *named
// handles* resolved against a UdfRegistry at lowering time, which is what
// makes plans serializable: the JSON form carries names, the registry
// carries code. See src/plan/registry.h.
#ifndef IMPELLER_SRC_PLAN_IR_H_
#define IMPELLER_SRC_PLAN_IR_H_

#include <string>
#include <string_view>
#include <vector>

#include "src/common/clock.h"
#include "src/common/status.h"
#include "src/core/operators.h"

namespace impeller {
namespace plan {

enum class OpKind {
  kSource,           // reads an external ingress stream; no inputs
  kFilter,           // expr: predicate handle
  kMap,              // expr: map handle
  kFlatMap,          // expr: flat-map handle
  kKeyBy,            // expr: key handle; induces a repartition boundary
                     // before any downstream stateful node
  kAggregate,        // per-key running aggregate; agg + store
  kTableAggregate,   // grouped table aggregate; agg + store + group/row keys
  kWindowAggregate,  // event-time window aggregate; agg + store + window
  kJoinStreams,      // windowed stream-stream join; expr: join handle
  kJoinTable,        // stream-table join; expr: join handle
  kJoinTables,       // table-table join; expr: join handle
  kSink,             // terminal; sink: metric name
};

std::string_view OpKindName(OpKind kind);
Result<OpKind> OpKindFromName(std::string_view name);

// Stateless nodes fuse freely into any stage; stateful nodes require their
// input partitioned by the current record key.
bool IsStatelessKind(OpKind kind);
bool IsJoinKind(OpKind kind);

struct PlanNode {
  std::string id;  // unique within the plan; used in errors and explain
  OpKind kind = OpKind::kMap;
  // Producing node ids. Arity is fixed per kind: 0 for source, 2 for joins
  // (ordered — element 0 is join input 0), 1 otherwise.
  std::vector<std::string> inputs;

  // UDF handles (UdfRegistry names).
  std::string expr;       // predicate / map / flat_map / key / join handle
  std::string agg;        // AggregateFn handle (aggregate kinds)
  std::string group_key;  // table aggregate: group key handle
  std::string row_key;    // table aggregate: row identity handle (optional)

  std::string store;  // state store name (stateful kinds)
  std::string sink;   // sink metric name (kSink)

  // kSource: the ingress stream this node reads. Other kinds: the name of
  // the stream carrying this node's output when it ends up on a stage
  // boundary (empty = auto "<plan>.<id>").
  std::string stream;

  // Preferred stage name when this node heads a fused stage (empty = node
  // id). Lets plan-built queries keep the stage names the imperative
  // builders used, which downstream tooling (egress consumers, metrics)
  // keys on.
  std::string stage_hint;

  // Task count for the stage this node heads (0 = plan default_tasks).
  uint32_t tasks = 0;

  // kWindowAggregate parameters.
  DurationNs window_size = 0;
  DurationNs window_slide = 0;  // 0 = tumbling (slide == size)
  WindowEmitMode emit_mode = WindowEmitMode::kOnClose;

  // kJoinStreams window.
  DurationNs join_window = 0;

  // Watermark slack for windows and stream-stream joins.
  DurationNs allowed_lateness = 100 * kMillisecond;
};

struct LogicalPlan {
  std::string name;
  uint32_t default_tasks = 1;
  std::vector<PlanNode> nodes;  // construction order; not necessarily topo

  const PlanNode* FindNode(std::string_view id) const;
  PlanNode* FindNode(std::string_view id);
  // Ids of nodes consuming `id`'s output, in node order.
  std::vector<std::string> ConsumersOf(std::string_view id) const;

  // Structural validation with actionable messages: unique ids, per-kind
  // arity and attribute requirements, edges resolve, no cycles, every
  // non-sink output consumed, at least one source and one sink.
  Status Validate() const;

  // Node ids in a deterministic topological order (construction order is
  // the tie-break). Requires Validate() to have passed.
  std::vector<std::string> TopoOrder() const;

  std::string ToJson(int indent = 2) const;
  static Result<LogicalPlan> FromJson(std::string_view json_text);
};

// Fluent construction helper. Methods append a node and return a NodeRef
// whose setters (Stage, Via, Tasks, Id) refine lowering hints:
//
//   PlanBuilder pb("q1", /*default_tasks=*/2);
//   auto bids = pb.Source("bids");
//   auto conv = pb.Map(pb.Filter(bids, "nonempty").Stage("convert"),
//                      "usd_to_eur");
//   pb.Sink(conv, "q1");
//   auto plan = pb.Build();  // validated LogicalPlan
class PlanBuilder {
 public:
  class NodeRef {
   public:
    NodeRef(PlanBuilder* builder, size_t index)
        : builder_(builder), index_(index) {}
    // Stage-name hint for the fused stage this node heads.
    NodeRef& Stage(std::string name);
    // Boundary stream name for this node's output.
    NodeRef& Via(std::string stream);
    // Task count for the stage this node heads.
    NodeRef& Tasks(uint32_t n);
    // Renames the node (updates every edge referencing it).
    NodeRef& Id(std::string id);
    const std::string& id() const;

   private:
    friend class PlanBuilder;
    PlanBuilder* builder_;
    size_t index_;
  };

  explicit PlanBuilder(std::string name, uint32_t default_tasks = 1);

  NodeRef Source(std::string stream);
  NodeRef Filter(NodeRef input, std::string expr);
  NodeRef Map(NodeRef input, std::string expr);
  NodeRef FlatMap(NodeRef input, std::string expr);
  NodeRef KeyBy(NodeRef input, std::string expr);
  NodeRef Aggregate(NodeRef input, std::string store, std::string agg);
  NodeRef TableAggregate(NodeRef input, std::string store,
                         std::string group_key, std::string agg,
                         std::string row_key = "");
  NodeRef WindowAggregate(NodeRef input, std::string store, WindowSpec window,
                          std::string agg,
                          DurationNs allowed_lateness = 100 * kMillisecond,
                          WindowEmitMode mode = WindowEmitMode::kOnClose);
  NodeRef JoinStreams(NodeRef left, NodeRef right, std::string store,
                      DurationNs window, std::string expr,
                      DurationNs allowed_lateness = 100 * kMillisecond);
  NodeRef JoinTable(NodeRef stream, NodeRef table, std::string store,
                    std::string expr);
  NodeRef JoinTables(NodeRef left, NodeRef right, std::string store,
                     std::string expr);
  NodeRef Sink(NodeRef input, std::string name);

  // Validates and returns the plan.
  Result<LogicalPlan> Build() const;
  // The plan as built so far, unvalidated (for tests constructing invalid
  // plans on purpose).
  const LogicalPlan& plan() const { return plan_; }

 private:
  NodeRef Add(OpKind kind, std::vector<std::string> inputs);

  LogicalPlan plan_;
  int next_id_ = 1;
};

}  // namespace plan
}  // namespace impeller

#endif  // IMPELLER_SRC_PLAN_IR_H_
