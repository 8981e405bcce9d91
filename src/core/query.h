// Query plans: a DAG of stages, each a chain of operators executed by N
// parallel tasks (paper §2.1). Streams connect stages; each stream is
// partitioned into one substream per consuming task; records are routed to
// substreams by hashing their key (the repartition of Fig. 1/3).
//
// QueryBuilder offers a fluent API; Build() validates the DAG and resolves
// substream counts from the consuming stages.
#ifndef IMPELLER_SRC_CORE_QUERY_H_
#define IMPELLER_SRC_CORE_QUERY_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/core/aggregate.h"
#include "src/core/operators.h"
#include "src/core/window.h"

namespace impeller {

// Routes a record key to a substream index in [0, n).
using Partitioner = std::function<uint32_t(std::string_view key, uint32_t n)>;

struct StreamSpec {
  std::string name;
  uint32_t num_substreams = 0;
  bool external = false;  // ingress: appended by generators, not a stage
  bool egress = false;    // terminal: no consuming stage
  std::string producer_stage;  // empty for ingress
  std::string consumer_stage;  // empty for egress
};

struct OutputSpec {
  std::string stream;
  Partitioner partitioner;  // null = hash(key) % n
};

struct StageSpec {
  std::string name;  // unique within the query
  uint32_t num_tasks = 0;
  // Substreams of each input stream (>= num_tasks; 0 = num_tasks). More
  // substreams than tasks lets the stage rescale later without changing
  // upstream partitioning — the paper's skew-tolerance mechanism (§5.3):
  // task i consumes every substream s with s % num_tasks == i.
  uint32_t num_substreams = 0;
  std::vector<std::string> inputs;  // stream names, positional input index
  std::vector<OutputSpec> outputs;
  std::vector<OperatorFactory> operators;
  bool stateful = false;
};

struct QueryPlan {
  std::string name;
  std::vector<StageSpec> stages;
  std::map<std::string, StreamSpec> streams;

  const StageSpec* FindStage(std::string_view stage_name) const;
  const StreamSpec* FindStream(std::string_view stream_name) const;
  // Task ids of the stage producing `stream` ("ingress" pseudo-producer for
  // external streams).
  std::vector<std::string> ProducersOf(std::string_view stream_name) const;
};

class QueryBuilder;

class StageBuilder {
 public:
  StageBuilder& ReadsFrom(std::vector<std::string> streams);

  StageBuilder& Filter(FilterOperator::Predicate pred);
  StageBuilder& Map(MapOperator::MapFn fn);
  StageBuilder& FlatMap(FlatMapOperator::FlatMapFn fn);
  StageBuilder& Branch(BranchOperator::Selector selector);
  StageBuilder& KeyBy(KeyByOperator::KeyFn fn);
  StageBuilder& Aggregate(std::string store, AggregateFn agg);
  StageBuilder& TableAggregate(std::string store,
                               TableAggregateOperator::GroupKeyFn group_key,
                               AggregateFn agg,
                               TableAggregateOperator::RowKeyFn row_key =
                                   nullptr);
  StageBuilder& WindowAggregate(
      std::string store, WindowSpec window, AggregateFn agg,
      DurationNs allowed_lateness = 100 * kMillisecond,
      WindowEmitMode mode = WindowEmitMode::kOnClose);
  StageBuilder& JoinStreams(std::string store, DurationNs window,
                            StreamStreamJoinOperator::JoinFn join,
                            DurationNs allowed_lateness = 100 * kMillisecond);
  StageBuilder& JoinTable(std::string store,
                          StreamTableJoinOperator::JoinFn join);
  StageBuilder& JoinTables(std::string store,
                           TableTableJoinOperator::JoinFn join);
  StageBuilder& Sink(std::string name, SinkOperator::Callback cb = nullptr);

  // Escape hatch for custom operators.
  StageBuilder& AddOperator(OperatorFactory factory, bool stateful);

  // Over-partitions the stage's inputs: n substreams multiplexed onto the
  // stage's tasks (n >= num_tasks), enabling later rescaling up to n tasks.
  StageBuilder& WithSubstreams(uint32_t n);

  // Appends an output stream (output index = call order) consumed by a later
  // stage. Default partitioner hashes the record key.
  StageBuilder& WritesTo(std::string stream, Partitioner partitioner = nullptr);

 private:
  friend class QueryBuilder;
  StageSpec spec_;
  bool has_sink_ = false;
};

class QueryBuilder {
 public:
  explicit QueryBuilder(std::string query_name)
      : name_(std::move(query_name)) {}

  // Declares an external input stream (appended by ingress producers).
  QueryBuilder& Ingress(std::string stream);

  StageBuilder& AddStage(std::string stage_name, uint32_t num_tasks);

  // Validates and finalizes the plan. Substream counts are resolved from
  // consuming stages; a stage with a Sink gets an egress stream named
  // "<query>.<stage>.out" with one substream per task.
  Result<QueryPlan> Build();

  const std::string& name() const { return name_; }

 private:
  std::string name_;
  std::vector<std::string> ingress_;
  std::vector<std::unique_ptr<StageBuilder>> stages_;
};

// Default hash partitioner.
uint32_t HashPartition(std::string_view key, uint32_t n);

// Egress stream name for a sinking stage.
std::string EgressStreamName(std::string_view query, std::string_view stage);

}  // namespace impeller

#endif  // IMPELLER_SRC_CORE_QUERY_H_
