#include "src/core/query.h"

#include <set>

#include "src/common/hash.h"
#include "src/core/stream.h"

namespace impeller {

uint32_t HashPartition(std::string_view key, uint32_t n) {
  return PartitionFor(Fnv1a(key), n);
}

std::string EgressStreamName(std::string_view query, std::string_view stage) {
  std::string name(query);
  name += '.';
  name += stage;
  name += ".out";
  return name;
}

const StageSpec* QueryPlan::FindStage(std::string_view stage_name) const {
  for (const auto& stage : stages) {
    if (stage.name == stage_name) {
      return &stage;
    }
  }
  return nullptr;
}

const StreamSpec* QueryPlan::FindStream(std::string_view stream_name) const {
  auto it = streams.find(std::string(stream_name));
  return it == streams.end() ? nullptr : &it->second;
}

std::vector<std::string> QueryPlan::ProducersOf(
    std::string_view stream_name) const {
  const StreamSpec* stream = FindStream(stream_name);
  if (stream == nullptr || stream->external) {
    return {};
  }
  const StageSpec* producer = FindStage(stream->producer_stage);
  if (producer == nullptr) {
    return {};
  }
  std::vector<std::string> tasks;
  tasks.reserve(producer->num_tasks);
  for (uint32_t i = 0; i < producer->num_tasks; ++i) {
    tasks.push_back(MakeTaskId(name, producer->name, i));
  }
  return tasks;
}

// --- StageBuilder ---

StageBuilder& StageBuilder::ReadsFrom(std::vector<std::string> streams) {
  spec_.inputs = std::move(streams);
  return *this;
}

StageBuilder& StageBuilder::AddOperator(OperatorFactory factory,
                                        bool stateful) {
  spec_.operators.push_back(std::move(factory));
  spec_.stateful = spec_.stateful || stateful;
  return *this;
}

StageBuilder& StageBuilder::Filter(FilterOperator::Predicate pred) {
  return AddOperator(
      [pred = std::move(pred)] {
        return std::make_unique<FilterOperator>(pred);
      },
      /*stateful=*/false);
}

StageBuilder& StageBuilder::Map(MapOperator::MapFn fn) {
  return AddOperator(
      [fn = std::move(fn)] { return std::make_unique<MapOperator>(fn); },
      /*stateful=*/false);
}

StageBuilder& StageBuilder::FlatMap(FlatMapOperator::FlatMapFn fn) {
  return AddOperator(
      [fn = std::move(fn)] { return std::make_unique<FlatMapOperator>(fn); },
      /*stateful=*/false);
}

StageBuilder& StageBuilder::Branch(BranchOperator::Selector selector) {
  return AddOperator(
      [selector = std::move(selector)] {
        return std::make_unique<BranchOperator>(selector);
      },
      /*stateful=*/false);
}

StageBuilder& StageBuilder::KeyBy(KeyByOperator::KeyFn fn) {
  return AddOperator(
      [fn = std::move(fn)] { return std::make_unique<KeyByOperator>(fn); },
      /*stateful=*/false);
}

StageBuilder& StageBuilder::Aggregate(std::string store, AggregateFn agg) {
  return AddOperator(
      [store = std::move(store), agg = std::move(agg)] {
        return std::make_unique<GroupAggregateOperator>(store, agg);
      },
      /*stateful=*/true);
}

StageBuilder& StageBuilder::TableAggregate(
    std::string store, TableAggregateOperator::GroupKeyFn group_key,
    AggregateFn agg, TableAggregateOperator::RowKeyFn row_key) {
  return AddOperator(
      [store = std::move(store), group_key = std::move(group_key),
       agg = std::move(agg), row_key = std::move(row_key)] {
        return std::make_unique<TableAggregateOperator>(store, group_key, agg,
                                                        row_key);
      },
      /*stateful=*/true);
}

StageBuilder& StageBuilder::WindowAggregate(std::string store,
                                            WindowSpec window,
                                            AggregateFn agg,
                                            DurationNs allowed_lateness,
                                            WindowEmitMode mode) {
  return AddOperator(
      [store = std::move(store), window, agg = std::move(agg),
       allowed_lateness, mode] {
        return std::make_unique<WindowAggregateOperator>(
            store, window, agg, allowed_lateness, mode);
      },
      /*stateful=*/true);
}

StageBuilder& StageBuilder::JoinStreams(std::string store, DurationNs window,
                                        StreamStreamJoinOperator::JoinFn join,
                                        DurationNs allowed_lateness) {
  return AddOperator(
      [store = std::move(store), window, join = std::move(join),
       allowed_lateness] {
        return std::make_unique<StreamStreamJoinOperator>(
            store, window, join, allowed_lateness);
      },
      /*stateful=*/true);
}

StageBuilder& StageBuilder::JoinTable(std::string store,
                                      StreamTableJoinOperator::JoinFn join) {
  return AddOperator(
      [store = std::move(store), join = std::move(join)] {
        return std::make_unique<StreamTableJoinOperator>(store, join);
      },
      /*stateful=*/true);
}

StageBuilder& StageBuilder::JoinTables(std::string store,
                                       TableTableJoinOperator::JoinFn join) {
  return AddOperator(
      [store = std::move(store), join = std::move(join)] {
        return std::make_unique<TableTableJoinOperator>(store, join);
      },
      /*stateful=*/true);
}

StageBuilder& StageBuilder::Sink(std::string name,
                                 SinkOperator::Callback cb) {
  has_sink_ = true;
  return AddOperator(
      [name = std::move(name), cb = std::move(cb)] {
        return std::make_unique<SinkOperator>(name, cb);
      },
      /*stateful=*/false);
}

StageBuilder& StageBuilder::WithSubstreams(uint32_t n) {
  spec_.num_substreams = n;
  return *this;
}

StageBuilder& StageBuilder::WritesTo(std::string stream,
                                     Partitioner partitioner) {
  OutputSpec out;
  out.stream = std::move(stream);
  out.partitioner = std::move(partitioner);
  spec_.outputs.push_back(std::move(out));
  return *this;
}

// --- QueryBuilder ---

QueryBuilder& QueryBuilder::Ingress(std::string stream) {
  ingress_.push_back(std::move(stream));
  return *this;
}

StageBuilder& QueryBuilder::AddStage(std::string stage_name,
                                     uint32_t num_tasks) {
  auto builder = std::make_unique<StageBuilder>();
  builder->spec_.name = std::move(stage_name);
  builder->spec_.num_tasks = num_tasks;
  stages_.push_back(std::move(builder));
  return *stages_.back();
}

Result<QueryPlan> QueryBuilder::Build() {
  QueryPlan plan;
  plan.name = name_;

  for (const auto& stream : ingress_) {
    StreamSpec spec;
    spec.name = stream;
    spec.external = true;
    plan.streams[stream] = std::move(spec);
  }

  std::set<std::string> stage_names;
  for (const auto& sb : stages_) {
    StageSpec& spec = sb->spec_;
    if (spec.num_tasks == 0) {
      return InvalidArgumentError("stage " + spec.name + " has zero tasks");
    }
    if (spec.num_substreams == 0) {
      spec.num_substreams = spec.num_tasks;
    }
    if (spec.num_substreams < spec.num_tasks) {
      return InvalidArgumentError("stage " + spec.name +
                                  " has fewer substreams than tasks");
    }
    if (spec.operators.empty()) {
      return InvalidArgumentError("stage " + spec.name + " has no operators");
    }
    if (!stage_names.insert(spec.name).second) {
      return InvalidArgumentError("duplicate stage name " + spec.name);
    }
  }

  // Register internal output streams.
  for (auto& sb : stages_) {
    StageSpec& spec = sb->spec_;
    for (const auto& out : spec.outputs) {
      if (plan.streams.count(out.stream) != 0) {
        return InvalidArgumentError("stream " + out.stream +
                                    " has multiple producers");
      }
      StreamSpec stream;
      stream.name = out.stream;
      stream.producer_stage = spec.name;
      plan.streams[out.stream] = std::move(stream);
    }
    if (sb->has_sink_) {
      // Egress stream: one substream per sinking task, identity routing.
      // Sized to the substream budget so the stage can rescale.
      OutputSpec egress;
      egress.stream = EgressStreamName(name_, spec.name);
      egress.partitioner = nullptr;  // task runtime routes to its own index
      StreamSpec stream;
      stream.name = egress.stream;
      stream.producer_stage = spec.name;
      stream.egress = true;
      stream.num_substreams = spec.num_substreams;
      plan.streams[egress.stream] = std::move(stream);
      spec.outputs.push_back(std::move(egress));
    }
  }

  // Resolve consumers and substream counts.
  for (auto& sb : stages_) {
    StageSpec& spec = sb->spec_;
    if (spec.inputs.empty()) {
      return InvalidArgumentError("stage " + spec.name + " reads nothing");
    }
    for (const auto& input : spec.inputs) {
      auto it = plan.streams.find(input);
      if (it == plan.streams.end()) {
        return InvalidArgumentError(
            "stage '" + spec.name + "' reads stream '" + input +
            "' which has no producer; declare it with Ingress(\"" + input +
            "\") or produce it with WritesTo(\"" + input +
            "\") on another stage");
      }
      StreamSpec& stream = it->second;
      if (!stream.consumer_stage.empty()) {
        return InvalidArgumentError(
            "stream '" + input + "' has multiple consumers: '" +
            stream.consumer_stage + "' and '" + spec.name +
            "'; streams are single-consumer — produce a separate stream per "
            "consumer (e.g. via a Branch stage)");
      }
      if (stream.egress) {
        return InvalidArgumentError("egress stream " + input +
                                    " cannot be consumed");
      }
      stream.consumer_stage = spec.name;
      stream.num_substreams = spec.num_substreams;
    }
  }

  // Every non-egress stream needs a consumer; every internal stream needs
  // its producer to exist.
  for (auto& [name, stream] : plan.streams) {
    if (!stream.egress && stream.consumer_stage.empty()) {
      return InvalidArgumentError("stream " + name + " is never consumed");
    }
  }

  // The stage graph must be acyclic. Streams are registered before
  // consumers resolve, so the checks above accept mutually-referencing
  // stages (A reads B's output while B reads A's); a query like that would
  // deadlock at runtime with every stage waiting on the other's append.
  // Kahn's algorithm over stage dependency edges (producer -> consumer).
  {
    std::map<std::string, std::set<std::string>> consumers_of;
    std::map<std::string, size_t> indegree;
    for (const auto& sb : stages_) {
      indegree[sb->spec_.name];  // ensure every stage is present
    }
    for (const auto& [stream_name, stream] : plan.streams) {
      if (stream.producer_stage.empty() || stream.consumer_stage.empty()) {
        continue;  // ingress or egress edge
      }
      if (consumers_of[stream.producer_stage]
              .insert(stream.consumer_stage)
              .second) {
        ++indegree[stream.consumer_stage];
      }
    }
    std::vector<std::string> frontier;
    for (const auto& [stage, degree] : indegree) {
      if (degree == 0) {
        frontier.push_back(stage);
      }
    }
    size_t visited = 0;
    while (!frontier.empty()) {
      std::string stage = frontier.back();
      frontier.pop_back();
      ++visited;
      for (const auto& consumer : consumers_of[stage]) {
        if (--indegree[consumer] == 0) {
          frontier.push_back(consumer);
        }
      }
    }
    if (visited != indegree.size()) {
      std::string on_cycle;
      for (const auto& [stage, degree] : indegree) {
        if (degree > 0) {
          if (!on_cycle.empty()) {
            on_cycle += ", ";
          }
          on_cycle += "'" + stage + "'";
        }
      }
      return InvalidArgumentError(
          "query '" + name_ + "' has a cycle through stages " + on_cycle +
          "; stage dataflow must be acyclic");
    }
  }

  for (auto& sb : stages_) {
    plan.stages.push_back(sb->spec_);
  }
  return plan;
}

}  // namespace impeller
