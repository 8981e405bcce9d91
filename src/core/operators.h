// The operator library (paper §4): stateless — scan/filter/map/flat-map/
// branch/key-by — and stateful — group-by aggregate, table aggregate,
// window aggregate, stream-stream / stream-table / table-table inner joins —
// plus the terminal sink that measures event-time latency. Algorithms follow
// Kafka Streams' operator semantics as the paper does.
#ifndef IMPELLER_SRC_CORE_OPERATORS_H_
#define IMPELLER_SRC_CORE_OPERATORS_H_

#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "src/core/aggregate.h"
#include "src/core/operator.h"
#include "src/core/window.h"

namespace impeller {

// --- Stateless operators ---

class FilterOperator final : public Operator {
 public:
  using Predicate = std::function<bool(const StreamRecord&)>;
  explicit FilterOperator(Predicate pred) : pred_(std::move(pred)) {}
  void Process(uint32_t, StreamRecord record, Collector* out) override;

 private:
  Predicate pred_;
};

class MapOperator final : public Operator {
 public:
  using MapFn = std::function<StreamRecord(StreamRecord)>;
  explicit MapOperator(MapFn fn) : fn_(std::move(fn)) {}
  void Process(uint32_t, StreamRecord record, Collector* out) override;

 private:
  MapFn fn_;
};

class FlatMapOperator final : public Operator {
 public:
  using FlatMapFn =
      std::function<void(StreamRecord, std::vector<StreamRecord>*)>;
  explicit FlatMapOperator(FlatMapFn fn) : fn_(std::move(fn)) {}
  void Process(uint32_t, StreamRecord record, Collector* out) override;

 private:
  FlatMapFn fn_;
};

// Routes each record to one of the stage's output streams; a negative
// selector result drops the record.
class BranchOperator final : public Operator {
 public:
  using Selector = std::function<int(const StreamRecord&)>;
  explicit BranchOperator(Selector selector) : selector_(std::move(selector)) {}
  void Process(uint32_t, StreamRecord record, Collector* out) override;

 private:
  Selector selector_;
};

// Re-keys records; the stage output partitioner hashes the new key, which is
// what realizes the repartition between stages (paper Fig. 1/3).
class KeyByOperator final : public Operator {
 public:
  using KeyFn = std::function<std::string(const StreamRecord&)>;
  explicit KeyByOperator(KeyFn fn) : fn_(std::move(fn)) {}
  void Process(uint32_t, StreamRecord record, Collector* out) override;

 private:
  KeyFn fn_;
};

// --- Stateful operators ---

// Per-key running aggregate over a keyed stream; emits the updated
// (key, accumulator) on every input — KTable update semantics.
class GroupAggregateOperator final : public Operator {
 public:
  GroupAggregateOperator(std::string store_name, AggregateFn agg)
      : store_name_(std::move(store_name)), agg_(std::move(agg)) {}
  void Open(OperatorContext* ctx) override;
  void Process(uint32_t, StreamRecord record, Collector* out) override;
  bool IsStateful() const override { return true; }

 private:
  std::string store_name_;
  AggregateFn agg_;
  MapStateStore* store_ = nullptr;
};

// Aggregates a *table* (update stream keyed by row key) grouped by a derived
// key: an update retracts the old row's contribution (AggregateFn::remove)
// and adds the new one. Used for Q4/Q6-style averages over per-key maxima.
class TableAggregateOperator final : public Operator {
 public:
  using GroupKeyFn = std::function<std::string(const StreamRecord&)>;
  // Row identity within the table; defaults to the record key. Needed when
  // the update stream was repartitioned by group (e.g. Q4 partitions
  // winning-bid updates by category but retracts by auction id).
  using RowKeyFn = std::function<std::string(const StreamRecord&)>;
  TableAggregateOperator(std::string store_prefix, GroupKeyFn group_key,
                         AggregateFn agg, RowKeyFn row_key = nullptr)
      : store_prefix_(std::move(store_prefix)),
        group_key_(std::move(group_key)),
        agg_(std::move(agg)),
        row_key_(std::move(row_key)) {}
  void Open(OperatorContext* ctx) override;
  void Process(uint32_t, StreamRecord record, Collector* out) override;
  bool IsStateful() const override { return true; }

 private:
  std::string store_prefix_;
  GroupKeyFn group_key_;
  AggregateFn agg_;
  RowKeyFn row_key_;
  MapStateStore* prev_ = nullptr;  // row key -> (group key, row value)
  MapStateStore* agg_store_ = nullptr;  // group key -> accumulator
};

// Emission policy for windowed aggregates.
//  * kOnClose — Flink-style: a pane fires once, when the task watermark
//    (max observed event time minus allowed lateness) passes the window
//    end, then is deleted.
//  * kEagerSuppressed — Kafka Streams-style (the semantics the paper's
//    operators follow, §4): updated panes re-emit their current value at
//    the task's next commit (KS's record cache flushing on commit), and are
//    deleted silently once the watermark passes. Downstream consumers see a
//    monotone stream of pane updates whose event times track fresh input,
//    which is what makes NEXMark Q5/Q7 latency reflect pipeline delay
//    rather than key-popularity staleness.
enum class WindowEmitMode { kOnClose, kEagerSuppressed };

// Event-time windowed aggregate (tumbling or sliding). The emitted record's
// event time is the latest event time that contributed to the pane, and the
// window start rides in the value (varint prefix) so downstream operators
// can group by window.
class WindowAggregateOperator final : public Operator {
 public:
  WindowAggregateOperator(std::string store_name, WindowSpec window,
                          AggregateFn agg,
                          DurationNs allowed_lateness = 100 * kMillisecond,
                          WindowEmitMode mode = WindowEmitMode::kOnClose);
  void Open(OperatorContext* ctx) override;
  void Process(uint32_t, StreamRecord record, Collector* out) override;
  void OnTimer(TimeNs now, Collector* out) override;
  void OnCommit(Collector* out) override;
  bool IsStateful() const override { return true; }

 private:
  TimeNs Watermark() const;

  void EmitPane(std::string_view pane_key, std::string_view pane_value,
                Collector* out);

  std::string store_name_;
  WindowSpec window_;
  AggregateFn agg_;
  DurationNs allowed_lateness_;
  WindowEmitMode mode_;
  MapStateStore* store_ = nullptr;  // (key, window start) -> (max et, acc)
  OperatorContext* ctx_ = nullptr;
  std::vector<TimeNs> scratch_starts_;
  // Eager mode: panes updated since the last commit. In-memory only, and
  // empty at every cut: OnCommit emits them into the epoch that commits
  // their state, so a recovered task owes no pane an update.
  std::set<std::string> dirty_panes_;
};

// Windowed stream-stream inner join on co-partitioned inputs 0 (left) and
// 1 (right): records whose event times are within `window` of each other
// join. Buffers are expired past the watermark.
class StreamStreamJoinOperator final : public Operator {
 public:
  using JoinFn = std::function<std::string(std::string_view left,
                                           std::string_view right)>;
  StreamStreamJoinOperator(std::string store_prefix, DurationNs window,
                           JoinFn join,
                           DurationNs allowed_lateness = 100 * kMillisecond);
  void Open(OperatorContext* ctx) override;
  void Process(uint32_t input, StreamRecord record, Collector* out) override;
  void OnTimer(TimeNs now, Collector* out) override;
  bool IsStateful() const override { return true; }

 private:
  void ExpireSide(MapStateStore* store, TimeNs horizon);

  std::string store_prefix_;
  DurationNs window_;
  JoinFn join_;
  DurationNs allowed_lateness_;
  MapStateStore* left_ = nullptr;   // (key, ts|ctr) -> value
  MapStateStore* right_ = nullptr;
  OperatorContext* ctx_ = nullptr;
  uint32_t ctr_ = 0;
};

// Inner join of a stream (input 0) against a materialized table (input 1,
// an update stream; empty value = tombstone).
class StreamTableJoinOperator final : public Operator {
 public:
  using JoinFn = std::function<std::string(std::string_view stream_value,
                                           std::string_view table_value)>;
  StreamTableJoinOperator(std::string store_name, JoinFn join)
      : store_name_(std::move(store_name)), join_(std::move(join)) {}
  void Open(OperatorContext* ctx) override;
  void Process(uint32_t input, StreamRecord record, Collector* out) override;
  bool IsStateful() const override { return true; }

 private:
  std::string store_name_;
  JoinFn join_;
  MapStateStore* table_ = nullptr;
};

// Inner join of two materialized tables; an update on either side emits the
// refreshed join row when the other side has a matching key.
class TableTableJoinOperator final : public Operator {
 public:
  using JoinFn = std::function<std::string(std::string_view left,
                                           std::string_view right)>;
  TableTableJoinOperator(std::string store_prefix, JoinFn join)
      : store_prefix_(std::move(store_prefix)), join_(std::move(join)) {}
  void Open(OperatorContext* ctx) override;
  void Process(uint32_t input, StreamRecord record, Collector* out) override;
  bool IsStateful() const override { return true; }

 private:
  std::string store_prefix_;
  JoinFn join_;
  MapStateStore* left_ = nullptr;
  MapStateStore* right_ = nullptr;
};

// Terminal operator: records end-to-end event-time latency (histogram
// "lat/<name>") and output count (counter "out/<name>") at the moment of
// emission — matching the paper's measurement point (§5.3) — then forwards
// the record so the task can push it to the egress stream.
class SinkOperator final : public Operator {
 public:
  using Callback = std::function<void(const StreamRecord&)>;
  explicit SinkOperator(std::string name, Callback callback = nullptr)
      : name_(std::move(name)), callback_(std::move(callback)) {}
  void Open(OperatorContext* ctx) override;
  void Process(uint32_t, StreamRecord record, Collector* out) override;

 private:
  std::string name_;
  Callback callback_;
  OperatorContext* ctx_ = nullptr;
  LatencyHistogram* latency_ = nullptr;
  Counter* count_ = nullptr;
};

}  // namespace impeller

#endif  // IMPELLER_SRC_CORE_OPERATORS_H_
