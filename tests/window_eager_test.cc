// Tests for the Kafka Streams-style eager (suppressed) window emission mode
// (§4: operators follow KS semantics) used by NEXMark Q5/Q7.
#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "src/common/serde.h"
#include "src/core/operators.h"

namespace impeller {
namespace {

class FakeContext final : public OperatorContext {
 public:
  MapStateStore* GetStore(std::string_view name) override {
    auto& slot = stores_[std::string(name)];
    if (slot == nullptr) {
      slot = std::make_unique<MapStateStore>(std::string(name), nullptr);
    }
    return slot.get();
  }
  Clock* clock() override { return MonotonicClock::Get(); }
  const std::string& task_id() const override { return task_id_; }
  uint32_t task_index() const override { return 0; }
  MetricsRegistry* metrics() override { return &metrics_; }
  TimeNs max_event_time() const override { return max_event_time_; }
  void set_max_event_time(TimeNs t) { max_event_time_ = t; }

 private:
  std::string task_id_ = "t/s/0";
  MetricsRegistry metrics_;
  std::map<std::string, std::unique_ptr<MapStateStore>> stores_;
  TimeNs max_event_time_ = 0;
};

class CapturingCollector final : public Collector {
 public:
  void EmitTo(uint32_t, StreamRecord record) override {
    emitted.push_back(std::move(record));
  }
  std::vector<StreamRecord> emitted;
};

AggregateFn CountAgg() {
  AggregateFn agg;
  agg.init = [] { return std::string("0"); };
  agg.add = [](std::string_view acc, const StreamRecord&) {
    return std::to_string(std::stoll(std::string(acc)) + 1);
  };
  return agg;
}

StreamRecord Rec(std::string key, TimeNs et) { return {std::move(key), "1", et}; }

uint64_t CountOf(const StreamRecord& r) {
  BinaryReader reader(r.value);
  (void)*reader.ReadVarI64();
  return std::stoull(*reader.ReadString());
}

WindowAggregateOperator EagerCount(WindowSpec window) {
  return WindowAggregateOperator("w", window, CountAgg(),
                                 /*allowed_lateness=*/0,
                                 WindowEmitMode::kEagerSuppressed);
}

TEST(WindowEagerTest, UpdatedPanesEmitAtCommit) {
  FakeContext ctx;
  WindowAggregateOperator op = EagerCount(WindowSpec::Tumbling(10 * kSecond));
  op.Open(&ctx);
  CapturingCollector out;

  ctx.set_max_event_time(1 * kSecond);
  op.Process(0, Rec("k", 1 * kSecond), &out);
  op.Process(0, Rec("k", 2 * kSecond), &out);
  EXPECT_TRUE(out.emitted.empty()) << "updates are suppressed until a flush";
  op.OnTimer(/*now=*/kSecond, &out);
  EXPECT_TRUE(out.emitted.empty()) << "timers do not flush updates";

  op.OnCommit(&out);
  ASSERT_EQ(out.emitted.size(), 1u) << "one update per dirty pane per flush";
  EXPECT_EQ(CountOf(out.emitted[0]), 2u);
  EXPECT_EQ(out.emitted[0].event_time, 2 * kSecond)
      << "event time tracks the freshest contribution";

  // No updates since the flush: the next commit emits nothing.
  op.OnCommit(&out);
  EXPECT_EQ(out.emitted.size(), 1u);

  // A further update re-emits the refreshed count at the next commit.
  op.Process(0, Rec("k", 3 * kSecond), &out);
  op.OnCommit(&out);
  ASSERT_EQ(out.emitted.size(), 2u);
  EXPECT_EQ(CountOf(out.emitted[1]), 3u);
}

TEST(WindowEagerTest, CommitBatchesUpdatesAcrossPanes) {
  FakeContext ctx;
  WindowAggregateOperator op = EagerCount(WindowSpec::Tumbling(10 * kSecond));
  op.Open(&ctx);
  CapturingCollector out;
  ctx.set_max_event_time(1 * kSecond);
  op.Process(0, Rec("a", kSecond), &out);
  op.Process(0, Rec("b", kSecond), &out);
  op.Process(0, Rec("a", kSecond + 1), &out);
  op.OnTimer(10 * kSecond, &out);
  EXPECT_TRUE(out.emitted.empty()) << "still suppressed between commits";
  op.OnCommit(&out);
  ASSERT_EQ(out.emitted.size(), 2u) << "each dirty pane emits once";
  std::map<std::string, uint64_t> counts;
  for (const StreamRecord& r : out.emitted) {
    counts[r.key] = CountOf(r);
  }
  EXPECT_EQ(counts, (std::map<std::string, uint64_t>{{"a", 2}, {"b", 1}}));
  // Only the pane updated since then emits at the following commit.
  op.Process(0, Rec("b", kSecond + 2), &out);
  op.OnCommit(&out);
  ASSERT_EQ(out.emitted.size(), 3u);
  EXPECT_EQ(out.emitted[2].key, "b");
  EXPECT_EQ(CountOf(out.emitted[2]), 2u);
}

TEST(WindowEagerTest, CloseEmitsFinalValueOnlyIfDirty) {
  FakeContext ctx;
  WindowAggregateOperator op = EagerCount(WindowSpec::Tumbling(10 * kSecond));
  op.Open(&ctx);
  CapturingCollector out;
  ctx.set_max_event_time(5 * kSecond);
  op.Process(0, Rec("k", 5 * kSecond), &out);
  // Watermark passes the window end with the pane still dirty: the close
  // emits the final authoritative value exactly once.
  ctx.set_max_event_time(11 * kSecond);
  op.OnTimer(/*now=*/0, &out);
  ASSERT_EQ(out.emitted.size(), 1u);
  EXPECT_EQ(CountOf(out.emitted[0]), 1u);
  op.OnTimer(0, &out);
  op.OnCommit(&out);
  EXPECT_EQ(out.emitted.size(), 1u) << "pane deleted after close";
  EXPECT_EQ(ctx.GetStore("w")->size(), 0u);
}

TEST(WindowEagerTest, CloseIsSilentWhenAlreadyFlushed) {
  FakeContext ctx;
  WindowAggregateOperator op = EagerCount(WindowSpec::Tumbling(10 * kSecond));
  op.Open(&ctx);
  CapturingCollector out;
  ctx.set_max_event_time(5 * kSecond);
  op.Process(0, Rec("k", 5 * kSecond), &out);
  op.OnCommit(&out);  // the commit emits the update
  ASSERT_EQ(out.emitted.size(), 1u);
  ctx.set_max_event_time(11 * kSecond);
  op.OnTimer(6 * kSecond, &out);  // close: nothing new to say
  EXPECT_EQ(out.emitted.size(), 1u);
  EXPECT_EQ(ctx.GetStore("w")->size(), 0u) << "pane still cleaned up";
}

TEST(WindowEagerTest, SlidingPanesEmitIndependently) {
  FakeContext ctx;
  WindowAggregateOperator op =
      EagerCount(WindowSpec::Sliding(4 * kSecond, kSecond));
  op.Open(&ctx);
  CapturingCollector out;
  ctx.set_max_event_time(10 * kSecond);
  op.Process(0, Rec("k", 10 * kSecond), &out);
  op.OnCommit(&out);
  EXPECT_EQ(out.emitted.size(), 4u) << "one update per assigned pane";
}

TEST(WindowEagerTest, OnCloseModeIgnoresCommits) {
  FakeContext ctx;
  WindowAggregateOperator op("w", WindowSpec::Tumbling(10 * kSecond),
                             CountAgg(), 0, WindowEmitMode::kOnClose);
  op.Open(&ctx);
  CapturingCollector out;
  ctx.set_max_event_time(5 * kSecond);
  op.Process(0, Rec("k", 5 * kSecond), &out);
  op.OnCommit(&out);
  EXPECT_TRUE(out.emitted.empty()) << "on-close panes fire only at close";
  ctx.set_max_event_time(11 * kSecond);
  op.OnTimer(0, &out);
  ASSERT_EQ(out.emitted.size(), 1u);
  EXPECT_EQ(CountOf(out.emitted[0]), 1u);
}

}  // namespace
}  // namespace impeller
