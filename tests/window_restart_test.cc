// Restarting an eager window task right after a commit must not lose a
// pane's last update: the commit that covers the pane's state change also
// carries the pane's emission (Operator::OnCommit), so the replacement,
// which restores that state and has no more input, owes nothing. The same
// holds for an aligned checkpoint's snapshot.
#include <gtest/gtest.h>

#include <algorithm>

#include "src/core/checkpoint.h"
#include "src/core/record.h"
#include "src/core/stream.h"
#include "src/protocols/barrier_coordinator.h"
#include "tests/test_util.h"

namespace impeller {
namespace {

using testutil::FastConfig;
using testutil::WaitFor;

AggregateFn CountAgg() {
  AggregateFn agg;
  agg.init = [] { return std::string("0"); };
  agg.add = [](std::string_view acc, const StreamRecord&) {
    return std::to_string(std::stoll(std::string(acc)) + 1);
  };
  return agg;
}

// One eager window stage over one ingress substream; the pane never closes
// within the test (its window is far wider than the event times used).
Result<QueryPlan> EagerWindowPlan() {
  QueryBuilder qb("ew");
  qb.Ingress("events");
  qb.AddStage("win", 1)
      .ReadsFrom({"events"})
      .WindowAggregate("panes", WindowSpec::Tumbling(1000 * kSecond),
                       CountAgg(), /*allowed_lateness=*/0,
                       WindowEmitMode::kEagerSuppressed)
      .Sink("ew");
  return qb.Build();
}

// Highest committed count on the window's egress, accumulated across polls.
class PaneReader {
 public:
  explicit PaneReader(Engine& engine) {
    auto consumer = engine.NewEgressConsumer("win", 0);
    EXPECT_TRUE(consumer.ok()) << consumer.status().ToString();
    consumer_ = std::move(*consumer);
  }
  int64_t MaxCount() {
    auto records = consumer_->PollAll();
    EXPECT_TRUE(records.ok()) << records.status().ToString();
    for (const ReadyRecord& r : *records) {
      BinaryReader reader(r.data.value);
      (void)reader.ReadVarI64();  // window start
      auto acc = reader.ReadString();
      if (acc.ok()) {
        max_ = std::max<int64_t>(max_, std::stoll(*acc));
      }
    }
    return max_;
  }

 private:
  std::unique_ptr<EgressConsumer> consumer_;
  int64_t max_ = 0;
};

// True once the task's latest cut has consumed `tag` through `lsn`.
bool CutCovers(Engine& engine, const std::string& task,
               const std::string& tag, Lsn lsn) {
  auto last = engine.log()->ReadLast(TaskLogTag(task));
  if (!last.ok()) {
    return false;
  }
  auto env = DecodeEnvelope(last->payload);
  if (!env.ok()) {
    return false;
  }
  auto cut = ExtractCut(*env, last->lsn, task);
  if (!cut.ok() || !cut->has_value()) {
    return false;
  }
  for (const auto& [input, end] : (*cut)->input_ends) {
    if (input == tag && end != kInvalidLsn && end >= lsn) {
      return true;
    }
  }
  return false;
}

TEST(WindowRestartTest, RestartAfterCommitKeepsPanesLastUpdate) {
  for (ProtocolKind protocol :
       {ProtocolKind::kProgressMarking, ProtocolKind::kKafkaTxn}) {
    SCOPED_TRACE(ProtocolKindName(protocol));
    EngineOptions options;
    options.config = FastConfig(protocol);
    Engine engine(std::move(options));
    auto plan = EagerWindowPlan();
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    ASSERT_TRUE(engine.Submit(std::move(*plan)).ok());
    auto producer = engine.NewProducer("gen", "events");
    ASSERT_TRUE(producer.ok());
    PaneReader panes(engine);
    const std::string task = "ew/win/0";
    const std::string tag = DataTag("events", 0);

    // A first update, committed downstream.
    (*producer)->Send("k", "1", kSecond);
    ASSERT_TRUE((*producer)->Flush().ok());
    ASSERT_TRUE(WaitFor([&] { return panes.MaxCount() == 1; }));

    // The pane's last input; then none.
    (*producer)->Send("k", "1", 2 * kSecond);
    (*producer)->Send("k", "1", 3 * kSecond);
    ASSERT_TRUE((*producer)->Flush().ok());
    auto last_input = engine.log()->ReadLast(tag);
    ASSERT_TRUE(last_input.ok()) << last_input.status().ToString();

    // Restart as soon as a cut covers that input.
    ASSERT_TRUE(WaitFor(
        [&] { return CutCovers(engine, task, tag, last_input->lsn); },
        5 * kSecond));
    auto stats = engine.tasks()->RestartTask(task);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_TRUE(stats->performed);

    EXPECT_TRUE(WaitFor([&] { return panes.MaxCount() == 3; }, kSecond))
        << "committed egress holds count " << panes.MaxCount()
        << " for the pane, not its final value 3";
    engine.Stop();
  }
}

// Under aligned checkpointing the snapshot plays the commit's part: a pane
// update dirty at the barrier is emitted before the snapshot, so a task
// restored from it owes nothing.
TEST(WindowRestartTest, RestartAfterCheckpointKeepsPanesLastUpdate) {
  EngineOptions options;
  options.config = FastConfig(ProtocolKind::kAlignedCheckpoint);
  // One interval paces both the coordinator's rounds (the first about 1 s
  // after submit) and the task's commit-time flushes, which also emit dirty
  // panes (the first at 0.55 s: its id's hash). Input sent at 0.75 s is
  // therefore dirty at the first barrier, and a restart right after that
  // checkpoint comes before the task's next commit-time flush.
  options.config.commit_interval = kSecond;
  Engine engine(std::move(options));
  auto plan = EagerWindowPlan();
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  const TimeNs start = engine.clock()->Now();
  ASSERT_TRUE(engine.Submit(std::move(*plan)).ok());
  auto producer = engine.NewProducer("gen", "events");
  ASSERT_TRUE(producer.ok());
  PaneReader panes(engine);
  BarrierCoordinator* coordinator = engine.tasks()->barrier_coordinator();
  ASSERT_NE(coordinator, nullptr);

  engine.clock()->SleepFor(start + 750 * kMillisecond - engine.clock()->Now());
  for (TimeNs t : {kSecond, 2 * kSecond, 3 * kSecond}) {
    (*producer)->Send("k", "1", t);
  }
  ASSERT_TRUE((*producer)->Flush().ok());
  ASSERT_TRUE(
      WaitFor([&] { return coordinator->LatestCompleted() >= 1; }, 5 * kSecond));
  auto stats = engine.tasks()->RestartTask("ew/win/0");
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_TRUE(stats->performed);

  EXPECT_TRUE(WaitFor([&] { return panes.MaxCount() == 3; }, kSecond))
      << "egress holds count " << panes.MaxCount()
      << " for the pane, not its final value 3";
  engine.Stop();
}

}  // namespace
}  // namespace impeller
