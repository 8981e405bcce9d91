// Cross-protocol tests (§5.1 baselines): the same word-count pipeline must
// produce exactly-once output under progress marking, Kafka-style
// transactions, aligned checkpointing, and (absent failures) unsafe mode;
// plus protocol-specific behaviours: transaction phase structure, fencing
// through the coordinator, and aligned-checkpoint global rollback.
#include <gtest/gtest.h>

#include "src/core/stream.h"
#include "src/protocols/barrier_coordinator.h"
#include "src/protocols/txn_coordinator.h"
#include "tests/test_util.h"

namespace impeller {
namespace {

using testutil::FastConfig;
using testutil::ReadWordCounts;
using testutil::WaitFor;
using testutil::WordCountPlan;

class ProtocolSweep : public ::testing::TestWithParam<ProtocolKind> {};

TEST_P(ProtocolSweep, WordCountProducesExactCounts) {
  EngineOptions options;
  options.config = FastConfig(GetParam());
  Engine engine(std::move(options));
  auto plan = WordCountPlan();
  ASSERT_TRUE(plan.ok());
  ASSERT_TRUE(engine.Submit(std::move(*plan)).ok());
  auto producer = engine.NewProducer("gen", "lines");
  ASSERT_TRUE(producer.ok());
  for (int i = 0; i < 40; ++i) {
    (*producer)->Send("l" + std::to_string(i), "apple banana apple");
  }
  ASSERT_TRUE((*producer)->Flush().ok());

  Counter* out = engine.metrics()->GetCounter("out/wc");
  ASSERT_TRUE(WaitFor([&] { return out->Get() >= 120; }, 20 * kSecond))
      << ProtocolKindName(GetParam()) << ": " << out->Get() << "/120";
  MonotonicClock::Get()->SleepFor(100 * kMillisecond);
  EXPECT_EQ(out->Get(), 120u) << "no duplicates without failures";
  engine.Stop();

  auto counts = ReadWordCounts(engine);
  ASSERT_TRUE(counts.ok());
  EXPECT_EQ((*counts)["apple"], 80);
  EXPECT_EQ((*counts)["banana"], 40);
}

INSTANTIATE_TEST_SUITE_P(
    AllProtocols, ProtocolSweep,
    ::testing::Values(ProtocolKind::kProgressMarking, ProtocolKind::kKafkaTxn,
                      ProtocolKind::kAlignedCheckpoint, ProtocolKind::kUnsafe),
    [](const ::testing::TestParamInfo<ProtocolKind>& info) {
      std::string name = ProtocolKindName(info.param);
      for (auto& c : name) {
        if (c == '-') {
          c = '_';
        }
      }
      return name;
    });

TEST(TxnCoordinatorTest, TwoPhaseCommitAppendsControlRecords) {
  SharedLog log;
  TxnCoordinatorOptions options;
  options.rpc_median = 10 * kMicrosecond;
  TxnCoordinator coordinator(&log, MonotonicClock::Get(), options);
  coordinator.Start();

  log.MetaPut(InstanceMetaKey("q/s/0"), 1);
  TxnRequest request;
  request.task_id = "q/s/0";
  request.instance = 1;
  request.output_tags = {"d/out/0", "d/out/1"};
  request.task_log_tag = TaskLogTag("q/s/0");
  request.input_ends = {{"d/in/0", 42}};
  // Phase one driven here by sleeping through its waits; a task hands them
  // to the scheduler instead.
  auto phase_one = coordinator.BeginTransaction(std::move(request));
  ASSERT_TRUE(phase_one.ok()) << phase_one.status().ToString();
  while (DurationNs wait = (*phase_one)->Poll()) {
    MonotonicClock::Get()->SleepFor(wait);
  }
  const auto& future = (*phase_one)->result();
  ASSERT_TRUE(future.ok()) << future.status().ToString();
  future->wait();
  EXPECT_TRUE(future->get().ok());
  EXPECT_EQ(coordinator.committed_txns(), 1u);

  // Transaction stream: registration, pre-commit, committed.
  int txn_stream_records = 0;
  Lsn cursor = 0;
  while (true) {
    auto entry = log.ReadNext(coordinator.txn_stream_tag(), cursor);
    if (!entry.ok()) {
      break;
    }
    cursor = entry->lsn + 1;
    ++txn_stream_records;
  }
  EXPECT_EQ(txn_stream_records, 3);

  // Each output substream got its commit control record.
  for (const char* tag : {"d/out/0", "d/out/1"}) {
    auto entry = log.ReadNext(tag, 0);
    ASSERT_TRUE(entry.ok()) << tag;
    auto env = DecodeEnvelope(entry->payload);
    ASSERT_TRUE(env.ok());
    EXPECT_EQ(env->header.type, RecordType::kTxnControl);
    auto body = DecodeTxnControlBody(env->body);
    ASSERT_TRUE(body.ok());
    EXPECT_EQ(body->kind, TxnControlKind::kCommit);
  }
  // The task-log commit record carries the input ends for recovery.
  auto task_log = log.ReadLast(TaskLogTag("q/s/0"));
  ASSERT_TRUE(task_log.ok());
  auto env = DecodeEnvelope(task_log->payload);
  ASSERT_TRUE(env.ok());
  auto body = DecodeTxnControlBody(env->body);
  ASSERT_TRUE(body.ok());
  ASSERT_EQ(body->input_ends.size(), 1u);
  EXPECT_EQ(body->input_ends[0].second, 42u);
  coordinator.Stop();
}

TEST(TxnCoordinatorTest, SupersededInstanceIsFenced) {
  SharedLog log;
  TxnCoordinatorOptions options;
  options.rpc_median = 10 * kMicrosecond;
  TxnCoordinator coordinator(&log, MonotonicClock::Get(), options);
  coordinator.Start();
  log.MetaPut(InstanceMetaKey("q/s/0"), 5);
  TxnRequest request;
  request.task_id = "q/s/0";
  request.instance = 4;  // stale
  request.task_log_tag = TaskLogTag("q/s/0");
  auto phase_one = coordinator.BeginTransaction(std::move(request));
  ASSERT_FALSE(phase_one.ok());
  EXPECT_EQ(phase_one.status().code(), StatusCode::kFenced);
  coordinator.Stop();
}

TEST(KafkaTxnRecoveryTest, CrashAndRestartStaysExact) {
  EngineOptions options;
  options.config = FastConfig(ProtocolKind::kKafkaTxn);
  Engine engine(std::move(options));
  auto plan = WordCountPlan();
  ASSERT_TRUE(plan.ok());
  ASSERT_TRUE(engine.Submit(std::move(*plan)).ok());
  auto producer = engine.NewProducer("gen", "lines");
  ASSERT_TRUE(producer.ok());
  for (int i = 0; i < 30; ++i) {
    (*producer)->Send("l", "kiwi mango");
  }
  ASSERT_TRUE((*producer)->Flush().ok());
  Counter* out = engine.metrics()->GetCounter("out/wc");
  ASSERT_TRUE(WaitFor([&] { return out->Get() >= 60; }, 20 * kSecond));

  auto stats = engine.tasks()->RestartTask("wc/count/0");
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();

  for (int i = 0; i < 30; ++i) {
    (*producer)->Send("l", "kiwi");
  }
  ASSERT_TRUE((*producer)->Flush().ok());
  ASSERT_TRUE(WaitFor([&] { return out->Get() >= 90; }, 20 * kSecond));
  engine.Stop();
  auto counts = ReadWordCounts(engine);
  ASSERT_TRUE(counts.ok());
  EXPECT_EQ((*counts)["kiwi"], 60);
  EXPECT_EQ((*counts)["mango"], 30);
}

TEST(AlignedCheckpointTest, CheckpointsCompleteAndStatePersists) {
  EngineOptions options;
  options.config = FastConfig(ProtocolKind::kAlignedCheckpoint);
  options.config.commit_interval = 50 * kMillisecond;
  Engine engine(std::move(options));
  auto plan = WordCountPlan();
  ASSERT_TRUE(plan.ok());
  ASSERT_TRUE(engine.Submit(std::move(*plan)).ok());
  auto producer = engine.NewProducer("gen", "lines");
  ASSERT_TRUE(producer.ok());
  for (int i = 0; i < 20; ++i) {
    (*producer)->Send("l", "pear plum");
    ASSERT_TRUE((*producer)->Flush().ok());
    MonotonicClock::Get()->SleepFor(10 * kMillisecond);
  }
  BarrierCoordinator* coordinator = engine.tasks()->barrier_coordinator();
  ASSERT_NE(coordinator, nullptr);
  ASSERT_TRUE(WaitFor([&] { return coordinator->LatestCompleted() >= 2; },
                      20 * kSecond))
      << "completed " << coordinator->LatestCompleted() << " checkpoints";
  // Snapshots for every task exist in the checkpoint store.
  uint64_t id = coordinator->LatestCompleted();
  for (const auto& task : engine.tasks()->AllTaskIds()) {
    EXPECT_TRUE(engine.checkpoint_store()->Contains(
        "actl/" + task + "/" + std::to_string(id)))
        << task;
  }
  engine.Stop();
}

TEST(AlignedCheckpointTest, GlobalRollbackRecoversExactCounts) {
  EngineOptions options;
  options.config = FastConfig(ProtocolKind::kAlignedCheckpoint);
  options.config.commit_interval = 40 * kMillisecond;
  Engine engine(std::move(options));
  auto plan = WordCountPlan(1);
  ASSERT_TRUE(plan.ok());
  ASSERT_TRUE(engine.Submit(std::move(*plan)).ok());
  auto producer = engine.NewProducer("gen", "lines");
  ASSERT_TRUE(producer.ok());
  Counter* out = engine.metrics()->GetCounter("out/wc");

  for (int i = 0; i < 25; ++i) {
    (*producer)->Send("l", "fig date");
    ASSERT_TRUE((*producer)->Flush().ok());
    MonotonicClock::Get()->SleepFor(8 * kMillisecond);
  }
  ASSERT_TRUE(WaitFor([&] { return out->Get() >= 50; }, 20 * kSecond));
  BarrierCoordinator* coordinator = engine.tasks()->barrier_coordinator();
  ASSERT_TRUE(WaitFor([&] { return coordinator->LatestCompleted() >= 1; },
                      20 * kSecond));

  // Fail the whole query: every task restarts from the completed
  // checkpoint; re-executed outputs are deduplicated by producer seq.
  for (const auto& task : engine.tasks()->AllTaskIds()) {
    auto stats = engine.tasks()->RestartTask(task);
    ASSERT_TRUE(stats.ok()) << task << ": " << stats.status().ToString();
  }
  for (int i = 0; i < 25; ++i) {
    (*producer)->Send("l", "fig");
    ASSERT_TRUE((*producer)->Flush().ok());
    MonotonicClock::Get()->SleepFor(4 * kMillisecond);
  }
  ASSERT_TRUE(WaitFor([&] { return out->Get() >= 75; }, 20 * kSecond));
  engine.Stop();

  auto counts = ReadWordCounts(engine, 1);
  ASSERT_TRUE(counts.ok());
  EXPECT_EQ((*counts)["fig"], 50);
  EXPECT_EQ((*counts)["date"], 25);
}

TEST(UnsafeModeTest, NoMarkersAreWritten) {
  EngineOptions options;
  options.config = FastConfig(ProtocolKind::kUnsafe);
  Engine engine(std::move(options));
  auto plan = WordCountPlan(1);
  ASSERT_TRUE(plan.ok());
  ASSERT_TRUE(engine.Submit(std::move(*plan)).ok());
  auto producer = engine.NewProducer("gen", "lines");
  ASSERT_TRUE(producer.ok());
  (*producer)->Send("l", "x y z");
  ASSERT_TRUE((*producer)->Flush().ok());
  Counter* out = engine.metrics()->GetCounter("out/wc");
  ASSERT_TRUE(WaitFor([&] { return out->Get() >= 3; }));
  TaskRuntime* task = engine.tasks()->FindTask("wc/count/0");
  ASSERT_NE(task, nullptr);
  EXPECT_EQ(task->markers_written(), 0u);
  engine.Stop();
  // The task log stays empty in unsafe mode.
  EXPECT_EQ(engine.log()->ReadLast("t/wc/count/0").status().code(),
            StatusCode::kNotFound);
}

}  // namespace
}  // namespace impeller
