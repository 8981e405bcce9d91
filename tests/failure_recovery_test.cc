// Fault-injection tests: crash/restart of stateless and stateful tasks
// (§3.3.2/§3.3.4), zombie fencing (§3.4), and checkpoint-accelerated
// recovery (§3.5, Table 4). All use the word-count pipeline and verify the
// exactly-once invariant: final per-word counts equal true occurrences.
#include <gtest/gtest.h>

#include <atomic>

#include "src/common/threading.h"
#include "tests/test_util.h"

namespace impeller {
namespace {

using testutil::FastConfig;
using testutil::ReadWordCounts;
using testutil::WaitFor;
using testutil::WordCountPlan;

class FailureRecoveryTest : public ::testing::Test {
 protected:
  void StartEngine(EngineConfig config, uint32_t tasks = 2) {
    tasks_ = tasks;
    EngineOptions options;
    options.config = config;
    engine_ = std::make_unique<Engine>(std::move(options));
    auto plan = WordCountPlan(tasks);
    ASSERT_TRUE(plan.ok());
    ASSERT_TRUE(engine_->Submit(std::move(*plan)).ok());
    auto producer = engine_->NewProducer("gen", "lines");
    ASSERT_TRUE(producer.ok());
    producer_ = std::move(*producer);
  }

  void SendLines(int n, const std::string& text) {
    for (int i = 0; i < n; ++i) {
      producer_->Send("line" + std::to_string(i), text);
      expected_words_ += CountWords(text);
    }
    ASSERT_TRUE(producer_->Flush().ok());
  }

  static int CountWords(const std::string& text) {
    std::istringstream s(text);
    std::string w;
    int n = 0;
    while (s >> w) {
      ++n;
    }
    return n;
  }

  void WaitDrained() {
    Counter* out = engine_->metrics()->GetCounter("out/wc");
    ASSERT_TRUE(WaitFor(
        [&] { return out->Get() >= static_cast<uint64_t>(expected_words_); },
        20 * kSecond))
        << "sink saw " << out->Get() << "/" << expected_words_;
  }

  void VerifyExactCounts(const std::map<std::string, int64_t>& expected) {
    engine_->Stop();
    auto counts = ReadWordCounts(*engine_, tasks_);
    ASSERT_TRUE(counts.ok()) << counts.status().ToString();
    for (const auto& [word, n] : expected) {
      EXPECT_EQ((*counts)[word], n) << "word " << word;
    }
  }

  std::unique_ptr<Engine> engine_;
  std::unique_ptr<IngressProducer> producer_;
  uint32_t tasks_ = 2;
  int expected_words_ = 0;
};

TEST_F(FailureRecoveryTest, StatelessTaskCrashAndRestart) {
  StartEngine(FastConfig(ProtocolKind::kProgressMarking));
  SendLines(30, "alpha beta");
  WaitDrained();

  auto stats = engine_->tasks()->RestartTask("wc/split/0");
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();

  SendLines(30, "alpha gamma");
  WaitDrained();
  VerifyExactCounts({{"alpha", 60}, {"beta", 30}, {"gamma", 30}});
}

TEST_F(FailureRecoveryTest, StatefulTaskCrashAndRestart) {
  StartEngine(FastConfig(ProtocolKind::kProgressMarking));
  SendLines(30, "red green blue");
  WaitDrained();
  // Let the victim commit a marker so recovery has something to resume from
  // (a crash before the first marker legitimately starts fresh).
  TaskRuntime* victim = engine_->tasks()->FindTask("wc/count/0");
  ASSERT_NE(victim, nullptr);
  ASSERT_TRUE(WaitFor([&] { return victim->markers_written() >= 1; }));

  auto stats = engine_->tasks()->RestartTask("wc/count/0");
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_TRUE(stats->performed) << "a marker existed: recovery must run";

  SendLines(30, "red green");
  WaitDrained();
  VerifyExactCounts({{"red", 60}, {"green", 60}, {"blue", 30}});
}

TEST_F(FailureRecoveryTest, CrashBeforeAnyMarkerStartsFresh) {
  EngineConfig config = FastConfig(ProtocolKind::kProgressMarking);
  config.commit_interval = 10 * kSecond;  // no marker will be written
  StartEngine(config, 1);
  SendLines(5, "word");
  MonotonicClock::Get()->SleepFor(100 * kMillisecond);
  auto stats = engine_->tasks()->RestartTask("wc/count/0");
  ASSERT_TRUE(stats.ok());
  EXPECT_FALSE(stats->performed);
  // After restart the task reprocesses from the beginning — exactly-once
  // output still holds because nothing was committed before the crash.
  WaitDrained();
  VerifyExactCounts({{"word", 5}});
}

TEST_F(FailureRecoveryTest, RepeatedCrashesStayExact) {
  StartEngine(FastConfig(ProtocolKind::kProgressMarking));
  std::map<std::string, int64_t> expected;
  for (int round = 0; round < 4; ++round) {
    SendLines(10, "crash loop words");
    expected["crash"] += 10;
    expected["loop"] += 10;
    expected["words"] += 10;
    WaitDrained();
    std::string victim =
        round % 2 == 0 ? "wc/count/0" : "wc/split/1";
    auto stats = engine_->tasks()->RestartTask(victim);
    ASSERT_TRUE(stats.ok()) << "round " << round;
  }
  SendLines(10, "crash");
  expected["crash"] += 10;
  WaitDrained();
  VerifyExactCounts(expected);
}

TEST_F(FailureRecoveryTest, ZombieIsFencedAndOutputExact) {
  StartEngine(FastConfig(ProtocolKind::kProgressMarking));
  SendLines(20, "zed york");
  WaitDrained();

  // The task manager wrongly declares count/0 dead and starts a
  // replacement; the old instance keeps running as a zombie (§3.4).
  TaskRuntime* zombie = engine_->tasks()->FindTask("wc/count/0");
  ASSERT_NE(zombie, nullptr);
  ASSERT_TRUE(engine_->tasks()->StartReplacement("wc/count/0").ok());

  SendLines(20, "zed quill");
  WaitDrained();

  // The zombie's next conditional marker append must be fenced.
  ASSERT_TRUE(WaitFor([&] { return zombie->finished(); }, 15 * kSecond));
  EXPECT_EQ(zombie->final_status().code(), StatusCode::kFenced);

  VerifyExactCounts({{"zed", 40}, {"york", 20}, {"quill", 20}});
}

TEST_F(FailureRecoveryTest, CheckpointAcceleratesRecovery) {
  // Table 4's mechanism: with checkpoints, recovery replays only the
  // change-log suffix after the snapshot.
  EngineConfig config = FastConfig(ProtocolKind::kProgressMarking);
  config.snapshot_interval = 150 * kMillisecond;
  StartEngine(config, 1);
  for (int round = 0; round < 6; ++round) {
    SendLines(20, "w" + std::to_string(round));
    MonotonicClock::Get()->SleepFor(80 * kMillisecond);
  }
  WaitDrained();
  // Let the checkpoint worker cover most of the change log.
  ASSERT_TRUE(WaitFor(
      [&] {
        return engine_->tasks()->checkpoint_worker()->checkpoints_written() >
               0;
      },
      5 * kSecond));
  MonotonicClock::Get()->SleepFor(200 * kMillisecond);

  auto stats = engine_->tasks()->RestartTask("wc/count/0");
  ASSERT_TRUE(stats.ok());
  EXPECT_TRUE(stats->used_checkpoint);
  // 120 change-log records exist in total; a checkpointed recovery must
  // replay far fewer.
  EXPECT_LT(stats->changelog_entries_read, 100u);

  SendLines(10, "w0");
  WaitDrained();
  VerifyExactCounts({{"w0", 30}, {"w5", 20}});
}

TEST_F(FailureRecoveryTest, RecoveryWithoutCheckpointReplaysEverything) {
  EngineConfig config = FastConfig(ProtocolKind::kProgressMarking);
  config.enable_checkpointing = false;
  StartEngine(config, 1);
  SendLines(50, "full replay");
  WaitDrained();
  // Let the count task write a marker covering all 100 state updates, so
  // recovery has a cut to replay to.
  TaskRuntime* count_task = engine_->tasks()->FindTask("wc/count/0");
  ASSERT_NE(count_task, nullptr);
  ASSERT_TRUE(WaitFor([&] { return count_task->markers_written() >= 1; }));
  MonotonicClock::Get()->SleepFor(100 * kMillisecond);

  auto stats = engine_->tasks()->RestartTask("wc/count/0");
  ASSERT_TRUE(stats.ok());
  EXPECT_TRUE(stats->performed);
  EXPECT_FALSE(stats->used_checkpoint);
  EXPECT_GE(stats->changelog_entries_read, 100u)
      << "100 word updates + markers must all be replayed";
  VerifyExactCounts({{"full", 50}, {"replay", 50}});
}

TEST_F(FailureRecoveryTest, AutoRestartReplacesCrashedTask) {
  EngineConfig config = FastConfig(ProtocolKind::kProgressMarking);
  config.auto_restart = true;
  config.heartbeat_interval = 20 * kMillisecond;
  config.failure_timeout = kSecond;
  StartEngine(config);
  SendLines(20, "auto heal");
  WaitDrained();
  ASSERT_TRUE(engine_->tasks()->CrashTask("wc/count/1").ok());
  // The monitor notices the crash (non-OK finish) and restarts it.
  ASSERT_TRUE(WaitFor(
      [&] {
        TaskRuntime* rt = engine_->tasks()->FindTask("wc/count/1");
        return rt != nullptr && rt->started() && !rt->finished();
      },
      10 * kSecond));
  SendLines(20, "auto");
  WaitDrained();
  VerifyExactCounts({{"auto", 40}, {"heal", 20}});
}

TEST_F(FailureRecoveryTest, MonitorKeepsTaskThatHasNotStepped) {
  // A freshly spawned task counts as alive from its spawn: a monitor tick
  // that lands before the task's first step must not presume it dead.
  EngineConfig config = FastConfig(ProtocolKind::kProgressMarking);
  config.auto_restart = true;
  config.sched_workers = 1;
  config.heartbeat_interval = 5 * kMillisecond;
  config.failure_timeout = kSecond;
  EngineOptions options;
  options.config = config;
  engine_ = std::make_unique<Engine>(std::move(options));
  // Hold the only worker while Submit spawns the tasks, so the monitor
  // ticks several times before any task takes its first step.
  std::atomic<bool> blocking{false};
  engine_->scheduler()->Submit(
      [&blocking] {
        blocking.store(true);
        MonotonicClock::Get()->SleepFor(50 * kMillisecond);
        return sched::StepResult::Done();
      },
      0, "blocker");
  ASSERT_TRUE(WaitFor([&] { return blocking.load(); }));
  auto plan = WordCountPlan(1);
  ASSERT_TRUE(plan.ok());
  ASSERT_TRUE(engine_->Submit(std::move(*plan)).ok());
  TaskRuntime* spawned = engine_->tasks()->FindTask("wc/count/0");
  ASSERT_NE(spawned, nullptr);
  uint64_t instance = spawned->instance();
  ASSERT_TRUE(WaitFor([&] { return spawned->started(); }));
  MonotonicClock::Get()->SleepFor(20 * kMillisecond);
  TaskRuntime* now = engine_->tasks()->FindTask("wc/count/0");
  ASSERT_NE(now, nullptr);
  EXPECT_EQ(now, spawned);
  EXPECT_EQ(now->instance(), instance);
  engine_->Stop();
}

TEST_F(FailureRecoveryTest, StopRacingRestartNeverHangs) {
  // Engine::Stop joins the scheduler workers; a RestartTask racing it used
  // to submit a task nothing would ever run and then spin waiting for it to
  // start. The restart must either complete or fail with kUnavailable —
  // never hang, never crash.
  for (int round = 0; round < 5; ++round) {
    StartEngine(FastConfig(ProtocolKind::kProgressMarking));
    SendLines(10, "race word");
    WaitDrained();
    std::atomic<bool> done{false};
    JoiningThread restarter([&] {
      while (!done.load()) {
        auto stats = engine_->tasks()->RestartTask("wc/count/0");
        if (!stats.ok()) {
          EXPECT_EQ(stats.status().code(), StatusCode::kUnavailable)
              << stats.status().ToString();
          return;  // shutdown fence observed
        }
      }
    });
    MonotonicClock::Get()->SleepFor((round + 1) * kMillisecond);
    engine_->Stop();
    done.store(true);
    restarter.Join();
    // Post-stop restarts fail cleanly too.
    auto late = engine_->tasks()->RestartTask("wc/count/0");
    EXPECT_FALSE(late.ok());
    EXPECT_EQ(late.status().code(), StatusCode::kUnavailable);
    expected_words_ = 0;
  }
}

}  // namespace
}  // namespace impeller
