// Commit-protocol behaviour across the runtime/strategy boundary: a
// consumer's commit waves survive an upstream scale-down, and kafka-txn's
// full-buffer stall holds back only its own task, never its worker.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "src/core/stream.h"
#include "src/sharedlog/latency_model.h"
#include "tests/test_util.h"

namespace impeller {
namespace {

using testutil::FastConfig;
using testutil::WaitFor;

// a (2 tasks) -> b (2 tasks, sink): b's input is keyed and commit-gated, so
// b commits in waves behind a's commits.
Result<QueryPlan> TwoStageChain() {
  auto same = [](StreamRecord r) { return r; };
  QueryBuilder qb("chain");
  qb.Ingress("in");
  qb.AddStage("a", 2).ReadsFrom({"in"}).Map(same).WritesTo("ab");
  qb.AddStage("b", 2).ReadsFrom({"ab"}).Map(same).Sink("chain");
  return qb.Build();
}

// After a 2 -> 1 scale-down of a, the retired a/1 never commits again. b's
// waves must stop waiting for it instead of falling back to b's interval
// timer for good.
TEST(ProtocolStrategyTest, WavesResumeAfterUpstreamScaleDown) {
  EngineOptions options;
  options.config = FastConfig(ProtocolKind::kProgressMarking);
  options.config.commit_interval = 100 * kMillisecond;
  options.config.output_flush_interval = 10 * kMillisecond;
  options.config.sched_workers = 2;
  options.config.log_shards = 2;
  options.log_latency = std::make_shared<CalibratedLatencyModel>(
      CalibratedLatencyModel::BokiParams(), 11);
  Engine engine(std::move(options));
  auto plan = TwoStageChain();
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_TRUE(engine.Submit(std::move(*plan)).ok());
  auto producer = engine.NewProducer("gen", "in");
  ASSERT_TRUE(producer.ok());

  // Live input over both ingress substreams for the whole test.
  std::atomic<bool> sending{true};
  std::thread sender([&] {
    Clock* clock = engine.clock();
    for (uint64_t n = 0; sending.load(); ++n) {
      for (int i = 0; i < 4; ++i) {
        (*producer)->Send("k" + std::to_string((4 * n + i) % 64), "v");
      }
      EXPECT_TRUE((*producer)->Flush().ok());
      clock->SleepFor(5 * kMillisecond);
    }
  });
  Counter* waves = engine.metrics()->GetCounter("task/commits_on_wave");
  EXPECT_TRUE(WaitFor([&] { return waves->Get() >= 5; }))
      << "b commits in waves before the rescale";

  Status rescaled = engine.tasks()->RescaleStage("a", 1);
  const uint64_t before = waves->Get();
  engine.clock()->SleepFor(kSecond);
  const uint64_t after = waves->Get();
  sending.store(false);
  sender.join();
  engine.Stop();
  ASSERT_TRUE(rescaled.ok()) << rescaled.ToString();
  // Both b tasks follow a/0's ~10 commits a second.
  EXPECT_GE(after - before, 5u)
      << "b stopped committing in waves after the scale-down";
}

// Two independent pipelines on one worker: "big" emits 4 KiB records under
// kafka-txn while its previous transaction's phase two is held up, "small"
// just maps. Once big's buffer passes 128 KiB it stalls until phase two is
// over — but as a step that returns a wait, so small keeps running.
Result<QueryPlan> StallPlan() {
  QueryBuilder qb("stall");
  qb.Ingress("big_in");
  qb.Ingress("small_in");
  qb.AddStage("big", 1)
      .ReadsFrom({"big_in"})
      .Map([](StreamRecord r) {
        r.value.assign(4096, 'x');
        return r;
      })
      .Sink("big");
  qb.AddStage("small", 1)
      .ReadsFrom({"small_in"})
      .Map([](StreamRecord r) { return r; })
      .Sink("small");
  return qb.Build();
}

TEST(ProtocolStrategyTest, TxnBufferStallDoesNotBlockTheWorker) {
#if !defined(IMPELLER_FAULT_INJECTION_ENABLED)
  GTEST_SKIP() << "built with IMPELLER_FAULT_INJECTION=OFF";
#endif
  constexpr DurationNs kPhaseTwoDelay = 2 * kSecond;
  EngineOptions options;
  options.config = FastConfig(ProtocolKind::kKafkaTxn);
  options.config.commit_interval = kSecond;
  options.config.sched_workers = 1;
  Engine engine(std::move(options));
  auto plan = StallPlan();
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_TRUE(engine.Submit(std::move(*plan)).ok());
  fault::FaultSchedule slow_phase_two;
  slow_phase_two.point = "txn/phase2";
  slow_phase_two.kind = fault::FaultKind::kDelay;
  slow_phase_two.detail_substr = "stall/big/0";
  slow_phase_two.at_hit = 1;
  slow_phase_two.delay = kPhaseTwoDelay;
  testutil::FaultArmGuard faults({slow_phase_two}, 1);

  TaskRuntime* big = engine.tasks()->FindTask("stall/big/0");
  TaskRuntime* small = engine.tasks()->FindTask("stall/small/0");
  auto big_in = engine.NewProducer("gen-big", "big_in");
  auto small_in = engine.NewProducer("gen-small", "small_in");
  ASSERT_TRUE(big_in.ok() && small_in.ok());

  // Big's first transaction: its phase two is the slow one.
  (*big_in)->Send("first", "v");
  ASSERT_TRUE((*big_in)->Flush().ok());
  ASSERT_TRUE(WaitFor([&] { return big->markers_written() >= 1; }));
  const TimeNs phase_two_from = engine.clock()->Now();

  // 256 KiB of output behind it: big stalls.
  for (int i = 0; i < 64; ++i) {
    (*big_in)->Send("k" + std::to_string(i), "v");
  }
  ASSERT_TRUE((*big_in)->Flush().ok());
  ASSERT_TRUE(WaitFor([&] { return big->records_processed() >= 65; }));

  for (int i = 0; i < 10; ++i) {
    (*small_in)->Send("s" + std::to_string(i), "v");
  }
  ASSERT_TRUE((*small_in)->Flush().ok());
  EXPECT_TRUE(WaitFor([&] { return small->records_processed() >= 10; },
                      kPhaseTwoDelay / 4))
      << "the worker is parked on big's stall";
  EXPECT_LT(engine.clock()->Now() - phase_two_from, kPhaseTwoDelay)
      << "too slow to tell a stall from its end";

  // The stall ends with phase two: every big record commits exactly once.
  auto egress = engine.NewEgressConsumer("big", 0);
  ASSERT_TRUE(egress.ok());
  size_t committed = 0;
  EXPECT_TRUE(WaitFor([&] {
    auto records = (*egress)->PollAll();
    committed += records.ok() ? records->size() : 0;
    return committed >= 65;
  }));
  engine.Stop();
  auto rest = (*egress)->PollAll();
  ASSERT_TRUE(rest.ok());
  EXPECT_EQ(committed + rest->size(), 65u);
}

}  // namespace
}  // namespace impeller
