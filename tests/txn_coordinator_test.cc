// Transaction coordinator group commit (paper §3.6 baseline): concurrent
// transactions share transaction-stream rounds and phase-two passes, a
// fenced zombie fails only itself, and phase one never sleeps its caller.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/core/record.h"
#include "src/core/stream.h"
#include "src/fault/fault.h"
#include "src/protocols/txn_coordinator.h"
#include "src/sharedlog/latency_model.h"

namespace impeller {
namespace {

// Every append acks a fixed time after its ordering round starts, so rounds
// on one shard serialize deterministically.
class FixedLatencyModel final : public LatencyModel {
 public:
  explicit FixedLatencyModel(DurationNs ack) : ack_(ack) {}
  LatencySample SampleAppend(size_t, DurationNs) override {
    return {ack_, 0};
  }

 private:
  DurationNs ack_;
};

SharedLogOptions FixedLatencyLog(DurationNs ack) {
  SharedLogOptions options;
  options.latency = std::make_shared<FixedLatencyModel>(ack);
  return options;
}

TxnCoordinatorOptions FastRpc() {
  TxnCoordinatorOptions options;
  options.rpc_median = 10 * kMicrosecond;
  return options;
}

TxnRequest Request(SharedLog& log, const std::string& task_id) {
  log.MetaPut(InstanceMetaKey(task_id), 1);
  TxnRequest request;
  request.task_id = task_id;
  request.instance = 1;
  request.output_tags = {"d/" + task_id};
  request.task_log_tag = TaskLogTag(task_id);
  request.input_ends = {{"d/in", 7}};
  return request;
}

// Steps every phase one round-robin, sleeping only while none is due, the
// way a scheduler would, and returns each one's phase-two future.
std::vector<std::shared_future<Status>> DrivePhaseOne(
    std::vector<std::unique_ptr<TxnCoordinator::PhaseOne>>& txns) {
  Clock* clock = MonotonicClock::Get();
  while (true) {
    DurationNs next = 0;
    for (auto& txn : txns) {
      DurationNs wait = txn->Poll();
      if (wait > 0 && (next == 0 || wait < next)) {
        next = wait;
      }
    }
    if (next == 0) {
      break;
    }
    clock->SleepFor(next);
  }
  std::vector<std::shared_future<Status>> futures;
  for (auto& txn : txns) {
    const auto& result = txn->result();
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    if (result.ok()) {
      futures.push_back(*result);
    }
  }
  return futures;
}

std::vector<std::unique_ptr<TxnCoordinator::PhaseOne>> Begin(
    TxnCoordinator& coordinator, std::vector<TxnRequest> reqs) {
  std::vector<std::unique_ptr<TxnCoordinator::PhaseOne>> txns;
  for (TxnRequest& req : reqs) {
    auto txn = coordinator.BeginTransaction(std::move(req));
    EXPECT_TRUE(txn.ok()) << txn.status().ToString();
    if (txn.ok()) {
      txns.push_back(std::move(*txn));
    }
  }
  return txns;
}

std::vector<std::shared_future<Status>> Commit(TxnCoordinator& coordinator,
                                               std::vector<TxnRequest> reqs) {
  auto txns = Begin(coordinator, std::move(reqs));
  auto futures = DrivePhaseOne(txns);
  for (auto& future : futures) {
    future.wait();
  }
  return futures;
}

// The transaction-control records on `tag`, in LSN order.
std::vector<std::pair<Lsn, Envelope>> ReadControl(SharedLog& log,
                                                        const std::string& tag) {
  std::vector<std::pair<Lsn, Envelope>> out;
  for (Lsn cursor = 0;;) {
    auto entry = log.ReadNext(tag, cursor);
    if (!entry.ok()) {
      break;
    }
    cursor = entry->lsn + 1;
    auto env = DecodeEnvelope(entry->payload);
    EXPECT_TRUE(env.ok());
    if (env.ok() && env->header.type == RecordType::kTxnControl) {
      out.emplace_back(entry->lsn, std::move(*env));
    }
  }
  return out;
}

TEST(TxnCoordinatorTest, ConcurrentTransactionsShareTxnStreamRounds) {
  SharedLog log(FixedLatencyLog(5 * kMillisecond));
  TxnCoordinator coordinator(&log, MonotonicClock::Get(), FastRpc());
  coordinator.Start();

  // Alone on the coordinator a transaction takes its three stream rounds
  // and one commit-control batch, as without grouping.
  uint64_t before = log.stats().appends;
  for (auto& done : Commit(coordinator, {Request(log, "q/solo/0")})) {
    EXPECT_TRUE(done.get().ok()) << done.get().ToString();
  }
  EXPECT_EQ(log.stats().appends - before, 4u);

  constexpr int kTxns = 8;
  std::vector<TxnRequest> reqs;
  for (int i = 0; i < kTxns; ++i) {
    reqs.push_back(Request(log, "q/s/" + std::to_string(i)));
  }
  before = log.stats().appends;
  for (auto& done : Commit(coordinator, std::move(reqs))) {
    EXPECT_TRUE(done.get().ok()) << done.get().ToString();
  }
  EXPECT_EQ(coordinator.committed_txns(), 1u + kTxns);
  // One transaction at a time these take 8 commit-control batches plus 24
  // stream rounds; grouped, the stream rounds are shared.
  uint64_t appends = log.stats().appends - before;
  EXPECT_LE(appends, 8u + 8u) << "stream rounds were not shared";

  // Per transaction: registration < pre-commit < committed by LSN.
  std::map<std::string, std::vector<std::pair<TxnControlKind, Lsn>>> stream;
  auto records = ReadControl(log, coordinator.txn_stream_tag());
  EXPECT_EQ(records.size(), 3u * (1 + kTxns));
  for (const auto& [lsn, env] : records) {
    auto body = DecodeTxnControlBody(env.body);
    ASSERT_TRUE(body.ok());
    stream[env.header.producer].emplace_back(body->kind, lsn);
  }
  for (int i = 0; i < kTxns; ++i) {
    const auto& txn = stream["q/s/" + std::to_string(i)];
    ASSERT_EQ(txn.size(), 3u) << i;
    EXPECT_EQ(txn[0].first, TxnControlKind::kRegistration);
    EXPECT_EQ(txn[1].first, TxnControlKind::kPreCommit);
    EXPECT_EQ(txn[2].first, TxnControlKind::kTxnCommitted);
    EXPECT_LT(txn[0].second, txn[1].second);
    EXPECT_LT(txn[1].second, txn[2].second);
    EXPECT_EQ(ReadControl(log, "d/q/s/" + std::to_string(i)).size(), 1u);
  }
  coordinator.Stop();
}

TEST(TxnCoordinatorTest, FencedTransactionDoesNotFailItsGroup) {
  SharedLog log(FixedLatencyLog(kMillisecond));
  TxnCoordinator coordinator(&log, MonotonicClock::Get(), FastRpc());
  coordinator.Start();
  fault::FaultSchedule hold;
  hold.point = "txn/phase2";
  hold.kind = fault::FaultKind::kDelay;
  hold.detail_substr = "q/hold/0";
  hold.at_hit = 1;
  hold.delay = 300 * kMillisecond;
  fault::FaultInjector::Get().Arm({hold}, 1);

  // The holder's phase-two delay keeps the worker busy while both
  // transactions hand off, so the next pass takes them together.
  auto holder = Begin(coordinator, {Request(log, "q/hold/0")});
  auto held = DrivePhaseOne(holder);
  ASSERT_EQ(held.size(), 1u);
  auto pair = Begin(coordinator,
                    {Request(log, "q/live/0"), Request(log, "q/zombie/0")});
  auto futures = DrivePhaseOne(pair);
  ASSERT_EQ(futures.size(), 2u);
  ASSERT_EQ(futures[1].wait_for(std::chrono::seconds(0)),
            std::future_status::timeout)
      << "the worker must still be holding";
  // A replacement instance supersedes the zombie before its pass.
  log.MetaIncrement(InstanceMetaKey("q/zombie/0"));

  for (auto& future : futures) {
    future.wait();
  }
  fault::FaultInjector::Get().Disarm();
  EXPECT_TRUE(held[0].get().ok()) << held[0].get().ToString();
  EXPECT_TRUE(futures[0].get().ok()) << futures[0].get().ToString();
  EXPECT_EQ(futures[1].get().code(), StatusCode::kFenced)
      << futures[1].get().ToString();
  EXPECT_EQ(coordinator.committed_txns(), 2u);

  // The live transaction's commit is readable; the zombie wrote no control
  // record anywhere.
  EXPECT_EQ(ReadControl(log, "d/q/live/0").size(), 1u);
  auto live_cut = log.ReadLast(TaskLogTag("q/live/0"));
  ASSERT_TRUE(live_cut.ok()) << live_cut.status().ToString();
  EXPECT_TRUE(ReadControl(log, "d/q/zombie/0").empty());
  EXPECT_TRUE(ReadControl(log, TaskLogTag("q/zombie/0")).empty());
  size_t committed_records = 0;
  for (const auto& [lsn, env] : ReadControl(log, coordinator.txn_stream_tag())) {
    auto body = DecodeTxnControlBody(env.body);
    ASSERT_TRUE(body.ok());
    if (body->kind == TxnControlKind::kTxnCommitted) {
      ++committed_records;
      EXPECT_NE(env.header.producer, "q/zombie/0");
    }
  }
  EXPECT_EQ(committed_records, 2u);
  coordinator.Stop();
}

TEST(TxnCoordinatorTest, FenceCheckDelayIsPhaseOnesFirstWait) {
  SharedLog log;
  TxnCoordinator coordinator(&log, MonotonicClock::Get(), FastRpc());
  coordinator.Start();
  fault::FaultSchedule delay;
  delay.point = "txn/fence_check";
  delay.kind = fault::FaultKind::kDelay;
  delay.at_hit = 1;
  delay.delay = 200 * kMillisecond;
  fault::FaultInjector::Get().Arm({delay}, 1);

  Clock* clock = MonotonicClock::Get();
  TimeNs start = clock->Now();
  auto txn = coordinator.BeginTransaction(Request(log, "q/s/0"));
  DurationNs begin = clock->Now() - start;
  fault::FaultInjector::Get().Disarm();
  ASSERT_TRUE(txn.ok()) << txn.status().ToString();
  EXPECT_LT(begin, 50 * kMillisecond) << "BeginTransaction slept";
  DurationNs wait = (*txn)->Poll();
  EXPECT_GT(wait, 100 * kMillisecond);
  EXPECT_LE(wait, 250 * kMillisecond);

  std::vector<std::unique_ptr<TxnCoordinator::PhaseOne>> txns;
  txns.push_back(std::move(*txn));
  for (auto& done : DrivePhaseOne(txns)) {
    done.wait();
    EXPECT_TRUE(done.get().ok()) << done.get().ToString();
  }
  EXPECT_GE(clock->Now() - start, 200 * kMillisecond);
  coordinator.Stop();
}

}  // namespace
}  // namespace impeller
