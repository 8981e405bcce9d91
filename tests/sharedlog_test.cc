// Unit tests for the shared log: total order, tag-selective reads, atomic
// multi-tag appends, conditional-append fencing, trim, and metadata.
#include <gtest/gtest.h>

#include <thread>

#include "src/common/threading.h"
#include "src/sharedlog/shared_log.h"

namespace impeller {
namespace {

AppendRequest Req(std::vector<std::string> tags, std::string payload) {
  AppendRequest req;
  req.tags = std::move(tags);
  req.payload = std::move(payload);
  return req;
}

TEST(SharedLogTest, AppendAssignsDenseLsns) {
  SharedLog log;
  for (uint64_t i = 0; i < 10; ++i) {
    auto lsn = log.Append(Req({"a"}, "p" + std::to_string(i)));
    ASSERT_TRUE(lsn.ok());
    EXPECT_EQ(*lsn, i);
  }
  EXPECT_EQ(log.TailLsn(), 10u);
}

TEST(SharedLogTest, SelectiveReadFollowsTag) {
  SharedLog log;
  ASSERT_TRUE(log.Append(Req({"a"}, "1")).ok());
  ASSERT_TRUE(log.Append(Req({"b"}, "2")).ok());
  ASSERT_TRUE(log.Append(Req({"a"}, "3")).ok());

  auto first = log.ReadNext("a", 0);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->payload, "1");
  auto second = log.ReadNext("a", first->lsn + 1);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->payload, "3");
  EXPECT_EQ(log.ReadNext("a", second->lsn + 1).status().code(),
            StatusCode::kNotFound);
}

TEST(SharedLogTest, MultiTagAppendVisibleOnAllTags) {
  // The atomic multi-stream append of §3.2: one record, one LSN, readable
  // from every tagged substream.
  SharedLog log;
  auto lsn = log.Append(Req({"x/1", "x/2", "t/task"}, "marker"));
  ASSERT_TRUE(lsn.ok());
  for (const char* tag : {"x/1", "x/2", "t/task"}) {
    auto got = log.ReadNext(tag, 0);
    ASSERT_TRUE(got.ok()) << tag;
    EXPECT_EQ(got->lsn, *lsn);
    EXPECT_EQ(got->payload, "marker");
  }
  // Built without a registry, the log still counts its own traffic.
  SharedLogStats stats = log.stats();
  EXPECT_EQ(stats.appends, 1u);
  EXPECT_EQ(stats.records, 1u);
  EXPECT_EQ(stats.bytes_appended, 6u);
  EXPECT_EQ(stats.reads, 3u);
}

TEST(SharedLogTest, ConditionalAppendFencesStaleInstance) {
  MetricsRegistry metrics;
  SharedLogOptions opts;
  opts.metrics = &metrics;
  SharedLog log(std::move(opts));
  log.MetaPut("inst/t1", 2);

  AppendRequest stale = Req({"a"}, "zombie");
  stale.cond_key = "inst/t1";
  stale.cond_value = 1;
  auto fenced = log.Append(std::move(stale));
  ASSERT_FALSE(fenced.ok());
  EXPECT_EQ(fenced.status().code(), StatusCode::kFenced);

  AppendRequest current = Req({"a"}, "live");
  current.cond_key = "inst/t1";
  current.cond_value = 2;
  EXPECT_TRUE(log.Append(std::move(current)).ok());
  ASSERT_TRUE(log.ReadNext("a", 0).ok());
  ASSERT_TRUE(log.Trim(1).ok());
  // stats() reads the registry's "log/*" counters.
  SharedLogStats stats = log.stats();
  EXPECT_EQ(stats.fenced_appends, 1u);
  auto counter = [&metrics](const char* name) {
    return metrics.GetCounter(name)->Get();
  };
  EXPECT_EQ(stats.appends, counter("log/appends"));
  EXPECT_EQ(stats.records, counter("log/records"));
  EXPECT_EQ(stats.fenced_appends, counter("log/fenced_appends"));
  EXPECT_EQ(stats.sealed_appends, counter("log/sealed_appends"));
  EXPECT_EQ(stats.reads, counter("log/reads"));
  EXPECT_EQ(stats.trims, counter("log/trims"));
  EXPECT_EQ(stats.bytes_appended, counter("log/bytes_appended"));
  EXPECT_EQ(stats.records_trimmed, counter("log/records_trimmed"));
  EXPECT_EQ(stats.seals, counter("log/seals"));
  EXPECT_EQ(stats.rejoins, counter("log/rejoins"));
  EXPECT_EQ(stats.appends, 1u);
  EXPECT_EQ(stats.reads, 1u);
  EXPECT_EQ(stats.records_trimmed, 1u);
}

TEST(SharedLogTest, ConditionalAppendOnMissingKeyTreatsValueAsZero) {
  SharedLog log;
  AppendRequest req = Req({"a"}, "p");
  req.cond_key = "inst/unknown";
  req.cond_value = 0;
  EXPECT_TRUE(log.Append(std::move(req)).ok());
}

TEST(SharedLogTest, BatchAppendIsContiguousAndAllOrNothing) {
  SharedLog log;
  log.MetaPut("inst/t1", 5);
  std::vector<AppendRequest> batch;
  batch.push_back(Req({"a"}, "1"));
  AppendRequest fenced = Req({"b"}, "2");
  fenced.cond_key = "inst/t1";
  fenced.cond_value = 4;
  batch.push_back(std::move(fenced));
  auto lsns = log.AppendBatch(batch);
  ASSERT_FALSE(lsns.ok());
  EXPECT_EQ(lsns.status().code(), StatusCode::kFenced);
  EXPECT_EQ(log.TailLsn(), 0u) << "fenced batch must not append anything";

  std::vector<AppendRequest> ok_batch;
  for (int i = 0; i < 5; ++i) {
    ok_batch.push_back(Req({"a"}, std::to_string(i)));
  }
  auto ok = log.AppendBatch(ok_batch);
  ASSERT_TRUE(ok.ok());
  for (size_t i = 0; i < ok->size(); ++i) {
    EXPECT_EQ((*ok)[i], i);
  }
}

TEST(SharedLogTest, RejectedBatchLeavesRequestsIntactForRetry) {
  // AppendBatch's retry contract: on any failure the requests are untouched
  // (payloads not moved out), so a caller can re-issue the identical batch —
  // here after the fencing condition is repaired.
  SharedLog log;
  log.MetaPut("inst/t1", 5);
  std::vector<AppendRequest> batch;
  batch.push_back(Req({"a"}, "payload-a"));
  AppendRequest cond = Req({"b"}, "payload-b");
  cond.cond_key = "inst/t1";
  cond.cond_value = 4;
  batch.push_back(std::move(cond));

  ASSERT_EQ(log.AppendBatch(batch).status().code(), StatusCode::kFenced);
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch[0].payload, "payload-a");
  EXPECT_EQ(batch[1].payload, "payload-b");
  EXPECT_EQ(batch[1].cond_key, "inst/t1");

  log.MetaPut("inst/t1", 4);
  auto ok = log.AppendBatch(batch);
  ASSERT_TRUE(ok.ok());
  ASSERT_EQ(ok->size(), 2u);
  auto got = log.ReadNext("b", 0);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->payload, "payload-b");
}

TEST(SharedLogTest, TrimWakesBlockedAwaitNext) {
  // A reader blocked in AwaitNext on a record still in delivery must learn
  // about a concurrent Trim immediately, not after the delivery wait runs
  // out. The delivery latency is far beyond the assertion bound, so a fast
  // kTrimmed return is only explainable by Trim's wakeup.
  CalibratedLatencyParams params;
  params.ack_median = 1 * kMillisecond;
  params.ack_sigma = 0.01;
  params.delivery_median = 5 * kSecond;
  params.delivery_sigma = 0.01;
  SharedLogOptions opts;
  opts.latency = std::make_shared<CalibratedLatencyModel>(params, 1);
  SharedLog log(std::move(opts));

  ASSERT_TRUE(log.Append(Req({"a"}, "slow")).ok());
  TimeNs t0 = MonotonicClock::Get()->Now();
  JoiningThread trimmer([&log] {
    MonotonicClock::Get()->SleepFor(50 * kMillisecond);
    ASSERT_TRUE(log.Trim(1).ok());
  });
  auto got = log.AwaitNext("a", 0, 10 * kSecond);
  TimeNs elapsed = MonotonicClock::Get()->Now() - t0;
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kTrimmed);
  EXPECT_LT(elapsed, 2 * kSecond);
}

TEST(SharedLogTest, ReadLastReturnsNewest) {
  SharedLog log;
  ASSERT_TRUE(log.Append(Req({"t/x"}, "old")).ok());
  ASSERT_TRUE(log.Append(Req({"other"}, "noise")).ok());
  ASSERT_TRUE(log.Append(Req({"t/x"}, "new")).ok());
  auto last = log.ReadLast("t/x");
  ASSERT_TRUE(last.ok());
  EXPECT_EQ(last->payload, "new");
  EXPECT_EQ(log.ReadLast("missing").status().code(), StatusCode::kNotFound);
}

TEST(SharedLogTest, TrimDropsPrefixAndFlagsStaleCursors) {
  SharedLog log;
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(log.Append(Req({"a"}, std::to_string(i))).ok());
  }
  ASSERT_TRUE(log.Trim(5).ok());
  EXPECT_EQ(log.TrimPoint(), 5u);
  // Cursor pointing at a trimmed record of this tag must error, not skip.
  EXPECT_EQ(log.ReadNext("a", 3).status().code(), StatusCode::kTrimmed);
  auto ok = log.ReadNext("a", 5);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok->payload, "5");
  // Direct read below the trim point errors.
  EXPECT_EQ(log.ReadAt(2).status().code(), StatusCode::kTrimmed);
  // Idempotent / stale trims are fine; beyond-tail trims are not.
  EXPECT_TRUE(log.Trim(5).ok());
  EXPECT_TRUE(log.Trim(2).ok());
  EXPECT_EQ(log.Trim(100).code(), StatusCode::kOutOfRange);
}

TEST(SharedLogTest, TrimOnlyFlagsTagsThatLostRecords) {
  SharedLog log;
  ASSERT_TRUE(log.Append(Req({"a"}, "0")).ok());   // lsn 0
  ASSERT_TRUE(log.Append(Req({"b"}, "1")).ok());   // lsn 1
  ASSERT_TRUE(log.Append(Req({"b"}, "2")).ok());   // lsn 2
  ASSERT_TRUE(log.Trim(2).ok());
  // Tag "b" lost lsn 1: cursor 0 on "b" is stale.
  EXPECT_EQ(log.ReadNext("b", 0).status().code(), StatusCode::kTrimmed);
  // But from 2 it reads fine.
  EXPECT_TRUE(log.ReadNext("b", 2).ok());
}

TEST(SharedLogTest, AwaitNextWakesOnAppend) {
  SharedLog log;
  JoiningThread appender([&log] {
    MonotonicClock::Get()->SleepFor(20 * kMillisecond);
    ASSERT_TRUE(log.Append(Req({"a"}, "late")).ok());
  });
  auto got = log.AwaitNext("a", 0, 2 * kSecond);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->payload, "late");
}

TEST(SharedLogTest, AwaitNextTimesOut) {
  SharedLog log;
  auto got = log.AwaitNext("never", 0, 30 * kMillisecond);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kDeadlineExceeded);
}

TEST(SharedLogTest, MetadataIncrementAndCas) {
  SharedLog log;
  EXPECT_EQ(log.MetaGet("k").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(log.MetaIncrement("k"), 1u);
  EXPECT_EQ(log.MetaIncrement("k"), 2u);
  EXPECT_EQ(*log.MetaGet("k"), 2u);
  EXPECT_FALSE(log.MetaCas("k", 1, 9));
  EXPECT_TRUE(log.MetaCas("k", 2, 9));
  EXPECT_EQ(*log.MetaGet("k"), 9u);
}

TEST(SharedLogTest, LatencyModelDelaysVisibility) {
  CalibratedLatencyParams params;
  params.ack_median = 2 * kMillisecond;
  params.ack_sigma = 0.01;
  params.delivery_median = 10 * kMillisecond;
  params.delivery_sigma = 0.01;
  SharedLogOptions opts;
  opts.latency = std::make_shared<CalibratedLatencyModel>(params, 1);
  SharedLog log(std::move(opts));

  TimeNs t0 = MonotonicClock::Get()->Now();
  auto lsn = log.Append(Req({"a"}, "delayed"));
  ASSERT_TRUE(lsn.ok());
  TimeNs acked = MonotonicClock::Get()->Now();
  EXPECT_GE(acked - t0, 1 * kMillisecond) << "append blocks for the ack";
  // Not yet visible to tag readers (delivery pending)...
  EXPECT_EQ(log.ReadNext("a", 0).status().code(), StatusCode::kNotFound);
  // ...but already durable for recovery reads.
  EXPECT_TRUE(log.ReadLast("a").ok());
  auto got = log.AwaitNext("a", 0, kSecond);
  ASSERT_TRUE(got.ok());
  TimeNs seen = MonotonicClock::Get()->Now();
  EXPECT_GE(seen - t0, 8 * kMillisecond);

  // Admission and ack are separate steps. On a manual clock: AdmitBatch
  // returns at once with the ack still ahead, recovery reads see the batch
  // only from its ack on, tag readers only from its visible time, and
  // AppendBatch is admission plus the wait for that ack.
  ManualClock manual(1 * kSecond);
  SharedLogOptions manual_opts;
  manual_opts.latency = std::make_shared<CalibratedLatencyModel>(params, 1);
  manual_opts.clock = &manual;
  SharedLog split(std::move(manual_opts));
  std::vector<AppendRequest> batch;
  batch.push_back(Req({"b"}, "admitted"));
  TimeNs admit_at = manual.Now();
  auto admitted = split.AdmitBatch(batch);
  ASSERT_TRUE(admitted.ok());
  EXPECT_EQ(manual.Now(), admit_at) << "admission never waits";
  EXPECT_GT(admitted->ack_at, admit_at);
  Lsn lsn_b = admitted->lsns[0];
  EXPECT_EQ(split.ReadLast("b").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(split.ReadAt(lsn_b).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(split.ReadNext("b", 0).status().code(), StatusCode::kNotFound);
  manual.Set(admitted->ack_at);
  EXPECT_TRUE(split.ReadLast("b").ok()) << "durable at its ack";
  EXPECT_TRUE(split.ReadAt(lsn_b).ok());
  EXPECT_EQ(split.ReadNext("b", 0).status().code(), StatusCode::kNotFound)
      << "visible only after the delivery latency";
  manual.Advance(20 * kMillisecond);
  auto visible = split.ReadNext("b", 0);
  ASSERT_TRUE(visible.ok());
  EXPECT_EQ(visible->payload, "admitted");

  std::vector<AppendRequest> blocking;
  blocking.push_back(Req({"c"}, "appended"));
  TimeNs append_at = manual.Now();
  ASSERT_TRUE(split.AppendBatch(blocking).ok());
  EXPECT_GE(manual.Now() - append_at, 1 * kMillisecond)
      << "AppendBatch waits for the ack";
  EXPECT_TRUE(split.ReadLast("c").ok());
}

TEST(SharedLogTest, ConcurrentAppendersGetUniqueLsns) {
  SharedLog log;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 500;
  std::vector<std::vector<Lsn>> lsns(kThreads);
  {
    std::vector<JoiningThread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&log, &lsns, t] {
        for (int i = 0; i < kPerThread; ++i) {
          auto lsn = log.Append(
              AppendRequest{{"tag" + std::to_string(t)},
                            "p",
                            "",
                            0});
          ASSERT_TRUE(lsn.ok());
          lsns[t].push_back(*lsn);
        }
      });
    }
  }
  std::set<Lsn> all;
  for (const auto& per_thread : lsns) {
    // Per-appender LSNs must be strictly increasing (program order).
    for (size_t i = 1; i < per_thread.size(); ++i) {
      EXPECT_LT(per_thread[i - 1], per_thread[i]);
    }
    all.insert(per_thread.begin(), per_thread.end());
  }
  EXPECT_EQ(all.size(), static_cast<size_t>(kThreads * kPerThread));
  EXPECT_EQ(log.TailLsn(), static_cast<Lsn>(kThreads * kPerThread));
}

class TagFanoutSweep : public ::testing::TestWithParam<int> {};

TEST_P(TagFanoutSweep, OneRecordReadableFromNTags) {
  SharedLog log;
  int n = GetParam();
  std::vector<std::string> tags;
  for (int i = 0; i < n; ++i) {
    tags.push_back("fan/" + std::to_string(i));
  }
  auto lsn = log.Append(Req(tags, "fanout"));
  ASSERT_TRUE(lsn.ok());
  for (const auto& tag : tags) {
    auto got = log.ReadNext(tag, 0);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got->lsn, *lsn);
  }
}

INSTANTIATE_TEST_SUITE_P(Fanout, TagFanoutSweep,
                         ::testing::Values(1, 2, 8, 64, 256));

}  // namespace
}  // namespace impeller
