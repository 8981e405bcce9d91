// Engine/TaskManager API-contract tests: misuse is rejected with clear
// errors instead of undefined behaviour, no scheduler worker is ever
// parked on a modeled log ack, consumers commit in waves behind their
// producers, sources commit behind their input bursts, and an ingress
// flush takes one ordering round per log shard.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <mutex>
#include <thread>

#include "src/core/checkpoint.h"
#include "src/core/query.h"
#include "src/core/record.h"
#include "src/core/stream.h"
#include "src/nexmark/driver.h"
#include "src/sharedlog/latency_model.h"
#include "tests/test_util.h"

namespace impeller {
namespace {

using testutil::FastConfig;
using testutil::WaitFor;
using testutil::WordCountPlan;

// Real-time clock that sums the time each thread spends in SleepFor.
class SleepTallyClock final : public Clock {
 public:
  TimeNs Now() const override { return base_->Now(); }
  void SleepFor(DurationNs d) override {
    {
      std::lock_guard<std::mutex> lock(mu_);
      slept_[std::this_thread::get_id()] += d;
    }
    base_->SleepFor(d);
  }
  DurationNs SleptBy(std::thread::id thread) const {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = slept_.find(thread);
    return it == slept_.end() ? 0 : it->second;
  }

 private:
  Clock* base_ = MonotonicClock::Get();
  mutable std::mutex mu_;
  std::map<std::thread::id, DurationNs> slept_;
};

// The engine's only worker thread, learned from a probe entity.
std::thread::id WorkerThread(Engine& engine) {
  std::mutex mu;
  std::thread::id worker;
  sched::Ticket ticket = engine.scheduler()->Submit([&] {
    std::lock_guard<std::mutex> lock(mu);
    worker = std::this_thread::get_id();
    return sched::StepResult::Done();
  });
  engine.scheduler()->Wait(ticket);
  std::lock_guard<std::mutex> lock(mu);
  return worker;
}

// Flushes, progress markers and transaction commits hold their modeled
// waits as step state (StepResult::Idle), so under the calibrated Boki
// model the one worker running all four Q1 tasks never sleeps.
TEST(EngineApiTest, NoWorkerSleepsOnALogAck) {
  for (ProtocolKind protocol :
       {ProtocolKind::kProgressMarking, ProtocolKind::kKafkaTxn}) {
    SleepTallyClock clock;
    EngineOptions options;
    options.config = FastConfig(protocol);
    options.config.commit_interval = 100 * kMillisecond;
    options.config.output_flush_interval = 10 * kMillisecond;
    options.config.sched_workers = 1;
    options.config.log_shards = 2;
    options.log_latency = std::make_shared<CalibratedLatencyModel>(
        CalibratedLatencyModel::BokiParams(), 7);
    options.clock = &clock;
    Engine engine(std::move(options));
    NexmarkQueryOptions query;
    query.tasks_per_stage = 4;
    auto plan = BuildNexmarkQuery(1, query);
    ASSERT_TRUE(plan.ok());
    ASSERT_TRUE(engine.Submit(std::move(*plan)).ok());
    std::thread::id worker = WorkerThread(engine);

    NexmarkDriverOptions load;
    load.events_per_sec = 4000;
    auto driver = NexmarkDriver::Create(&engine, 1, load);
    ASSERT_TRUE(driver.ok());
    (*driver)->RunFor(kSecond);
    Counter* out = engine.metrics()->GetCounter("out/" + NexmarkSinkName(1));
    EXPECT_TRUE(WaitFor([&] { return out->Get() > 0; }))
        << "the run must commit output for the check to mean anything";
    engine.Stop();
    EXPECT_EQ(clock.SleptBy(worker), 0)
        << "protocol " << static_cast<int>(protocol);
  }
}

// A task that crashes right after admitting its progress marker reports
// finished() only once the marker is durable, so its replacement recovers
// to exactly that marker.
TEST(EngineApiTest, CrashAfterMarkerAdmitWaitsOutItsAck) {
#if !defined(IMPELLER_FAULT_INJECTION_ENABLED)
  GTEST_SKIP() << "built with IMPELLER_FAULT_INJECTION=OFF";
#endif
  CalibratedLatencyParams params;
  params.ack_median = 40 * kMillisecond;
  params.ack_sigma = 0.01;
  params.delivery_median = kMillisecond;
  params.delivery_sigma = 0.01;
  EngineOptions options;
  options.config = FastConfig(ProtocolKind::kProgressMarking);
  options.log_latency = std::make_shared<CalibratedLatencyModel>(params, 3);
  Engine engine(std::move(options));
  auto plan = WordCountPlan(1);
  ASSERT_TRUE(plan.ok());
  ASSERT_TRUE(engine.Submit(std::move(*plan)).ok());
  fault::FaultSchedule crash;
  crash.point = "task/commit/post_marker";
  crash.kind = fault::FaultKind::kCrash;
  crash.detail_substr = "wc/split/0";
  crash.at_hit = 1;
  testutil::FaultArmGuard faults({crash}, 1);

  const std::string task = "wc/split/0";
  auto producer = engine.NewProducer("gen", "lines");
  ASSERT_TRUE(producer.ok());
  (*producer)->Send("k", "one two three");
  ASSERT_TRUE((*producer)->Flush().ok());
  TaskRuntime* crashed = engine.tasks()->FindTask(task);
  ASSERT_NE(crashed, nullptr);
  ASSERT_TRUE(WaitFor([&] { return crashed->finished(); }));
  // The exit waited out the marker's ack: the marker is already durable.
  auto last = engine.log()->ReadLast(TaskLogTag(task));
  ASSERT_TRUE(last.ok()) << last.status().ToString();
  EXPECT_GE(engine.clock()->Now() - last->append_time, 30 * kMillisecond);
  auto env = DecodeEnvelope(last->payload);
  ASSERT_TRUE(env.ok());
  auto cut = ExtractCut(*env, last->lsn, task);
  ASSERT_TRUE(cut.ok() && cut->has_value());
  EXPECT_EQ((*cut)->marker_seq, 1u);
  EXPECT_FALSE(crashed->final_status().ok());

  // The replacement recovers to that marker and continues its sequence.
  auto stats = engine.tasks()->RestartTask(task);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_TRUE(stats->performed);
  TaskRuntime* replacement = engine.tasks()->FindTask(task);
  (*producer)->Send("k", "four five");
  ASSERT_TRUE((*producer)->Flush().ok());
  ASSERT_TRUE(WaitFor([&] { return replacement->markers_written() > 0; }));
  ASSERT_TRUE(WaitFor([&] {
    auto next = engine.log()->ReadLast(TaskLogTag(task));
    return next.ok() && next->lsn > last->lsn;
  }));
  auto next = engine.log()->ReadLast(TaskLogTag(task));
  auto next_env = DecodeEnvelope(next->payload);
  ASSERT_TRUE(next_env.ok());
  auto next_cut = ExtractCut(*next_env, next->lsn, task);
  ASSERT_TRUE(next_cut.ok() && next_cut->has_value());
  EXPECT_EQ((*next_cut)->marker_seq, 2u);
  engine.Stop();
}

// Three-stage keyed chain a -> b -> c (sink), two tasks each: both of its
// stage crossings are commit-gated.
Result<QueryPlan> KeyedChainPlan() {
  auto same = [](StreamRecord r) { return r; };
  QueryBuilder qb("chain");
  qb.Ingress("in");
  qb.AddStage("a", 2).ReadsFrom({"in"}).Map(same).WritesTo("ab");
  qb.AddStage("b", 2).ReadsFrom({"ab"}).Map(same).WritesTo("bc");
  qb.AddStage("c", 2).ReadsFrom({"bc"}).Map(same).Sink("chain");
  return qb.Build();
}

EngineOptions ChainOptions(ProtocolKind protocol) {
  EngineOptions options;
  options.config = FastConfig(protocol);
  options.config.commit_interval = 100 * kMillisecond;
  options.config.output_flush_interval = 10 * kMillisecond;
  options.config.sched_workers = 2;
  options.config.log_shards = 2;
  options.log_latency = std::make_shared<CalibratedLatencyModel>(
      CalibratedLatencyModel::BokiParams(), 11);
  return options;
}

// Feeds the chain's ingress and reads its committed egress.
class ChainDriver {
 public:
  explicit ChainDriver(Engine& engine) : clock_(engine.clock()) {
    auto producer = engine.NewProducer("gen", "in");
    EXPECT_TRUE(producer.ok());
    producer_ = std::move(*producer);
    for (uint32_t sub = 0; sub < 2; ++sub) {
      auto consumer = engine.NewEgressConsumer("c", sub);
      EXPECT_TRUE(consumer.ok());
      consumers_.push_back(std::move(*consumer));
    }
  }

  // Sends `keys` round robin for `duration`, a small batch every `period`
  // with event time = send time, then reads until every record sent is out.
  // Returns each record's committed-output latency.
  std::vector<DurationNs> Run(const std::vector<std::string>& keys,
                              DurationNs duration,
                              DurationNs period = 5 * kMillisecond) {
    std::vector<DurationNs> latencies;
    uint64_t sent = 0;
    TimeNs next_send = clock_->Now();
    TimeNs end = next_send + duration;
    while (clock_->Now() < end) {
      if (clock_->Now() >= next_send) {
        for (int i = 0; i < 4; ++i) {
          producer_->Send(keys[sent++ % keys.size()], "v");
        }
        EXPECT_TRUE(producer_->Flush().ok());
        next_send += period;
      }
      // Egress is read every millisecond whatever the send period, so a
      // latency is never rounded up to the next send.
      Poll(&latencies);
      clock_->SleepFor(kMillisecond);
    }
    EXPECT_TRUE(WaitFor([&] {
      Poll(&latencies);
      return latencies.size() >= sent;
    })) << latencies.size() << " of " << sent << " records committed";
    EXPECT_EQ(latencies.size(), sent) << "exactly once";
    return latencies;
  }

 private:
  void Poll(std::vector<DurationNs>* latencies) {
    for (auto& consumer : consumers_) {
      auto records = consumer->PollAll();
      ASSERT_TRUE(records.ok()) << records.status().ToString();
      TimeNs now = clock_->Now();
      for (const ReadyRecord& r : *records) {
        latencies->push_back(now - r.data.event_time);
      }
    }
  }

  Clock* clock_;
  std::unique_ptr<IngressProducer> producer_;
  std::vector<std::unique_ptr<EgressConsumer>> consumers_;
};

DurationNs Median(std::vector<DurationNs> v) {
  if (v.empty()) {
    return 0;
  }
  std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
  return v[v.size() / 2];
}

std::vector<std::string> Keys(int n) {
  std::vector<std::string> keys;
  for (int i = 0; i < n; ++i) {
    keys.push_back("k" + std::to_string(i));
  }
  return keys;
}

// A consumer commits as soon as all its producers have (a commit wave), so
// a record waits for one interval-timed commit — its source's — and one
// short hop per later stage, not for every stage's own timer.
TEST(EngineApiTest, DownstreamStagesCommitInWaves) {
  for (ProtocolKind protocol :
       {ProtocolKind::kProgressMarking, ProtocolKind::kKafkaTxn}) {
    SCOPED_TRACE(ProtocolKindName(protocol));
    EngineOptions options = ChainOptions(protocol);
    const DurationNs interval = options.config.commit_interval;
    Engine engine(std::move(options));
    auto plan = KeyedChainPlan();
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    ASSERT_TRUE(engine.Submit(std::move(*plan)).ok());
    std::vector<DurationNs> latencies =
        ChainDriver(engine).Run(Keys(64), kSecond);
    uint64_t downstream_commits = 0;
    for (const char* stage : {"b", "c"}) {
      for (int i = 0; i < 2; ++i) {
        downstream_commits += engine.tasks()
                                  ->FindTask(std::string("chain/") + stage +
                                             "/" + std::to_string(i))
                                  ->markers_written();
      }
    }
    uint64_t on_wave =
        engine.metrics()->GetCounter("task/commits_on_wave")->Get();
    engine.Stop();
    EXPECT_GT(downstream_commits, 0u);
    EXPECT_GT(on_wave * 2, downstream_commits)
        << on_wave << " of " << downstream_commits
        << " downstream commits were wave-triggered";
    DurationNs p50 = Median(latencies);
    EXPECT_LT(p50, interval * 3 / 2)
        << "committed-output p50 " << p50 / kMillisecond << " ms";
  }
}

// A producer that stops committing (no more input) holds back every wave
// of its consumers; their interval timer still commits them, so a record
// waits at most about one interval per stage.
TEST(EngineApiTest, IdleProducerFallsBackToTheCommitTimer) {
  EngineOptions options = ChainOptions(ProtocolKind::kProgressMarking);
  const DurationNs interval = options.config.commit_interval;
  Engine engine(std::move(options));
  auto plan = KeyedChainPlan();
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_TRUE(engine.Submit(std::move(*plan)).ok());
  // Warm-up over both ingress substreams: b's tasks learn both a tasks.
  ChainDriver driver(engine);
  driver.Run(Keys(64), 300 * kMillisecond);
  TaskRuntime* a1 = engine.tasks()->FindTask("chain/a/1");
  TaskRuntime* b0 = engine.tasks()->FindTask("chain/b/0");
  ASSERT_GT(a1->markers_written(), 0u);

  // Then input only for a/0 (keys on substream 0 stay on substream 0 at
  // every stage): a/1 has nothing left to commit, so no wave reaches b
  // again.
  std::vector<std::string> a0_keys;
  for (const std::string& key : Keys(256)) {
    if (HashPartition(key, 2) == 0) {
      a0_keys.push_back(key);
    }
  }
  const uint64_t a1_markers = a1->markers_written();
  const uint64_t b0_markers = b0->markers_written();
  std::vector<DurationNs> latencies = driver.Run(a0_keys, kSecond);
  EXPECT_EQ(a1->markers_written(), a1_markers) << "a/1 must stay idle";
  const uint64_t b0_commits = b0->markers_written() - b0_markers;
  engine.Stop();
  EXPECT_GE(b0_commits, 5u) << "b/0 kept committing on its timer";
  ASSERT_FALSE(latencies.empty());
  DurationNs worst = *std::max_element(latencies.begin(), latencies.end());
  // a's commit and b's timer each take at most an interval; c still commits
  // in waves, as both b tasks commit (b/1 for the input ends a/0's markers
  // move).
  EXPECT_LT(worst, 3 * interval)
      << "a record waited " << worst / kMillisecond << " ms";
}

uint64_t SourceMarkers(Engine& engine) {
  return engine.tasks()->FindTask("chain/a/0")->markers_written() +
         engine.tasks()->FindTask("chain/a/1")->markers_written();
}

// A source fed in bursts (one ingress flush per commit interval, as
// perfbench's Q5 and Q8 ingress) commits right behind each burst instead of
// at its timer's phase, so a record does not wait about half an interval
// for its source's commit.
TEST(EngineApiTest, SourcesCommitBehindTheirInputBursts) {
  for (ProtocolKind protocol :
       {ProtocolKind::kProgressMarking, ProtocolKind::kKafkaTxn}) {
    SCOPED_TRACE(ProtocolKindName(protocol));
    EngineOptions options = ChainOptions(protocol);
    const DurationNs interval = options.config.commit_interval;
    Engine engine(std::move(options));
    auto plan = KeyedChainPlan();
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    ASSERT_TRUE(engine.Submit(std::move(*plan)).ok());
    std::vector<DurationNs> latencies =
        ChainDriver(engine).Run(Keys(64), 2 * kSecond, interval);
    const uint64_t source_commits = SourceMarkers(engine);
    const uint64_t on_burst =
        engine.metrics()->GetCounter("task/commits_on_burst")->Get();
    engine.Stop();
    EXPECT_GT(source_commits, 0u);
    EXPECT_GT(on_burst * 2, source_commits)
        << on_burst << " of " << source_commits
        << " source commits were burst-triggered";
    DurationNs p50 = Median(latencies);
    EXPECT_LT(p50, interval * 6 / 10)
        << "committed-output p50 " << p50 / kMillisecond << " ms";
  }
}

// Input every 5 ms never leaves half an interval of silence, so sources
// keep their interval timer: no burst commits, and no more commits.
TEST(EngineApiTest, ContinuousInputKeepsTheCommitCadence) {
  for (ProtocolKind protocol :
       {ProtocolKind::kProgressMarking, ProtocolKind::kKafkaTxn}) {
    SCOPED_TRACE(ProtocolKindName(protocol));
    EngineOptions options = ChainOptions(protocol);
    const DurationNs interval = options.config.commit_interval;
    Engine engine(std::move(options));
    auto plan = KeyedChainPlan();
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    const TimeNs start = engine.clock()->Now();
    ASSERT_TRUE(engine.Submit(std::move(*plan)).ok());
    ChainDriver(engine).Run(Keys(64), kSecond);
    const DurationNs elapsed = engine.clock()->Now() - start;
    const uint64_t source_commits = SourceMarkers(engine);
    const uint64_t on_burst =
        engine.metrics()->GetCounter("task/commits_on_burst")->Get();
    engine.Stop();
    EXPECT_EQ(on_burst, 0u);
    EXPECT_GT(source_commits, 0u);
    // Two sources, each at most 1.2 commits per elapsed interval.
    EXPECT_LE(source_commits * interval, 2 * elapsed * 12 / 10)
        << source_commits << " source commits in " << elapsed / kMillisecond
        << " ms";
  }
}

// --- Ingress flushes: one ordering round per log shard ---

constexpr uint32_t kIngressSubs = 8;

std::unique_ptr<SharedLog> IngressLog(uint32_t shards,
                                      MetricsRegistry* metrics,
                                      bool auto_seal = true) {
  SharedLogOptions options;
  options.name = "log";
  options.shards = shards;
  options.metrics = metrics;
  options.failover.auto_seal = auto_seal;
  return std::make_unique<SharedLog>(std::move(options));
}

// Sends `n` records to "src" (keys k0..k<n-1>, spread over every
// substream); returns each substream's sequence numbers in Send order.
std::vector<std::vector<uint64_t>> SendSpread(IngressProducer& producer,
                                              int n) {
  std::vector<std::vector<uint64_t>> seqs(kIngressSubs);
  for (int i = 0; i < n; ++i) {
    std::string key = "k" + std::to_string(i);
    seqs[HashPartition(key, kIngressSubs)].push_back(producer.sent() + 1);
    producer.Send(key, "v" + std::to_string(i));
  }
  return seqs;
}

// Reads every substream of "src" through read-committed consumers until
// `want` records have arrived, plus one more poll to catch duplicates;
// returns each substream's sequence numbers in log order.
std::vector<std::vector<uint64_t>> ReadBack(SharedLog* log, size_t want) {
  std::vector<std::unique_ptr<EgressConsumer>> consumers;
  for (uint32_t sub = 0; sub < kIngressSubs; ++sub) {
    consumers.push_back(std::make_unique<EgressConsumer>(
        log, "src", sub, /*read_committed=*/true));
  }
  std::vector<std::vector<uint64_t>> seqs(kIngressSubs);
  size_t got = 0;
  auto poll = [&] {
    for (uint32_t sub = 0; sub < kIngressSubs; ++sub) {
      auto records = consumers[sub]->PollAll();
      EXPECT_TRUE(records.ok()) << records.status().ToString();
      if (!records.ok()) {
        continue;
      }
      for (const ReadyRecord& r : *records) {
        seqs[sub].push_back(r.header.seq);
        ++got;
      }
    }
    return got >= want;
  };
  EXPECT_TRUE(WaitFor(poll)) << got << " of " << want << " records read";
  poll();
  return seqs;
}

// Substreams placed on one shard share one batch append: a flush raises
// log/appends by the number of distinct shards it touches, every record
// lands on its substream's shard, and each substream reads back in Send
// order, once each.
TEST(EngineApiTest, IngressFlushTakesOneRoundPerShard) {
  for (uint32_t shards : {4u, 1u}) {
    MetricsRegistry metrics;
    auto log = IngressLog(shards, &metrics);
    IngressProducer producer(log.get(), "gen", "src", kIngressSubs,
                             MonotonicClock::Get());
    auto seqs = SendSpread(producer, 96);
    std::map<uint32_t, uint64_t> shard_records;
    for (uint32_t sub = 0; sub < kIngressSubs; ++sub) {
      ASSERT_FALSE(seqs[sub].empty()) << "substream " << sub;
      shard_records[log->ShardOfTag(DataTag("src", sub))] += seqs[sub].size();
    }
    ASSERT_LT(shard_records.size(), kIngressSubs)
        << "some substreams must share a shard for the check to mean "
           "anything";

    auto flushed = producer.Flush();
    ASSERT_TRUE(flushed.ok()) << flushed.status().ToString();
    EXPECT_EQ(*flushed, 96u);
    EXPECT_EQ(producer.buffered(), 0u);
    EXPECT_EQ(metrics.GetCounter("log/appends")->Get(), shard_records.size())
        << "shards " << shards;
    EXPECT_EQ(metrics.GetCounter("log/records")->Get(), 96u);
    if (shards > 1) {
      for (uint32_t s = 0; s < shards; ++s) {
        EXPECT_EQ(
            metrics.GetCounter("log/shard" + std::to_string(s) + "/records")
                ->Get(),
            shard_records.count(s) ? shard_records[s] : 0u)
            << "shard " << s;
      }
    }
    EXPECT_EQ(ReadBack(log.get(), 96), seqs) << "shards " << shards;
  }
}

// A shard whose admits fail past the retry budget keeps exactly its
// substreams' records buffered while the other shards' groups commit; once
// the fault clears, the next Flush appends the held records with their
// original sequence numbers, and a read-committed consumer sees every
// record exactly once.
TEST(EngineApiTest, IngressFlushHoldsAFailedShardsRecords) {
#if !defined(IMPELLER_FAULT_INJECTION_ENABLED)
  GTEST_SKIP() << "built with IMPELLER_FAULT_INJECTION=OFF";
#endif
  MetricsRegistry metrics;
  auto log = IngressLog(4, &metrics, /*auto_seal=*/false);
  RetryPolicy retry;
  retry.max_attempts = 3;
  retry.initial_backoff = 10 * kMicrosecond;
  IngressProducer producer(log.get(), "gen", "src", kIngressSubs,
                           MonotonicClock::Get(), retry);
  auto seqs = SendSpread(producer, 96);
  // The victim is the last shard the flush admits to (groups go in shard
  // order), so no healthy group is left waiting behind it.
  uint32_t victim = 0;
  for (uint32_t sub = 0; sub < kIngressSubs; ++sub) {
    victim = std::max(victim, log->ShardOfTag(DataTag("src", sub)));
  }
  size_t held = 0;
  for (uint32_t sub = 0; sub < kIngressSubs; ++sub) {
    if (log->ShardOfTag(DataTag("src", sub)) == victim) {
      held += seqs[sub].size();
    }
  }
  ASSERT_GT(held, 0u);
  ASSERT_LT(held, 96u);
  {
    fault::FaultSchedule s;
    s.point = "log/shard/append";
    s.kind = fault::FaultKind::kError;
    s.detail_substr = "/s" + std::to_string(victim);
    s.every_n = 1;
    s.max_fires = 0;
    testutil::FaultArmGuard arm({s}, /*seed=*/3, &metrics);
    auto flushed = producer.Flush();
    EXPECT_EQ(flushed.status().code(), StatusCode::kUnavailable);
    EXPECT_EQ(producer.buffered(), held);
    EXPECT_EQ(metrics.GetCounter("log/records")->Get(), 96u - held)
        << "the healthy shards' records are durable";
    EXPECT_EQ(
        metrics
            .GetCounter("log/shard" + std::to_string(victim) + "/records")
            ->Get(),
        0u);
  }
  auto flushed = producer.Flush();
  ASSERT_TRUE(flushed.ok()) << flushed.status().ToString();
  EXPECT_EQ(*flushed, held);
  EXPECT_EQ(producer.buffered(), 0u);
  EXPECT_EQ(ReadBack(log.get(), 96), seqs)
      << "every record once, in Send order, with its original sequence "
         "number";
}

TEST(EngineApiTest, ProducersRequireSubmittedPlan) {
  Engine engine{EngineOptions{}};
  EXPECT_EQ(engine.NewProducer("gen", "lines").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(engine.NewEgressConsumer("count", 0).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(EngineApiTest, ProducerOnlyForIngressStreams) {
  EngineOptions options;
  options.config = FastConfig(ProtocolKind::kProgressMarking);
  Engine engine(std::move(options));
  auto plan = WordCountPlan(1);
  ASSERT_TRUE(plan.ok());
  ASSERT_TRUE(engine.Submit(std::move(*plan)).ok());
  EXPECT_FALSE(engine.NewProducer("gen", "words").ok())
      << "internal streams are not ingress";
  EXPECT_FALSE(engine.NewProducer("gen", "missing").ok());
  EXPECT_TRUE(engine.NewProducer("gen", "lines").ok());
  engine.Stop();
}

TEST(EngineApiTest, EgressConsumerValidatesStageAndSubstream) {
  EngineOptions options;
  options.config = FastConfig(ProtocolKind::kProgressMarking);
  Engine engine(std::move(options));
  auto plan = WordCountPlan(2);
  ASSERT_TRUE(plan.ok());
  ASSERT_TRUE(engine.Submit(std::move(*plan)).ok());
  EXPECT_FALSE(engine.NewEgressConsumer("split", 0).ok())
      << "split has no sink";
  EXPECT_FALSE(engine.NewEgressConsumer("count", 9).ok());
  EXPECT_TRUE(engine.NewEgressConsumer("count", 1).ok());
  engine.Stop();
}

TEST(EngineApiTest, OneQueryPerEngine) {
  EngineOptions options;
  options.config = FastConfig(ProtocolKind::kProgressMarking);
  Engine engine(std::move(options));
  auto plan = WordCountPlan(1);
  ASSERT_TRUE(plan.ok());
  ASSERT_TRUE(engine.Submit(std::move(*plan)).ok());
  auto second = WordCountPlan(1);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(engine.Submit(std::move(*second)).code(),
            StatusCode::kInvalidArgument)
      << "one shared log per query (paper §3.1)";
  engine.Stop();
}

TEST(EngineApiTest, UnknownTaskOperationsFail) {
  EngineOptions options;
  options.config = FastConfig(ProtocolKind::kProgressMarking);
  Engine engine(std::move(options));
  auto plan = WordCountPlan(1);
  ASSERT_TRUE(plan.ok());
  ASSERT_TRUE(engine.Submit(std::move(*plan)).ok());
  EXPECT_EQ(engine.tasks()->CrashTask("nope").code(), StatusCode::kNotFound);
  EXPECT_FALSE(engine.tasks()->RestartTask("nope").ok());
  EXPECT_EQ(engine.tasks()->StartReplacement("nope").code(),
            StatusCode::kNotFound);
  EXPECT_EQ(engine.tasks()->FindTask("nope"), nullptr);
  engine.Stop();
}

TEST(EngineApiTest, TaskIdsEnumerateEveryStageTask) {
  EngineOptions options;
  options.config = FastConfig(ProtocolKind::kProgressMarking);
  Engine engine(std::move(options));
  auto plan = WordCountPlan(2);
  ASSERT_TRUE(plan.ok());
  ASSERT_TRUE(engine.Submit(std::move(*plan)).ok());
  auto ids = engine.tasks()->AllTaskIds();
  EXPECT_EQ(ids.size(), 4u);
  for (const auto& id : ids) {
    TaskRuntime* rt = engine.tasks()->FindTask(id);
    ASSERT_NE(rt, nullptr);
    EXPECT_EQ(rt->instance(), 1u) << "first instances are minted as 1";
  }
  engine.Stop();
}

TEST(EngineApiTest, StopIsIdempotent) {
  EngineOptions options;
  options.config = FastConfig(ProtocolKind::kProgressMarking);
  Engine engine(std::move(options));
  auto plan = WordCountPlan(1);
  ASSERT_TRUE(plan.ok());
  ASSERT_TRUE(engine.Submit(std::move(*plan)).ok());
  engine.Stop();
  engine.Stop();  // second stop is a no-op, not a crash
}

TEST(EngineApiTest, MetricsRegistryIsStable) {
  MetricsRegistry registry;
  LatencyHistogram* h1 = registry.Histogram("a");
  Counter* c1 = registry.GetCounter("a");
  EXPECT_EQ(registry.Histogram("a"), h1) << "same name, same instance";
  EXPECT_EQ(registry.GetCounter("a"), c1);
  h1->Record(5);
  c1->Add(3);
  registry.ResetAll();
  EXPECT_EQ(h1->Count(), 0u);
  EXPECT_EQ(c1->Get(), 0u);
  EXPECT_EQ(registry.HistogramNames().size(), 1u);
}

}  // namespace
}  // namespace impeller
