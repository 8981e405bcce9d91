// The plan layer's correctness oracle: NEXMark Q1-Q8 authored on the
// declarative plan API must be indistinguishable from the hand-written
// imperative builders in queries.cc.
//
// Two levels of parity:
//  1. Structural — the lowered QueryPlan matches the imperative one stage
//     for stage (names, order, tasks, substreams, statefulness, input and
//     output streams, operator counts) and stream for stream, for all
//     eight queries. Both paths call the same named UDFs (udfs.h), so
//     structural equality pins runtime equality up to operator wiring.
//  2. Runtime — the committed egress of a plan-built query is
//     byte-identical to the imperative build's: fault-free across all four
//     protocols and shards {1, 3}, and under the seeded chaos harness at
//     shards = 3. Also: fusion off (every operator its own stage) commits
//     the same bytes as fusion on — more hops, same answer.
#include <algorithm>
#include <cctype>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/fault/fault.h"
#include "src/nexmark/events.h"
#include "src/nexmark/plan_queries.h"
#include "src/nexmark/queries.h"
#include "src/nexmark/udfs.h"
#include "tests/test_util.h"

namespace impeller {
namespace {

using fault::FaultKind;
using fault::FaultSchedule;

constexpr uint32_t kTasksPerStage = 2;
constexpr size_t kNumEvents = 120;
constexpr TimeNs kEventTimeBase = 1'000'000'000;

NexmarkQueryOptions ParityOptions() {
  NexmarkQueryOptions opt;
  opt.tasks_per_stage = kTasksPerStage;
  return opt;
}

// --- structural parity, Q1-Q8 ---

void ExpectStructurallyEqual(const QueryPlan& imperative,
                             const QueryPlan& from_plan) {
  EXPECT_EQ(imperative.name, from_plan.name);

  ASSERT_EQ(imperative.stages.size(), from_plan.stages.size());
  for (size_t i = 0; i < imperative.stages.size(); ++i) {
    SCOPED_TRACE("stage #" + std::to_string(i));
    const StageSpec& a = imperative.stages[i];
    const StageSpec& b = from_plan.stages[i];
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.num_tasks, b.num_tasks);
    EXPECT_EQ(a.num_substreams, b.num_substreams);
    EXPECT_EQ(a.stateful, b.stateful);
    EXPECT_EQ(a.inputs, b.inputs);
    ASSERT_EQ(a.outputs.size(), b.outputs.size()) << a.name;
    for (size_t j = 0; j < a.outputs.size(); ++j) {
      EXPECT_EQ(a.outputs[j].stream, b.outputs[j].stream);
    }
    EXPECT_EQ(a.operators.size(), b.operators.size()) << a.name;
  }

  ASSERT_EQ(imperative.streams.size(), from_plan.streams.size());
  auto ia = imperative.streams.begin();
  auto ib = from_plan.streams.begin();
  for (; ia != imperative.streams.end(); ++ia, ++ib) {
    SCOPED_TRACE("stream '" + ia->first + "'");
    EXPECT_EQ(ia->first, ib->first);
    EXPECT_EQ(ia->second.external, ib->second.external);
    EXPECT_EQ(ia->second.egress, ib->second.egress);
    EXPECT_EQ(ia->second.producer_stage, ib->second.producer_stage);
    EXPECT_EQ(ia->second.consumer_stage, ib->second.consumer_stage);
    EXPECT_EQ(ia->second.num_substreams, ib->second.num_substreams);
  }
}

class StructuralParityTest : public ::testing::TestWithParam<int> {};

TEST_P(StructuralParityTest, FusedPlanLowersToImperativeQueryPlan) {
  int number = GetParam();
  NexmarkQueryOptions opt = ParityOptions();
  auto imperative = BuildNexmarkQuery(number, opt);
  ASSERT_TRUE(imperative.ok()) << imperative.status().ToString();
  auto plan = nexmark::BuildNexmarkPlanQuery(number, opt, /*fuse=*/true);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ExpectStructurallyEqual(*imperative, plan->lowered.query);

  // With fusion on, the sinking stage keeps its imperative name.
  auto sink_stage = nexmark::PlanSinkStage(plan->lowered);
  ASSERT_TRUE(sink_stage.ok()) << sink_stage.status().ToString();
  EXPECT_EQ(*sink_stage, NexmarkSinkStage(number));

  // The logical plan survives a JSON round trip and re-lowers identically.
  auto restored = plan::LogicalPlan::FromJson(plan->logical.ToJson());
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored->ToJson(), plan->logical.ToJson());
}

TEST_P(StructuralParityTest, UnfusedPlanHasOneStagePerOperator) {
  int number = GetParam();
  NexmarkQueryOptions opt = ParityOptions();
  auto fused = nexmark::BuildNexmarkPlanQuery(number, opt, /*fuse=*/true);
  ASSERT_TRUE(fused.ok()) << fused.status().ToString();
  auto unfused = nexmark::BuildNexmarkPlanQuery(number, opt, /*fuse=*/false);
  ASSERT_TRUE(unfused.ok()) << unfused.status().ToString();

  size_t sources = 0;
  for (const auto& node : fused->logical.nodes) {
    sources += node.kind == plan::OpKind::kSource ? 1 : 0;
  }
  // One stage per non-source node; no hop ever fused.
  EXPECT_EQ(unfused->lowered.query.stages.size(),
            unfused->logical.nodes.size() - sources);
  EXPECT_EQ(unfused->lowered.hops_eliminated(), 0);
  EXPECT_GT(fused->lowered.hops_eliminated(), 0);
  EXPECT_LT(fused->lowered.query.stages.size(),
            unfused->lowered.query.stages.size());
}

INSTANTIATE_TEST_SUITE_P(AllQueries, StructuralParityTest,
                         ::testing::Range(1, 9),
                         [](const auto& info) {
                           return "Q" + std::to_string(info.param);
                         });

// --- runtime parity: committed egress bytes ---

// Deterministic bid stream (mirrors tests/chaos_test.cc).
std::vector<Bid> MakeBids() {
  std::vector<Bid> bids;
  bids.reserve(kNumEvents);
  for (size_t i = 0; i < kNumEvents; ++i) {
    Bid bid;
    // Every fifth bid lands on a sampled auction (multiple of 123) so Q2's
    // selection keeps a deterministic, nonempty, proper subset.
    bid.auction = (i % 5 == 0) ? 123 * (1 + static_cast<int64_t>(i) % 7)
                               : 1000 + i % 37;
    bid.bidder = i;
    bid.price = 100 + static_cast<int64_t>(i) * 7;
    bid.channel = "parity";
    bid.url = "https://bid/" + std::to_string(i);
    bid.date_time = kEventTimeBase + static_cast<TimeNs>(i) * kMillisecond;
    bids.push_back(std::move(bid));
  }
  return bids;
}

// How many of the fixed bids each bids-only query commits: Q1 converts all
// of them, Q2 keeps the sampled-auction subset — computed with the same
// named predicate the query runs.
size_t ExpectedCommitted(int number) {
  if (number == 1) {
    return kNumEvents;
  }
  size_t kept = 0;
  for (const auto& bid : MakeBids()) {
    StreamRecord r{std::to_string(bid.auction), EncodeBid(bid),
                   bid.date_time};
    kept += nexmark::BidOnSampledAuction(r) ? 1 : 0;
  }
  return kept;
}

Result<std::vector<std::string>> CollectCommitted(Engine& engine,
                                                  const std::string& stage) {
  std::vector<std::string> lines;
  for (uint32_t sub = 0; sub < kTasksPerStage; ++sub) {
    auto consumer = engine.NewEgressConsumer(stage, sub);
    if (!consumer.ok()) {
      return consumer.status();
    }
    auto records = (*consumer)->PollAll();
    if (!records.ok()) {
      return records.status();
    }
    for (const auto& r : *records) {
      // Raw key and value bytes: any lowering divergence shows up here.
      lines.push_back(std::string(r.data.key) + "|" +
                      std::string(r.data.value) + "|" +
                      std::to_string(r.data.event_time / kMillisecond));
    }
  }
  std::sort(lines.begin(), lines.end());
  return lines;
}

size_t DistinctCommitted(Engine& engine, const std::string& stage) {
  auto lines = CollectCommitted(engine, stage);
  if (!lines.ok()) {
    return 0;
  }
  return std::set<std::string>(lines->begin(), lines->end()).size();
}

enum class BuildMode { kImperative, kPlanFused, kPlanUnfused };

// One full run of a bids-only query (Q1 or Q2), built imperatively or via
// the plan layer, optionally under armed fault schedules. Returns the
// sorted committed egress lines.
Result<std::vector<std::string>> RunQuery(int number, BuildMode mode,
                                          ProtocolKind protocol,
                                          uint64_t seed,
                                          std::vector<FaultSchedule> schedules,
                                          uint32_t shards) {
  EngineOptions options;
  options.config = testutil::FastConfig(protocol);
  options.config.auto_restart = true;
  options.config.heartbeat_interval = 10 * kMillisecond;
  options.config.failure_timeout = 250 * kMillisecond;
  options.config.snapshot_interval = 150 * kMillisecond;
  options.config.log_shards = shards;
  options.name = "parity";
  Engine engine(std::move(options));

  NexmarkQueryOptions query_options = ParityOptions();
  std::string sink_stage;
  if (mode == BuildMode::kImperative) {
    auto plan = BuildNexmarkQuery(number, query_options);
    IMPELLER_RETURN_IF_ERROR(plan.status());
    sink_stage = NexmarkSinkStage(number);
    IMPELLER_RETURN_IF_ERROR(engine.Submit(std::move(*plan)));
  } else {
    auto plan = nexmark::BuildNexmarkPlanQuery(
        number, query_options, /*fuse=*/mode == BuildMode::kPlanFused);
    IMPELLER_RETURN_IF_ERROR(plan.status());
    IMPELLER_ASSIGN_OR_RETURN(sink_stage,
                              nexmark::PlanSinkStage(plan->lowered));
    IMPELLER_RETURN_IF_ERROR(engine.Submit(std::move(plan->lowered.query)));
  }
  auto producer = engine.NewProducer("parity-gen", "bids");
  IMPELLER_RETURN_IF_ERROR(producer.status());

  Clock* clock = engine.clock();
  std::vector<Bid> bids = MakeBids();
  {
    testutil::FaultArmGuard arm(std::move(schedules), seed, engine.metrics());
    for (size_t start = 0; start < bids.size(); start += 40) {
      size_t end = std::min(start + 40, bids.size());
      for (size_t i = start; i < end; ++i) {
        (*producer)->Send(std::to_string(bids[i].auction), EncodeBid(bids[i]),
                          bids[i].date_time);
      }
      IMPELLER_RETURN_IF_ERROR(testutil::FlushUntilDrained(**producer, clock));
      clock->SleepFor(15 * kMillisecond);
    }
    clock->SleepFor(100 * kMillisecond);
  }  // disarm: recovery runs fault-free

  size_t expected = ExpectedCommitted(number);
  testutil::WaitFor(
      [&] { return DistinctCommitted(engine, sink_stage) >= expected; },
      30 * kSecond);
  engine.Stop();
  return CollectCommitted(engine, sink_stage);
}

// Fault-free: all four protocols, shards 1 and 3. Q1's plan build must
// commit byte-identical output to the imperative build.
class RuntimeParityTest : public ::testing::TestWithParam<ProtocolKind> {};

TEST_P(RuntimeParityTest, Q1PlanOutputMatchesImperativeFaultFree) {
  ProtocolKind protocol = GetParam();
  for (uint32_t shards : {1u, 3u}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    auto imperative =
        RunQuery(1, BuildMode::kImperative, protocol, /*seed=*/0, {}, shards);
    ASSERT_TRUE(imperative.ok()) << imperative.status().ToString();
    ASSERT_EQ(imperative->size(), kNumEvents);
    auto from_plan =
        RunQuery(1, BuildMode::kPlanFused, protocol, /*seed=*/0, {}, shards);
    ASSERT_TRUE(from_plan.ok()) << from_plan.status().ToString();
    EXPECT_EQ(*from_plan, *imperative);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllProtocols, RuntimeParityTest,
    ::testing::Values(ProtocolKind::kProgressMarking, ProtocolKind::kKafkaTxn,
                      ProtocolKind::kAlignedCheckpoint, ProtocolKind::kUnsafe),
    [](const auto& info) {
      std::string name = ProtocolKindName(info.param);
      name.erase(std::remove_if(name.begin(), name.end(),
                                [](unsigned char c) { return !std::isalnum(c); }),
                 name.end());
      return name;
    });

TEST(RuntimeParityFixedTest, Q2PlanOutputMatchesImperativeFaultFree) {
  size_t expected = ExpectedCommitted(2);
  ASSERT_GT(expected, 0u) << "sampling predicate must keep some bids";
  ASSERT_LT(expected, kNumEvents) << "sampling predicate must drop some bids";
  auto imperative = RunQuery(2, BuildMode::kImperative,
                             ProtocolKind::kProgressMarking, /*seed=*/0, {},
                             /*shards=*/3);
  ASSERT_TRUE(imperative.ok()) << imperative.status().ToString();
  ASSERT_EQ(imperative->size(), expected);
  auto from_plan = RunQuery(2, BuildMode::kPlanFused,
                            ProtocolKind::kProgressMarking, /*seed=*/0, {},
                            /*shards=*/3);
  ASSERT_TRUE(from_plan.ok()) << from_plan.status().ToString();
  EXPECT_EQ(*from_plan, *imperative);
}

// Fusion ablation sanity: with fusion disabled Q1 runs as three
// single-operator stages — two extra log hops — and still commits exactly
// the same bytes.
TEST(RuntimeParityFixedTest, Q1UnfusedPlanCommitsSameBytesAsFused) {
  auto fused = RunQuery(1, BuildMode::kPlanFused,
                        ProtocolKind::kProgressMarking, /*seed=*/0, {},
                        /*shards=*/1);
  ASSERT_TRUE(fused.ok()) << fused.status().ToString();
  ASSERT_EQ(fused->size(), kNumEvents);
  auto unfused = RunQuery(1, BuildMode::kPlanUnfused,
                          ProtocolKind::kProgressMarking, /*seed=*/0, {},
                          /*shards=*/1);
  ASSERT_TRUE(unfused.ok()) << unfused.status().ToString();
  EXPECT_EQ(*unfused, *fused);
}

// Chaos: same benign-fault schedule armed for both builds at shards = 3;
// the committed output must match the fault-free imperative baseline (and
// therefore each other). Crash/recovery chaos on the imperative path is
// tests/chaos_test.cc's job; here the faults prove the *plan-built* stages
// retry, dedupe, and commit like the imperative ones.
TEST(RuntimeParityFixedTest, Q1PlanMatchesImperativeUnderFaults) {
#if !defined(IMPELLER_FAULT_INJECTION_ENABLED)
  GTEST_SKIP() << "built with IMPELLER_FAULT_INJECTION=OFF";
#else
  constexpr uint64_t kSeed = 17;
  auto make_schedules = [] {
    std::vector<FaultSchedule> out;
    {
      FaultSchedule s;  // append-ack delay spikes
      s.point = "log/append";
      s.kind = FaultKind::kDelay;
      s.delay = 2 * kMillisecond;
      s.every_n = 25;
      s.max_fires = 3;
      out.push_back(s);
    }
    {
      FaultSchedule s;  // transient append errors, absorbed by the Retrier
      s.point = "log/append";
      s.kind = FaultKind::kError;
      s.every_n = 20;
      s.max_fires = 2;
      out.push_back(s);
    }
    {
      FaultSchedule s;  // duplicate redelivery on the bid input
      s.point = "log/read";
      s.kind = FaultKind::kDuplicate;
      s.detail_substr = "bids";
      s.every_n = 30;
      s.max_fires = 2;
      out.push_back(s);
    }
    return out;
  };

  auto baseline = RunQuery(1, BuildMode::kImperative,
                           ProtocolKind::kProgressMarking, /*seed=*/0, {},
                           /*shards=*/3);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  ASSERT_EQ(baseline->size(), kNumEvents);

  auto imperative = RunQuery(1, BuildMode::kImperative,
                             ProtocolKind::kProgressMarking, kSeed,
                             make_schedules(), /*shards=*/3);
  ASSERT_TRUE(imperative.ok()) << imperative.status().ToString();
  EXPECT_EQ(*imperative, *baseline);

  auto from_plan = RunQuery(1, BuildMode::kPlanFused,
                            ProtocolKind::kProgressMarking, kSeed,
                            make_schedules(), /*shards=*/3);
  ASSERT_TRUE(from_plan.ok()) << from_plan.status().ToString();
  EXPECT_EQ(*from_plan, *baseline);
#endif
}

}  // namespace
}  // namespace impeller
