// Plan-layer tests: IR JSON round-trip, structural validation errors,
// fusion on linear / rekeyed / join / diamond shapes, validation at the
// lowering entry, lowering errors, and an end-to-end engine run of a
// lowered diamond plan (fan-out stage).
#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/engine.h"
#include "src/plan/explain.h"
#include "src/plan/ir.h"
#include "src/plan/json.h"
#include "src/plan/lowering.h"
#include "src/plan/optimizer.h"
#include "src/plan/registry.h"
#include "tests/test_util.h"

// gtest-only build (no gmock linked): substring assertion by hand.
#define EXPECT_SUBSTR(haystack, needle)                   \
  EXPECT_NE((haystack).find(needle), std::string::npos)   \
      << "expected \"" << (needle) << "\" in:\n"          \
      << (haystack)

namespace impeller {
namespace plan {
namespace {

UdfRegistry TestRegistry() {
  UdfRegistry reg;
  reg.RegisterPredicate("nonempty",
                        [](const StreamRecord& r) { return !r.value.empty(); });
  reg.RegisterMap("tag", [](StreamRecord r) {
    r.value += "!";
    return r;
  });
  reg.RegisterKey("by_value", [](const StreamRecord& r) { return r.value; });
  AggregateFn count;
  count.init = [] { return std::string("0"); };
  count.add = [](std::string_view acc, const StreamRecord&) {
    return std::to_string(std::stoll(std::string(acc)) + 1);
  };
  reg.RegisterAggregate("count", count);
  reg.RegisterJoin("concat", [](std::string_view a, std::string_view b) {
    return std::string(a) + "|" + std::string(b);
  });
  return reg;
}

// --- JSON document model ---

TEST(PlanJsonTest, RoundTripsValues) {
  auto parsed = Json::Parse(
      R"({"s": "a\"b", "n": 42, "f": 1.5, "b": true, "x": null,
          "a": [1, 2, 3], "o": {"k": "v"}})");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->GetString("s"), "a\"b");
  EXPECT_EQ(parsed->GetInt("n"), 42);
  ASSERT_NE(parsed->Find("a"), nullptr);
  EXPECT_EQ(parsed->Find("a")->size(), 3u);
  // Dump -> Parse -> Dump is a fixpoint.
  std::string dumped = parsed->Dump(2);
  auto reparsed = Json::Parse(dumped);
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(reparsed->Dump(2), dumped);
}

TEST(PlanJsonTest, ErrorsCarryByteOffset) {
  auto bad = Json::Parse("{\"a\": }");
  ASSERT_FALSE(bad.ok());
  EXPECT_SUBSTR(bad.status().message(), "byte 6");
}

TEST(PlanJsonTest, RejectsDuplicateKeysAndTrailingGarbage) {
  EXPECT_FALSE(Json::Parse(R"({"a": 1, "a": 2})").ok());
  EXPECT_FALSE(Json::Parse("[1, 2] trailing").ok());
}

// --- IR construction + serialization ---

// filter -> key_by -> aggregate -> sink; node ids src_in, f2, k3, agg4,
// sink5 (the id counter covers sources too).
LogicalPlan SmallPlan() {
  PlanBuilder pb("t", 2);
  auto src = pb.Source("in");
  auto f = pb.Filter(src, "nonempty").Stage("head");
  auto k = pb.KeyBy(f, "by_value").Via("t.keyed");
  auto agg = pb.Aggregate(k, "store", "count");
  pb.Sink(agg, "t");
  auto built = pb.Build();
  EXPECT_TRUE(built.ok()) << built.status().ToString();
  return *built;
}

TEST(PlanIrTest, JsonRoundTripIsLossless) {
  LogicalPlan original = SmallPlan();
  std::string json = original.ToJson();
  auto restored = LogicalPlan::FromJson(json);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored->ToJson(), json);
  EXPECT_EQ(restored->nodes.size(), original.nodes.size());
  EXPECT_EQ(restored->default_tasks, 2u);
  ASSERT_NE(restored->FindNode("f2"), nullptr);
  EXPECT_EQ(restored->FindNode("f2")->stage_hint, "head");
  EXPECT_EQ(restored->FindNode("k3")->stream, "t.keyed");
}

TEST(PlanIrTest, WindowAndJoinAttributesRoundTrip) {
  PlanBuilder pb("w", 1);
  auto l = pb.Source("l");
  auto r = pb.Source("r");
  auto j = pb.JoinStreams(l, r, "js", 5 * kSecond, "concat",
                          7 * kMillisecond);
  auto w = pb.WindowAggregate(
      j, "ws", WindowSpec::Sliding(10 * kSecond, 2 * kSecond), "count",
      3 * kMillisecond, WindowEmitMode::kEagerSuppressed);
  pb.Sink(w, "w");
  auto built = pb.Build();
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  auto restored = LogicalPlan::FromJson(built->ToJson());
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  const PlanNode* join = restored->FindNode("join3");
  ASSERT_NE(join, nullptr);
  EXPECT_EQ(join->join_window, 5 * kSecond);
  EXPECT_EQ(join->allowed_lateness, 7 * kMillisecond);
  EXPECT_EQ(join->inputs, (std::vector<std::string>{"src_l", "src_r"}));
  const PlanNode* wagg = restored->FindNode("wagg4");
  ASSERT_NE(wagg, nullptr);
  EXPECT_EQ(wagg->window_size, 10 * kSecond);
  EXPECT_EQ(wagg->window_slide, 2 * kSecond);
  EXPECT_EQ(wagg->emit_mode, WindowEmitMode::kEagerSuppressed);
  EXPECT_EQ(wagg->allowed_lateness, 3 * kMillisecond);
}

TEST(PlanIrTest, SavedPlanWithSuppressIntervalStillLoads) {
  PlanBuilder pb("w", 1);
  auto w = pb.WindowAggregate(pb.Source("s"), "ws",
                              WindowSpec::Tumbling(10 * kSecond), "count",
                              3 * kMillisecond,
                              WindowEmitMode::kEagerSuppressed);
  pb.Sink(w, "w");
  auto built = pb.Build();
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  std::string json = built->ToJson();
  EXPECT_EQ(json.find("suppress_interval_ns"), std::string::npos);
  // A plan saved when eager panes flushed on their own timer.
  const std::string field = "\"emit_mode\": \"eager_suppressed\"";
  size_t at = json.find(field);
  ASSERT_NE(at, std::string::npos) << json;
  json.insert(at + field.size(), ", \"suppress_interval_ns\": 50000000");
  auto restored = LogicalPlan::FromJson(json);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  const PlanNode* wagg = restored->FindNode("wagg2");
  ASSERT_NE(wagg, nullptr);
  EXPECT_EQ(wagg->emit_mode, WindowEmitMode::kEagerSuppressed);
  EXPECT_EQ(wagg->window_size, 10 * kSecond);
  EXPECT_EQ(restored->ToJson(), built->ToJson());
}

TEST(PlanIrTest, TopoOrderIsDeterministicAndRespectsEdges) {
  LogicalPlan p = SmallPlan();
  std::vector<std::string> order = p.TopoOrder();
  ASSERT_EQ(order.size(), p.nodes.size());
  auto pos = [&](const std::string& id) {
    return std::find(order.begin(), order.end(), id) - order.begin();
  };
  EXPECT_LT(pos("src_in"), pos("f2"));
  EXPECT_LT(pos("f2"), pos("k3"));
  EXPECT_LT(pos("agg4"), pos("sink5"));
  EXPECT_EQ(order, p.TopoOrder());
}

// --- validation errors ---

TEST(PlanValidateTest, RequiresSourceAndSink) {
  PlanBuilder pb("v");
  auto src = pb.Source("in");
  pb.Filter(src, "nonempty");
  auto no_sink = pb.Build();
  ASSERT_FALSE(no_sink.ok());
  EXPECT_SUBSTR(no_sink.status().message(), "no sink node");
}

TEST(PlanValidateTest, ReportsUnconsumedNode) {
  PlanBuilder pb("v");
  auto src = pb.Source("in");
  auto f = pb.Filter(src, "nonempty");
  pb.Map(f, "tag");  // dangling: m3
  pb.Sink(f, "v");
  auto built = pb.Build();
  ASSERT_FALSE(built.ok());
  EXPECT_SUBSTR(built.status().message(), "never consumed");
  EXPECT_SUBSTR(built.status().message(), "m3");
}

TEST(PlanValidateTest, ReportsDuplicateNodeId) {
  PlanBuilder pb("v");
  auto src = pb.Source("in");
  auto f = pb.Filter(src, "nonempty").Id("dup");
  pb.Map(f, "tag").Id("dup");
  Status st = pb.plan().Validate();
  ASSERT_FALSE(st.ok());
  EXPECT_SUBSTR(st.message(), "duplicate node id 'dup'");
}

TEST(PlanValidateTest, ReportsUnknownInput) {
  LogicalPlan p = SmallPlan();
  p.FindNode("k3")->inputs[0] = "ghost";
  Status st = p.Validate();
  ASSERT_FALSE(st.ok());
  EXPECT_SUBSTR(st.message(), "reads unknown node 'ghost'");
  EXPECT_SUBSTR(st.message(), "k3");
}

TEST(PlanValidateTest, ReportsCycleWithNodeIds) {
  // A detached two-node cycle rides along a valid pipeline: each cycle node
  // is consumed (by the other), so only the acyclicity check can catch it.
  LogicalPlan p = SmallPlan();
  PlanNode a;
  a.id = "cyc_a";
  a.kind = OpKind::kFilter;
  a.expr = "nonempty";
  a.inputs = {"cyc_b"};
  PlanNode b;
  b.id = "cyc_b";
  b.kind = OpKind::kMap;
  b.expr = "tag";
  b.inputs = {"cyc_a"};
  p.nodes.push_back(std::move(a));
  p.nodes.push_back(std::move(b));
  Status st = p.Validate();
  ASSERT_FALSE(st.ok());
  EXPECT_SUBSTR(st.message(), "cycle");
  EXPECT_SUBSTR(st.message(), "cyc_a");
}

TEST(PlanValidateTest, PerKindAttributeChecksAreActionable) {
  {
    PlanBuilder pb("v");
    auto src = pb.Source("in");
    pb.Sink(pb.Filter(src, ""), "v");
    auto built = pb.Build();
    ASSERT_FALSE(built.ok());
    EXPECT_SUBSTR(built.status().message(), "expression handle");
  }
  {
    PlanBuilder pb("v");
    auto src = pb.Source("in");
    pb.Sink(pb.WindowAggregate(src, "s", WindowSpec::Tumbling(0), "count"),
            "v");
    auto built = pb.Build();
    ASSERT_FALSE(built.ok());
    EXPECT_SUBSTR(built.status().message(), "window_size");
  }
  {
    PlanBuilder pb("v");
    auto l = pb.Source("l");
    auto r = pb.Source("r");
    pb.Sink(pb.JoinStreams(l, r, "s", /*window=*/0, "concat"), "v");
    auto built = pb.Build();
    ASSERT_FALSE(built.ok());
    EXPECT_SUBSTR(built.status().message(), "join_window");
  }
  {
    PlanBuilder pb("v");
    auto src = pb.Source("in");
    pb.Sink(pb.TableAggregate(src, "s", /*group_key=*/"", "count"), "v");
    auto built = pb.Build();
    ASSERT_FALSE(built.ok());
    EXPECT_SUBSTR(built.status().message(), "group_key");
  }
}

TEST(PlanValidateTest, FromJsonValidates) {
  // Structurally well-formed JSON, semantically invalid plan (no sink).
  auto restored = LogicalPlan::FromJson(
      R"({"name": "x", "nodes": [
            {"id": "s", "kind": "source", "stream": "in"},
            {"id": "f", "kind": "filter", "inputs": ["s"], "expr": "p"}]})");
  ASSERT_FALSE(restored.ok());
  EXPECT_SUBSTR(restored.status().message(), "no sink node");
}

// --- fusion shapes ---

std::vector<std::vector<std::string>> FuseGroups(const LogicalPlan& p,
                                                 bool fuse = true) {
  return FuseStages(p, fuse).groups;
}

TEST(FusionPassTest, LinearStatelessChainFusesToOneStage) {
  PlanBuilder pb("p");
  auto src = pb.Source("in");
  pb.Sink(pb.Map(pb.Filter(src, "nonempty"), "tag"), "p");
  auto built = pb.Build();
  ASSERT_TRUE(built.ok());
  auto groups = FuseGroups(*built);
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups[0], (std::vector<std::string>{"f2", "m3", "sink4"}));
}

TEST(FusionPassTest, StatefulAfterKeyByStartsNewStage) {
  LogicalPlan p = SmallPlan();  // filter -> key_by -> aggregate -> sink
  auto groups = FuseGroups(p);
  ASSERT_EQ(groups.size(), 2u);
  EXPECT_EQ(groups[0], (std::vector<std::string>{"f2", "k3"}));
  EXPECT_EQ(groups[1], (std::vector<std::string>{"agg4", "sink5"}));
}

TEST(FusionPassTest, StatelessAfterKeyByFuses) {
  PlanBuilder pb("p");
  auto src = pb.Source("in");
  pb.Sink(pb.Map(pb.KeyBy(src, "by_value"), "tag"), "p");
  auto built = pb.Build();
  ASSERT_TRUE(built.ok());
  EXPECT_EQ(FuseGroups(*built).size(), 1u);
}

TEST(FusionPassTest, JoinHeadsItsOwnStage) {
  PlanBuilder pb("p");
  auto l = pb.KeyBy(pb.Source("l"), "by_value");
  auto r = pb.KeyBy(pb.Source("r"), "by_value");
  auto j = pb.JoinStreams(l, r, "js", kSecond, "concat");
  pb.Sink(j, "p");
  auto built = pb.Build();
  ASSERT_TRUE(built.ok());
  auto groups = FuseGroups(*built);
  ASSERT_EQ(groups.size(), 3u);
  EXPECT_EQ(groups[2].front(), "join5");
  EXPECT_EQ(groups[2].back(), "sink6");
}

TEST(FusionPassTest, DiamondSplitsAtFanOut) {
  PlanBuilder pb("d");
  auto src = pb.Source("in");
  auto m = pb.Map(src, "tag").Stage("split");
  auto left = pb.Filter(m, "nonempty").Stage("left");
  auto right = pb.Map(m, "tag").Stage("right");
  pb.Sink(left, "l");
  pb.Sink(right, "r");
  auto built = pb.Build();
  ASSERT_TRUE(built.ok());
  auto groups = FuseGroups(*built);
  ASSERT_EQ(groups.size(), 3u);
  EXPECT_EQ(groups[0], (std::vector<std::string>{"m2"}));
  EXPECT_EQ(groups[1], (std::vector<std::string>{"f3", "sink5"}));
  EXPECT_EQ(groups[2], (std::vector<std::string>{"m4", "sink6"}));
}

TEST(FusionPassTest, DisabledFusionGivesEveryOperatorItsOwnStage) {
  LogicalPlan p = SmallPlan();  // 4 non-source nodes
  auto groups = FuseGroups(p, /*fuse=*/false);
  EXPECT_EQ(groups.size(), 4u);
  for (const auto& g : groups) {
    EXPECT_EQ(g.size(), 1u);
  }
}

// --- lowering ---

PlanNode HandNode(std::string id, OpKind kind, std::vector<std::string> inputs,
                  std::string attr = "") {
  PlanNode node;
  node.id = std::move(id);
  node.kind = kind;
  node.inputs = std::move(inputs);
  if (kind == OpKind::kSource) {
    node.stream = attr;
  } else if (kind == OpKind::kSink) {
    node.sink = attr;
  } else {
    node.expr = attr;
  }
  return node;
}

TEST(LoweringTest, EntryValidatesPlansThatNeverWentThroughBuild) {
  // Lowering is the one check between a hand-assembled plan and the engine:
  // it must refuse what Validate() refuses, with the same message.
  LogicalPlan unknown_input;
  unknown_input.name = "h";
  unknown_input.nodes = {HandNode("src", OpKind::kSource, {}, "in"),
                         HandNode("f", OpKind::kFilter, {"ghost"}, "nonempty"),
                         HandNode("out", OpKind::kSink, {"f"}, "h")};

  LogicalPlan cycle;
  cycle.name = "h";
  cycle.nodes = {HandNode("src", OpKind::kSource, {}, "in"),
                 HandNode("f", OpKind::kFilter, {"src"}, "nonempty"),
                 HandNode("out", OpKind::kSink, {"f"}, "h"),
                 HandNode("cyc_a", OpKind::kFilter, {"cyc_b"}, "nonempty"),
                 HandNode("cyc_b", OpKind::kMap, {"cyc_a"}, "tag")};

  const std::vector<std::pair<const LogicalPlan*, std::string>> cases = {
      {&unknown_input, "reads unknown node 'ghost'"}, {&cycle, "cycle"}};
  UdfRegistry reg = TestRegistry();
  for (const auto& [plan, expected] : cases) {
    Status valid = plan->Validate();
    ASSERT_FALSE(valid.ok()) << expected;
    for (bool fuse : {true, false}) {
      auto lowered = LowerPlan(*plan, reg, fuse);
      ASSERT_FALSE(lowered.ok()) << expected;
      EXPECT_EQ(lowered.status().code(), StatusCode::kInvalidArgument);
      EXPECT_EQ(lowered.status().message(), valid.message());
      EXPECT_SUBSTR(lowered.status().message(), expected);
    }
  }
}

TEST(LoweringTest, MissingHandleErrorNamesHandleAndRegistration) {
  PlanBuilder pb("p");
  auto src = pb.Source("in");
  pb.Sink(pb.Filter(src, "no_such_predicate"), "p");
  auto built = pb.Build();
  ASSERT_TRUE(built.ok());
  UdfRegistry reg;  // empty
  auto lowered = LowerPlan(*built, reg);
  ASSERT_FALSE(lowered.ok());
  EXPECT_SUBSTR(lowered.status().message(), "'no_such_predicate'");
  EXPECT_SUBSTR(lowered.status().message(), "RegisterPredicate");
}

TEST(LoweringTest, SharedIngressRejectedWithActionableError) {
  PlanBuilder pb("p");
  auto src = pb.Source("in");
  pb.Sink(pb.Filter(src, "nonempty"), "a");
  pb.Sink(pb.Map(src, "tag"), "b");
  auto built = pb.Build();
  ASSERT_TRUE(built.ok());
  UdfRegistry reg = TestRegistry();
  auto lowered = LowerPlan(*built, reg);
  ASSERT_FALSE(lowered.ok());
  EXPECT_SUBSTR(lowered.status().message(), "single-consumer");
}

TEST(LoweringTest, FusedPlanLowersWithHintsApplied) {
  LogicalPlan p = SmallPlan();
  UdfRegistry reg = TestRegistry();
  auto lowered = LowerPlan(p, reg);
  ASSERT_TRUE(lowered.ok()) << lowered.status().ToString();
  EXPECT_EQ(lowered->hops_eliminated(), 2);
  ASSERT_EQ(lowered->query.stages.size(), 2u);
  EXPECT_EQ(lowered->query.stages[0].name, "head");  // stage_hint
  EXPECT_EQ(lowered->query.stages[1].name, "agg4");  // node-id fallback
  EXPECT_NE(lowered->query.FindStream("t.keyed"), nullptr);  // Via hint
  EXPECT_EQ(lowered->query.stages[0].num_tasks, 2u);  // default_tasks
  EXPECT_FALSE(lowered->query.stages[0].stateful);
  EXPECT_TRUE(lowered->query.stages[1].stateful);
}

// --- explain ---

TEST(ExplainTest, TextShowsStagesStreamsAndEliminatedHops) {
  LogicalPlan p = SmallPlan();
  UdfRegistry reg = TestRegistry();
  auto lowered = LowerPlan(p, reg);
  ASSERT_TRUE(lowered.ok());
  std::string text = ExplainText(*lowered);
  EXPECT_SUBSTR(text, "== plan 't' ==");
  EXPECT_SUBSTR(text, "log hops eliminated by fusion: 2");
  EXPECT_SUBSTR(text, "stage head");
  EXPECT_SUBSTR(text, "t.keyed");
  EXPECT_SUBSTR(text, "filter(nonempty) -> key_by(by_value)");
  EXPECT_SUBSTR(text, "stateful");
  EXPECT_SUBSTR(text, "f2 => k3");
  std::string dot = ExplainDot(*lowered);
  EXPECT_SUBSTR(dot, "digraph \"t\"");
  EXPECT_SUBSTR(dot, "stage:head");
  EXPECT_SUBSTR(dot, "->");
}

// --- end-to-end: lowered diamond plan runs on the engine ---

TEST(PlanEndToEndTest, DiamondPlanFansOutToBothSinks) {
  PlanBuilder pb("d", 1);
  auto src = pb.Source("in");
  auto m = pb.Map(src, "tag").Stage("split");
  auto left = pb.Filter(m, "nonempty").Stage("left");
  auto right = pb.Map(m, "tag").Stage("right");
  pb.Sink(left, "l");
  pb.Sink(right, "r");
  auto built = pb.Build();
  ASSERT_TRUE(built.ok()) << built.status().ToString();

  UdfRegistry reg = TestRegistry();
  auto lowered = LowerPlan(*built, reg);
  ASSERT_TRUE(lowered.ok()) << lowered.status().ToString();
  ASSERT_EQ(lowered->query.stages.size(), 3u);
  EXPECT_TRUE(lowered->stages[0].fans_out);

  EngineOptions options;
  options.config = testutil::FastConfig(ProtocolKind::kProgressMarking);
  options.name = "plan-e2e";
  Engine engine(std::move(options));
  ASSERT_TRUE(engine.Submit(lowered->query).ok());
  auto producer = engine.NewProducer("gen", "in");
  ASSERT_TRUE(producer.ok()) << producer.status().ToString();
  constexpr size_t kCount = 12;
  for (size_t i = 0; i < kCount; ++i) {
    (*producer)->Send("k" + std::to_string(i % 3), "v" + std::to_string(i),
                      kSecond + i * kMillisecond);
  }
  ASSERT_TRUE(testutil::FlushUntilDrained(**producer, engine.clock()).ok());

  auto count_egress = [&](const std::string& stage) -> size_t {
    auto consumer = engine.NewEgressConsumer(stage, 0);
    if (!consumer.ok()) {
      return 0;
    }
    auto records = (*consumer)->PollAll();
    return records.ok() ? records->size() : 0;
  };
  EXPECT_TRUE(testutil::WaitFor([&] {
    return count_egress("left") >= kCount && count_egress("right") >= kCount;
  })) << "left=" << count_egress("left")
      << " right=" << count_egress("right");
  engine.Stop();

  // Values confirm the per-branch chains: split tags once, right tags again.
  auto consumer = engine.NewEgressConsumer("right", 0);
  ASSERT_TRUE(consumer.ok());
  auto records = (*consumer)->PollAll();
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), kCount);
  for (const auto& r : *records) {
    ASSERT_GE(r.data.value.size(), 2u);
    EXPECT_EQ(r.data.value.substr(r.data.value.size() - 2), "!!");
  }
}

}  // namespace
}  // namespace plan
}  // namespace impeller
