// Quickstart: the paper's running example (Fig. 1/3) — distributed word
// count with exactly-once semantics on a shared log, authored on the
// declarative plan layer (src/plan/). The plan builder names UDFs with
// registry handles, lowering fuses operator chains so only the repartition
// before the counting aggregate pays a log hop, and emits the same
// QueryPlan the imperative QueryBuilder would.
//
//   lines ──> [split: flat-map to words] ──repartition──> [count] ──> sink
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart              # plan-built pipeline
//   ./build/examples/quickstart --explain    # print the lowered plan
//   ./build/examples/quickstart --no-plan    # original imperative build
#include <cstdio>
#include <cstring>
#include <map>
#include <sstream>

#include "src/core/engine.h"
#include "src/plan/explain.h"
#include "src/plan/ir.h"
#include "src/plan/lowering.h"
#include "src/plan/registry.h"

using namespace impeller;

namespace {

// The two UDFs, shared by the plan and imperative paths.
void SplitWords(StreamRecord line, std::vector<StreamRecord>* out) {
  std::istringstream stream(line.value);
  std::string word;
  while (stream >> word) {
    // The emitted key drives the repartition: all instances of a word
    // reach the same counting task.
    out->push_back({word, "1", line.event_time});
  }
}

AggregateFn CountAgg() {
  AggregateFn count;
  count.init = [] { return std::string("0"); };
  count.add = [](std::string_view acc, const StreamRecord&) {
    return std::to_string(std::stoll(std::string(acc)) + 1);
  };
  return count;
}

// Declarative build: logical plan -> lowering (with fusion).
// The flat_map and key_by fuse into one "split" stage; the stateful
// aggregate starts the "count" stage after the repartition.
Result<plan::LoweredPlan> BuildPlanned() {
  plan::UdfRegistry registry;
  registry.RegisterFlatMap("split_words", SplitWords);
  registry.RegisterKey("word", [](const StreamRecord& r) { return r.key; });
  registry.RegisterAggregate("count", CountAgg());

  plan::PlanBuilder pb("wordcount", /*default_tasks=*/2);
  auto lines = pb.Source("lines");
  auto words = pb.FlatMap(lines, "split_words").Stage("split");
  auto keyed = pb.KeyBy(words, "word").Via("words");
  auto counts = pb.Aggregate(keyed, "counts", "count").Stage("count");
  pb.Sink(counts, "wordcount");

  auto logical = pb.Build();
  if (!logical.ok()) {
    return logical.status();
  }
  return plan::LowerPlan(*logical, registry);
}

// The original hand-built pipeline (kept behind --no-plan).
Result<QueryPlan> BuildImperative() {
  QueryBuilder qb("wordcount");
  qb.Ingress("lines");
  qb.AddStage("split", /*num_tasks=*/2)
      .ReadsFrom({"lines"})
      .FlatMap(SplitWords)
      .WritesTo("words");
  qb.AddStage("count", /*num_tasks=*/2)
      .ReadsFrom({"words"})
      .Aggregate("counts", CountAgg())
      .Sink("wordcount");
  return qb.Build();
}

}  // namespace

int main(int argc, char** argv) {
  bool use_plan = true;
  bool explain = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--no-plan") == 0) {
      use_plan = false;
    } else if (std::strcmp(argv[i], "--explain") == 0) {
      explain = true;
    } else {
      std::fprintf(stderr, "usage: quickstart [--explain] [--no-plan]\n");
      return 2;
    }
  }

  // 1. An engine owns the shared log, the checkpoint store, and the task
  //    manager for one stream query. Default: Impeller's progress-marking
  //    protocol, 100 ms commit interval.
  EngineOptions options;
  options.config.commit_interval = 50 * kMillisecond;
  Engine engine(std::move(options));

  // 2. Describe the query — declaratively by default.
  QueryPlan query;
  if (use_plan) {
    auto lowered = BuildPlanned();
    if (!lowered.ok()) {
      std::fprintf(stderr, "plan error: %s\n",
                   lowered.status().ToString().c_str());
      return 1;
    }
    if (explain) {
      std::printf("%s\n", plan::ExplainText(*lowered).c_str());
    }
    query = std::move(lowered->query);
  } else {
    auto built = BuildImperative();
    if (!built.ok()) {
      std::fprintf(stderr, "plan error: %s\n",
                   built.status().ToString().c_str());
      return 1;
    }
    query = std::move(*built);
  }
  if (Status st = engine.Submit(std::move(query)); !st.ok()) {
    std::fprintf(stderr, "submit error: %s\n", st.ToString().c_str());
    return 1;
  }

  // 3. Feed the ingress stream (the gateway + data-ingress path of Fig. 2).
  auto producer = engine.NewProducer("example-gen", "lines");
  const char* lines[] = {
      "hello world",
      "hello shared log",
      "the log is the system",
      "exactly once means exactly once",
  };
  for (const char* line : lines) {
    (*producer)->Send("line", line);
  }
  (void)(*producer)->Flush();

  // 4. Wait for the pipeline to drain, then stop gracefully (final commit).
  Counter* outputs = engine.metrics()->GetCounter("out/wordcount");
  Clock* clock = engine.clock();
  TimeNs deadline = clock->Now() + 10 * kSecond;
  while (outputs->Get() < 15 && clock->Now() < deadline) {
    clock->SleepFor(5 * kMillisecond);
  }
  engine.Stop();

  // 5. Read the committed results from the egress stream. Both builds
  //    sink from the "count" stage, so the consumer code is identical.
  std::map<std::string, long> counts;
  for (uint32_t sub = 0; sub < 2; ++sub) {
    auto consumer = engine.NewEgressConsumer("count", sub);
    auto records = (*consumer)->PollAll();
    for (const auto& r : *records) {
      std::string key(r.data.key);
      counts[key] = std::max(counts[key],
                             std::stol(std::string(r.data.value)));
    }
  }
  std::printf("word counts (exactly-once):\n");
  for (const auto& [word, n] : counts) {
    std::printf("  %-10s %ld\n", word.c_str(), n);
  }
  std::printf("end-to-end latency: %s\n",
              engine.metrics()->Histogram("lat/wordcount")->Summary().c_str());
  return 0;
}
