// NEXMark demo: runs one of the paper's eight auction-site queries (§5.3,
// Table 3) against the generated person/auction/bid stream and reports
// end-to-end event-time latency, optionally comparing protocols.
//
// Queries are built through the declarative plan layer (src/plan/) by
// default: logical plan -> lowering, with operator fusion on. The lowered
// QueryPlan is structurally identical to the imperative builders
// in src/nexmark/queries.cc (that equivalence is test-enforced).
//
// Usage: nexmark_demo [flags] [query 1-8] [events/s] [seconds] [protocol]
//   protocol: impeller (default) | kafka-txn | aligned-ckpt | unsafe
//   --explain   print the lowered plan (text tree) before running
//   --dot       print the plan as Graphviz DOT instead of running
//   --no-fuse   disable chain fusion: every operator its own stage, every
//               boundary a log hop (the ablation baseline)
//   --no-plan   bypass the plan layer; use the imperative builders
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "src/nexmark/driver.h"
#include "src/nexmark/plan_queries.h"
#include "src/nexmark/queries.h"
#include "src/plan/explain.h"

using namespace impeller;

int main(int argc, char** argv) {
  bool use_plan = true;
  bool fuse = true;
  bool explain = false;
  bool dot = false;
  std::vector<const char*> positional;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--no-plan") == 0) {
      use_plan = false;
    } else if (std::strcmp(argv[i], "--no-fuse") == 0) {
      fuse = false;
    } else if (std::strcmp(argv[i], "--explain") == 0) {
      explain = true;
    } else if (std::strcmp(argv[i], "--dot") == 0) {
      dot = true;
    } else if (argv[i][0] == '-' && !std::isdigit(argv[i][1])) {
      std::fprintf(stderr,
                   "unknown flag %s\nusage: nexmark_demo [--explain] [--dot] "
                   "[--no-fuse] [--no-plan] [query 1-8] [events/s] [seconds] "
                   "[protocol]\n",
                   argv[i]);
      return 2;
    } else {
      positional.push_back(argv[i]);
    }
  }
  int query = positional.size() > 0 ? std::atoi(positional[0]) : 5;
  double rate = positional.size() > 1 ? std::atof(positional[1]) : 5000;
  double seconds = positional.size() > 2 ? std::atof(positional[2]) : 5;
  const char* protocol = positional.size() > 3 ? positional[3] : "impeller";
  if ((!use_plan && !fuse) || ((explain || dot) && !use_plan)) {
    std::fprintf(stderr,
                 "--no-fuse/--explain/--dot need the plan layer; drop "
                 "--no-plan\n");
    return 2;
  }

  EngineOptions options;
  if (std::strcmp(protocol, "kafka-txn") == 0) {
    options.config.protocol = ProtocolKind::kKafkaTxn;
  } else if (std::strcmp(protocol, "aligned-ckpt") == 0) {
    options.config.protocol = ProtocolKind::kAlignedCheckpoint;
  } else if (std::strcmp(protocol, "unsafe") == 0) {
    options.config.protocol = ProtocolKind::kUnsafe;
  }
  // The Boki-calibrated latency model (Table 2) so latencies are realistic.
  options.log_latency = std::make_shared<CalibratedLatencyModel>(
      CalibratedLatencyModel::BokiParams(), 42);
  Engine engine(std::move(options));

  NexmarkQueryOptions query_options;
  query_options.tasks_per_stage = 2;

  QueryPlan plan;
  if (use_plan) {
    auto built = nexmark::BuildNexmarkPlanQuery(query, query_options, fuse);
    if (!built.ok()) {
      std::fprintf(stderr, "Q%d: %s\n", query,
                   built.status().ToString().c_str());
      return 1;
    }
    if (dot) {
      std::printf("%s", plan::ExplainDot(built->lowered).c_str());
      return 0;
    }
    if (explain) {
      std::printf("%s\n", plan::ExplainText(built->lowered).c_str());
    }
    plan = std::move(built->lowered.query);
  } else {
    auto built = BuildNexmarkQuery(query, query_options);
    if (!built.ok()) {
      std::fprintf(stderr, "Q%d: %s\n", query,
                   built.status().ToString().c_str());
      return 1;
    }
    plan = std::move(*built);
  }
  std::printf("NEXMark Q%d | %s | %s | %.0f events/s | %.0fs | stages:",
              query, use_plan ? (fuse ? "plan" : "plan,unfused") : "imperative",
              protocol, rate, seconds);
  for (const auto& stage : plan.stages) {
    std::printf(" %s(x%u%s)", stage.name.c_str(), stage.num_tasks,
                stage.stateful ? ",stateful" : "");
  }
  std::printf("\n");
  if (Status st = engine.Submit(std::move(plan)); !st.ok()) {
    std::fprintf(stderr, "submit: %s\n", st.ToString().c_str());
    return 1;
  }

  NexmarkDriverOptions driver_options;
  driver_options.events_per_sec = rate;
  driver_options.flush_interval =
      query <= 2 ? 10 * kMillisecond : 100 * kMillisecond;
  auto driver = NexmarkDriver::Create(&engine, query, driver_options);
  if (!driver.ok()) {
    std::fprintf(stderr, "driver: %s\n", driver.status().ToString().c_str());
    return 1;
  }

  std::string sink = NexmarkSinkName(query);
  LatencyHistogram* latency = engine.metrics()->Histogram("lat/" + sink);
  Counter* outputs = engine.metrics()->GetCounter("out/" + sink);
  (*driver)->Start();
  for (int tick = 1; tick <= static_cast<int>(seconds); ++tick) {
    engine.clock()->SleepFor(kSecond);
    std::printf("  t=%2ds  inputs=%-8lu outputs=%-8lu %s\n", tick,
                static_cast<unsigned long>((*driver)->events_sent()),
                static_cast<unsigned long>(outputs->Get()),
                latency->Summary().c_str());
  }
  (*driver)->Stop();
  engine.Stop();

  std::printf(
      "final: %lu inputs, %lu outputs, latency p50=%s p99=%s max=%s\n",
      static_cast<unsigned long>((*driver)->events_sent()),
      static_cast<unsigned long>(outputs->Get()),
      FormatDurationNs(latency->p50()).c_str(),
      FormatDurationNs(latency->p99()).c_str(),
      FormatDurationNs(latency->Max()).c_str());
  std::printf("log: %lu records appended, %lu batches\n",
              static_cast<unsigned long>(engine.log()->stats().records),
              static_cast<unsigned long>(engine.log()->stats().appends));
  return 0;
}
