// Plan-layer fusion ablation: the same declarative NEXMark plan lowered
// twice — optimizer with chain fusion on (the default) vs off (every
// operator its own stage, every operator boundary a log append/read round
// trip) — run at a fixed input rate, reporting p50/p99 event-time latency.
//
// Expected shape (paper Table 2): each unfused boundary adds roughly one
// log round trip to the critical path, so the unfused build's p50 sits
// ~hops_eliminated log-latencies above the fused build's on stage-chain
// queries (Q1: filter -> map fuses 2 edges; Q4's join/aggregate chain
// fuses 4).
//
// Emits BENCH_plan_ablation.json with "fused/q<N>/<rate>" and
// "unfused/q<N>/<rate>" rows plus a "hops_eliminated" field per row.
#include <cstdio>
#include <vector>

#include "bench/bench_common.h"
#include "src/nexmark/plan_queries.h"

namespace impeller {
namespace bench {
namespace {

double FixedRateFor(int query) {
  // Modest rates: the ablation measures the per-hop latency adder, not
  // saturation, so both builds must run comfortably below their knees.
  switch (query) {
    case 1:
    case 2:
      return 8000;
    default:
      return 2000;
  }
}

RunResult RunAblationPoint(const RunConfig& config, bool fuse) {
  auto built = nexmark::BuildNexmarkPlanQuery(
      config.query, ScaledQueryOptions(config), fuse);
  if (!built.ok()) {
    std::fprintf(stderr, "plan build failed: %s\n",
                 built.status().ToString().c_str());
    return {};
  }
  char extra[96];
  std::snprintf(extra, sizeof(extra),
                "\"fused\": %s, \"stages\": %zu, \"hops_eliminated\": %d",
                fuse ? "true" : "false", built->lowered.stages.size(),
                built->lowered.hops_eliminated());
  return RunPreparedPoint(config, std::move(built->lowered.query),
                          fuse ? "fused" : "unfused", BenchSeed(), extra);
}

int Main() {
  std::vector<int> queries = {1, 2, 4};
  if (FastMode()) {
    queries = {1};
  }

  std::printf(
      "Plan ablation: fused vs unfused lowering of the declarative plans\n"
      "(each fused edge deletes one log append/read hop from the path)\n");
  for (int query : queries) {
    auto fused_build = nexmark::BuildNexmarkPlanQuery(query, {}, true);
    auto unfused_build = nexmark::BuildNexmarkPlanQuery(query, {}, false);
    if (!fused_build.ok() || !unfused_build.ok()) {
      std::fprintf(stderr, "q%d plan build failed\n", query);
      return 1;
    }
    std::printf("\nQ%d (%.0f events/s): fused %zu stage(s) [%d hop(s) "
                "eliminated], unfused %zu stage(s)\n",
                query, FixedRateFor(query), fused_build->lowered.stages.size(),
                fused_build->lowered.hops_eliminated(),
                unfused_build->lowered.stages.size());
    for (bool fuse : {true, false}) {
      RunConfig config;
      config.system = System::kImpeller;
      config.query = query;
      config.events_per_sec = FixedRateFor(query);
      RunResult r = RunAblationPoint(config, fuse);
      std::printf("  %-8s p50 %8sms   p99 %8sms   outputs %llu%s\n",
                  fuse ? "fused" : "unfused", Ms(r.p50).c_str(),
                  Ms(r.p99).c_str(),
                  static_cast<unsigned long long>(r.outputs),
                  r.saturated ? "   (saturated)" : "");
      std::fflush(stdout);
    }
  }
  std::printf(
      "\nReading: the unfused build pays one extra log round trip per\n"
      "eliminated edge; fused p50 should sit well below unfused p50.\n");
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace impeller

int main(int argc, char** argv) {
  impeller::bench::InitBench(&argc, argv);
  return impeller::bench::Main();
}
