// Reproduces Figure 7: p50/p99 event-time latency as a function of input
// throughput for NEXMark Q1-Q8, comparing Impeller against Kafka Streams
// (emulated: txn protocol on the Kafka-latency log), the Kafka Streams
// transaction protocol inside Impeller, and aligned checkpointing.
//
// Paper shape: Q1/Q2 p50s are similar across systems with Impeller's p99
// staying flat to higher rates; for stateful Q3-Q8 Impeller's p50 is
// 1.3-5.4x lower and it sustains 1.3-5.0x higher input rates before the
// p99 cutoff (60 ms for Q1-2, 1 s for Q3-8). Input rates here are ~10x
// below the paper's (single host); see DESIGN.md §1.
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"

namespace impeller {
namespace bench {
namespace {

// A latency cell: "-" for a point that emitted nothing, whose 0 p50/p99
// is no measurement.
std::string Cell(const RunResult& r, int64_t ns) {
  return r.outputs == 0 ? "-" : Ms(ns) + "ms";
}

std::vector<double> RatesFor(int query) {
  // Roughly 10x below the paper's sweeps, adjusted per query weight.
  std::vector<double> rates;
  switch (query) {
    case 1:
    case 2:
      rates = {8000, 16000, 24000, 32000};
      break;
    case 4:
    case 6:
      rates = {2000, 4000, 6000, 9000};
      break;
    default:
      rates = {3000, 6000, 9000, 12000};
      break;
  }
  if (FastMode()) {
    rates = {rates[0], rates[2]};
  }
  return rates;
}

int Main(int only_query) {
  const System systems[] = {System::kImpeller, System::kKafkaStreams,
                            System::kKafkaTxn, System::kAlignedCkpt};
  std::printf(
      "Figure 7: NEXMark event-time latency vs input rate "
      "(commit interval 100ms)\n");
  for (int query = 1; query <= 8; ++query) {
    if (only_query != 0 && query != only_query) {
      continue;
    }
    std::printf("\nQ%d  %-16s", query, "rate (events/s):");
    for (double rate : RatesFor(query)) {
      std::printf(" %10.0f", rate);
    }
    std::printf("\n");
    for (System system : systems) {
      std::printf("  %-18s p50:", SystemName(system));
      std::vector<RunResult> results;
      for (double rate : RatesFor(query)) {
        RunConfig config;
        config.system = system;
        config.query = query;
        config.events_per_sec = rate;
        results.push_back(RunPoint(config));
        const RunResult& r = results.back();
        std::printf(" %10s%s", Cell(r, r.p50).c_str(),
                    r.saturated ? "*" : " ");
        std::fflush(stdout);
      }
      std::printf("\n  %-18s p99:", "");
      for (const RunResult& r : results) {
        std::printf(" %10s%s", Cell(r, r.p99).c_str(),
                    r.saturated ? "*" : " ");
      }
      std::printf("\n");
    }
  }
  std::printf(
      "\n'*' marks points past the paper's latency cutoff (p99 > 60ms for\n"
      "Q1-2, > 1s for Q3-8), i.e. the saturation knee of Figure 7.\n");
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace impeller

// Extra local flag: --query=N restricts the sweep to one NEXMark query
// (the shard-scaling acceptance run uses --query=1).
int main(int argc, char** argv) {
  impeller::bench::InitBench(&argc, argv);
  int only_query = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]).rfind("--query=", 0) == 0) {
      only_query = std::atoi(argv[i] + 8);
    }
  }
  return impeller::bench::Main(only_query);
}
