// Chaos recovery bench: NEXMark Q1 under a seeded adversarial fault
// schedule vs the same run fault-free, for every protocol. Reports wall
// time to a fully committed output, the fault and retry counters, and
// whether the committed output stayed byte-identical — the throughput-side
// view of what tests/chaos_test.cc asserts. kUnsafe gets only benign
// faults (no crashes): without progress tracking a crash loses state by
// design (Fig. 9), so its row measures delay/retry absorption only.
//
// Usage: bench_chaos_recovery [--seed=N]   (also IMPELLER_BENCH_SEED)
#include <algorithm>
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/fault/fault.h"
#include "src/nexmark/events.h"

namespace impeller {
namespace bench {
namespace {

using fault::FaultInjector;
using fault::FaultKind;
using fault::FaultSchedule;

constexpr uint32_t kTasksPerStage = 2;
constexpr size_t kChunk = 40;

size_t NumEvents() { return FastMode() ? 200 : 400; }

std::vector<Bid> MakeBids() {
  std::vector<Bid> bids;
  bids.reserve(NumEvents());
  for (size_t i = 0; i < NumEvents(); ++i) {
    Bid bid;
    bid.auction = 1000 + i % 37;
    bid.bidder = i;
    bid.price = 100 + static_cast<int64_t>(i) * 7;
    bid.channel = "chaos";
    bid.url = "https://bid/" + std::to_string(i);
    bid.date_time = kSecond + static_cast<TimeNs>(i) * kMillisecond;
    bids.push_back(std::move(bid));
  }
  return bids;
}

std::vector<std::string> CrashPoints(ProtocolKind protocol) {
  switch (protocol) {
    case ProtocolKind::kProgressMarking:
      return {"task/commit/pre_marker", "task/commit/post_marker",
              "task/flush/pre", "task/flush/post"};
    case ProtocolKind::kKafkaTxn:
      return {"task/flush/pre", "task/flush/post", "txn/phase2",
              "txn/post_commit"};
    case ProtocolKind::kAlignedCheckpoint:
      return {"task/flush/pre", "task/flush/post", "task/checkpoint/mid",
              "barrier/inject"};
    case ProtocolKind::kUnsafe:
      return {};
  }
  return {};
}

// Mirrors the chaos test's schedule derivation: benign delay/error/
// duplicate schedules for everyone, two seed-chosen crash points for the
// exactly-once protocols.
std::vector<FaultSchedule> DeriveSchedules(ProtocolKind protocol,
                                           uint64_t seed) {
  Rng rng(seed * 0x9E3779B97F4A7C15ull +
          static_cast<uint64_t>(protocol) * 0x100000001B3ull);
  std::vector<FaultSchedule> out;
  {
    FaultSchedule s;
    s.point = "log/append";
    s.kind = FaultKind::kDelay;
    s.delay = static_cast<DurationNs>(rng.NextRange(1, 4)) * kMillisecond;
    s.every_n = static_cast<uint64_t>(rng.NextRange(30, 60));
    s.max_fires = 5;
    out.push_back(s);
  }
  {
    FaultSchedule s;
    s.point = "log/append";
    s.kind = FaultKind::kError;
    s.every_n = static_cast<uint64_t>(rng.NextRange(20, 40));
    s.max_fires = 3;
    out.push_back(s);
  }
  {
    FaultSchedule s;
    s.point = "log/read";
    s.kind = FaultKind::kDuplicate;
    s.detail_substr = "bids";
    s.every_n = static_cast<uint64_t>(rng.NextRange(40, 80));
    s.max_fires = 3;
    out.push_back(s);
  }
  std::vector<std::string> points = CrashPoints(protocol);
  if (!points.empty()) {
    size_t first = rng.NextBounded(points.size());
    size_t second =
        (first + 1 + rng.NextBounded(points.size() - 1)) % points.size();
    for (size_t idx : {first, second}) {
      FaultSchedule s;
      s.point = points[idx];
      s.kind = FaultKind::kCrash;
      s.at_hit = static_cast<uint64_t>(rng.NextRange(2, 10));
      s.max_fires = 1;
      out.push_back(s);
    }
  }
  return out;
}

std::vector<std::string> CollectCommitted(Engine& engine) {
  std::vector<std::string> lines;
  for (uint32_t sub = 0; sub < kTasksPerStage; ++sub) {
    auto consumer = engine.NewEgressConsumer("convert", sub);
    if (!consumer.ok()) {
      return {};
    }
    auto records = (*consumer)->PollAll();
    if (!records.ok()) {
      return {};
    }
    for (const auto& r : *records) {
      lines.push_back(std::string(r.data.key) + "|" +
                      std::string(r.data.value));
    }
  }
  std::sort(lines.begin(), lines.end());
  return lines;
}

struct ChaosRun {
  double seconds = 0;       // feed start -> fully committed output
  bool converged = false;   // every input committed exactly once
  uint64_t fault_fires = 0;
  uint64_t crashes = 0;
  uint64_t retries = 0;
  uint64_t exhausted = 0;
  std::vector<std::string> lines;
};

ChaosRun RunOnce(ProtocolKind protocol, uint64_t seed,
                 std::vector<FaultSchedule> schedules) {
  EngineOptions options;
  options.config.protocol = protocol;
  options.config.commit_interval = 20 * kMillisecond;
  options.config.snapshot_interval = 200 * kMillisecond;
  options.config.output_flush_interval = 5 * kMillisecond;
  options.config.timer_interval = 10 * kMillisecond;
  options.config.heartbeat_interval = 10 * kMillisecond;
  options.config.failure_timeout = 250 * kMillisecond;
  options.config.auto_restart = true;
  options.config.log_shards = BenchShards();
  options.config.sched_workers = BenchWorkers();
  options.name = "chaos-bench";
  Engine engine(std::move(options));

  NexmarkQueryOptions query_options;
  query_options.tasks_per_stage = kTasksPerStage;
  auto plan = BuildNexmarkQuery(1, query_options);
  if (!plan.ok() || !engine.Submit(std::move(*plan)).ok()) {
    return {};
  }
  auto producer = engine.NewProducer("chaos-gen", "bids");
  if (!producer.ok()) {
    return {};
  }

  std::vector<std::string> crash_points = CrashPoints(protocol);
  Clock* clock = engine.clock();
  std::vector<Bid> bids = MakeBids();
  ChaosRun run;
  TimeNs start = clock->Now();
  FaultInjector::Get().Arm(std::move(schedules), seed, engine.metrics());
  for (size_t i = 0; i < bids.size(); ++i) {
    (*producer)->Send(std::to_string(bids[i].auction), EncodeBid(bids[i]),
                      bids[i].date_time);
    if ((i + 1) % kChunk == 0 || i + 1 == bids.size()) {
      for (int attempt = 0; attempt < 500 && (*producer)->buffered() > 0;
           ++attempt) {
        if (!(*producer)->Flush().ok()) {
          clock->SleepFor(2 * kMillisecond);
        }
      }
      clock->SleepFor(15 * kMillisecond);
    }
  }
  clock->SleepFor(100 * kMillisecond);  // let late crash schedules fire
  run.fault_fires = FaultInjector::Get().TotalFires();
  for (const auto& point : crash_points) {
    run.crashes += FaultInjector::Get().FireCount(point);
  }
  FaultInjector::Get().Disarm();

  TimeNs deadline = clock->Now() + 30 * kSecond;
  while (clock->Now() < deadline) {
    auto lines = CollectCommitted(engine);
    if (std::set<std::string>(lines.begin(), lines.end()).size() >=
        bids.size()) {
      run.converged = true;
      break;
    }
    clock->SleepFor(5 * kMillisecond);
  }
  run.seconds = static_cast<double>(clock->Now() - start) / 1e9;
  run.retries = engine.metrics()->GetCounter("retry/retries")->Get();
  run.exhausted = engine.metrics()->GetCounter("retry/exhausted")->Get();
  engine.Stop();
  run.lines = CollectCommitted(engine);
  return run;
}

int Main() {
  uint64_t seed = BenchSeed();
  std::printf(
      "Chaos recovery: NEXMark Q1, %zu events, seed %llu\n"
      "(clean = fault-free run; chaos = seeded schedule: append delay "
      "spikes,\ntransient append errors, duplicate redeliveries, and two "
      "crash points\nper exactly-once protocol; kUnsafe: benign faults "
      "only)\n\n",
      NumEvents(), static_cast<unsigned long long>(seed));
  std::printf("%-14s %9s %9s %9s %7s %8s %10s  %s\n", "protocol",
              "clean(s)", "chaos(s)", "slowdown", "faults", "crashes",
              "retries", "committed output");
  std::printf("%s\n", std::string(92, '-').c_str());

  for (ProtocolKind protocol :
       {ProtocolKind::kProgressMarking, ProtocolKind::kKafkaTxn,
        ProtocolKind::kAlignedCheckpoint, ProtocolKind::kUnsafe}) {
    ChaosRun clean = RunOnce(protocol, seed, {});
    ChaosRun chaos = RunOnce(protocol, seed, DeriveSchedules(protocol, seed));
    const char* verdict =
        !clean.converged || !chaos.converged ? "DID NOT CONVERGE"
        : chaos.lines == clean.lines         ? "identical"
                                             : "DIVERGED";
    std::printf("%-14s %9.2f %9.2f %8.1fx %7llu %8llu %10llu  %s\n",
                ProtocolKindName(protocol), clean.seconds, chaos.seconds,
                clean.seconds > 0 ? chaos.seconds / clean.seconds : 0.0,
                static_cast<unsigned long long>(chaos.fault_fires),
                static_cast<unsigned long long>(chaos.crashes),
                static_cast<unsigned long long>(chaos.retries),
                verdict);
    BenchPoint point;
    point.name = std::string(ProtocolKindName(protocol)) + "/chaos";
    point.ns_per_op = chaos.seconds * 1e9;  // time to fully committed output
    point.ops_per_sec =
        chaos.seconds > 0 ? NumEvents() / chaos.seconds : 0;
    char extra[200];
    std::snprintf(extra, sizeof(extra),
                  "\"clean_sec\": %.3f, \"chaos_sec\": %.3f, "
                  "\"faults\": %llu, \"crashes\": %llu, \"retries\": %llu, "
                  "\"verdict\": \"%s\"",
                  clean.seconds, chaos.seconds,
                  static_cast<unsigned long long>(chaos.fault_fires),
                  static_cast<unsigned long long>(chaos.crashes),
                  static_cast<unsigned long long>(chaos.retries), verdict);
    point.extra = extra;
    BenchJson::Instance().Add(point);
  }
  std::printf(
      "\nEvery exactly-once protocol must read \"identical\": injected "
      "faults may\ncost recovery time but can never surface in the "
      "committed stream (§3.3-§3.5).\nReplay any row bit-for-bit with "
      "--seed=%llu.\n",
      static_cast<unsigned long long>(seed));
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace impeller

int main(int argc, char** argv) {
  impeller::bench::InitBench(&argc, argv);
  return impeller::bench::Main();
}
