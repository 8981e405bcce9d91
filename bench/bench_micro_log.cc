// Microbenchmarks for the shared-log substrate: append/read throughput with
// the latency model disabled (pure data-structure cost), tag-index fanout,
// selective reads, conditional appends, and trim.
#include <benchmark/benchmark.h>

#include <atomic>
#include <thread>

#include "bench/bench_common.h"
#include "bench/bench_gbench_json.h"

#include "src/obs/trace.h"
#include "src/sharedlog/shared_log.h"

namespace impeller {
namespace {

void BM_SharedLogAppend(benchmark::State& state) {
  SharedLog log;
  std::string payload(static_cast<size_t>(state.range(0)), 'x');
  for (auto _ : state) {
    AppendRequest req;
    req.tags = {"t"};
    req.payload = payload;
    benchmark::DoNotOptimize(log.Append(std::move(req)));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_SharedLogAppend)->Arg(100)->Arg(1024)->Arg(16 * 1024);

void BM_SharedLogAppendTraced(benchmark::State& state) {
  // Tracing-overhead check: the same append path as BM_SharedLogAppend with
  // span recording runtime-enabled. Compare ns/op against BM_SharedLogAppend
  // at the same arg — the delta is the full tracing cost (two clock reads
  // plus a thread-local ring write per span) and must stay under 1%.
  obs::TraceCollector::Get().Enable();
  SharedLog log;
  std::string payload(static_cast<size_t>(state.range(0)), 'x');
  for (auto _ : state) {
    AppendRequest req;
    req.tags = {"t"};
    req.payload = payload;
    benchmark::DoNotOptimize(log.Append(std::move(req)));
  }
  obs::TraceCollector::Get().Disable();
  (void)obs::TraceCollector::Get().Drain();
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_SharedLogAppendTraced)->Arg(100)->Arg(1024)->Arg(16 * 1024);

void BM_SharedLogAppendBatch(benchmark::State& state) {
  SharedLog log;
  const size_t batch = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    std::vector<AppendRequest> reqs(batch);
    for (auto& r : reqs) {
      r.tags = {"t"};
      r.payload = "payload-100-bytes-";
    }
    benchmark::DoNotOptimize(log.AppendBatch(reqs));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * batch);
}
BENCHMARK(BM_SharedLogAppendBatch)->Arg(16)->Arg(256);

void BM_SharedLogMultiTagAppend(benchmark::State& state) {
  // The atomic multi-substream append behind progress markers (§3.2): cost
  // scales with the number of tags indexed.
  SharedLog log;
  std::vector<std::string> tags;
  for (int i = 0; i < state.range(0); ++i) {
    tags.push_back("tag/" + std::to_string(i));
  }
  for (auto _ : state) {
    AppendRequest req;
    req.tags = tags;
    req.payload = "marker";
    benchmark::DoNotOptimize(log.Append(std::move(req)));
  }
}
BENCHMARK(BM_SharedLogMultiTagAppend)->Arg(1)->Arg(4)->Arg(16)->Arg(64);

void BM_SharedLogSelectiveRead(benchmark::State& state) {
  // Selective reads must not scan unrelated records: interleave the target
  // tag with `range` records of noise per hit.
  SharedLog log;
  const int noise = static_cast<int>(state.range(0));
  for (int i = 0; i < 10000; ++i) {
    AppendRequest req;
    req.tags = {i % (noise + 1) == 0 ? "hot" : "cold"};
    req.payload = "p";
    (void)log.Append(std::move(req));
  }
  Lsn cursor = 0;
  for (auto _ : state) {
    auto entry = log.ReadNext("hot", cursor);
    if (entry.ok()) {
      cursor = entry->lsn + 1;
    } else {
      cursor = 0;
    }
  }
}
BENCHMARK(BM_SharedLogSelectiveRead)->Arg(0)->Arg(9)->Arg(99);

void BM_SharedLogConditionalAppend(benchmark::State& state) {
  SharedLog log;
  log.MetaPut("inst/t", 1);
  for (auto _ : state) {
    AppendRequest req;
    req.tags = {"t"};
    req.payload = "p";
    req.cond_key = "inst/t";
    req.cond_value = 1;
    benchmark::DoNotOptimize(log.Append(std::move(req)));
  }
}
BENCHMARK(BM_SharedLogConditionalAppend);

void BM_SharedLogTrim(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    SharedLog log;
    for (int i = 0; i < 10000; ++i) {
      AppendRequest req;
      req.tags = {"t" + std::to_string(i % 32)};
      req.payload = "p";
      (void)log.Append(std::move(req));
    }
    state.ResumeTiming();
    benchmark::DoNotOptimize(log.Trim(5000));
  }
}
BENCHMARK(BM_SharedLogTrim)->Unit(benchmark::kMicrosecond)->Iterations(50);

void BM_ShardedLogAppend(benchmark::State& state) {
  // The shard-scaling series behind the acceptance numbers: concurrent
  // appenders against the Boki-calibrated latency model, log shard count
  // from --shards. Each thread appends under a tag placed on a distinct
  // shard (thread t % shards), so with shards >= threads the per-shard
  // sequencers overlap their modeled ack rounds; at 1 shard the single
  // sequencer serializes them. Throughput is the items/s counter.
  static std::atomic<SharedLog*> shared{nullptr};
  if (state.thread_index() == 0) {
    SharedLogOptions opts;
    opts.name = "bench";
    opts.shards = bench::BenchShards();
    opts.latency = std::make_shared<CalibratedLatencyModel>(
        CalibratedLatencyModel::BokiParams(), bench::BenchSeed());
    shared.store(new SharedLog(opts), std::memory_order_release);
  }
  SharedLog* log;
  while ((log = shared.load(std::memory_order_acquire)) == nullptr) {
    std::this_thread::yield();
  }
  // Pick a tag that lands on shard (thread % shards): probe candidate tags
  // until placement matches. With shards == 1 any tag works.
  uint32_t shards = bench::BenchShards();
  uint32_t want = static_cast<uint32_t>(state.thread_index()) % shards;
  std::string tag;
  for (int c = 0;; ++c) {
    tag = "shard-tag/" + std::to_string(c);
    if (log->ShardOfTag(tag) == want) {
      break;
    }
  }
  for (auto _ : state) {
    AppendRequest req;
    req.tags = {tag};
    req.payload = "payload-100-bytes-";
    benchmark::DoNotOptimize(log->Append(std::move(req)));
  }
  state.SetItemsProcessed(state.iterations());
  if (state.thread_index() == 0) {
    delete log;
    shared.store(nullptr, std::memory_order_release);
  }
}
BENCHMARK(BM_ShardedLogAppend)
    ->Threads(4)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_MetaIncrement(benchmark::State& state) {
  SharedLog log;
  for (auto _ : state) {
    benchmark::DoNotOptimize(log.MetaIncrement("inst/task"));
  }
}
BENCHMARK(BM_MetaIncrement);

}  // namespace
}  // namespace impeller

// Strip the shared --seed flag before google-benchmark sees argv: it
// rejects flags it does not know.
int main(int argc, char** argv) {
  impeller::bench::InitBench(&argc, argv);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  impeller::bench::JsonForwardingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  return 0;
}
