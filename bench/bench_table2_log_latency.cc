// Reproduces Table 2: p50/p99 latency between appending a 16 KiB record and
// consuming it from another node, for Impeller's log (Boki model) vs Kafka,
// at 10 / 50 / 100 appends per second, batching disabled. Both columns run
// on a single-shard SharedLog with one tag; they differ only in the
// calibrated latency model (BokiParams vs KafkaParams) and its seed.
//
// Paper values (us):            Impeller's log      Kafka
//   10 aps                      p50 2714 p99 3711   p50 2074 p99 4448
//   50 aps                      p50 2604 p99 3832   p50 1596 p99 3463
//   100 aps                     p50 2546 p99 3596   p50 1449 p99 2942
#include <cstdio>
#include <string>
#include <utility>

#include "bench/bench_common.h"
#include "src/common/histogram.h"
#include "src/common/rate_limiter.h"
#include "src/common/threading.h"
#include "src/sharedlog/shared_log.h"

namespace impeller {
namespace bench {
namespace {

constexpr size_t kRecordBytes = 16 * 1024;

struct Sample {
  int64_t p50;
  int64_t p99;
};

Sample MeasureSharedLog(const CalibratedLatencyParams& params,
                        uint64_t seed, double aps, double seconds) {
  SharedLogOptions options;
  options.latency = std::make_shared<CalibratedLatencyModel>(params, seed);
  SharedLog log(std::move(options));
  LatencyHistogram hist;
  Clock* clock = MonotonicClock::Get();

  std::atomic<bool> done{false};
  JoiningThread reader([&] {
    Lsn cursor = 0;
    while (!done.load(std::memory_order_relaxed)) {
      auto entry = log.AwaitNext("t", cursor, 50 * kMillisecond);
      if (!entry.ok()) {
        continue;
      }
      cursor = entry->lsn + 1;
      hist.Record(clock->Now() - entry->append_time);
    }
  });

  RateLimiter limiter(aps, clock, /*max_burst=*/1);
  TimeNs deadline = clock->Now() + static_cast<DurationNs>(seconds * kSecond);
  std::string payload(kRecordBytes, 'x');
  while (clock->Now() < deadline) {
    limiter.Acquire(1);
    AppendRequest req;
    req.tags = {"t"};
    req.payload = payload;
    (void)log.Append(std::move(req));
  }
  clock->SleepFor(20 * kMillisecond);
  done.store(true);
  reader.Join();
  return {hist.p50(), hist.p99()};
}

int Main() {
  std::printf(
      "Table 2: produce-to-consume latency, 16 KiB record (us)\n"
      "%-8s | %-12s %-12s | %-12s %-12s | %s\n",
      "rate", "log p50", "log p99", "kafka p50", "kafka p99", "p50 ratio");
  std::printf("%s\n", std::string(76, '-').c_str());
  double base = FastMode() ? 6.0 : 12.0;
  struct Row {
    double aps;
    double seconds;
  };
  // Longer runs at low rates so the p99 rests on enough samples — on a
  // single shared host one scheduler hiccup can otherwise poison the tail.
  Row rows[] = {{10, base * 5}, {50, base * 2}, {100, base}};
  for (const Row& row : rows) {
    Sample boki = MeasureSharedLog(CalibratedLatencyModel::BokiParams(), 11,
                                   row.aps, row.seconds);
    Sample kafka = MeasureSharedLog(CalibratedLatencyModel::KafkaParams(), 13,
                                    row.aps, row.seconds);
    std::printf("%-8.0f | %-12ld %-12ld | %-12ld %-12ld | (%.2fx)\n",
                row.aps, boki.p50 / 1000, boki.p99 / 1000, kafka.p50 / 1000,
                kafka.p99 / 1000,
                kafka.p50 > 0
                    ? static_cast<double>(boki.p50) / kafka.p50
                    : 0.0);
    for (const auto& [series, sample] :
         {std::pair<const char*, Sample>{"log", boki}, {"kafka", kafka}}) {
      BenchPoint point;
      point.name = std::string(series) + "/" + std::to_string(
                       static_cast<int>(row.aps)) + "aps";
      point.ns_per_op = static_cast<double>(sample.p50);
      point.ops_per_sec = row.aps;
      point.p50_ns = sample.p50;
      point.p99_ns = sample.p99;
      BenchJson::Instance().Add(point);
    }
  }
  std::printf(
      "\nPaper: log p50 2546-2714us p99 3596-3832us; kafka p50 1449-2074us\n"
      "p99 2942-4448us (higher than the log's at 10 aps). Slowdown of the\n"
      "shared log vs kafka: 1.30-1.76x at p50.\n");
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace impeller

int main(int argc, char** argv) {
  impeller::bench::InitBench(&argc, argv);
  return impeller::bench::Main();
}
