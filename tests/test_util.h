// Shared helpers for integration tests: a word-count pipeline (the paper's
// running example, Fig. 1/3), fast engine configurations, and wait loops.
#ifndef IMPELLER_TESTS_TEST_UTIL_H_
#define IMPELLER_TESTS_TEST_UTIL_H_

#include <functional>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/common/serde.h"
#include "src/core/engine.h"
#include "src/fault/fault.h"

namespace impeller {
namespace testutil {

// Arms the process-wide fault injector for one scope. Always declare it
// *after* the Engine whose MetricsRegistry it feeds: the destructor disarms
// (detaching the registry) before the engine dies.
struct FaultArmGuard {
  FaultArmGuard(std::vector<fault::FaultSchedule> schedules, uint64_t seed,
                MetricsRegistry* metrics = nullptr) {
    fault::FaultInjector::Get().Arm(std::move(schedules), seed, metrics);
  }
  ~FaultArmGuard() { fault::FaultInjector::Get().Disarm(); }
};

// Flushes until every buffered record is durably appended. Injected append
// failures past the retry budget leave batches buffered; a real gateway
// keeps flushing, and so does the harness.
inline Status FlushUntilDrained(IngressProducer& producer, Clock* clock) {
  for (int attempt = 0; attempt < 500; ++attempt) {
    if (producer.buffered() == 0) {
      return OkStatus();
    }
    if (!producer.Flush().ok()) {
      clock->SleepFor(2 * kMillisecond);
    }
  }
  return producer.buffered() == 0 ? OkStatus()
                                  : UnavailableError("flush never drained");
}

inline EngineConfig FastConfig(ProtocolKind protocol) {
  EngineConfig config;
  config.protocol = protocol;
  config.commit_interval = 20 * kMillisecond;
  config.snapshot_interval = 300 * kMillisecond;
  config.output_flush_interval = 5 * kMillisecond;
  config.timer_interval = 10 * kMillisecond;
  config.auto_restart = false;  // tests inject faults deterministically
  return config;
}

// Word count: split lines into words, count per word, sink "wc".
inline Result<QueryPlan> WordCountPlan(uint32_t tasks = 2) {
  AggregateFn count;
  count.init = [] { return std::string("0"); };
  count.add = [](std::string_view acc, const StreamRecord&) {
    return std::to_string(std::stoll(std::string(acc)) + 1);
  };
  QueryBuilder qb("wc");
  qb.Ingress("lines");
  qb.AddStage("split", tasks)
      .ReadsFrom({"lines"})
      .FlatMap([](StreamRecord r, std::vector<StreamRecord>* out) {
        std::istringstream stream(r.value);
        std::string word;
        while (stream >> word) {
          out->push_back({word, "1", r.event_time});
        }
      })
      .WritesTo("words");
  qb.AddStage("count", tasks)
      .ReadsFrom({"words"})
      .Aggregate("counts", count)
      .Sink("wc");
  return qb.Build();
}

// Polls `predicate` until true or `timeout`; returns whether it held.
inline bool WaitFor(const std::function<bool()>& predicate,
                    DurationNs timeout = 10 * kSecond) {
  Clock* clock = MonotonicClock::Get();
  TimeNs deadline = clock->Now() + timeout;
  while (clock->Now() < deadline) {
    if (predicate()) {
      return true;
    }
    clock->SleepFor(2 * kMillisecond);
  }
  return predicate();
}

// Reads the word-count egress (every substream) and returns the highest
// count observed per word — with exactly-once semantics this must equal the
// true occurrence count.
inline Result<std::map<std::string, int64_t>> ReadWordCounts(
    Engine& engine, uint32_t tasks = 2) {
  std::map<std::string, int64_t> counts;
  for (uint32_t sub = 0; sub < tasks; ++sub) {
    auto consumer = engine.NewEgressConsumer("count", sub);
    if (!consumer.ok()) {
      return consumer.status();
    }
    auto records = (*consumer)->PollAll();
    if (!records.ok()) {
      return records.status();
    }
    for (const auto& r : *records) {
      int64_t value = std::stoll(std::string(r.data.value));
      int64_t& slot = counts[std::string(r.data.key)];
      slot = std::max(slot, value);
    }
  }
  return counts;
}

}  // namespace testutil
}  // namespace impeller

#endif  // IMPELLER_TESTS_TEST_UTIL_H_
