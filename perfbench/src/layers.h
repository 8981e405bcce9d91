// Per-layer measurement for the traced run, built only from what the engine
// already exposes: a Clock wrapper handed in through EngineOptions::clock,
// a probe entity on the engine's scheduler, and the existing trace spans.
#ifndef PERFBENCH_SRC_LAYERS_H_
#define PERFBENCH_SRC_LAYERS_H_

#include <atomic>
#include <cstdint>
#include <ctime>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "src/common/clock.h"
#include "src/common/histogram.h"
#include "src/obs/trace.h"
#include "src/sched/scheduler.h"

namespace perfbench {

using impeller::DurationNs;
using impeller::TimeNs;

// Monotonic clock that, while armed, sums the time scheduler workers spend
// in SleepFor: the modeled log/kv waits a task step blocks its worker on.
class BlockingClock final : public impeller::Clock {
 public:
  TimeNs Now() const override { return base_->Now(); }
  void SleepFor(DurationNs d) override;

  // Marks the calling thread as a scheduler worker.
  static void MarkWorkerThread();

  void Arm(bool on) { armed_.store(on, std::memory_order_relaxed); }
  DurationNs blocked_ns() const {
    return blocked_ns_.load(std::memory_order_relaxed);
  }

 private:
  impeller::Clock* base_ = impeller::MonotonicClock::Get();
  std::atomic<bool> armed_{false};
  std::atomic<DurationNs> blocked_ns_{0};
};

// Finds the scheduler's worker threads: one probe entity per worker runs
// until every worker has stepped one, marking each thread for
// BlockingClock and recording its CPU-time clock.
class WorkerProbe {
 public:
  WorkerProbe() = default;
  WorkerProbe(const WorkerProbe&) = delete;
  WorkerProbe& operator=(const WorkerProbe&) = delete;

  void Start(impeller::sched::WorkStealingScheduler* sched);
  size_t found() const;
  // Summed CPU time of the workers found so far.
  DurationNs CpuTimeNs() const;

 private:
  impeller::sched::StepResult Step();

  uint32_t want_ = 0;
  mutable std::mutex mu_;
  std::map<std::thread::id, clockid_t> clocks_;
};

// Durations of drained trace spans that started inside a window, keyed
// "category/name".
class SpanStats {
 public:
  void Add(const std::vector<impeller::obs::TraceRecord>& records,
           TimeNs from, TimeNs to);

  uint64_t Count(std::string_view span) const;
  double TotalMs(std::string_view span) const;
  double MeanUs(std::string_view span) const;
  double PercentileMs(std::string_view span, double p) const;

 private:
  const std::vector<int64_t>* Find(std::string_view span) const;

  std::map<std::string, std::vector<int64_t>, std::less<>> durations_;
};

// Nearest-rank percentile of raw samples; 0 when empty.
double Percentile(std::vector<int64_t> samples, double p);

// Percentile of an engine LatencyHistogram, interpolated linearly inside
// the bucket that holds the rank rather than snapped to its midpoint (at
// 130 ms a bucket is 4.2 ms wide). `h` must not be recorded into meanwhile.
double InterpolatedPercentile(const impeller::LatencyHistogram& h, double p);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_LAYERS_H_
