#include "src/layers.h"

#include <pthread.h>

#include <algorithm>
#include <cmath>
#include <utility>

namespace perfbench {

namespace {

thread_local bool tl_scheduler_worker = false;

}  // namespace

void BlockingClock::SleepFor(DurationNs d) {
  if (!tl_scheduler_worker || !armed_.load(std::memory_order_relaxed)) {
    base_->SleepFor(d);
    return;
  }
  TimeNs start = base_->Now();
  base_->SleepFor(d);
  blocked_ns_.fetch_add(base_->Now() - start, std::memory_order_relaxed);
}

void BlockingClock::MarkWorkerThread() { tl_scheduler_worker = true; }

void WorkerProbe::Start(impeller::sched::WorkStealingScheduler* sched) {
  want_ = sched->workers();
  for (uint32_t i = 0; i < want_; ++i) {
    sched->Submit([this] { return Step(); }, i, "perfbench/probe");
  }
}

impeller::sched::StepResult WorkerProbe::Step() {
  BlockingClock::MarkWorkerThread();
  clockid_t cpu_clock;
  bool have_clock = pthread_getcpuclockid(pthread_self(), &cpu_clock) == 0;
  std::lock_guard<std::mutex> lock(mu_);
  if (have_clock) {
    clocks_.emplace(std::this_thread::get_id(), cpu_clock);
  }
  if (clocks_.size() >= want_) {
    return impeller::sched::StepResult::Done();
  }
  return impeller::sched::StepResult::Idle(impeller::kMillisecond);
}

size_t WorkerProbe::found() const {
  std::lock_guard<std::mutex> lock(mu_);
  return clocks_.size();
}

DurationNs WorkerProbe::CpuTimeNs() const {
  std::lock_guard<std::mutex> lock(mu_);
  DurationNs total = 0;
  for (const auto& [id, cpu_clock] : clocks_) {
    timespec ts{};
    if (clock_gettime(cpu_clock, &ts) == 0) {
      total += ts.tv_sec * impeller::kSecond + ts.tv_nsec;
    }
  }
  return total;
}

void SpanStats::Add(const std::vector<impeller::obs::TraceRecord>& records,
                    TimeNs from, TimeNs to) {
  for (const auto& r : records) {
    if (r.instant || r.start_ns < from || r.start_ns >= to) {
      continue;
    }
    std::string key = std::string(r.category) + "/" + r.name;
    durations_[key].push_back(r.end_ns - r.start_ns);
  }
}

const std::vector<int64_t>* SpanStats::Find(std::string_view span) const {
  auto it = durations_.find(span);
  return it == durations_.end() ? nullptr : &it->second;
}

uint64_t SpanStats::Count(std::string_view span) const {
  const auto* d = Find(span);
  return d == nullptr ? 0 : d->size();
}

double SpanStats::TotalMs(std::string_view span) const {
  const auto* d = Find(span);
  int64_t total = 0;
  if (d != nullptr) {
    for (int64_t v : *d) {
      total += v;
    }
  }
  return total / 1e6;
}

double SpanStats::MeanUs(std::string_view span) const {
  uint64_t n = Count(span);
  return n == 0 ? 0 : TotalMs(span) * 1e3 / n;
}

double SpanStats::PercentileMs(std::string_view span, double p) const {
  const auto* d = Find(span);
  return d == nullptr ? 0 : Percentile(*d, p) / 1e6;
}

double Percentile(std::vector<int64_t> samples, double p) {
  if (samples.empty()) {
    return 0;
  }
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * samples.size()));
  size_t index = std::clamp<size_t>(rank, 1, samples.size()) - 1;
  std::nth_element(samples.begin(), samples.begin() + index, samples.end());
  return static_cast<double>(samples[index]);
}

namespace {

// Smallest and largest value a LatencyHistogram files in the same bucket as
// `mid`, one of its bucket midpoints. Found by probing a scratch histogram,
// so no bucket layout is assumed.
std::pair<int64_t, int64_t> BucketBounds(int64_t mid) {
  impeller::LatencyHistogram probe;
  auto in_bucket = [&](int64_t v) {
    probe.Reset();
    probe.Record(v);
    return probe.Percentile(50) == mid;
  };
  int64_t lo = 0;
  int64_t hi = mid;
  while (lo < hi) {
    int64_t m = lo + (hi - lo) / 2;
    if (in_bucket(m)) {
      hi = m;
    } else {
      lo = m + 1;
    }
  }
  int64_t first = lo;
  lo = mid;
  hi = 2 * mid + 1;  // a bucket never reaches twice its midpoint
  while (lo < hi) {
    int64_t m = lo + (hi - lo + 1) / 2;
    if (in_bucket(m)) {
      lo = m;
    } else {
      hi = m - 1;
    }
  }
  return {first, lo};
}

}  // namespace

double InterpolatedPercentile(const impeller::LatencyHistogram& h, double p) {
  uint64_t n = h.Count();
  if (n == 0) {
    return 0;
  }
  // Bucket midpoint at a given 1-based rank (the histogram rounds the rank
  // up, so asking for rank - 0.5 lands exactly on `rank`).
  auto at_rank = [&](uint64_t rank) {
    return h.Percentile(100.0 * (static_cast<double>(rank) - 0.5) /
                        static_cast<double>(n));
  };
  uint64_t rank = std::clamp<uint64_t>(
      static_cast<uint64_t>(std::ceil(p / 100.0 * static_cast<double>(n))), 1,
      n);
  int64_t mid = at_rank(rank);
  uint64_t lo = 1;
  uint64_t hi = rank;
  while (lo < hi) {  // first rank in this bucket
    uint64_t m = (lo + hi) / 2;
    if (at_rank(m) < mid) {
      lo = m + 1;
    } else {
      hi = m;
    }
  }
  uint64_t first = lo;
  lo = rank;
  hi = n;
  while (lo < hi) {  // last rank in this bucket
    uint64_t m = (lo + hi + 1) / 2;
    if (at_rank(m) > mid) {
      hi = m - 1;
    } else {
      lo = m;
    }
  }
  uint64_t last = lo;
  auto [low, high] = BucketBounds(mid);
  double within = (static_cast<double>(rank - first) + 0.5) /
                  static_cast<double>(last - first + 1);
  return static_cast<double>(low) +
         within * static_cast<double>(high - low + 1);
}

}  // namespace perfbench
