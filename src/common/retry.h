// Capped exponential backoff with jitter for log-client paths. The shared
// log can return transient kUnavailable errors (real deployments: leader
// failover, quorum loss; here: the fault injector) that the exactly-once
// protocols must absorb without losing or duplicating records — the
// AdmitBatch contract (requests untouched on failure) makes blind re-issue
// safe, and fencing makes it zombie-safe.
//
// Header-only on purpose: Retrier's template body instantiates in consumer
// translation units (task runtime, output buffer, coordinators), which all
// already link impeller_obs — so impeller_common itself never depends on the
// obs layer.
#ifndef IMPELLER_SRC_COMMON_RETRY_H_
#define IMPELLER_SRC_COMMON_RETRY_H_

#include <algorithm>
#include <mutex>
#include <string>

#include "src/common/clock.h"
#include "src/common/metrics.h"
#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/obs/trace.h"

namespace impeller {

struct RetryPolicy {
  int max_attempts = 5;                       // total tries, including first
  DurationNs initial_backoff = 500 * kMicrosecond;
  double multiplier = 2.0;
  DurationNs max_backoff = 20 * kMillisecond;
  double jitter = 0.25;  // each backoff scaled by U[1-jitter, 1+jitter]
  // Total elapsed-time budget across all attempts, backoff sleeps included
  // (0 = unbounded). A permanently failed dependency stops costing time
  // here even when max_attempts would allow further tries.
  DurationNs max_elapsed = 30 * kSecond;
};

// Only kUnavailable is transient. kFenced in particular must NOT be retried:
// it means this writer is a zombie and retrying would fight the replacement.
// kSealed likewise: the shard is gone for good — the log client re-places
// the batch at the new placement epoch instead of hammering a sealed
// sequencer.
inline bool IsRetryable(const Status& status) {
  return status.code() == StatusCode::kUnavailable;
}

namespace retry_internal {

inline const Status& GetStatus(const Status& status) { return status; }

template <typename T>
inline const Status& GetStatus(const Result<T>& result) {
  return result.status();
}

}  // namespace retry_internal

// Runs an operation under a RetryPolicy. Shared freely across threads (the
// coordinators' worker loops and the runtime's timer thread may retry
// concurrently); the jitter RNG is the only mutable state and is seeded so
// backoff sequences are reproducible per owner.
class Retrier {
 public:
  Retrier(RetryPolicy policy, uint64_t seed, Clock* clock = nullptr,
          MetricsRegistry* metrics = nullptr)
      : policy_(policy), rng_(seed), clock_(clock) {
    if (clock_ == nullptr) {
      clock_ = MonotonicClock::Get();
    }
    if (metrics != nullptr) {
      attempts_ = metrics->GetCounter("retry/attempts");
      retries_ = metrics->GetCounter("retry/retries");
      exhausted_ = metrics->GetCounter("retry/exhausted");
    }
  }

  // fn: () -> Status or () -> Result<T>. Returns the first non-retryable
  // outcome, or the last attempt's outcome once attempts or the elapsed-time
  // budget are exhausted.
  // `op` names the operation for trace events; must be a string literal.
  template <typename Fn>
  auto Run(const char* op, Fn&& fn) -> decltype(fn()) {
    TimeNs start = clock_->Now();
    int attempt = 0;
    DurationNs backoff = policy_.initial_backoff;
    while (true) {
      ++attempt;
      if (attempts_ != nullptr) {
        attempts_->Add();
      }
      auto outcome = fn();
      const Status& status = retry_internal::GetStatus(outcome);
      if (status.ok() || !IsRetryable(status) ||
          attempt >= policy_.max_attempts) {
        if (!status.ok() && IsRetryable(status) && exhausted_ != nullptr) {
          exhausted_->Add();
        }
        return outcome;
      }
      DurationNs sleep = JitteredBackoff(backoff);
      if (policy_.max_elapsed > 0 &&
          (clock_->Now() - start) + sleep >= policy_.max_elapsed) {
        // The next backoff would blow the total budget: give up now rather
        // than sleep into a deadline we already know we'll miss.
        if (exhausted_ != nullptr) {
          exhausted_->Add();
        }
        TRACE_INSTANT("retry", "budget_exhausted");
        return outcome;
      }
      if (retries_ != nullptr) {
        retries_->Add();
      }
      TRACE_INSTANT("retry", op);
      clock_->SleepFor(sleep);
      backoff = std::min<DurationNs>(
          static_cast<DurationNs>(backoff * policy_.multiplier),
          policy_.max_backoff);
    }
  }

  const RetryPolicy& policy() const { return policy_; }

 private:
  DurationNs JitteredBackoff(DurationNs backoff) {
    std::lock_guard<std::mutex> lock(rng_mu_);
    double scale = 1.0 + policy_.jitter * (2.0 * rng_.NextDouble() - 1.0);
    return std::max<DurationNs>(1, static_cast<DurationNs>(backoff * scale));
  }

  RetryPolicy policy_;
  std::mutex rng_mu_;
  Rng rng_;
  Clock* clock_;
  Counter* attempts_ = nullptr;
  Counter* retries_ = nullptr;
  Counter* exhausted_ = nullptr;
};

}  // namespace impeller

#endif  // IMPELLER_SRC_COMMON_RETRY_H_
