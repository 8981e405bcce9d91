// Span tracing for the hot paths the exactly-once protocols exercise
// (DESIGN.md "Observability"): a process-wide TraceCollector owning one
// fixed-capacity ring buffer per thread. Recording a span touches only the
// calling thread's buffer under a dedicated, uncontended mutex (drains are
// rare), so the fast path stays cache-local and cheap; when tracing is
// runtime-disabled it is a single relaxed atomic load.
//
// Usage — RAII guards via macros, compiled out entirely when the
// IMPELLER_TRACING CMake option is OFF:
//
//   void SharedLog::Trim(...) {
//     TRACE_SPAN("log", "trim");          // closed at scope exit
//     ...
//     TRACE_INSTANT("log", "trim_noop");  // zero-duration event
//   }
//
// Span categories are a fixed taxonomy: "log" (shared-log operations),
// "task" (TaskRuntime phases), "protocol" (commit / txn / barrier
// machinery), "kv" (checkpoint store). Category and name must be string
// literals (records store the pointers, not copies).
#ifndef IMPELLER_SRC_OBS_TRACE_H_
#define IMPELLER_SRC_OBS_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

namespace impeller {
namespace obs {

// Nanoseconds on the steady clock — the same epoch MonotonicClock uses, so
// trace timestamps line up with engine time.
inline int64_t TraceNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct TraceRecord {
  const char* category = nullptr;  // string literal
  const char* name = nullptr;      // string literal
  int64_t start_ns = 0;
  int64_t end_ns = 0;  // == start_ns for instant events
  uint32_t tid = 0;    // dense per-process thread id
  uint32_t depth = 0;  // span nesting depth within the thread (0 = root)
  bool instant = false;
};

class TraceCollector {
 public:
  // Process-wide collector (thread-safe initialization).
  static TraceCollector& Get();

  // Runtime switch. Spans opened while disabled are never recorded, even if
  // tracing is re-enabled before they close.
  void Enable() { enabled_.store(true, std::memory_order_relaxed); }
  void Disable() { enabled_.store(false, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  // Capacity of rings created after this call (existing rings keep theirs).
  // Also applied from IMPELLER_TRACE_RING at first use. Minimum 16.
  void SetRingCapacity(size_t capacity);
  size_t ring_capacity() const {
    return ring_capacity_.load(std::memory_order_relaxed);
  }

  // Records one event into the calling thread's ring (oldest entry is
  // overwritten on wrap). tid/depth fields are filled in here.
  void RecordSpan(const char* category, const char* name, int64_t start_ns,
                  int64_t end_ns, uint32_t depth);
  void RecordInstant(const char* category, const char* name);

  // Moves every thread's buffered records out (oldest-first per thread) and
  // releases buffers of threads that have exited. Safe concurrently with
  // recording threads.
  std::vector<TraceRecord> Drain();

  // Total records overwritten before being drained, across all threads
  // (including threads that have since exited).
  uint64_t dropped() const { return dropped_.load(std::memory_order_relaxed); }

  // Current nesting depth of the calling thread (spans opened, not closed).
  static uint32_t CurrentDepth();

 private:
  struct ThreadBuffer {
    explicit ThreadBuffer(uint32_t tid_in, size_t capacity)
        : tid(tid_in), ring(capacity) {}

    std::mutex mu;
    uint32_t tid;
    std::vector<TraceRecord> ring;
    uint64_t written = 0;  // total ever written; ring slot = written % size
    uint64_t drained = 0;  // total ever handed out or overwritten
  };

  TraceCollector();

  ThreadBuffer* LocalBuffer();
  void Push(const TraceRecord& record);

  std::atomic<bool> enabled_{false};
  std::atomic<size_t> ring_capacity_;
  std::atomic<uint64_t> dropped_{0};
  std::atomic<uint32_t> next_tid_{1};

  std::mutex registry_mu_;
  std::vector<std::shared_ptr<ThreadBuffer>> buffers_;
};

// RAII span: samples the clock at construction and records on destruction.
// Inactive (and free apart from one atomic load) while tracing is disabled.
class SpanGuard {
 public:
  SpanGuard(const char* category, const char* name);
  ~SpanGuard();

  SpanGuard(const SpanGuard&) = delete;
  SpanGuard& operator=(const SpanGuard&) = delete;

 private:
  const char* category_;
  const char* name_;
  int64_t start_ns_ = 0;
  uint32_t depth_ = 0;
  bool active_ = false;
};

// A span that opens and closes in different calls, e.g. a commit that a
// cooperative task carries across several scheduler steps. Open() samples
// the clock when tracing is on; Close() records the span into the closing
// thread's ring. Compiled to no-ops with IMPELLER_TRACING off.
class StepSpan {
 public:
  void Open() {
#if defined(IMPELLER_TRACING_ENABLED)
    start_ns_ = TraceCollector::Get().enabled() ? TraceNowNs() : 0;
#endif
  }
  void Close(const char* category, const char* name) {
#if defined(IMPELLER_TRACING_ENABLED)
    if (start_ns_ != 0) {
      TraceCollector::Get().RecordSpan(category, name, start_ns_,
                                       TraceNowNs(),
                                       TraceCollector::CurrentDepth());
      start_ns_ = 0;
    }
#else
    (void)category;
    (void)name;
#endif
  }

 private:
  int64_t start_ns_ = 0;  // 0 = not open, or tracing was off at Open()
};

}  // namespace obs
}  // namespace impeller

#define IMPELLER_TRACE_CONCAT2(a, b) a##b
#define IMPELLER_TRACE_CONCAT(a, b) IMPELLER_TRACE_CONCAT2(a, b)

#if defined(IMPELLER_TRACING_ENABLED)
// Opens a span covering the rest of the enclosing scope.
#define TRACE_SPAN(category, name)                                      \
  ::impeller::obs::SpanGuard IMPELLER_TRACE_CONCAT(impeller_trace_span_, \
                                                   __LINE__)(category, name)
// Records a zero-duration event.
#define TRACE_INSTANT(category, name)                                 \
  do {                                                                \
    ::impeller::obs::TraceCollector::Get().RecordInstant(category,    \
                                                         name);       \
  } while (0)
#else
#define TRACE_SPAN(category, name) \
  do {                             \
  } while (0)
#define TRACE_INSTANT(category, name) \
  do {                                \
  } while (0)
#endif  // IMPELLER_TRACING_ENABLED

#endif  // IMPELLER_SRC_OBS_TRACE_H_
