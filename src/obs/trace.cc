#include "src/obs/trace.h"

#include <algorithm>
#include <cstdlib>

namespace impeller {
namespace obs {

namespace {

constexpr size_t kDefaultRingCapacity = 8192;
constexpr size_t kMinRingCapacity = 16;

// Nesting depth of the calling thread. Owned here rather than inside the
// ThreadBuffer so that SpanGuard never touches the buffer (or its mutex)
// before a record is actually committed.
thread_local uint32_t tls_depth = 0;

}  // namespace

TraceCollector::TraceCollector() : ring_capacity_(kDefaultRingCapacity) {
  if (const char* env = std::getenv("IMPELLER_TRACE_RING")) {
    long v = std::atol(env);
    if (v > 0) {
      SetRingCapacity(static_cast<size_t>(v));
    }
  }
}

TraceCollector& TraceCollector::Get() {
  static TraceCollector* collector = new TraceCollector();  // never destroyed
  return *collector;
}

void TraceCollector::SetRingCapacity(size_t capacity) {
  ring_capacity_.store(std::max(capacity, kMinRingCapacity),
                       std::memory_order_relaxed);
}

uint32_t TraceCollector::CurrentDepth() { return tls_depth; }

TraceCollector::ThreadBuffer* TraceCollector::LocalBuffer() {
  // The thread_local shared_ptr keeps the buffer alive for the thread's
  // lifetime; the registry holds the second reference so records written by
  // exited threads survive until the next Drain.
  thread_local std::shared_ptr<ThreadBuffer> tls_buffer;
  if (tls_buffer == nullptr) {
    tls_buffer = std::make_shared<ThreadBuffer>(
        next_tid_.fetch_add(1, std::memory_order_relaxed), ring_capacity());
    std::lock_guard<std::mutex> lock(registry_mu_);
    buffers_.push_back(tls_buffer);
  }
  return tls_buffer.get();
}

void TraceCollector::Push(const TraceRecord& record) {
  ThreadBuffer* buffer = LocalBuffer();
  std::lock_guard<std::mutex> lock(buffer->mu);
  if (buffer->written - buffer->drained == buffer->ring.size()) {
    // Ring full: the oldest undrained record is overwritten and lost.
    buffer->drained++;
    dropped_.fetch_add(1, std::memory_order_relaxed);
  }
  TraceRecord& slot = buffer->ring[buffer->written % buffer->ring.size()];
  slot = record;
  slot.tid = buffer->tid;
  buffer->written++;
}

void TraceCollector::RecordSpan(const char* category, const char* name,
                                int64_t start_ns, int64_t end_ns,
                                uint32_t depth) {
  TraceRecord record;
  record.category = category;
  record.name = name;
  record.start_ns = start_ns;
  record.end_ns = end_ns;
  record.depth = depth;
  Push(record);
}

void TraceCollector::RecordInstant(const char* category, const char* name) {
  if (!enabled()) {
    return;
  }
  TraceRecord record;
  record.category = category;
  record.name = name;
  record.start_ns = record.end_ns = TraceNowNs();
  record.depth = tls_depth;
  record.instant = true;
  Push(record);
}

std::vector<TraceRecord> TraceCollector::Drain() {
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
  {
    std::lock_guard<std::mutex> lock(registry_mu_);
    buffers = buffers_;
  }
  std::vector<TraceRecord> out;
  std::vector<const ThreadBuffer*> exited;
  for (const auto& buffer : buffers) {
    std::lock_guard<std::mutex> lock(buffer->mu);
    // Registry + local copy are the only references once the thread's
    // thread_local has gone, so the thread has exited. Deciding that under
    // the lock this drain holds means nothing can be written after it.
    if (buffer.use_count() == 2) {
      exited.push_back(buffer.get());
    }
    for (uint64_t i = buffer->drained; i < buffer->written; ++i) {
      out.push_back(buffer->ring[i % buffer->ring.size()]);
    }
    buffer->drained = buffer->written;
  }
  if (!exited.empty()) {
    // Release the exited threads' buffers; their records were just taken.
    std::lock_guard<std::mutex> lock(registry_mu_);
    std::erase_if(buffers_, [&](const std::shared_ptr<ThreadBuffer>& b) {
      return std::find(exited.begin(), exited.end(), b.get()) !=
             exited.end();
    });
  }
  return out;
}

SpanGuard::SpanGuard(const char* category, const char* name)
    : category_(category), name_(name) {
  if (!TraceCollector::Get().enabled()) {
    return;
  }
  active_ = true;
  depth_ = tls_depth++;
  start_ns_ = TraceNowNs();
}

SpanGuard::~SpanGuard() {
  if (!active_) {
    return;
  }
  int64_t end_ns = TraceNowNs();
  tls_depth--;
  TraceCollector::Get().RecordSpan(category_, name_, start_ns_, end_ns,
                                   depth_);
}

}  // namespace obs
}  // namespace impeller
