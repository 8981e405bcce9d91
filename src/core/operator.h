// Stream operator interface (paper §2.1, §4). A stage executes a chain of
// operators; the first operator in a chain may consume multiple input
// streams (joins), every other operator consumes its predecessor's output.
// Operators access keyed state exclusively through MapStateStore, which
// captures every mutation into the task's change log (§3.3.3).
#ifndef IMPELLER_SRC_CORE_OPERATOR_H_
#define IMPELLER_SRC_CORE_OPERATOR_H_

#include <functional>
#include <memory>
#include <string>
#include <string_view>

#include "src/common/clock.h"
#include "src/common/metrics.h"
#include "src/core/state_store.h"

namespace impeller {

// A record flowing between operators: a partitioning key, an opaque value
// (the application's serialization), and the originating event time used
// for end-to-end latency measurement (§5.3).
struct StreamRecord {
  std::string key;
  std::string value;
  TimeNs event_time = 0;
};

// Receives operator output. EmitTo routes to one of the stage's output
// streams (Branch); plain Emit targets output 0.
class Collector {
 public:
  virtual ~Collector() = default;
  virtual void EmitTo(uint32_t output, StreamRecord record) = 0;
  void Emit(StreamRecord record) { EmitTo(0, std::move(record)); }
};

// Facilities a task exposes to its operators.
class OperatorContext {
 public:
  virtual ~OperatorContext() = default;

  // Returns (creating on first use) a named state store whose mutations are
  // captured into the task's change log.
  virtual MapStateStore* GetStore(std::string_view name) = 0;

  virtual Clock* clock() = 0;
  virtual const std::string& task_id() const = 0;
  virtual uint32_t task_index() const = 0;
  virtual MetricsRegistry* metrics() = 0;

  // Largest event time observed by this task; watermark basis for
  // event-time windows.
  virtual TimeNs max_event_time() const = 0;
};

class Operator {
 public:
  virtual ~Operator() = default;

  // Called once before any Process; the context outlives the operator.
  virtual void Open(OperatorContext* ctx) {}

  // `input` is the index of the stage input stream the record arrived on
  // (always 0 for non-head operators).
  virtual void Process(uint32_t input, StreamRecord record,
                       Collector* out) = 0;

  // Invoked periodically (EngineConfig::timer_interval); window triggers and
  // state expiry live here.
  virtual void OnTimer(TimeNs now, Collector* out) {}

  // Invoked at the start of every commit, before the epoch's outputs are
  // flushed, so whatever the operator emits here commits together with the
  // state changes behind it. Eager windows flush their dirty panes here.
  virtual void OnCommit(Collector* out) {}

  virtual bool IsStateful() const { return false; }
};

using OperatorFactory = std::function<std::unique_ptr<Operator>()>;

}  // namespace impeller

#endif  // IMPELLER_SRC_CORE_OPERATOR_H_
