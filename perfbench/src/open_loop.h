// Open-loop NEXMark input for the benchmark. Event i is due at
// start + i * 1e9 / rate ns whatever the engine is doing; its content comes
// from NexmarkGenerator, whose clock reads the due time, and it carries the
// due time as its event time. A sender that falls behind sends late events
// with their original due time, so a stall shows up in measured latency
// instead of silently stretching the schedule.
#ifndef PERFBENCH_SRC_OPEN_LOOP_H_
#define PERFBENCH_SRC_OPEN_LOOP_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/clock.h"
#include "src/nexmark/generator.h"

namespace perfbench {

using impeller::TimeNs;

struct InputEvent {
  std::string stream;  // "persons", "auctions" or "bids"
  std::string key;
  std::string value;
  TimeNs due = 0;
};

class OpenLoopGenerator {
 public:
  // Events of streams outside `streams` are generated (so content does not
  // depend on which query runs) but not returned.
  OpenLoopGenerator(uint64_t seed, uint64_t events_per_sec, TimeNs start,
                    std::vector<std::string> streams);

  // Appends every not-yet-generated event due before `until`, in due order.
  void GenerateUntil(TimeNs until, std::vector<InputEvent>* out);

  // Events generated so far, including those of unselected streams.
  uint64_t generated() const { return next_; }

 private:
  TimeNs DueTime(uint64_t index) const;

  uint64_t events_per_sec_;
  TimeNs start_;
  std::vector<std::string> streams_;
  impeller::ManualClock due_clock_;
  impeller::NexmarkGenerator generator_;
  uint64_t next_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_OPEN_LOOP_H_
