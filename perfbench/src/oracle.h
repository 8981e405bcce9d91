// Committed-output oracle: compares what read-committed egress consumers
// returned against a reference computation of the same recorded input.
//
// Q1 output is a deterministic function of the input, so the check is
// multiset equality on (key, value, event time). Q8 counts join results per
// person in arrival order, and a seller's auctions reach the join from
// several upstream tasks, so which count pairs with which event time varies
// run to run; its check is multiset equality of (key, value) and of (key,
// event time) taken separately. Q5's per-window max
// stage emits one update per upstream count flush, and those flushes follow
// wall-clock suppression timers, so the update stream itself differs run to
// run; what must match is each window's final count (the hottest auction's
// bid count). A stale update committed again after a newer one shows up as
// the window's running max going down within its egress substream.
#ifndef PERFBENCH_SRC_ORACLE_H_
#define PERFBENCH_SRC_ORACLE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/open_loop.h"

namespace perfbench {

struct CommittedRecord {
  uint32_t substream = 0;
  std::string key;
  std::string value;
  TimeNs event_time = 0;
};

using Committed = std::vector<CommittedRecord>;

struct Mismatch {
  uint64_t missing = 0;    // reference records (Q5: windows) not matched
  uint64_t extra = 0;      // live records the reference does not have
  uint64_t reference = 0;  // records (Q5: windows) in the reference
  uint64_t errors() const { return missing + extra; }
};

// Q1's reference: every sent bid through the query's own filter and map.
Committed ConvertedBids(const std::vector<InputEvent>& sent);

Mismatch Compare(int query, const Committed& live, const Committed& reference);

// Checks that Compare, taking `live` itself as the reference, flags an
// injected duplicate and a dropped record in a copy of it. Returns "" on
// success, else which injection went unflagged.
std::string SelfTest(int query, const Committed& live);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_ORACLE_H_
