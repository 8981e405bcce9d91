// Unit checks for the benchmark's own parts:
//  - the open-loop generator emits exactly rate x duration events for a
//    seed, with non-decreasing due times, and the same seed gives the same
//    events;
//  - the committed-output oracle flags an injected duplicate and a dropped
//    record, for both its multiset (Q1/Q8) and window-final (Q5) forms;
//  - histogram percentiles are interpolated inside their bucket.
//
//   perfbench_check --seed <n>      exit status 0 when every check passes
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "src/common/serde.h"
#include "src/layers.h"
#include "src/open_loop.h"
#include "src/oracle.h"

namespace perfbench {
namespace {

int failures = 0;

void Expect(bool ok, const std::string& what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
    ++failures;
  }
}

void CheckGenerator(uint64_t seed) {
  constexpr uint64_t kRate = 16000;
  constexpr TimeNs kStart = 5 * impeller::kSecond;
  constexpr TimeNs kDuration = 3 * impeller::kSecond / 2;
  const std::vector<std::string> all = {"persons", "auctions", "bids"};

  OpenLoopGenerator gen(seed, kRate, kStart, all);
  std::vector<InputEvent> events;
  // Uneven slices, as a sender that runs late would ask for them.
  for (TimeNs until = kStart; until < kStart + kDuration;
       until += 7 * impeller::kMillisecond) {
    gen.GenerateUntil(until, &events);
  }
  gen.GenerateUntil(kStart + kDuration, &events);
  Expect(events.size() == kRate * kDuration / impeller::kSecond,
         "generator emitted " + std::to_string(events.size()) +
             " events, want rate x duration");
  bool ordered = true;
  for (size_t i = 0; i < events.size(); ++i) {
    ordered = ordered && events[i].due >= kStart &&
              events[i].due < kStart + kDuration &&
              (i == 0 || events[i].due >= events[i - 1].due);
  }
  Expect(ordered, "due times must be non-decreasing and inside the run");

  OpenLoopGenerator again(seed, kRate, kStart, all);
  std::vector<InputEvent> replay;
  again.GenerateUntil(kStart + kDuration, &replay);
  bool same = replay.size() == events.size();
  for (size_t i = 0; same && i < events.size(); ++i) {
    same = replay[i].key == events[i].key &&
           replay[i].value == events[i].value && replay[i].due == events[i].due;
  }
  Expect(same, "the same seed must give the same events");

  // Only the selected streams come out, from the same schedule.
  OpenLoopGenerator q8(seed, kRate, kStart, {"persons", "auctions"});
  std::vector<InputEvent> q8_events;
  q8.GenerateUntil(kStart + kDuration, &q8_events);
  size_t want = 0;
  for (const auto& e : events) {
    want += e.stream != "bids" ? 1 : 0;
  }
  Expect(q8_events.size() == want && q8.generated() == events.size(),
         "stream filter must drop bids without changing the schedule");
}

void CheckMultisetOracle() {
  Committed reference;
  for (int i = 0; i < 50; ++i) {
    reference.push_back(
        {0, std::to_string(i % 7), std::to_string(i * 31), 1000 + i});
  }
  Committed live(reference.rbegin(), reference.rend());  // order is free
  for (int query : {1, 8}) {
    Expect(Compare(query, live, reference).errors() == 0,
           "reordered output must match");
    Committed dup = live;
    dup.push_back(live[3]);
    Mismatch m = Compare(query, dup, reference);
    Expect(m.extra == 1 && m.missing == 0, "duplicate must count as extra");
    Committed dropped(live.begin() + 1, live.end());
    m = Compare(query, dropped, reference);
    Expect(m.missing == 1 && m.extra == 0, "drop must count as missing");
    Expect(SelfTest(query, live).empty(),
           "multiset self-test must pass on matching output");
  }
}

std::string Q5Value(int64_t start, const std::string& auction,
                    uint64_t count) {
  impeller::BinaryWriter w;
  w.WriteVarI64(start);
  w.WriteString(auction);
  w.WriteVarU64(count);
  return w.Take();
}

void CheckWindowOracle() {
  // Two windows on two substreams; the live run saw different intermediate
  // updates (a tie broken the other way, a final count committed twice) but
  // the same final counts.
  Committed reference = {{0, "0", Q5Value(0, "a", 3), 10},
                         {0, "0", Q5Value(0, "a", 9), 20},
                         {1, "2000", Q5Value(2000, "b", 4), 30},
                         {1, "2000", Q5Value(2000, "c", 7), 40}};
  Committed live = {{1, "2000", Q5Value(2000, "b", 4), 31},
                    {0, "0", Q5Value(0, "a", 5), 12},
                    {0, "0", Q5Value(0, "d", 9), 22},
                    {0, "0", Q5Value(0, "d", 9), 23},
                    {1, "2000", Q5Value(2000, "e", 7), 41}};
  Expect(Compare(5, live, reference).errors() == 0,
         "same final window counts must match");
  Committed stale = live;
  stale.push_back(live[1]);  // count 5 again after 9
  Expect(Compare(5, stale, reference).errors() > 0,
         "a stale update committed again must be flagged");
  Committed dropped = live;
  dropped.pop_back();  // window 2000 ends at 4, not 7
  Expect(Compare(5, dropped, reference).errors() > 0,
         "a dropped final update must be flagged");
  Expect(SelfTest(5, live).empty(),
         "window self-test must pass on matching output");
}

void CheckInterpolatedPercentile() {
  // 10,000 samples spread evenly over 100-140 ms, where a histogram bucket
  // is 4-8 ms wide. Inside buckets the samples fill completely, the
  // interpolated percentile is within a few samples of the exact one, and
  // neighbouring percentiles differ instead of sharing a midpoint.
  impeller::LatencyHistogram h;
  constexpr int64_t kLow = 100 * impeller::kMillisecond;
  constexpr int64_t kStep = 4000;
  for (int64_t i = 0; i < 10000; ++i) {
    h.Record(kLow + i * kStep);
  }
  double previous = 0;
  for (double p : {25.0, 49.0, 50.0, 51.0, 75.0}) {
    double want = kLow + (p / 100.0 * 10000 - 1) * kStep;
    double got = InterpolatedPercentile(h, p);
    Expect(std::fabs(got - want) < 5 * kStep && got > previous,
           "p" + std::to_string(p) + " interpolated to " +
               std::to_string(got) + " ns, want about " +
               std::to_string(want));
    previous = got;
  }
  impeller::LatencyHistogram one;
  one.Record(7);
  Expect(InterpolatedPercentile(one, 50) >= 7 &&
             InterpolatedPercentile(one, 50) < 8,
         "a single small sample stays in its one-value bucket");
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  uint64_t seed = 1;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strcmp(argv[i], "--seed") == 0) {
      seed = std::strtoull(argv[i + 1], nullptr, 10);
    }
  }
  perfbench::CheckGenerator(seed);
  perfbench::CheckMultisetOracle();
  perfbench::CheckWindowOracle();
  perfbench::CheckInterpolatedPercentile();
  if (perfbench::failures > 0) {
    return 1;
  }
  std::printf("perfbench_check: all checks passed (seed %llu)\n",
              static_cast<unsigned long long>(seed));
  return 0;
}
