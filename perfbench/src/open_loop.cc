#include "src/open_loop.h"

#include <algorithm>
#include <utility>

#include "src/nexmark/events.h"

namespace perfbench {

using impeller::NexmarkGenerator;

OpenLoopGenerator::OpenLoopGenerator(uint64_t seed, uint64_t events_per_sec,
                                     TimeNs start,
                                     std::vector<std::string> streams)
    : events_per_sec_(events_per_sec),
      start_(start),
      streams_(std::move(streams)),
      due_clock_(start),
      generator_(impeller::NexmarkConfig{}, seed, &due_clock_) {}

TimeNs OpenLoopGenerator::DueTime(uint64_t index) const {
  return start_ + static_cast<TimeNs>(index * 1'000'000'000ull /
                                      events_per_sec_);
}

void OpenLoopGenerator::GenerateUntil(TimeNs until,
                                      std::vector<InputEvent>* out) {
  for (TimeNs due = DueTime(next_); due < until; due = DueTime(++next_)) {
    due_clock_.Set(due);
    NexmarkGenerator::Event event = generator_.Next();
    InputEvent in;
    switch (event.kind) {
      case NexmarkGenerator::Kind::kPerson:
        in.stream = "persons";
        break;
      case NexmarkGenerator::Kind::kAuction:
        in.stream = "auctions";
        break;
      case NexmarkGenerator::Kind::kBid:
        in.stream = "bids";
        break;
    }
    if (std::find(streams_.begin(), streams_.end(), in.stream) ==
        streams_.end()) {
      continue;
    }
    // Keys as NexmarkDriver routes them: persons and auctions by id, bids
    // by the auction they bid on.
    switch (event.kind) {
      case NexmarkGenerator::Kind::kPerson:
        in.key = std::to_string(event.person.id);
        in.value = impeller::EncodePerson(event.person);
        break;
      case NexmarkGenerator::Kind::kAuction:
        in.key = std::to_string(event.auction.id);
        in.value = impeller::EncodeAuction(event.auction);
        break;
      case NexmarkGenerator::Kind::kBid:
        in.key = std::to_string(event.bid.auction);
        in.value = impeller::EncodeBid(event.bid);
        break;
    }
    in.due = due;
    out->push_back(std::move(in));
  }
}

}  // namespace perfbench
