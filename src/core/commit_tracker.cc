#include "src/core/commit_tracker.h"

#include "src/common/serde.h"
#include "src/obs/trace.h"

namespace impeller {

void CommitTracker::OnCommitEvent(std::string_view producer,
                                  uint64_t instance, Lsn commit_lsn) {
  // Marks when a consumer learns a producer's cut advanced — the moment
  // buffered kUnknown records become processable (§3.3.3).
  TRACE_INSTANT("protocol", "commit_event");
  auto it = cuts_.find(producer);
  if (it == cuts_.end()) {
    it = cuts_.emplace(std::string(producer), ProducerCut{}).first;
  }
  ProducerCut& cut = it->second;
  if (instance < cut.instance) {
    return;  // stale event from a superseded instance
  }
  cut.generation = ++generation_;
  if (instance > cut.instance) {
    cut.instance = instance;
    cut.committed_end = commit_lsn;
    return;
  }
  if (commit_lsn > cut.committed_end) {
    cut.committed_end = commit_lsn;
  }
}

bool CommitTracker::AllCommittedSince(uint64_t gen) const {
  bool any = false;
  for (const auto& [producer, cut] : cuts_) {
    if (retired_.count(producer) != 0) {
      continue;
    }
    if (cut.generation <= gen) {
      return false;
    }
    any = true;
  }
  return any;
}

CommitState CommitTracker::Classify(std::string_view producer,
                                    uint64_t instance, Lsn lsn) const {
  if (!read_committed_ || instance == kIngressInstance) {
    return CommitState::kCommitted;
  }
  auto it = cuts_.find(producer);
  if (it == cuts_.end()) {
    return CommitState::kUnknown;
  }
  const ProducerCut& cut = it->second;
  if (instance < cut.instance) {
    // Output of a superseded instance that was never committed before its
    // successor took over: permanently uncommitted.
    return CommitState::kDiscard;
  }
  if (instance > cut.instance) {
    // A restarted producer's output, not yet covered by any of its markers.
    return CommitState::kUnknown;
  }
  return lsn < cut.committed_end ? CommitState::kCommitted
                                 : CommitState::kUnknown;
}

bool CommitTracker::IsDuplicate(std::string_view substream_tag,
                                std::string_view producer, uint64_t instance,
                                uint64_t seq) {
  // With commit filtering on, instance/range checks already exclude replayed
  // outputs; sequence dedup is still needed for ingress producers (a
  // gateway retry can append the same event twice, §3.5).
  if (read_committed_ && instance != kIngressInstance) {
    return false;
  }
  key_scratch_.assign(substream_tag);
  key_scratch_ += '|';
  key_scratch_ += producer;
  auto it = max_seq_.find(key_scratch_);
  if (it == max_seq_.end()) {
    it = max_seq_.emplace(key_scratch_, 0).first;
  }
  uint64_t& max_seq = it->second;
  if (seq <= max_seq) {
    return true;
  }
  max_seq = seq;
  return false;
}

std::string CommitTracker::SerializeSeqMap() const {
  BinaryWriter w;
  w.WriteVarU64(max_seq_.size());
  for (const auto& [producer, seq] : max_seq_) {
    w.WriteString(producer);
    w.WriteVarU64(seq);
  }
  return w.Take();
}

Status CommitTracker::RestoreSeqMap(std::string_view raw) {
  max_seq_.clear();
  BinaryReader r(raw);
  IMPELLER_ASSIGN_OR_RETURN(uint64_t n, r.ReadVarU64());
  for (uint64_t i = 0; i < n; ++i) {
    IMPELLER_ASSIGN_OR_RETURN(std::string producer, r.ReadString());
    IMPELLER_ASSIGN_OR_RETURN(max_seq_[std::move(producer)], r.ReadVarU64());
  }
  return OkStatus();
}

}  // namespace impeller
