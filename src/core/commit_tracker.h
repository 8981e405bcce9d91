// Consumer-side commit filtering: the three-case algorithm of paper §3.3.3.
//
// A consuming task classifies each input record against the commit events
// (progress markers, or commit control records in the Kafka-txn baseline) it
// has seen from that record's producer:
//   * kCommitted — instance matches the producer's committed instance and
//     the LSN is below the committed end: safe to process;
//   * kDiscard   — the record comes from a superseded instance (a zombie or
//     a crashed predecessor) and can never be committed;
//   * kUnknown   — the record lies beyond the latest committed cut (or its
//     producer has not committed anything yet): buffer and wait.
//
// Within one instance a commit event at LSN L commits every record of that
// instance below L on the substream, so tracking (instance, committed end)
// per producer is equivalent to the paper's committed-range formulation
// while matching the compact marker encoding of §3.5.
//
// The tracker also implements the duplicate-append suppression of §3.5: a
// per-producer monotonically increasing sequence number, checked for ingress
// producers (which never restart) and, when commit filtering is disabled
// (aligned-checkpoint / unsafe baselines), for all producers.
#ifndef IMPELLER_SRC_CORE_COMMIT_TRACKER_H_
#define IMPELLER_SRC_CORE_COMMIT_TRACKER_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>

#include "src/common/status.h"
#include "src/core/record.h"
#include "src/sharedlog/log_record.h"

namespace impeller {

enum class CommitState { kCommitted, kDiscard, kUnknown };

// Producers with this instance number are ingress producers: their appends
// are committed by definition (the log made them durable) and they never
// restart. Task instances start at 1.
constexpr uint64_t kIngressInstance = 0;

class CommitTracker {
 public:
  explicit CommitTracker(bool read_committed)
      : read_committed_(read_committed) {}

  // Registers a commit event from `producer` whose record (marker / commit
  // control) sits at `commit_lsn`: commits all of instance's records below
  // that LSN. Events from older instances than the currently committed one
  // are ignored (a fenced zombie's stale marker cannot regress the cut —
  // though the conditional append already prevents it from being written).
  void OnCommitEvent(std::string_view producer, uint64_t instance,
                     Lsn commit_lsn);

  CommitState Classify(std::string_view producer, uint64_t instance,
                       Lsn lsn) const;
  CommitState Classify(const RecordHeader& header, Lsn lsn) const {
    return Classify(header.producer, header.instance, lsn);
  }

  // Commit waves: every commit event gets the next generation number, kept
  // as its producer's latest. A consumer records generation() when it
  // commits; AllCommittedSince(gen) then tells whether every producer seen
  // so far, retired ones aside, has committed again since (false while none
  // is known).
  uint64_t generation() const { return generation_; }
  bool AllCommittedSince(uint64_t gen) const;
  // Producers a scale-down retired: they never commit again, so waves stop
  // waiting for them. Their cuts still classify what they wrote.
  void SetRetired(std::set<std::string> producers) {
    retired_ = std::move(producers);
  }

  // Duplicate suppression: returns true when (substream, producer, seq) was
  // already accepted and the record must be dropped. Keyed per substream
  // because a producer's sequence numbers are only monotone within one
  // substream (its appends fan out across substreams). Call only for
  // records about to be processed.
  bool IsDuplicate(std::string_view substream_tag, std::string_view producer,
                   uint64_t instance, uint64_t seq);
  bool IsDuplicate(std::string_view substream_tag,
                   const RecordHeader& header) {
    return IsDuplicate(substream_tag, header.producer, header.instance,
                       header.seq);
  }

  // Snapshot/restore of the dedup map (part of aligned-checkpoint state).
  std::string SerializeSeqMap() const;
  Status RestoreSeqMap(std::string_view raw);

  bool read_committed() const { return read_committed_; }

 private:
  struct ProducerCut {
    uint64_t instance = 0;
    Lsn committed_end = 0;  // exclusive
    uint64_t generation = 0;  // of the latest commit event
  };

  bool read_committed_;
  // std::less<> for heterogeneous lookup: the hot path probes with
  // string_view producers decoded in place from log payloads.
  std::map<std::string, ProducerCut, std::less<>> cuts_;
  std::set<std::string> retired_;
  uint64_t generation_ = 0;
  // "(substream tag)|(producer)" -> highest accepted sequence number.
  std::map<std::string, uint64_t, std::less<>> max_seq_;
  // Reused dedup-key scratch: IsDuplicate builds its composite key here so
  // steady-state lookups allocate nothing once the capacity is warm.
  std::string key_scratch_;
};

}  // namespace impeller

#endif  // IMPELLER_SRC_CORE_COMMIT_TRACKER_H_
