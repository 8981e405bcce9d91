// Input-side machinery for one input substream of a task: a cursor into the
// shared log plus the buffering algorithm of paper §3.3.3.
//
// Records are consumed strictly in LSN order per substream. Data records are
// classified against the CommitTracker; the queue head blocks on the first
// kUnknown record until a later commit event (progress marker / txn commit
// record) resolves it. Control records — markers, txn controls, checkpoint
// barriers — take effect immediately upon being read, since they are what
// move classification forward.
//
// Zero-copy: a record handed out (or buffered behind an unknown head) keeps
// the refcounted log payload (PayloadRef) and decodes header/body fields as
// in-place views over it — no per-record field strings. The views stay valid
// for as long as the ReadyRecord/BufferedEntry holding the PayloadRef lives.
#ifndef IMPELLER_SRC_CORE_SUBSTREAM_READER_H_
#define IMPELLER_SRC_CORE_SUBSTREAM_READER_H_

#include <deque>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "src/common/metrics.h"
#include "src/core/commit_tracker.h"
#include "src/core/marker.h"
#include "src/core/record.h"
#include "src/sharedlog/shared_log.h"

namespace impeller {

// A committed, deduplicated data record ready for operator processing.
// `header`/`data` fields are views into `payload`'s shared buffer.
struct ReadyRecord {
  uint32_t input = 0;
  Lsn lsn = kInvalidLsn;
  PayloadRef payload;
  EnvelopeView header;
  DataView data;
};

class SubstreamReader {
 public:
  struct Hooks {
    // Aligned-checkpoint barrier observed at `lsn` (already in substream
    // order relative to the producer's data records). The envelope view is
    // only valid for the duration of the callback.
    std::function<void(uint32_t input, const EnvelopeView&,
                       const BarrierBody&, Lsn lsn)>
        on_barrier;
  };

  SubstreamReader(SharedLog* log, std::string tag, uint32_t input_index,
                  CommitTracker* tracker, Lsn start_lsn);

  // Pulls up to `max_new` log entries and drains every classifiable record
  // into `out` (in substream order). Returns the number of new log entries
  // consumed. Decoding failures and trimmed cursors surface as errors.
  Result<size_t> Poll(size_t max_new, std::vector<ReadyRecord>* out,
                      const Hooks& hooks);

  const std::string& tag() const { return tag_; }
  uint32_t input_index() const { return input_index_; }

  // Cursor of the next unread log position.
  Lsn next_lsn() const { return next_lsn_; }
  void ResetCursor(Lsn lsn);

  // Recovery: repositions the cursor and seeds the committed floor from the
  // last progress marker's recorded input end (so an idle task's next
  // marker does not regress its input range).
  void Restore(Lsn next_lsn, Lsn floor);

  // LSN of the last fully handled input record: everything at or below it
  // has been processed, discarded, or was a control record. This is what a
  // progress marker records as the input range end (§3.3.1). kInvalidLsn
  // until anything was handled.
  Lsn committed_floor() const { return committed_floor_; }

  size_t buffered() const { return buffer_.size(); }

 private:
  struct BufferedEntry {
    Lsn lsn;
    PayloadRef payload;  // pins the views below
    EnvelopeView header;
    DataView data;
    bool committed = false;  // covered by a commit event of its instance
  };

  // Classifies and pops buffered records from the head.
  void Drain(std::vector<ReadyRecord>* out);
  // A commit event commits its instance's buffered records below it now:
  // held back behind another producer's unknown head until the producer's
  // successor has committed too, they would read as superseded and drop.
  void MarkCommitted(std::string_view producer, uint64_t instance, Lsn lsn);
  void HandleEntry(LogEntry entry, const EnvelopeView& env,
                   std::vector<ReadyRecord>* out, const Hooks& hooks);

  SharedLog* log_;
  std::string tag_;
  uint32_t input_index_;
  CommitTracker* tracker_;
  Lsn next_lsn_;
  Lsn committed_floor_ = kInvalidLsn;
  std::deque<BufferedEntry> buffer_;
};

}  // namespace impeller

#endif  // IMPELLER_SRC_CORE_SUBSTREAM_READER_H_
