// Output-side batching: pending log appends (output data records and
// change-log records) accumulate in memory and flush as one atomic batch
// append — the 128 KiB output buffer of paper §5.3. The buffer reports the
// first output / change-log LSN of each flush so the task can build the
// epoch ranges recorded in its progress markers.
//
// Zero-copy path: records are encoded directly into one contiguous flush
// buffer via StartRecord()/FinishRecord() — no per-record payload strings.
// At Flush() the buffer is sealed into a refcounted immutable string shared
// by every record's PayloadRef slice, so the log stores views into a single
// allocation per flush.
#ifndef IMPELLER_SRC_CORE_OUTPUT_BUFFER_H_
#define IMPELLER_SRC_CORE_OUTPUT_BUFFER_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/common/retry.h"
#include "src/common/serde.h"
#include "src/common/status.h"
#include "src/sharedlog/shared_log.h"

namespace impeller {

class OutputBuffer {
 public:
  // `retrier` (optional, unowned) absorbs transient kUnavailable append
  // failures; without one a transient failure propagates but the buffered
  // records survive for a later Flush.
  OutputBuffer(SharedLog* log, size_t capacity_bytes,
               Retrier* retrier = nullptr);

  enum class Kind { kOutput, kChangeLog };

  // Opens a record destined for `tag` and returns a writer positioned at the
  // tail of the contiguous flush buffer; the caller encodes the full payload
  // (envelope header + body) through it and then calls FinishRecord(). No
  // other OutputBuffer method may run between the two calls.
  BinaryWriter& StartRecord(Kind kind, std::string tag);
  void FinishRecord();

  bool NeedsFlush() const { return pending_bytes_ >= capacity_bytes_; }
  // Full framed payload bytes (envelope header + body), not just body size.
  size_t pending_bytes() const { return pending_bytes_; }
  size_t pending_records() const { return pending_.size(); }
  bool empty() const { return pending_.empty(); }

  struct FlushResult {
    Lsn first_output = kInvalidLsn;
    Lsn first_changelog = kInvalidLsn;
    size_t records = 0;
    TimeNs ack_at = 0;  // when the batch is durable; 0 if nothing flushed
  };

  // Admits all pending records as one batch and returns without waiting for
  // its ack: the records are durable at `ack_at`, which the caller holds as
  // state. A fenced conditional append propagates as kFenced with the
  // buffer dropped (the caller is a zombie and must stop); any other
  // failure keeps the buffer intact for retry.
  Result<FlushResult> Flush();

 private:
  struct PendingRecord {
    Kind kind;
    std::string tag;
    // The record is [off, off+len) of buffer_ until the epoch is sealed,
    // after which `sealed` pins the shared bytes.
    std::shared_ptr<const std::string> sealed;
    size_t off = 0;
    size_t len = 0;
  };

  // Moves buffer_ into a shared immutable string and pins it onto every
  // pending record still pointing into it.
  void SealBuffer();

  SharedLog* log_;
  size_t capacity_bytes_;
  Retrier* retrier_;
  std::vector<PendingRecord> pending_;
  std::string buffer_;    // contiguous encode buffer for the current epoch
  BinaryWriter writer_;   // append-mode writer bound to buffer_
  bool record_open_ = false;
  size_t pending_bytes_ = 0;
};

}  // namespace impeller

#endif  // IMPELLER_SRC_CORE_OUTPUT_BUFFER_H_
