#include "src/core/output_buffer.h"

#include <cassert>

namespace impeller {

OutputBuffer::OutputBuffer(SharedLog* log, size_t capacity_bytes,
                           Retrier* retrier)
    : log_(log),
      capacity_bytes_(capacity_bytes),
      retrier_(retrier),
      writer_(&buffer_) {}

BinaryWriter& OutputBuffer::StartRecord(Kind kind, std::string tag) {
  assert(!record_open_);
  record_open_ = true;
  PendingRecord rec;
  rec.kind = kind;
  rec.tag = std::move(tag);
  rec.off = buffer_.size();
  pending_.push_back(std::move(rec));
  return writer_;
}

void OutputBuffer::FinishRecord() {
  assert(record_open_);
  record_open_ = false;
  PendingRecord& rec = pending_.back();
  rec.len = buffer_.size() - rec.off;
  pending_bytes_ += rec.len;
}

void OutputBuffer::SealBuffer() {
  if (buffer_.empty()) {
    return;
  }
  auto sealed = std::make_shared<const std::string>(std::move(buffer_));
  buffer_.clear();
  for (PendingRecord& rec : pending_) {
    if (rec.sealed == nullptr) {
      rec.sealed = sealed;
    }
  }
}

Result<OutputBuffer::FlushResult> OutputBuffer::Flush() {
  assert(!record_open_);
  FlushResult result;
  if (pending_.empty()) {
    return result;
  }
  // Seal the epoch's contiguous buffer: one shared allocation now backs
  // every record encoded since the last flush (records surviving a failed
  // flush keep their earlier sealed buffers).
  SealBuffer();
  std::vector<AppendRequest> batch;
  batch.reserve(pending_.size());
  for (PendingRecord& rec : pending_) {
    AppendRequest req;
    req.tags.push_back(std::move(rec.tag));
    req.payload = PayloadRef(rec.sealed, rec.off, rec.len);
    batch.push_back(std::move(req));
  }
  auto admitted = retrier_ != nullptr
                      ? retrier_->Run("output_flush",
                                      [&] { return log_->AdmitBatch(batch); })
                      : log_->AdmitBatch(batch);
  if (!admitted.ok()) {
    if (admitted.status().code() == StatusCode::kFenced) {
      // A fenced flush means this task instance is a zombie: the buffered
      // records are dead weight, drop them and surface the error.
      pending_.clear();
      pending_bytes_ = 0;
    } else {
      // Transient failure (retries exhausted): keep the records buffered so
      // a later Flush re-issues the identical batch. The payload bytes stay
      // pinned by the sealed shared buffers; only the routing tags need to
      // move back.
      for (size_t i = 0; i < pending_.size(); ++i) {
        if (!batch[i].tags.empty()) {
          pending_[i].tag = std::move(batch[i].tags.front());
        }
      }
    }
    return admitted.status();
  }
  for (size_t i = 0; i < pending_.size(); ++i) {
    Lsn lsn = admitted->lsns[i];
    if (pending_[i].kind == Kind::kOutput) {
      if (result.first_output == kInvalidLsn) {
        result.first_output = lsn;
      }
    } else if (result.first_changelog == kInvalidLsn) {
      result.first_changelog = lsn;
    }
  }
  result.records = pending_.size();
  result.ack_at = admitted->ack_at;
  pending_.clear();
  pending_bytes_ = 0;
  return result;
}

}  // namespace impeller
