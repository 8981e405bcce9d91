#include "src/core/substream_reader.h"

#include "src/common/logging.h"

namespace impeller {

SubstreamReader::SubstreamReader(SharedLog* log, std::string tag,
                                 uint32_t input_index, CommitTracker* tracker,
                                 Lsn start_lsn)
    : log_(log),
      tag_(std::move(tag)),
      input_index_(input_index),
      tracker_(tracker),
      next_lsn_(start_lsn) {}

void SubstreamReader::ResetCursor(Lsn lsn) {
  next_lsn_ = lsn;
  buffer_.clear();
}

void SubstreamReader::Restore(Lsn next_lsn, Lsn floor) {
  ResetCursor(next_lsn);
  committed_floor_ = floor;
}

void SubstreamReader::Drain(std::vector<ReadyRecord>* out) {
  while (!buffer_.empty()) {
    BufferedEntry& head = buffer_.front();
    CommitState state =
        head.committed ? CommitState::kCommitted
                       : tracker_->Classify(head.header.producer,
                                            head.header.instance, head.lsn);
    if (state == CommitState::kUnknown) {
      return;  // wait for a later commit event (paper §3.3.3, case 3)
    }
    committed_floor_ = head.lsn;
    if (state == CommitState::kCommitted &&
        !tracker_->IsDuplicate(tag_, head.header.producer,
                               head.header.instance, head.header.seq)) {
      ReadyRecord ready;
      ready.input = input_index_;
      ready.lsn = head.lsn;
      // The views stay valid across the move: they point into the shared
      // buffer the PayloadRef pins, not into the BufferedEntry itself.
      ready.payload = std::move(head.payload);
      ready.header = head.header;
      ready.data = head.data;
      out->push_back(std::move(ready));
    }
    buffer_.pop_front();
  }
}

void SubstreamReader::MarkCommitted(std::string_view producer,
                                    uint64_t instance, Lsn lsn) {
  for (BufferedEntry& e : buffer_) {
    if (e.lsn < lsn && e.header.instance == instance &&
        e.header.producer == producer) {
      e.committed = true;
    }
  }
}

void SubstreamReader::HandleEntry(LogEntry entry, const EnvelopeView& env,
                                  std::vector<ReadyRecord>* out,
                                  const Hooks& hooks) {
  switch (env.type) {
    case RecordType::kProgressMarker: {
      tracker_->OnCommitEvent(env.producer, env.instance, entry.lsn);
      MarkCommitted(env.producer, env.instance, entry.lsn);
      if (buffer_.empty()) {
        committed_floor_ = entry.lsn;
      }
      Drain(out);
      return;
    }
    case RecordType::kTxnControl: {
      auto body = DecodeTxnControlBody(env.body);
      if (body.ok() && body->kind == TxnControlKind::kCommit) {
        tracker_->OnCommitEvent(env.producer, env.instance, entry.lsn);
        MarkCommitted(env.producer, env.instance, entry.lsn);
        Drain(out);
      }
      if (buffer_.empty()) {
        committed_floor_ = entry.lsn;
      }
      return;
    }
    case RecordType::kBarrier: {
      auto body = DecodeBarrierBody(env.body);
      if (body.ok() && hooks.on_barrier) {
        hooks.on_barrier(input_index_, env, *body, entry.lsn);
      }
      if (buffer_.empty()) {
        committed_floor_ = entry.lsn;
      }
      return;
    }
    case RecordType::kData: {
      auto data = DecodeDataView(env.body);
      if (!data.ok()) {
        LOG_ERROR << "corrupt data record at lsn " << entry.lsn << " on "
                  << tag_ << ": " << data.status().ToString();
        return;
      }
      if (!buffer_.empty()) {
        // Preserve substream FIFO order behind an unknown head.
        buffer_.push_back({entry.lsn, std::move(entry.payload), env, *data});
        return;
      }
      CommitState state =
          tracker_->Classify(env.producer, env.instance, entry.lsn);
      if (state == CommitState::kUnknown) {
        buffer_.push_back({entry.lsn, std::move(entry.payload), env, *data});
        return;
      }
      committed_floor_ = entry.lsn;
      if (state == CommitState::kCommitted &&
          !tracker_->IsDuplicate(tag_, env.producer, env.instance, env.seq)) {
        ReadyRecord ready;
        ready.input = input_index_;
        ready.lsn = entry.lsn;
        ready.payload = std::move(entry.payload);
        ready.header = env;
        ready.data = *data;
        out->push_back(std::move(ready));
      }
      return;
    }
    case RecordType::kChangeLog:
      // Change-log records carry only the (C, task) tag and are never read
      // through data substreams; seeing one here means a tagging bug.
      LOG_ERROR << "change-log record on data substream " << tag_;
      return;
  }
}

Result<size_t> SubstreamReader::Poll(size_t max_new,
                                     std::vector<ReadyRecord>* out,
                                     const Hooks& hooks) {
  size_t consumed = 0;
  while (consumed < max_new) {
    auto entry = log_->ReadNext(tag_, next_lsn_);
    if (!entry.ok()) {
      if (entry.status().code() == StatusCode::kNotFound) {
        break;  // caught up
      }
      return entry.status();  // kTrimmed or internal errors propagate
    }
    if (entry->lsn < next_lsn_) {
      // Redelivered duplicate below the cursor (fault-injected lost-ack
      // refetch). The record was already handled; in read-committed mode it
      // would not pass the seq-dedup filter again, so drop it here for all
      // modes. Counts toward `consumed` to keep the poll loop bounded.
      ++consumed;
      continue;
    }
    next_lsn_ = entry->lsn + 1;
    ++consumed;
    // Decode in place over the refcounted log payload: no byte copies on
    // the hot path, only a refcount bump when the record is kept.
    auto env = DecodeEnvelopeView(entry->payload.view());
    if (!env.ok()) {
      LOG_ERROR << "corrupt envelope at lsn " << entry->lsn << " on " << tag_;
      continue;
    }
    HandleEntry(std::move(*entry), *env, out, hooks);
  }
  return consumed;
}

}  // namespace impeller
