// Aligned checkpointing (Flink-style, paper §5.1): the barrier coordinator
// injects numbered barriers into every ingress substream; a task aligns
// them across its input channels — holding back records from channels whose
// barrier already arrived — then flushes, snapshots its state synchronously
// to the checkpoint store, forwards the barrier downstream and acknowledges.
// Recovery restores the latest globally completed checkpoint.
#include <deque>
#include <set>

#include "src/common/logging.h"
#include "src/common/serde.h"
#include "src/core/checkpoint.h"
#include "src/core/commit_protocol.h"
#include "src/core/stream.h"
#include "src/core/task_runtime.h"

namespace impeller {

namespace {

std::string SnapshotKey(std::string_view task_id, uint64_t ckpt_id) {
  return "actl/" + std::string(task_id) + "/" + std::to_string(ckpt_id);
}

class AlignedCheckpoint final : public CommitProtocol {
 public:
  AlignedCheckpoint(TaskRuntime& task, BarrierCoordinator* coordinator)
      : CommitProtocol(task), coordinator_(coordinator) {}

  Status Recover() override;
  Result<size_t> Read(size_t slot, SubstreamReader& reader,
                      std::vector<ReadyRecord>& ready) override;

 private:
  // Processes a record unless its channel is blocked by an alignment.
  void Admit(size_t slot, ReadyRecord record);
  void OnBarrier(size_t slot, const std::string& producer,
                 uint64_t checkpoint_id, Lsn lsn);
  Status CompleteAlignment();
  // Ends an alignment (completed or abandoned): unblocks every channel and
  // processes what was held back.
  void Unblock();

  BarrierCoordinator* coordinator_;
  // Per reader slot: barriers one checkpoint takes (one per producer task,
  // or the coordinator's one on ingress), and whether it is ingress.
  std::vector<uint32_t> expected_;
  std::vector<bool> external_;
  struct PendingBarrier {
    size_t position;  // index into the poll's records the barrier precedes
    std::string producer;
    uint64_t checkpoint_id;
    Lsn lsn;
  };
  std::vector<PendingBarrier> pending_;

  uint64_t last_completed_ = 0;
  uint64_t align_id_ = 0;  // 0 = no alignment in progress
  std::vector<uint32_t> arrived_;
  std::vector<Lsn> cursor_snapshot_;
  std::set<std::pair<size_t, std::string>> blocked_;
  std::deque<std::pair<size_t, ReadyRecord>> sidelined_;
};

Status AlignedCheckpoint::Recover() {
  const TaskWiring& w = task_.wiring();
  for (const auto& reader : task_.readers()) {
    const std::string& stream = w.stage->inputs[reader->input_index()];
    external_.push_back(w.plan->streams.at(stream).external);
    expected_.push_back(external_.back() ? 1 : static_cast<uint32_t>(
        w.plan->ProducersOf(stream).size()));
  }
  auto id = BarrierCoordinator::ReadCompletedId(w.checkpoint_store,
                                                w.plan->name);
  // A checkpoint completed after a rescale supersedes its handoff: that
  // snapshot (state + cursors + out_seq) is the newer recovery point.
  const auto& handoff = w.direct_handoff;
  if (handoff != nullptr &&
      (!id.ok() || *id <= handoff->completed_ckpt_at_handoff)) {
    last_completed_ = handoff->completed_ckpt_at_handoff;
    return RestoreDirectHandoff();
  }
  if (!id.ok()) {
    return OkStatus();  // no completed checkpoint: fresh start
  }
  auto blob = w.checkpoint_store->Get(SnapshotKey(task_.task_id(), *id));
  if (!blob.ok()) {
    return OkStatus();  // this task never participated in that checkpoint
  }
  IMPELLER_ASSIGN_OR_RETURN(auto sections, DecodeSnapshot(*blob));
  IMPELLER_RETURN_IF_ERROR(RestoreSnapshot(sections, nullptr, true));
  last_completed_ = *id;
  task_.recovery().performed = true;
  task_.recovery().used_checkpoint = true;
  return OkStatus();
}

Result<size_t> AlignedCheckpoint::Read(size_t slot, SubstreamReader& reader,
                                       std::vector<ReadyRecord>& ready) {
  pending_.clear();
  SubstreamReader::Hooks hooks;
  hooks.on_barrier = [this, &ready](uint32_t, const EnvelopeView& h,
                                    const BarrierBody& b, Lsn lsn) {
    pending_.push_back(
        {ready.size(), std::string(h.producer), b.checkpoint_id, lsn});
  };
  IMPELLER_ASSIGN_OR_RETURN(
      size_t n, reader.Poll(TaskRuntime::kMaxRecordsPerPoll, &ready, hooks));
  // Apply barriers interleaved with the records in the order they appeared
  // on the substream.
  size_t next = 0;
  for (size_t i = 0; i <= ready.size(); ++i) {
    while (next < pending_.size() && pending_[next].position <= i) {
      const PendingBarrier& pb = pending_[next++];
      OnBarrier(slot, pb.producer, pb.checkpoint_id, pb.lsn);
    }
    if (i < ready.size()) {
      Admit(slot, std::move(ready[i]));
    }
  }
  return n;
}

void AlignedCheckpoint::Admit(size_t slot, ReadyRecord record) {
  // Only checked while an alignment is in progress, so materializing the
  // producer key is off the steady-state path.
  if (align_id_ != 0 &&
      (blocked_.count({slot, "*"}) != 0 ||
       blocked_.count({slot, std::string(record.header.producer)}) != 0)) {
    sidelined_.emplace_back(slot, std::move(record));
    return;
  }
  task_.ProcessReady(slot, std::move(record));
}

void AlignedCheckpoint::Unblock() {
  align_id_ = 0;
  blocked_.clear();
  auto pending = std::move(sidelined_);
  sidelined_.clear();
  for (auto& [slot, record] : pending) {
    Admit(slot, std::move(record));
  }
}

void AlignedCheckpoint::OnBarrier(size_t slot, const std::string& producer,
                                  uint64_t checkpoint_id, Lsn lsn) {
  TRACE_INSTANT("protocol", "barrier");
  if (checkpoint_id <= last_completed_) {
    return;  // stale barrier from before our recovery point
  }
  if (align_id_ != 0 && checkpoint_id != align_id_) {
    // The coordinator abandoned the previous round; unblock and restart.
    LOG_WARN << task_.task_id() << ": abandoning checkpoint " << align_id_
             << " for " << checkpoint_id;
    Unblock();
  }
  const size_t readers = task_.readers().size();
  if (align_id_ == 0) {
    align_id_ = checkpoint_id;
    arrived_.assign(readers, 0);
    cursor_snapshot_.assign(readers, kInvalidLsn);
  }
  if (cursor_snapshot_[slot] == kInvalidLsn) {
    cursor_snapshot_[slot] = lsn + 1;
  }
  blocked_.insert({slot, external_[slot] ? std::string("*") : producer});
  arrived_[slot]++;
  for (size_t i = 0; i < readers; ++i) {
    if (arrived_[i] < expected_[i]) {
      return;
    }
  }
  Status st = CompleteAlignment();
  if (!st.ok()) {
    LOG_WARN << task_.task_id() << ": checkpoint " << align_id_
             << " failed: " << st.ToString();
  }
}

Status AlignedCheckpoint::CompleteAlignment() {
  TRACE_SPAN("protocol", "align_checkpoint");
  const TaskWiring& w = task_.wiring();
  const uint64_t id = align_id_;
  // As at a commit: what operators hold back joins the flush before the
  // snapshot, or a task restored from it would owe that output.
  task_.RunCommitHooks();
  IMPELLER_RETURN_IF_ERROR(task_.Flush());
  // The snapshot and the forwarded barriers must follow durable outputs.
  // This is the one ack a task step still blocks on.
  w.log->AwaitAck(task_.pending_ack_at());

  // Synchronous snapshot to the checkpoint store: state stores, the dedup
  // sequence map, input cursors, and the output sequence counter (so
  // re-executed outputs are byte-identical and deduplicable downstream).
  std::map<std::string, std::string> sections = task_.Snapshot();
  const auto& readers = task_.readers();
  BinaryWriter cursors;
  cursors.WriteVarU64(readers.size());
  for (size_t i = 0; i < readers.size(); ++i) {
    cursors.WriteString(readers[i]->tag());
    cursors.WriteVarU64(cursor_snapshot_[i] != kInvalidLsn
                            ? cursor_snapshot_[i]
                            : readers[i]->next_lsn());
  }
  sections["cursors"] = cursors.Take();
  IMPELLER_RETURN_IF_ERROR(w.checkpoint_store->Put(
      SnapshotKey(task_.task_id(), id), EncodeSnapshot(sections)));
  if (task_.MaybeInjectCrash("task/checkpoint/mid")) {
    // Snapshot stored but barriers never forwarded: the round times out at
    // the coordinator, downstream unblocks on the next round's barriers, and
    // recovery falls back to the last *completed* checkpoint.
    return UnavailableError("injected crash mid-checkpoint");
  }

  // Forward the barrier to every downstream substream (not egress: nothing
  // aligns there).
  std::vector<AppendRequest> batch;
  for (const OutputSpec& out : w.stage->outputs) {
    const StreamSpec& stream = w.plan->streams.at(out.stream);
    if (stream.egress) {
      continue;
    }
    for (uint32_t sub = 0; sub < stream.num_substreams; ++sub) {
      BarrierBody body;
      body.checkpoint_id = id;
      RecordHeader header;
      header.type = RecordType::kBarrier;
      header.producer = task_.task_id();
      header.instance = w.instance;
      // Control records must not consume the data sequence counter:
      // re-executed data records after recovery would otherwise get shifted
      // seqs and be wrongly deduplicated downstream.
      header.seq = 0;
      AppendRequest req;
      req.tags.push_back(DataTag(out.stream, sub));
      req.payload = EncodeEnvelope(header, EncodeBarrierBody(body));
      batch.push_back(std::move(req));
    }
  }
  if (!batch.empty()) {
    IMPELLER_RETURN_IF_ERROR(
        task_.retrier()
            .Run("barrier_forward", [&] { return w.log->AppendBatch(batch); })
            .status());
  }
  if (coordinator_ != nullptr) {
    coordinator_->AckCheckpoint(task_.task_id(), id);
  }
  if (w.gc != nullptr) {
    for (size_t i = 0; i < cursor_snapshot_.size(); ++i) {
      if (cursor_snapshot_[i] != kInvalidLsn) {
        w.gc->PublishFloor(
            task_.task_id() + "/in/" + task_.readers()[i]->tag(),
            cursor_snapshot_[i]);
      }
    }
  }
  last_completed_ = id;
  Unblock();
  task_.ResetEpochScratch();
  return OkStatus();
}

}  // namespace

std::unique_ptr<CommitProtocol> NewAlignedCheckpoint(
    TaskRuntime& task, BarrierCoordinator* coordinator) {
  return std::make_unique<AlignedCheckpoint>(task, coordinator);
}

}  // namespace impeller
