#include "src/core/commit_protocol.h"

#include <algorithm>

#include "src/common/serde.h"
#include "src/core/checkpoint.h"
#include "src/core/stream.h"
#include "src/core/task_runtime.h"
#include "src/obs/trace.h"

namespace impeller {

Result<size_t> CommitProtocol::Read(size_t slot, SubstreamReader& reader,
                                    std::vector<ReadyRecord>& ready) {
  static const SubstreamReader::Hooks kNoHooks;
  auto n = reader.Poll(TaskRuntime::kMaxRecordsPerPoll, &ready, kNoHooks);
  if (n.ok()) {
    for (ReadyRecord& record : ready) {
      task_.ProcessReady(slot, std::move(record));
    }
  }
  return n;
}

Status CommitProtocol::RestoreSnapshot(
    const std::map<std::string, std::string>& sections,
    const OwnerFilter& keep, bool counters) {
  constexpr std::string_view kStorePrefix = "store/";
  for (const auto& [name, data] : sections) {
    BinaryReader r(data);
    if (name.rfind(kStorePrefix, 0) == 0) {
      IMPELLER_RETURN_IF_ERROR(
          task_.GetStore(std::string_view(name).substr(kStorePrefix.size()))
              ->MergeSnapshot(data, keep));
    } else if (!counters) {
      continue;
    } else if (name == "seqmap") {
      IMPELLER_RETURN_IF_ERROR(task_.tracker().RestoreSeqMap(data));
    } else if (name == "outseq") {
      IMPELLER_ASSIGN_OR_RETURN(task_.out_seq(), r.ReadVarU64());
    } else if (name == "cursors") {
      IMPELLER_ASSIGN_OR_RETURN(uint64_t n, r.ReadVarU64());
      for (uint64_t i = 0; i < n; ++i) {
        auto tag = r.ReadString();
        auto lsn = r.ReadVarU64();
        if (!tag.ok() || !lsn.ok()) {
          return DataLossError("corrupt cursor section");
        }
        task_.SeekInput(*tag, *lsn, *lsn == 0 ? kInvalidLsn : *lsn - 1);
      }
    }
  }
  return OkStatus();
}

Status CommitProtocol::RestoreAtCut(const HandoffSource& src) {
  if (src.cut_lsn == kInvalidLsn) {
    return OkStatus();
  }
  // Entries for substreams this generation does not own are someone else's
  // after a rescale; unowned entries belong to the source's own substream.
  OwnerFilter keep = [this, &src](uint32_t& owner) {
    return task_.ClaimOwner(owner, src.default_substream);
  };
  const TaskWiring& w = task_.wiring();
  RecoveryStats& stats = task_.recovery();
  // The checkpoint replaces the changelog's prefix as long as it does not
  // outrun the cut (paper §3.3.4 / §3.5).
  Lsn replay_from = 0;
  auto meta_raw = w.checkpoint_store->Get(CheckpointMetaKey(src.task_id));
  if (meta_raw.ok()) {
    auto meta = DecodeCheckpointMeta(*meta_raw);
    if (meta.ok() && meta->cut_lsn != kInvalidLsn &&
        meta->cut_lsn <= src.cut_lsn) {
      auto blob = w.checkpoint_store->Get(CheckpointBlobKey(src.task_id));
      if (blob.ok()) {
        IMPELLER_ASSIGN_OR_RETURN(auto sections, DecodeSnapshot(*blob));
        IMPELLER_RETURN_IF_ERROR(RestoreSnapshot(sections, keep, false));
        replay_from = meta->next_replay_lsn;
        stats.used_checkpoint = true;
      }
    }
  }
  if (replay_from > src.cut_lsn) {
    return OkStatus();
  }
  auto apply = [this, &keep](const ChangeLogView& change) {
    // A flood-era changelog can take longer than the failure timeout to
    // replay; stamp per entry so the monitor never fences a live recovery.
    task_.Heartbeat();
    uint32_t owner = change.substream;
    if (keep(owner)) {
      ChangeLogView normalized = change;
      normalized.substream = owner;
      task_.GetStore(change.store)->ApplyChange(normalized);
    }
  };
  IMPELLER_ASSIGN_OR_RETURN(
      ReplayStats replayed,
      ReplayChangelog(w.log, src.task_id, replay_from, src.cut_lsn, apply));
  stats.changelog_entries_read += replayed.entries_read;
  stats.changes_applied += replayed.changes_applied;
  return OkStatus();
}

Result<uint64_t> CommitProtocol::RecoverFromCut() {
  const TaskWiring& w = task_.wiring();
  RecoveryStats& stats = task_.recovery();
  HandoffSource own{task_.task_id(), w.index};
  uint64_t marker_seq = 0;
  IMPELLER_ASSIGN_OR_RETURN(auto cut, LastCommittedCut(w.log, own.task_id));
  if (cut.has_value()) {
    stats.performed = true;
    own.cut_lsn = cut->lsn;
    marker_seq = cut->marker_seq;
    for (const auto& [tag, end] : cut->input_ends) {
      if (end != kInvalidLsn) {
        task_.SeekInput(tag, end + 1, end);
      }
    }
  }
  if (!task_.captures_changes()) {
    return marker_seq;
  }
  // A rescale handoff is pending until this task commits its first
  // post-rescale cut, which lands after every source's final cut. Until
  // then state comes from the sources' changelogs, not from our own
  // pre-rescale log (substream ownership moved between tasks).
  Lsn fence = 0;
  for (const HandoffSource& src : w.handoff_sources) {
    if (src.cut_lsn != kInvalidLsn) {
      fence = std::max(fence, src.cut_lsn);
    }
  }
  if (w.handoff_sources.empty() ||
      (own.cut_lsn != kInvalidLsn && own.cut_lsn > fence)) {
    IMPELLER_RETURN_IF_ERROR(RestoreAtCut(own));
  } else {
    TRACE_SPAN("task", "rescale_handoff");
    stats.performed = true;
    for (const HandoffSource& src : w.handoff_sources) {
      // Several changelogs replay back to back: keep the failure detector
      // fed so it cannot fence the acquisition mid-flight.
      task_.Heartbeat();
      IMPELLER_RETURN_IF_ERROR(RestoreAtCut(src));
    }
    // Ownership transfer: the acquired state is durable only in the
    // sources' changelogs, so re-append it under our own id. Our first cut
    // then seals the handoff; a crash before it leaves these appends
    // uncommitted (no covering cut — replay discards them) and a restart
    // redoes the handoff from the sources.
    if (task_.MaybeInjectCrash("task/rescale/handoff")) {
      return UnavailableError("injected crash mid-handoff");
    }
    stats.handoff_state_bytes = task_.RelogState();
    if (w.metrics != nullptr) {
      w.metrics->GetCounter("rescale/handoffs")->Add();
      w.metrics->GetCounter("rescale/state_bytes")
          ->Add(stats.handoff_state_bytes);
    }
  }
  if (w.gc != nullptr && !w.config.enable_checkpointing) {
    // Without checkpointing the entire change log must survive.
    w.gc->PublishFloor(own.task_id + "/clog", 0);
  }
  return marker_seq;
}

Status CommitProtocol::RestoreDirectHandoff() {
  for (const auto& src : task_.wiring().direct_handoff->sources) {
    OwnerFilter keep = [this, &src](uint32_t& owner) {
      return task_.ClaimOwner(owner, src.default_substream);
    };
    // The same task id continues the old generation's output sequence and
    // dedup map: the downstream duplicate filter is keyed (substream,
    // producer) without the instance, so a reset sequence would be
    // swallowed silently.
    IMPELLER_RETURN_IF_ERROR(RestoreSnapshot(
        src.sections, keep, /*counters=*/src.task_id == task_.task_id()));
  }
  task_.recovery().performed = true;
  return OkStatus();
}

Status CommitProtocol::FlushEpoch() {
  // Operators emit what they hold back for the commit (eager window panes)
  // first, so it joins this epoch's flush and is covered by its cut.
  task_.RunCommitHooks();
  if (task_.EpochIdle()) {
    EndCommit();  // idle epoch: nothing to commit
    return OkStatus();
  }
  span_.Open();
  IMPELLER_RETURN_IF_ERROR(task_.Flush());
  // No input is polled until the marker or transaction request is issued,
  // so the input ends it records are exactly those of the flushed epoch.
  stage_ = Stage::kFlushed;
  return OkStatus();
}

Result<DurationNs> CommitProtocol::Advance() {
  while (true) {
    if (DurationNs wait = task_.AckWait(); wait > 0) {
      return wait;
    }
    if (stage_ == Stage::kIdle) {
      return IdleWait();
    }
    auto wait = Step();
    if (!wait.ok() || *wait > 0) {
      return wait;
    }
  }
}

Result<DurationNs> CommitProtocol::Step() {
  task_.RunCommitHooks();
  IMPELLER_RETURN_IF_ERROR(task_.Flush());
  EndCommit();
  return DurationNs{0};
}

void CommitProtocol::EndCommit() {
  stage_ = Stage::kIdle;
  task_.CommitEnded();
}

// --- ProtocolFactory: the one place that names a ProtocolKind ---

ProtocolFactory::ProtocolFactory(const EngineConfig& config,
                                 const std::string& query, SharedLog* log,
                                 KvStore* checkpoint_store, Clock* clock,
                                 MetricsRegistry* metrics)
    : kind_(config.protocol),
      read_committed_(kind_ == ProtocolKind::kProgressMarking ||
                      kind_ == ProtocolKind::kKafkaTxn) {
  if (kind_ == ProtocolKind::kKafkaTxn) {
    TxnCoordinatorOptions opts;
    opts.name = query;
    opts.metrics = metrics;
    opts.retry = config.retry;
    txn_ = std::make_unique<TxnCoordinator>(log, clock, opts);
    txn_->Start();
  } else if (kind_ == ProtocolKind::kAlignedCheckpoint) {
    BarrierCoordinatorOptions opts;
    opts.query = query;
    opts.interval = config.commit_interval;
    opts.metrics = metrics;
    opts.retry = config.retry;
    barrier_ = std::make_unique<BarrierCoordinator>(log, checkpoint_store,
                                                    clock, opts);
  }
}

std::unique_ptr<CommitProtocol> ProtocolFactory::ForTask(
    TaskRuntime& task) const {
  switch (kind_) {
    case ProtocolKind::kProgressMarking:
      return NewProgressMarking(task);
    case ProtocolKind::kKafkaTxn:
      return NewKafkaTxn(task, txn_.get());
    case ProtocolKind::kAlignedCheckpoint:
      return NewAlignedCheckpoint(task, barrier_.get());
    case ProtocolKind::kUnsafe:
      break;
  }
  return NewUnsafe(task);
}

void ProtocolFactory::StartCoordinator(const QueryPlan& plan) {
  if (barrier_ == nullptr) {
    return;
  }
  std::vector<std::string> ingress_tags;
  for (const auto& [name, stream] : plan.streams) {
    if (stream.external) {
      for (uint32_t sub = 0; sub < stream.num_substreams; ++sub) {
        ingress_tags.push_back(DataTag(name, sub));
      }
    }
  }
  std::vector<std::string> task_ids;
  for (const auto& stage : plan.stages) {
    for (uint32_t i = 0; i < stage.num_tasks; ++i) {
      task_ids.push_back(MakeTaskId(plan.name, stage.name, i));
    }
  }
  barrier_->Configure(std::move(ingress_tags), std::move(task_ids));
  barrier_->Start();
}

bool ProtocolFactory::PauseCoordinator() {
  if (barrier_ == nullptr) {
    return false;
  }
  barrier_->Stop();
  return true;
}

uint64_t ProtocolFactory::LatestCheckpoint() const {
  return barrier_ != nullptr ? barrier_->LatestCompleted() : 0;
}

void ProtocolFactory::Stop() {
  if (barrier_ != nullptr) {
    barrier_->Stop();
  }
  if (txn_ != nullptr) {
    txn_->Stop();
  }
}

}  // namespace impeller
