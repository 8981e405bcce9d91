#include "src/core/checkpoint.h"

#include "src/common/logging.h"
#include "src/common/serde.h"
#include "src/core/gc.h"
#include "src/core/stream.h"

namespace impeller {

Result<std::optional<CutInfo>> ExtractCut(const Envelope& env, Lsn lsn,
                                          std::string_view task_id) {
  std::optional<CutInfo> cut;
  if (env.header.producer != task_id) {
    return cut;
  }
  if (env.header.type == RecordType::kProgressMarker) {
    IMPELLER_ASSIGN_OR_RETURN(ProgressMarker marker,
                              DecodeProgressMarker(env.body));
    cut.emplace();
    cut->marker_seq = marker.marker_seq;
    cut->changelog_from = marker.changelog_from;
    cut->input_ends = std::move(marker.input_ends);
  } else if (env.header.type == RecordType::kTxnControl) {
    IMPELLER_ASSIGN_OR_RETURN(TxnControlBody body,
                              DecodeTxnControlBody(env.body));
    if (body.kind != TxnControlKind::kCommit) {
      return cut;
    }
    cut.emplace();
    cut->changelog_from = body.changelog_from;
    cut->input_ends = std::move(body.input_ends);
  } else {
    return cut;
  }
  cut->instance = env.header.instance;
  cut->lsn = lsn;
  return cut;
}

Result<std::optional<CutInfo>> LastCommittedCut(SharedLog* log,
                                                const std::string& task_id) {
  std::string tag = TaskLogTag(task_id);
  auto cut_at = [&](const LogEntry& entry) -> Result<std::optional<CutInfo>> {
    IMPELLER_ASSIGN_OR_RETURN(Envelope env, DecodeEnvelope(entry.payload));
    return ExtractCut(env, entry.lsn, task_id);
  };
  auto last = log->ReadLast(tag);
  if (!last.ok()) {
    if (last.status().code() == StatusCode::kNotFound) {
      return std::optional<CutInfo>(std::nullopt);  // never committed
    }
    return last.status();
  }
  IMPELLER_ASSIGN_OR_RETURN(std::optional<CutInfo> tail, cut_at(*last));
  if (tail.has_value()) {
    return tail;
  }
  std::optional<CutInfo> best;
  for (auto entry = log->ReadNext(tag, 0); entry.ok();
       entry = log->ReadNext(tag, entry->lsn + 1)) {
    IMPELLER_ASSIGN_OR_RETURN(auto cut, cut_at(*entry));
    if (cut.has_value()) {
      best = std::move(cut);
    }
  }
  return best;
}

Result<ReplayStats> ReplayChangelog(
    SharedLog* log, const std::string& task_id, Lsn from_lsn, Lsn until_lsn,
    const std::function<void(const ChangeLogView&)>& apply) {
  ReplayStats stats;
  stats.next_lsn = from_lsn;
  if (until_lsn == kInvalidLsn) {
    return stats;  // no cut to replay to
  }
  std::string tag = ChangeLogTag(task_id);
  // Every record the replay must apply already has an assigned LSN <=
  // until_lsn (the recovery cut was read, so everything it covers is
  // sequenced), which makes the tag's sequenced tail a deterministic scan
  // bound. Tags whose cut lives elsewhere (kafka-txn commits cut to the
  // task log, not the changelog) would otherwise only terminate on a
  // quiet-timeout — stalling every recovery by the full timeout, long
  // enough for the failure detector to kill a live recovery.
  Lsn tag_tail;
  {
    auto last = log->ReadLast(tag);
    if (!last.ok()) {
      if (last.status().code() == StatusCode::kNotFound) {
        return stats;  // empty changelog: nothing to replay
      }
      return last.status();
    }
    tag_tail = last->lsn;
  }
  ChangelogFold fold;
  Lsn cursor = from_lsn;
  while (true) {
    if (cursor > tag_tail) {
      return stats;  // sequenced suffix fully consumed
    }
    // The next record exists and is at most a delivery latency away from
    // visibility, so the timeout is a safety net, not a barrier.
    auto entry = log->AwaitNext(tag, cursor, 250 * kMillisecond);
    if (!entry.ok()) {
      if (entry.status().code() == StatusCode::kDeadlineExceeded) {
        return stats;
      }
      return InternalError("changelog replay failed at lsn " +
                           std::to_string(cursor) + ": " +
                           entry.status().ToString());
    }
    if (entry->lsn > until_lsn) {
      // First record beyond the recovery cut: uncommitted suffix or a later
      // (fenced) transaction — replay is complete.
      return stats;
    }
    cursor = entry->lsn + 1;
    stats.entries_read++;
    IMPELLER_ASSIGN_OR_RETURN(Envelope env, DecodeEnvelope(entry->payload));
    IMPELLER_ASSIGN_OR_RETURN(
        auto cut, fold.Add(env, entry->lsn, task_id,
                           [&](const ChangeLogBody& change) {
                             apply(ChangeLogView{change.store, change.key,
                                                 change.is_delete,
                                                 change.value,
                                                 change.substream});
                             stats.changes_applied++;
                           }));
    if (cut.has_value()) {
      stats.next_lsn = entry->lsn + 1;
      if (entry->lsn == until_lsn) {
        return stats;  // the recovery cut itself (marker protocols)
      }
    }
  }
}

Result<std::optional<CutInfo>> ChangelogFold::Add(
    const Envelope& env, Lsn lsn, std::string_view task_id,
    const std::function<void(const ChangeLogBody&)>& apply) {
  if (env.header.type == RecordType::kChangeLog) {
    IMPELLER_ASSIGN_OR_RETURN(ChangeLogBody body,
                              DecodeChangeLogBody(env.body));
    pending_.push_back({env.header.instance, std::move(body)});
    return std::optional<CutInfo>(std::nullopt);
  }
  auto cut = ExtractCut(env, lsn, task_id);
  if (!cut.ok() || !cut->has_value()) {
    return cut;
  }
  // Apply committed changes; drop superseded instances' changes; keep a
  // newer instance's changes pending for its own first cut.
  std::vector<Pending> keep;
  for (auto& p : pending_) {
    if (p.instance == (*cut)->instance) {
      apply(p.body);
    } else if (p.instance > (*cut)->instance) {
      keep.push_back(std::move(p));
    }
  }
  pending_ = std::move(keep);
  return cut;
}

std::string EncodeSnapshot(
    const std::map<std::string, std::string>& sections) {
  BinaryWriter w;
  w.WriteVarU64(sections.size());
  for (const auto& [name, data] : sections) {
    w.WriteString(name);
    w.WriteString(data);
  }
  return w.Take();
}

Result<std::map<std::string, std::string>> DecodeSnapshot(
    std::string_view raw) {
  BinaryReader r(raw);
  IMPELLER_ASSIGN_OR_RETURN(uint64_t n, r.ReadVarU64());
  std::map<std::string, std::string> sections;
  for (uint64_t i = 0; i < n; ++i) {
    IMPELLER_ASSIGN_OR_RETURN(std::string name, r.ReadString());
    IMPELLER_ASSIGN_OR_RETURN(sections[std::move(name)], r.ReadString());
  }
  return sections;
}

std::string CheckpointBlobKey(std::string_view task_id) {
  return "ckpt/" + std::string(task_id);
}

std::string CheckpointMetaKey(std::string_view task_id) {
  return "ckptmeta/" + std::string(task_id);
}

std::string EncodeCheckpointMeta(const CheckpointMeta& meta) {
  BinaryWriter w;
  w.WriteVarU64(meta.cut_lsn);
  w.WriteVarU64(meta.next_replay_lsn);
  w.WriteVarU64(meta.marker_seq);
  return w.Take();
}

Result<CheckpointMeta> DecodeCheckpointMeta(std::string_view raw) {
  BinaryReader r(raw);
  CheckpointMeta meta;
  IMPELLER_ASSIGN_OR_RETURN(meta.cut_lsn, r.ReadVarU64());
  IMPELLER_ASSIGN_OR_RETURN(meta.next_replay_lsn, r.ReadVarU64());
  IMPELLER_ASSIGN_OR_RETURN(meta.marker_seq, r.ReadVarU64());
  return meta;
}

// --- CheckpointWorker ---

CheckpointWorker::CheckpointWorker(SharedLog* log, KvStore* store,
                                   Clock* clock, DurationNs interval,
                                   GcRegistry* gc)
    : log_(log), store_(store), clock_(clock), interval_(interval), gc_(gc) {}

CheckpointWorker::~CheckpointWorker() { Stop(); }

void CheckpointWorker::RegisterTask(const std::string& task_id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto shadow = std::make_unique<ShadowTask>();
  shadow->task_id = task_id;
  if (gc_ != nullptr) {
    gc_->PublishFloor("clog/" + task_id, 0);
  }
  tasks_.push_back(std::move(shadow));
}

void CheckpointWorker::Start() {
  if (running_.exchange(true)) {
    return;
  }
  thread_ = JoiningThread([this] { Loop(); });
}

void CheckpointWorker::Stop() {
  if (!running_.exchange(false)) {
    return;
  }
  thread_.Join();
}

void CheckpointWorker::Loop() {
  TimeNs next = clock_->Now() + interval_;
  while (running_.load()) {
    TimeNs now = clock_->Now();
    if (now < next) {
      clock_->SleepFor(std::min<DurationNs>(next - now, 50 * kMillisecond));
      continue;
    }
    RunOnce();
    next = clock_->Now() + interval_;
  }
}

void CheckpointWorker::RunOnce() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& shadow : tasks_) {
    Status st = Advance(*shadow);
    if (!st.ok()) {
      LOG_WARN << "checkpoint advance for " << shadow->task_id
               << " failed: " << st.ToString();
      continue;
    }
    if (shadow->last_cut_lsn != kInvalidLsn &&
        shadow->last_cut_lsn != shadow->last_checkpointed_cut) {
      st = WriteCheckpoint(*shadow);
      if (!st.ok()) {
        LOG_WARN << "checkpoint write for " << shadow->task_id
                 << " failed: " << st.ToString();
      }
    }
  }
}

Status CheckpointWorker::Advance(ShadowTask& shadow) {
  std::string tag = ChangeLogTag(shadow.task_id);
  while (true) {
    auto entry = log_->ReadNext(tag, shadow.cursor);
    if (!entry.ok()) {
      if (entry.status().code() == StatusCode::kNotFound) {
        return OkStatus();  // caught up
      }
      return entry.status();
    }
    shadow.cursor = entry->lsn + 1;
    IMPELLER_ASSIGN_OR_RETURN(Envelope env, DecodeEnvelope(entry->payload));
    IMPELLER_ASSIGN_OR_RETURN(
        auto cut,
        shadow.fold.Add(env, entry->lsn, shadow.task_id,
                        [&](const ChangeLogBody& change) {
                          auto& store = shadow.stores[change.store];
                          if (store == nullptr) {
                            store = std::make_unique<MapStateStore>(
                                change.store, nullptr);
                          }
                          store->ApplyChange(change);
                        }));
    if (cut.has_value()) {
      shadow.last_cut_lsn = cut->lsn;
      shadow.last_marker_seq = cut->marker_seq;
    }
  }
}

Status CheckpointWorker::WriteCheckpoint(ShadowTask& shadow) {
  std::map<std::string, std::string> sections;
  for (const auto& [name, store] : shadow.stores) {
    sections["store/" + name] = store->SerializeSnapshot();
  }
  CheckpointMeta meta;
  meta.cut_lsn = shadow.last_cut_lsn;
  meta.next_replay_lsn = shadow.last_cut_lsn + 1;
  meta.marker_seq = shadow.last_marker_seq;
  std::vector<KvWriteOp> batch;
  batch.push_back({CheckpointBlobKey(shadow.task_id),
                   EncodeSnapshot(sections)});
  batch.push_back({CheckpointMetaKey(shadow.task_id),
                   EncodeCheckpointMeta(meta)});
  IMPELLER_RETURN_IF_ERROR(store_->WriteBatch(std::move(batch)));
  shadow.last_checkpointed_cut = shadow.last_cut_lsn;
  checkpoints_.fetch_add(1);
  if (gc_ != nullptr) {
    // Change-log records below the checkpointed cut can be collected, but
    // the shadow's own cursor may trail the cut (pending uncommitted
    // suffix); never let GC outrun what we still need to read.
    gc_->PublishFloor("clog/" + shadow.task_id,
                      std::min(meta.next_replay_lsn, shadow.cursor));
  }
  return OkStatus();
}

}  // namespace impeller
