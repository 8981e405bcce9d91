#include "src/core/task_runtime.h"

#include <algorithm>
#include <cassert>

#include "src/common/hash.h"
#include "src/common/logging.h"
#include "src/common/serde.h"
#include "src/core/stream.h"
#include "src/fault/fault.h"
#include "src/obs/alloc_stats.h"
#include "src/obs/trace.h"
#include "src/protocols/barrier_coordinator.h"
#include "src/protocols/txn_coordinator.h"

namespace impeller {

namespace {

std::string AlignedSnapshotKey(std::string_view task_id, uint64_t ckpt_id) {
  return "actl/" + std::string(task_id) + "/" + std::to_string(ckpt_id);
}

}  // namespace

// Routes an operator's emissions: output 0 feeds the next operator in the
// chain; outputs > 0 bypass the rest of the chain and go straight to the
// stage's output streams (how Branch fans out mid-chain).
class TaskRuntime::ChainCollector final : public Collector {
 public:
  ChainCollector(TaskRuntime* rt, size_t next) : rt_(rt), next_(next) {}
  void EmitTo(uint32_t output, StreamRecord record) override {
    if (output == 0) {
      rt_->operators_[next_]->Process(0, std::move(record),
                                      rt_->collectors_[next_].get());
    } else {
      rt_->EmitOutput(output, std::move(record));
    }
  }

 private:
  TaskRuntime* rt_;
  size_t next_;
};

// Terminal collector: every emission targets a stage output stream.
class TaskRuntime::StageCollector final : public Collector {
 public:
  explicit StageCollector(TaskRuntime* rt) : rt_(rt) {}
  void EmitTo(uint32_t output, StreamRecord record) override {
    rt_->EmitOutput(output, std::move(record));
  }

 private:
  TaskRuntime* rt_;
};

TaskRuntime::TaskRuntime(TaskWiring wiring)
    : wiring_(std::move(wiring)),
      task_id_(MakeTaskId(wiring_.plan->name, wiring_.stage->name,
                          wiring_.index)),
      tracker_(wiring_.config.protocol == ProtocolKind::kProgressMarking ||
               wiring_.config.protocol == ProtocolKind::kKafkaTxn),
      retrier_(wiring_.config.retry,
               wiring_.instance * 0x9E3779B97F4A7C15ull + wiring_.index,
               wiring_.clock, wiring_.metrics),
      output_buffer_(wiring_.log, wiring_.config.output_buffer_bytes,
                     &retrier_) {
  uses_markers_ = tracker_.read_committed();
  capture_changes_ = uses_markers_ && wiring_.stage->stateful;
  changelog_tag_ = ChangeLogTag(task_id_);
  // Alive from spawn: the monitor may tick before the first step does.
  heartbeat_.store(wiring_.clock->Now());
}

TaskRuntime::~TaskRuntime() = default;

Status TaskRuntime::final_status() const {
  std::lock_guard<std::mutex> lock(status_mu_);
  return final_status_;
}

MapStateStore* TaskRuntime::GetStore(std::string_view name) {
  auto& slot = stores_[std::string(name)];
  if (slot == nullptr) {
    ChangeSink sink;
    if (capture_changes_) {
      sink = [this](const ChangeLogView& change) { OnStateChange(change); };
    }
    slot = std::make_unique<MapStateStore>(std::string(name), std::move(sink),
                                           &current_substream_);
  }
  return slot.get();
}

void TaskRuntime::OnStateChange(const ChangeLogView& change) {
  // Encoded straight into the output buffer's contiguous flush buffer: no
  // intermediate body / envelope / payload strings.
  BinaryWriter& w =
      output_buffer_.StartRecord(OutputBuffer::Kind::kChangeLog,
                                 changelog_tag_);
  AppendEnvelopeHeader(w, RecordType::kChangeLog, task_id_, wiring_.instance,
                       ++out_seq_);
  AppendChangeLogBody(w, change);
  output_buffer_.FinishRecord();
  epoch_touched_tags_.insert(changelog_tag_);
  epoch_dirty_ = true;
}

void TaskRuntime::EmitOutput(uint32_t output, StreamRecord record) {
  if (output >= wiring_.stage->outputs.size()) {
    LOG_ERROR << task_id_ << ": emission to undeclared output " << output;
    return;
  }
  const OutputSpec& spec = wiring_.stage->outputs[output];
  // Routing tags were precomputed at recovery; their count is the stream's
  // substream count, so no per-record plan lookups or tag building here.
  const std::vector<std::string>& tags = output_tags_[output];
  const uint32_t num_substreams = static_cast<uint32_t>(tags.size());
  uint32_t sub;
  if (output_is_egress_[output]) {
    sub = wiring_.index;  // egress: one substream per sinking task
  } else if (spec.partitioner) {
    sub = spec.partitioner(record.key, num_substreams);
  } else {
    sub = HashPartition(record.key, num_substreams);
  }
  BinaryWriter& w =
      output_buffer_.StartRecord(OutputBuffer::Kind::kOutput, tags[sub]);
  AppendEnvelopeHeader(w, RecordType::kData, task_id_, wiring_.instance,
                       ++out_seq_);
  AppendDataBody(w, record.key, record.value, record.event_time);
  output_buffer_.FinishRecord();
  epoch_touched_tags_.insert(tags[sub]);
  epoch_dirty_ = true;
  // Recycle the record's string capacity for the next input record.
  record_pool_.Release(std::move(record.key));
  record_pool_.Release(std::move(record.value));
}

std::vector<std::pair<std::string, Lsn>> TaskRuntime::CurrentInputEnds()
    const {
  std::vector<std::pair<std::string, Lsn>> ends;
  ends.reserve(readers_.size());
  for (const auto& reader : readers_) {
    ends.emplace_back(reader->tag(), reader->committed_floor());
  }
  return ends;
}

std::vector<std::string> TaskRuntime::DownstreamMarkerTags() const {
  std::vector<std::string> tags;
  for (const OutputSpec& out : wiring_.stage->outputs) {
    const StreamSpec& stream = wiring_.plan->streams.at(out.stream);
    for (uint32_t sub = 0; sub < stream.num_substreams; ++sub) {
      tags.push_back(DataTag(out.stream, sub));
    }
  }
  tags.push_back(TaskLogTag(task_id_));
  if (capture_changes_) {
    tags.push_back(ChangeLogTag(task_id_));
  }
  return tags;
}

void TaskRuntime::PublishGcFloors() {
  if (wiring_.gc == nullptr) {
    return;
  }
  for (const auto& reader : readers_) {
    Lsn floor = reader->committed_floor();
    wiring_.gc->PublishFloor(task_id_ + "/in/" + reader->tag(),
                             floor == kInvalidLsn ? 0 : floor + 1);
  }
}

// --- Recovery ---

Status TaskRuntime::Recover() {
  TRACE_SPAN("task", "recover");
  TimeNs t0 = wiring_.clock->Now();

  for (const auto& factory : wiring_.stage->operators) {
    operators_.push_back(factory());
  }
  collectors_.reserve(operators_.size());
  for (size_t i = 0; i < operators_.size(); ++i) {
    if (i + 1 < operators_.size()) {
      collectors_.push_back(std::make_unique<ChainCollector>(this, i + 1));
    } else {
      collectors_.push_back(std::make_unique<StageCollector>(this));
    }
  }

  // One reader per assigned substream of each input stream: task i owns
  // every substream s with s % num_tasks == i, so a stage over-partitioned
  // with WithSubstreams can later rescale without repartitioning upstream.
  for (size_t i = 0; i < wiring_.stage->inputs.size(); ++i) {
    const std::string& stream_name = wiring_.stage->inputs[i];
    const StreamSpec& stream = wiring_.plan->streams.at(stream_name);
    for (uint32_t sub = wiring_.index; sub < stream.num_substreams;
         sub += wiring_.stage->num_tasks) {
      readers_.push_back(std::make_unique<SubstreamReader>(
          wiring_.log, DataTag(stream_name, sub), static_cast<uint32_t>(i),
          &tracker_, /*start_lsn=*/0));
      reader_substreams_.push_back(sub);
      input_external_.push_back(stream.external);
      if (stream.external) {
        expected_barriers_.push_back(1);  // the coordinator's barrier
      } else {
        expected_barriers_.push_back(static_cast<uint32_t>(
            wiring_.plan->ProducersOf(stream_name).size()));
      }
    }
  }
  output_is_egress_.reserve(wiring_.stage->outputs.size());
  output_tags_.reserve(wiring_.stage->outputs.size());
  for (const OutputSpec& out : wiring_.stage->outputs) {
    const StreamSpec& stream = wiring_.plan->streams.at(out.stream);
    output_is_egress_.push_back(stream.egress);
    std::vector<std::string> tags;
    tags.reserve(stream.num_substreams);
    for (uint32_t sub = 0; sub < stream.num_substreams; ++sub) {
      tags.push_back(DataTag(out.stream, sub));
    }
    output_tags_.push_back(std::move(tags));
  }
  reader_hooks_.on_barrier = nullptr;  // barriers handled via pending queue
  commit_gated_ =
      uses_markers_ && std::find(input_external_.begin(), input_external_.end(),
                                 false) != input_external_.end();

  for (size_t i = 0; i < operators_.size(); ++i) {
    operators_[i]->Open(this);
  }

  Status st = OkStatus();
  switch (wiring_.config.protocol) {
    case ProtocolKind::kProgressMarking:
    case ProtocolKind::kKafkaTxn:
      st = RecoverFromMarker();
      break;
    case ProtocolKind::kAlignedCheckpoint: {
      bool use_handoff = wiring_.direct_handoff != nullptr;
      if (use_handoff) {
        // A checkpoint completed after the rescale supersedes the handoff:
        // its snapshot (state + cursors + out_seq) is the newer recovery
        // point for this task id.
        auto id = BarrierCoordinator::ReadCompletedId(
            wiring_.checkpoint_store, wiring_.plan->name);
        if (id.ok() && *id > wiring_.direct_handoff->completed_ckpt_at_handoff) {
          use_handoff = false;
        }
      }
      st = use_handoff ? RestoreDirectHandoff() : RecoverAligned();
      break;
    }
    case ProtocolKind::kUnsafe:
      // No progress tracking: start from the beginning — unless a rescale
      // handed over the old generation's state and cursors.
      if (wiring_.direct_handoff != nullptr) {
        st = RestoreDirectHandoff();
      }
      break;
  }
  if (!st.ok()) {
    return st;
  }

  // Rescale handoff: the manager collected every substream's consumed end
  // from the previous generation's final markers (substream ownership may
  // have moved between tasks, so our own task log is not authoritative).
  // The entry retains the handoff across monitor restarts, so these ends
  // may be stale by the time we run: once the task has committed its own
  // post-rescale cut (or checkpoint), the recovery above already positioned
  // the readers past them. Only ever advance a cursor — rewinding would
  // re-process records whose effects are already in the restored state and
  // re-emit them under fresh sequence numbers downstream dedup cannot
  // filter.
  if (!wiring_.initial_input_ends.empty()) {
    for (auto& reader : readers_) {
      auto it = wiring_.initial_input_ends.find(reader->tag());
      if (it != wiring_.initial_input_ends.end() &&
          it->second != kInvalidLsn && it->second + 1 > reader->next_lsn()) {
        reader->Restore(it->second + 1, it->second);
      }
    }
  }

  // Stateful rescale under a marker protocol: claim this task's substream
  // range from the old generation's changelogs. Skipped once our own first
  // post-rescale cut sealed the handoff.
  if (capture_changes_ && HandoffPending()) {
    IMPELLER_RETURN_IF_ERROR(PerformMarkerHandoff());
  }

  if (wiring_.gc != nullptr && capture_changes_ &&
      !wiring_.config.enable_checkpointing) {
    // Without checkpointing the entire change log must survive.
    wiring_.gc->PublishFloor(task_id_ + "/clog", 0);
  }
  last_input_ends_ = CurrentInputEnds();
  PublishGcFloors();
  PublishProgress();
  recovery_stats_.duration = wiring_.clock->Now() - t0;
  return OkStatus();
}

Status TaskRuntime::RecoverFromMarker() {
  auto last = wiring_.log->ReadLast(TaskLogTag(task_id_));
  if (!last.ok()) {
    if (last.status().code() == StatusCode::kNotFound) {
      return OkStatus();  // fresh start
    }
    return last.status();
  }
  auto env = DecodeEnvelope(last->payload);
  if (!env.ok()) {
    return env.status();
  }
  auto cut = ExtractCut(*env, last->lsn, task_id_);
  if (!cut.ok()) {
    return cut.status();
  }
  if (!cut->has_value()) {
    return InternalError("task-log tail is not a commit cut");
  }
  const CutInfo& info = **cut;
  recovery_stats_.performed = true;
  recovered_cut_lsn_ = info.lsn;
  marker_seq_ = info.marker_seq + 1;

  for (auto& reader : readers_) {
    for (const auto& [tag, end] : info.input_ends) {
      if (tag == reader->tag()) {
        if (end != kInvalidLsn) {
          reader->Restore(end + 1, end);
        }
        break;
      }
    }
  }

  if (!capture_changes_) {
    return OkStatus();
  }
  if (HandoffPending()) {
    // State comes from the handoff sources' changelogs, not our own
    // pre-rescale log (substream ownership moved between tasks).
    return OkStatus();
  }

  // Entries for substreams this generation does not own are someone else's
  // after a rescale; unowned entries belong to our own default substream.
  OwnerFilter keep_owned = [this](uint32_t& owner) {
    return ClaimOwner(owner, wiring_.index);
  };

  // Restore from the latest checkpoint, then replay the remaining change
  // log up to the marker (paper §3.3.4 / §3.5).
  Lsn replay_from = 0;
  auto meta_raw = wiring_.checkpoint_store->Get(CheckpointMetaKey(task_id_));
  if (meta_raw.ok()) {
    auto meta = DecodeCheckpointMeta(*meta_raw);
    if (meta.ok() && meta->cut_lsn != kInvalidLsn &&
        meta->cut_lsn <= info.lsn) {
      auto blob = wiring_.checkpoint_store->Get(CheckpointBlobKey(task_id_));
      if (blob.ok()) {
        auto sections = DecodeSnapshot(*blob);
        if (!sections.ok()) {
          return sections.status();
        }
        for (const auto& [name, data] : *sections) {
          constexpr std::string_view kStorePrefix = "store/";
          if (name.rfind(kStorePrefix, 0) == 0) {
            IMPELLER_RETURN_IF_ERROR(
                GetStore(name.substr(kStorePrefix.size()))
                    ->MergeSnapshot(data, keep_owned));
          }
        }
        replay_from = meta->next_replay_lsn;
        recovery_stats_.used_checkpoint = true;
      }
    }
  }
  if (replay_from <= info.lsn) {
    auto stats = ReplayChangelog(
        wiring_.log, task_id_, replay_from, info.lsn, info.txn_id,
        [this](const ChangeLogView& change) {
          uint32_t owner = change.substream;
          if (!ClaimOwner(owner, wiring_.index)) {
            return;
          }
          ChangeLogView normalized = change;
          normalized.substream = owner;
          GetStore(change.store)->ApplyChange(normalized);
        });
    if (!stats.ok()) {
      return stats.status();
    }
    recovery_stats_.changelog_entries_read = stats->entries_read;
    recovery_stats_.changes_applied = stats->changes_applied;
  }
  return OkStatus();
}

bool TaskRuntime::HandoffPending() const {
  if (wiring_.handoff_sources.empty()) {
    return false;
  }
  if (recovered_cut_lsn_ == kInvalidLsn) {
    return true;  // no post-rescale cut of our own yet
  }
  Lsn fence = 0;
  for (const auto& src : wiring_.handoff_sources) {
    if (src.cut_lsn != kInvalidLsn && src.cut_lsn > fence) {
      fence = src.cut_lsn;
    }
  }
  // Our first post-rescale cut is appended after every source's final cut,
  // so a higher own-cut LSN proves the handoff was sealed.
  return recovered_cut_lsn_ <= fence;
}

Status TaskRuntime::PerformMarkerHandoff() {
  TRACE_SPAN("task", "rescale_handoff");
  recovery_stats_.performed = true;
  for (const auto& src : wiring_.handoff_sources) {
    // A multi-source handoff replays several changelogs back to back; keep
    // the failure detector fed so it cannot mistake a long acquisition for
    // a dead task and fence the recovery mid-flight.
    heartbeat_.store(wiring_.clock->Now(), std::memory_order_relaxed);
    OwnerFilter keep = [this, &src](uint32_t& owner) {
      return ClaimOwner(owner, src.default_substream);
    };
    Lsn replay_from = 0;
    // Checkpoint acceleration: the source's checkpoint replaces the prefix
    // of its changelog as long as it does not outrun the source's final cut.
    auto meta_raw =
        wiring_.checkpoint_store->Get(CheckpointMetaKey(src.task_id));
    if (meta_raw.ok() && src.cut_lsn != kInvalidLsn) {
      auto meta = DecodeCheckpointMeta(*meta_raw);
      if (meta.ok() && meta->cut_lsn != kInvalidLsn &&
          meta->cut_lsn <= src.cut_lsn) {
        auto blob =
            wiring_.checkpoint_store->Get(CheckpointBlobKey(src.task_id));
        if (blob.ok()) {
          auto sections = DecodeSnapshot(*blob);
          if (!sections.ok()) {
            return sections.status();
          }
          for (const auto& [name, data] : *sections) {
            constexpr std::string_view kStorePrefix = "store/";
            if (name.rfind(kStorePrefix, 0) == 0) {
              IMPELLER_RETURN_IF_ERROR(
                  GetStore(name.substr(kStorePrefix.size()))
                      ->MergeSnapshot(data, keep));
            }
          }
          replay_from = meta->next_replay_lsn;
          recovery_stats_.used_checkpoint = true;
        }
      }
    }
    if (src.cut_lsn != kInvalidLsn && replay_from <= src.cut_lsn) {
      auto stats = ReplayChangelog(
          wiring_.log, src.task_id, replay_from, src.cut_lsn, src.txn_id,
          [this, &src](const ChangeLogView& change) {
            // A flood-era changelog can take longer than the failure
            // timeout to replay; stamp per entry so the monitor never
            // fences a live acquisition.
            heartbeat_.store(wiring_.clock->Now(),
                             std::memory_order_relaxed);
            uint32_t owner = change.substream;
            if (!ClaimOwner(owner, src.default_substream)) {
              return;
            }
            ChangeLogView normalized = change;
            normalized.substream = owner;
            GetStore(change.store)->ApplyChange(normalized);
          });
      if (!stats.ok()) {
        return stats.status();
      }
      recovery_stats_.changelog_entries_read += stats->entries_read;
      recovery_stats_.changes_applied += stats->changes_applied;
    }
  }
  // Ownership transfer: the acquired state is durable only in the sources'
  // changelogs, so re-append it under our own id. Our first cut then seals
  // the handoff; a crash before it leaves these appends uncommitted (no
  // covering cut — replay discards them) and a restart redoes the handoff
  // from the sources.
  if (MaybeInjectCrash("task/rescale/handoff")) {
    return UnavailableError("injected crash mid-handoff");
  }
  uint64_t bytes = 0;
  for (const auto& [name, store] : stores_) {
    store->ScanAll(
        [&](std::string_view key, std::string_view value, uint32_t owner) {
          OnStateChange(ChangeLogView{name, key, /*is_delete=*/false, value,
                                      owner});
          bytes += key.size() + value.size();
          return true;
        });
  }
  recovery_stats_.handoff_state_bytes = bytes;
  if (wiring_.metrics != nullptr) {
    wiring_.metrics->GetCounter("rescale/handoffs")->Add();
    wiring_.metrics->GetCounter("rescale/state_bytes")->Add(bytes);
  }
  return OkStatus();
}

Status TaskRuntime::RestoreDirectHandoff() {
  const DirectHandoff& handoff = *wiring_.direct_handoff;
  for (const auto& src : handoff.sources) {
    OwnerFilter keep = [this, &src](uint32_t& owner) {
      return ClaimOwner(owner, src.default_substream);
    };
    for (const auto& [name, snap] : src.stores) {
      IMPELLER_RETURN_IF_ERROR(GetStore(name)->MergeSnapshot(snap, keep));
    }
    if (src.task_id == task_id_) {
      // Continue the old generation's output sequence and dedup map: the
      // downstream duplicate filter is keyed (substream, producer) without
      // the instance, so a reset sequence would be swallowed silently.
      IMPELLER_RETURN_IF_ERROR(tracker_.RestoreSeqMap(src.seqmap));
      out_seq_ = src.out_seq;
    }
  }
  last_completed_ckpt_ = handoff.completed_ckpt_at_handoff;
  recovery_stats_.performed = true;
  return OkStatus();
}

DirectHandoff::Source TaskRuntime::ExportHandoff() const {
  DirectHandoff::Source src;
  src.task_id = task_id_;
  src.default_substream = wiring_.index;
  for (const auto& [name, store] : stores_) {
    src.stores[name] = store->SerializeSnapshot();
  }
  src.seqmap = tracker_.SerializeSeqMap();
  src.out_seq = out_seq_;
  src.input_ends = CurrentInputEnds();
  return src;
}

std::vector<std::pair<std::string, Lsn>> TaskRuntime::InputProgress() const {
  std::lock_guard<std::mutex> lock(progress_mu_);
  return progress_;
}

void TaskRuntime::PublishProgress() {
  std::lock_guard<std::mutex> lock(progress_mu_);
  if (progress_.size() != readers_.size()) {
    progress_.clear();
    progress_.reserve(readers_.size());
    for (const auto& reader : readers_) {
      progress_.emplace_back(reader->tag(), reader->committed_floor());
    }
    return;
  }
  for (size_t i = 0; i < readers_.size(); ++i) {
    progress_[i].second = readers_[i]->committed_floor();
  }
}

Status TaskRuntime::RecoverAligned() {
  auto id = BarrierCoordinator::ReadCompletedId(wiring_.checkpoint_store,
                                                wiring_.plan->name);
  if (!id.ok()) {
    return OkStatus();  // no completed checkpoint: fresh start
  }
  auto blob =
      wiring_.checkpoint_store->Get(AlignedSnapshotKey(task_id_, *id));
  if (!blob.ok()) {
    return OkStatus();  // this task never participated in that checkpoint
  }
  auto sections = DecodeSnapshot(*blob);
  if (!sections.ok()) {
    return sections.status();
  }
  for (const auto& [name, data] : *sections) {
    constexpr std::string_view kStorePrefix = "store/";
    if (name.rfind(kStorePrefix, 0) == 0) {
      IMPELLER_RETURN_IF_ERROR(
          GetStore(name.substr(kStorePrefix.size()))->RestoreSnapshot(data));
    } else if (name == "seqmap") {
      IMPELLER_RETURN_IF_ERROR(tracker_.RestoreSeqMap(data));
    } else if (name == "outseq") {
      BinaryReader r(data);
      auto seq = r.ReadVarU64();
      if (!seq.ok()) {
        return seq.status();
      }
      out_seq_ = *seq;
    } else if (name == "cursors") {
      BinaryReader r(data);
      auto n = r.ReadVarU64();
      if (!n.ok()) {
        return n.status();
      }
      for (uint64_t i = 0; i < *n; ++i) {
        auto tag = r.ReadString();
        auto lsn = r.ReadVarU64();
        if (!tag.ok() || !lsn.ok()) {
          return DataLossError("corrupt cursor section");
        }
        for (auto& reader : readers_) {
          if (reader->tag() == *tag) {
            reader->Restore(*lsn, *lsn == 0 ? kInvalidLsn : *lsn - 1);
          }
        }
      }
    }
  }
  last_completed_ckpt_ = *id;
  recovery_stats_.performed = true;
  recovery_stats_.used_checkpoint = true;
  return OkStatus();
}

// --- Input path ---

Result<size_t> TaskRuntime::PollInputs() {
  size_t total = 0;
  for (size_t slot = 0; slot < readers_.size(); ++slot) {
    // Only a crash aborts mid-poll: a graceful stop still drains (the
    // shutdown path relies on polling remaining committed input).
    if (Crashed()) {
      break;
    }
    SubstreamReader& reader = *readers_[slot];
    ready_scratch_.clear();
    pending_barriers_.clear();
    if (wiring_.config.protocol == ProtocolKind::kAlignedCheckpoint) {
      reader_hooks_.on_barrier = [this, slot](uint32_t,
                                              const EnvelopeView& h,
                                              const BarrierBody& b, Lsn lsn) {
        pending_barriers_.push_back({ready_scratch_.size(), slot,
                                     std::string(h.producer), b.checkpoint_id,
                                     lsn});
      };
    }
    auto n = reader.Poll(wiring_.config.max_records_per_poll,
                         &ready_scratch_, reader_hooks_);
    if (!n.ok()) {
      return n.status();
    }
    total += *n;
    // Interleave barrier application with record processing in the order
    // they appeared on the substream.
    size_t barrier_idx = 0;
    for (size_t i = 0; i < ready_scratch_.size(); ++i) {
      while (barrier_idx < pending_barriers_.size() &&
             pending_barriers_[barrier_idx].position <= i) {
        const PendingBarrier& pb = pending_barriers_[barrier_idx++];
        OnBarrier(pb.slot, pb.producer, pb.checkpoint_id, pb.lsn);
      }
      ProcessReady(slot, std::move(ready_scratch_[i]));
    }
    while (barrier_idx < pending_barriers_.size()) {
      const PendingBarrier& pb = pending_barriers_[barrier_idx++];
      OnBarrier(pb.slot, pb.producer, pb.checkpoint_id, pb.lsn);
    }
  }
  return total;
}

void TaskRuntime::ProcessReady(size_t slot, ReadyRecord record) {
  if (align_ckpt_id_ != 0 && IsBlocked(slot, record.header.producer)) {
    sidelined_.emplace_back(slot, std::move(record));
    return;
  }
  // Materialize owning strings for the operator chain from the in-place
  // views, reusing pooled capacity so the steady state allocates nothing.
  // This is the one remaining payload copy on the read path; account it.
  StreamRecord rec;
  rec.key = record_pool_.Acquire();
  rec.key.assign(record.data.key.data(), record.data.key.size());
  rec.value = record_pool_.Acquire();
  rec.value.assign(record.data.value.data(), record.data.value.size());
  rec.event_time = record.data.event_time;
  obs::RecordBytesCopied(rec.key.size() + rec.value.size());
  max_event_time_ = std::max(max_event_time_, rec.event_time);
  records_processed_.fetch_add(1, std::memory_order_relaxed);
  epoch_dirty_ = true;
  // State written while this record runs is owned by its input substream
  // (the ownership unit of rescaling); timer writes stay unowned.
  current_substream_ = reader_substreams_[slot];
  RunRecord(record.input, std::move(rec));
  current_substream_ = kUnownedSubstream;
}

void TaskRuntime::RunRecord(uint32_t input, StreamRecord record) {
  TRACE_SPAN("task", "process_record");
  operators_[0]->Process(input, std::move(record), collectors_[0].get());
}

void TaskRuntime::RunTimers(TimeNs now) {
  TRACE_SPAN("task", "timers");
  for (size_t i = 0; i < operators_.size(); ++i) {
    operators_[i]->OnTimer(now, collectors_[i].get());
  }
}

// --- Output / commit path ---

Status TaskRuntime::ApplyFlushResult(const OutputBuffer::FlushResult& result) {
  if (result.first_output != kInvalidLsn &&
      epoch_first_output_ == kInvalidLsn) {
    epoch_first_output_ = result.first_output;
  }
  if (result.first_changelog != kInvalidLsn &&
      epoch_first_changelog_ == kInvalidLsn) {
    epoch_first_changelog_ = result.first_changelog;
  }
  pending_ack_at_ = std::max(pending_ack_at_, result.ack_at);
  return OkStatus();
}

Status TaskRuntime::MaybeFlush(bool force) {
  if (output_buffer_.empty()) {
    return OkStatus();
  }
  if (!force && !output_buffer_.NeedsFlush()) {
    return OkStatus();
  }
  if (wiring_.config.protocol == ProtocolKind::kKafkaTxn &&
      txn_inflight_.valid()) {
    if (txn_inflight_.wait_for(std::chrono::seconds(0)) !=
        std::future_status::ready) {
      // Phase two still in flight: outputs must stay buffered (§3.6). Only
      // a full buffer forces a stall.
      if (output_buffer_.pending_bytes() <
          wiring_.config.txn_inflight_buffer_bytes) {
        return OkStatus();
      }
      txn_inflight_.wait();
    }
    Status st = txn_inflight_.get();
    txn_inflight_ = {};
    IMPELLER_RETURN_IF_ERROR(st);
  }
  if (MaybeInjectCrash("task/flush/pre")) {
    return UnavailableError("injected crash before flush");
  }
  TRACE_SPAN("task", "flush");
  auto result = output_buffer_.Flush();
  if (!result.ok()) {
    return result.status();
  }
  IMPELLER_RETURN_IF_ERROR(ApplyFlushResult(*result));
  if (MaybeInjectCrash("task/flush/post")) {
    // The flush is in the log (durable at its ack, which the exit waits
    // out) but no marker covers it yet: the restarted instance re-executes
    // the epoch and commit filtering (or egress seq-dedup) must hide the
    // orphaned records.
    return UnavailableError("injected crash after flush");
  }
  return OkStatus();
}

bool TaskRuntime::MaybeInjectCrash(const char* point) {
  if (auto f = IMPELLER_FAULT_PROBE(point, task_id_, fault::kNoLsn)) {
    if (f.kind == fault::FaultKind::kCrash) {
      LOG_INFO << task_id_ << ": injected crash at " << point;
      Crash();
      return true;
    }
    if (f.kind == fault::FaultKind::kDelay) {
      wiring_.clock->SleepFor(f.delay);
    }
  }
  return false;
}

Result<DurationNs> TaskRuntime::AdvanceCommit() {
  while (true) {
    TimeNs now = wiring_.clock->Now();
    if (now < pending_ack_at_) {
      return pending_ack_at_ - now;
    }
    switch (commit_stage_) {
      case CommitStage::kIdle:
        return DurationNs{0};
      case CommitStage::kDue:
        // A new transaction may need to wait for the in-progress one (§3.6).
        if (txn_inflight_.valid()) {
          if (txn_inflight_.wait_for(std::chrono::seconds(0)) !=
              std::future_status::ready) {
            return wiring_.config.poll_interval;
          }
          Status st = txn_inflight_.get();
          txn_inflight_ = {};
          IMPELLER_RETURN_IF_ERROR(st);
        }
        IMPELLER_RETURN_IF_ERROR(BeginCommit());
        break;
      case CommitStage::kFlushed:
        IMPELLER_RETURN_IF_ERROR(
            wiring_.config.protocol == ProtocolKind::kKafkaTxn
                ? CommitKafkaTxn()
                : CommitProgressMarking());
        break;
      case CommitStage::kPhaseOne: {
        if (DurationNs wait = txn_phase_one_->Poll(); wait > 0) {
          return wait;
        }
        auto future = txn_phase_one_->result();
        txn_phase_one_.reset();
        commit_span_.Close("protocol", "commit_txn");
        if (!future.ok()) {
          return future.status();  // kFenced: superseded instance
        }
        txn_inflight_ = *future;
        markers_written_.fetch_add(1);
        EndCommit();
        break;
      }
    }
  }
}

void TaskRuntime::EndCommit() {
  commit_stage_ = CommitStage::kIdle;
  next_commit_ = wiring_.clock->Now() + wiring_.config.commit_interval;
  wave_generation_ = tracker_.generation();
  in_burst_ = false;
}

Status TaskRuntime::BeginCommit() {
  // Operators emit what they hold back for the commit (eager window panes)
  // first, so it joins this epoch's flush and is covered by its cut.
  for (size_t i = 0; i < operators_.size(); ++i) {
    operators_[i]->OnCommit(collectors_[i].get());
  }
  if (!uses_markers_) {
    // Aligned checkpoints are barrier-driven; unsafe never commits. The
    // flush keeps outputs flowing and is the whole commit.
    IMPELLER_RETURN_IF_ERROR(MaybeFlush(true));
    EndCommit();
    return OkStatus();
  }
  if (!epoch_dirty_ && output_buffer_.empty() &&
      CurrentInputEnds() == last_input_ends_) {
    EndCommit();  // idle epoch: nothing to commit
    return OkStatus();
  }
  commit_span_.Open();
  IMPELLER_RETURN_IF_ERROR(MaybeFlush(true));
  // No input is polled until the marker or transaction request is issued,
  // so the input ends it records are exactly those of the flushed epoch.
  commit_stage_ = CommitStage::kFlushed;
  return OkStatus();
}

Status TaskRuntime::CommitProgressMarking() {
  if (MaybeInjectCrash("task/commit/pre_marker")) {
    // Outputs are durable but the marker is not: the epoch is uncommitted
    // and must be re-executed by the replacement instance.
    return UnavailableError("injected crash before marker append");
  }
  auto ends = CurrentInputEnds();
  ProgressMarker marker;
  marker.marker_seq = marker_seq_;
  marker.input_ends = ends;
  marker.outputs_from = epoch_first_output_;
  marker.changelog_from = epoch_first_changelog_;

  RecordHeader header;
  header.type = RecordType::kProgressMarker;
  header.producer = task_id_;
  header.instance = wiring_.instance;
  header.seq = ++out_seq_;

  AppendRequest req;
  req.tags = DownstreamMarkerTags();
  req.cond_key = InstanceMetaKey(task_id_);
  req.cond_value = wiring_.instance;
  req.payload = EncodeEnvelope(header, EncodeProgressMarker(marker));

  // Retried through the batch API: AdmitBatch leaves the request intact on
  // transient failure, so a retry re-appends the identical marker. The
  // marker is admitted, not awaited: its ack joins pending_ack_at_.
  std::vector<AppendRequest> marker_batch;
  marker_batch.push_back(std::move(req));
  auto admitted = retrier_.Run(
      "marker_append", [&] { return wiring_.log->AdmitBatch(marker_batch); });
  if (!admitted.ok()) {
    return admitted.status();  // kFenced: this instance is a zombie
  }
  pending_ack_at_ = std::max(pending_ack_at_, admitted->ack_at);
  Lsn marker_lsn = admitted->lsns[0];
  commit_span_.Close("protocol", "commit_marker");
  if (MaybeInjectCrash("task/commit/post_marker")) {
    // The marker is in the log but this instance dies before acknowledging
    // it: the exit waits out the marker's ack, so the replacement recovers
    // exactly to this marker's cut and resumes — the committed-but-unacked
    // case of §3.3.4.
    return UnavailableError("injected crash after marker append");
  }
  markers_written_.fetch_add(1);
  ++marker_seq_;
  last_input_ends_ = std::move(ends);
  epoch_first_output_ = kInvalidLsn;
  epoch_first_changelog_ = kInvalidLsn;
  epoch_dirty_ = false;
  epoch_touched_tags_.clear();
  ResetEpochScratch();
  if (wiring_.gc != nullptr) {
    wiring_.gc->PublishFloor(task_id_ + "/marker", marker_lsn);
  }
  PublishGcFloors();
  EndCommit();
  return OkStatus();
}

Status TaskRuntime::CommitKafkaTxn() {
  if (wiring_.txn_coordinator == nullptr) {
    return InternalError("kafka-txn protocol without a coordinator");
  }
  auto ends = CurrentInputEnds();
  TxnRequest req;
  req.task_id = task_id_;
  req.instance = wiring_.instance;
  req.output_tags.assign(epoch_touched_tags_.begin(),
                         epoch_touched_tags_.end());
  req.task_log_tag = TaskLogTag(task_id_);
  req.input_ends = ends;
  req.changelog_from = epoch_first_changelog_;

  auto phase_one = wiring_.txn_coordinator->BeginTransaction(std::move(req));
  if (!phase_one.ok()) {
    return phase_one.status();  // kFenced: superseded instance
  }
  txn_phase_one_ = std::move(*phase_one);
  commit_stage_ = CommitStage::kPhaseOne;
  last_input_ends_ = std::move(ends);
  epoch_first_output_ = kInvalidLsn;
  epoch_first_changelog_ = kInvalidLsn;
  epoch_dirty_ = false;
  epoch_touched_tags_.clear();
  ResetEpochScratch();
  PublishGcFloors();
  return OkStatus();
}

// --- Aligned checkpointing ---

bool TaskRuntime::IsBlocked(size_t slot, std::string_view producer) const {
  // Only reached while an alignment is in progress, so materializing the
  // producer key here is off the steady-state path.
  return blocked_channels_.count({slot, "*"}) != 0 ||
         blocked_channels_.count({slot, std::string(producer)}) != 0;
}

void TaskRuntime::OnBarrier(size_t slot, const std::string& producer,
                            uint64_t checkpoint_id, Lsn lsn) {
  if (wiring_.config.protocol != ProtocolKind::kAlignedCheckpoint) {
    return;
  }
  TRACE_INSTANT("protocol", "barrier");
  if (checkpoint_id <= last_completed_ckpt_) {
    return;  // stale barrier from before our recovery point
  }
  if (align_ckpt_id_ != 0 && checkpoint_id != align_ckpt_id_) {
    // The coordinator abandoned the previous round; unblock and restart.
    LOG_WARN << task_id_ << ": abandoning checkpoint " << align_ckpt_id_
             << " for " << checkpoint_id;
    blocked_channels_.clear();
    auto pending = std::move(sidelined_);
    sidelined_.clear();
    align_ckpt_id_ = 0;
    for (auto& [pslot, record] : pending) {
      ProcessReady(pslot, std::move(record));
    }
  }
  if (align_ckpt_id_ == 0) {
    align_ckpt_id_ = checkpoint_id;
    barriers_arrived_.assign(readers_.size(), 0);
    align_cursor_snapshot_.assign(readers_.size(), kInvalidLsn);
  }
  if (align_cursor_snapshot_[slot] == kInvalidLsn) {
    align_cursor_snapshot_[slot] = lsn + 1;
  }
  blocked_channels_.insert(
      {slot, input_external_[slot] ? std::string("*") : producer});
  barriers_arrived_[slot]++;

  for (size_t i = 0; i < readers_.size(); ++i) {
    if (barriers_arrived_[i] < expected_barriers_[i]) {
      return;
    }
  }
  Status st = CompleteAlignment();
  if (!st.ok()) {
    LOG_WARN << task_id_ << ": checkpoint " << align_ckpt_id_
             << " failed: " << st.ToString();
  }
}

Status TaskRuntime::CompleteAlignment() {
  TRACE_SPAN("protocol", "align_checkpoint");
  uint64_t id = align_ckpt_id_;
  // As at a commit (BeginCommit): what operators hold back joins the flush
  // before the snapshot, or a task restored from it would owe that output.
  for (size_t i = 0; i < operators_.size(); ++i) {
    operators_[i]->OnCommit(collectors_[i].get());
  }
  IMPELLER_RETURN_IF_ERROR(MaybeFlush(true));
  // The snapshot and the forwarded barriers must follow durable outputs.
  // This is the one ack a task step still blocks on.
  wiring_.log->AwaitAck(pending_ack_at_);

  // Synchronous snapshot to the checkpoint store: state stores, the dedup
  // sequence map, input cursors, and the output sequence counter (so
  // re-executed outputs are byte-identical and deduplicable downstream).
  std::map<std::string, std::string> sections;
  for (const auto& [name, store] : stores_) {
    sections["store/" + name] = store->SerializeSnapshot();
  }
  sections["seqmap"] = tracker_.SerializeSeqMap();
  {
    BinaryWriter w;
    w.WriteVarU64(out_seq_);
    sections["outseq"] = w.Take();
  }
  {
    BinaryWriter w;
    w.WriteVarU64(readers_.size());
    for (size_t i = 0; i < readers_.size(); ++i) {
      w.WriteString(readers_[i]->tag());
      Lsn cur = align_cursor_snapshot_[i] != kInvalidLsn
                    ? align_cursor_snapshot_[i]
                    : readers_[i]->next_lsn();
      w.WriteVarU64(cur);
    }
    sections["cursors"] = w.Take();
  }
  IMPELLER_RETURN_IF_ERROR(wiring_.checkpoint_store->Put(
      AlignedSnapshotKey(task_id_, id), EncodeSnapshot(sections)));
  if (MaybeInjectCrash("task/checkpoint/mid")) {
    // Snapshot stored but barriers never forwarded: the round times out at
    // the coordinator, downstream unblocks on the next round's barriers, and
    // recovery falls back to the last *completed* checkpoint.
    return UnavailableError("injected crash mid-checkpoint");
  }

  // Forward the barrier to every downstream substream (not egress: nothing
  // aligns there).
  std::vector<AppendRequest> batch;
  for (size_t out_idx = 0; out_idx < wiring_.stage->outputs.size();
       ++out_idx) {
    if (output_is_egress_[out_idx]) {
      continue;
    }
    const OutputSpec& out = wiring_.stage->outputs[out_idx];
    const StreamSpec& stream = wiring_.plan->streams.at(out.stream);
    for (uint32_t sub = 0; sub < stream.num_substreams; ++sub) {
      BarrierBody body;
      body.checkpoint_id = id;
      RecordHeader header;
      header.type = RecordType::kBarrier;
      header.producer = task_id_;
      header.instance = wiring_.instance;
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
    auto lsns = retrier_.Run(
        "barrier_forward", [&] { return wiring_.log->AppendBatch(batch); });
    if (!lsns.ok()) {
      return lsns.status();
    }
  }
  if (wiring_.barrier_coordinator != nullptr) {
    wiring_.barrier_coordinator->AckCheckpoint(task_id_, id);
  }
  if (wiring_.gc != nullptr) {
    for (size_t i = 0; i < readers_.size(); ++i) {
      if (align_cursor_snapshot_[i] != kInvalidLsn) {
        wiring_.gc->PublishFloor(task_id_ + "/in/" + readers_[i]->tag(),
                                 align_cursor_snapshot_[i]);
      }
    }
  }
  last_completed_ckpt_ = id;
  align_ckpt_id_ = 0;
  blocked_channels_.clear();
  auto pending = std::move(sidelined_);
  sidelined_.clear();
  for (auto& [slot, record] : pending) {
    ProcessReady(slot, std::move(record));
  }
  ResetEpochScratch();
  return OkStatus();
}

// --- Main loop (cooperative state machine) ---

sched::StepResult TaskRuntime::Step() {
  switch (phase_) {
    case Phase::kInit:
      return StepInit();
    case Phase::kRunning:
      return StepRunning();
    case Phase::kDraining:
      return StepDraining();
    case Phase::kTail:
      return FinishWithTail();
    case Phase::kExiting:
      return FinishEpilogue();
    case Phase::kDone:
      return sched::StepResult::Done();
  }
  return sched::StepResult::Done();
}

sched::StepResult TaskRuntime::StepInit() {
  heartbeat_.store(wiring_.clock->Now());
  Status st = Recover();
  started_.store(true);
  if (!st.ok()) {
    LOG_ERROR << task_id_ << ": recovery failed: " << st.ToString();
    {
      std::lock_guard<std::mutex> lock(status_mu_);
      final_status_ = st;
    }
    phase_ = Phase::kDone;
    finished_.store(true);
    return sched::StepResult::Done();
  }
  const EngineConfig& cfg = wiring_.config;
  TimeNs now = wiring_.clock->Now();
  // Each task's first commit lands at its own hash-chosen point of the
  // interval. Tasks start together and keep equal cadences, so otherwise
  // every continuously fed source commits at the same instant. Consumers
  // mostly commit in waves behind their producers, and sources fed in
  // bursts right after each burst (RunCadence); for them this is only the
  // first fallback deadline. Silence before a first burst counts from now.
  next_commit_ =
      now + (cfg.commit_interval > 0
                 ? static_cast<DurationNs>(
                       Fnv1a(task_id_) %
                       static_cast<uint64_t>(cfg.commit_interval))
                 : 0);
  last_input_at_ = now;
  next_timer_ = now + cfg.timer_interval;
  next_flush_ = now + cfg.output_flush_interval;
  run_status_ = OkStatus();
  phase_ = Phase::kRunning;
  return sched::StepResult::Ready();
}

sched::StepResult TaskRuntime::StepRunning() {
  const EngineConfig& cfg = wiring_.config;
  if (ShouldExit()) {
    if (Crashed() || !run_status_.ok()) {
      return FinishEpilogue();
    }
    // Graceful stop: drain remaining committed input (the task manager
    // stops stages in topological order, so upstream cuts are already
    // final), then flush and commit a final cut of our own.
    drain_quiet_ =
        std::max<DurationNs>(2 * cfg.poll_interval, 20 * kMillisecond);
    drain_deadline_ = wiring_.clock->Now() + 3 * kSecond;
    drain_quiet_until_ = wiring_.clock->Now() + drain_quiet_;
    phase_ = Phase::kDraining;
    return sched::StepResult::Ready();
  }
  heartbeat_.store(wiring_.clock->Now(), std::memory_order_relaxed);
  // An unacked append or an unfinished commit outranks new input.
  auto wait = AdvanceCommit();
  if (!wait.ok()) {
    run_status_ = wait.status();
    return FinishEpilogue();
  }
  if (*wait > 0) {
    return sched::StepResult::Idle(*wait);
  }
  auto polled = PollInputs();
  if (!polled.ok()) {
    run_status_ = polled.status();
    return FinishEpilogue();
  }
  PublishProgress();
  wait = RunCadence(*polled);
  if (!wait.ok()) {
    run_status_ = wait.status();
    return FinishEpilogue();
  }
  if (*wait > 0) {
    return sched::StepResult::Idle(*wait);
  }
  if (*polled == 0) {
    return sched::StepResult::Idle(cfg.poll_interval);
  }
  return sched::StepResult::Ready();
}

sched::StepResult TaskRuntime::StepDraining() {
  const EngineConfig& cfg = wiring_.config;
  heartbeat_.store(wiring_.clock->Now(), std::memory_order_relaxed);
  TimeNs now = wiring_.clock->Now();
  if (Crashed() || !run_status_.ok() || now >= drain_deadline_ ||
      now >= drain_quiet_until_) {
    return FinishWithTail();
  }
  auto wait = AdvanceCommit();
  if (!wait.ok()) {
    run_status_ = wait.status();
    return FinishWithTail();
  }
  if (*wait > 0) {
    return sched::StepResult::Idle(*wait);
  }
  auto polled = PollInputs();
  if (!polled.ok()) {
    run_status_ = polled.status();
    return FinishWithTail();
  }
  // Keep the output cadence alive while draining: a rescale drain against a
  // live producer can last the full deadline (the inputs never go quiet),
  // and withholding every flush/commit until FinishWithTail would stall
  // downstream consumers for that whole window. Intermediate commits are
  // ordinary commits — the final cut still covers whatever remains.
  wait = RunCadence(*polled);
  if (!wait.ok()) {
    run_status_ = wait.status();
    return FinishWithTail();
  }
  if (*polled > 0) {
    drain_quiet_until_ = wiring_.clock->Now() + drain_quiet_;
  }
  if (*wait > 0) {
    return sched::StepResult::Idle(*wait);
  }
  if (*polled > 0) {
    return sched::StepResult::Ready();
  }
  return sched::StepResult::Idle(cfg.poll_interval);
}

Result<DurationNs> TaskRuntime::RunCadence(size_t polled) {
  const EngineConfig& cfg = wiring_.config;
  TimeNs now = wiring_.clock->Now();
  if (polled > 0 && uses_markers_ && !commit_gated_) {
    if (now - last_input_at_ >= cfg.commit_interval / 2) {
      in_burst_ = true;
    }
    last_input_at_ = now;
  }
  if (now >= next_timer_) {
    RunTimers(now);
    next_timer_ = now + cfg.timer_interval;
  }
  bool force_flush = now >= next_flush_;
  if (force_flush) {
    next_flush_ = now + cfg.output_flush_interval;
  }
  IMPELLER_RETURN_IF_ERROR(MaybeFlush(force_flush));
  if (commit_stage_ != CommitStage::kIdle) {
    return AdvanceCommit();
  }
  // The poll stopped short of its limit: it took in all input there was.
  const bool drained = polled < readers_.size() * cfg.max_records_per_poll;
  now = wiring_.clock->Now();
  if (now >= next_commit_) {
    if (now - next_commit_ >= cfg.commit_interval) {
      // A full interval late: the task cannot keep its commit cadence —
      // the backpressure signal the autoscaler watches.
      commit_overruns_.fetch_add(1, std::memory_order_relaxed);
      if (wiring_.metrics != nullptr) {
        wiring_.metrics->GetCounter("task/commit_overruns")->Add();
      }
    }
    commit_stage_ = CommitStage::kDue;
  } else if (drained && commit_gated_ &&
             tracker_.AllCommittedSince(wave_generation_)) {
    // Commit wave: every producer has committed since our last commit and
    // this poll took in all their commits released. Committing now makes
    // that input readable downstream after one commit, instead of after a
    // wait for our own timer.
    if (wiring_.metrics != nullptr) {
      wiring_.metrics->GetCounter("task/commits_on_wave")->Add();
    }
    commit_stage_ = CommitStage::kDue;
  } else if (drained && in_burst_) {
    // A source has taken in an input burst that followed a silence: commit
    // it now rather than at a timer whose phase ignores the input's.
    if (wiring_.metrics != nullptr) {
      wiring_.metrics->GetCounter("task/commits_on_burst")->Add();
    }
    commit_stage_ = CommitStage::kDue;
  }
  return AdvanceCommit();
}

sched::StepResult TaskRuntime::FinishWithTail() {
  if (phase_ != Phase::kTail) {
    phase_ = Phase::kTail;
    tail_status_ = MaybeFlush(true);
    if (commit_stage_ == CommitStage::kIdle) {
      commit_stage_ = CommitStage::kDue;
    }
  }
  if (tail_status_.ok()) {
    auto wait = AdvanceCommit();
    if (!wait.ok()) {
      tail_status_ = wait.status();
    } else if (*wait > 0) {
      return sched::StepResult::Idle(*wait);
    }
  }
  if (tail_status_.ok() && txn_inflight_.valid()) {
    if (txn_inflight_.wait_for(std::chrono::seconds(0)) !=
        std::future_status::ready) {
      return sched::StepResult::Idle(wiring_.config.poll_interval);
    }
    tail_status_ = txn_inflight_.get();
    txn_inflight_ = {};
  }
  if (!tail_status_.ok() && run_status_.ok()) {
    run_status_ = tail_status_;
  }
  return FinishEpilogue();
}

sched::StepResult TaskRuntime::FinishEpilogue() {
  phase_ = Phase::kExiting;
  // Crashed and fenced exits too: never report Done while an admitted
  // append is unacked, so a replacement's ReadLast sees all of it.
  TimeNs now = wiring_.clock->Now();
  if (now < pending_ack_at_) {
    return sched::StepResult::Idle(pending_ack_at_ - now);
  }
  if (Crashed() && run_status_.ok()) {
    run_status_ = UnavailableError("task crashed (simulated server failure)");
  }
  if (!run_status_.ok() && run_status_.code() != StatusCode::kFenced &&
      !Crashed()) {
    LOG_WARN << task_id_ << " exited: " << run_status_.ToString();
  }
  {
    std::lock_guard<std::mutex> lock(status_mu_);
    final_status_ = run_status_;
  }
  phase_ = Phase::kDone;
  finished_.store(true);
  return sched::StepResult::Done();
}

}  // namespace impeller
