#include "src/core/task_runtime.h"

#include <algorithm>

#include "src/common/hash.h"
#include "src/common/logging.h"
#include "src/common/serde.h"
#include "src/core/stream.h"
#include "src/fault/fault.h"
#include "src/obs/alloc_stats.h"
#include "src/obs/trace.h"

namespace impeller {

namespace {

// Output buffer size: appends are batched until this many bytes or the
// commit point, whichever comes first (the paper's 128 KiB, §5.1).
constexpr size_t kOutputBufferBytes = 128 * 1024;

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
      capture_changes_(wiring_.protocols->read_committed() &&
                       wiring_.stage->stateful),
      tracker_(wiring_.protocols->read_committed()),
      retrier_(wiring_.config.retry,
               wiring_.instance * 0x9E3779B97F4A7C15ull + wiring_.index,
               wiring_.clock, wiring_.metrics),
      output_buffer_(wiring_.log, kOutputBufferBytes, &retrier_),
      protocol_(wiring_.protocols->ForTask(*this)) {
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
  epoch_.touched_tags.insert(changelog_tag_);
  epoch_.dirty = true;
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
  epoch_.touched_tags.insert(tags[sub]);
  epoch_.dirty = true;
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
      commit_gated_ = commit_gated_ ||
                      (tracker_.read_committed() && !stream.external);
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

  for (size_t i = 0; i < operators_.size(); ++i) {
    operators_[i]->Open(this);
  }

  IMPELLER_RETURN_IF_ERROR(protocol_->Recover());

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
  for (auto& reader : readers_) {
    auto it = wiring_.initial_input_ends.find(reader->tag());
    if (it != wiring_.initial_input_ends.end() &&
        it->second != kInvalidLsn && it->second + 1 > reader->next_lsn()) {
      reader->Restore(it->second + 1, it->second);
    }
  }

  last_input_ends_ = CurrentInputEnds();
  PublishGcFloors();
  PublishProgress();
  recovery_stats_.duration = wiring_.clock->Now() - t0;
  return OkStatus();
}

void TaskRuntime::SeekInput(std::string_view tag, Lsn next_lsn, Lsn floor) {
  for (auto& reader : readers_) {
    if (reader->tag() == tag) {
      reader->Restore(next_lsn, floor);
    }
  }
}

std::map<std::string, std::string> TaskRuntime::Snapshot() const {
  std::map<std::string, std::string> sections;
  for (const auto& [name, store] : stores_) {
    sections["store/" + name] = store->SerializeSnapshot();
  }
  sections["seqmap"] = tracker_.SerializeSeqMap();
  BinaryWriter w;
  w.WriteVarU64(out_seq_);
  sections["outseq"] = w.Take();
  return sections;
}

uint64_t TaskRuntime::RelogState() {
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
  return bytes;
}

DirectHandoff::Source TaskRuntime::ExportHandoff() const {
  DirectHandoff::Source src;
  src.task_id = task_id_;
  src.default_substream = wiring_.index;
  src.sections = Snapshot();
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

// --- Input path ---

Result<size_t> TaskRuntime::PollInputs() {
  size_t total = 0;
  for (size_t slot = 0; slot < readers_.size(); ++slot) {
    // Only a crash aborts mid-poll: a graceful stop still drains (the
    // shutdown path relies on polling remaining committed input).
    if (Crashed()) {
      break;
    }
    ready_scratch_.clear();
    IMPELLER_ASSIGN_OR_RETURN(
        size_t n, protocol_->Read(slot, *readers_[slot], ready_scratch_));
    total += n;
  }
  return total;
}

void TaskRuntime::ProcessReady(size_t slot, ReadyRecord record) {
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
  epoch_.dirty = true;
  // State written while this record runs is owned by its input substream
  // (the ownership unit of rescaling); timer writes stay unowned.
  current_substream_ = reader_substreams_[slot];
  {
    TRACE_SPAN("task", "process_record");
    operators_[0]->Process(record.input, std::move(rec), collectors_[0].get());
  }
  current_substream_ = kUnownedSubstream;
}

void TaskRuntime::RunTimers(TimeNs now) {
  TRACE_SPAN("task", "timers");
  for (size_t i = 0; i < operators_.size(); ++i) {
    operators_[i]->OnTimer(now, collectors_[i].get());
  }
}

// --- Output / commit path ---

Status TaskRuntime::MaybeFlush(bool force) {
  if (output_buffer_.empty()) {
    return OkStatus();
  }
  if (!force && !output_buffer_.NeedsFlush()) {
    return OkStatus();
  }
  auto may = protocol_->MayFlush();
  if (!may.ok() || !*may) {
    return may.status();
  }
  if (MaybeInjectCrash("task/flush/pre")) {
    return UnavailableError("injected crash before flush");
  }
  TRACE_SPAN("task", "flush");
  IMPELLER_ASSIGN_OR_RETURN(OutputBuffer::FlushResult result,
                            output_buffer_.Flush());
  if (epoch_.first_output == kInvalidLsn) {
    epoch_.first_output = result.first_output;
  }
  if (epoch_.first_changelog == kInvalidLsn) {
    epoch_.first_changelog = result.first_changelog;
  }
  Admitted(result.ack_at);
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

DurationNs TaskRuntime::AckWait() const {
  TimeNs now = wiring_.clock->Now();
  return now < pending_ack_at_ ? pending_ack_at_ - now : 0;
}

void TaskRuntime::RunCommitHooks() {
  for (size_t i = 0; i < operators_.size(); ++i) {
    operators_[i]->OnCommit(collectors_[i].get());
  }
}

bool TaskRuntime::EpochIdle() const {
  return !epoch_.dirty && output_buffer_.empty() &&
         CurrentInputEnds() == last_input_ends_;
}

void TaskRuntime::SealEpoch(
    std::vector<std::pair<std::string, Lsn>> input_ends) {
  last_input_ends_ = std::move(input_ends);
  epoch_ = Epoch{};
  ResetEpochScratch();
  PublishGcFloors();
}

void TaskRuntime::CommitEnded() {
  next_commit_ = wiring_.clock->Now() + wiring_.config.commit_interval;
  wave_generation_ = tracker_.generation();
  in_burst_ = false;
}

// --- Main loop (cooperative state machine) ---

sched::StepResult TaskRuntime::Step() {
  switch (phase_) {
    case Phase::kInit:
      return StepInit();
    case Phase::kRunning:
    case Phase::kDraining:
      return StepPolling();
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

sched::StepResult TaskRuntime::StepPolling() {
  const bool draining = phase_ == Phase::kDraining;
  TimeNs now = wiring_.clock->Now();
  if (!draining && ShouldExit()) {
    if (Crashed() || !run_status_.ok()) {
      return FinishEpilogue();
    }
    // Graceful stop: drain remaining committed input (the task manager
    // stops stages in topological order, so upstream cuts are already
    // final), then flush and commit a final cut of our own.
    drain_quiet_ = std::max<DurationNs>(2 * kPollInterval, 20 * kMillisecond);
    drain_deadline_ = now + 3 * kSecond;
    drain_quiet_until_ = now + drain_quiet_;
    phase_ = Phase::kDraining;
    return sched::StepResult::Ready();
  }
  if (draining && (Crashed() || !run_status_.ok() || now >= drain_deadline_ ||
                   now >= drain_quiet_until_)) {
    return FinishWithTail();
  }
  Heartbeat();
  // A failed step ends the task: a drain still commits its final cut.
  auto fail = [&](Status st) {
    run_status_ = std::move(st);
    return draining ? FinishWithTail() : FinishEpilogue();
  };
  // An unacked append or an unfinished commit outranks new input.
  auto wait = protocol_->Advance();
  if (!wait.ok()) {
    return fail(wait.status());
  }
  if (*wait > 0) {
    return sched::StepResult::Idle(*wait);
  }
  auto polled = PollInputs();
  if (!polled.ok()) {
    return fail(polled.status());
  }
  PublishProgress();
  // The drain keeps the output cadence alive too: a rescale drain against a
  // live producer can last the full deadline (the inputs never go quiet),
  // and withholding every flush/commit until FinishWithTail would stall
  // downstream consumers for that whole window. Intermediate commits are
  // ordinary commits — the final cut still covers whatever remains.
  wait = RunCadence(*polled);
  if (!wait.ok()) {
    return fail(wait.status());
  }
  if (draining && *polled > 0) {
    drain_quiet_until_ = wiring_.clock->Now() + drain_quiet_;
  }
  if (*wait > 0) {
    return sched::StepResult::Idle(*wait);
  }
  return *polled > 0 ? sched::StepResult::Ready()
                     : sched::StepResult::Idle(kPollInterval);
}

Result<DurationNs> TaskRuntime::RunCadence(size_t polled) {
  const EngineConfig& cfg = wiring_.config;
  TimeNs now = wiring_.clock->Now();
  if (polled > 0 && tracker_.read_committed() && !commit_gated_) {
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
  if (protocol_->committing()) {
    return protocol_->Advance();
  }
  // The poll stopped short of its limit: it took in all input there was.
  const bool drained = polled < readers_.size() * kMaxRecordsPerPoll;
  if (commit_gated_ && wiring_.retired != nullptr &&
      wiring_.retired->version.load() != retired_version_) {
    // A scale-down retired producers: waves stop waiting for them.
    std::lock_guard<std::mutex> lock(wiring_.retired->mu);
    retired_version_ = wiring_.retired->version.load();
    tracker_.SetRetired(wiring_.retired->ids);
  }
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
    protocol_->MakeDue();
  } else if (drained && commit_gated_ &&
             tracker_.AllCommittedSince(wave_generation_)) {
    // Commit wave: every producer has committed since our last commit and
    // this poll took in all their commits released. Committing now makes
    // that input readable downstream after one commit, instead of after a
    // wait for our own timer.
    if (wiring_.metrics != nullptr) {
      wiring_.metrics->GetCounter("task/commits_on_wave")->Add();
    }
    protocol_->MakeDue();
  } else if (drained && in_burst_) {
    // A source has taken in an input burst that followed a silence: commit
    // it now rather than at a timer whose phase ignores the input's.
    if (wiring_.metrics != nullptr) {
      wiring_.metrics->GetCounter("task/commits_on_burst")->Add();
    }
    protocol_->MakeDue();
  }
  return protocol_->Advance();
}

sched::StepResult TaskRuntime::FinishWithTail() {
  if (phase_ != Phase::kTail) {
    phase_ = Phase::kTail;
    tail_status_ = MaybeFlush(true);
    protocol_->MakeDue();
  }
  if (tail_status_.ok()) {
    auto wait = protocol_->Advance();
    if (wait.ok() && *wait == 0) {
      wait = protocol_->TailWait();
    }
    if (!wait.ok()) {
      tail_status_ = wait.status();
    } else if (*wait > 0) {
      return sched::StepResult::Idle(*wait);
    }
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
