// TaskRuntime: one unit of execution (paper Table 1). A task runs a stage's
// operator chain over its input substreams, writes outputs and change-log
// records through a batched output buffer, and keeps one commit cadence: a
// commit is due on an interval timer, or, for a consumer of committed
// input, in a wave right behind its producers' commits, or, for a source,
// right behind an input burst.
//
// What a due commit does, and how the task recovers on its first step, is
// its CommitProtocol's (src/core/commit_protocol.h), one strategy per file:
//   * progress marking (Impeller, §3.3) — progress_marking.cc;
//   * Kafka Streams transactions (§3.6) — kafka_txn.cc;
//   * aligned checkpointing (§5.1) — aligned_checkpoint.cc;
//   * unsafe, no progress tracking (§5.3.4) — unsafe_protocol.cc.
// The runtime names no protocol; the strategy uses the host section below.
#ifndef IMPELLER_SRC_CORE_TASK_RUNTIME_H_
#define IMPELLER_SRC_CORE_TASK_RUNTIME_H_

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "src/common/arena.h"
#include "src/common/metrics.h"
#include "src/common/retry.h"
#include "src/core/commit_protocol.h"
#include "src/core/commit_tracker.h"
#include "src/core/config.h"
#include "src/core/gc.h"
#include "src/core/operator.h"
#include "src/core/output_buffer.h"
#include "src/core/query.h"
#include "src/core/substream_reader.h"
#include "src/kvstore/kv_store.h"
#include "src/sched/scheduler.h"
#include "src/sharedlog/shared_log.h"

namespace impeller {

// One source task of a stateful rescale handoff under a marker protocol:
// the new generation replays the source's changelog up to its final cut and
// claims the entries of its own substream range. `default_substream`
// attributes unowned entries (timer writes) to the source's own substream.
struct HandoffSource {
  std::string task_id;
  uint32_t default_substream = 0;
  Lsn cut_lsn = kInvalidLsn;  // LSN of the source's final cut
};

// Direct state handoff for protocols without a changelog (aligned
// checkpointing / unsafe): the manager exports each gracefully stopped
// task's snapshot (stores and counters) in memory and hands it to the new
// generation. An overlapping task id continues its output sequence — the
// downstream dedup map is keyed (substream, producer) without the instance,
// so a reset sequence would be swallowed as duplicates.
struct DirectHandoff {
  struct Source {
    std::string task_id;
    uint32_t default_substream = 0;
    std::map<std::string, std::string> sections;  // TaskRuntime::Snapshot
    std::vector<std::pair<std::string, Lsn>> input_ends;
  };
  std::vector<Source> sources;
  // Aligned: the latest completed checkpoint id when the handoff was taken.
  // A later completed checkpoint supersedes the handoff on recovery.
  uint64_t completed_ckpt_at_handoff = 0;
};

// Task ids a scale-down retired. The manager rewrites `ids` and bumps
// `version`; a task re-reads `ids` when the version moved, so its commit
// waves stop waiting for producers that never commit again.
struct RetiredTasks {
  mutable std::mutex mu;
  std::set<std::string> ids;  // guarded by mu
  std::atomic<uint64_t> version{0};
};

struct TaskWiring {
  const QueryPlan* plan = nullptr;
  const StageSpec* stage = nullptr;
  uint32_t index = 0;
  uint64_t instance = 1;
  SharedLog* log = nullptr;
  KvStore* checkpoint_store = nullptr;
  EngineConfig config;
  MetricsRegistry* metrics = nullptr;
  Clock* clock = nullptr;
  const ProtocolFactory* protocols = nullptr;
  GcRegistry* gc = nullptr;                   // optional
  const RetiredTasks* retired = nullptr;      // optional
  // Rescale handoff: input-substream ends (tag -> last consumed LSN)
  // gathered from the previous generation's final markers; overrides the
  // marker-derived cursors of this task's own log during recovery.
  std::map<std::string, Lsn> initial_input_ends;
  // Stateful rescale, marker protocols: old-generation tasks whose
  // changelogs hold this task's acquired substream ranges. Retained by the
  // manager and re-passed on restarts until the handoff is sealed by this
  // task's first post-rescale cut.
  std::vector<HandoffSource> handoff_sources;
  // Stateful rescale, aligned/unsafe: in-memory state export of the stopped
  // old generation.
  std::shared_ptr<const DirectHandoff> direct_handoff;
};

struct RecoveryStats {
  bool performed = false;
  bool used_checkpoint = false;
  DurationNs duration = 0;
  uint64_t changelog_entries_read = 0;
  uint64_t changes_applied = 0;
  // Stateful rescale: bytes of keyed state this task acquired and
  // re-appended into its own changelog during the handoff.
  uint64_t handoff_state_bytes = 0;
};

class TaskRuntime final : public OperatorContext {
 public:
  // Entries a reader takes in per poll, and a step's wait when no input was
  // ready.
  static constexpr size_t kMaxRecordsPerPoll = 512;
  static constexpr DurationNs kPollInterval = kMillisecond;

  explicit TaskRuntime(TaskWiring wiring);
  ~TaskRuntime() override;

  // One cooperative slice of the task's lifecycle, driven by the engine's
  // work-stealing scheduler: recover on the first step, then poll/flush/
  // commit slices until stopped, crashed, or fenced; a graceful stop drains
  // remaining committed input before the final cut. Returns kIdle with the
  // poll interval when no input was ready, kDone after the final status is
  // published.
  sched::StepResult Step();

  // Graceful stop: final flush + commit, then exit.
  void RequestStop() { stop_.store(true); }

  // Simulated server failure: the loop exits at the next iteration without
  // flushing anything; in-memory state is abandoned.
  void Crash() { crashed_.store(true); }

  uint64_t instance() const { return wiring_.instance; }
  bool started() const { return started_.load(); }
  bool finished() const { return finished_.load(); }
  TimeNs last_heartbeat() const { return heartbeat_.load(); }
  Status final_status() const;
  RecoveryStats recovery_stats() const { return recovery_stats_; }
  uint64_t records_processed() const { return records_processed_.load(); }
  uint64_t markers_written() const { return markers_written_.load(); }
  // Commits that landed at least a full interval late (backpressure signal
  // for the autoscaler).
  uint64_t commit_overruns() const { return commit_overruns_.load(); }

  // Thread-safe snapshot of per-input-substream consumed floors
  // (tag -> committed floor LSN); the autoscaler's lag probe. Empty until
  // recovery completes.
  std::vector<std::pair<std::string, Lsn>> InputProgress() const;

  // Exports stores + counters for a direct (aligned/unsafe) rescale
  // handoff. Call only after the task finished gracefully.
  DirectHandoff::Source ExportHandoff() const;

  // --- OperatorContext ---
  MapStateStore* GetStore(std::string_view name) override;
  Clock* clock() override { return wiring_.clock; }
  const std::string& task_id() const override { return task_id_; }
  uint32_t task_index() const override { return wiring_.index; }
  MetricsRegistry* metrics() override { return wiring_.metrics; }
  TimeNs max_event_time() const override { return max_event_time_; }

  // --- Host of the task's CommitProtocol (touched only from its steps) ---

  // What the outputs since the last commit cover: the epoch a commit seals.
  struct Epoch {
    Lsn first_output = kInvalidLsn;
    Lsn first_changelog = kInvalidLsn;
    bool dirty = false;
    std::set<std::string> touched_tags;
  };

  const TaskWiring& wiring() const { return wiring_; }
  bool captures_changes() const { return capture_changes_; }
  const std::vector<std::unique_ptr<SubstreamReader>>& readers() const {
    return readers_;
  }
  // Repositions the reader of substream `tag`, if this task reads it.
  void SeekInput(std::string_view tag, Lsn next_lsn, Lsn floor);
  std::vector<std::pair<std::string, Lsn>> CurrentInputEnds() const;
  // Keeps entries of this task's substream range (task i of T owns every
  // substream s with s % T == i); unowned entries are attributed to
  // `default_substream` (and normalized to it).
  bool ClaimOwner(uint32_t& owner, uint32_t default_substream) const {
    if (owner == kUnownedSubstream) {
      owner = default_substream;
    }
    return owner % wiring_.stage->num_tasks == wiring_.index;
  }
  void ProcessReady(size_t slot, ReadyRecord record);

  CommitTracker& tracker() { return tracker_; }
  uint64_t& out_seq() { return out_seq_; }
  RecoveryStats& recovery() { return recovery_stats_; }
  // Snapshot sections: "store/<name>" per state store, the dedup map
  // ("seqmap") and the output sequence ("outseq").
  std::map<std::string, std::string> Snapshot() const;
  // Re-appends every state entry to this task's changelog; returns bytes.
  uint64_t RelogState();

  // Operators emit what they hold back for a commit (eager window panes).
  void RunCommitHooks();
  // Admits every buffered record now.
  Status Flush() { return MaybeFlush(true); }
  size_t buffered_bytes() const { return output_buffer_.pending_bytes(); }
  // pending_ack_at() is the latest ack time over every batch this instance
  // admitted; AckWait() the time left until it.
  TimeNs pending_ack_at() const { return pending_ack_at_; }
  DurationNs AckWait() const;
  void Admitted(TimeNs ack_at) {
    pending_ack_at_ = std::max(pending_ack_at_, ack_at);
  }
  const Epoch& epoch() const { return epoch_; }
  // Nothing to commit: no record processed or emitted and no input end
  // moved since the last commit.
  bool EpochIdle() const;
  // The epoch is committed up to `input_ends`: starts the next one.
  void SealEpoch(std::vector<std::pair<std::string, Lsn>> input_ends);
  void ResetEpochScratch() { record_pool_.Trim(/*keep=*/16); }
  // The commit is over (or skipped): the cadence restarts from now, and the
  // next wave waits for producer commits after this one.
  void CommitEnded();
  void CountCommit() { markers_written_.fetch_add(1); }
  void Heartbeat() {
    heartbeat_.store(wiring_.clock->Now(), std::memory_order_relaxed);
  }
  Retrier& retrier() { return retrier_; }

  // Fault probe at a named crash point. A kCrash action marks the task
  // crashed (the run loop exits without flushing, as if the server died) and
  // returns true; a kDelay action stalls the task here. Points:
  //   task/flush/pre        before an output-buffer flush
  //   task/flush/post       flush admitted, epoch bookkeeping not yet updated
  //   task/commit/pre_marker  outputs durable, marker not yet appended
  //   task/commit/post_marker marker admitted, commit not yet acknowledged
  //   task/checkpoint/mid   snapshot stored, barriers not yet forwarded
  //   task/rescale/handoff  handoff state restored, not yet re-appended
  bool MaybeInjectCrash(const char* point);

 private:
  class StageCollector;
  class ChainCollector;

  bool ShouldExit() const {
    return stop_.load(std::memory_order_relaxed) ||
           crashed_.load(std::memory_order_relaxed);
  }
  bool Crashed() const { return crashed_.load(std::memory_order_relaxed); }

  // Builds the operator chain, readers and routing, then lets the protocol
  // restore state and cursors.
  Status Recover();
  void PublishProgress();

  // Reads from every input substream; returns entries consumed.
  Result<size_t> PollInputs();

  // Stage-output routing: called by the terminal collector.
  void EmitOutput(uint32_t output, StreamRecord record);
  void OnStateChange(const ChangeLogView& change);

  Status MaybeFlush(bool force);

  void RunTimers(TimeNs now);
  void PublishGcFloors();

  // Step() state machine: kInit recovers, kRunning is the steady-state
  // poll/flush/commit loop, kDraining is the graceful-stop drain, kTail is
  // the final flush + commit, kExiting waits out the last admitted append's
  // ack, kDone is terminal.
  enum class Phase { kInit, kRunning, kDraining, kTail, kExiting, kDone };
  sched::StepResult StepInit();
  // kRunning and kDraining: advance the commit, poll, keep the cadence.
  sched::StepResult StepPolling();
  // The output cadence both kRunning and kDraining keep after a poll that
  // took in `polled` entries: due timers, then a forced (interval elapsed)
  // or conditional flush, then a due commit — on the interval timer
  // (counted as an overrun when a full interval late), for a consumer of
  // commit-gated input on a commit wave, or for a source behind an input
  // burst. Returns the protocol's Advance() wait.
  Result<DurationNs> RunCadence(size_t polled);
  // Final flush + commit (+ the protocol's tail wait) of a graceful stop,
  // then the epilogue. Entered from kDraining however the drain ended;
  // re-entered (as kTail) until the commit's waits are over.
  sched::StepResult FinishWithTail();
  // Enters kExiting; once no admitted append is left unacked, publishes
  // final_status_ and flips to kDone. A replacement's recovery therefore
  // sees every record this instance admitted.
  sched::StepResult FinishEpilogue();

  TaskWiring wiring_;
  std::string task_id_;
  bool capture_changes_ = false;  // changelog enabled
  // Reads at least one input whose producers commit (not only ingress):
  // such a task commits in waves behind its producers.
  bool commit_gated_ = false;

  std::atomic<bool> stop_{false};
  std::atomic<bool> crashed_{false};
  std::atomic<bool> started_{false};
  std::atomic<bool> finished_{false};
  std::atomic<TimeNs> heartbeat_{0};
  std::atomic<uint64_t> records_processed_{0};
  std::atomic<uint64_t> markers_written_{0};
  std::atomic<uint64_t> commit_overruns_{0};

  mutable std::mutex progress_mu_;
  std::vector<std::pair<std::string, Lsn>> progress_;  // guarded by above

  mutable std::mutex status_mu_;
  Status final_status_;
  RecoveryStats recovery_stats_;

  // Operator chain + per-position collectors.
  std::vector<std::unique_ptr<Operator>> operators_;
  std::vector<std::unique_ptr<Collector>> collectors_;

  // State stores (owned; operators hold raw pointers).
  std::map<std::string, std::unique_ptr<MapStateStore>> stores_;

  CommitTracker tracker_;
  std::vector<std::unique_ptr<SubstreamReader>> readers_;
  std::vector<uint32_t> reader_substreams_;  // slot -> substream index
  // Input substream of the record currently being processed; stamps state
  // ownership via each store's ctx pointer. kUnownedSubstream outside
  // record processing (timers, replay).
  uint32_t current_substream_ = kUnownedSubstream;
  std::vector<ReadyRecord> ready_scratch_;
  // RetiredTasks::version() last applied to tracker_.
  uint64_t retired_version_ = 0;

  Retrier retrier_;  // declared before output_buffer_, which borrows it
  OutputBuffer output_buffer_;
  uint64_t out_seq_ = 0;
  TimeNs max_event_time_ = 0;

  // Zero-copy data plane (DESIGN.md §12). Per-(output, substream) routing
  // tags precomputed at recovery so the steady-state emit path never builds
  // tag strings; the changelog tag likewise. The string pool holds per-epoch
  // transient record scratch and is trimmed at commit boundaries.
  std::vector<std::vector<std::string>> output_tags_;
  std::string changelog_tag_;
  StringPool record_pool_;

  Epoch epoch_;
  std::vector<std::pair<std::string, Lsn>> last_input_ends_;
  TimeNs pending_ack_at_ = 0;
  // tracker_.generation() at the last commit: a wave is due once every
  // producer has committed after it.
  uint64_t wave_generation_ = 0;
  // Sources (marker protocols, ingress input only) also commit behind their
  // input bursts: last_input_at_ is the last poll that took input (the
  // task's start before any), and in_burst_ is set when input arrives after
  // at least half a commit interval without any. CommitEnded clears it.
  TimeNs last_input_at_ = 0;
  bool in_burst_ = false;

  // Sink-to-egress routing (identity partition by task index).
  std::vector<bool> output_is_egress_;

  // Declared after everything the protocol borrows from this task.
  std::unique_ptr<CommitProtocol> protocol_;

  // Step() state (touched only by the worker currently stepping this task;
  // the scheduler serializes steps of one entity).
  Phase phase_ = Phase::kInit;
  Status run_status_;
  Status tail_status_;  // kTail: the final flush + commit's own outcome
  TimeNs next_commit_ = 0;
  TimeNs next_timer_ = 0;
  TimeNs next_flush_ = 0;
  DurationNs drain_quiet_ = 0;
  TimeNs drain_deadline_ = 0;
  TimeNs drain_quiet_until_ = 0;
};

}  // namespace impeller

#endif  // IMPELLER_SRC_CORE_TASK_RUNTIME_H_
