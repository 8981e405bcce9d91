// TaskRuntime: one unit of execution (paper Table 1). A task runs a stage's
// operator chain over its input substreams, writes outputs and change-log
// records through a batched output buffer, and commits its progress — on
// an interval timer, or, for a consumer of committed input, in a wave right
// behind its producers' commits — with whichever exactly-once protocol the
// engine is configured for:
//   * progress marking (Impeller, §3.3) — one multi-tag conditional append;
//   * Kafka Streams transactions (§3.6) — coordinator two-phase commit;
//   * aligned checkpointing (§5.1) — barrier alignment + synchronous
//     snapshots to the checkpoint store;
//   * unsafe — no progress tracking (§5.3.4).
//
// On startup the task recovers to the cut of its most recent progress
// marker (restoring state from the latest checkpoint plus a change-log
// replay, §3.3.4) and resumes reading each input substream just past the
// marker's recorded input end.
#ifndef IMPELLER_SRC_CORE_TASK_RUNTIME_H_
#define IMPELLER_SRC_CORE_TASK_RUNTIME_H_

#include <atomic>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/common/arena.h"
#include "src/common/metrics.h"
#include "src/common/retry.h"
#include "src/core/checkpoint.h"
#include "src/core/commit_tracker.h"
#include "src/core/config.h"
#include "src/core/gc.h"
#include "src/core/operator.h"
#include "src/core/output_buffer.h"
#include "src/core/query.h"
#include "src/core/substream_reader.h"
#include "src/kvstore/kv_store.h"
#include "src/obs/trace.h"
#include "src/protocols/txn_coordinator.h"
#include "src/sched/scheduler.h"
#include "src/sharedlog/shared_log.h"

namespace impeller {

class BarrierCoordinator;

// One source task of a stateful rescale handoff under a marker protocol:
// the new generation replays the source's changelog up to its final cut and
// claims the entries of its own substream range. `default_substream`
// attributes unowned entries (timer writes) to the source's own substream.
struct HandoffSource {
  std::string task_id;
  uint32_t default_substream = 0;
  Lsn cut_lsn = kInvalidLsn;  // LSN of the source's final cut
  uint64_t txn_id = 0;        // kafka-txn: committing transaction id
};

// Direct state handoff for protocols without a changelog (aligned
// checkpointing / unsafe): the manager exports each gracefully stopped
// task's stores and counters in memory and hands them to the new
// generation. An overlapping task id continues its output sequence — the
// downstream dedup map is keyed (substream, producer) without the instance,
// so a reset sequence would be swallowed as duplicates.
struct DirectHandoff {
  struct Source {
    std::string task_id;
    uint32_t default_substream = 0;
    std::map<std::string, std::string> stores;  // name -> snapshot
    std::string seqmap;
    uint64_t out_seq = 0;
    std::vector<std::pair<std::string, Lsn>> input_ends;
  };
  std::vector<Source> sources;
  // Aligned: the latest completed checkpoint id when the handoff was taken.
  // A later completed checkpoint supersedes the handoff on recovery.
  uint64_t completed_ckpt_at_handoff = 0;
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
  TxnCoordinator* txn_coordinator = nullptr;          // kKafkaTxn only
  BarrierCoordinator* barrier_coordinator = nullptr;  // kAligned only
  GcRegistry* gc = nullptr;                           // optional
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

 private:
  class StageCollector;
  class ChainCollector;

  bool ShouldExit() const {
    return stop_.load(std::memory_order_relaxed) ||
           crashed_.load(std::memory_order_relaxed);
  }
  bool Crashed() const { return crashed_.load(std::memory_order_relaxed); }

  Status Recover();
  Status RecoverFromMarker();
  Status RecoverAligned();

  // Substream ownership under the current generation: task i of T owns
  // every substream s with s % T == i.
  bool OwnsSubstream(uint32_t sub) const {
    return sub % wiring_.stage->num_tasks == wiring_.index;
  }
  // Keeps entries of this task's substream range; unowned entries are
  // attributed to `default_substream` (and normalized to it).
  bool ClaimOwner(uint32_t& owner, uint32_t default_substream) const {
    if (owner == kUnownedSubstream) {
      owner = default_substream;
    }
    return OwnsSubstream(owner);
  }
  // A handoff is pending until this task commits its first post-rescale cut
  // (whose LSN then exceeds every source's fence).
  bool HandoffPending() const;
  // Stateful rescale: replays each old-generation source's changelog up to
  // its final cut, claims this task's substream range, and re-appends the
  // acquired state into its own changelog (sealed by the first cut).
  Status PerformMarkerHandoff();
  // Aligned/unsafe: restores the manager's in-memory state export.
  Status RestoreDirectHandoff();
  void PublishProgress();

  // Reads from every input substream; returns entries consumed.
  Result<size_t> PollInputs();
  // `slot` indexes readers_ (one per assigned substream); the record's own
  // `input` field is the stage input-stream index operators see.
  void ProcessReady(size_t slot, ReadyRecord record);
  void RunRecord(uint32_t input, StreamRecord record);

  // Stage-output routing: called by the terminal collector.
  void EmitOutput(uint32_t output, StreamRecord record);
  void OnStateChange(const ChangeLogView& change);

  Status MaybeFlush(bool force);
  Status ApplyFlushResult(const OutputBuffer::FlushResult& result);

  // Fault probe at a named crash point. A kCrash action marks the task
  // crashed (the run loop exits without flushing, as if the server died) and
  // returns true; a kDelay action stalls the task here. Points:
  //   task/flush/pre        before an output-buffer flush
  //   task/flush/post       flush admitted, epoch bookkeeping not yet updated
  //   task/commit/pre_marker  outputs durable, marker not yet appended
  //   task/commit/post_marker marker admitted, commit not yet acknowledged
  //   task/checkpoint/mid   snapshot stored, barriers not yet forwarded
  bool MaybeInjectCrash(const char* point);

  // The commit a due cadence slot runs, spread over as many steps as its
  // modeled waits need (no step ever sleeps on one):
  //   kIdle     no commit due;
  //   kDue      due; kafka-txn waits here for the previous transaction;
  //   kFlushed  the epoch's outputs are admitted; the marker or transaction
  //             request is issued once their ack has passed;
  //   kPhaseOne kafka-txn: the transaction's phase one is in flight.
  enum class CommitStage { kIdle, kDue, kFlushed, kPhaseOne };
  // Moves the commit forward as far as the clock allows. Returns the wait
  // until it can move again — an admitted append's ack, phase one's next
  // step, or the previous transaction — or 0 when nothing is outstanding.
  // A step must not poll input while this is non-zero.
  Result<DurationNs> AdvanceCommit();
  // kDue: skips an idle epoch, otherwise admits the commit-time flush.
  Status BeginCommit();
  // kFlushed, outputs durable: admits the progress marker.
  Status CommitProgressMarking();
  // kFlushed, outputs durable: starts the transaction's phase one.
  Status CommitKafkaTxn();
  // The commit is over (or skipped): the cadence restarts from now, and the
  // next wave waits for producer commits after this one.
  void EndCommit();

  // Aligned-checkpoint plumbing. Barriers are queued during a poll and
  // applied interleaved with record processing in substream order; channels
  // are keyed by reader slot.
  void OnBarrier(size_t slot, const std::string& producer,
                 uint64_t checkpoint_id, Lsn lsn);
  Status CompleteAlignment();
  bool IsBlocked(size_t slot, std::string_view producer) const;

  void RunTimers(TimeNs now);
  void PublishGcFloors();

  std::vector<std::pair<std::string, Lsn>> CurrentInputEnds() const;
  std::vector<std::string> DownstreamMarkerTags() const;

  // Step() state machine: kInit recovers, kRunning is the steady-state
  // poll/flush/commit loop, kDraining is the graceful-stop drain, kTail is
  // the final flush + commit, kExiting waits out the last admitted append's
  // ack, kDone is terminal.
  enum class Phase { kInit, kRunning, kDraining, kTail, kExiting, kDone };
  sched::StepResult StepInit();
  sched::StepResult StepRunning();
  sched::StepResult StepDraining();
  // The output cadence both kRunning and kDraining keep after a poll that
  // took in `polled` entries: due timers, then a forced (interval elapsed)
  // or conditional flush, then a due commit — on the interval timer
  // (counted as an overrun when a full interval late), for a consumer of
  // commit-gated input on a commit wave, or for a source behind an input
  // burst. Returns AdvanceCommit()'s wait.
  Result<DurationNs> RunCadence(size_t polled);
  // Final flush + commit (+ transaction wait) of a graceful stop, then the
  // epilogue. Entered from kDraining however the drain ended; re-entered
  // (as kTail) until the commit's waits are over.
  sched::StepResult FinishWithTail();
  // Enters kExiting; once no admitted append is left unacked, publishes
  // final_status_ and flips to kDone. A replacement's recovery therefore
  // sees every record this instance admitted.
  sched::StepResult FinishEpilogue();

  TaskWiring wiring_;
  std::string task_id_;
  bool uses_markers_ = false;     // progress marking or kafka txn
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
  // LSN of this task's own recovery cut (kInvalidLsn when fresh); against
  // the handoff sources' fence it decides whether a pending handoff was
  // already sealed by a post-rescale commit.
  Lsn recovered_cut_lsn_ = kInvalidLsn;
  std::vector<bool> input_external_;
  std::vector<uint32_t> expected_barriers_;
  SubstreamReader::Hooks reader_hooks_;
  std::vector<ReadyRecord> ready_scratch_;
  struct PendingBarrier {
    size_t position;  // index into ready_scratch_ the barrier precedes
    size_t slot;      // reader that observed it
    std::string producer;
    uint64_t checkpoint_id;
    Lsn lsn;
  };
  std::vector<PendingBarrier> pending_barriers_;

  Retrier retrier_;  // declared before output_buffer_, which borrows it
  OutputBuffer output_buffer_;
  uint64_t out_seq_ = 0;
  uint64_t marker_seq_ = 1;
  TimeNs max_event_time_ = 0;

  // Zero-copy data plane (DESIGN.md §12). Per-(output, substream) routing
  // tags precomputed at recovery so the steady-state emit path never builds
  // tag strings; the changelog tag likewise. The arena and string pool hold
  // per-epoch transient record scratch and are reset at marker/commit
  // boundaries.
  std::vector<std::vector<std::string>> output_tags_;
  std::string changelog_tag_;
  Arena epoch_arena_;
  StringPool record_pool_;
  void ResetEpochScratch() {
    epoch_arena_.Reset();
    record_pool_.Trim(/*keep=*/16);
  }
  const std::string& OutputTagFor(uint32_t output, uint32_t sub) const {
    return output_tags_[output][sub];
  }

  // Epoch bookkeeping for markers / transactions.
  Lsn epoch_first_output_ = kInvalidLsn;
  Lsn epoch_first_changelog_ = kInvalidLsn;
  bool epoch_dirty_ = false;
  std::set<std::string> epoch_touched_tags_;
  std::vector<std::pair<std::string, Lsn>> last_input_ends_;

  // Commit progress across steps (see CommitStage). pending_ack_at_ is the
  // latest ack time over every batch this instance admitted.
  CommitStage commit_stage_ = CommitStage::kIdle;
  TimeNs pending_ack_at_ = 0;
  // tracker_.generation() at the last EndCommit: a wave is due once every
  // producer has committed after it.
  uint64_t wave_generation_ = 0;
  // Sources (marker protocols, ingress input only) also commit behind their
  // input bursts: last_input_at_ is the last poll that took input (the
  // task's start before any), and in_burst_ is set when input arrives after
  // at least half a commit interval without any. EndCommit clears it.
  TimeNs last_input_at_ = 0;
  bool in_burst_ = false;
  obs::StepSpan commit_span_;  // protocol/commit_marker or commit_txn

  // Kafka txn: at most one commit in flight — phase one while stepping it,
  // then phase two's future.
  std::unique_ptr<TxnCoordinator::PhaseOne> txn_phase_one_;
  std::shared_future<Status> txn_inflight_;

  // Aligned checkpointing.
  uint64_t last_completed_ckpt_ = 0;
  uint64_t align_ckpt_id_ = 0;  // 0 = no alignment in progress
  std::vector<uint32_t> barriers_arrived_;
  std::vector<Lsn> align_cursor_snapshot_;
  std::set<std::pair<size_t, std::string>> blocked_channels_;
  std::deque<std::pair<size_t, ReadyRecord>> sidelined_;

  // Sink-to-egress routing (identity partition by task index).
  std::vector<bool> output_is_egress_;

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
