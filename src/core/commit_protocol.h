// Exactly-once protocols as strategies (paper §3.3–3.6, §5.1). A task's
// CommitProtocol recovers it on its first step, runs each commit the task's
// cadence makes due, and — aligned checkpointing only — aligns the barriers
// on its input. The four implementations are listed in task_runtime.h.
// ProtocolFactory picks one from EngineConfig::protocol, once per query. It
// is the only code that names a ProtocolKind or creates the transaction or
// barrier coordinator, and it answers whether consumers read committed output
// (and stateful tasks therefore capture a changelog).
#ifndef IMPELLER_SRC_CORE_COMMIT_PROTOCOL_H_
#define IMPELLER_SRC_CORE_COMMIT_PROTOCOL_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/core/config.h"
#include "src/core/query.h"
#include "src/core/state_store.h"
#include "src/core/substream_reader.h"
#include "src/obs/trace.h"
#include "src/protocols/barrier_coordinator.h"
#include "src/protocols/txn_coordinator.h"

namespace impeller {

class TaskRuntime;
struct HandoffSource;

class CommitProtocol {
 public:
  virtual ~CommitProtocol() = default;
  CommitProtocol(const CommitProtocol&) = delete;
  CommitProtocol& operator=(const CommitProtocol&) = delete;

  // Restores the task's state, input cursors and output sequence to the
  // protocol's recovery point, once the task's readers and operators exist.
  virtual Status Recover() = 0;
  // Reads what reader `slot` has ready and hands each record to the task in
  // substream order. Returns the entries consumed.
  virtual Result<size_t> Read(size_t slot, SubstreamReader& reader,
                              std::vector<ReadyRecord>& ready);
  // Whether buffered output may go to the log now.
  virtual Result<bool> MayFlush() { return true; }
  // Moves a due commit forward as far as the clock allows. Returns the wait
  // until it can move again (an admitted append's ack, a step of the commit
  // itself), or 0 when nothing is outstanding. A step must not poll input
  // while this is non-zero.
  Result<DurationNs> Advance();
  // Graceful stop, after the final commit: the wait until that commit is
  // complete (kafka-txn: the last transaction's phase two).
  virtual Result<DurationNs> TailWait() { return DurationNs{0}; }

  bool committing() const { return stage_ != Stage::kIdle; }
  void MakeDue() {
    if (stage_ == Stage::kIdle) {
      stage_ = Stage::kDue;
    }
  }

 protected:
  // kDue: the cadence made a commit due; kFlushed: the epoch's outputs are
  // admitted, and the commit record goes out once their ack has passed.
  enum class Stage { kIdle, kDue, kFlushed };

  explicit CommitProtocol(TaskRuntime& task) : task_(task) {}

  // The one restore path. RestoreSnapshot decodes a snapshot: every
  // "store/<name>" section (keeping what `keep` accepts; all when empty)
  // and, with `counters`, the dedup map, output sequence and input cursors.
  Status RestoreSnapshot(const std::map<std::string, std::string>& sections,
                         const OwnerFilter& keep, bool counters);
  // The state `src.task_id` had at its cut `src.cut_lsn`: its latest
  // checkpoint at or before the cut, then its changelog up to the cut,
  // keeping this task's substream range.
  Status RestoreAtCut(const HandoffSource& src);
  // Marker protocols: the cut at the tail of the task log restores cursors
  // and, via RestoreAtCut, state; while a rescale handoff is pending, state
  // comes from the handoff sources' cuts instead. Returns the cut's marker
  // sequence number (0 on a fresh start).
  Result<uint64_t> RecoverFromCut();
  // Aligned/unsafe rescale: restores the manager's in-memory state export.
  Status RestoreDirectHandoff();

  // One transition of a due commit (stage_ != kIdle); a positive wait
  // stops Advance there. By default (aligned, unsafe) a commit is only the
  // commit-time flush: barriers make aligned state durable, and unsafe
  // never commits.
  virtual Result<DurationNs> Step();
  // The wait Advance returns with no commit due (kafka-txn's full-buffer
  // stall).
  virtual Result<DurationNs> IdleWait() { return DurationNs{0}; }
  // Marker protocols, kDue: skips an idle epoch, otherwise admits the
  // commit-time flush and moves to kFlushed.
  Status FlushEpoch();
  // The commit is over (or skipped).
  void EndCommit();

  TaskRuntime& task_;
  Stage stage_ = Stage::kIdle;
  obs::StepSpan span_;  // marker protocols: commit-time flush to record
};

std::unique_ptr<CommitProtocol> NewProgressMarking(TaskRuntime& task);
std::unique_ptr<CommitProtocol> NewKafkaTxn(TaskRuntime& task,
                                            TxnCoordinator* coordinator);
std::unique_ptr<CommitProtocol> NewAlignedCheckpoint(
    TaskRuntime& task, BarrierCoordinator* coordinator);
std::unique_ptr<CommitProtocol> NewUnsafe(TaskRuntime& task);

class ProtocolFactory {
 public:
  // Creates (and starts) kafka-txn's transaction coordinator or aligned
  // checkpointing's barrier coordinator for query `query`.
  ProtocolFactory(const EngineConfig& config, const std::string& query,
                  SharedLog* log, KvStore* checkpoint_store, Clock* clock,
                  MetricsRegistry* metrics);

  // Marker protocols: consumers read only committed output, and stateful
  // tasks capture a changelog (through which a rescale moves state).
  bool read_committed() const { return read_committed_; }
  std::unique_ptr<CommitProtocol> ForTask(TaskRuntime& task) const;

  // Aligned checkpointing's barrier coordinator: StartCoordinator configures
  // it for `plan`'s ingress and tasks and starts it. A rescale pauses it, so
  // no round spans the generation switch; PauseCoordinator returns whether
  // it did, and then the rescaled stage's consumers must restart too (their
  // alignment counts producer tasks).
  void StartCoordinator(const QueryPlan& plan);
  bool PauseCoordinator();
  // Latest completed aligned checkpoint (0 under the other protocols).
  uint64_t LatestCheckpoint() const;
  void Stop();

  TxnCoordinator* txn_coordinator() const { return txn_.get(); }
  BarrierCoordinator* barrier_coordinator() const { return barrier_.get(); }

 private:
  ProtocolKind kind_;
  bool read_committed_;
  std::unique_ptr<TxnCoordinator> txn_;
  std::unique_ptr<BarrierCoordinator> barrier_;
};

}  // namespace impeller

#endif  // IMPELLER_SRC_CORE_COMMIT_PROTOCOL_H_
