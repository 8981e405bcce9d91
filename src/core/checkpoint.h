// State recovery machinery (paper §3.3.4, §3.5 "Accelerating state
// recovery", §4):
//
//  * CutInfo — a protocol-neutral view of a commit cut found on a task's
//    task-log or change-log substream (a progress marker, or a transaction
//    commit control record in the Kafka-txn baseline).
//  * ReplayChangelog — replays a task's change-log substream up to a cut,
//    buffering entries until each covering cut arrives and discarding
//    updates from superseded instances, exactly the loop of §3.3.4.
//  * CheckpointWorker — asynchronously builds state checkpoints by replaying
//    the change log in the background (never touching live task state) and
//    writing snapshots to the checkpoint store every snapshot interval; on
//    recovery a task restores the latest snapshot and replays only the
//    remaining suffix (Table 4 measures the win).
#ifndef IMPELLER_SRC_CORE_CHECKPOINT_H_
#define IMPELLER_SRC_CORE_CHECKPOINT_H_

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "src/common/clock.h"
#include "src/common/status.h"
#include "src/common/threading.h"
#include "src/core/config.h"
#include "src/core/marker.h"
#include "src/core/record.h"
#include "src/core/state_store.h"
#include "src/kvstore/kv_store.h"
#include "src/sharedlog/shared_log.h"

namespace impeller {

class GcRegistry;

struct CutInfo {
  uint64_t instance = 0;
  Lsn lsn = kInvalidLsn;
  uint64_t marker_seq = 0;  // 0 for txn commit records
  Lsn changelog_from = kInvalidLsn;
  std::vector<std::pair<std::string, Lsn>> input_ends;
};

// Interprets a log entry as a commit cut for `task_id`: a progress marker or
// a transaction commit control record produced by that task. Returns nullopt
// for other record types / producers.
Result<std::optional<CutInfo>> ExtractCut(const Envelope& env, Lsn lsn,
                                          std::string_view task_id);

// Newest committed cut on a task's task log, or nullopt if it never
// committed. The tail record is the common case; a non-cut tail (e.g. an
// aborted transaction's control record left by a crash) falls back to a
// forward scan for the last *committed* cut.
Result<std::optional<CutInfo>> LastCommittedCut(SharedLog* log,
                                                const std::string& task_id);

// The replay rule of §3.3.4 over a task's change log, one entry at a time:
// a change waits for a cut of its own instance, which applies it; the cut
// drops waiting changes of superseded instances and keeps newer ones.
class ChangelogFold {
 public:
  // Takes in entry `env` at `lsn`; returns the cut it is, if any, after
  // handing every change that cut commits to `apply`.
  Result<std::optional<CutInfo>> Add(
      const Envelope& env, Lsn lsn, std::string_view task_id,
      const std::function<void(const ChangeLogBody&)>& apply);

 private:
  struct Pending {
    uint64_t instance;
    ChangeLogBody body;
  };
  std::vector<Pending> pending_;
};

struct ReplayStats {
  uint64_t entries_read = 0;
  uint64_t changes_applied = 0;
  Lsn next_lsn = 0;  // position after the last processed cut
};

// Replays the (C, task) substream from `from_lsn`, invoking `apply` for
// every committed change, up to the recovery target cut at `until_lsn`: a
// progress marker sits there itself; a transaction's commit record on the
// change log sits at a nearby lower LSN than the task log's (phase two
// appends one commit record per substream).
Result<ReplayStats> ReplayChangelog(
    SharedLog* log, const std::string& task_id, Lsn from_lsn, Lsn until_lsn,
    const std::function<void(const ChangeLogView&)>& apply);

// --- snapshot codec: named sections (one per state store + extras) ---
std::string EncodeSnapshot(const std::map<std::string, std::string>& sections);
Result<std::map<std::string, std::string>> DecodeSnapshot(
    std::string_view raw);

struct CheckpointMeta {
  Lsn cut_lsn = kInvalidLsn;   // the cut the snapshot is consistent with
  Lsn next_replay_lsn = 0;     // change-log position recovery resumes from
  uint64_t marker_seq = 0;
};

std::string CheckpointBlobKey(std::string_view task_id);
std::string CheckpointMetaKey(std::string_view task_id);
std::string EncodeCheckpointMeta(const CheckpointMeta& meta);
Result<CheckpointMeta> DecodeCheckpointMeta(std::string_view raw);

class CheckpointWorker {
 public:
  CheckpointWorker(SharedLog* log, KvStore* store, Clock* clock,
                   DurationNs interval, GcRegistry* gc);
  ~CheckpointWorker();

  // Registers a stateful task for background checkpointing. Call before
  // Start().
  void RegisterTask(const std::string& task_id);

  void Start();
  void Stop();

  // Runs one checkpoint pass over all registered tasks (exposed for tests
  // and deterministic benchmarks).
  void RunOnce();

  uint64_t checkpoints_written() const { return checkpoints_.load(); }

 private:
  struct ShadowTask {
    std::string task_id;
    Lsn cursor = 0;  // next (C, task) position to read
    ChangelogFold fold;
    std::map<std::string, std::unique_ptr<MapStateStore>> stores;
    Lsn last_cut_lsn = kInvalidLsn;
    uint64_t last_marker_seq = 0;
    Lsn last_checkpointed_cut = kInvalidLsn;
  };

  void Loop();
  Status Advance(ShadowTask& shadow);
  Status WriteCheckpoint(ShadowTask& shadow);

  SharedLog* log_;
  KvStore* store_;
  Clock* clock_;
  DurationNs interval_;
  GcRegistry* gc_;

  std::mutex mu_;
  std::vector<std::unique_ptr<ShadowTask>> tasks_;
  std::atomic<uint64_t> checkpoints_{0};
  std::atomic<bool> running_{false};
  JoiningThread thread_;
};

}  // namespace impeller

#endif  // IMPELLER_SRC_CORE_CHECKPOINT_H_
