// TaskManager (paper §3.2, §3.4): schedules a query's tasks, assigns each a
// unique id and an instance number minted atomically in the shared log's
// configuration metadata, monitors heartbeats, and restarts tasks that
// crash or go silent. Restarted tasks get an incremented instance number,
// which fences the old instance's conditional appends — the zombie
// neutralization mechanism of §3.4.
//
// One manager runs one query, matching the paper's deployment of one shared
// log instance per stream query (§3.1).
#ifndef IMPELLER_SRC_CORE_TASK_MANAGER_H_
#define IMPELLER_SRC_CORE_TASK_MANAGER_H_

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "src/autoscale/stats.h"
#include "src/common/metrics.h"
#include "src/common/threading.h"
#include "src/core/checkpoint.h"
#include "src/core/config.h"
#include "src/core/gc.h"
#include "src/core/query.h"
#include "src/core/task_runtime.h"
#include "src/kvstore/kv_store.h"
#include "src/sched/scheduler.h"
#include "src/sharedlog/shared_log.h"

namespace impeller {

class TaskManager {
 public:
  // Tasks execute as cooperative step entities on `sched` (shard-affine
  // placement: a task's home worker is derived from the log shard of its
  // first input substream, so tasks sharing a shard share a cache).
  TaskManager(SharedLog* log, KvStore* checkpoint_store, EngineConfig config,
              MetricsRegistry* metrics, Clock* clock,
              sched::WorkStealingScheduler* sched);
  ~TaskManager();

  // Starts every task of the plan (plus the protocol coordinators, the
  // checkpoint worker, and GC when enabled). One plan per manager.
  Status Submit(QueryPlan plan);

  // Graceful shutdown: each task flushes and commits a final cut.
  void Stop();

  // --- fault injection / recovery (used by tests and Table 4) ---

  // Simulates a server failure: the task thread exits without flushing.
  // With auto_restart the monitor will eventually replace it; call
  // RestartTask for an immediate, measured restart.
  Status CrashTask(const std::string& task_id);

  // Mints a new instance number (fencing the old one) and starts a
  // replacement; blocks until its recovery completes and returns the stats.
  Result<RecoveryStats> RestartTask(const std::string& task_id);

  // Zombie scenario (§3.4): starts a replacement WITHOUT stopping the old
  // instance, as a task manager with a stale failure verdict would.
  Status StartReplacement(const std::string& task_id);

  // Rescales a stage to `new_tasks` tasks (the paper's skew response, §5.3:
  // substreams are fixed at plan time via WithSubstreams, so rescaling
  // reassigns substreams to tasks without repartitioning). The old
  // generation stops gracefully; its final markers hand over both the
  // consumed positions and — for stateful stages — ownership of each
  // substream's keyed state: the new generation replays the old changelogs
  // up to the handoff cuts, claims its substream range (split on scale-up,
  // merge on scale-down), and re-appends the acquired state under its own
  // id. Under aligned-checkpoint/unsafe (no changelog) the stopped tasks'
  // state is exported in memory instead, and under aligned the barrier
  // coordinator and downstream consumers are reconfigured for the new
  // producer count. Supported under all four protocols; concurrent rescales
  // serialize. Remaining unsupported case: under aligned checkpointing, a
  // crash between the rescale and the next completed checkpoint loses the
  // in-memory handoff (marker protocols recover it from the changelog).
  Status RescaleStage(const std::string& stage_name, uint32_t new_tasks);

  // Per-stage backlog/backpressure snapshot for the autoscaler: current
  // task count, summed input lag (log positions behind each input
  // substream's tail) and cumulative commit-interval overruns.
  std::vector<StageStats> CollectStageStats();

  // Current (newest-instance) runtime for a task; nullptr when unknown.
  TaskRuntime* FindTask(const std::string& task_id);

  std::vector<std::string> AllTaskIds() const;

  const QueryPlan& plan() const { return plan_; }
  // The query's protocol; nullptr before Submit.
  const ProtocolFactory* protocols() const { return protocols_.get(); }
  TxnCoordinator* txn_coordinator() { return protocols_->txn_coordinator(); }
  BarrierCoordinator* barrier_coordinator() {
    return protocols_->barrier_coordinator();
  }
  CheckpointWorker* checkpoint_worker() { return checkpoint_worker_.get(); }
  GcRegistry* gc_registry() { return &gc_registry_; }

 private:
  struct TaskEntry {
    const StageSpec* stage = nullptr;
    uint32_t index = 0;
    std::unique_ptr<TaskRuntime> runtime;
    sched::Ticket ticket = sched::kInvalidTicket;
    // Superseded instances kept alive until their entities finish (zombies).
    std::vector<std::pair<std::unique_ptr<TaskRuntime>, sched::Ticket>> old;
    // Scale-down leftovers (index >= the stage's current task count): kept
    // for bookkeeping but never restarted by the monitor.
    bool retired = false;
    // Rescale handoff, retained so monitor restarts re-pass it: a crash
    // mid-handoff (or any time before the handoff seals) must not lose the
    // old generation's cursors and state sources.
    std::map<std::string, Lsn> handoff_ends;
    std::vector<HandoffSource> handoff_sources;
    std::shared_ptr<const DirectHandoff> direct_handoff;
  };

  // Spawns a new instance for the entry (caller holds mu_); the entry's
  // retained handoff info (if any) seeds the new instance's wiring.
  Status SpawnLocked(TaskEntry& entry, const std::string& task_id);
  // Requests a graceful stop of every task in `ids` (marking each retired
  // first when `retire`, so the monitor cannot respawn it) and waits for
  // them outside mu_: a drain against live producers can take its full
  // deadline, and the monitor, restarts and stats must stay responsive.
  void StopTasks(const std::vector<std::string>& ids, bool retire);
  // RescaleStage's generation switch, with the barrier coordinator paused:
  // stops the old generation, gathers its handoff, spawns the new one and,
  // with `bounce_consumers`, restarts the stage's consumer stages.
  Status SwitchGeneration(StageSpec* stage, uint32_t new_tasks,
                          bool bounce_consumers);
  // Home-worker hint: log shard of the task's first owned input substream
  // (task i of T owns substreams s % T == i); falls back to the task index.
  uint32_t TaskAffinity(const TaskEntry& entry) const;
  std::vector<const StageSpec*> TopologicalStageOrder() const;
  void MonitorLoop();

  SharedLog* log_;
  KvStore* checkpoint_store_;
  EngineConfig config_;
  MetricsRegistry* metrics_;
  Clock* clock_;
  sched::WorkStealingScheduler* sched_;

  QueryPlan plan_;
  bool submitted_ = false;

  mutable std::mutex mu_;
  std::map<std::string, TaskEntry> tasks_;
  // Serializes RescaleStage calls (the autoscaler and tests may race).
  std::mutex rescale_mu_;
  // Task ids already registered with the checkpoint worker (RegisterTask
  // does not dedup; scale-up must only register genuinely new ids).
  std::set<std::string> checkpoint_registered_;

  std::unique_ptr<ProtocolFactory> protocols_;
  // Ids of the retired entries, shared with every task (commit waves).
  RetiredTasks retired_;
  std::unique_ptr<CheckpointWorker> checkpoint_worker_;
  GcRegistry gc_registry_;
  std::unique_ptr<GcWorker> gc_worker_;

  std::atomic<bool> running_{false};
  // Set (and never cleared) at the head of Stop(): restarts/replacements
  // arriving after it return kUnavailable instead of racing the shutdown.
  std::atomic<bool> stopping_{false};
  JoiningThread monitor_;
};

}  // namespace impeller

#endif  // IMPELLER_SRC_CORE_TASK_MANAGER_H_
