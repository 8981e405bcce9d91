#include "src/core/task_manager.h"

#include "src/common/logging.h"
#include "src/core/stream.h"

namespace impeller {

TaskManager::TaskManager(SharedLog* log, KvStore* checkpoint_store,
                         EngineConfig config, MetricsRegistry* metrics,
                         Clock* clock, sched::WorkStealingScheduler* sched)
    : log_(log),
      checkpoint_store_(checkpoint_store),
      config_(config),
      metrics_(metrics),
      clock_(clock),
      sched_(sched) {}

TaskManager::~TaskManager() { Stop(); }

Status TaskManager::Submit(QueryPlan plan) {
  if (submitted_) {
    return InvalidArgumentError(
        "one TaskManager runs one query (one shared log per query, §3.1)");
  }
  if (config_.log_shards == 0) {
    return InvalidArgumentError(
        "log_shards must be >= 1: zero sequencers cannot order anything");
  }
  plan_ = std::move(plan);
  submitted_ = true;

  protocols_ = std::make_unique<ProtocolFactory>(
      config_, plan_.name, log_, checkpoint_store_, clock_, metrics_);
  if (config_.enable_gc) {
    gc_worker_ = std::make_unique<GcWorker>(log_, &gc_registry_, clock_,
                                            config_.gc_interval);
  }
  if (protocols_->read_committed() && config_.enable_checkpointing) {
    checkpoint_worker_ = std::make_unique<CheckpointWorker>(
        log_, checkpoint_store_, clock_, config_.snapshot_interval,
        config_.enable_gc ? &gc_registry_ : nullptr);
  }

  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& stage : plan_.stages) {
      for (uint32_t i = 0; i < stage.num_tasks; ++i) {
        std::string task_id = MakeTaskId(plan_.name, stage.name, i);
        TaskEntry& entry = tasks_[task_id];
        entry.stage = plan_.FindStage(stage.name);
        entry.index = i;
        if (checkpoint_worker_ != nullptr && stage.stateful &&
            checkpoint_registered_.insert(task_id).second) {
          checkpoint_worker_->RegisterTask(task_id);
        }
        IMPELLER_RETURN_IF_ERROR(SpawnLocked(entry, task_id));
      }
    }
  }

  if (checkpoint_worker_ != nullptr) {
    checkpoint_worker_->Start();
  }
  if (gc_worker_ != nullptr) {
    gc_worker_->Start();
  }
  protocols_->StartCoordinator(plan_);
  running_.store(true);
  if (config_.auto_restart) {
    monitor_ = JoiningThread([this] { MonitorLoop(); });
  }
  return OkStatus();
}

Status TaskManager::SpawnLocked(TaskEntry& entry, const std::string& task_id) {
  // Mint the instance number atomically in the log's metadata: this is what
  // fences any still-running older instance (§3.4).
  uint64_t instance = log_->MetaIncrement(InstanceMetaKey(task_id));

  TaskWiring wiring;
  wiring.plan = &plan_;
  wiring.stage = entry.stage;
  wiring.index = entry.index;
  wiring.instance = instance;
  wiring.log = log_;
  wiring.checkpoint_store = checkpoint_store_;
  wiring.config = config_;
  wiring.metrics = metrics_;
  wiring.clock = clock_;
  wiring.protocols = protocols_.get();
  wiring.gc = config_.enable_gc ? &gc_registry_ : nullptr;
  wiring.retired = &retired_;
  // Rescale handoff lives on the entry so a monitor restart mid-handoff
  // re-passes it instead of losing the old generation's cursors and state.
  wiring.initial_input_ends = entry.handoff_ends;
  wiring.handoff_sources = entry.handoff_sources;
  wiring.direct_handoff = entry.direct_handoff;

  if (entry.runtime != nullptr) {
    entry.old.emplace_back(std::move(entry.runtime), entry.ticket);
    entry.ticket = sched::kInvalidTicket;
  }
  entry.runtime = std::make_unique<TaskRuntime>(std::move(wiring));
  TaskRuntime* rt = entry.runtime.get();
  entry.ticket = sched_->Submit([rt] { return rt->Step(); },
                                TaskAffinity(entry), task_id);
  return OkStatus();
}

uint32_t TaskManager::TaskAffinity(const TaskEntry& entry) const {
  if (entry.stage != nullptr && !entry.stage->inputs.empty()) {
    // First owned input substream (task i of T owns substreams s % T == i,
    // so substream `index` is always owned: num_tasks <= num_substreams).
    return log_->ShardOfTag(DataTag(entry.stage->inputs[0], entry.index));
  }
  return entry.index;
}

void TaskManager::Stop() {
  if (!submitted_) {
    return;
  }
  // Fences CrashTask/RestartTask/StartReplacement: a restart racing the
  // shutdown could otherwise submit a task to a scheduler whose workers are
  // already joined, and then spin forever waiting for it to start.
  stopping_.store(true);
  running_.store(false);
  monitor_.Join();
  // Stop stages in topological order so each stage's final cut is already
  // in the log when its consumer drains (graceful shutdown = a complete,
  // consistent run).
  std::vector<const StageSpec*> order = TopologicalStageOrder();
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Zombies first: they are superseded and hold no obligations.
    for (auto& [id, entry] : tasks_) {
      for (auto& [rt, ticket] : entry.old) {
        rt->RequestStop();
      }
    }
  }
  for (const StageSpec* stage : order) {
    std::vector<std::string> ids;
    for (uint32_t i = 0; i < stage->num_tasks; ++i) {
      ids.push_back(MakeTaskId(plan_.name, stage->name, i));
    }
    StopTasks(ids, /*retire=*/false);
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& [id, entry] : tasks_) {
      sched_->Wait(entry.ticket);
      for (auto& [rt, ticket] : entry.old) {
        sched_->Wait(ticket);
      }
    }
  }
  protocols_->Stop();
  if (checkpoint_worker_ != nullptr) {
    checkpoint_worker_->Stop();
  }
  if (gc_worker_ != nullptr) {
    gc_worker_->Stop();
  }
}

void TaskManager::StopTasks(const std::vector<std::string>& ids,
                            bool retire) {
  std::vector<sched::Ticket> tickets;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& id : ids) {
      auto it = tasks_.find(id);
      if (it == tasks_.end()) {
        continue;
      }
      if (retire) {
        it->second.retired = true;
      }
      if (it->second.runtime != nullptr) {
        it->second.runtime->RequestStop();
      }
      tickets.push_back(it->second.ticket);
    }
  }
  for (sched::Ticket ticket : tickets) {
    sched_->Wait(ticket);
  }
}

Status TaskManager::CrashTask(const std::string& task_id) {
  std::lock_guard<std::mutex> lock(mu_);
  if (stopping_.load()) {
    return UnavailableError("task manager is stopping");
  }
  auto it = tasks_.find(task_id);
  if (it == tasks_.end() || it->second.runtime == nullptr) {
    return NotFoundError("unknown task " + task_id);
  }
  it->second.runtime->Crash();
  return OkStatus();
}

Result<RecoveryStats> TaskManager::RestartTask(const std::string& task_id) {
  TaskRuntime* rt = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_.load()) {
      return UnavailableError("task manager is stopping");
    }
    auto it = tasks_.find(task_id);
    if (it == tasks_.end()) {
      return NotFoundError("unknown task " + task_id);
    }
    TaskEntry& entry = it->second;
    if (entry.runtime != nullptr) {
      entry.runtime->Crash();
      sched_->Wait(entry.ticket);
    }
    IMPELLER_RETURN_IF_ERROR(SpawnLocked(entry, task_id));
    rt = entry.runtime.get();
  }
  while (!rt->started() && !rt->finished()) {
    if (stopping_.load()) {
      // Shutdown owns the task now: Stop() requests its stop and waits its
      // ticket, so the restart's recovery never completes. Bail out rather
      // than spin against a draining scheduler.
      return UnavailableError("task manager stopped during restart");
    }
    clock_->SleepFor(100 * kMicrosecond);
  }
  if (rt->finished() && !rt->final_status().ok()) {
    return rt->final_status();
  }
  return rt->recovery_stats();
}

Status TaskManager::StartReplacement(const std::string& task_id) {
  std::lock_guard<std::mutex> lock(mu_);
  if (stopping_.load()) {
    return UnavailableError("task manager is stopping");
  }
  auto it = tasks_.find(task_id);
  if (it == tasks_.end()) {
    return NotFoundError("unknown task " + task_id);
  }
  // Deliberately do NOT stop the old instance: it becomes a zombie that the
  // conditional-append fence must neutralize.
  return SpawnLocked(it->second, task_id);
}

TaskRuntime* TaskManager::FindTask(const std::string& task_id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tasks_.find(task_id);
  return it == tasks_.end() ? nullptr : it->second.runtime.get();
}

std::vector<std::string> TaskManager::AllTaskIds() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> ids;
  ids.reserve(tasks_.size());
  for (const auto& [id, entry] : tasks_) {
    ids.push_back(id);
  }
  return ids;
}

Status TaskManager::RescaleStage(const std::string& stage_name,
                                 uint32_t new_tasks) {
  StageSpec* stage = nullptr;
  for (auto& s : plan_.stages) {
    if (s.name == stage_name) {
      stage = &s;
    }
  }
  if (stage == nullptr) {
    return NotFoundError("unknown stage " + stage_name);
  }
  if (new_tasks == 0 || new_tasks > stage->num_substreams) {
    return InvalidArgumentError(
        "task count must be in [1, num_substreams] (" +
        std::to_string(stage->num_substreams) + ")");
  }
  if (stopping_.load()) {
    return UnavailableError("task manager is stopping");
  }
  // One rescale at a time: the autoscaler and tests may race.
  std::lock_guard<std::mutex> rescale_lock(rescale_mu_);
  if (new_tasks == stage->num_tasks) {
    return OkStatus();
  }
  // Under aligned checkpointing the coordinator's task list is about to
  // change; pause it for the duration of the rescale so no checkpoint
  // round spans the generation switch, and resume it against the new task
  // list however the switch ends — a rescale that fails partway through
  // must not leave checkpointing permanently halted.
  const bool paused_coordinator = protocols_->PauseCoordinator();
  Status st = SwitchGeneration(stage, new_tasks, paused_coordinator);
  if (paused_coordinator && !stopping_.load()) {
    std::lock_guard<std::mutex> lock(mu_);
    protocols_->StartCoordinator(plan_);
  }
  return st;
}

Status TaskManager::SwitchGeneration(StageSpec* stage, uint32_t new_tasks,
                                     bool bounce_consumers) {
  const std::string& stage_name = stage->name;
  const uint32_t old_tasks = stage->num_tasks;
  std::vector<std::string> old_ids;
  for (uint32_t i = 0; i < old_tasks; ++i) {
    old_ids.push_back(MakeTaskId(plan_.name, stage->name, i));
  }

  // 1. Stop the old generation gracefully: each task drains and commits a
  //    final cut covering everything it consumed. The entries are marked
  //    retired for the duration so the monitor cannot resurrect an old
  //    instance next to the new generation (a crash during the drain is
  //    fine: the handoff then starts from the task's last *committed* cut
  //    and the new generation redoes the uncommitted suffix).
  StopTasks(old_ids, /*retire=*/true);

  // 2. Gather the handoff: every substream's consumed end, plus — for
  //    stateful stages — the state-ownership transfer material.
  std::map<std::string, Lsn> ends;
  std::vector<HandoffSource> sources;
  std::shared_ptr<DirectHandoff> direct;
  auto merge_ends = [&ends](const std::vector<std::pair<std::string, Lsn>>&
                                input_ends) {
    for (const auto& [tag, end] : input_ends) {
      if (end == kInvalidLsn) {
        continue;  // never consumed: do not plant a cursor at 0
      }
      auto [it, inserted] = ends.try_emplace(tag, end);
      if (!inserted && end > it->second) {
        it->second = end;
      }
    }
  };
  if (protocols_->read_committed()) {
    // The changelog is the transfer medium: each old task's final cut names
    // the LSN up to which the new generation replays its changelog.
    for (uint32_t i = 0; i < old_tasks; ++i) {
      const std::string& id = old_ids[i];
      IMPELLER_ASSIGN_OR_RETURN(auto cut, LastCommittedCut(log_, id));
      if (!cut.has_value()) {
        continue;  // never committed: its substreams start fresh
      }
      merge_ends(cut->input_ends);
      if (stage->stateful) {
        sources.push_back({id, i, cut->lsn});
      }
    }
  } else {
    // No changelog under aligned/unsafe: export the stopped runtimes' state
    // (and commit-tracker continuation) in memory instead.
    direct = std::make_shared<DirectHandoff>();
    direct->completed_ckpt_at_handoff = protocols_->LatestCheckpoint();
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& id : old_ids) {
      auto it = tasks_.find(id);
      if (it == tasks_.end() || it->second.runtime == nullptr) {
        continue;
      }
      DirectHandoff::Source src = it->second.runtime->ExportHandoff();
      merge_ends(src.input_ends);
      direct->sources.push_back(std::move(src));
    }
  }

  // 3. Spawn the new generation; substream ownership is recomputed from the
  //    new task count, and the handoff seeds each task's wiring.
  {
    std::lock_guard<std::mutex> lock(mu_);
    stage->num_tasks = new_tasks;
    for (uint32_t i = 0; i < new_tasks; ++i) {
      std::string task_id = MakeTaskId(plan_.name, stage->name, i);
      TaskEntry& entry = tasks_[task_id];
      entry.stage = stage;
      entry.index = i;
      entry.retired = false;
      entry.handoff_ends = ends;
      entry.handoff_sources = sources;
      entry.direct_handoff = direct;
      if (checkpoint_worker_ != nullptr && stage->stateful &&
          checkpoint_registered_.insert(task_id).second) {
        checkpoint_worker_->RegisterTask(task_id);
      }
      IMPELLER_RETURN_IF_ERROR(SpawnLocked(entry, task_id));
    }
    // Scale-down leftovers: keep the entries (their final cuts remain the
    // handoff sources) but never restart them — a respawn at index >=
    // num_tasks would own no substream and recompute the wrong range.
    for (uint32_t i = new_tasks; i < old_tasks; ++i) {
      auto it = tasks_.find(old_ids[i]);
      if (it != tasks_.end()) {
        it->second.retired = true;
      }
    }
    std::lock_guard<std::mutex> retired_lock(retired_.mu);
    retired_.ids.clear();
    for (const auto& [id, entry] : tasks_) {
      if (entry.retired) {
        retired_.ids.insert(id);
      }
    }
    retired_.version.fetch_add(1);
  }

  if (bounce_consumers) {
    // A consumer's barrier alignment counts one barrier per producer task,
    // so the producer count baked into running consumers is now stale:
    // bounce them (graceful stop + respawn recovers from the latest
    // completed checkpoint; sequence dedup absorbs re-emissions).
    std::vector<std::string> bounced;
    std::set<std::string> consumer_stages;
    for (const auto& [name, stream] : plan_.streams) {
      if (stream.producer_stage == stage_name &&
          !stream.consumer_stage.empty() &&
          stream.consumer_stage != stage_name &&
          consumer_stages.insert(stream.consumer_stage).second) {
        const StageSpec* consumer = plan_.FindStage(stream.consumer_stage);
        for (uint32_t i = 0; consumer != nullptr && i < consumer->num_tasks;
             ++i) {
          bounced.push_back(MakeTaskId(plan_.name, consumer->name, i));
        }
      }
    }
    StopTasks(bounced, /*retire=*/false);
    // Respawn every bounced consumer even if one spawn fails — a stopped
    // task left behind would silently halt its stage.
    Status bounce_status = OkStatus();
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (const auto& id : bounced) {
        auto it = tasks_.find(id);
        if (it == tasks_.end()) {
          continue;
        }
        Status st = SpawnLocked(it->second, id);
        if (!st.ok()) {
          LOG_ERROR << "respawn of bounced consumer " << id
                    << " failed: " << st.ToString();
          if (bounce_status.ok()) {
            bounce_status = st;
          }
        }
      }
    }
    IMPELLER_RETURN_IF_ERROR(bounce_status);
  }

  if (metrics_ != nullptr) {
    metrics_->GetCounter(new_tasks > old_tasks ? "rescale/up"
                                               : "rescale/down")
        ->Add();
  }
  return OkStatus();
}

std::vector<StageStats> TaskManager::CollectStageStats() {
  struct Accum {
    StageStats stats;
    std::map<std::string, Lsn> floors;
  };
  std::vector<Accum> accums;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& stage : plan_.stages) {
      Accum a;
      a.stats.stage = stage.name;
      a.stats.current_tasks = stage.num_tasks;
      a.stats.num_substreams = stage.num_substreams;
      a.stats.stateful = stage.stateful;
      for (uint32_t i = 0; i < stage.num_tasks; ++i) {
        auto it = tasks_.find(MakeTaskId(plan_.name, stage.name, i));
        if (it == tasks_.end() || it->second.runtime == nullptr) {
          continue;
        }
        a.stats.commit_overruns += it->second.runtime->commit_overruns();
        for (const auto& [tag, floor] : it->second.runtime->InputProgress()) {
          a.floors[tag] = floor;  // substreams are task-disjoint
        }
      }
      accums.push_back(std::move(a));
    }
  }
  // Tail reads happen outside mu_: they hit the shared log, not the tasks.
  std::vector<StageStats> out;
  out.reserve(accums.size());
  for (auto& a : accums) {
    for (const auto& [tag, floor] : a.floors) {
      auto last = log_->ReadLast(tag);
      if (!last.ok()) {
        continue;  // empty substream: no backlog
      }
      uint64_t consumed = floor == kInvalidLsn ? 0 : floor + 1;
      uint64_t tail = last->lsn + 1;
      if (tail > consumed) {
        a.stats.input_lag += tail - consumed;
      }
    }
    out.push_back(std::move(a.stats));
  }
  return out;
}

std::vector<const StageSpec*> TaskManager::TopologicalStageOrder() const {
  // Kahn's algorithm over producer -> consumer stream edges.
  std::map<std::string, int> indegree;
  std::map<std::string, std::vector<std::string>> edges;
  for (const auto& stage : plan_.stages) {
    indegree[stage.name];  // ensure presence
  }
  for (const auto& [name, stream] : plan_.streams) {
    if (stream.external || stream.egress || stream.producer_stage.empty() ||
        stream.consumer_stage.empty()) {
      continue;
    }
    edges[stream.producer_stage].push_back(stream.consumer_stage);
    indegree[stream.consumer_stage]++;
  }
  std::vector<const StageSpec*> order;
  std::vector<std::string> ready;
  for (const auto& [name, deg] : indegree) {
    if (deg == 0) {
      ready.push_back(name);
    }
  }
  while (!ready.empty()) {
    std::string name = ready.back();
    ready.pop_back();
    order.push_back(plan_.FindStage(name));
    for (const auto& next : edges[name]) {
      if (--indegree[next] == 0) {
        ready.push_back(next);
      }
    }
  }
  if (order.size() != plan_.stages.size()) {
    // Should be unreachable (Build() validates the DAG); fall back to
    // declaration order rather than dropping stages.
    order.clear();
    for (const auto& stage : plan_.stages) {
      order.push_back(&stage);
    }
  }
  return order;
}

void TaskManager::MonitorLoop() {
  while (running_.load()) {
    clock_->SleepFor(config_.heartbeat_interval);
    if (!running_.load()) {
      return;
    }
    std::vector<std::string> dead;
    {
      std::lock_guard<std::mutex> lock(mu_);
      TimeNs now = clock_->Now();
      for (auto& [id, entry] : tasks_) {
        TaskRuntime* rt = entry.runtime.get();
        if (rt == nullptr || entry.retired) {
          continue;
        }
        if (rt->finished()) {
          // Graceful exits and fenced zombies are final; crashes restart.
          Status st = rt->final_status();
          if (!st.ok() && st.code() != StatusCode::kFenced) {
            dead.push_back(id);
          }
          continue;
        }
        if (now - rt->last_heartbeat() > config_.failure_timeout) {
          dead.push_back(id);
        }
      }
    }
    for (const auto& id : dead) {
      LOG_WARN << "task " << id << " presumed failed; restarting";
      std::lock_guard<std::mutex> lock(mu_);
      auto it = tasks_.find(id);
      if (it != tasks_.end() && !it->second.retired) {
        Status st = SpawnLocked(it->second, id);
        if (!st.ok()) {
          LOG_ERROR << "restart of " << id << " failed: " << st.ToString();
        }
      }
    }
  }
}

}  // namespace impeller
