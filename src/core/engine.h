// The top-level Impeller engine (paper Fig. 2): owns the shared log, the
// checkpoint store, the task manager, and the metrics registry for one
// stream query. Applications build a QueryPlan, submit it, and feed data via
// IngressProducers (the gateway + data-ingress path); results land on the
// egress stream, readable through EgressConsumer.
#ifndef IMPELLER_SRC_CORE_ENGINE_H_
#define IMPELLER_SRC_CORE_ENGINE_H_

#include <memory>
#include <string>
#include <vector>

#include "src/autoscale/autoscaler.h"
#include "src/common/metrics.h"
#include "src/core/commit_tracker.h"
#include "src/core/config.h"
#include "src/core/query.h"
#include "src/core/substream_reader.h"
#include "src/core/task_manager.h"
#include "src/kvstore/kv_store.h"
#include "src/sched/scheduler.h"
#include "src/sharedlog/shared_log.h"

namespace impeller {

struct EngineOptions {
  EngineConfig config;
  // Latency model for the shared log (default: zero latency — tests).
  std::shared_ptr<LatencyModel> log_latency;
  // Latency model for the checkpoint store.
  std::shared_ptr<LatencyModel> kv_latency;
  // WAL path for the checkpoint store; empty = memory only.
  std::string kv_wal_path;
  Clock* clock = nullptr;
  std::string name = "impeller";
};

class IngressProducer;
class EgressConsumer;

class Engine {
 public:
  explicit Engine(EngineOptions options = {});
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  Status Submit(QueryPlan plan);
  void Stop();

  // Creates a producer for an external ingress stream of the submitted
  // plan. `producer_id` must be unique (duplicate suppression is keyed on
  // it, §3.5).
  Result<std::unique_ptr<IngressProducer>> NewProducer(
      std::string producer_id, std::string stream);

  // Creates a consumer over one egress substream of a sinking stage.
  Result<std::unique_ptr<EgressConsumer>> NewEgressConsumer(
      std::string_view stage, uint32_t substream);

  SharedLog* log() { return log_.get(); }
  KvStore* checkpoint_store() { return kv_.get(); }
  MetricsRegistry* metrics() { return &metrics_; }
  TaskManager* tasks() { return manager_.get(); }
  Autoscaler* autoscaler() { return autoscaler_.get(); }
  sched::WorkStealingScheduler* scheduler() { return sched_.get(); }
  Clock* clock() { return clock_; }
  const QueryPlan& plan() const { return manager_->plan(); }

 private:
  EngineOptions options_;
  Clock* clock_;
  std::unique_ptr<SharedLog> log_;
  std::unique_ptr<KvStore> kv_;
  MetricsRegistry metrics_;
  // Declared before manager_: tasks are scheduler entities, so the manager
  // must stop (and drain every ticket) before the scheduler dies.
  std::unique_ptr<sched::WorkStealingScheduler> sched_;
  std::unique_ptr<TaskManager> manager_;
  // Stopped before the manager: its ticks call into RescaleStage.
  std::unique_ptr<Autoscaler> autoscaler_;
  bool submitted_ = false;
  bool stopped_ = false;
};

// Batching producer for an ingress stream: records are hashed to substreams
// by key and buffered; a flush appends them as one batch per log shard — the
// paper's input generators flush every 10/100 ms (§5.3).
class IngressProducer {
 public:
  IngressProducer(SharedLog* log, std::string producer_id,
                  std::string stream, uint32_t num_substreams, Clock* clock,
                  RetryPolicy retry = {}, MetricsRegistry* metrics = nullptr);

  // Buffers one record. event_time 0 = now.
  void Send(std::string key, std::string value, TimeNs event_time = 0);

  // Appends all buffered records and returns, with the number appended,
  // once every one of them is durable. Substreams whose tags the log places
  // on the same shard are appended as one batch: admits on one shard's
  // sequencer serialize (one ordering round each), so a flush costs one
  // round per shard it touches, not one per substream. Rounds on different
  // shards overlap, and the flush waits once, for the latest ack. Each
  // substream's records keep their Send order inside their shard's batch.
  // On a transient failure (retries exhausted) the failed shard's records,
  // and those of every shard not yet admitted, stay buffered: a later Flush
  // re-issues them with their original sequence numbers, and §3.5
  // duplicate suppression absorbs any batch the log durably appended but
  // failed to acknowledge.
  Result<size_t> Flush();

  size_t buffered() const;
  uint64_t sent() const { return seq_; }

  // Testing hook (§3.5 duplicate suppression): re-sends a previous payload
  // with its original sequence number, as a gateway retry would.
  void SendDuplicate(std::string key, std::string value, TimeNs event_time,
                     uint64_t original_seq);

 private:
  SharedLog* log_;
  std::string producer_id_;
  std::string stream_;
  uint32_t num_substreams_;
  Clock* clock_;
  Retrier retrier_;
  uint64_t seq_ = 0;
  std::vector<std::string> tags_;  // per substream
  std::vector<std::vector<AppendRequest>> pending_;  // per substream
  size_t pending_count_ = 0;
};

// Reads committed data records from one egress substream, applying the same
// commit filtering a downstream stage would (read-committed under marker
// protocols, read-uncommitted otherwise).
class EgressConsumer {
 public:
  EgressConsumer(SharedLog* log, std::string stream, uint32_t substream,
                 bool read_committed);

  // Non-blocking: drains every currently classifiable record.
  Result<std::vector<ReadyRecord>> PollAll();

 private:
  CommitTracker tracker_;
  SubstreamReader reader_;
};

}  // namespace impeller

#endif  // IMPELLER_SRC_CORE_ENGINE_H_
