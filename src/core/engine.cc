#include "src/core/engine.h"

#include <algorithm>
#include <iterator>

#include "src/common/hash.h"
#include "src/core/record.h"
#include "src/core/stream.h"

namespace impeller {

Engine::Engine(EngineOptions options) : options_(std::move(options)) {
  clock_ = options_.clock != nullptr ? options_.clock : MonotonicClock::Get();
  SharedLogOptions log_opts;
  log_opts.name = options_.name + ".log";
  log_opts.latency = options_.log_latency;
  log_opts.clock = clock_;
  log_opts.metrics = &metrics_;
  log_opts.shards = options_.config.log_shards;
  log_opts.failover = options_.config.log_failover;
  log_ = std::make_unique<SharedLog>(std::move(log_opts));
  KvStoreOptions kv_opts;
  kv_opts.wal_path = options_.kv_wal_path;
  kv_opts.latency = options_.kv_latency;
  kv_opts.clock = clock_;
  kv_ = std::make_unique<KvStore>(std::move(kv_opts));
  sched::SchedulerOptions sched_opts;
  sched_opts.workers = options_.config.sched_workers;
  sched_opts.clock = clock_;
  sched_opts.metrics = &metrics_;
  sched_opts.name = options_.name + ".sched";
  sched_ = std::make_unique<sched::WorkStealingScheduler>(sched_opts);
  sched_->Start();
  manager_ =
      std::make_unique<TaskManager>(log_.get(), kv_.get(), options_.config,
                                    &metrics_, clock_, sched_.get());
}

Engine::~Engine() { Stop(); }

Status Engine::Submit(QueryPlan plan) {
  IMPELLER_RETURN_IF_ERROR(manager_->Submit(std::move(plan)));
  submitted_ = true;
  if (options_.config.autoscale.enabled) {
    Autoscaler::Hooks hooks;
    TaskManager* manager = manager_.get();
    hooks.probe = [manager] { return manager->CollectStageStats(); };
    hooks.rescale = [manager](const std::string& stage, uint32_t n) {
      return manager->RescaleStage(stage, n);
    };
    autoscaler_ = std::make_unique<Autoscaler>(
        options_.config.autoscale, std::move(hooks), clock_, &metrics_);
    autoscaler_->Start();
  }
  return OkStatus();
}

void Engine::Stop() {
  if (submitted_ && !stopped_) {
    stopped_ = true;
    if (autoscaler_ != nullptr) {
      autoscaler_->Stop();
    }
    manager_->Stop();
    // Wake any reader still blocked in AwaitNext (no more data is coming),
    // then retire the scheduler workers.
    log_->Close();
    sched_->Stop();
  }
}

Result<std::unique_ptr<IngressProducer>> Engine::NewProducer(
    std::string producer_id, std::string stream) {
  if (!submitted_) {
    return InvalidArgumentError("submit a plan before creating producers");
  }
  const StreamSpec* spec = plan().FindStream(stream);
  if (spec == nullptr || !spec->external) {
    return InvalidArgumentError(stream + " is not an ingress stream");
  }
  return std::make_unique<IngressProducer>(
      log_.get(), std::move(producer_id), std::move(stream),
      spec->num_substreams, clock_, options_.config.retry, &metrics_);
}

Result<std::unique_ptr<EgressConsumer>> Engine::NewEgressConsumer(
    std::string_view stage, uint32_t substream) {
  if (!submitted_) {
    return InvalidArgumentError("submit a plan before creating consumers");
  }
  std::string stream = EgressStreamName(plan().name, stage);
  const StreamSpec* spec = plan().FindStream(stream);
  if (spec == nullptr) {
    return InvalidArgumentError("stage " + std::string(stage) +
                                " has no egress stream");
  }
  if (substream >= spec->num_substreams) {
    return InvalidArgumentError("egress substream out of range");
  }
  return std::make_unique<EgressConsumer>(
      log_.get(), stream, substream, manager_->protocols()->read_committed());
}

// --- IngressProducer ---

IngressProducer::IngressProducer(SharedLog* log, std::string producer_id,
                                 std::string stream, uint32_t num_substreams,
                                 Clock* clock, RetryPolicy retry,
                                 MetricsRegistry* metrics)
    : log_(log),
      producer_id_(std::move(producer_id)),
      stream_(std::move(stream)),
      num_substreams_(num_substreams),
      clock_(clock),
      retrier_(retry, Fnv1a(producer_id_), clock, metrics),
      pending_(num_substreams) {
  tags_.reserve(num_substreams);
  for (uint32_t sub = 0; sub < num_substreams; ++sub) {
    tags_.push_back(DataTag(stream_, sub));
  }
}

void IngressProducer::Send(std::string key, std::string value,
                           TimeNs event_time) {
  SendDuplicate(std::move(key), std::move(value), event_time, ++seq_);
}

void IngressProducer::SendDuplicate(std::string key, std::string value,
                                    TimeNs event_time,
                                    uint64_t original_seq) {
  uint32_t sub = HashPartition(key, num_substreams_);
  TimeNs stamped = event_time != 0 ? event_time : clock_->Now();
  // Single-pass encode: header and body go straight into the payload string
  // instead of materializing DataBody / body-string / envelope copies.
  BinaryWriter w;
  AppendEnvelopeHeader(w, RecordType::kData, producer_id_, kIngressInstance,
                       original_seq);
  AppendDataBody(w, key, value, stamped);
  AppendRequest req;
  req.tags.push_back(tags_[sub]);
  req.payload = w.Take();
  pending_[sub].push_back(std::move(req));
  ++pending_count_;
}

Result<size_t> IngressProducer::Flush() {
  // Group the substream batches by the shard their tag is placed on now
  // (placement is re-read every flush, so a seal's re-placement holds):
  // admits on one shard's sequencer serialize, so each shard gets one
  // batch and one ordering round instead of one per substream.
  std::vector<std::vector<uint32_t>> by_shard(log_->num_shards());
  for (uint32_t sub = 0; sub < num_substreams_; ++sub) {
    if (!pending_[sub].empty()) {
      by_shard[log_->ShardOfTag(tags_[sub])].push_back(sub);
    }
  }
  size_t flushed = 0;
  TimeNs ack_at = 0;
  Status status = OkStatus();
  std::vector<AppendRequest> batch;
  for (const auto& subs : by_shard) {
    if (subs.empty()) {
      continue;
    }
    // Substream by substream, so each one's records keep their Send order
    // inside the group's contiguous LSN range.
    batch.clear();
    for (uint32_t sub : subs) {
      std::move(pending_[sub].begin(), pending_[sub].end(),
                std::back_inserter(batch));
    }
    auto admitted = retrier_.Run("ingress_flush",
                                 [&] { return log_->AdmitBatch(batch); });
    if (!admitted.ok()) {
      // AdmitBatch left the group intact: hand each substream its records
      // back in order. They (and every later group) stay buffered for the
      // caller's next Flush.
      auto req = batch.begin();
      for (uint32_t sub : subs) {
        for (AppendRequest& slot : pending_[sub]) {
          slot = std::move(*req++);
        }
      }
      status = admitted.status();
      break;
    }
    for (uint32_t sub : subs) {
      pending_[sub].clear();
    }
    ack_at = std::max(ack_at, admitted->ack_at);
    flushed += batch.size();
    pending_count_ -= batch.size();
  }
  if (flushed > 0) {
    // Even a failed flush returns only after the groups it did admit are
    // durable.
    log_->AwaitAck(ack_at);
  }
  if (!status.ok()) {
    return status;
  }
  return flushed;
}

size_t IngressProducer::buffered() const { return pending_count_; }

// --- EgressConsumer ---

EgressConsumer::EgressConsumer(SharedLog* log, std::string stream,
                               uint32_t substream, bool read_committed)
    : tracker_(read_committed),
      reader_(log, DataTag(stream, substream), 0, &tracker_,
              /*start_lsn=*/0) {}

Result<std::vector<ReadyRecord>> EgressConsumer::PollAll() {
  std::vector<ReadyRecord> out;
  SubstreamReader::Hooks hooks;
  while (true) {
    IMPELLER_ASSIGN_OR_RETURN(size_t n, reader_.Poll(1024, &out, hooks));
    if (n == 0) {
      return out;
    }
  }
}

}  // namespace impeller
