#include "src/sharedlog/shared_log.h"

#include <algorithm>

#include "src/common/hash.h"
#include "src/common/logging.h"
#include "src/fault/fault.h"
#include "src/obs/trace.h"

namespace impeller {

SharedLog::SharedLog(SharedLogOptions options)
    : options_(std::move(options)),
      metalog_(options_.name,
               options_.clock != nullptr ? options_.clock
                                         : MonotonicClock::Get()) {
  if (options_.clock == nullptr) {
    options_.clock = MonotonicClock::Get();
  }
  clock_ = options_.clock;
  if (options_.latency == nullptr) {
    options_.latency = std::make_shared<ZeroLatencyModel>();
  }
  if (options_.shards == 0) {
    options_.shards = 1;
  }
  for (uint32_t s = 0; s < options_.shards; ++s) {
    shards_.push_back(std::make_unique<LogShard>(s, options_.name,
                                                 options_.latency, clock_));
  }
  std::vector<LogShard*> raw;
  raw.reserve(shards_.size());
  for (auto& shard : shards_) {
    raw.push_back(shard.get());
  }
  metalog_.AttachShards(std::move(raw));
  detector_ = std::make_unique<ShardFailureDetector>(
      options_.failover, options_.shards, clock_->Now());
  live_.reserve(shards_.size());
  for (uint32_t s = 0; s < shards_.size(); ++s) {
    live_.push_back(s);
  }
  if (options_.metrics == nullptr) {
    own_metrics_ = std::make_unique<MetricsRegistry>();
    options_.metrics = own_metrics_.get();
  }
  MetricsRegistry* m = options_.metrics;
  counters_.appends = m->GetCounter("log/appends");
  counters_.records = m->GetCounter("log/records");
  counters_.fenced_appends = m->GetCounter("log/fenced_appends");
  counters_.sealed_appends = m->GetCounter("log/sealed_appends");
  counters_.reads = m->GetCounter("log/reads");
  counters_.trims = m->GetCounter("log/trims");
  counters_.bytes_appended = m->GetCounter("log/bytes_appended");
  counters_.records_trimmed = m->GetCounter("log/records_trimmed");
  counters_.seals = m->GetCounter("log/seals");
  counters_.rejoins = m->GetCounter("log/rejoins");
  counters_.epoch_bumps = m->GetCounter("log/epoch_bumps");
  counters_.seal_latency = m->Histogram("log/seal_latency");
  if (shards_.size() > 1) {
    for (uint32_t s = 0; s < shards_.size(); ++s) {
      counters_.shard_records.push_back(
          m->GetCounter("log/shard" + std::to_string(s) + "/records"));
    }
  }
}

Result<Lsn> SharedLog::Append(AppendRequest req) {
  std::vector<AppendRequest> batch;
  batch.push_back(std::move(req));
  auto lsns = AppendBatch(batch);
  if (!lsns.ok()) {
    return lsns.status();
  }
  return (*lsns)[0];
}

Result<std::vector<Lsn>> SharedLog::AppendBatch(
    std::vector<AppendRequest>& reqs) {
  auto admitted = AdmitBatch(reqs);
  if (!admitted.ok()) {
    return admitted.status();
  }
  AwaitAck(admitted->ack_at);
  return std::move(admitted->lsns);
}

void SharedLog::AwaitAck(TimeNs ack_at) {
  // Records become visible to tag readers only after the additional
  // delivery latency (§2.3); this span is exactly the modeled ack round
  // trip a caller pays per sequential append it waits for.
  TRACE_SPAN("log", "append_ack_wait");
  TimeNs now = clock_->Now();
  if (ack_at > now) {
    clock_->SleepFor(ack_at - now);
  }
}

uint32_t SharedLog::ShardOfTag(std::string_view tag) const {
  // (tag, epoch)-keyed placement: the hash picks a slot in the *live* shard
  // list, which changes only at epoch bumps. At epoch 0 every shard is live
  // and this is exactly the all-shards FNV placement.
  std::lock_guard<std::mutex> lock(placement_mu_);
  if (live_.size() == 1) {
    return live_[0];
  }
  return live_[PartitionFor(Fnv1a(tag), static_cast<uint32_t>(live_.size()))];
}

uint32_t SharedLog::PlaceShard(const std::vector<AppendRequest>& reqs) {
  // The whole batch lands on one shard so that admission (and therefore the
  // batch's LSN range) stays atomic and contiguous. Tag-aware placement:
  // all batches of a substream hit the same shard, keeping that substream's
  // ordering on a single sequencer (until an epoch bump moves the tag).
  for (const auto& r : reqs) {
    if (!r.tags.empty()) {
      return ShardOfTag(r.tags[0]);
    }
  }
  std::lock_guard<std::mutex> lock(placement_mu_);
  return live_[rr_next_.fetch_add(1) % live_.size()];
}

Result<AdmittedBatch> SharedLog::AdmitBatch(
    std::vector<AppendRequest>& reqs) {
  if (reqs.empty()) {
    return InvalidArgumentError("empty append batch");
  }
  TRACE_SPAN("log", "append");
  size_t batch_bytes = 0;
  for (const auto& r : reqs) {
    batch_bytes += r.payload.size();
  }
  // Placement is (tag, epoch)-keyed, so each iteration re-reads the live
  // view: a batch bounced off a sealed shard (kSealed straggler) or a batch
  // whose failure pushed the detector over its threshold re-places at the
  // bumped epoch. At most one re-placement per epoch change, and only
  // shards-1 seals can ever happen, so the loop is bounded.
  Result<LogShard::AdmitOutcome> admitted =
      UnavailableError("no live shard admitted the batch");
  uint32_t shard = 0;
  for (uint32_t placement = 0; placement <= shards_.size(); ++placement) {
    shard = PlaceShard(reqs);
    admitted = shards_[shard]->Admit(reqs, batch_bytes, meta_);
    if (admitted.ok()) {
      detector_->RecordSuccess(shard, clock_->Now());
      break;
    }
    const Status& st = admitted.status();
    if (st.code() == StatusCode::kSealed) {
      // Straggler: the shard sealed between placement and admission. Join
      // the (possibly still in-flight) seal so the epoch bump is visible,
      // then re-place. The caller never sees the reconfiguration.
      counters_.sealed_appends->Add(reqs.size());
      TRACE_INSTANT("log", "append_replaced");
      (void)SealShard(shard);
      continue;
    }
    if (st.code() == StatusCode::kUnavailable) {
      if (options_.failover.auto_seal &&
          detector_->RecordFailure(shard, clock_->Now())) {
        if (Status seal = SealShard(shard); seal.ok()) {
          // The suspect shard is sealed out; re-place immediately instead
          // of burning the caller's retry budget on a dead sequencer.
          continue;
        }
      }
      return st;
    }
    if (st.code() == StatusCode::kFenced) {
      counters_.fenced_appends->Add(reqs.size());
    }
    return st;
  }
  if (!admitted.ok()) {
    return admitted.status();
  }
  AdmittedBatch out;
  out.lsns = metalog_.Sequence(shard, admitted->first_local, admitted->count);
  out.ack_at = admitted->ack_done + admitted->injected_ack_delay;
  CountAppend(shard, admitted->count, batch_bytes);
  return out;
}

Result<LogEntry> SharedLog::ReadNext(std::string_view tag, Lsn from_lsn) {
  TRACE_SPAN("log", "read_next");
  counters_.reads->Add();
  return metalog_.ReadNext(tag, from_lsn);
}

Result<LogEntry> SharedLog::AwaitNext(std::string_view tag, Lsn from_lsn,
                                      DurationNs timeout) {
  TRACE_SPAN("log", "await_next");
  counters_.reads->Add();
  return metalog_.AwaitNext(tag, from_lsn, timeout);
}

Result<LogEntry> SharedLog::ReadLast(std::string_view tag) {
  TRACE_SPAN("log", "read_last");
  counters_.reads->Add();
  return metalog_.ReadLast(tag);
}

Result<LogEntry> SharedLog::ReadAt(Lsn lsn) {
  TRACE_SPAN("log", "read_at");
  counters_.reads->Add();
  return metalog_.ReadAt(lsn);
}

Lsn SharedLog::TailLsn() const { return metalog_.TailLsn(); }

Status SharedLog::Trim(Lsn new_trim_point) {
  TRACE_SPAN("log", "trim");
  uint64_t dropped = 0;
  Status st = metalog_.Trim(new_trim_point, &dropped);
  if (!st.ok() || dropped == 0) {
    return st;
  }
  counters_.trims->Add();
  counters_.records_trimmed->Add(dropped);
  return OkStatus();
}

Lsn SharedLog::TrimPoint() const { return metalog_.TrimPoint(); }

void SharedLog::Close() { metalog_.Close(); }

void SharedLog::MetaPut(std::string_view key, uint64_t value) {
  meta_.Put(std::string(key), value);
}

Result<uint64_t> SharedLog::MetaGet(std::string_view key) const {
  return meta_.Get(std::string(key));
}

uint64_t SharedLog::MetaIncrement(std::string_view key) {
  return meta_.Increment(std::string(key));
}

bool SharedLog::MetaCas(std::string_view key, uint64_t expected,
                        uint64_t desired) {
  return meta_.Cas(std::string(key), expected, desired);
}

Status SharedLog::SealShard(uint32_t shard) {
  if (shard >= shards_.size()) {
    return InvalidArgumentError("no shard " + std::to_string(shard));
  }
  TRACE_SPAN("log", "seal_shard");
  TimeNs start = clock_->Now();
  // One reconfiguration at a time. A straggler that raced an in-flight seal
  // blocks here until the epoch bump is visible, then returns OK below.
  std::lock_guard<std::mutex> lock(failover_mu_);
  if (shards_[shard]->sealed()) {
    return OkStatus();
  }
  uint64_t next_epoch;
  {
    std::lock_guard<std::mutex> placement(placement_mu_);
    if (live_.size() <= 1) {
      return UnavailableError("refusing to seal shard " +
                              std::to_string(shard) +
                              ": it is the last live shard");
    }
    next_epoch = epoch_ + 1;
  }
  // Step 1: fence the sequencer. From here stragglers bounce with kSealed —
  // the zombie cannot extend the log past the final cut.
  uint64_t final_local = shards_[shard]->Seal();
  // An injected stall widens the window between the fence and the epoch
  // bump; the failover tests use it to hit stragglers deterministically.
  if (auto f = IMPELLER_FAULT_PROBE("log/seal", options_.name, shard);
      f.kind == fault::FaultKind::kDelay) {
    clock_->SleepFor(f.delay);
  }
  // Step 2: the metalog finalizes the shard's last cut. Everything admitted
  // before the fence gets its dense global LSN now, so readers merge across
  // the epoch boundary with no gaps and no reordering.
  Lsn boundary = metalog_.SealCut();
  // Step 3: durable seal record in the global order — reconfigurations are
  // part of the log's replayable history.
  AppendControlRecord("seal", shard, boundary, final_local, next_epoch);
  // Step 4: atomic epoch bump; placement flips to the survivors.
  {
    std::lock_guard<std::mutex> placement(placement_mu_);
    live_.erase(std::remove(live_.begin(), live_.end(), shard), live_.end());
    epoch_ = next_epoch;
  }
  detector_->Reset(shard, clock_->Now());
  counters_.seals->Add();
  counters_.epoch_bumps->Add();
  counters_.seal_latency->Record(clock_->Now() - start);
  TRACE_INSTANT("log", "epoch_bump");
  LOG_WARN << options_.name << ": sealed shard " << shard << " at boundary "
           << boundary << " (final local offset " << final_local
           << "), placement epoch " << next_epoch;
  return OkStatus();
}

Status SharedLog::RejoinShard(uint32_t shard) {
  if (shard >= shards_.size()) {
    return InvalidArgumentError("no shard " + std::to_string(shard));
  }
  TRACE_SPAN("log", "rejoin_shard");
  std::lock_guard<std::mutex> lock(failover_mu_);
  if (!shards_[shard]->sealed()) {
    return InvalidArgumentError("shard " + std::to_string(shard) +
                                " is not sealed");
  }
  uint64_t next_epoch;
  {
    std::lock_guard<std::mutex> placement(placement_mu_);
    next_epoch = epoch_ + 1;
  }
  // Reopen the sequencer first: the rejoin record is placed on the *old*
  // live view (this shard only becomes a placement target at the bump).
  shards_[shard]->Unseal();
  AppendControlRecord("rejoin", shard, metalog_.TailLsn(), 0, next_epoch);
  {
    std::lock_guard<std::mutex> placement(placement_mu_);
    live_.push_back(shard);
    std::sort(live_.begin(), live_.end());
    epoch_ = next_epoch;
  }
  detector_->Reset(shard, clock_->Now());
  counters_.rejoins->Add();
  counters_.epoch_bumps->Add();
  TRACE_INSTANT("log", "epoch_bump");
  LOG_INFO << options_.name << ": shard " << shard
           << " rejoined at placement epoch " << next_epoch;
  return OkStatus();
}

void SharedLog::AppendControlRecord(const char* kind, uint32_t shard,
                                    Lsn boundary, uint64_t final_local,
                                    uint64_t next_epoch) {
  std::vector<uint32_t> targets;
  {
    std::lock_guard<std::mutex> placement(placement_mu_);
    targets = live_;
  }
  std::vector<AppendRequest> batch(1);
  batch[0].tags = {std::string(kLogSealTag)};
  batch[0].payload = std::string(kind) + " shard=" + std::to_string(shard) +
                     " final_local=" + std::to_string(final_local) +
                     " boundary=" + std::to_string(boundary) +
                     " epoch=" + std::to_string(next_epoch);
  size_t bytes = batch[0].payload.size();
  for (uint32_t target : targets) {
    if (target == shard || shards_[target]->sealed()) {
      continue;  // the shard being sealed is fenced but still in `targets`
    }
    auto admitted = shards_[target]->Admit(batch, bytes, meta_);
    if (!admitted.ok()) {
      continue;  // that shard may be failing too; try the next survivor
    }
    metalog_.Sequence(target, admitted->first_local, admitted->count);
    CountAppend(target, admitted->count, bytes);
    // The record must be durable before the epoch bump publishes the
    // reconfiguration, exactly like a regular append's ack wait.
    AwaitAck(admitted->ack_done + admitted->injected_ack_delay);
    return;
  }
  LOG_ERROR << options_.name << ": could not durably log " << kind
            << " record for shard " << shard
            << " on any live shard; proceeding with the epoch bump";
}

bool SharedLog::ShardSealed(uint32_t shard) const {
  return shard < shards_.size() && shards_[shard]->sealed();
}

uint64_t SharedLog::placement_epoch() const {
  std::lock_guard<std::mutex> lock(placement_mu_);
  return epoch_;
}

uint32_t SharedLog::num_live_shards() const {
  std::lock_guard<std::mutex> lock(placement_mu_);
  return static_cast<uint32_t>(live_.size());
}

void SharedLog::CountAppend(uint32_t shard, uint64_t records,
                            uint64_t bytes) {
  counters_.appends->Add();
  counters_.records->Add(records);
  counters_.bytes_appended->Add(bytes);
  if (shard < counters_.shard_records.size()) {
    counters_.shard_records[shard]->Add(records);
  }
}

SharedLogStats SharedLog::stats() const {
  SharedLogStats out;
  out.appends = counters_.appends->Get();
  out.records = counters_.records->Get();
  out.fenced_appends = counters_.fenced_appends->Get();
  out.sealed_appends = counters_.sealed_appends->Get();
  out.reads = counters_.reads->Get();
  out.trims = counters_.trims->Get();
  out.bytes_appended = counters_.bytes_appended->Get();
  out.records_trimmed = counters_.records_trimmed->Get();
  out.cuts = metalog_.cuts();
  out.seals = counters_.seals->Get();
  out.rejoins = counters_.rejoins->Get();
  out.placement_epoch = placement_epoch();
  return out;
}

}  // namespace impeller
