// A fault-tolerant, distributed, shared log in the style of Boki/Scalog,
// simulated in-process (see DESIGN.md §1 for the substitution argument).
//
// Semantics provided (paper §2.3, §3.1):
//  * a single global total order: every append gets a unique, dense LSN;
//  * string-tag metadata on each record, with an index supporting efficient
//    selective reads of the sub-sequence of records carrying a given tag;
//  * atomic multi-stream append: one record with N tags appears, at one LSN,
//    in all N logical substreams (the mechanism behind progress markers);
//  * conditional appends fenced on the log's key-value configuration
//    metadata (zombie fencing, §3.4);
//  * a trim API that garbage-collects a prefix of the log (§3.5);
//  * a calibrated latency model: an append is durable an "ack" latency after
//    admission and visible to tag readers after an additional "delivery"
//    latency. Admission (`AdmitBatch`) never waits; an appender that needs
//    the ack waits for it separately (`AwaitAck`), so a cooperative task can
//    keep the ack as state instead of parking its thread on it.
//
// Internally the log is sharded (DESIGN.md §8): each batch is placed on one
// shard by the hash of its first tag, admitted by that shard's sequencer at
// local offsets, and assigned its global LSNs when the metalog publishes
// the next cut. At `shards = 1` (the default) this degenerates to the
// classic single totally-ordered log. The public API is shard-agnostic;
// only placement (`ShardOfTag`) and `Close` expose the sharding.
//
// The log survives permanent shard failures (DESIGN.md §10): a failure
// detector suspects a shard after consecutive kUnavailable admits or a
// heartbeat gap, and the seal protocol fences its sequencer, finalizes its
// last metalog cut, writes a durable seal record, and bumps the *placement
// epoch* so `ShardOfTag` routes only to live shards. Straggler appends to a
// sealed shard bounce with kSealed and are transparently re-placed here, so
// callers never observe the reconfiguration. Sealed shards stay readable
// (reads go through the metalog view) and may rejoin at a later epoch.
//
// Thread safety: all public methods are safe to call concurrently.
#ifndef IMPELLER_SRC_SHAREDLOG_SHARED_LOG_H_
#define IMPELLER_SRC_SHAREDLOG_SHARED_LOG_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/clock.h"
#include "src/common/histogram.h"
#include "src/common/metrics.h"
#include "src/common/status.h"
#include "src/sharedlog/latency_model.h"
#include "src/sharedlog/log_record.h"
#include "src/sharedlog/sharding/failover.h"
#include "src/sharedlog/sharding/metalog.h"
#include "src/sharedlog/sharding/shard.h"

namespace impeller {

// Tag carried by seal/rejoin control records: the log's reconfiguration
// history is itself a durable substream of the log.
inline constexpr char kLogSealTag[] = "!log/seal";

struct SharedLogOptions {
  std::string name = "log";
  // Latency model applied to appends. Defaults to zero latency (tests).
  std::shared_ptr<LatencyModel> latency;
  Clock* clock = nullptr;  // defaults to MonotonicClock
  // Registry holding the log's "log/*" counters, so metric exporters see
  // log traffic without polling stats(). When null the log keeps the
  // counters in a registry of its own.
  MetricsRegistry* metrics = nullptr;
  // Number of shards (independent sequencers). 1 = the classic single
  // totally-ordered log; more shards admit batches concurrently while the
  // metalog interleaves their cuts into the global order.
  uint32_t shards = 1;
  // Failure detection / auto-seal knobs (DESIGN.md §10).
  FailoverOptions failover;
};

struct SharedLogStats {
  uint64_t appends = 0;
  uint64_t records = 0;
  uint64_t fenced_appends = 0;
  uint64_t sealed_appends = 0;  // straggler batches bounced off sealed shards
  uint64_t reads = 0;
  uint64_t trims = 0;
  uint64_t bytes_appended = 0;
  uint64_t records_trimmed = 0;
  uint64_t cuts = 0;  // metalog cuts that sequenced >= 1 record
  uint64_t seals = 0;
  uint64_t rejoins = 0;
  uint64_t placement_epoch = 0;  // current epoch, not a counter
};

// A batch the log has admitted: its records hold their LSNs, and the
// appender's ack arrives at `ack_at` (the modeled ack plus any injected ack
// delay); the records are durable by then.
struct AdmittedBatch {
  std::vector<Lsn> lsns;
  TimeNs ack_at = 0;
};

class SharedLog {
 public:
  explicit SharedLog(SharedLogOptions options = {});

  // Admits a batch atomically in arrival order with one shared ack latency
  // (models the 128 KiB output buffer flush, §5.3) and returns without
  // waiting for that ack. The whole batch lands on one shard, so its LSNs
  // are contiguous in the global order; a later admission on the same shard
  // is ordered after it. If any conditional check (req.cond_key non-empty)
  // fails the whole batch is rejected with kFenced. Consumes the requests
  // (payloads are moved out) only on success; on any failure — fencing,
  // injected kUnavailable — `reqs` is left intact so callers can retry the
  // same batch without copying.
  Result<AdmittedBatch> AdmitBatch(std::vector<AppendRequest>& reqs);

  // Blocks the calling thread until `ack_at` (an AdmittedBatch's ack time).
  void AwaitAck(TimeNs ack_at);

  // AdmitBatch followed by AwaitAck: returns once the batch is durable.
  Result<std::vector<Lsn>> AppendBatch(std::vector<AppendRequest>& reqs);

  // Appends one record and waits for its ack; returns the assigned LSN.
  Result<Lsn> Append(AppendRequest req);

  // Selective read: the first record tagged `tag` with lsn >= from_lsn.
  // Returns records strictly in LSN order per tag: if the next matching
  // record exists but is not yet visible, reports kNotFound (non-blocking)
  // rather than skipping ahead.
  Result<LogEntry> ReadNext(std::string_view tag, Lsn from_lsn);

  // Blocking variant of ReadNext with a timeout (kDeadlineExceeded). After
  // Close() blocked readers on every shard wake with kUnavailable.
  Result<LogEntry> AwaitNext(std::string_view tag, Lsn from_lsn,
                             DurationNs timeout);

  // The newest *durable* record carrying `tag` (used by recovery to find the
  // tail of a task-log substream). Durable = append acked, which can be
  // slightly ahead of reader visibility.
  Result<LogEntry> ReadLast(std::string_view tag);

  // Direct read of a durable record by LSN.
  Result<LogEntry> ReadAt(Lsn lsn);

  // The next global LSN the metalog will assign.
  Lsn TailLsn() const;

  // Garbage collection: drops all records with lsn < new_trim_point.
  // Reading below the trim point reports kTrimmed. Wakes readers blocked in
  // AwaitNext on every shard.
  Status Trim(Lsn new_trim_point);
  Lsn TrimPoint() const;

  // Shutdown: wakes every reader blocked in AwaitNext (kUnavailable once no
  // data remains). Reads of existing records keep working; appends after
  // Close are still admitted (teardown stragglers).
  void Close();

  // --- Key-value configuration metadata (paper §3.4). ---
  void MetaPut(std::string_view key, uint64_t value);
  Result<uint64_t> MetaGet(std::string_view key) const;
  // Atomically increments (missing keys start at 0) and returns the new
  // value. Used by the task manager to mint instance numbers.
  uint64_t MetaIncrement(std::string_view key);
  bool MetaCas(std::string_view key, uint64_t expected, uint64_t desired);

  // Placement: the shard a batch whose first tag is `tag` lands on at the
  // current placement epoch. Used by the engine for shard-affine task
  // placement. (tag, epoch)-keyed: a seal or rejoin bumps the epoch and may
  // move the tag to a different live shard.
  uint32_t ShardOfTag(std::string_view tag) const;
  uint32_t num_shards() const {
    return static_cast<uint32_t>(shards_.size());
  }

  // --- Failover: seal protocol & placement epochs (DESIGN.md §10). ---

  // Seals `shard` out of the placement: fences its sequencer (stragglers
  // observe kSealed), publishes the metalog's final cut for it, writes a
  // durable seal record tagged kLogSealTag into the global order, and
  // atomically bumps the placement epoch so new appends route only to live
  // shards. Idempotent; a concurrent caller blocks until the in-flight seal
  // finishes, then sees OK. Refuses (kUnavailable) to seal the last live
  // shard. Sealed shards stay fully readable.
  Status SealShard(uint32_t shard);

  // Re-admits a sealed shard at a new placement epoch: reopens its
  // sequencer at the pre-seal local tail, logs a rejoin record, and bumps
  // the epoch so placement includes it again. kInvalidArgument if the shard
  // is not sealed.
  Status RejoinShard(uint32_t shard);

  bool ShardSealed(uint32_t shard) const;
  // Current placement epoch; bumps by one on every seal and every rejoin.
  uint64_t placement_epoch() const;
  uint32_t num_live_shards() const;

  // Reads the "log/*" counters of the registry the log records into (plus
  // the metalog's cut count and the placement epoch). Two logs sharing one
  // registry would therefore both report the summed traffic.
  SharedLogStats stats() const;
  const std::string& name() const { return options_.name; }

 private:
  // The shard a batch is placed on: hash of the first non-empty tag list's
  // first tag over the live-shard list, round-robin for untagged batches.
  uint32_t PlaceShard(const std::vector<AppendRequest>& reqs);

  // Appends the seal/rejoin audit record (tag kLogSealTag) to some live
  // shard, waiting out its ack so the record is durable before the epoch
  // bump. Best-effort under total outage: failure is logged, never fatal —
  // the epoch bump is the reconfiguration, the record is its history.
  void AppendControlRecord(const char* kind, uint32_t shard, Lsn boundary,
                           uint64_t final_local, uint64_t next_epoch);

  // Counts one admitted batch of `records` records on `shard`.
  void CountAppend(uint32_t shard, uint64_t records, uint64_t bytes);

  // Pre-resolved "log/*" counters: the only count of the log's traffic.
  // Never null.
  struct StatCounters {
    Counter* appends = nullptr;
    Counter* records = nullptr;
    Counter* fenced_appends = nullptr;
    Counter* sealed_appends = nullptr;
    Counter* reads = nullptr;
    Counter* trims = nullptr;
    Counter* bytes_appended = nullptr;
    Counter* records_trimmed = nullptr;
    Counter* seals = nullptr;
    Counter* rejoins = nullptr;
    Counter* epoch_bumps = nullptr;
    LatencyHistogram* seal_latency = nullptr;  // SealShard wall time
    // Per-shard appended-record counters ("log/shard<i>/records"); only
    // registered when the log actually has multiple shards.
    std::vector<Counter*> shard_records;
  };

  SharedLogOptions options_;
  Clock* clock_;
  // Backs options_.metrics when the caller supplied no registry.
  std::unique_ptr<MetricsRegistry> own_metrics_;
  StatCounters counters_;

  FencingTable meta_;
  std::vector<std::unique_ptr<LogShard>> shards_;
  Metalog metalog_;
  std::unique_ptr<ShardFailureDetector> detector_;
  std::atomic<uint64_t> rr_next_{0};  // round-robin for untagged batches

  // Serializes reconfigurations (seal/rejoin). Lock order: failover_mu_ ->
  // placement_mu_ / metalog mutex / shard mutex; never acquired while
  // holding any of those.
  std::mutex failover_mu_;
  // Guards the placement view. Leaf lock.
  mutable std::mutex placement_mu_;
  std::vector<uint32_t> live_;  // live shard ids, ascending
  uint64_t epoch_ = 0;
};

}  // namespace impeller

#endif  // IMPELLER_SRC_SHAREDLOG_SHARED_LOG_H_
