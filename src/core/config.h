// Engine-wide configuration. Defaults follow the paper's experimental setup
// (§5.1): commit interval 100 ms, snapshot interval 10 s, 128 KiB output
// buffers.
#ifndef IMPELLER_SRC_CORE_CONFIG_H_
#define IMPELLER_SRC_CORE_CONFIG_H_

#include <cstddef>
#include <cstdint>

#include "src/autoscale/autoscaler.h"
#include "src/common/clock.h"
#include "src/common/retry.h"
#include "src/sharedlog/sharding/failover.h"

namespace impeller {

// Which exactly-once mechanism the engine runs (§5.1 baselines).
enum class ProtocolKind {
  kProgressMarking,    // Impeller (this paper)
  kKafkaTxn,           // Kafka Streams' two-phase transaction protocol
  kAlignedCheckpoint,  // Flink-style aligned checkpointing
  kUnsafe,             // no progress tracking (§5.3.4)
};

const char* ProtocolKindName(ProtocolKind kind);

struct EngineConfig {
  ProtocolKind protocol = ProtocolKind::kProgressMarking;

  // Interval between progress markers / transaction commits / checkpoint
  // barrier rounds.
  DurationNs commit_interval = 100 * kMillisecond;

  // Interval between asynchronous state checkpoints (progress-marking mode).
  DurationNs snapshot_interval = 10 * kSecond;
  bool enable_checkpointing = true;

  // Output buffer: a forced flush at least this often (appends are also
  // batched up to 128 KiB and at the commit point).
  DurationNs output_flush_interval = 10 * kMillisecond;

  // Operator timer (window trigger) cadence.
  DurationNs timer_interval = 20 * kMillisecond;

  // Task-manager heartbeat monitoring.
  DurationNs heartbeat_interval = 50 * kMillisecond;
  DurationNs failure_timeout = 2 * kSecond;
  bool auto_restart = true;

  // Garbage collection.
  bool enable_gc = false;
  DurationNs gc_interval = 5 * kSecond;

  // Shared-log sharding: per-shard sequencers interleaved by the metalog
  // into one total order. 1 = single sequencer (seed behavior).
  uint32_t log_shards = 1;

  // Shard failure detection / seal protocol (DESIGN.md §10): when a shard
  // stops admitting, the log seals it and bumps the placement epoch so
  // pipelines keep appending to the survivors.
  FailoverOptions log_failover;

  // Workers in the engine's work-stealing task scheduler. 0 = one per
  // hardware thread (floored at 4 so small machines keep preemptive
  // sharing between tasks).
  uint32_t sched_workers = 0;

  // Backoff for log-client appends on transient kUnavailable failures
  // (tasks, ingress producers, protocol coordinators).
  RetryPolicy retry;

  // Metrics-driven autoscaling (disabled by default): the engine runs an
  // Autoscaler that watches per-stage backlog and calls RescaleStage.
  AutoscaleOptions autoscale;
};

inline const char* ProtocolKindName(ProtocolKind kind) {
  switch (kind) {
    case ProtocolKind::kProgressMarking:
      return "impeller";
    case ProtocolKind::kKafkaTxn:
      return "kafka-txn";
    case ProtocolKind::kAlignedCheckpoint:
      return "aligned-ckpt";
    case ProtocolKind::kUnsafe:
      return "unsafe";
  }
  return "?";
}

}  // namespace impeller

#endif  // IMPELLER_SRC_CORE_CONFIG_H_
