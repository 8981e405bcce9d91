// Latency models for the simulated log substrates. The models are calibrated
// against Table 2 of the paper (produce-to-consume latency of a 16 KiB record
// for Boki vs Kafka at 10/50/100 appends/s); see DESIGN.md §1.
//
// An append experiences:
//   ack      — time until the append is ordered + durable (the admitted
//              batch's ack_at; AppendBatch waits this long, AdmitBatch
//              returns at once; batched appends share it),
//   delivery — additional propagation until readers can observe the record.
// Both are sampled per batch. Kafka's model adds an idle penalty: a partition
// that has been quiet pays a cold-path cost with a heavy tail, which is why
// Kafka's p99 at 10 appends/s exceeds Boki's (Table 2) while its p50 is lower.
#ifndef IMPELLER_SRC_SHAREDLOG_LATENCY_MODEL_H_
#define IMPELLER_SRC_SHAREDLOG_LATENCY_MODEL_H_

#include <memory>
#include <mutex>

#include "src/common/clock.h"
#include "src/common/rng.h"

namespace impeller {

struct LatencySample {
  DurationNs ack = 0;
  DurationNs delivery = 0;
};

class LatencyModel {
 public:
  virtual ~LatencyModel() = default;

  // `batch_bytes`: total payload size of the batch being appended.
  // `idle_gap`: time since the previous append to the same log/partition.
  virtual LatencySample SampleAppend(size_t batch_bytes,
                                     DurationNs idle_gap) = 0;
};

// Zero latency everywhere; used by unit tests for determinism and speed.
class ZeroLatencyModel final : public LatencyModel {
 public:
  LatencySample SampleAppend(size_t, DurationNs) override { return {}; }
};

struct CalibratedLatencyParams {
  // Medians of the lognormal components.
  DurationNs ack_median = 0;
  double ack_sigma = 0.0;
  DurationNs delivery_median = 0;
  double delivery_sigma = 0.0;
  // Throughput-dependent term: cost per payload byte (models replication /
  // network bandwidth).
  double per_byte_ns = 0.0;
  // Idle penalty: after `idle_threshold` of silence, add a lognormal with
  // `idle_median`/`idle_sigma` scaled by how stale the partition is
  // (saturating at 1). Models cold batching paths / lazy fetch sessions.
  DurationNs idle_threshold = 0;
  DurationNs idle_median = 0;
  double idle_sigma = 0.0;
  // Global scale knob so benchmarks can compress wall-clock time.
  double scale = 1.0;
};

class CalibratedLatencyModel final : public LatencyModel {
 public:
  CalibratedLatencyModel(CalibratedLatencyParams params, uint64_t seed);

  LatencySample SampleAppend(size_t batch_bytes, DurationNs idle_gap) override;

  // Boki-like shared log: higher base (sequencer ordering round on every
  // append) but a thin, stable tail. Calibrated to Table 2 "Impeller's log".
  static CalibratedLatencyParams BokiParams();
  // Kafka: lower base latency, heavy idle tail. Calibrated to Table 2
  // "Kafka".
  static CalibratedLatencyParams KafkaParams();

 private:
  CalibratedLatencyParams params_;
  std::mutex mu_;
  Rng rng_;
};

}  // namespace impeller

#endif  // IMPELLER_SRC_SHAREDLOG_LATENCY_MODEL_H_
