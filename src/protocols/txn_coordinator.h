// The Kafka Streams transaction protocol re-implemented over the shared log,
// mirroring paper §3.6 and the in-Impeller baseline of §5.1.
//
// Phase one (driven by the calling task): the task registers the substreams
// it wrote this transaction — the coordinator appends a registration record
// to its transaction stream — then requests commit; the coordinator appends
// a pre-commit record and replies. Each interaction pays a modeled RPC
// latency plus a real log append. A task steps phase one cooperatively
// (BeginTransaction + PhaseOne::Poll), holding each modeled wait as a due
// time instead of sleeping its scheduler worker on it.
//
// Phase two (asynchronous, coordinator worker thread): the coordinator
// appends a commit control record to every registered substream (committing
// the task's records below that control record's LSN for downstream
// consumers), then a transaction-committed record to its transaction
// stream, and finally resolves the future handed back to the task. A task
// cannot start committing transaction N+1 before N's future resolves.
#ifndef IMPELLER_SRC_PROTOCOLS_TXN_COORDINATOR_H_
#define IMPELLER_SRC_PROTOCOLS_TXN_COORDINATOR_H_

#include <atomic>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/common/clock.h"
#include "src/common/metrics.h"
#include "src/common/queue.h"
#include "src/common/retry.h"
#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/common/threading.h"
#include "src/core/marker.h"
#include "src/obs/trace.h"
#include "src/sharedlog/shared_log.h"

namespace impeller {

struct TxnCoordinatorOptions {
  std::string name = "txn-coord";
  // One-way RPC latency between a task and the coordinator (gRPC over the
  // cluster network in the paper's setup).
  DurationNs rpc_median = 300 * kMicrosecond;
  double rpc_sigma = 0.3;
  uint64_t seed = 42;
  // Optional: retry/* counters for the coordinator's log appends.
  MetricsRegistry* metrics = nullptr;
  RetryPolicy retry;
};

struct TxnRequest {
  std::string task_id;
  uint64_t instance = 0;
  // Substreams written during this transaction (output substream tags and
  // the change-log tag).
  std::vector<std::string> output_tags;
  // The task's LSN-stream (its task-log tag): receives a commit record
  // carrying the input ends for recovery.
  std::string task_log_tag;
  std::vector<std::pair<std::string, Lsn>> input_ends;
  Lsn changelog_from = kInvalidLsn;
};

class TxnCoordinator {
  struct PendingTxn {
    TxnRequest request;
    uint64_t txn_id;
    std::promise<Status> done;
  };

 public:
  TxnCoordinator(SharedLog* log, Clock* clock,
                 TxnCoordinatorOptions options = {});
  ~TxnCoordinator();

  void Start();
  void Stop();

  // Phase one of one transaction. Each Poll() runs the phase-one steps whose
  // modeled delay (an RPC leg or a coordinator-log ack) has elapsed, so no
  // call parks the caller's thread on a wait.
  class PhaseOne {
   public:
    // Advances phase one as far as the clock allows. Returns the wait until
    // its next step is due, or 0 once phase one is over; result() then
    // holds the future phase two resolves, or the failure.
    DurationNs Poll();
    const Result<std::shared_future<Status>>& result() const {
      return result_;
    }

   private:
    friend class TxnCoordinator;
    enum class Stage { kRegister, kPreCommit, kHandOff, kReply, kDone };

    PhaseOne(TxnCoordinator* coordinator, std::unique_ptr<PendingTxn> txn);
    void Finish(Result<std::shared_future<Status>> result);

    TxnCoordinator* coordinator_;
    std::unique_ptr<PendingTxn> txn_;
    Stage stage_ = Stage::kRegister;
    TimeNs due_ = 0;
    std::shared_future<Status> done_;
    Result<std::shared_future<Status>> result_;
    obs::StepSpan span_;  // "protocol/txn_phase1", start to Finish
  };

  // Starts phase one (the instance fencing check runs here) and returns the
  // state machine the caller drives with Poll(). kFenced when the instance
  // was superseded.
  Result<std::unique_ptr<PhaseOne>> BeginTransaction(TxnRequest request);

  const std::string& txn_stream_tag() const { return txn_stream_tag_; }
  uint64_t committed_txns() const { return committed_.load(); }

 private:
  // One modeled one-way RPC latency.
  DurationNs RpcDelay();
  void WorkerLoop();
  // Admits one record to the transaction stream; returns its ack time.
  Result<TimeNs> AdmitTxnStream(TxnControlKind kind, uint64_t txn_id,
                                const std::string& task_id,
                                uint64_t instance);

  SharedLog* log_;
  Clock* clock_;
  TxnCoordinatorOptions options_;
  std::string txn_stream_tag_;

  std::mutex rng_mu_;
  Rng rng_;
  Retrier retrier_;

  std::atomic<uint64_t> next_txn_id_{1};
  std::atomic<uint64_t> committed_{0};
  std::atomic<uint64_t> coord_seq_{0};
  BlockingQueue<std::unique_ptr<PendingTxn>> phase2_;
  JoiningThread worker_;
  std::atomic<bool> running_{false};
};

}  // namespace impeller

#endif  // IMPELLER_SRC_PROTOCOLS_TXN_COORDINATOR_H_
