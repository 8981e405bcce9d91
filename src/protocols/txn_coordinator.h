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
// The transaction stream commits in groups: at most one round of it is in
// flight per coordinator. Records that arrive meanwhile queue, and the
// first caller to find that round acked admits them all as the next round.
// A transaction alone on the coordinator admits at once, so it takes the
// same rounds as without grouping.
//
// Phase two (asynchronous, coordinator worker thread): each pass takes every
// transaction handed off since the last one. For each it admits a commit
// control record to every registered substream (committing the task's
// records below that control record's LSN for downstream consumers) as one
// batch of its own, conditional on that task's instance key, so a fenced
// zombie fails only itself. The pass then waits once for the latest of
// those acks, writes the group's transaction-committed records in one
// transaction-stream round, and resolves each transaction's future (Kafka's
// coordinator likewise sends one batched WriteTxnMarkers request per
// broker). A task cannot start committing transaction N+1 before N's future
// resolves.
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
    obs::StepSpan phase2_span;  // "protocol/txn_phase2", pass start to done
  };
  // One transaction-stream round: the records queued for it, then, once
  // admitted, its outcome (final from then on).
  struct TxnRound {
    std::vector<AppendRequest> records;
    bool admitted = false;
    Status status;
    TimeNs ack_at = 0;
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
    // kRegister and kPreCommit each queue their transaction-stream record
    // (holding a ticket), then wait for the ack of the round carrying it.
    enum class Stage { kRegister, kPreCommit, kHandOff, kReply, kDone };

    PhaseOne(TxnCoordinator* coordinator, std::unique_ptr<PendingTxn> txn,
             DurationNs first_wait);
    void Finish(Result<std::shared_future<Status>> result);

    TxnCoordinator* coordinator_;
    std::unique_ptr<PendingTxn> txn_;
    Stage stage_ = Stage::kRegister;
    TimeNs due_ = 0;
    std::shared_ptr<TxnRound> ticket_;  // this stage's queued record
    std::shared_future<Status> done_;
    Result<std::shared_future<Status>> result_;
    obs::StepSpan span_;  // "protocol/txn_phase1", start to Finish
  };

  // Starts phase one (the instance fencing check runs here) and returns the
  // state machine the caller drives with Poll(); it never waits itself.
  // kFenced when the instance was superseded.
  Result<std::unique_ptr<PhaseOne>> BeginTransaction(TxnRequest request);

  const std::string& txn_stream_tag() const { return txn_stream_tag_; }
  uint64_t committed_txns() const { return committed_.load(); }

 private:
  // One modeled one-way RPC latency.
  DurationNs RpcDelay();
  void WorkerLoop();
  // Phase two of one pass's transactions.
  void CommitGroup(std::vector<std::unique_ptr<PendingTxn>> group);
  // One transaction-control record for `txn` on `tag`.
  AppendRequest ControlRecord(const std::string& tag, TxnControlBody body,
                              const PendingTxn& txn);
  // Queues `records` for the next transaction-stream round and returns it.
  std::shared_ptr<TxnRound> QueueTxnStream(
      std::vector<AppendRequest> records);
  // Admits the queued round if no round is in flight. Returns 0 once
  // `round` is admitted, else how long to wait before pumping again.
  DurationNs PumpTxnStream(const TxnRound& round);

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

  std::mutex stream_mu_;  // guards the transaction-stream rounds below
  std::shared_ptr<TxnRound> queued_round_;
  bool admitting_ = false;  // a caller is admitting the round it dequeued
  TimeNs stream_busy_until_ = 0;  // the last admitted round's ack

  BlockingQueue<std::unique_ptr<PendingTxn>> phase2_;
  JoiningThread worker_;
  std::atomic<bool> running_{false};
};

}  // namespace impeller

#endif  // IMPELLER_SRC_PROTOCOLS_TXN_COORDINATOR_H_
