// Kafka Streams transactions (paper §3.6, baseline of §5.1): a commit is a
// two-phase transaction through the TxnCoordinator. The task steps phase
// one itself, then holds phase two's future; until it resolves, outputs
// stay buffered and the next transaction waits. Recovery is progress
// marking's, with the coordinator's commit record as the cut.
#include "src/core/commit_protocol.h"
#include "src/core/stream.h"
#include "src/core/task_runtime.h"

namespace impeller {

namespace {

// Output bytes buffered while phase two is in flight before the task stalls
// (§3.6 "if its buffer fills up").
constexpr size_t kInflightBufferBytes = 128 * 1024;

class KafkaTxn final : public CommitProtocol {
 public:
  KafkaTxn(TaskRuntime& task, TxnCoordinator* coordinator)
      : CommitProtocol(task), coordinator_(coordinator) {}

  Status Recover() override { return RecoverFromCut().status(); }
  // Outputs stay buffered while phase two is in flight (§3.6).
  Result<bool> MayFlush() override {
    IMPELLER_ASSIGN_OR_RETURN(DurationNs wait, PhaseTwoWait());
    return wait == 0;
  }
  Result<DurationNs> TailWait() override { return PhaseTwoWait(); }

 private:
  Result<DurationNs> Step() override;
  // Once the buffer behind phase two is full the task stalls: it polls no
  // input until phase two is over, and its worker runs other tasks.
  Result<DurationNs> IdleWait() override {
    return task_.buffered_bytes() < kInflightBufferBytes
               ? Result<DurationNs>(DurationNs{0})
               : PhaseTwoWait();
  }
  // The wait until the previous transaction's phase two is over, 0 once it
  // is (its outcome consumed; an error fails the task).
  Result<DurationNs> PhaseTwoWait();
  // kFlushed, outputs durable: starts the transaction's phase one.
  Status BeginTransaction();

  TxnCoordinator* coordinator_;
  // At most one commit in flight: phase one while stepping it, then phase
  // two's future.
  std::unique_ptr<TxnCoordinator::PhaseOne> phase_one_;
  std::shared_future<Status> phase_two_;
};

Result<DurationNs> KafkaTxn::PhaseTwoWait() {
  if (phase_two_.valid()) {
    if (phase_two_.wait_for(std::chrono::seconds(0)) !=
        std::future_status::ready) {
      return TaskRuntime::kPollInterval;
    }
    Status st = phase_two_.get();
    phase_two_ = {};
    IMPELLER_RETURN_IF_ERROR(st);
  }
  return DurationNs{0};
}

Result<DurationNs> KafkaTxn::Step() {
  if (stage_ == Stage::kDue) {
    // A new transaction waits for the one in progress (§3.6).
    auto wait = PhaseTwoWait();
    if (!wait.ok() || *wait > 0) {
      return wait;
    }
    IMPELLER_RETURN_IF_ERROR(FlushEpoch());
  } else if (phase_one_ == nullptr) {
    IMPELLER_RETURN_IF_ERROR(BeginTransaction());
  } else if (DurationNs wait = phase_one_->Poll(); wait > 0) {
    return wait;
  } else {
    auto future = phase_one_->result();
    phase_one_.reset();
    span_.Close("protocol", "commit_txn");
    if (!future.ok()) {
      return future.status();  // kFenced: superseded instance
    }
    phase_two_ = *future;
    task_.CountCommit();
    EndCommit();
  }
  return DurationNs{0};
}

Status KafkaTxn::BeginTransaction() {
  const TaskWiring& w = task_.wiring();
  const TaskRuntime::Epoch& epoch = task_.epoch();
  auto ends = task_.CurrentInputEnds();
  TxnRequest req;
  req.task_id = task_.task_id();
  req.instance = w.instance;
  req.output_tags.assign(epoch.touched_tags.begin(), epoch.touched_tags.end());
  req.task_log_tag = TaskLogTag(task_.task_id());
  req.input_ends = ends;
  req.changelog_from = epoch.first_changelog;

  // kFenced: a superseded instance.
  IMPELLER_ASSIGN_OR_RETURN(phase_one_,
                            coordinator_->BeginTransaction(std::move(req)));
  task_.SealEpoch(std::move(ends));
  return OkStatus();
}

}  // namespace

std::unique_ptr<CommitProtocol> NewKafkaTxn(TaskRuntime& task,
                                            TxnCoordinator* coordinator) {
  return std::make_unique<KafkaTxn>(task, coordinator);
}

}  // namespace impeller
