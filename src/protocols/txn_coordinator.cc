#include "src/protocols/txn_coordinator.h"

#include "src/common/logging.h"
#include "src/core/record.h"
#include "src/core/stream.h"
#include "src/fault/fault.h"
#include "src/obs/trace.h"

namespace impeller {

TxnCoordinator::TxnCoordinator(SharedLog* log, Clock* clock,
                               TxnCoordinatorOptions options)
    : log_(log),
      clock_(clock),
      options_(std::move(options)),
      rng_(options_.seed),
      retrier_(options_.retry, options_.seed ^ 0xC0FFEEULL, clock_,
               options_.metrics) {
  txn_stream_tag_ = "x/" + options_.name;
}

TxnCoordinator::~TxnCoordinator() { Stop(); }

void TxnCoordinator::Start() {
  if (running_.exchange(true)) {
    return;
  }
  worker_ = JoiningThread([this] { WorkerLoop(); });
}

void TxnCoordinator::Stop() {
  if (!running_.exchange(false)) {
    return;
  }
  phase2_.Close();
  worker_.Join();
}

DurationNs TxnCoordinator::RpcDelay() {
  std::lock_guard<std::mutex> lock(rng_mu_);
  return static_cast<DurationNs>(rng_.NextLogNormal(
      static_cast<double>(options_.rpc_median), options_.rpc_sigma));
}

Result<TimeNs> TxnCoordinator::AdmitTxnStream(TxnControlKind kind,
                                              uint64_t txn_id,
                                              const std::string& task_id,
                                              uint64_t instance) {
  TxnControlBody body;
  body.kind = kind;
  body.txn_id = txn_id;
  RecordHeader header;
  header.type = RecordType::kTxnControl;
  header.producer = task_id;
  header.instance = instance;
  header.seq = coord_seq_.fetch_add(1) + 1;
  AppendRequest req;
  req.tags.push_back(txn_stream_tag_);
  req.payload = EncodeEnvelope(header, EncodeTxnControlBody(body));
  std::vector<AppendRequest> batch;
  batch.push_back(std::move(req));
  auto admitted =
      retrier_.Run("txn_stream_append", [&] { return log_->AdmitBatch(batch); });
  if (!admitted.ok()) {
    return admitted.status();
  }
  return admitted->ack_at;
}

Result<std::unique_ptr<TxnCoordinator::PhaseOne>>
TxnCoordinator::BeginTransaction(TxnRequest request) {
  if (!running_.load()) {
    return UnavailableError("coordinator stopped");
  }
  uint64_t txn_id = next_txn_id_.fetch_add(1);

  // Fencing: a superseded instance must not start a transaction (Kafka's
  // producer-epoch fencing).
  auto current = log_->MetaGet(InstanceMetaKey(request.task_id));
  if (current.ok() && *current != request.instance) {
    return FencedError("instance " + std::to_string(request.instance) +
                       " superseded by " + std::to_string(*current));
  }
  // Fault probe: a delay here widens the race between this epoch check and
  // the conditional phase-2 appends — a replacement instance minted in the
  // gap must still fence this zombie at the log (the appends are conditional
  // on the instance key, so correctness never rests on this check).
  if (auto f = IMPELLER_FAULT_PROBE("txn/fence_check", request.task_id,
                                    fault::kNoLsn);
      f.kind == fault::FaultKind::kDelay) {
    clock_->SleepFor(f.delay);
  }
  auto txn = std::make_unique<PendingTxn>();
  txn->request = std::move(request);
  txn->txn_id = txn_id;
  return std::unique_ptr<PhaseOne>(new PhaseOne(this, std::move(txn)));
}

TxnCoordinator::PhaseOne::PhaseOne(TxnCoordinator* coordinator,
                                   std::unique_ptr<PendingTxn> txn)
    : coordinator_(coordinator),
      txn_(std::move(txn)),
      result_(UnavailableError("transaction phase one in progress")) {
  span_.Open();
  // The registration request's task -> coordinator leg.
  due_ = coordinator_->clock_->Now() + coordinator_->RpcDelay();
}

DurationNs TxnCoordinator::PhaseOne::Poll() {
  TxnCoordinator& c = *coordinator_;
  while (stage_ != Stage::kDone) {
    TimeNs now = c.clock_->Now();
    if (now < due_) {
      return due_ - now;
    }
    switch (stage_) {
      case Stage::kRegister: {
        // Step 1: register the written streams with the coordinator; its
        // reply and the commit request follow the registration's ack.
        const TxnRequest& req = txn_->request;
        auto ack = c.AdmitTxnStream(TxnControlKind::kRegistration,
                                    txn_->txn_id, req.task_id, req.instance);
        if (!ack.ok()) {
          Finish(ack.status());
          break;
        }
        due_ = *ack + c.RpcDelay() + c.RpcDelay();
        stage_ = Stage::kPreCommit;
        break;
      }
      case Stage::kPreCommit: {
        // Step 2: the coordinator appends the pre-commit record before it
        // hands the transaction to phase two and replies.
        const TxnRequest& req = txn_->request;
        auto ack = c.AdmitTxnStream(TxnControlKind::kPreCommit, txn_->txn_id,
                                    req.task_id, req.instance);
        if (!ack.ok()) {
          Finish(ack.status());
          break;
        }
        due_ = *ack;
        stage_ = Stage::kHandOff;
        break;
      }
      case Stage::kHandOff:
        done_ = txn_->done.get_future().share();
        if (!c.phase2_.Push(std::move(txn_))) {
          Finish(UnavailableError("coordinator stopped"));
          break;
        }
        due_ = now + c.RpcDelay();  // the pre-commit response leg
        stage_ = Stage::kReply;
        break;
      case Stage::kReply:
        Finish(done_);
        break;
      case Stage::kDone:
        break;
    }
  }
  return 0;
}

void TxnCoordinator::PhaseOne::Finish(
    Result<std::shared_future<Status>> result) {
  result_ = std::move(result);
  stage_ = Stage::kDone;
  span_.Close("protocol", "txn_phase1");
}

void TxnCoordinator::WorkerLoop() {
  while (true) {
    auto item = phase2_.Pop();
    if (!item.has_value()) {
      return;  // closed and drained
    }
    PendingTxn& txn = **item;
    const TxnRequest& req = txn.request;
    TRACE_SPAN("protocol", "txn_phase2");

    // Fault probe: the coordinator dies (or errors) before writing any
    // commit record — the transaction aborts cleanly and the task's next
    // commit re-covers the epoch.
    if (auto f = IMPELLER_FAULT_PROBE("txn/phase2", req.task_id,
                                      fault::kNoLsn)) {
      if (f.kind == fault::FaultKind::kCrash ||
          f.kind == fault::FaultKind::kError) {
        LOG_INFO << "txn " << txn.txn_id << ": injected phase-2 abort";
        txn.done.set_value(
            UnavailableError("injected coordinator failure in phase 2"));
        continue;
      }
      if (f.kind == fault::FaultKind::kDelay) {
        clock_->SleepFor(f.delay);
      }
    }

    // Phase two: one commit control record per registered substream. The
    // commit record on the task-log substream carries the input ends used
    // for recovery.
    std::vector<AppendRequest> batch;
    for (const std::string& tag : req.output_tags) {
      TxnControlBody body;
      body.kind = TxnControlKind::kCommit;
      body.txn_id = txn.txn_id;
      RecordHeader header;
      header.type = RecordType::kTxnControl;
      header.producer = req.task_id;
      header.instance = req.instance;
      header.seq = coord_seq_.fetch_add(1) + 1;
      AppendRequest append;
      append.tags.push_back(tag);
      append.cond_key = InstanceMetaKey(req.task_id);
      append.cond_value = req.instance;
      append.payload = EncodeEnvelope(header, EncodeTxnControlBody(body));
      batch.push_back(std::move(append));
    }
    {
      TxnControlBody body;
      body.kind = TxnControlKind::kCommit;
      body.txn_id = txn.txn_id;
      body.input_ends = req.input_ends;
      body.changelog_from = req.changelog_from;
      RecordHeader header;
      header.type = RecordType::kTxnControl;
      header.producer = req.task_id;
      header.instance = req.instance;
      header.seq = coord_seq_.fetch_add(1) + 1;
      AppendRequest append;
      append.tags.push_back(req.task_log_tag);
      append.cond_key = InstanceMetaKey(req.task_id);
      append.cond_value = req.instance;
      append.payload = EncodeEnvelope(header, EncodeTxnControlBody(body));
      batch.push_back(std::move(append));
    }
    auto lsns = retrier_.Run("txn_phase2_append",
                             [&] { return log_->AppendBatch(batch); });
    if (!lsns.ok()) {
      LOG_WARN << "txn " << txn.txn_id << " phase 2 failed: "
               << lsns.status().ToString();
      txn.done.set_value(lsns.status());
      continue;
    }
    // Fault probe: the coordinator dies after the commit records are durable
    // but before acknowledging — the classic 2PC ambiguity. Downstream
    // consumers already see the transaction as committed; the task observes
    // a failure, restarts, and recovers to the committed cut on its task
    // log, so the epoch is NOT re-executed.
    if (auto f = IMPELLER_FAULT_PROBE("txn/post_commit", req.task_id,
                                      fault::kNoLsn);
        f.kind == fault::FaultKind::kCrash ||
        f.kind == fault::FaultKind::kError) {
      LOG_INFO << "txn " << txn.txn_id << ": injected post-commit failure";
      committed_.fetch_add(1);
      txn.done.set_value(
          UnavailableError("injected coordinator failure after commit"));
      continue;
    }
    auto ack = AdmitTxnStream(TxnControlKind::kTxnCommitted, txn.txn_id,
                              req.task_id, req.instance);
    if (ack.ok()) {
      log_->AwaitAck(*ack);
    }
    committed_.fetch_add(1);
    txn.done.set_value(ack.status());
  }
}

}  // namespace impeller
