#include "src/protocols/txn_coordinator.h"

#include <algorithm>

#include "src/common/logging.h"
#include "src/core/record.h"
#include "src/core/stream.h"
#include "src/fault/fault.h"
#include "src/obs/trace.h"

namespace impeller {

namespace {

// How long a caller waits while another thread admits the queued round (an
// admission normally takes microseconds; longer only under retry backoff).
constexpr DurationNs kAdmitPollWait = 100 * kMicrosecond;

}  // namespace

TxnCoordinator::TxnCoordinator(SharedLog* log, Clock* clock,
                               TxnCoordinatorOptions options)
    : log_(log),
      clock_(clock),
      options_(std::move(options)),
      rng_(options_.seed),
      retrier_(options_.retry, options_.seed ^ 0xC0FFEEULL, clock_,
               options_.metrics) {
  txn_stream_tag_ = "x/" + options_.name;
  queued_round_ = std::make_shared<TxnRound>();
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

AppendRequest TxnCoordinator::ControlRecord(const std::string& tag,
                                            TxnControlBody body,
                                            const PendingTxn& txn) {
  body.txn_id = txn.txn_id;
  RecordHeader header;
  header.type = RecordType::kTxnControl;
  header.producer = txn.request.task_id;
  header.instance = txn.request.instance;
  header.seq = coord_seq_.fetch_add(1) + 1;
  AppendRequest append;
  append.tags.push_back(tag);
  append.payload = EncodeEnvelope(header, EncodeTxnControlBody(body));
  return append;
}

std::shared_ptr<TxnCoordinator::TxnRound> TxnCoordinator::QueueTxnStream(
    std::vector<AppendRequest> records) {
  std::lock_guard<std::mutex> lock(stream_mu_);
  for (AppendRequest& record : records) {
    queued_round_->records.push_back(std::move(record));
  }
  return queued_round_;
}

DurationNs TxnCoordinator::PumpTxnStream(const TxnRound& round) {
  std::unique_lock<std::mutex> lock(stream_mu_);
  if (round.admitted) {
    return 0;
  }
  if (admitting_) {
    return kAdmitPollWait;
  }
  TimeNs now = clock_->Now();
  if (now < stream_busy_until_) {
    return stream_busy_until_ - now;
  }
  // No round in flight, so `round` is the queued one: admit it, without
  // holding the lock across the retrier's backoff.
  std::shared_ptr<TxnRound> next = std::move(queued_round_);
  queued_round_ = std::make_shared<TxnRound>();
  admitting_ = true;
  lock.unlock();
  auto admitted = retrier_.Run("txn_stream_append",
                               [&] { return log_->AdmitBatch(next->records); });
  lock.lock();
  admitting_ = false;
  next->records.clear();
  next->status = admitted.status();
  if (admitted.ok()) {
    next->ack_at = admitted->ack_at;
    stream_busy_until_ = admitted->ack_at;
  }
  next->admitted = true;
  return 0;
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
  // on the instance key, so correctness never rests on this check). The
  // delay is phase one's first wait, not a sleep of the caller.
  DurationNs first_wait = 0;
  if (auto f = IMPELLER_FAULT_PROBE("txn/fence_check", request.task_id,
                                    fault::kNoLsn);
      f.kind == fault::FaultKind::kDelay) {
    first_wait = f.delay;
  }
  auto txn = std::make_unique<PendingTxn>();
  txn->request = std::move(request);
  txn->txn_id = txn_id;
  return std::unique_ptr<PhaseOne>(
      new PhaseOne(this, std::move(txn), first_wait));
}

TxnCoordinator::PhaseOne::PhaseOne(TxnCoordinator* coordinator,
                                   std::unique_ptr<PendingTxn> txn,
                                   DurationNs first_wait)
    : coordinator_(coordinator),
      txn_(std::move(txn)),
      result_(UnavailableError("transaction phase one in progress")) {
  span_.Open();
  // The registration request's task -> coordinator leg.
  due_ = coordinator_->clock_->Now() + first_wait + coordinator_->RpcDelay();
}

DurationNs TxnCoordinator::PhaseOne::Poll() {
  TxnCoordinator& c = *coordinator_;
  while (stage_ != Stage::kDone) {
    TimeNs now = c.clock_->Now();
    if (now < due_) {
      return due_ - now;
    }
    switch (stage_) {
      case Stage::kRegister:
      case Stage::kPreCommit: {
        // Step 1 registers the written streams with the coordinator; its
        // reply and the commit request follow the registration's ack. Step
        // 2: the coordinator appends the pre-commit record before it hands
        // the transaction to phase two and replies.
        const bool registering = stage_ == Stage::kRegister;
        if (ticket_ == nullptr) {
          TxnControlBody body;
          body.kind = registering ? TxnControlKind::kRegistration
                                  : TxnControlKind::kPreCommit;
          std::vector<AppendRequest> record;
          record.push_back(c.ControlRecord(c.txn_stream_tag_, body, *txn_));
          ticket_ = c.QueueTxnStream(std::move(record));
        }
        if (DurationNs wait = c.PumpTxnStream(*ticket_); wait > 0) {
          due_ = now + wait;
          break;
        }
        std::shared_ptr<TxnRound> round = std::move(ticket_);
        if (!round->status.ok()) {
          Finish(round->status);
          break;
        }
        if (registering) {
          due_ = round->ack_at + c.RpcDelay() + c.RpcDelay();
          stage_ = Stage::kPreCommit;
        } else {
          due_ = round->ack_at;
          stage_ = Stage::kHandOff;
        }
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
    auto group = phase2_.PopAll();
    if (group.empty()) {
      return;  // closed and drained
    }
    CommitGroup(std::move(group));
  }
}

void TxnCoordinator::CommitGroup(
    std::vector<std::unique_ptr<PendingTxn>> group) {
  auto resolve = [](PendingTxn& txn, Status status) {
    txn.phase2_span.Close("protocol", "txn_phase2");
    txn.done.set_value(std::move(status));
  };
  // Each transaction's commit control records go out as a batch of their
  // own, without waiting: the batch is conditional on that task's instance
  // key, so a fenced zombie fails only itself.
  std::vector<std::unique_ptr<PendingTxn>> admitted;
  TimeNs latest_ack = 0;
  for (auto& item : group) {
    PendingTxn& txn = *item;
    const TxnRequest& req = txn.request;
    txn.phase2_span.Open();

    // Fault probe: the coordinator dies (or errors) before writing any
    // commit record — the transaction aborts cleanly and the task's next
    // commit re-covers the epoch.
    if (auto f = IMPELLER_FAULT_PROBE("txn/phase2", req.task_id,
                                      fault::kNoLsn)) {
      if (f.kind == fault::FaultKind::kCrash ||
          f.kind == fault::FaultKind::kError) {
        LOG_INFO << "txn " << txn.txn_id << ": injected phase-2 abort";
        resolve(txn,
                UnavailableError("injected coordinator failure in phase 2"));
        continue;
      }
      if (f.kind == fault::FaultKind::kDelay) {
        clock_->SleepFor(f.delay);
      }
    }

    // One commit control record per registered substream. The commit
    // record on the task-log substream carries the input ends used for
    // recovery.
    std::vector<AppendRequest> batch;
    TxnControlBody body;
    body.kind = TxnControlKind::kCommit;
    for (const std::string& tag : req.output_tags) {
      batch.push_back(ControlRecord(tag, body, txn));
    }
    body.input_ends = req.input_ends;
    body.changelog_from = req.changelog_from;
    batch.push_back(ControlRecord(req.task_log_tag, body, txn));
    for (AppendRequest& append : batch) {
      append.cond_key = InstanceMetaKey(req.task_id);
      append.cond_value = req.instance;
    }
    auto ack = retrier_.Run("txn_phase2_append",
                            [&] { return log_->AdmitBatch(batch); });
    if (!ack.ok()) {
      LOG_WARN << "txn " << txn.txn_id << " phase 2 failed: "
               << ack.status().ToString();
      resolve(txn, ack.status());
      continue;
    }
    latest_ack = std::max(latest_ack, ack->ack_at);
    admitted.push_back(std::move(item));
  }
  if (admitted.empty()) {
    return;
  }
  log_->AwaitAck(latest_ack);

  std::vector<std::unique_ptr<PendingTxn>> committed;
  std::vector<AppendRequest> records;
  for (auto& item : admitted) {
    PendingTxn& txn = *item;
    // Fault probe: the coordinator dies after the commit records are
    // durable but before acknowledging — the classic 2PC ambiguity.
    // Downstream consumers already see the transaction as committed; the
    // task observes a failure, restarts, and recovers to the committed cut
    // on its task log, so the epoch is NOT re-executed.
    if (auto f = IMPELLER_FAULT_PROBE("txn/post_commit", txn.request.task_id,
                                      fault::kNoLsn);
        f.kind == fault::FaultKind::kCrash ||
        f.kind == fault::FaultKind::kError) {
      LOG_INFO << "txn " << txn.txn_id << ": injected post-commit failure";
      committed_.fetch_add(1);
      resolve(txn, UnavailableError("injected coordinator failure after "
                                    "commit"));
      continue;
    }
    TxnControlBody body;
    body.kind = TxnControlKind::kTxnCommitted;
    records.push_back(ControlRecord(txn_stream_tag_, body, txn));
    committed.push_back(std::move(item));
  }
  if (committed.empty()) {
    return;
  }
  // The group's transaction-committed records share one round.
  std::shared_ptr<TxnRound> round = QueueTxnStream(std::move(records));
  while (DurationNs wait = PumpTxnStream(*round)) {
    clock_->SleepFor(wait);
  }
  if (round->status.ok()) {
    log_->AwaitAck(round->ack_at);
  }
  for (auto& item : committed) {
    committed_.fetch_add(1);
    resolve(*item, round->status);
  }
}

}  // namespace impeller
