// Progress marking (Impeller, paper §3.3): a commit is one conditional
// append, fenced by the task's instance number (§3.4), of a marker that
// records the epoch's input ends and first output and changelog LSNs to
// every downstream substream, the task log and the changelog.
#include "src/core/commit_protocol.h"
#include "src/core/stream.h"
#include "src/core/task_runtime.h"

namespace impeller {

namespace {

class ProgressMarking final : public CommitProtocol {
 public:
  explicit ProgressMarking(TaskRuntime& task) : CommitProtocol(task) {}

  Status Recover() override {
    IMPELLER_ASSIGN_OR_RETURN(uint64_t seq, RecoverFromCut());
    marker_seq_ = seq + 1;
    return OkStatus();
  }

  Result<DurationNs> Step() override {
    IMPELLER_RETURN_IF_ERROR(stage_ == Stage::kDue ? FlushEpoch()
                                                   : AppendMarker());
    return DurationNs{0};
  }

 private:
  // kFlushed, outputs durable: admits the progress marker.
  Status AppendMarker();
  std::vector<std::string> DownstreamTags() const;

  uint64_t marker_seq_ = 1;
};

std::vector<std::string> ProgressMarking::DownstreamTags() const {
  const TaskWiring& w = task_.wiring();
  std::vector<std::string> tags;
  for (const OutputSpec& out : w.stage->outputs) {
    const StreamSpec& stream = w.plan->streams.at(out.stream);
    for (uint32_t sub = 0; sub < stream.num_substreams; ++sub) {
      tags.push_back(DataTag(out.stream, sub));
    }
  }
  tags.push_back(TaskLogTag(task_.task_id()));
  if (task_.captures_changes()) {
    tags.push_back(ChangeLogTag(task_.task_id()));
  }
  return tags;
}

Status ProgressMarking::AppendMarker() {
  if (task_.MaybeInjectCrash("task/commit/pre_marker")) {
    // Outputs are durable but the marker is not: the epoch is uncommitted
    // and must be re-executed by the replacement instance.
    return UnavailableError("injected crash before marker append");
  }
  const TaskWiring& w = task_.wiring();
  auto ends = task_.CurrentInputEnds();
  ProgressMarker marker;
  marker.marker_seq = marker_seq_;
  marker.input_ends = ends;
  marker.outputs_from = task_.epoch().first_output;
  marker.changelog_from = task_.epoch().first_changelog;

  RecordHeader header;
  header.type = RecordType::kProgressMarker;
  header.producer = task_.task_id();
  header.instance = w.instance;
  header.seq = ++task_.out_seq();

  AppendRequest req;
  req.tags = DownstreamTags();
  req.cond_key = InstanceMetaKey(task_.task_id());
  req.cond_value = w.instance;
  req.payload = EncodeEnvelope(header, EncodeProgressMarker(marker));

  // Retried through the batch API: AdmitBatch leaves the request intact on
  // transient failure, so a retry re-appends the identical marker. The
  // marker is admitted, not awaited: its ack joins the task's pending ack.
  std::vector<AppendRequest> batch;
  batch.push_back(std::move(req));
  // kFenced: this instance is a zombie.
  IMPELLER_ASSIGN_OR_RETURN(
      AdmittedBatch admitted,
      task_.retrier().Run("marker_append",
                          [&] { return w.log->AdmitBatch(batch); }));
  task_.Admitted(admitted.ack_at);
  span_.Close("protocol", "commit_marker");
  if (task_.MaybeInjectCrash("task/commit/post_marker")) {
    // The marker is in the log but this instance dies before acknowledging
    // it: the exit waits out the marker's ack, so the replacement recovers
    // exactly to this marker's cut and resumes — the committed-but-unacked
    // case of §3.3.4.
    return UnavailableError("injected crash after marker append");
  }
  task_.CountCommit();
  ++marker_seq_;
  if (w.gc != nullptr) {
    w.gc->PublishFloor(task_.task_id() + "/marker", admitted.lsns[0]);
  }
  task_.SealEpoch(std::move(ends));
  EndCommit();
  return OkStatus();
}

}  // namespace

std::unique_ptr<CommitProtocol> NewProgressMarking(TaskRuntime& task) {
  return std::make_unique<ProgressMarking>(task);
}

}  // namespace impeller
