// Tests for the input-side buffering algorithm (paper §3.3.3): head-of-line
// blocking on unknown records, commit-event-driven draining, zombie-output
// discarding, and in-order delivery.
#include <gtest/gtest.h>

#include "src/core/commit_tracker.h"
#include "src/core/stream.h"
#include "src/core/substream_reader.h"

namespace impeller {
namespace {

class SubstreamReaderTest : public ::testing::Test {
 protected:
  void AppendData(const std::string& producer, uint64_t instance,
                  const std::string& value, uint64_t seq = 0) {
    static uint64_t auto_seq = 0;
    RecordHeader h;
    h.type = RecordType::kData;
    h.producer = producer;
    h.instance = instance;
    h.seq = seq != 0 ? seq : ++auto_seq;
    DataBody body;
    body.key = "k";
    body.value = value;
    body.event_time = 1;
    AppendRequest req;
    req.tags = {kTag};
    req.payload = EncodeEnvelope(h, EncodeDataBody(body));
    ASSERT_TRUE(log_.Append(std::move(req)).ok());
  }

  Lsn AppendMarker(const std::string& producer, uint64_t instance) {
    RecordHeader h;
    h.type = RecordType::kProgressMarker;
    h.producer = producer;
    h.instance = instance;
    h.seq = 1;
    ProgressMarker m;
    m.marker_seq = 1;
    AppendRequest req;
    req.tags = {kTag, TaskLogTag(producer)};
    req.payload = EncodeEnvelope(h, EncodeProgressMarker(m));
    auto lsn = log_.Append(std::move(req));
    EXPECT_TRUE(lsn.ok());
    return *lsn;
  }

  std::vector<ReadyRecord> PollAll(SubstreamReader& reader) {
    std::vector<ReadyRecord> out;
    SubstreamReader::Hooks hooks;
    auto n = reader.Poll(1024, &out, hooks);
    EXPECT_TRUE(n.ok()) << n.status().ToString();
    return out;
  }

  static constexpr const char* kTag = "d/X/0";
  SharedLog log_;
};

TEST_F(SubstreamReaderTest, IngressRecordsFlowImmediately) {
  CommitTracker tracker(true);
  SubstreamReader reader(&log_, kTag, 0, &tracker, 0);
  AppendData("gen", kIngressInstance, "a");
  AppendData("gen", kIngressInstance, "b");
  auto out = PollAll(reader);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].data.value, "a");
  EXPECT_EQ(out[1].data.value, "b");
  EXPECT_EQ(reader.committed_floor(), 1u);
}

TEST_F(SubstreamReaderTest, TaskRecordsWaitForMarker) {
  CommitTracker tracker(true);
  SubstreamReader reader(&log_, kTag, 0, &tracker, 0);
  AppendData("up/0", 1, "a");
  AppendData("up/0", 1, "b");
  EXPECT_TRUE(PollAll(reader).empty()) << "uncommitted: buffered";
  EXPECT_EQ(reader.buffered(), 2u);

  AppendMarker("up/0", 1);
  auto out = PollAll(reader);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].data.value, "a");
  EXPECT_EQ(reader.buffered(), 0u);
}

TEST_F(SubstreamReaderTest, HeadOfLineBlocksLaterCommittedRecords) {
  // Records from producer B behind an unknown record from producer A must
  // wait even once B commits (substream FIFO, §3.3.3).
  CommitTracker tracker(true);
  SubstreamReader reader(&log_, kTag, 0, &tracker, 0);
  AppendData("A", 1, "a1");
  AppendData("B", 1, "b1");
  AppendMarker("B", 1);  // commits b1 but a1 is still unknown at the head
  auto out = PollAll(reader);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(reader.buffered(), 2u);

  AppendMarker("A", 1);
  out = PollAll(reader);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].data.value, "a1");
  EXPECT_EQ(out[1].data.value, "b1");
}

TEST_F(SubstreamReaderTest, CommittedRecordsBehindTheHeadSurviveARestart) {
  // b1 is committed by B's first instance while A's crashed instance holds
  // the head. By the time the head clears, B has restarted and committed
  // again: b1 must still be delivered, a1 dropped.
  CommitTracker tracker(true);
  SubstreamReader reader(&log_, kTag, 0, &tracker, 0);
  AppendData("A", 1, "a1");  // never committed: A crashes
  AppendData("B", 1, "b1");
  AppendMarker("B", 1);
  AppendMarker("B", 2);  // B restarted and committed its next epoch
  AppendData("A", 2, "a2");
  AppendMarker("A", 2);
  auto out = PollAll(reader);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].data.value, "b1");
  EXPECT_EQ(out[1].data.value, "a2");
}

TEST_F(SubstreamReaderTest, ZombieOutputsAreDiscarded) {
  CommitTracker tracker(true);
  SubstreamReader reader(&log_, kTag, 0, &tracker, 0);
  AppendData("up/0", 1, "committed");
  AppendMarker("up/0", 1);
  AppendData("up/0", 1, "orphan");  // written, never committed: crash
  AppendData("up/0", 2, "recovered");
  AppendMarker("up/0", 2);
  auto out = PollAll(reader);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].data.value, "committed");
  EXPECT_EQ(out[1].data.value, "recovered");
}

TEST_F(SubstreamReaderTest, TxnCommitControlActsAsCommitEvent) {
  CommitTracker tracker(true);
  SubstreamReader reader(&log_, kTag, 0, &tracker, 0);
  AppendData("up/0", 1, "a");
  RecordHeader h;
  h.type = RecordType::kTxnControl;
  h.producer = "up/0";
  h.instance = 1;
  h.seq = 99;
  TxnControlBody body;
  body.kind = TxnControlKind::kCommit;
  body.txn_id = 5;
  AppendRequest req;
  req.tags = {kTag};
  req.payload = EncodeEnvelope(h, EncodeTxnControlBody(body));
  ASSERT_TRUE(log_.Append(std::move(req)).ok());
  auto out = PollAll(reader);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].data.value, "a");
}

TEST_F(SubstreamReaderTest, DuplicateIngressAppendsSuppressed) {
  CommitTracker tracker(true);
  SubstreamReader reader(&log_, kTag, 0, &tracker, 0);
  AppendData("gen", kIngressInstance, "x", /*seq=*/500);
  AppendData("gen", kIngressInstance, "x", /*seq=*/500);  // gateway retry
  AppendData("gen", kIngressInstance, "y", /*seq=*/501);
  auto out = PollAll(reader);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].data.value, "x");
  EXPECT_EQ(out[1].data.value, "y");
}

TEST_F(SubstreamReaderTest, RestoreSeedsCursorAndFloor) {
  CommitTracker tracker(true);
  SubstreamReader reader(&log_, kTag, 0, &tracker, 0);
  AppendData("gen", kIngressInstance, "skipped");
  AppendData("gen", kIngressInstance, "read");
  reader.Restore(1, 0);
  auto out = PollAll(reader);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].data.value, "read");
  EXPECT_EQ(reader.committed_floor(), 1u);
}

TEST_F(SubstreamReaderTest, BarrierInvokesHookInOrder) {
  CommitTracker tracker(false);
  SubstreamReader reader(&log_, kTag, 0, &tracker, 0);
  AppendData("up/0", 1, "before");
  RecordHeader h;
  h.type = RecordType::kBarrier;
  h.producer = "up/0";
  h.instance = 1;
  h.seq = 1;
  BarrierBody body;
  body.checkpoint_id = 3;
  AppendRequest req;
  req.tags = {kTag};
  req.payload = EncodeEnvelope(h, EncodeBarrierBody(body));
  ASSERT_TRUE(log_.Append(std::move(req)).ok());
  AppendData("up/0", 1, "after");

  std::vector<ReadyRecord> out;
  size_t barrier_position = SIZE_MAX;
  uint64_t seen_id = 0;
  SubstreamReader::Hooks hooks;
  hooks.on_barrier = [&](uint32_t, const EnvelopeView&,
                         const BarrierBody& b, Lsn) {
    barrier_position = out.size();
    seen_id = b.checkpoint_id;
  };
  ASSERT_TRUE(reader.Poll(16, &out, hooks).ok());
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(seen_id, 3u);
  EXPECT_EQ(barrier_position, 1u)
      << "barrier fires between the surrounding records";
}

TEST_F(SubstreamReaderTest, TrimmedCursorSurfacesError) {
  CommitTracker tracker(true);
  SubstreamReader reader(&log_, kTag, 0, &tracker, 0);
  AppendData("gen", kIngressInstance, "a");
  AppendData("gen", kIngressInstance, "b");
  ASSERT_TRUE(log_.Trim(2).ok());
  std::vector<ReadyRecord> out;
  SubstreamReader::Hooks hooks;
  auto n = reader.Poll(16, &out, hooks);
  ASSERT_FALSE(n.ok());
  EXPECT_EQ(n.status().code(), StatusCode::kTrimmed);
}

TEST_F(SubstreamReaderTest, PollRespectsBatchLimit) {
  CommitTracker tracker(true);
  SubstreamReader reader(&log_, kTag, 0, &tracker, 0);
  for (int i = 0; i < 20; ++i) {
    AppendData("gen", kIngressInstance, std::to_string(i));
  }
  std::vector<ReadyRecord> out;
  SubstreamReader::Hooks hooks;
  auto n = reader.Poll(5, &out, hooks);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 5u);
  EXPECT_EQ(out.size(), 5u);
}

}  // namespace
}  // namespace impeller
