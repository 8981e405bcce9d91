// Tests for the three-case classification of paper §3.3.3 plus zombie
// filtering (§3.4) and duplicate suppression (§3.5).
#include <gtest/gtest.h>

#include "src/core/commit_tracker.h"

namespace impeller {
namespace {

RecordHeader Hdr(std::string producer, uint64_t instance, uint64_t seq = 1) {
  RecordHeader h;
  h.type = RecordType::kData;
  h.producer = std::move(producer);
  h.instance = instance;
  h.seq = seq;
  return h;
}

TEST(CommitTrackerTest, UnknownUntilFirstCommitEvent) {
  CommitTracker tracker(/*read_committed=*/true);
  EXPECT_EQ(tracker.Classify(Hdr("p", 1), 5), CommitState::kUnknown);
  tracker.OnCommitEvent("p", 1, 10);
  EXPECT_EQ(tracker.Classify(Hdr("p", 1), 5), CommitState::kCommitted);
  EXPECT_EQ(tracker.Classify(Hdr("p", 1), 10), CommitState::kUnknown)
      << "the commit event's own LSN is an exclusive bound";
  EXPECT_EQ(tracker.Classify(Hdr("p", 1), 15), CommitState::kUnknown);
}

TEST(CommitTrackerTest, LaterMarkersExtendTheCut) {
  CommitTracker tracker(true);
  tracker.OnCommitEvent("p", 1, 10);
  tracker.OnCommitEvent("p", 1, 20);
  EXPECT_EQ(tracker.Classify(Hdr("p", 1), 15), CommitState::kCommitted);
  EXPECT_EQ(tracker.Classify(Hdr("p", 1), 25), CommitState::kUnknown);
}

TEST(CommitTrackerTest, SupersededInstanceIsDiscarded) {
  // Paper §3.3.3 case 1 + §3.4: once instance 2 commits, instance 1's
  // uncommitted leftovers can never become committed.
  CommitTracker tracker(true);
  tracker.OnCommitEvent("p", 1, 10);
  tracker.OnCommitEvent("p", 2, 30);
  EXPECT_EQ(tracker.Classify(Hdr("p", 1), 15), CommitState::kDiscard);
  EXPECT_EQ(tracker.Classify(Hdr("p", 1), 5), CommitState::kDiscard);
  EXPECT_EQ(tracker.Classify(Hdr("p", 2), 25), CommitState::kCommitted);
}

TEST(CommitTrackerTest, NewerInstanceIsUnknownUntilItCommits) {
  CommitTracker tracker(true);
  tracker.OnCommitEvent("p", 1, 10);
  EXPECT_EQ(tracker.Classify(Hdr("p", 2), 12), CommitState::kUnknown);
  tracker.OnCommitEvent("p", 2, 20);
  EXPECT_EQ(tracker.Classify(Hdr("p", 2), 12), CommitState::kCommitted);
}

TEST(CommitTrackerTest, StaleCommitEventFromZombieIsIgnored) {
  CommitTracker tracker(true);
  tracker.OnCommitEvent("p", 2, 30);
  tracker.OnCommitEvent("p", 1, 50);  // zombie's event must not regress
  EXPECT_EQ(tracker.Classify(Hdr("p", 2), 25), CommitState::kCommitted);
  EXPECT_EQ(tracker.Classify(Hdr("p", 1), 40), CommitState::kDiscard);
}

TEST(CommitTrackerTest, ProducersAreIndependent) {
  CommitTracker tracker(true);
  tracker.OnCommitEvent("a", 1, 10);
  EXPECT_EQ(tracker.Classify(Hdr("a", 1), 5), CommitState::kCommitted);
  EXPECT_EQ(tracker.Classify(Hdr("b", 1), 5), CommitState::kUnknown);
}

TEST(CommitTrackerTest, AllCommittedSinceWaitsForEveryKnownProducer) {
  CommitTracker tracker(true);
  EXPECT_FALSE(tracker.AllCommittedSince(tracker.generation()))
      << "no producer known yet: no wave";
  tracker.OnCommitEvent("a", 1, 10);
  tracker.OnCommitEvent("b", 1, 11);
  uint64_t gen = tracker.generation();
  EXPECT_FALSE(tracker.AllCommittedSince(gen));
  tracker.OnCommitEvent("a", 1, 20);
  EXPECT_FALSE(tracker.AllCommittedSince(gen)) << "b has not committed again";
  tracker.OnCommitEvent("a", 1, 30);
  EXPECT_FALSE(tracker.AllCommittedSince(gen));
  tracker.OnCommitEvent("b", 1, 31);
  EXPECT_TRUE(tracker.AllCommittedSince(gen));
  EXPECT_FALSE(tracker.AllCommittedSince(tracker.generation()));
  tracker.OnCommitEvent("b", 0, 40);  // stale instance: not a commit of b
  tracker.OnCommitEvent("a", 1, 41);
  EXPECT_FALSE(tracker.AllCommittedSince(tracker.generation() - 1));
}

TEST(CommitTrackerTest, IngressRecordsAlwaysCommitted) {
  CommitTracker tracker(true);
  EXPECT_EQ(tracker.Classify(Hdr("gen/bids", kIngressInstance), 5),
            CommitState::kCommitted);
}

TEST(CommitTrackerTest, ReadUncommittedModeCommitsEverything) {
  CommitTracker tracker(/*read_committed=*/false);
  EXPECT_EQ(tracker.Classify(Hdr("p", 3), 999), CommitState::kCommitted);
}

TEST(CommitTrackerTest, IngressDuplicatesAreSuppressed) {
  CommitTracker tracker(true);
  EXPECT_FALSE(tracker.IsDuplicate("d/x/0", Hdr("gen", kIngressInstance, 1)));
  EXPECT_FALSE(tracker.IsDuplicate("d/x/0", Hdr("gen", kIngressInstance, 2)));
  EXPECT_TRUE(tracker.IsDuplicate("d/x/0", Hdr("gen", kIngressInstance, 2)))
      << "a gateway retry re-appends the same sequence number";
  EXPECT_TRUE(tracker.IsDuplicate("d/x/0", Hdr("gen", kIngressInstance, 1)));
  EXPECT_FALSE(tracker.IsDuplicate("d/x/0", Hdr("gen", kIngressInstance, 3)));
}

TEST(CommitTrackerTest, TaskProducersSkipSeqDedupUnderReadCommitted) {
  // A restarted task restarts its sequence counter; the instance check
  // already filters replays, so seq dedup must not fire.
  CommitTracker tracker(true);
  EXPECT_FALSE(tracker.IsDuplicate("d/x/0", Hdr("task", 1, 5)));
  EXPECT_FALSE(tracker.IsDuplicate("d/x/0", Hdr("task", 2, 1)));
}

TEST(CommitTrackerTest, SeqDedupAppliesToAllUnderReadUncommitted) {
  // Aligned-checkpoint recovery re-executes producers with checkpointed
  // sequence counters; dedup is what restores exactly-once.
  CommitTracker tracker(false);
  EXPECT_FALSE(tracker.IsDuplicate("d/x/0", Hdr("task", 1, 1)));
  EXPECT_TRUE(tracker.IsDuplicate("d/x/0", Hdr("task", 2, 1)));
  EXPECT_FALSE(tracker.IsDuplicate("d/x/0", Hdr("task", 2, 2)));
}

TEST(CommitTrackerTest, SeqMapSnapshotRoundTrip) {
  CommitTracker tracker(false);
  EXPECT_FALSE(tracker.IsDuplicate("d/x/0", Hdr("a", 1, 10)));
  EXPECT_FALSE(tracker.IsDuplicate("d/x/0", Hdr("b", 1, 20)));
  std::string blob = tracker.SerializeSeqMap();

  CommitTracker restored(false);
  ASSERT_TRUE(restored.RestoreSeqMap(blob).ok());
  EXPECT_TRUE(restored.IsDuplicate("d/x/0", Hdr("a", 1, 10)));
  EXPECT_TRUE(restored.IsDuplicate("d/x/0", Hdr("b", 1, 19)));
  EXPECT_FALSE(restored.IsDuplicate("d/x/0", Hdr("a", 1, 11)));
}

}  // namespace
}  // namespace impeller
