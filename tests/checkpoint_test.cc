// Tests for the recovery machinery: cut extraction, change-log replay across
// instances (§3.3.4), snapshot codecs, and the asynchronous checkpoint
// worker (§3.5).
#include <gtest/gtest.h>

#include "src/core/checkpoint.h"
#include "src/core/stream.h"

namespace impeller {
namespace {

constexpr const char* kTask = "q/stage/0";

class CheckpointTest : public ::testing::Test {
 protected:
  Lsn AppendChange(uint64_t instance, const std::string& key,
                   const std::string& value, bool is_delete = false) {
    RecordHeader h;
    h.type = RecordType::kChangeLog;
    h.producer = kTask;
    h.instance = instance;
    h.seq = ++seq_;
    ChangeLogBody body{"agg", key, is_delete, value};
    AppendRequest req;
    req.tags = {ChangeLogTag(kTask)};
    req.payload = EncodeEnvelope(h, EncodeChangeLogBody(body));
    auto lsn = log_.Append(std::move(req));
    EXPECT_TRUE(lsn.ok());
    return *lsn;
  }

  Lsn AppendMarker(uint64_t instance, uint64_t marker_seq) {
    RecordHeader h;
    h.type = RecordType::kProgressMarker;
    h.producer = kTask;
    h.instance = instance;
    h.seq = ++seq_;
    ProgressMarker m;
    m.marker_seq = marker_seq;
    m.input_ends = {{"d/in/0", 100 + marker_seq}};
    AppendRequest req;
    req.tags = {ChangeLogTag(kTask), TaskLogTag(kTask)};
    req.payload = EncodeEnvelope(h, EncodeProgressMarker(m));
    auto lsn = log_.Append(std::move(req));
    EXPECT_TRUE(lsn.ok());
    return *lsn;
  }

  SharedLog log_;
  uint64_t seq_ = 0;
};

TEST_F(CheckpointTest, ExtractCutFromMarker) {
  Lsn lsn = AppendMarker(2, 7);
  auto entry = log_.ReadAt(lsn);
  ASSERT_TRUE(entry.ok());
  auto env = DecodeEnvelope(entry->payload);
  ASSERT_TRUE(env.ok());
  auto cut = ExtractCut(*env, lsn, kTask);
  ASSERT_TRUE(cut.ok());
  ASSERT_TRUE(cut->has_value());
  EXPECT_EQ((*cut)->instance, 2u);
  EXPECT_EQ((*cut)->marker_seq, 7u);
  EXPECT_EQ((*cut)->lsn, lsn);

  // Another task's marker is not a cut for us.
  auto other = ExtractCut(*env, lsn, "other/task/1");
  ASSERT_TRUE(other.ok());
  EXPECT_FALSE(other->has_value());
}

TEST_F(CheckpointTest, ReplayAppliesCommittedChanges) {
  AppendChange(1, "a", "1");
  AppendChange(1, "b", "2");
  Lsn cut1 = AppendMarker(1, 1);
  AppendChange(1, "a", "3");
  Lsn cut2 = AppendMarker(1, 2);
  AppendChange(1, "c", "9");  // uncommitted suffix: must not apply

  MapStateStore store("agg", nullptr);
  auto stats = ReplayChangelog(&log_, kTask, 0, cut2,
                               [&](const ChangeLogView& c) {
                                 store.ApplyChange(c);
                               });
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(*store.Get("a"), "3");
  EXPECT_EQ(*store.Get("b"), "2");
  EXPECT_FALSE(store.Get("c").has_value());
  EXPECT_EQ(stats->changes_applied, 3u);
  EXPECT_EQ(stats->next_lsn, cut2 + 1);
  (void)cut1;
}

TEST_F(CheckpointTest, ReplayDropsSupersededInstanceChanges) {
  AppendChange(1, "a", "1");
  Lsn cut1 = AppendMarker(1, 1);
  AppendChange(1, "a", "ZOMBIE");  // instance 1 crashed after this
  AppendChange(2, "b", "2");       // instance 2 recovered and continued
  Lsn cut2 = AppendMarker(2, 2);

  MapStateStore store("agg", nullptr);
  auto stats = ReplayChangelog(&log_, kTask, 0, cut2,
                               [&](const ChangeLogView& c) {
                                 store.ApplyChange(c);
                               });
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(*store.Get("a"), "1") << "zombie change must not apply";
  EXPECT_EQ(*store.Get("b"), "2");
  (void)cut1;
}

TEST_F(CheckpointTest, ReplayFromMidpointSkipsPrefix) {
  AppendChange(1, "a", "1");
  Lsn cut1 = AppendMarker(1, 1);
  AppendChange(1, "b", "2");
  Lsn cut2 = AppendMarker(1, 2);

  MapStateStore store("agg", nullptr);
  auto stats = ReplayChangelog(&log_, kTask, cut1 + 1, cut2,
                               [&](const ChangeLogView& c) {
                                 store.ApplyChange(c);
                               });
  ASSERT_TRUE(stats.ok());
  EXPECT_FALSE(store.Get("a").has_value());
  EXPECT_EQ(*store.Get("b"), "2");
}

TEST_F(CheckpointTest, ReplayToInvalidCutIsEmpty) {
  MapStateStore store("agg", nullptr);
  auto stats = ReplayChangelog(&log_, kTask, 0, kInvalidLsn,
                               [&](const ChangeLogView&) { FAIL(); });
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->entries_read, 0u);
}

TEST(SnapshotCodecTest, RoundTrip) {
  std::map<std::string, std::string> sections{
      {"store/agg", "blob-a"}, {"seqmap", "blob-b"}, {"cursors", ""}};
  auto decoded = DecodeSnapshot(EncodeSnapshot(sections));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, sections);
  EXPECT_FALSE(DecodeSnapshot("\xff\xff junk").ok());
}

TEST(CheckpointMetaTest, RoundTrip) {
  CheckpointMeta meta;
  meta.cut_lsn = 123;
  meta.next_replay_lsn = 124;
  meta.marker_seq = 9;
  auto got = DecodeCheckpointMeta(EncodeCheckpointMeta(meta));
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->cut_lsn, 123u);
  EXPECT_EQ(got->next_replay_lsn, 124u);
  EXPECT_EQ(got->marker_seq, 9u);
}

TEST_F(CheckpointTest, WorkerBuildsCheckpointFromChangelog) {
  KvStore store;
  CheckpointWorker worker(&log_, &store, MonotonicClock::Get(),
                          /*interval=*/kSecond, /*gc=*/nullptr);
  worker.RegisterTask(kTask);

  AppendChange(1, "x", "1");
  AppendChange(1, "y", "2");
  Lsn cut = AppendMarker(1, 1);
  worker.RunOnce();
  EXPECT_EQ(worker.checkpoints_written(), 1u);

  auto meta_raw = store.Get(CheckpointMetaKey(kTask));
  ASSERT_TRUE(meta_raw.ok());
  auto meta = DecodeCheckpointMeta(*meta_raw);
  ASSERT_TRUE(meta.ok());
  EXPECT_EQ(meta->cut_lsn, cut);
  EXPECT_EQ(meta->next_replay_lsn, cut + 1);

  auto blob = store.Get(CheckpointBlobKey(kTask));
  ASSERT_TRUE(blob.ok());
  auto sections = DecodeSnapshot(*blob);
  ASSERT_TRUE(sections.ok());
  MapStateStore restored("agg", nullptr);
  ASSERT_TRUE(restored.RestoreSnapshot(sections->at("store/agg")).ok());
  EXPECT_EQ(*restored.Get("x"), "1");
  EXPECT_EQ(*restored.Get("y"), "2");

  // No new cut -> no new checkpoint.
  worker.RunOnce();
  EXPECT_EQ(worker.checkpoints_written(), 1u);

  // More committed changes -> incremental checkpoint.
  AppendChange(1, "x", "10");
  AppendMarker(1, 2);
  worker.RunOnce();
  EXPECT_EQ(worker.checkpoints_written(), 2u);
  blob = store.Get(CheckpointBlobKey(kTask));
  sections = DecodeSnapshot(*blob);
  ASSERT_TRUE(restored.RestoreSnapshot(sections->at("store/agg")).ok());
  EXPECT_EQ(*restored.Get("x"), "10");
}

TEST_F(CheckpointTest, WorkerIgnoresUncommittedSuffix) {
  KvStore store;
  CheckpointWorker worker(&log_, &store, MonotonicClock::Get(), kSecond,
                          nullptr);
  worker.RegisterTask(kTask);
  AppendChange(1, "x", "1");
  worker.RunOnce();
  EXPECT_EQ(worker.checkpoints_written(), 0u)
      << "no cut yet: nothing to checkpoint";
}

}  // namespace
}  // namespace impeller
