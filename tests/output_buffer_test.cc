// The zero-copy OutputBuffer: records encoded in place into one contiguous
// flush buffer, framing-inclusive pending-byte accounting, single shared
// allocation per flush, and retry safety across transient append failures.
#include <gtest/gtest.h>

#include "src/core/output_buffer.h"
#include "src/core/record.h"
#include "src/core/stream.h"
#include "src/sharedlog/shared_log.h"

namespace impeller {
namespace {

RecordHeader SampleHeader(uint64_t seq) {
  RecordHeader h;
  h.type = RecordType::kData;
  h.producer = "q1/map/0";
  h.instance = 1;
  h.seq = seq;
  return h;
}

void EncodeRecordInto(OutputBuffer& buffer, OutputBuffer::Kind kind,
                      const std::string& tag, uint64_t seq,
                      std::string_view key, std::string_view value) {
  BinaryWriter& w = buffer.StartRecord(kind, tag);
  AppendEnvelopeHeader(w, RecordType::kData, "q1/map/0", 1, seq);
  AppendDataBody(w, key, value, 42);
  buffer.FinishRecord();
}

TEST(OutputBufferTest, PendingBytesCountFullFramedPayload) {
  SharedLog log;
  OutputBuffer buffer(&log, 1 << 20);
  EXPECT_EQ(buffer.pending_bytes(), 0u);

  EncodeRecordInto(buffer, OutputBuffer::Kind::kOutput, "d/X/0", 1, "key",
                   "value");
  // The framed payload is envelope header + body — exactly what the
  // owning encoders would have produced for the same record.
  RecordHeader h = SampleHeader(1);
  size_t framed = EncodeEnvelope(h, EncodeDataBody({"key", "value", 42})).size();
  EXPECT_EQ(buffer.pending_bytes(), framed);
  EXPECT_EQ(buffer.pending_records(), 1u);

  EncodeRecordInto(buffer, OutputBuffer::Kind::kOutput, "d/X/0", 2, "key2",
                   "value2");
  EXPECT_GT(buffer.pending_bytes(), framed);
}

TEST(OutputBufferTest, NeedsFlushTripsOnFramedBytes) {
  SharedLog log;
  OutputBuffer buffer(&log, 64);
  EXPECT_FALSE(buffer.NeedsFlush());
  EncodeRecordInto(buffer, OutputBuffer::Kind::kOutput, "d/X/0", 1, "key",
                   std::string(64, 'v'));
  EXPECT_TRUE(buffer.NeedsFlush());
}

TEST(OutputBufferTest, FlushedRecordsShareOneAllocationAndDecode) {
  SharedLog log;
  OutputBuffer buffer(&log, 1 << 20);
  for (uint64_t seq = 1; seq <= 3; ++seq) {
    EncodeRecordInto(buffer, OutputBuffer::Kind::kOutput, "d/X/0", seq,
                     "k" + std::to_string(seq), "v" + std::to_string(seq));
  }
  auto result = buffer.Flush();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->records, 3u);
  EXPECT_NE(result->first_output, kInvalidLsn);
  EXPECT_TRUE(buffer.empty());
  EXPECT_EQ(buffer.pending_bytes(), 0u);

  // Every flushed record decodes from the log; their payloads are slices
  // of one shared buffer, not per-record copies.
  Lsn from = 0;
  const std::string* shared_base = nullptr;
  for (uint64_t seq = 1; seq <= 3; ++seq) {
    auto entry = log.ReadNext("d/X/0", from);
    ASSERT_TRUE(entry.ok());
    from = entry->lsn + 1;
    auto env = DecodeEnvelopeView(entry->payload.view());
    ASSERT_TRUE(env.ok());
    EXPECT_EQ(env->seq, seq);
    auto data = DecodeDataView(env->body);
    ASSERT_TRUE(data.ok());
    EXPECT_EQ(data->key, "k" + std::to_string(seq));
    const std::string* base = &*entry->payload.buffer();
    if (shared_base == nullptr) {
      shared_base = base;
    } else {
      EXPECT_EQ(shared_base, base) << "records must share one flush buffer";
    }
  }
}

TEST(OutputBufferTest, ChangeLogAndOutputReportSeparateFirstLsns) {
  SharedLog log;
  OutputBuffer buffer(&log, 1 << 20);
  EncodeRecordInto(buffer, OutputBuffer::Kind::kOutput, "d/X/0", 1, "k", "v");
  {
    BinaryWriter& w =
        buffer.StartRecord(OutputBuffer::Kind::kChangeLog, "c/q1/map/0");
    AppendEnvelopeHeader(w, RecordType::kChangeLog, "q1/map/0", 1, 2);
    AppendChangeLogBody(w, ChangeLogView{"store", "key", false, "val"});
    buffer.FinishRecord();
  }
  auto result = buffer.Flush();
  ASSERT_TRUE(result.ok());
  EXPECT_NE(result->first_output, kInvalidLsn);
  EXPECT_NE(result->first_changelog, kInvalidLsn);
  EXPECT_LT(result->first_output, result->first_changelog);
}

TEST(OutputBufferTest, MixedSealedAndFreshEpochsFlushInOrder) {
  // Records from a sealed (flushed-but-kept) epoch and a fresh epoch must
  // both survive: seal pins the old bytes while new records encode into a
  // new buffer. Interleave two flushes and verify global seq order.
  SharedLog log;
  OutputBuffer buffer(&log, 1 << 20);
  EncodeRecordInto(buffer, OutputBuffer::Kind::kOutput, "d/X/0", 1, "a", "1");
  ASSERT_TRUE(buffer.Flush().ok());
  EncodeRecordInto(buffer, OutputBuffer::Kind::kOutput, "d/X/0", 2, "b", "2");
  EncodeRecordInto(buffer, OutputBuffer::Kind::kOutput, "d/X/0", 3, "c", "3");
  ASSERT_TRUE(buffer.Flush().ok());

  Lsn from = 0;
  for (uint64_t seq = 1; seq <= 3; ++seq) {
    auto entry = log.ReadNext("d/X/0", from);
    ASSERT_TRUE(entry.ok());
    from = entry->lsn + 1;
    auto env = DecodeEnvelopeView(entry->payload.view());
    ASSERT_TRUE(env.ok());
    EXPECT_EQ(env->seq, seq);
  }
}

}  // namespace
}  // namespace impeller
