// Unit tests for src/common: status/result, serde, histogram, rng,
// rate limiter, blocking queue, hashing.
#include <gtest/gtest.h>

#include <set>
#include <thread>

#include "src/common/arena.h"
#include "src/common/clock.h"
#include "src/common/hash.h"
#include "src/common/histogram.h"
#include "src/common/queue.h"
#include "src/common/rate_limiter.h"
#include "src/common/rng.h"
#include "src/common/serde.h"
#include "src/common/status.h"
#include "src/common/threading.h"

namespace impeller {
namespace {

TEST(StatusTest, OkByDefault) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status st = FencedError("instance 3 superseded");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kFenced);
  EXPECT_EQ(st.ToString(), "FENCED: instance 3 superseded");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (int c = 0; c <= static_cast<int>(StatusCode::kInternal); ++c) {
    EXPECT_NE(StatusCodeName(static_cast<StatusCode>(c)), "UNKNOWN");
  }
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.value_or(7), 42);
}

TEST(ResultTest, HoldsStatus) {
  Result<int> r(NotFoundError("nope"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.value_or(7), 7);
}

TEST(ResultTest, MoveOnlyValues) {
  Result<std::unique_ptr<int>> r(std::make_unique<int>(5));
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).value();
  EXPECT_EQ(*v, 5);
}

// --- serde ---

TEST(SerdeTest, VarintRoundTripSmall) {
  const std::vector<uint64_t> values = {0,   1,          127,
                                        128, 300,        1ull << 32,
                                        UINT64_MAX};
  BinaryWriter w;
  for (uint64_t v : values) {
    w.WriteVarU64(v);
  }
  BinaryReader r(w.view());
  for (uint64_t v : values) {
    auto got = r.ReadVarU64();
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(*got, v);
  }
  EXPECT_TRUE(r.AtEnd());
}

class SerdeSignedSweep : public ::testing::TestWithParam<int64_t> {};

TEST_P(SerdeSignedSweep, ZigZagRoundTrip) {
  BinaryWriter w;
  w.WriteVarI64(GetParam());
  BinaryReader r(w.view());
  auto got = r.ReadVarI64();
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, GetParam());
}

INSTANTIATE_TEST_SUITE_P(Values, SerdeSignedSweep,
                         ::testing::Values(0, 1, -1, 63, -64, 1234567,
                                           -1234567, INT64_MAX, INT64_MIN));

TEST(SerdeTest, StringsAndDoubles) {
  BinaryWriter w;
  w.WriteString("hello");
  w.WriteString(std::string(1000, 'x'));
  w.WriteDouble(3.14159);
  w.WriteString("");
  BinaryReader r(w.view());
  EXPECT_EQ(*r.ReadString(), "hello");
  EXPECT_EQ(r.ReadString()->size(), 1000u);
  EXPECT_DOUBLE_EQ(*r.ReadDouble(), 3.14159);
  EXPECT_EQ(*r.ReadString(), "");
  EXPECT_TRUE(r.AtEnd());
}

TEST(SerdeTest, TruncatedInputReportsDataLoss) {
  BinaryWriter w;
  w.WriteString("hello world");
  std::string data = w.Take();
  BinaryReader r(std::string_view(data).substr(0, 4));
  auto got = r.ReadString();
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kDataLoss);
}

TEST(SerdeTest, CorruptVarintReportsDataLoss) {
  std::string bad(11, '\xff');  // never-terminating varint
  BinaryReader r(bad);
  auto got = r.ReadVarU64();
  ASSERT_FALSE(got.ok());
}

TEST(SerdeTest, RandomRoundTripProperty) {
  Rng rng(7);
  for (int iter = 0; iter < 200; ++iter) {
    uint64_t a = rng.NextU64();
    int64_t b = static_cast<int64_t>(rng.NextU64());
    std::string s(rng.NextBounded(64), static_cast<char>(rng.NextBounded(256)));
    BinaryWriter w;
    w.WriteVarU64(a);
    w.WriteVarI64(b);
    w.WriteString(s);
    BinaryReader r(w.view());
    EXPECT_EQ(*r.ReadVarU64(), a);
    EXPECT_EQ(*r.ReadVarI64(), b);
    EXPECT_EQ(*r.ReadString(), s);
  }
}

// --- histogram ---

TEST(SerdeTest, SinkModeAppendsToCallerBuffer) {
  std::string sink = "prefix-";
  {
    BinaryWriter w(&sink);
    w.WriteVarU64(300);
    w.WriteString("abc");
    EXPECT_EQ(w.view().substr(0, 7), "prefix-");
  }
  // Sink mode owns nothing: the bytes landed directly in the caller's
  // buffer and match what an owned writer would have produced.
  BinaryWriter owned;
  owned.WriteVarU64(300);
  owned.WriteString("abc");
  EXPECT_EQ(sink, "prefix-" + owned.Take());
}

TEST(SerdeTest, ViewAccessorTracksWrites) {
  BinaryWriter w;
  EXPECT_TRUE(w.view().empty());
  w.WriteString("hello");
  std::string_view before = w.view();
  EXPECT_FALSE(before.empty());
  EXPECT_EQ(before.size(), w.data().size());
}

TEST(SerdeTest, ReadStringViewAliasesInputAndMatchesReadString) {
  BinaryWriter w;
  w.WriteString("alpha");
  w.WriteString("");
  w.WriteString(std::string(500, 'z'));
  std::string data = w.Take();

  BinaryReader owning(data);
  BinaryReader viewing(data);
  for (int i = 0; i < 3; ++i) {
    auto o = owning.ReadString();
    auto v = viewing.ReadStringView();
    ASSERT_TRUE(o.ok());
    ASSERT_TRUE(v.ok());
    EXPECT_EQ(*o, *v);
    if (!v->empty()) {
      // The view aliases the input buffer — zero copy.
      EXPECT_GE(v->data(), data.data());
      EXPECT_LE(v->data() + v->size(), data.data() + data.size());
    }
  }
  EXPECT_TRUE(viewing.AtEnd());

  BinaryReader truncated(std::string_view(data).substr(0, 3));
  auto bad = truncated.ReadStringView();
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kDataLoss);
}

TEST(ArenaTest, BumpAllocAndReset) {
  Arena arena(64);
  EXPECT_EQ(arena.bytes_used(), 0u);
  char* a = arena.Alloc(16);
  char* b = arena.Alloc(16);
  EXPECT_NE(a, b);
  EXPECT_EQ(arena.bytes_used(), 32u);

  std::string_view copied = arena.CopyString("record-key");
  EXPECT_EQ(copied, "record-key");

  arena.Reset();
  EXPECT_EQ(arena.bytes_used(), 0u);
  // Capacity survives Reset: the next epoch reuses the same block.
  size_t reserved = arena.bytes_reserved();
  char* c = arena.Alloc(16);
  EXPECT_EQ(c, a) << "reset arena must reuse its first block";
  EXPECT_EQ(arena.bytes_reserved(), reserved);
}

TEST(ArenaTest, GrowsThenConvergesToOneBlock) {
  Arena arena(64);
  for (int i = 0; i < 100; ++i) {
    arena.Alloc(64);
  }
  EXPECT_GT(arena.blocks(), 1u);
  size_t peak = arena.bytes_reserved();
  arena.Reset();
  EXPECT_EQ(arena.blocks(), 1u) << "reset keeps only the largest block";
  EXPECT_LE(arena.bytes_reserved(), peak);
  // A same-sized epoch may still grow (only the largest block was kept),
  // but repeated epochs converge on an allocation-free steady state.
  for (int round = 0; round < 4; ++round) {
    for (int i = 0; i < 100; ++i) {
      arena.Alloc(64);
    }
    arena.Reset();
  }
  size_t settled = arena.bytes_reserved();
  for (int i = 0; i < 100; ++i) {
    arena.Alloc(64);
  }
  EXPECT_EQ(arena.blocks(), 1u);
  EXPECT_EQ(arena.bytes_reserved(), settled);
}

TEST(ArenaTest, EmptyStringCopyAllocatesNothing) {
  Arena arena;
  std::string_view v = arena.CopyString("");
  EXPECT_TRUE(v.empty());
  EXPECT_EQ(arena.bytes_used(), 0u);
}

TEST(StringPoolTest, RecyclesCapacity) {
  StringPool pool;
  std::string s = pool.Acquire();
  s.assign(256, 'x');
  const char* data_ptr = s.data();
  size_t cap = s.capacity();
  pool.Release(std::move(s));
  EXPECT_EQ(pool.pooled(), 1u);

  std::string t = pool.Acquire();
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.data(), data_ptr) << "acquire must return the pooled buffer";
  EXPECT_GE(t.capacity(), cap);
  EXPECT_EQ(pool.pooled(), 0u);
}

TEST(StringPoolTest, TrimBoundsIdleCapacity) {
  StringPool pool;
  for (int i = 0; i < 10; ++i) {
    std::string s(128, 'y');
    pool.Release(std::move(s));
  }
  EXPECT_EQ(pool.pooled(), 10u);
  pool.Trim(4);
  EXPECT_EQ(pool.pooled(), 4u);
}

TEST(StringPoolTest, MaxPooledBoundsTheFreeList) {
  StringPool pool(2);
  for (int i = 0; i < 5; ++i) {
    pool.Release(std::string(64, 'a'));
  }
  EXPECT_EQ(pool.pooled(), 2u) << "max_pooled bounds the pool";
}

TEST(HistogramTest, PercentilesOfUniformSamples) {
  LatencyHistogram h;
  for (int i = 1; i <= 10000; ++i) {
    h.Record(i * 1000);  // 1us .. 10ms
  }
  EXPECT_EQ(h.Count(), 10000u);
  // Log-bucketed: ~3% relative error budget.
  EXPECT_NEAR(static_cast<double>(h.p50()), 5e6, 5e6 * 0.05);
  EXPECT_NEAR(static_cast<double>(h.p99()), 9.9e6, 9.9e6 * 0.05);
  EXPECT_GE(h.Max(), 9'999'000);
  EXPECT_LE(h.Min(), 2000);
}

TEST(HistogramTest, MergePreservesCounts) {
  LatencyHistogram a, b;
  for (int i = 0; i < 100; ++i) {
    a.Record(1000);
    b.Record(100000);
  }
  a.MergeFrom(b);
  EXPECT_EQ(a.Count(), 200u);
  EXPECT_GT(a.p99(), 50000);
}

TEST(HistogramTest, EmptyIsZero) {
  LatencyHistogram h;
  EXPECT_EQ(h.p50(), 0);
  EXPECT_EQ(h.Count(), 0u);
  EXPECT_EQ(h.Mean(), 0.0);
}

TEST(HistogramTest, FormatDuration) {
  EXPECT_EQ(FormatDurationNs(500), "500ns");
  EXPECT_EQ(FormatDurationNs(1500), "1.5us");
  EXPECT_EQ(FormatDurationNs(2'710'000), "2.71ms");
  EXPECT_EQ(FormatDurationNs(3'000'000'000), "3.00s");
}

TEST(HistogramTest, ConcurrentRecording) {
  LatencyHistogram h;
  std::vector<JoiningThread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&h] {
      for (int i = 0; i < 10000; ++i) {
        h.Record(1000 + i);
      }
    });
  }
  threads.clear();
  EXPECT_EQ(h.Count(), 40000u);
}

// --- rng ---

TEST(RngTest, Deterministic) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RngTest, BoundedStaysInRange) {
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
  }
}

TEST(RngTest, LogNormalMedianApproximatelyCorrect) {
  Rng rng(9);
  std::vector<double> samples;
  for (int i = 0; i < 20001; ++i) {
    samples.push_back(rng.NextLogNormal(1000.0, 0.2));
  }
  std::nth_element(samples.begin(), samples.begin() + 10000, samples.end());
  EXPECT_NEAR(samples[10000], 1000.0, 30.0);
}

TEST(RngTest, ZipfSkewsTowardLowRanks) {
  Rng rng(11);
  ZipfGenerator zipf(1000, 1.0);
  uint64_t low = 0, total = 20000;
  for (uint64_t i = 0; i < total; ++i) {
    uint64_t v = zipf.Next(rng);
    ASSERT_LT(v, 1000u);
    if (v < 10) {
      low++;
    }
  }
  // With exponent 1.0, the top-1% of ranks should hold far more than 1% of
  // the mass.
  EXPECT_GT(low, total / 20);
}

TEST(RngTest, ZipfZeroExponentIsUniform) {
  Rng rng(13);
  ZipfGenerator zipf(10, 0.0);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 10000; ++i) {
    counts[zipf.Next(rng)]++;
  }
  for (int c : counts) {
    EXPECT_GT(c, 700);
    EXPECT_LT(c, 1300);
  }
}

// --- rate limiter ---

TEST(RateLimiterTest, PacesWithManualClock) {
  ManualClock clock;
  RateLimiter limiter(1000.0, &clock);  // 1 event per ms
  EXPECT_EQ(limiter.AvailableNow(), 0);
  clock.Advance(10 * kMillisecond);
  EXPECT_NEAR(static_cast<double>(limiter.AvailableNow()), 10.0, 1.0);
}

TEST(RateLimiterTest, BurstIsCapped) {
  ManualClock clock;
  RateLimiter limiter(1000.0, &clock, /*max_burst=*/16);
  clock.Advance(10 * kSecond);
  EXPECT_LE(limiter.AvailableNow(), 16);
}

TEST(RateLimiterTest, UnlimitedNeverBlocks) {
  ManualClock clock;
  RateLimiter limiter(0.0, &clock);
  limiter.Acquire(1000000);  // must not hang
}

// --- queue ---

TEST(QueueTest, FifoOrder) {
  BlockingQueue<int> q;
  q.Push(1);
  q.Push(2);
  q.Push(3);
  EXPECT_EQ(*q.Pop(), 1);
  EXPECT_EQ(*q.Pop(), 2);
  EXPECT_EQ(*q.Pop(), 3);
}

TEST(QueueTest, CloseDrainsThenEnds) {
  BlockingQueue<int> q;
  q.Push(7);
  q.Close();
  EXPECT_FALSE(q.Push(8));
  EXPECT_EQ(*q.Pop(), 7);
  EXPECT_FALSE(q.Pop().has_value());
}

TEST(QueueTest, PopAllTakesEverythingInOrder) {
  BlockingQueue<int> q;
  q.Push(1);
  q.Push(2);
  q.Push(3);
  EXPECT_EQ(q.PopAll(), (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.size(), 0u);
  q.Push(4);
  q.Close();
  EXPECT_EQ(q.PopAll(), (std::vector<int>{4}));
  EXPECT_TRUE(q.PopAll().empty());
}

TEST(QueueTest, CapacityBlocksTryPush) {
  BlockingQueue<int> q(2);
  EXPECT_TRUE(q.TryPush(1));
  EXPECT_TRUE(q.TryPush(2));
  EXPECT_FALSE(q.TryPush(3));
}

TEST(QueueTest, ProducerConsumerAcrossThreads) {
  BlockingQueue<int> q(8);
  int64_t sum = 0;
  JoiningThread consumer([&] {
    while (auto v = q.Pop()) {
      sum += *v;
    }
  });
  for (int i = 1; i <= 100; ++i) {
    q.Push(i);
  }
  q.Close();
  consumer.Join();
  EXPECT_EQ(sum, 5050);
}

// --- hash ---

TEST(HashTest, PartitionIsStableAndInRange) {
  for (uint32_t n : {1u, 2u, 7u, 64u}) {
    EXPECT_EQ(PartitionFor(Fnv1a("hello"), n), PartitionFor(Fnv1a("hello"), n));
    EXPECT_LT(PartitionFor(Fnv1a("hello"), n), n);
  }
}

TEST(HashTest, PartitionSpreadsKeys) {
  std::set<uint32_t> seen;
  for (int i = 0; i < 100; ++i) {
    seen.insert(PartitionFor(Fnv1a("key" + std::to_string(i)), 8));
  }
  EXPECT_EQ(seen.size(), 8u);
}

}  // namespace
}  // namespace impeller
