#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

namespace leakdet::gateway {
namespace {

TEST(CounterTest, StartsAtZeroAndAccumulates) {
  obs::Counter c;
  EXPECT_EQ(c.Value(), 0u);
  c.Inc();
  c.Inc(41);
  EXPECT_EQ(c.Value(), 42u);
}

TEST(CounterTest, ConcurrentIncrementsAreExact) {
  obs::Counter c;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kPerThread; ++i) c.Inc();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.Value(), static_cast<uint64_t>(kThreads) * kPerThread);
}

TEST(HistogramTest, BucketsObservationsByPowerOfTwo) {
  obs::Histogram h;
  h.Observe(0);    // bucket 0
  h.Observe(1);    // bucket 0 ([1,2))
  h.Observe(2);    // bucket 1
  h.Observe(3);    // bucket 1
  h.Observe(800);  // bucket 9 ([512,1024))
  obs::Histogram::Snapshot snap = h.Take();
  EXPECT_EQ(snap.count, 5u);
  EXPECT_EQ(snap.sum, 806u);
  EXPECT_EQ(snap.buckets[0], 2u);
  EXPECT_EQ(snap.buckets[1], 2u);
  EXPECT_EQ(snap.buckets[9], 1u);
}

TEST(HistogramTest, HugeValuesLandInLastBucket) {
  obs::Histogram h;
  h.Observe(~uint64_t{0});
  obs::Histogram::Snapshot snap = h.Take();
  EXPECT_EQ(snap.buckets[obs::Histogram::kNumBuckets - 1], 1u);
}

TEST(HistogramTest, MeanAndQuantiles) {
  obs::Histogram h;
  for (int i = 0; i < 90; ++i) h.Observe(100);   // bucket 6: [64,128)
  for (int i = 0; i < 10; ++i) h.Observe(5000);  // bucket 12: [4096,8192)
  obs::Histogram::Snapshot snap = h.Take();
  EXPECT_NEAR(snap.Mean(), (90 * 100 + 10 * 5000) / 100.0, 1e-9);
  EXPECT_EQ(snap.Quantile(0.5), uint64_t{128});    // in the [64,128) bucket
  EXPECT_EQ(snap.Quantile(0.99), uint64_t{8192});  // tail bucket upper edge
}

TEST(HistogramTest, EmptySnapshotIsSane) {
  obs::Histogram h;
  obs::Histogram::Snapshot snap = h.Take();
  EXPECT_EQ(snap.count, 0u);
  EXPECT_EQ(snap.Mean(), 0.0);
  EXPECT_EQ(snap.Quantile(0.99), 0u);
}

TEST(MetricsRegistryTest, SameNameReturnsSameMetric) {
  obs::Registry registry;
  obs::Counter* a = registry.GetCounter("gateway.submitted");
  obs::Counter* b = registry.GetCounter("gateway.submitted");
  EXPECT_EQ(a, b);
  a->Inc(5);
  EXPECT_EQ(b->Value(), 5u);
  EXPECT_NE(static_cast<void*>(registry.GetHistogram("gateway.submitted")),
            static_cast<void*>(a));  // separate namespace per metric kind
}

TEST(MetricsRegistryTest, TextDumpIsSortedAndComplete) {
  obs::Registry registry;
  registry.GetCounter("b.count")->Inc(2);
  registry.GetCounter("a.count")->Inc(1);
  registry.GetHistogram("c.latency")->Observe(100);
  std::string dump = registry.TextDump();
  size_t a = dump.find("a.count 1");
  size_t b = dump.find("b.count 2");
  size_t c = dump.find("c.latency count=1");
  ASSERT_NE(a, std::string::npos);
  ASSERT_NE(b, std::string::npos);
  ASSERT_NE(c, std::string::npos);
  EXPECT_LT(a, b);
  EXPECT_LT(b, c);
}

TEST(MetricsRegistryTest, PointersStableAcrossManyRegistrations) {
  obs::Registry registry;
  obs::Counter* first = registry.GetCounter("first");
  for (int i = 0; i < 100; ++i) {
    registry.GetCounter("extra." + std::to_string(i));
  }
  first->Inc();
  EXPECT_EQ(registry.GetCounter("first"), first);
  EXPECT_EQ(first->Value(), 1u);
}

}  // namespace
}  // namespace leakdet::gateway
