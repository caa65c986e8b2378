#include "common/metrics_registry.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "common/json.h"

namespace fglb {
namespace {

TEST(CounterTest, IncrementAndSet) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.Increment();
  c.Increment(41);
  EXPECT_EQ(c.value(), 42u);
  c.Set(7);
  EXPECT_EQ(c.value(), 7u);
}

TEST(GaugeTest, LastWriteWins) {
  Gauge g;
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
  g.Set(0.75);
  g.Set(0.25);
  EXPECT_DOUBLE_EQ(g.value(), 0.25);
}

TEST(MaxGaugeTest, TracksHighWaterMarkAndResetsOnTake) {
  MaxGauge m;
  EXPECT_DOUBLE_EQ(m.value(), 0.0);
  m.Update(3.0);
  m.Update(7.0);
  m.Update(5.0);  // below the peak: no effect
  EXPECT_DOUBLE_EQ(m.value(), 7.0);
  EXPECT_DOUBLE_EQ(m.Take(), 7.0);
  // Take resets: the next interval starts from zero.
  EXPECT_DOUBLE_EQ(m.value(), 0.0);
  m.Update(2.0);
  EXPECT_DOUBLE_EQ(m.Take(), 2.0);
}

TEST(MetricsRegistryTest, FindOrCreateReturnsStablePointers) {
  MetricsRegistry registry;
  Counter* c1 = registry.counter("a.b.c");
  Counter* c2 = registry.counter("a.b.c");
  EXPECT_EQ(c1, c2);
  EXPECT_NE(registry.counter("a.b.d"), c1);
  // Same name, different instrument kind: distinct namespaces.
  Gauge* g = registry.gauge("a.b.c");
  MaxGauge* m = registry.max_gauge("a.b.c");
  LatencyHistogram* h = registry.histogram("a.b.c");
  EXPECT_NE(static_cast<void*>(g), static_cast<void*>(c1));
  EXPECT_NE(static_cast<void*>(m), static_cast<void*>(g));
  EXPECT_NE(static_cast<void*>(h), static_cast<void*>(c1));
  EXPECT_EQ(registry.max_gauge("a.b.c"), m);
  EXPECT_EQ(registry.counter_count(), 2u);
  EXPECT_EQ(registry.gauge_count(), 1u);
  EXPECT_EQ(registry.max_gauge_count(), 1u);
  EXPECT_EQ(registry.histogram_count(), 1u);
}

TEST(LatencyHistogramTest, BucketBoundsArePowersOfTwo) {
  EXPECT_DOUBLE_EQ(LatencyHistogram::BucketLowerBoundUs(0), 0.0);
  EXPECT_DOUBLE_EQ(LatencyHistogram::BucketUpperBoundUs(0), 1.0);
  for (size_t i = 1; i < LatencyHistogram::kNumBuckets; ++i) {
    EXPECT_DOUBLE_EQ(LatencyHistogram::BucketLowerBoundUs(i),
                     std::pow(2.0, static_cast<double>(i - 1)));
    EXPECT_DOUBLE_EQ(LatencyHistogram::BucketUpperBoundUs(i),
                     std::pow(2.0, static_cast<double>(i)));
  }
}

TEST(LatencyHistogramTest, RecordsAtBucketEdges) {
  LatencyHistogram h;
  h.Record(0.0);    // bucket 0: [0, 1)
  h.Record(0.999);  // bucket 0
  h.Record(1.0);    // bucket 1: [1, 2)
  h.Record(2.0);    // bucket 2: [2, 4)
  h.Record(3.999);  // bucket 2
  h.Record(4.0);    // bucket 3: [4, 8)
  EXPECT_EQ(h.bucket_count(0), 2u);
  EXPECT_EQ(h.bucket_count(1), 1u);
  EXPECT_EQ(h.bucket_count(2), 2u);
  EXPECT_EQ(h.bucket_count(3), 1u);
  EXPECT_EQ(h.count(), 6u);
  EXPECT_NEAR(h.sum_us(), 0.0 + 0.999 + 1.0 + 2.0 + 3.999 + 4.0, 1e-9);
  EXPECT_DOUBLE_EQ(h.max_us(), 4.0);
  EXPECT_NEAR(h.mean_us(), h.sum_us() / 6.0, 1e-12);
}

TEST(LatencyHistogramTest, OverflowLandsInLastBucket) {
  LatencyHistogram h;
  h.Record(1e15);  // far beyond 2^39 us
  EXPECT_EQ(h.bucket_count(LatencyHistogram::kNumBuckets - 1), 1u);
  EXPECT_DOUBLE_EQ(h.max_us(), 1e15);
}

TEST(LatencyHistogramTest, NonFiniteAndNegativeClampToZero) {
  LatencyHistogram h;
  h.Record(-5.0);
  h.Record(std::nan(""));
  EXPECT_EQ(h.bucket_count(0), 2u);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_DOUBLE_EQ(h.sum_us(), 0.0);
}

TEST(LatencyHistogramTest, PercentileIsMonotoneAndBracketed) {
  LatencyHistogram h;
  for (int i = 0; i < 100; ++i) h.Record(10.0);    // bucket [8, 16)
  for (int i = 0; i < 100; ++i) h.Record(1000.0);  // bucket [512, 1024)
  const double p10 = h.Percentile(0.10);
  const double p50 = h.Percentile(0.50);
  const double p99 = h.Percentile(0.99);
  EXPECT_LE(p10, p50);
  EXPECT_LE(p50, p99);
  // The low half lives in [8,16); the high tail in [512,1024).
  EXPECT_GE(p10, 8.0);
  EXPECT_LE(p10, 16.0);
  EXPECT_GE(p99, 512.0);
  EXPECT_LE(p99, 1024.0);
}

TEST(MetricsRegistryTest, ConcurrentUpdatesKeepExactTotals) {
  MetricsRegistry registry;
  Counter* hits = registry.counter("test.hits");
  LatencyHistogram* lat = registry.histogram("test.lat_us");
  constexpr size_t kThreads = 4;
  constexpr size_t kTasks = 64;
  constexpr int kPerTask = 1000;
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (size_t task = t; task < kTasks; task += kThreads) {
        for (int i = 0; i < kPerTask; ++i) {
          hits->Increment();
          lat->Record(static_cast<double>(task % 8) + 1.0);
        }
        // Concurrent find-or-create of an already-registered name must
        // be safe and return the same instrument.
        EXPECT_EQ(registry.counter("test.hits"), hits);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(hits->value(), kTasks * kPerTask);
  EXPECT_EQ(lat->count(), kTasks * kPerTask);
  uint64_t bucket_total = 0;
  for (size_t b = 0; b < LatencyHistogram::kNumBuckets; ++b) {
    bucket_total += lat->bucket_count(b);
  }
  EXPECT_EQ(bucket_total, kTasks * kPerTask);
}

TEST(MetricsRegistryTest, ToJsonIsParseableAndComplete) {
  MetricsRegistry registry;
  registry.counter("cluster.queries")->Increment(123);
  registry.gauge("server.0.cpu_utilization")->Set(0.5);
  registry.max_gauge("sim.queue_depth_max")->Update(42.0);
  LatencyHistogram* h = registry.histogram("controller.tick_us");
  h->Record(5.0);
  h->Record(100.0);

  JsonValue root;
  std::string error;
  ASSERT_TRUE(JsonValue::Parse(registry.ToJson(), &root, &error)) << error;
  EXPECT_DOUBLE_EQ(root.NumberOr("v", 0), 1);

  const JsonValue* counters = root.Find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_DOUBLE_EQ(counters->NumberOr("cluster.queries", 0), 123);

  const JsonValue* gauges = root.Find("gauges");
  ASSERT_NE(gauges, nullptr);
  EXPECT_DOUBLE_EQ(gauges->NumberOr("server.0.cpu_utilization", 0), 0.5);
  // Max gauges render among the gauges; the snapshot consumed the peak.
  EXPECT_DOUBLE_EQ(gauges->NumberOr("sim.queue_depth_max", 0), 42.0);
  EXPECT_DOUBLE_EQ(registry.max_gauge("sim.queue_depth_max")->value(), 0.0);

  const JsonValue* histograms = root.Find("histograms");
  ASSERT_NE(histograms, nullptr);
  const JsonValue* tick = histograms->Find("controller.tick_us");
  ASSERT_NE(tick, nullptr);
  EXPECT_DOUBLE_EQ(tick->NumberOr("count", 0), 2);
  EXPECT_DOUBLE_EQ(tick->NumberOr("sum_us", 0), 105.0);
  EXPECT_NE(tick->Find("p50_us"), nullptr);
  EXPECT_NE(tick->Find("p95_us"), nullptr);
  EXPECT_NE(tick->Find("p99_us"), nullptr);
  EXPECT_DOUBLE_EQ(tick->NumberOr("max_us", 0), 100.0);
  const JsonValue* buckets = tick->Find("buckets");
  ASSERT_NE(buckets, nullptr);
  ASSERT_TRUE(buckets->is_array());
  // Non-empty buckets only, each as [lower_bound_us, count].
  ASSERT_EQ(buckets->array.size(), 2u);
  double bucket_events = 0;
  for (const JsonValue& pair : buckets->array) {
    ASSERT_TRUE(pair.is_array());
    ASSERT_EQ(pair.array.size(), 2u);
    bucket_events += pair.array[1].number;
  }
  EXPECT_DOUBLE_EQ(bucket_events, 2);
}

TEST(MetricsRegistryTest, WriteJsonRoundTripsThroughDisk) {
  MetricsRegistry registry;
  registry.counter("x")->Increment(9);
  const std::string path = ::testing::TempDir() + "/fglb_metrics_test.json";
  ASSERT_TRUE(registry.WriteJson(path));
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  std::string contents;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    contents.append(buf, n);
  }
  std::fclose(f);
  std::remove(path.c_str());
  JsonValue root;
  std::string error;
  ASSERT_TRUE(JsonValue::Parse(contents, &root, &error)) << error;
  EXPECT_DOUBLE_EQ(root.Find("counters")->NumberOr("x", 0), 9);
}

}  // namespace
}  // namespace fglb
