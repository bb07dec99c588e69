// Tier-5 deterministic-observability unit tier: the trace sink's merge and
// export invariants, histogram bucket math against a reference
// implementation, the Chrome trace validator, and the
// emits-nothing-when-tracing-is-off guarantee.
#include <gtest/gtest.h>

#include <cstring>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"

namespace {

using namespace crs;

/// Quiesces the global sink + registry + lane allocator around each test.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::set_tracing_enabled(false);
    obs::TraceSink::instance().clear();
    obs::MetricsRegistry::instance().clear();
    obs::reset_lane_allocator();
  }
  void TearDown() override { SetUp(); }
};

TEST_F(ObsTest, DisabledTracingEmitsNothing) {
  ASSERT_FALSE(obs::tracing_enabled());
  obs::trace_instant("x", 10);
  obs::trace_counter("y", 20, 1.0);
  { obs::ScopedSpan span("z", 30); }
  EXPECT_EQ(obs::TraceSink::instance().event_count(), 0u);
}

TEST_F(ObsTest, MergeOrdersByCycleThenLaneThenSeq) {
  obs::set_tracing_enabled(true);
  // Emit out of cycle order within one buffer, across two lanes.
  {
    obs::LaneScope lane(obs::allocate_lane_block(2) + 1);
    obs::trace_instant("b", 100);
    obs::trace_instant("a", 50);
  }
  obs::trace_instant("c", 50);  // lane 0
  obs::trace_instant("d", 50);  // lane 0, later seq
  obs::set_tracing_enabled(false);

  const auto merged = obs::TraceSink::instance().merged();
  ASSERT_EQ(merged.size(), 4u);
  EXPECT_STREQ(merged[0].name, "c");  // cycle 50 lane 0 seq first
  EXPECT_STREQ(merged[1].name, "d");
  EXPECT_STREQ(merged[2].name, "a");  // cycle 50 lane 2
  EXPECT_STREQ(merged[3].name, "b");  // cycle 100
}

TEST_F(ObsTest, SpanNestingAndCsvShape) {
  obs::set_tracing_enabled(true);
  {
    obs::ScopedSpan outer("outer", 10);
    {
      obs::ScopedSpan inner("inner", 20);
      obs::trace_instant("tick", 25, 3.5);
      inner.close(30);
    }
    outer.close(40);
  }
  obs::set_tracing_enabled(false);

  EXPECT_EQ(obs::TraceSink::instance().csv(),
            "cycle,lane,kind,name,value\n"
            "10,0,B,outer,0\n"
            "20,0,B,inner,0\n"
            "25,0,i,tick,3.5\n"
            "30,0,E,inner,0\n"
            "40,0,E,outer,0\n");
}

TEST_F(ObsTest, SpanDestructorClosesAtBeginCycle) {
  obs::set_tracing_enabled(true);
  { obs::ScopedSpan span("s", 7); }  // never close()d explicitly
  obs::set_tracing_enabled(false);
  const auto merged = obs::TraceSink::instance().merged();
  ASSERT_EQ(merged.size(), 2u);
  EXPECT_EQ(merged[0].kind, obs::TraceKind::kSpanBegin);
  EXPECT_EQ(merged[1].kind, obs::TraceKind::kSpanEnd);
  EXPECT_EQ(merged[1].cycle, 7u);
}

TEST_F(ObsTest, ChromeJsonValidatesAndCarriesLanesAsTids) {
  obs::set_tracing_enabled(true);
  {
    obs::ScopedSpan span("run", 1);
    obs::trace_counter("rate", 2, 0.75);
    {
      obs::LaneScope lane(obs::allocate_lane_block(1));
      obs::trace_instant("worker", 2);
    }
    span.close(9);
  }
  obs::set_tracing_enabled(false);

  const auto json = obs::TraceSink::instance().chrome_json();
  EXPECT_EQ(obs::validate_chrome_trace(json), "");
  EXPECT_NE(json.find("\"ph\":\"B\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"E\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(json.find("\"tid\":1"), std::string::npos);  // the worker lane
}

TEST_F(ObsTest, ChromeValidatorRejectsMalformedTraces) {
  EXPECT_NE(obs::validate_chrome_trace("not json"), "");
  EXPECT_NE(obs::validate_chrome_trace("{\"traceEvents\":5}"), "");
  // Unbalanced spans: an E without a B.
  EXPECT_NE(obs::validate_chrome_trace(
                "{\"traceEvents\":[{\"name\":\"x\",\"ph\":\"E\",\"ts\":1,"
                "\"pid\":1,\"tid\":0}]}"),
            "");
  // Mismatched nesting: B(a) B(b) E(a) E(b).
  EXPECT_NE(
      obs::validate_chrome_trace(
          "{\"traceEvents\":["
          "{\"name\":\"a\",\"ph\":\"B\",\"ts\":1,\"pid\":1,\"tid\":0},"
          "{\"name\":\"b\",\"ph\":\"B\",\"ts\":2,\"pid\":1,\"tid\":0},"
          "{\"name\":\"a\",\"ph\":\"E\",\"ts\":3,\"pid\":1,\"tid\":0},"
          "{\"name\":\"b\",\"ph\":\"E\",\"ts\":4,\"pid\":1,\"tid\":0}]}"),
      "");
  // Unclosed span at end of trace.
  EXPECT_NE(obs::validate_chrome_trace(
                "{\"traceEvents\":[{\"name\":\"x\",\"ph\":\"B\",\"ts\":1,"
                "\"pid\":1,\"tid\":0}]}"),
            "");
  // Well-formed minimal trace passes.
  EXPECT_EQ(obs::validate_chrome_trace(
                "{\"traceEvents\":["
                "{\"name\":\"x\",\"ph\":\"B\",\"ts\":1,\"pid\":1,\"tid\":0},"
                "{\"name\":\"x\",\"ph\":\"E\",\"ts\":2,\"pid\":1,\"tid\":0}]}"),
            "");
}

TEST_F(ObsTest, LaneScopeRestoresPreviousLane) {
  EXPECT_EQ(obs::current_lane(), 0u);
  {
    obs::LaneScope outer(5);
    EXPECT_EQ(obs::current_lane(), 5u);
    {
      obs::LaneScope inner(9);
      EXPECT_EQ(obs::current_lane(), 9u);
    }
    EXPECT_EQ(obs::current_lane(), 5u);
  }
  EXPECT_EQ(obs::current_lane(), 0u);
}

TEST_F(ObsTest, LaneBlocksAreContiguousAndProgramOrdered) {
  const auto a = obs::allocate_lane_block(4);
  const auto b = obs::allocate_lane_block(2);
  EXPECT_EQ(a, 1u);  // lane 0 is reserved for the serial main thread
  EXPECT_EQ(b, a + 4);
  obs::reset_lane_allocator();
  EXPECT_EQ(obs::allocate_lane_block(1), 1u);
}

// Threads emitting into distinct lanes must merge identically however the
// OS schedules them: the merged trace is a pure function of (cycle, lane).
TEST_F(ObsTest, ThreadedEmissionMergesDeterministically) {
  const auto run_once = [] {
    obs::TraceSink::instance().clear();
    obs::reset_lane_allocator();
    obs::set_tracing_enabled(true);
    const auto base = obs::allocate_lane_block(4);
    std::vector<std::thread> threads;
    for (std::uint32_t t = 0; t < 4; ++t) {
      threads.emplace_back([t, base] {
        obs::LaneScope lane(base + t);
        for (std::uint64_t i = 0; i < 50; ++i) {
          obs::trace_instant("work", i, static_cast<double>(t));
        }
      });
    }
    for (auto& th : threads) th.join();
    obs::set_tracing_enabled(false);
    return obs::TraceSink::instance().csv();
  };
  const auto first = run_once();
  EXPECT_EQ(first, run_once());
  EXPECT_EQ(first, run_once());
}

// ---------------------------------------------------------------------------
// Histogram bucket math vs a reference implementation.

struct ReferenceHistogram {
  std::vector<double> bounds;
  std::vector<std::uint64_t> buckets;  // bounds.size() + 1

  explicit ReferenceHistogram(std::vector<double> b)
      : bounds(std::move(b)), buckets(bounds.size() + 1, 0) {}

  void observe(double v) {
    std::size_t i = 0;
    while (i < bounds.size() && v > bounds[i]) ++i;
    ++buckets[i];
  }
};

TEST_F(ObsTest, HistogramMatchesReferenceImplementation) {
  static constexpr double kBounds[] = {-1.0, 0.0, 1.5, 10.0, 1e6};
  auto& hist = obs::MetricsRegistry::instance().histogram(
      "test.hist", std::span<const double>(kBounds));
  ReferenceHistogram ref({kBounds, kBounds + 5});

  std::mt19937_64 gen(42);
  std::uniform_real_distribution<double> dist(-5.0, 2e6);
  for (int i = 0; i < 10'000; ++i) {
    const double v = dist(gen);
    hist.observe(v);
    ref.observe(v);
  }
  // Boundary values land in the bucket whose bound they equal (v <= bound).
  for (const double edge : {-1.0, 0.0, 1.5, 10.0, 1e6}) {
    hist.observe(edge);
    ref.observe(edge);
  }

  ASSERT_EQ(hist.bucket_total(), ref.buckets.size());
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < ref.buckets.size(); ++i) {
    EXPECT_EQ(hist.bucket_count(i), ref.buckets[i]) << "bucket " << i;
    total += ref.buckets[i];
  }
  EXPECT_EQ(hist.total_count(), total);
}

TEST_F(ObsTest, HistogramBucketIndexEdges) {
  static constexpr double kBounds[] = {1.0, 2.0};
  obs::Histogram h{std::span<const double>(kBounds)};
  EXPECT_EQ(h.bucket_index(0.5), 0u);
  EXPECT_EQ(h.bucket_index(1.0), 0u);  // inclusive upper bound
  EXPECT_EQ(h.bucket_index(1.1), 1u);
  EXPECT_EQ(h.bucket_index(2.0), 1u);
  EXPECT_EQ(h.bucket_index(2.1), 2u);  // overflow bucket
}

// ---------------------------------------------------------------------------
// Registry semantics.

TEST_F(ObsTest, RegistryFindOrCreateReturnsStableReferences) {
  auto& reg = obs::MetricsRegistry::instance();
  auto& c1 = reg.counter("a.count");
  auto& c2 = reg.counter("a.count");
  EXPECT_EQ(&c1, &c2);
  c1.add(3);
  c2.add(4);
  EXPECT_EQ(c1.value(), 7u);
}

TEST_F(ObsTest, RegistryCsvIsSortedAndDeterministic) {
  auto& reg = obs::MetricsRegistry::instance();
  reg.counter("z.last").add(2);
  reg.counter("a.first").add(1);
  reg.gauge("m.gauge").set(0.5);
  static constexpr double kBounds[] = {10.0};
  auto& h = reg.histogram("h.hist", std::span<const double>(kBounds));
  h.observe(5.0);
  h.observe(50.0);

  EXPECT_EQ(reg.csv(),
            "metric,kind,field,value\n"
            "a.first,counter,value,1\n"
            "h.hist,histogram,le_10,1\n"
            "h.hist,histogram,le_inf,1\n"
            "h.hist,histogram,count,2\n"
            "m.gauge,gauge,value,0.5\n"
            "z.last,counter,value,2\n");
  EXPECT_EQ(reg.csv(), reg.csv());
}

TEST_F(ObsTest, ResetValuesKeepsIdentity) {
  auto& reg = obs::MetricsRegistry::instance();
  auto& c = reg.counter("keep.me");
  c.add(5);
  reg.reset_values();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(&c, &reg.counter("keep.me"));
  c.add(1);
  EXPECT_EQ(reg.counter("keep.me").value(), 1u);
}

TEST_F(ObsTest, ClearEmptiesSinkAndInvalidatesRegistrations) {
  obs::set_tracing_enabled(true);
  obs::trace_instant("before", 1);
  obs::TraceSink::instance().clear();
  obs::trace_instant("after", 2);  // re-registers against the new generation
  obs::set_tracing_enabled(false);
  const auto merged = obs::TraceSink::instance().merged();
  ASSERT_EQ(merged.size(), 1u);
  EXPECT_STREQ(merged[0].name, "after");
}

TEST_F(ObsTest, FormatMetricNumberIsCompactAndStable) {
  EXPECT_EQ(obs::format_metric_number(0.0), "0");
  EXPECT_EQ(obs::format_metric_number(3.0), "3");
  EXPECT_EQ(obs::format_metric_number(0.5), "0.5");
  EXPECT_EQ(obs::format_metric_number(-2.0), "-2");
  EXPECT_EQ(obs::format_metric_number(1e6), "1000000");
}

}  // namespace
