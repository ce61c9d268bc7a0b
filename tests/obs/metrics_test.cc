// Unit tests of the metrics registry (obs/metrics.h) and the shared stats
// codec (obs/stats_json.h):
//
//  (a) instrument semantics: counters, gauges, fixed-bucket histograms,
//      identical (name, labels) returning the SAME handle, and concurrent
//      Observe/Inc landing every event;
//  (b) exposition: Prometheus text well-formedness (one HELP/TYPE per
//      family, no duplicate series lines), CUMULATIVE histogram buckets
//      ending at +Inf == _count, label-value escaping, and deterministic
//      byte-identical re-renders;
//  (c) misuse: kind mismatch and bucket-layout mismatch throw
//      std::logic_error, invalid metric/label names std::invalid_argument;
//  (d) the ONE stats serialization path: ServiceStatsJson /
//      ServerCountersJson render BYTE-STABLE key orders (asserted against
//      literal JSON);
//  (e) the conservation invariant submitted == completed + failed +
//      inflight, hammered through a live ShapleyService from many client
//      threads and asserted after the drain.

#include "shapley/obs/metrics.h"

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "shapley/data/parser.h"
#include "shapley/obs/stats_json.h"
#include "shapley/query/query_parser.h"
#include "shapley/service/shapley_service.h"

namespace shapley::obs {
namespace {

TEST(MetricsInstruments, CounterGaugeBasics) {
  MetricsRegistry registry;
  Counter* counter = registry.GetCounter("test_events_total", "events");
  counter->Inc();
  counter->Inc(41);
  EXPECT_EQ(counter->value(), 42u);

  Gauge* gauge = registry.GetGauge("test_depth", "depth");
  gauge->Set(2.5);
  EXPECT_DOUBLE_EQ(gauge->value(), 2.5);

  // Same (name, labels) → the SAME instrument, not a fresh zero.
  EXPECT_EQ(registry.GetCounter("test_events_total", "events"), counter);
  // Different labels → a distinct series of the same family.
  Counter* labeled =
      registry.GetCounter("test_events_total", "events", {{"kind", "a"}});
  EXPECT_NE(labeled, counter);
  EXPECT_EQ(registry.GetCounter("test_events_total", "events",
                                {{"kind", "a"}}),
            labeled);
}

TEST(MetricsInstruments, HistogramBucketPlacement) {
  Histogram histogram({1.0, 2.0, 4.0});
  histogram.Observe(0.5);   // ≤ 1
  histogram.Observe(1.0);   // ≤ 1 (bounds are inclusive, le semantics)
  histogram.Observe(3.0);   // ≤ 4
  histogram.Observe(100.0); // +Inf
  EXPECT_EQ(histogram.bucket_count(0), 2u);
  EXPECT_EQ(histogram.bucket_count(1), 0u);
  EXPECT_EQ(histogram.bucket_count(2), 1u);
  EXPECT_EQ(histogram.bucket_count(3), 1u);  // +Inf
  EXPECT_EQ(histogram.count(), 4u);
  EXPECT_DOUBLE_EQ(histogram.sum(), 104.5);
}

TEST(MetricsInstruments, ConcurrentUpdatesLoseNothing) {
  MetricsRegistry registry;
  Counter* counter = registry.GetCounter("test_hits_total", "hits");
  Histogram* histogram =
      registry.GetHistogram("test_ms", "ms", {1.0, 10.0, 100.0});
  constexpr size_t kThreads = 8;
  constexpr size_t kPerThread = 5000;
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (size_t i = 0; i < kPerThread; ++i) {
        counter->Inc();
        histogram->Observe(static_cast<double>((t + i) % 120));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(counter->value(), kThreads * kPerThread);
  EXPECT_EQ(histogram->count(), kThreads * kPerThread);
  uint64_t total = 0;
  for (size_t i = 0; i <= histogram->upper_bounds().size(); ++i) {
    total += histogram->bucket_count(i);
  }
  EXPECT_EQ(total, kThreads * kPerThread);
}

TEST(MetricsRegistryMisuse, KindAndBucketMismatchesThrow) {
  MetricsRegistry registry;
  registry.GetCounter("test_a_total", "a");
  EXPECT_THROW(registry.GetGauge("test_a_total", "a"), std::logic_error);
  EXPECT_THROW(registry.GetHistogram("test_a_total", "a", {1.0}),
               std::logic_error);
  registry.GetHistogram("test_h", "h", {1.0, 2.0});
  EXPECT_THROW(registry.GetHistogram("test_h", "h", {1.0, 3.0}),
               std::logic_error);
  // Bounds must be strictly increasing.
  EXPECT_THROW(registry.GetHistogram("test_bad", "h", {2.0, 1.0}),
               std::invalid_argument);
  EXPECT_THROW(registry.GetHistogram("test_bad2", "h", {1.0, 1.0}),
               std::invalid_argument);
}

TEST(MetricsRegistryMisuse, InvalidNamesThrow) {
  MetricsRegistry registry;
  EXPECT_THROW(registry.GetCounter("1leading_digit", "x"),
               std::invalid_argument);
  EXPECT_THROW(registry.GetCounter("has-dash", "x"), std::invalid_argument);
  EXPECT_THROW(registry.GetCounter("", "x"), std::invalid_argument);
  EXPECT_THROW(registry.GetCounter("ok_name", "x", {{"bad-label", "v"}}),
               std::invalid_argument);
  // Colons are legal in metric names but not label names.
  registry.GetCounter("ns:ok_total", "x");
  EXPECT_THROW(registry.GetCounter("ok2_total", "x", {{"a:b", "v"}}),
               std::invalid_argument);
}

TEST(MetricsExposition, LabelEscaping) {
  EXPECT_EQ(EscapeLabelValue("plain"), "plain");
  EXPECT_EQ(EscapeLabelValue("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
  EXPECT_EQ(SeriesText("m", {{"k", "v\"w"}}), "m{k=\"v\\\"w\"}");
  EXPECT_EQ(SeriesText("m", {}), "m");

  MetricsRegistry registry;
  registry.GetCounter("test_esc_total", "esc", {{"q", "say \"hi\"\n"}})
      ->Inc();
  const std::string text = registry.RenderPrometheus();
  EXPECT_NE(text.find("test_esc_total{q=\"say \\\"hi\\\"\\n\"} 1"),
            std::string::npos);
}

// Splits an exposition into its non-comment series lines.
std::vector<std::string> SeriesLines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty() && line[0] != '#') lines.push_back(line);
  }
  return lines;
}

TEST(MetricsExposition, WellFormedDeterministicAndDuplicateFree) {
  MetricsRegistry registry;
  registry.GetCounter("test_requests_total", "requests",
                      {{"engine", "lifted"}})->Inc(3);
  registry.GetCounter("test_requests_total", "requests",
                      {{"engine", "brute"}})->Inc();
  registry.GetGauge("test_inflight", "inflight")->Set(2);
  Histogram* histogram =
      registry.GetHistogram("test_latency_ms", "latency",
                            {1.0, 10.0}, {{"mode", "all-values"}});
  histogram->Observe(0.5);
  histogram->Observe(5.0);
  histogram->Observe(50.0);

  const std::string text = registry.RenderPrometheus();

  // One HELP and one TYPE per family, HELP before TYPE before series.
  for (const char* family :
       {"test_requests_total", "test_inflight", "test_latency_ms"}) {
    const std::string help = std::string("# HELP ") + family + " ";
    const std::string type = std::string("# TYPE ") + family + " ";
    ASSERT_NE(text.find(help), std::string::npos) << family;
    EXPECT_EQ(text.find(help), text.rfind(help)) << family;
    EXPECT_EQ(text.find(type), text.rfind(type)) << family;
    EXPECT_LT(text.find(help), text.find(type)) << family;
  }
  EXPECT_NE(text.find("# TYPE test_requests_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE test_inflight gauge"), std::string::npos);
  EXPECT_NE(text.find("# TYPE test_latency_ms histogram"),
            std::string::npos);

  // No series line occurs twice.
  std::map<std::string, int> seen;
  for (const std::string& line : SeriesLines(text)) {
    EXPECT_EQ(++seen[line], 1) << "duplicate series line: " << line;
  }

  // A scrape is a pure function of the registry state.
  EXPECT_EQ(text, registry.RenderPrometheus());
}

TEST(MetricsExposition, HistogramBucketsAreCumulativeAndMonotone) {
  MetricsRegistry registry;
  Histogram* histogram =
      registry.GetHistogram("test_ms", "ms", {1.0, 5.0, 25.0});
  for (double v : {0.5, 0.7, 3.0, 20.0, 20.0, 100.0}) histogram->Observe(v);

  const std::string text = registry.RenderPrometheus();
  EXPECT_NE(text.find("test_ms_bucket{le=\"1\"} 2"), std::string::npos);
  EXPECT_NE(text.find("test_ms_bucket{le=\"5\"} 3"), std::string::npos);
  EXPECT_NE(text.find("test_ms_bucket{le=\"25\"} 5"), std::string::npos);
  EXPECT_NE(text.find("test_ms_bucket{le=\"+Inf\"} 6"), std::string::npos);
  EXPECT_NE(text.find("test_ms_count 6"), std::string::npos);

  // Monotonicity, parsed back generically: cumulative counts never
  // decrease along the bucket list, and +Inf equals _count.
  uint64_t previous = 0;
  uint64_t inf_value = 0;
  for (const std::string& line : SeriesLines(text)) {
    if (line.rfind("test_ms_bucket", 0) != 0) continue;
    const uint64_t value =
        std::stoull(line.substr(line.rfind(' ') + 1));
    EXPECT_GE(value, previous) << line;
    previous = value;
    if (line.find("+Inf") != std::string::npos) inf_value = value;
  }
  EXPECT_EQ(inf_value, histogram->count());
}

TEST(MetricsExposition, CollectorsRunAtScrapeTime) {
  MetricsRegistry registry;
  std::atomic<uint64_t> external{0};
  Counter* mirror = registry.GetCounter("test_mirror_total", "mirror");
  registry.AddCollector([&] { mirror->Set(external.load()); });
  external = 7;
  EXPECT_NE(registry.RenderPrometheus().find("test_mirror_total 7"),
            std::string::npos);
  external = 19;
  EXPECT_NE(registry.RenderPrometheus().find("test_mirror_total 19"),
            std::string::npos);
}

// ---- The shared stats codec: byte-stable key order. ----

TEST(StatsJson, ServiceStatsByteStableOrder) {
  ServiceStats stats;
  stats.requests_submitted = 10;
  stats.requests_completed = 7;
  stats.requests_failed = 2;
  stats.requests_inflight = 1;
  stats.verdict_cache_hits = 5;
  stats.verdict_cache_misses = 4;
  stats.pool_threads = 3;
  stats.pool_tasks_executed = 11;
  stats.cache_entries = 6;
  stats.cache_bytes = 512;
  stats.cache_hits = 8;
  stats.cache_misses = 9;
  stats.cache_evictions = 1;
  EXPECT_EQ(
      ServiceStatsJson(stats).Dump(),
      "{\"requests_submitted\":10,\"requests_completed\":7,"
      "\"requests_failed\":2,\"requests_inflight\":1,"
      "\"verdict_cache_hits\":5,\"verdict_cache_misses\":4,"
      "\"pool_threads\":3,\"pool_tasks_executed\":11,\"cache_entries\":6,"
      "\"cache_bytes\":512,\"cache_hits\":8,\"cache_misses\":9,"
      "\"cache_evictions\":1}");
}

TEST(StatsJson, ServerCountersByteStableOrder) {
  net::ServerCounters counters;
  counters.connections_accepted = 4;
  counters.connections_rejected = 1;
  counters.connections_live = 2;
  counters.requests_served = 9;
  EXPECT_EQ(ServerCountersJson(counters).Dump(),
            "{\"connections_accepted\":4,\"connections_rejected\":1,"
            "\"connections_live\":2,\"requests_served\":9}");
}

// ---- Conservation invariant, hammered through a live service. ----

TEST(StatsConservation, HoldsAfterConcurrentHammer) {
  auto schema = Schema::Create();
  UcqPtr ucq = ParseUcq(schema, "R(x), S(x,y)");
  QueryPtr query = ucq->disjuncts()[0];
  PartitionedDatabase db =
      ParsePartitionedDatabase(schema, "R(a) S(a,b) | S(a,c)");

  ServiceOptions options;
  options.threads = 4;
  ShapleyService service(options);
  constexpr size_t kClients = 6;
  constexpr size_t kPerClient = 40;
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      for (size_t i = 0; i < kPerClient; ++i) {
        SvcRequest request;
        request.query = query;
        request.db = db;
        // A mix of successes and structured failures: conservation must
        // count BOTH terminal states.
        if (i % 5 == 4) request.engine = "no-such-engine";
        service.Compute(request);
      }
    });
  }
  for (std::thread& thread : clients) thread.join();

  // Quiescent now (Compute is synchronous and every client joined).
  const ServiceStats stats = service.Stats();
  EXPECT_TRUE(StatsConserved(stats));
  EXPECT_EQ(StatsConservationError(stats), 0);
  EXPECT_EQ(stats.requests_submitted, kClients * kPerClient);
  EXPECT_EQ(stats.requests_inflight, 0u);
  EXPECT_GT(stats.requests_failed, 0u);  // The bad-engine slice.
}

}  // namespace
}  // namespace shapley::obs
