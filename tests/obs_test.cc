// Unit tests for the observability layer: metrics registry (instruments,
// snapshot, JSON round-trip), the bounded ring and the span tracer built on
// it (growth, eviction, Clear, sinks, Chrome trace-event export), the
// periodic gauge sampler, and the JSON helpers.

#include <gtest/gtest.h>

#include <memory>

#include "obs/json.h"
#include "obs/metrics_registry.h"
#include "obs/observability.h"
#include "obs/ring.h"
#include "obs/sampler.h"
#include "obs/trace.h"
#include "runtime/sim_runtime.h"
#include "sim/simulator.h"

namespace screp::obs {
namespace {

TEST(JsonEscapeTest, EscapesQuotesBackslashesAndControls) {
  EXPECT_EQ(JsonEscape("plain"), "plain");
  EXPECT_EQ(JsonEscape("a\"b"), "a\\\"b");
  EXPECT_EQ(JsonEscape("a\\b"), "a\\\\b");
  EXPECT_EQ(JsonEscape("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(JsonEscape(std::string("a\x01") + "b"), "a\\u0001b");
}

TEST(JsonParserTest, ParsesScalarsArraysAndObjects) {
  Result<JsonValue> doc = JsonValue::Parse(
      R"({"n":-12.5,"s":"hi\"x","b":true,"z":null,"a":[1,2,3],"o":{"k":4}})");
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  ASSERT_TRUE(doc->is_object());
  EXPECT_DOUBLE_EQ(doc->Find("n")->number(), -12.5);
  EXPECT_EQ(doc->Find("s")->str(), "hi\"x");
  EXPECT_TRUE(doc->Find("b")->boolean());
  EXPECT_EQ(doc->Find("z")->kind(), JsonValue::Kind::kNull);
  ASSERT_TRUE(doc->Find("a")->is_array());
  EXPECT_EQ(doc->Find("a")->array().size(), 3u);
  EXPECT_DOUBLE_EQ(doc->Find("a")->array()[1].number(), 2.0);
  EXPECT_DOUBLE_EQ(doc->Find("o")->Find("k")->number(), 4.0);
  EXPECT_EQ(doc->Find("missing"), nullptr);
}

TEST(JsonParserTest, RejectsMalformedDocuments) {
  EXPECT_FALSE(JsonValue::Parse("{").ok());
  EXPECT_FALSE(JsonValue::Parse("[1,]").ok());
  EXPECT_FALSE(JsonValue::Parse("{} trailing").ok());
  EXPECT_FALSE(JsonValue::Parse("\"unterminated").ok());
}

TEST(MetricsRegistryTest, InstrumentsAreCreatedOnceAndStable) {
  MetricsRegistry registry;
  Counter* c = registry.GetCounter("certifier.certified");
  EXPECT_EQ(c->value(), 0);
  c->Increment();
  c->Increment(5);
  // Same name => same instrument (a promoted standby continues the series).
  EXPECT_EQ(registry.GetCounter("certifier.certified"), c);
  EXPECT_EQ(c->value(), 6);

  Gauge* g = registry.GetGauge("certifier.last_batch_size");
  g->Set(3.5);
  EXPECT_EQ(registry.GetGauge("certifier.last_batch_size"), g);
  EXPECT_DOUBLE_EQ(registry.GaugeValue("certifier.last_batch_size"), 3.5);

  Histogram* h = registry.GetHistogram("certifier.batch_size");
  h->Add(2);
  h->Add(4);
  EXPECT_EQ(registry.GetHistogram("certifier.batch_size"), h);
  EXPECT_EQ(h->count(), 2);
}

TEST(MetricsRegistryTest, CallbackGaugesJoinTheSortedPollSet) {
  MetricsRegistry registry;
  double lag = 7;
  registry.RegisterCallbackGauge("replica0.version_lag",
                                 [&lag]() { return lag; });
  registry.GetGauge("certifier.last_batch_size")->Set(1);
  const std::vector<std::string> names = registry.GaugeNames();
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "certifier.last_batch_size");  // sorted
  EXPECT_EQ(names[1], "replica0.version_lag");
  EXPECT_DOUBLE_EQ(registry.GaugeValue("replica0.version_lag"), 7);
  lag = 9;  // evaluated on demand, not cached
  EXPECT_DOUBLE_EQ(registry.GaugeValue("replica0.version_lag"), 9);
  EXPECT_DOUBLE_EQ(registry.GaugeValue("no.such.gauge"), 0);
}

TEST(MetricsRegistryTest, SnapshotJsonRoundTrips) {
  MetricsRegistry registry;
  registry.GetCounter("lb.dispatched")->Increment(42);
  registry.GetCounter("certifier.aborts.ww")->Increment(3);
  registry.GetGauge("certifier.last_batch_size")->Set(2.25);
  registry.RegisterCallbackGauge("replica1.version_lag",
                                 []() { return 11.0; });
  Histogram* h = registry.GetHistogram("certifier.batch_size");
  for (int i = 1; i <= 10; ++i) h->Add(i);

  const std::string json = registry.ToJson();
  Result<MetricsRegistry::Snapshot> parsed =
      MetricsRegistry::SnapshotFromJson(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();

  const MetricsRegistry::Snapshot direct = registry.TakeSnapshot();
  EXPECT_EQ(parsed->counters, direct.counters);
  EXPECT_EQ(parsed->counters.at("lb.dispatched"), 42);
  EXPECT_DOUBLE_EQ(parsed->gauges.at("certifier.last_batch_size"), 2.25);
  EXPECT_DOUBLE_EQ(parsed->gauges.at("replica1.version_lag"), 11.0);
  const auto& hist = parsed->histograms.at("certifier.batch_size");
  EXPECT_EQ(hist.count, 10);
  EXPECT_NEAR(hist.mean, 5.5, 1e-9);
  EXPECT_NEAR(hist.max, direct.histograms.at("certifier.batch_size").max,
              1e-9);
}

TEST(TracerTest, DisabledTracerRecordsNothing) {
  Tracer tracer(8);
  EXPECT_FALSE(tracer.enabled());
  tracer.Add({.name = "x"});
  EXPECT_EQ(tracer.size(), 0u);
  EXPECT_EQ(tracer.dropped(), 0);
}

TEST(TracerTest, RingEvictsOldestSpansAndCountsDrops) {
  Tracer tracer(4);
  tracer.set_enabled(true);
  for (int64_t i = 1; i <= 6; ++i) {
    tracer.Add({.name = "span", .start = i * 10});
  }
  EXPECT_EQ(tracer.size(), 4u);
  EXPECT_EQ(tracer.capacity(), 4u);
  EXPECT_EQ(tracer.dropped(), 2);
  const std::vector<TraceSpan> spans = tracer.Spans();
  ASSERT_EQ(spans.size(), 4u);
  // Oldest first, the two oldest evicted.
  EXPECT_EQ(spans[0].start, 30);
  EXPECT_EQ(spans[3].start, 60);

  tracer.Clear();
  EXPECT_EQ(tracer.size(), 0u);
  EXPECT_EQ(tracer.dropped(), 0);
}

std::vector<int64_t> Starts(const Tracer& tracer) {
  std::vector<int64_t> starts;
  for (const TraceSpan& span : tracer.Spans()) starts.push_back(span.start);
  return starts;
}

TEST(RingTest, ZeroCapacityIsClampedToOne) {
  Ring<int> ring(0);
  EXPECT_EQ(ring.capacity(), 1u);
  EXPECT_EQ(ring.size(), 0u);
  for (int i = 1; i <= 3; ++i) ring.Push(i);
  EXPECT_EQ(ring.size(), 1u);
  EXPECT_EQ(ring.dropped(), 2);
  EXPECT_EQ(ring[0], 3);

  Tracer tracer(0);
  tracer.set_enabled(true);
  EXPECT_EQ(tracer.capacity(), 1u);
  for (int64_t i = 1; i <= 3; ++i) tracer.Add({.name = "s", .start = i});
  EXPECT_EQ(Starts(tracer), (std::vector<int64_t>{3}));
  EXPECT_EQ(tracer.dropped(), 2);
}

TEST(RingTest, GrowsToCapacityThenWrapsOldestFirst) {
  // 40 is not a power of two: growth steps 16 -> 32 -> 40, then wraps.
  Ring<int> ring(40);
  for (int i = 1; i <= 40; ++i) {
    ring.Push(i);
    EXPECT_EQ(ring.size(), static_cast<size_t>(i));
  }
  EXPECT_EQ(ring.dropped(), 0);
  for (int i = 41; i <= 100; ++i) ring.Push(i);
  EXPECT_EQ(ring.size(), 40u);
  EXPECT_EQ(ring.capacity(), 40u);
  EXPECT_EQ(ring.dropped(), 60);
  std::vector<int> expected;
  for (int i = 61; i <= 100; ++i) expected.push_back(i);
  EXPECT_EQ(ring.ToVector(), expected);
  for (size_t i = 0; i < ring.size(); ++i) {
    EXPECT_EQ(ring[i], expected[i]);
  }
}

TEST(RingTest, HoldsMoveOnlyElements) {
  Ring<std::unique_ptr<int>> ring(2);
  for (int i = 1; i <= 3; ++i) ring.Push(std::make_unique<int>(i));
  EXPECT_EQ(*ring[0], 2);
  EXPECT_EQ(*ring[1], 3);
}

TEST(TracerTest, ClearThenRefillPastTheOldSizeKeepsOrderAndDrops) {
  Tracer tracer(5);
  tracer.set_enabled(true);
  for (int64_t i = 1; i <= 3; ++i) tracer.Add({.name = "s", .start = i});
  EXPECT_EQ(tracer.size(), 3u);
  tracer.Clear();
  EXPECT_EQ(tracer.size(), 0u);
  EXPECT_EQ(tracer.dropped(), 0);
  EXPECT_EQ(tracer.capacity(), 5u);

  for (int64_t i = 11; i <= 17; ++i) tracer.Add({.name = "s", .start = i});
  EXPECT_EQ(tracer.size(), 5u);
  EXPECT_EQ(tracer.dropped(), 2);
  EXPECT_EQ(Starts(tracer), (std::vector<int64_t>{13, 14, 15, 16, 17}));

  // Clear after a wrap, then a partial refill: the old head is gone.
  tracer.Clear();
  for (int64_t i = 21; i <= 23; ++i) tracer.Add({.name = "s", .start = i});
  EXPECT_EQ(Starts(tracer), (std::vector<int64_t>{21, 22, 23}));
  EXPECT_EQ(tracer.dropped(), 0);
}

TEST(TracerTest, GrowsToCapacityThenWrapsOldestFirst) {
  Tracer tracer(40);
  tracer.set_enabled(true);
  for (int64_t i = 1; i <= 100; ++i) tracer.Add({.name = "s", .start = i});
  EXPECT_EQ(tracer.size(), 40u);
  EXPECT_EQ(tracer.capacity(), 40u);
  EXPECT_EQ(tracer.dropped(), 60);
  std::vector<int64_t> expected;
  for (int64_t i = 61; i <= 100; ++i) expected.push_back(i);
  EXPECT_EQ(Starts(tracer), expected);
}

TEST(TracerTest, SinksSeeEverySpanWhileTheRingKeepsTheLastN) {
  Tracer tracer(3);
  tracer.set_enabled(true);
  std::vector<int64_t> seen;
  tracer.AddSink([&seen](const TraceSpan& s) { seen.push_back(s.start); });
  for (int64_t i = 1; i <= 7; ++i) tracer.Add({.name = "s", .start = i});
  EXPECT_EQ(seen, (std::vector<int64_t>{1, 2, 3, 4, 5, 6, 7}));
  EXPECT_EQ(Starts(tracer), (std::vector<int64_t>{5, 6, 7}));
  EXPECT_EQ(tracer.dropped(), 4);
}

TEST(TracerTest, DisabledTracerStillFeedsItsSinks) {
  Tracer tracer(8);
  std::vector<int64_t> seen;
  tracer.AddSink([&seen](const TraceSpan& s) { seen.push_back(s.start); });
  EXPECT_TRUE(tracer.active());
  for (int64_t i = 1; i <= 3; ++i) tracer.Add({.name = "s", .start = i});
  EXPECT_EQ(seen, (std::vector<int64_t>{1, 2, 3}));
  EXPECT_EQ(tracer.size(), 0u);
  EXPECT_EQ(tracer.dropped(), 0);
}

TEST(TracerTest, ChromeJsonIsValidAndCarriesSpanFields) {
  Tracer tracer(8);
  tracer.set_enabled(true);
  tracer.SetProcessName(kCertifierPid, "certifier");
  tracer.Add({.name = "certifier.certify",
              .category = "certifier",
              .pid = kCertifierPid,
              .tid = 77,
              .start = 1000,
              .duration = 120,
              .txn = 77});
  tracer.Add({.name = "certifier.log_force",
              .category = "certifier",
              .pid = kCertifierPid,
              .tid = 0,
              .start = 1200,
              .duration = 800,
              .txn = 0,
              .arg_name = "batch",
              .arg_value = 3});

  Result<JsonValue> doc = JsonValue::Parse(tracer.ToChromeJson());
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_EQ(doc->Find("displayTimeUnit")->str(), "ms");
  const JsonValue* events = doc->Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  ASSERT_EQ(events->array().size(), 3u);  // 1 metadata + 2 spans

  const JsonValue& meta = events->array()[0];
  EXPECT_EQ(meta.Find("ph")->str(), "M");
  EXPECT_EQ(meta.Find("name")->str(), "process_name");
  EXPECT_EQ(meta.Find("args")->Find("name")->str(), "certifier");

  const JsonValue& certify = events->array()[1];
  EXPECT_EQ(certify.Find("ph")->str(), "X");
  EXPECT_EQ(certify.Find("name")->str(), "certifier.certify");
  EXPECT_DOUBLE_EQ(certify.Find("ts")->number(), 1000);
  EXPECT_DOUBLE_EQ(certify.Find("dur")->number(), 120);
  EXPECT_DOUBLE_EQ(certify.Find("pid")->number(), kCertifierPid);
  EXPECT_DOUBLE_EQ(certify.Find("tid")->number(), 77);

  const JsonValue& force = events->array()[2];
  EXPECT_DOUBLE_EQ(force.Find("args")->Find("batch")->number(), 3);
}

TEST(SamplerTest, SamplesEveryGaugeOnThePeriodGrid) {
  Simulator sim;
  runtime::SimRuntime rt{&sim};
  MetricsRegistry registry;
  double depth = 0;
  registry.RegisterCallbackGauge("certifier.queue_depth",
                                 [&depth]() { return depth; });
  Sampler sampler(&rt, &registry);
  sampler.Start(Millis(10));
  // The gauge value changes between ticks; each tick must see the value
  // current at its own virtual time.
  sim.Schedule(Millis(5), [&depth]() { depth = 1; });
  sim.Schedule(Millis(15), [&depth]() { depth = 2; });
  sim.Schedule(Millis(35), [&sampler]() { sampler.Stop(); });
  sim.RunAll();

  ASSERT_EQ(sampler.timestamps().size(), 3u);  // 10ms, 20ms, 30ms
  EXPECT_EQ(sampler.timestamps()[0], Millis(10));
  EXPECT_EQ(sampler.timestamps()[2], Millis(30));
  const auto& series = sampler.series().at("certifier.queue_depth");
  ASSERT_EQ(series.size(), 3u);
  EXPECT_DOUBLE_EQ(series[0], 1);
  EXPECT_DOUBLE_EQ(series[1], 2);
  EXPECT_DOUBLE_EQ(series[2], 2);
}

TEST(SamplerTest, LateRegisteredGaugesAreZeroPaddedIntoAlignment) {
  Simulator sim;
  runtime::SimRuntime rt{&sim};
  MetricsRegistry registry;
  registry.RegisterCallbackGauge("early", []() { return 1.0; });
  Sampler sampler(&rt, &registry);
  sampler.Start(Millis(10));
  sim.Schedule(Millis(15), [&registry]() {
    registry.RegisterCallbackGauge("late", []() { return 9.0; });
  });
  sim.Schedule(Millis(25), [&sampler]() { sampler.Stop(); });
  sim.RunAll();

  ASSERT_EQ(sampler.timestamps().size(), 2u);
  const auto& late = sampler.series().at("late");
  ASSERT_EQ(late.size(), 2u);  // aligned despite missing the first tick
  EXPECT_DOUBLE_EQ(late[0], 0);
  EXPECT_DOUBLE_EQ(late[1], 9.0);
  const auto& early = sampler.series().at("early");
  ASSERT_EQ(early.size(), 2u);
  EXPECT_DOUBLE_EQ(early[0], 1.0);
}

TEST(SamplerTest, JsonExportNullsPaddingAndCarriesCounterDeltas) {
  Simulator sim;
  runtime::SimRuntime rt{&sim};
  MetricsRegistry registry;
  Counter* certified = registry.GetCounter("certified");
  certified->Increment(3);
  Sampler sampler(&rt, &registry);
  sampler.Start(Millis(10));
  sim.Schedule(Millis(12), [certified]() { certified->Increment(4); });
  sim.Schedule(Millis(15), [&registry]() {
    registry.RegisterCallbackGauge("late", []() { return 9.0; });
  });
  sim.Schedule(Millis(25), [&sampler]() { sampler.Stop(); });
  sim.RunAll();

  Result<JsonValue> doc = JsonValue::Parse(sampler.ToJson());
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  // The in-memory series zero-pads the slot before "late" existed; the
  // JSON export must emit null there so a dashboard can tell "not yet
  // registered" apart from a real zero.
  const auto& late = doc->Find("series")->Find("late")->array();
  ASSERT_EQ(late.size(), 2u);
  EXPECT_EQ(late[0].kind(), JsonValue::Kind::kNull);
  EXPECT_DOUBLE_EQ(late[1].number(), 9.0);
  EXPECT_EQ(sampler.SeriesStart("late"), 1u);
  // Counters export per-period deltas: 3 before the first poll, then 4.
  const auto& deltas =
      doc->Find("counter_deltas")->Find("certified")->array();
  ASSERT_EQ(deltas.size(), 2u);
  EXPECT_DOUBLE_EQ(deltas[0].number(), 3);
  EXPECT_DOUBLE_EQ(deltas[1].number(), 4);
}

TEST(ObservabilityTest, MetricsJsonBundlesRegistryAndSampler) {
  Simulator sim;
  runtime::SimRuntime rt{&sim};
  ObsConfig config;
  config.sample_period = Millis(10);
  Observability obs(&rt, config);
  obs.registry()->GetCounter("certifier.certified")->Increment(5);
  obs.registry()->RegisterCallbackGauge("replica0.version_lag",
                                        []() { return 4.0; });
  obs.StartSampling();
  sim.Schedule(Millis(25), [&obs]() { obs.StopSampling(); });
  sim.RunAll();

  Result<JsonValue> doc = JsonValue::Parse(obs.MetricsJson());
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  const JsonValue* registry = doc->Find("registry");
  ASSERT_NE(registry, nullptr);
  EXPECT_DOUBLE_EQ(
      registry->Find("counters")->Find("certifier.certified")->number(), 5);
  const JsonValue* sampler = doc->Find("sampler");
  ASSERT_NE(sampler, nullptr);
  EXPECT_EQ(sampler->Find("timestamps")->array().size(), 2u);
  const JsonValue* lag =
      sampler->Find("series")->Find("replica0.version_lag");
  ASSERT_NE(lag, nullptr);
  EXPECT_DOUBLE_EQ(lag->array()[0].number(), 4.0);
}

TEST(ObservabilityTest, TracingDisabledByDefaultConfig) {
  Simulator sim;
  runtime::SimRuntime rt{&sim};
  Observability obs(&rt, ObsConfig{});
  EXPECT_FALSE(obs.tracer()->enabled());
  obs.tracer()->Add({.name = "ignored"});
  EXPECT_EQ(obs.tracer()->size(), 0u);
}

}  // namespace
}  // namespace screp::obs
