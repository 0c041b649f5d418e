#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "core/parallel.h"
#include "obs/json.h"
#include "obs/memory.h"
#include "obs/metrics.h"
#include "obs/monitor.h"
#include "obs/profile.h"
#include "obs/trace.h"

namespace vgod::obs {
namespace {

// --- metrics ---

TEST(MetricsTest, CounterConcurrentAddsAreLossless) {
  Counter* counter =
      MetricsRegistry::Global().GetCounter("test.concurrent_counter");
  counter->Reset();
  constexpr int kThreads = 8;
  constexpr int kAddsPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([counter]() {
      for (int i = 0; i < kAddsPerThread; ++i) counter->Increment();
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(counter->Value(), int64_t{kThreads} * kAddsPerThread);
}

TEST(MetricsTest, RegistryReturnsStablePointers) {
  Counter* a = MetricsRegistry::Global().GetCounter("test.stable");
  Counter* b = MetricsRegistry::Global().GetCounter("test.stable");
  EXPECT_EQ(a, b);
}

TEST(MetricsTest, MacroCachesOneCounterPerCallSite) {
  Counter* direct = MetricsRegistry::Global().GetCounter("test.macro_site");
  direct->Reset();
  for (int i = 0; i < 5; ++i) VGOD_COUNTER_ADD("test.macro_site", 2);
  EXPECT_EQ(direct->Value(), 10);
}

TEST(MetricsTest, HistogramReadsWithinOnePercent) {
  // Regression: the old fixed-bucket histogram interpolated inside the
  // (1 ms, 3 ms] bucket and read p50 = 2.0 ms for 1.1 ms observations.
  QuantileSketch* hist =
      MetricsRegistry::Global().GetHistogram("test.hist.one_point_one_ms");
  hist->Clear();
  for (int i = 0; i < 1000; ++i) {
    VGOD_HISTOGRAM_OBSERVE("test.hist.one_point_one_ms", 1.1e-3);
  }
  EXPECT_EQ(hist->alpha(), kHistogramAlpha);
  EXPECT_EQ(hist->Count(), 1000);
  EXPECT_NEAR(hist->Quantile(0.5), 1.1e-3, 1.1e-3 * 0.01);
  EXPECT_NEAR(hist->Quantile(0.99), 1.1e-3, 1.1e-3 * 0.01);
}

// Cumulative `_bucket` values of one histogram family in a Prometheus
// exposition, in the order they appear (+Inf last), plus its `_count`.
struct PromHistogram {
  std::vector<double> buckets;
  double count = -1.0;
};

PromHistogram ParsePromHistogram(const std::string& text,
                                 const std::string& sanitized) {
  PromHistogram out;
  std::istringstream stream(text);
  std::string line;
  while (std::getline(stream, line)) {
    const double value = std::atof(line.c_str() + line.rfind(' ') + 1);
    if (line.rfind(sanitized + "_bucket{", 0) == 0) {
      out.buckets.push_back(value);
    } else if (line.rfind(sanitized + "_count ", 0) == 0) {
      out.count = value;
    }
  }
  return out;
}

TEST(MetricsTest, RegistryConcurrentWritersAndScrapers) {
  // Hammer the registry from many writer threads (mixing pre-existing and
  // freshly created names) while two scrapers render ToJson/ToPrometheus.
  // Correctness here is "no lost counts, no torn registry"; under TSan
  // (ctest -L threads) it is also a data-race gate for the pull-model
  // gauge publication that the scrape path performs.
  MetricsRegistry& registry = MetricsRegistry::Global();
  registry.GetCounter("test.mt.shared")->Reset();
  constexpr int kThreads = 6;
  constexpr int kIters = 2000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry, t]() {
      for (int i = 0; i < kIters; ++i) {
        registry.GetCounter("test.mt.shared")->Increment();
        registry.GetGauge("test.mt.gauge." + std::to_string(t))
            ->Set(static_cast<double>(i));
        registry.GetHistogram("test.mt.hist." + std::to_string(t % 3))
            ->Insert(1e-5 * (i % 13 + 1));
      }
    });
  }
  std::string json;
  std::string prom;
  std::thread json_scraper([&registry, &json]() {
    for (int i = 0; i < 20; ++i) json = registry.ToJson();
  });
  // Every scrape reads one copy of each sketch, so even mid-write the
  // ladder is cumulative and +Inf == _count.
  int torn_scrapes = 0;
  std::thread prom_scraper([&registry, &prom, &torn_scrapes]() {
    for (int i = 0; i < 20; ++i) {
      prom = registry.ToPrometheus();
      for (int h = 0; h < 3; ++h) {
        const PromHistogram parsed = ParsePromHistogram(
            prom, "test_mt_hist_" + std::to_string(h));
        if (parsed.buckets.empty()) continue;  // Not registered yet.
        const bool cumulative = std::is_sorted(parsed.buckets.begin(),
                                               parsed.buckets.end());
        if (!cumulative || parsed.buckets.back() != parsed.count) {
          ++torn_scrapes;
        }
      }
    }
  });
  for (std::thread& t : threads) t.join();
  json_scraper.join();
  prom_scraper.join();
  EXPECT_EQ(torn_scrapes, 0);
  EXPECT_EQ(registry.GetCounter("test.mt.shared")->Value(),
            int64_t{kThreads} * kIters);
  // Scrapes taken mid-write must still be parseable JSON.
  json = registry.ToJson();
  EXPECT_TRUE(ParseJson(json).ok());
  EXPECT_NE(prom.find("# TYPE"), std::string::npos);
}

TEST(MetricsTest, RegistryJsonRoundTrips) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  registry.GetCounter("test.json.counter")->Reset();
  registry.GetCounter("test.json.counter")->Add(42);
  registry.GetGauge("test.json.gauge")->Set(2.5);
  QuantileSketch* hist = registry.GetHistogram("test.json.hist");
  hist->Clear();
  hist->Insert(0.5);
  hist->Insert(5.0);
  hist->Insert(500.0);  // Past the last edge.

  Result<JsonValue> parsed = ParseJson(registry.ToJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const JsonValue& root = parsed.value();
  ASSERT_TRUE(root.is_object());
  EXPECT_EQ(root.at("counters").at("test.json.counter").number(), 42.0);
  EXPECT_EQ(root.at("gauges").at("test.json.gauge").number(), 2.5);
  const JsonValue& hist_json = root.at("histograms").at("test.json.hist");
  ASSERT_TRUE(hist_json.is_object());
  EXPECT_EQ(hist_json.at("count").number(), 3.0);
  EXPECT_NEAR(hist_json.at("sum").number(), 505.5, 1e-9);
  // Per-bucket counts on the export ladder, overflow last.
  const std::vector<double>& bounds = DefaultLatencyBounds();
  const JsonValue::Array& buckets = hist_json.at("buckets").array();
  ASSERT_EQ(buckets.size(), bounds.size() + 1);
  double total = 0.0;
  for (size_t i = 0; i < bounds.size(); ++i) {
    EXPECT_EQ(buckets[i].at("le").number(), bounds[i]);
    const double count = buckets[i].at("count").number();
    EXPECT_EQ(count, bounds[i] == 1.0 || bounds[i] == 10.0 ? 1.0 : 0.0)
        << "le=" << bounds[i];
    total += count;
  }
  EXPECT_EQ(buckets.back().at("le").string_value(), "inf");
  EXPECT_EQ(buckets.back().at("count").number(), 1.0);
  EXPECT_EQ(total + buckets.back().at("count").number(), 3.0);
}

TEST(PrometheusTest, SanitizeMetricNameMapsToGrammar) {
  EXPECT_EQ(SanitizeMetricName("serve.requests.total"),
            "serve_requests_total");
  EXPECT_EQ(SanitizeMetricName("already_fine:name"), "already_fine:name");
  EXPECT_EQ(SanitizeMetricName("has spaces/and-dashes"),
            "has_spaces_and_dashes");
  EXPECT_EQ(SanitizeMetricName("9starts_with_digit"), "_9starts_with_digit");
  EXPECT_EQ(SanitizeMetricName(""), "_");
}

TEST(PrometheusTest, EscapeLabelValueEscapesSpecials) {
  EXPECT_EQ(EscapeLabelValue("plain"), "plain");
  EXPECT_EQ(EscapeLabelValue("back\\slash"), "back\\\\slash");
  EXPECT_EQ(EscapeLabelValue("quo\"te"), "quo\\\"te");
  EXPECT_EQ(EscapeLabelValue("new\nline"), "new\\nline");
}

// Pulls every exposition line that starts with `prefix` (sanitized name).
std::vector<std::string> LinesWithPrefix(const std::string& text,
                                         const std::string& prefix) {
  std::vector<std::string> out;
  std::istringstream stream(text);
  std::string line;
  while (std::getline(stream, line)) {
    if (line.rfind(prefix, 0) == 0) out.push_back(line);
  }
  return out;
}

TEST(PrometheusTest, CounterAndGaugeExposition) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  registry.GetCounter("test.prom.counter")->Reset();
  registry.GetCounter("test.prom.counter")->Add(7);
  registry.GetGauge("test.prom.gauge")->Set(1.5);

  const std::string text = registry.ToPrometheus();
  EXPECT_NE(text.find("# HELP test_prom_counter vgod metric test.prom.counter"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE test_prom_counter counter"), std::string::npos);
  EXPECT_NE(text.find("\ntest_prom_counter 7\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE test_prom_gauge gauge"), std::string::npos);
  EXPECT_NE(text.find("\ntest_prom_gauge 1.5\n"), std::string::npos);
}

TEST(PrometheusTest, HistogramBucketsAreCumulativeAndEndAtInf) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  QuantileSketch* hist = registry.GetHistogram("test.prom.hist");
  hist->Clear();
  hist->Insert(0.05);
  hist->Insert(0.5);
  hist->Insert(5.0);
  hist->Insert(500.0);  // Past the last edge.

  const std::string text = registry.ToPrometheus();
  const std::vector<std::string> buckets =
      LinesWithPrefix(text, "test_prom_hist_bucket");
  ASSERT_EQ(buckets.size(), DefaultLatencyBounds().size() + 1);
  // Each edge reports the sketch's mass at or below it.
  const std::vector<double>& bounds = DefaultLatencyBounds();
  const std::vector<double> cumulative =
      ParsePromHistogram(text, "test_prom_hist").buckets;
  const auto at = [&](double le) {
    return cumulative[std::find(bounds.begin(), bounds.end(), le) -
                      bounds.begin()];
  };
  EXPECT_EQ(at(0.03), 0.0);
  EXPECT_EQ(at(0.1), 1.0);
  EXPECT_EQ(at(1.0), 2.0);
  EXPECT_EQ(at(100.0), 3.0);
  // Cumulative counts, monotonically non-decreasing, +Inf last.
  double prev = -1.0;
  for (const std::string& line : buckets) {
    const double count = std::stod(line.substr(line.rfind(' ')));
    EXPECT_GE(count, prev);
    prev = count;
  }
  EXPECT_NE(buckets.back().find("le=\"+Inf\""), std::string::npos);
  EXPECT_EQ(prev, 4.0);

  const std::vector<std::string> count_lines =
      LinesWithPrefix(text, "test_prom_hist_count");
  ASSERT_EQ(count_lines.size(), 1u);
  // The +Inf bucket and _count must agree — scrapers cross-check them.
  EXPECT_EQ(std::stod(count_lines[0].substr(count_lines[0].rfind(' '))),
            4.0);
  const std::vector<std::string> sum_lines =
      LinesWithPrefix(text, "test_prom_hist_sum");
  ASSERT_EQ(sum_lines.size(), 1u);
  EXPECT_NEAR(std::stod(sum_lines[0].substr(sum_lines[0].rfind(' '))),
              0.05 + 0.5 + 5.0 + 500.0, 1e-9);
}

TEST(PrometheusTest, EveryMetricHasHelpAndTypeLines) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  registry.GetCounter("test.prom.help_check")->Increment();
  const std::string text = registry.ToPrometheus();
  std::istringstream stream(text);
  std::string line;
  std::string last_type_for;
  while (std::getline(stream, line)) {
    if (line.empty()) continue;
    if (line.rfind("# HELP ", 0) == 0 || line.rfind("# TYPE ", 0) == 0) {
      if (line.rfind("# TYPE ", 0) == 0) {
        last_type_for = line.substr(7, line.find(' ', 7) - 7);
      }
      continue;
    }
    // A sample line: its metric name must extend the last # TYPE name
    // (exactly, or with the _bucket/_sum/_count histogram suffixes).
    const size_t name_end = line.find_first_of(" {");
    ASSERT_NE(name_end, std::string::npos) << line;
    const std::string name = line.substr(0, name_end);
    EXPECT_EQ(name.rfind(last_type_for, 0), 0u) << line;
  }
}

// --- json ---

TEST(JsonTest, DumpParseRoundTrip) {
  JsonValue::Object obj;
  obj["name"] = JsonValue(std::string("va\"lue\nwith \\ escapes"));
  obj["pi"] = JsonValue(3.14159265358979);
  obj["neg"] = JsonValue(int64_t{-7});
  obj["flag"] = JsonValue(true);
  obj["nothing"] = JsonValue();
  JsonValue::Array arr;
  arr.push_back(JsonValue(1.0));
  arr.push_back(JsonValue(std::string("two")));
  obj["list"] = JsonValue(std::move(arr));
  const JsonValue original{JsonValue(std::move(obj))};

  Result<JsonValue> reparsed = ParseJson(original.Dump());
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  EXPECT_EQ(reparsed.value().Dump(), original.Dump());
  EXPECT_EQ(reparsed.value().at("name").string_value(),
            "va\"lue\nwith \\ escapes");
  EXPECT_NEAR(reparsed.value().at("pi").number(), 3.14159265358979, 1e-15);
  EXPECT_TRUE(reparsed.value().at("flag").boolean());
  EXPECT_TRUE(reparsed.value().at("nothing").is_null());
  EXPECT_EQ(reparsed.value().at("list").array().size(), 2u);
}

TEST(JsonTest, ParseRejectsGarbage) {
  EXPECT_FALSE(ParseJson("{\"unterminated\": ").ok());
  EXPECT_FALSE(ParseJson("[1, 2,]").ok());
  EXPECT_FALSE(ParseJson("nope").ok());
}

TEST(JsonTest, NonFiniteNumbersSerializeAsZero) {
  std::string out;
  AppendJsonNumber(&out, std::nan(""));
  EXPECT_EQ(out, "0");
}

// --- timeline (the scope's second sink) ---

class TimelineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ClearTrace();
    ClearProfile();
    SetProfileEnabled(false);
    SetTraceEnabled(true);
  }
  void TearDown() override {
    SetTraceEnabled(false);
    SetProfileEnabled(false);
    ClearTrace();
    ClearProfile();
  }

  static std::vector<TraceEvent> EventsNamed(const std::string& name) {
    std::vector<TraceEvent> out;
    for (const TraceEvent& event : SnapshotTraceEvents()) {
      if (event.name == name) out.push_back(event);
    }
    return out;
  }

  // Calls the call tree recorded for top-level scope `name` (0 if none).
  static int64_t TreeCalls(const std::string& name) {
    for (const ProfileNode& child : SnapshotProfile().children) {
      if (child.name == name) return child.calls;
    }
    return 0;
  }
};

TEST_F(TimelineTest, NestedScopesGiveContainedCompleteEvents) {
  {
    VGOD_PROFILE_SCOPE("test/outer");
    VGOD_PROFILE_SCOPE("test/inner");
  }
  const std::vector<TraceEvent> events = SnapshotTraceEvents();
  ASSERT_EQ(events.size(), 2u);
  // Destruction order: inner closes (and records) before outer.
  EXPECT_EQ(events[0].name, "test/inner");
  EXPECT_EQ(events[1].name, "test/outer");
  EXPECT_EQ(events[0].tid, events[1].tid);
  EXPECT_GE(events[0].ts_us, events[1].ts_us);
  EXPECT_LE(events[0].ts_us + events[0].dur_us,
            events[1].ts_us + events[1].dur_us);
  // The tree sink was off: the timeline recorded without it.
  EXPECT_EQ(TreeCalls("test/outer"), 0);
}

TEST_F(TimelineTest, BothSinksOffRecordNothing) {
  SetTraceEnabled(false);
  {
    VGOD_PROFILE_SCOPE("test/invisible");
  }
  EXPECT_EQ(TraceEventCount(), 0u);
  EXPECT_EQ(TreeCalls("test/invisible"), 0);
}

TEST_F(TimelineTest, ProfileWindowLeavesTimelineRunning) {
  // A /debug/profile window toggles only the tree bit.
  SetProfileEnabled(true);
  { VGOD_PROFILE_SCOPE("test/in_window"); }
  SetProfileEnabled(false);
  { VGOD_PROFILE_SCOPE("test/after_window"); }
  EXPECT_TRUE(TraceEnabled());
  EXPECT_EQ(EventsNamed("test/in_window").size(), 1u);
  EXPECT_EQ(EventsNamed("test/after_window").size(), 1u);
  EXPECT_EQ(TreeCalls("test/in_window"), 1);
  EXPECT_EQ(TreeCalls("test/after_window"), 0);
}

TEST_F(TimelineTest, TimelineOffLeavesTreeRunning) {
  SetTraceEnabled(false);
  SetProfileEnabled(true);
  { VGOD_PROFILE_SCOPE("test/tree_only"); }
  EXPECT_EQ(TraceEventCount(), 0u);
  EXPECT_EQ(TreeCalls("test/tree_only"), 1);
}

TEST_F(TimelineTest, PoolThreadScopesReachTheTimeline) {
  // Scopes opened inside ParallelFor chunks append from the pool threads
  // concurrently; a TSan target under the `threads` label.
  const int previous_threads = par::NumThreads();
  par::SetNumThreads(4);
  std::atomic<int> chunks{0};
  par::ParallelFor(0, 4096, 64, [&chunks](int64_t, int64_t) {
    VGOD_PROFILE_SCOPE("test/chunk");
    chunks.fetch_add(1, std::memory_order_relaxed);
  });
  par::SetNumThreads(previous_threads);
  const std::vector<TraceEvent> events = EventsNamed("test/chunk");
  EXPECT_EQ(static_cast<int>(events.size()), chunks.load());
  EXPECT_GE(events.size(), 1u);
  for (const TraceEvent& event : events) EXPECT_GE(event.dur_us, 0);
}

TEST(SinkEnvTest, ProfileAndTraceShareOnePathRule) {
  const char* kVar = "VGOD_OBS_TEST_SINK";
  std::string path;
  unsetenv(kVar);
  EXPECT_FALSE(profile_internal::ReadSinkEnv(kVar, &path));
  setenv(kVar, "0", 1);
  EXPECT_FALSE(profile_internal::ReadSinkEnv(kVar, &path));
  setenv(kVar, "1", 1);
  EXPECT_TRUE(profile_internal::ReadSinkEnv(kVar, &path));
  EXPECT_EQ(path, "");
  // Any '.' or '/' makes the value a path, whatever the extension.
  for (const char* value : {"run.trace", "out/trace", "profile.folded"}) {
    setenv(kVar, value, 1);
    path.clear();
    EXPECT_TRUE(profile_internal::ReadSinkEnv(kVar, &path));
    EXPECT_EQ(path, value);
  }
  unsetenv(kVar);
}

TEST_F(TimelineTest, TraceJsonIsChromeTraceEventFormat) {
  RecordCompleteEvent("phase/a", 10, 5);
  RecordCompleteEvent("phase/b", 20, 1);
  Result<JsonValue> parsed = ParseJson(TraceToJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const JsonValue& root = parsed.value();
  ASSERT_TRUE(root.Has("traceEvents"));
  const JsonValue::Array& events = root.at("traceEvents").array();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].at("name").string_value(), "phase/a");
  EXPECT_EQ(events[0].at("ph").string_value(), "X");
  EXPECT_EQ(events[0].at("ts").number(), 10.0);
  EXPECT_EQ(events[0].at("dur").number(), 5.0);
  EXPECT_TRUE(events[0].Has("pid"));
  EXPECT_TRUE(events[0].Has("tid"));
}

TEST_F(TimelineTest, WriteTraceProducesReadableFile) {
  RecordCompleteEvent("io/span", 0, 3);
  const std::string path = ::testing::TempDir() + "/vgod_trace_test.json";
  ASSERT_TRUE(WriteTrace(path).ok());
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  Result<JsonValue> parsed = ParseJson(buffer.str());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.value().at("traceEvents").array().size(), 1u);
  std::remove(path.c_str());
}

// --- memory ---

TEST(MemoryTest, PeakTracksHighWaterMark) {
  ResetPeakTensorBytes();
  const int64_t base_live = LiveTensorBytes();
  OnTensorAlloc(1000);
  OnTensorAlloc(500);
  OnTensorFree(1000);
  OnTensorAlloc(100);
  EXPECT_EQ(LiveTensorBytes(), base_live + 600);
  EXPECT_EQ(PeakTensorBytes(), base_live + 1500);
  ResetPeakTensorBytes();
  EXPECT_EQ(PeakTensorBytes(), base_live + 600);
  OnTensorFree(500);
  OnTensorFree(100);
  EXPECT_EQ(LiveTensorBytes(), base_live);
}

// --- monitor ---

EpochRecord MakeRecord(int epoch) {
  EpochRecord record;
  record.detector = "TestDetector";
  record.epoch = epoch;
  record.planned_epochs = 3;
  record.loss = 0.5 / epoch;
  record.grad_norm = 1.25;
  record.seconds = 0.01;
  record.peak_tensor_bytes = 4096;
  return record;
}

TEST(MonitorTest, EpochRecordJsonRoundTrips) {
  Result<JsonValue> parsed = ParseJson(EpochRecordToJson(MakeRecord(2)));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const JsonValue& root = parsed.value();
  EXPECT_EQ(root.at("detector").string_value(), "TestDetector");
  EXPECT_EQ(root.at("epoch").number(), 2.0);
  EXPECT_EQ(root.at("planned_epochs").number(), 3.0);
  EXPECT_EQ(root.at("loss").number(), 0.25);
  EXPECT_EQ(root.at("grad_norm").number(), 1.25);
  EXPECT_EQ(root.at("peak_tensor_bytes").number(), 4096.0);
}

TEST(MonitorTest, JsonlStreamsOneParsableObjectPerEpoch) {
  const std::string path = ::testing::TempDir() + "/vgod_monitor_test.jsonl";
  {
    Result<std::unique_ptr<TrainingMonitor>> monitor =
        TrainingMonitor::WithJsonl(path);
    ASSERT_TRUE(monitor.ok()) << monitor.status().ToString();
    for (int epoch = 1; epoch <= 3; ++epoch) {
      monitor.value()->Record(MakeRecord(epoch));
    }
    EXPECT_EQ(monitor.value()->Records().size(), 3u);
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  int lines = 0;
  while (std::getline(in, line)) {
    ++lines;
    Result<JsonValue> parsed = ParseJson(line);
    ASSERT_TRUE(parsed.ok()) << "line " << lines << ": " << line;
    EXPECT_EQ(parsed.value().at("epoch").number(), lines);
  }
  EXPECT_EQ(lines, 3);
  std::remove(path.c_str());
}

TEST(MonitorTest, WithJsonlRejectsUnwritablePath) {
  EXPECT_FALSE(TrainingMonitor::WithJsonl("/nonexistent-dir/x.jsonl").ok());
}

TEST(MonitorTest, TrainingRunFeedsSinkMonitorAndProbe) {
  TrainingMonitor monitor;
  std::vector<std::pair<int, size_t>> probed;
  monitor.SetScoreProbe([&probed](const std::string& detector, int epoch,
                                  const std::vector<double>& scores) {
    EXPECT_EQ(detector, "Probe");
    probed.emplace_back(epoch, scores.size());
  });
  std::vector<EpochRecord> sink = {MakeRecord(99)};  // Stale; must clear.
  {
    TrainingRun run("Probe", 2, &monitor, &sink);
    EXPECT_TRUE(run.wants_scores());
    for (int epoch = 1; epoch <= 2; ++epoch) {
      const EpochRecord record = run.EndEpoch(epoch, 0.5, 0.1);
      EXPECT_EQ(record.detector, "Probe");
      EXPECT_EQ(record.epoch, epoch);
      EXPECT_GE(record.seconds, 0.0);
      run.ProbeScores(epoch, {1.0, 2.0, 3.0});
    }
    EXPECT_GT(run.TotalSeconds(), 0.0);
  }
  ASSERT_EQ(sink.size(), 2u);
  EXPECT_EQ(sink[0].epoch, 1);
  EXPECT_EQ(sink[1].epoch, 2);
  EXPECT_EQ(monitor.Records().size(), 2u);
  ASSERT_EQ(probed.size(), 2u);
  EXPECT_EQ(probed[0], (std::pair<int, size_t>{1, 3u}));
}

TEST(MonitorTest, TrainingRunEmitsFitAndEpochSpans) {
  const bool was_enabled = TraceEnabled();
  ClearTrace();
  SetTraceEnabled(true);
  {
    TrainingRun run("SpanCheck", 1, nullptr, nullptr);
    run.EndEpoch(1, 0.0, 0.0);
  }
  std::vector<std::string> names;
  for (const TraceEvent& event : SnapshotTraceEvents()) {
    names.push_back(event.name);
  }
  ClearTrace();
  SetTraceEnabled(was_enabled);
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "SpanCheck/epoch");
  EXPECT_EQ(names[1], "SpanCheck/fit");
}

// --- profiler ---

class ProfileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SetProfileEnabled(true);
    ClearProfile();
  }
  void TearDown() override {
    SetProfileEnabled(false);
    ClearProfile();
  }

  static const ProfileNode* Child(const ProfileNode& node,
                                  const std::string& name) {
    for (const ProfileNode& child : node.children) {
      if (child.name == name) return &child;
    }
    return nullptr;
  }
};

TEST_F(ProfileTest, DisabledScopesRecordNothing) {
  SetProfileEnabled(false);
  ClearProfile();
  {
    VGOD_PROFILE_SCOPE("test/ignored");
    ProfileAddBytes(1 << 20);
  }
  const ProfileNode root = SnapshotProfile();
  EXPECT_EQ(Child(root, "test/ignored"), nullptr);
}

TEST_F(ProfileTest, NestedScopesBuildTreeWithInvariant) {
  {
    VGOD_PROFILE_SCOPE("test/outer");
    for (int i = 0; i < 3; ++i) {
      VGOD_PROFILE_SCOPE("test/inner");
      ProfileAddBytes(100);
    }
  }
  const ProfileNode root = SnapshotProfile();
  const ProfileNode* outer = Child(root, "test/outer");
  ASSERT_NE(outer, nullptr);
  EXPECT_EQ(outer->calls, 1);
  const ProfileNode* inner = Child(*outer, "test/inner");
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(inner->calls, 3);
  EXPECT_EQ(inner->bytes, 300);
  // Tree invariant: children's inclusive time fits inside the parent's,
  // and exclusive is the exact remainder.
  EXPECT_LE(inner->inclusive_ns, outer->inclusive_ns);
  EXPECT_EQ(outer->exclusive_ns, outer->inclusive_ns - inner->inclusive_ns);
  EXPECT_GE(inner->inclusive_ns, 0);
}

TEST_F(ProfileTest, SiblingScopesStayDistinctAndNameSorted) {
  {
    VGOD_PROFILE_SCOPE("test/parent");
    { VGOD_PROFILE_SCOPE("test/b"); }
    { VGOD_PROFILE_SCOPE("test/a"); }
    { VGOD_PROFILE_SCOPE("test/b"); }
  }
  const ProfileNode root = SnapshotProfile();
  const ProfileNode* parent = Child(root, "test/parent");
  ASSERT_NE(parent, nullptr);
  ASSERT_EQ(parent->children.size(), 2u);
  EXPECT_EQ(parent->children[0].name, "test/a");  // sorted, not visit order
  EXPECT_EQ(parent->children[1].name, "test/b");
  EXPECT_EQ(parent->children[0].calls, 1);
  EXPECT_EQ(parent->children[1].calls, 2);
}

TEST_F(ProfileTest, ClearProfileZeroesButKeepsShape) {
  { VGOD_PROFILE_SCOPE("test/cleared"); }
  ClearProfile();
  const ProfileNode root = SnapshotProfile();
  const ProfileNode* node = Child(root, "test/cleared");
  ASSERT_NE(node, nullptr);  // structure survives for live scope pointers
  EXPECT_EQ(node->calls, 0);
  EXPECT_EQ(node->inclusive_ns, 0);
}

TEST_F(ProfileTest, FoldedExportEmitsStackLines) {
  {
    VGOD_PROFILE_SCOPE("test/root_scope");
    VGOD_PROFILE_SCOPE("test/leaf");
  }
  const std::string folded = ProfileToFolded();
  EXPECT_NE(folded.find("test/root_scope;test/leaf "), std::string::npos)
      << folded;
  // Every line is "frame(;frame)* <digits>".
  std::istringstream lines(folded);
  std::string line;
  while (std::getline(lines, line)) {
    const size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    const std::string count = line.substr(space + 1);
    EXPECT_FALSE(count.empty());
    EXPECT_EQ(count.find_first_not_of("0123456789"), std::string::npos)
        << line;
  }
}

TEST_F(ProfileTest, JsonExportParsesAndNestsChildren) {
  {
    VGOD_PROFILE_SCOPE("test/json_outer");
    VGOD_PROFILE_SCOPE("test/json_inner");
  }
  Result<JsonValue> parsed = ParseJson(ProfileToJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const JsonValue& root = parsed.value();
  ASSERT_TRUE(root.at("children").is_array());
  bool found = false;
  for (const JsonValue& child : root.at("children").array()) {
    if (child.at("name").string_value() != "test/json_outer") continue;
    found = true;
    EXPECT_EQ(child.at("calls").number(), 1.0);
    ASSERT_EQ(child.at("children").array().size(), 1u);
    EXPECT_EQ(child.at("children").array()[0].at("name").string_value(),
              "test/json_inner");
  }
  EXPECT_TRUE(found);
}

TEST_F(ProfileTest, WriteProfilePicksFormatFromExtension) {
  { VGOD_PROFILE_SCOPE("test/written"); }
  const std::string json_path = "obs_profile_test.json";
  const std::string folded_path = "obs_profile_test.folded";
  ASSERT_TRUE(WriteProfile(json_path).ok());
  ASSERT_TRUE(WriteProfile(folded_path).ok());
  std::ifstream json_file(json_path);
  std::stringstream json_text;
  json_text << json_file.rdbuf();
  EXPECT_TRUE(ParseJson(json_text.str()).ok());
  std::ifstream folded_file(folded_path);
  std::stringstream folded_text;
  folded_text << folded_file.rdbuf();
  // ClearProfile keeps zeroed nodes from earlier tests, so the file can
  // hold other (count 0) stacks; ours must be among them.
  EXPECT_NE(folded_text.str().find("test/written "), std::string::npos)
      << folded_text.str();
  std::remove(json_path.c_str());
  std::remove(folded_path.c_str());
}

TEST_F(ProfileTest, MemoryPhaseAttributesPeakAndRestoresOuter) {
  const int64_t baseline = LiveTensorBytes();
  ResetPeakTensorBytes();
  OnTensorAlloc(1000);
  OnTensorFree(1000);  // outer peak: baseline + 1000
  {
    VGOD_PROFILE_MEMORY_PHASE("test/phase");
    OnTensorAlloc(400);
    OnTensorFree(400);
  }
  const ProfileNode root = SnapshotProfile();
  const ProfileNode* phase = Child(root, "test/phase");
  ASSERT_NE(phase, nullptr);
  EXPECT_EQ(phase->peak_bytes, baseline + 400);
  // The enclosing high-water mark is restored, not clobbered by the
  // phase-local reset.
  EXPECT_GE(PeakTensorBytes(), baseline + 1000);
}

TEST_F(ProfileTest, ThreadMemoryWindowTracksPerThreadPeak) {
  BeginThreadMemoryWindow();
  OnTensorAlloc(500);
  OnTensorAlloc(300);
  OnTensorFree(500);
  OnTensorAlloc(100);
  EXPECT_EQ(ThreadMemoryWindowPeak(), 800);
  OnTensorFree(300);
  OnTensorFree(100);
  BeginThreadMemoryWindow();
  EXPECT_EQ(ThreadMemoryWindowPeak(), 0);
}

TEST_F(ProfileTest, ConcurrentScopesAndSnapshotsAreClean) {
  // Scoping threads race SnapshotProfile/ClearProfile calls; the test is
  // primarily a TSan target (ctest -L threads) and secondarily checks
  // that a quiesced snapshot sees every thread's tree.
  constexpr int kThreads = 4;
  constexpr int kIters = 500;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([]() {
      for (int i = 0; i < kIters; ++i) {
        VGOD_PROFILE_SCOPE("test/mt_outer");
        VGOD_PROFILE_SCOPE("test/mt_inner");
        ProfileAddBytes(8);
      }
    });
  }
  std::thread snapshotter([]() {
    for (int i = 0; i < 50; ++i) {
      const ProfileNode root = SnapshotProfile();
      (void)root;
    }
  });
  for (std::thread& t : workers) t.join();
  snapshotter.join();
  const ProfileNode root = SnapshotProfile();
  const ProfileNode* outer = Child(root, "test/mt_outer");
  ASSERT_NE(outer, nullptr);
  EXPECT_EQ(outer->calls, int64_t{kThreads} * kIters);
  const ProfileNode* inner = Child(*outer, "test/mt_inner");
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(inner->bytes, int64_t{kThreads} * kIters * 8);
  EXPECT_LE(inner->inclusive_ns, outer->inclusive_ns);
}

}  // namespace
}  // namespace vgod::obs
