// Model-quality observability tests (docs/OBSERVABILITY.md): the
// quantile sketch's error bounds / merge algebra / determinism, the
// bundle fingerprint round trip, the drift monitor's PSI/KS behavior and
// window rotation, the alert-rule parser's hostile-config handling, the
// alert state machine, and the webhook URL validator.
#include <algorithm>
#include <cmath>
#include <limits>
#include <random>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/alerts.h"
#include "obs/drift.h"
#include "obs/fingerprint.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/sketch.h"
#include "serve/notify.h"

namespace vgod {
namespace {

// Serialization with the "sum" member dropped: every quantile-bearing
// piece of sketch state (buckets, count, min/max, alpha). The running
// sum is an exact double accumulation, so it picks up ULP-level
// differences from insertion/merge order — FP addition is not
// associative — while the bucket maps are integer counts and compare
// bit-exactly.
std::string DumpWithoutSum(const obs::QuantileSketch& sketch) {
  obs::JsonValue::Object object = sketch.ToJson().object();
  object.erase("sum");
  return obs::JsonValue(std::move(object)).Dump();
}

double ExactQuantile(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  const size_t rank = static_cast<size_t>(
      q * static_cast<double>(values.size() - 1) + 0.5);
  return values[std::min(rank, values.size() - 1)];
}

// |estimate - exact| <= alpha * |exact| for values outside the zero
// bucket, with a little slack for the rank discretization at the exact
// quantile's bucket boundary.
void ExpectQuantilesClose(const obs::QuantileSketch& sketch,
                          const std::vector<double>& values, double alpha) {
  for (double q : {0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99}) {
    const double exact = ExactQuantile(values, q);
    const double estimate = sketch.Quantile(q);
    const double tolerance = 2.0 * alpha * std::abs(exact) + 1e-9;
    EXPECT_NEAR(estimate, exact, tolerance)
        << "q=" << q << " exact=" << exact << " estimate=" << estimate;
  }
}

TEST(QuantileSketch, ErrorBoundOnRandomPositiveData) {
  std::mt19937 rng(7);
  std::lognormal_distribution<double> dist(0.0, 1.5);
  std::vector<double> values;
  obs::QuantileSketch sketch(0.01);
  for (int i = 0; i < 20000; ++i) {
    const double v = dist(rng);
    values.push_back(v);
    sketch.Insert(v);
  }
  EXPECT_EQ(sketch.Count(), 20000);
  ExpectQuantilesClose(sketch, values, 0.01);
}

TEST(QuantileSketch, ErrorBoundOnMixedSignScores) {
  // Served VGOD scores are roughly centered at zero with both signs —
  // the shape the two-sided bucket tables exist for.
  std::mt19937 rng(11);
  std::normal_distribution<double> dist(0.0, 2.0);
  std::vector<double> values;
  obs::QuantileSketch sketch(0.01);
  for (int i = 0; i < 20000; ++i) {
    const double v = dist(rng);
    values.push_back(v);
    sketch.Insert(v);
  }
  ExpectQuantilesClose(sketch, values, 0.01);
  EXPECT_LT(sketch.Min(), 0.0);
  EXPECT_GT(sketch.Max(), 0.0);
}

TEST(QuantileSketch, AdversarialInputs) {
  obs::QuantileSketch sketch(0.02);
  // Constant stream: every quantile is that constant (within alpha).
  for (int i = 0; i < 100; ++i) sketch.Insert(42.0);
  EXPECT_NEAR(sketch.Quantile(0.0), 42.0, 42.0 * 0.05);
  EXPECT_NEAR(sketch.Quantile(1.0), 42.0, 42.0 * 0.05);

  // 60 decades of magnitude plus zeros and denormal-tiny values: the
  // bounded bucket index range must absorb all of it without blowup.
  obs::QuantileSketch wide(0.02);
  for (int e = -30; e <= 30; ++e) wide.Insert(std::pow(10.0, e));
  wide.Insert(0.0);
  wide.Insert(1e-300);
  wide.Insert(-1e-300);
  EXPECT_EQ(wide.Count(), 64);
  EXPECT_GT(wide.Quantile(0.99), 1e28);

  // Non-finite values are ignored, not propagated into the buckets.
  obs::QuantileSketch finite(0.02);
  finite.Insert(std::numeric_limits<double>::quiet_NaN());
  finite.Insert(std::numeric_limits<double>::infinity());
  finite.Insert(-std::numeric_limits<double>::infinity());
  EXPECT_EQ(finite.Count(), 0);
  finite.Insert(1.0);
  EXPECT_EQ(finite.Count(), 1);
}

TEST(QuantileSketch, MergeMatchesConcatenationAndIsAssociative) {
  std::mt19937 rng(23);
  std::normal_distribution<double> dist(1.0, 3.0);
  std::vector<std::vector<double>> parts(3);
  obs::QuantileSketch all(0.01);
  std::vector<obs::QuantileSketch> sketches(3, obs::QuantileSketch(0.01));
  for (int p = 0; p < 3; ++p) {
    for (int i = 0; i < 5000; ++i) {
      const double v = dist(rng);
      parts[p].push_back(v);
      sketches[p].Insert(v);
      all.Insert(v);
    }
  }
  // (a + b) + c
  obs::QuantileSketch left(sketches[0]);
  ASSERT_TRUE(left.Merge(sketches[1]).ok());
  ASSERT_TRUE(left.Merge(sketches[2]).ok());
  // a + (b + c)
  obs::QuantileSketch tail(sketches[1]);
  ASSERT_TRUE(tail.Merge(sketches[2]).ok());
  obs::QuantileSketch right(sketches[0]);
  ASSERT_TRUE(right.Merge(tail).ok());

  // Merge is bucket-wise addition, so both groupings and the
  // concatenated stream carry identical buckets/count/min/max; the
  // running sum only matches to FP-accumulation-order tolerance.
  EXPECT_EQ(DumpWithoutSum(left), DumpWithoutSum(right));
  EXPECT_EQ(DumpWithoutSum(left), DumpWithoutSum(all));
  EXPECT_NEAR(left.Sum(), all.Sum(), 1e-9 * std::abs(all.Sum()) + 1e-9);
  EXPECT_NEAR(right.Sum(), all.Sum(), 1e-9 * std::abs(all.Sum()) + 1e-9);

  obs::QuantileSketch other_alpha(0.05);
  EXPECT_FALSE(left.Merge(other_alpha).ok());
}

TEST(QuantileSketch, DeterministicAcrossThreadCounts) {
  // The same multiset of values, inserted by 1 vs 4 threads into
  // per-thread sketches then merged, must carry identical buckets —
  // the property that makes drift evaluation reproducible. (The sum
  // is FP-order sensitive, so it is checked to tolerance instead.)
  std::vector<double> values;
  std::mt19937 rng(5);
  std::normal_distribution<double> dist(0.0, 1.0);
  for (int i = 0; i < 8000; ++i) values.push_back(dist(rng));

  obs::QuantileSketch serial(0.01);
  for (double v : values) serial.Insert(v);

  for (int threads : {2, 4}) {
    std::vector<obs::QuantileSketch> shards(
        static_cast<size_t>(threads), obs::QuantileSketch(0.01));
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t) {
      pool.emplace_back([&, t] {
        for (size_t i = static_cast<size_t>(t); i < values.size();
             i += static_cast<size_t>(threads)) {
          shards[static_cast<size_t>(t)].Insert(values[i]);
        }
      });
    }
    for (std::thread& thread : pool) thread.join();
    obs::QuantileSketch merged(0.01);
    for (const obs::QuantileSketch& shard : shards) {
      ASSERT_TRUE(merged.Merge(shard).ok());
    }
    EXPECT_EQ(DumpWithoutSum(merged), DumpWithoutSum(serial))
        << threads << " threads";
    EXPECT_NEAR(merged.Sum(), serial.Sum(),
                1e-9 * std::abs(serial.Sum()) + 1e-9)
        << threads << " threads";
  }
}

TEST(QuantileSketch, ConcurrentInsertAndReadIsSafe) {
  // TSan target: concurrent Insert with Quantile/ToJson reads.
  obs::QuantileSketch sketch(0.01);
  std::vector<std::thread> pool;
  for (int t = 0; t < 4; ++t) {
    pool.emplace_back([&sketch, t] {
      for (int i = 0; i < 2000; ++i) {
        sketch.Insert(static_cast<double>(t * 2000 + i) * 0.01 - 40.0);
      }
    });
  }
  pool.emplace_back([&sketch] {
    for (int i = 0; i < 200; ++i) {
      (void)sketch.Quantile(0.5);
      (void)sketch.ToJson();
      (void)sketch.MassBelow(0.0);
    }
  });
  for (std::thread& thread : pool) thread.join();
  EXPECT_EQ(sketch.Count(), 8000);
}

TEST(QuantileSketch, JsonRoundTripAndHostileInputs) {
  obs::QuantileSketch sketch(0.01);
  for (double v : {-3.0, -0.5, 0.0, 0.25, 1.0, 1.0, 7.5}) sketch.Insert(v);
  Result<obs::QuantileSketch> restored =
      obs::QuantileSketch::FromJson(sketch.ToJson());
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored.value().ToJson().Dump(), sketch.ToJson().Dump());
  EXPECT_EQ(restored.value().Count(), sketch.Count());
  EXPECT_DOUBLE_EQ(restored.value().Quantile(0.5), sketch.Quantile(0.5));

  for (const char* hostile : {
           "[]",                                    // not an object
           "{\"alpha\":2.0,\"count\":0}",           // alpha out of range
           "{\"alpha\":0.01,\"count\":1,\"pos\":{\"x\":1}}",  // bad index
           "{\"alpha\":0.01,\"count\":1,\"pos\":{\"3\":-4}}", // bad count
       }) {
    Result<obs::JsonValue> parsed = obs::ParseJson(hostile);
    ASSERT_TRUE(parsed.ok()) << hostile;
    EXPECT_FALSE(obs::QuantileSketch::FromJson(parsed.value()).ok())
        << hostile;
  }
}

TEST(SketchStatistics, PsiAndKsSeparateShiftedDistributions) {
  std::mt19937 rng(31);
  std::normal_distribution<double> base_dist(0.0, 1.0);
  obs::QuantileSketch baseline(0.01);
  obs::QuantileSketch same(0.01);
  obs::QuantileSketch shifted(0.01);
  std::normal_distribution<double> shifted_dist(2.5, 1.0);
  for (int i = 0; i < 20000; ++i) baseline.Insert(base_dist(rng));
  for (int i = 0; i < 5000; ++i) same.Insert(base_dist(rng));
  for (int i = 0; i < 5000; ++i) shifted.Insert(shifted_dist(rng));

  EXPECT_LT(obs::PopulationStabilityIndex(baseline, same), 0.1);
  EXPECT_GT(obs::PopulationStabilityIndex(baseline, shifted), 0.25);
  EXPECT_LT(obs::KolmogorovSmirnovDistance(baseline, same), 0.1);
  EXPECT_GT(obs::KolmogorovSmirnovDistance(baseline, shifted), 0.5);

  obs::QuantileSketch empty(0.01);
  EXPECT_EQ(obs::PopulationStabilityIndex(baseline, empty), 0.0);
  EXPECT_EQ(obs::KolmogorovSmirnovDistance(empty, baseline), 0.0);
}

TEST(Fingerprint, DegreeHistogramAndDistance) {
  std::vector<double> uniform = obs::DegreeHistogram({1, 2, 4, 8, 16});
  ASSERT_EQ(uniform.size(), static_cast<size_t>(obs::kDegreeBuckets));
  double total = 0.0;
  for (double mass : uniform) total += mass;
  EXPECT_NEAR(total, 1.0, 1e-12);

  EXPECT_DOUBLE_EQ(obs::HistogramDistance(uniform, uniform), 0.0);
  std::vector<double> point = obs::DegreeHistogram({0, 0, 0});
  const double distance = obs::HistogramDistance(uniform, point);
  EXPECT_GT(distance, 0.5);
  EXPECT_LE(distance, 1.0);
}

TEST(Fingerprint, BuildAndJsonRoundTrip) {
  std::vector<float> scores = {-1.5f, -0.2f, 0.0f, 0.4f, 2.5f};
  // Column 1 carries a NaN that must be skipped from the moments.
  std::vector<float> attributes = {
      1.0f, 2.0f,  //
      2.0f, std::numeric_limits<float>::quiet_NaN(),  //
      3.0f, 6.0f,  //
      4.0f, 8.0f,  //
      5.0f, 4.0f,  //
  };
  obs::ModelFingerprint fingerprint = obs::BuildFingerprint(
      scores, attributes.data(), 5, 2, {1, 2, 2, 3, 8});
  EXPECT_EQ(fingerprint.num_nodes, 5);
  EXPECT_EQ(fingerprint.scores.Count(), 5);
  ASSERT_EQ(fingerprint.attr_mean.size(), 2u);
  EXPECT_NEAR(fingerprint.attr_mean[0], 3.0, 1e-6);
  EXPECT_NEAR(fingerprint.attr_mean[1], 5.0, 1e-6);  // NaN row skipped.

  Result<obs::ModelFingerprint> restored =
      obs::ModelFingerprint::FromJson(fingerprint.ToJson());
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored.value().ToJson().Dump(), fingerprint.ToJson().Dump());

  Result<obs::JsonValue> hostile = obs::ParseJson("{\"version\":99}");
  ASSERT_TRUE(hostile.ok());
  EXPECT_FALSE(obs::ModelFingerprint::FromJson(hostile.value()).ok());
}

obs::ModelFingerprint NormalFingerprint(int count, unsigned seed) {
  std::mt19937 rng(seed);
  std::normal_distribution<double> dist(0.0, 1.0);
  obs::ModelFingerprint fingerprint;
  for (int i = 0; i < count; ++i) fingerprint.scores.Insert(dist(rng));
  fingerprint.degree_hist = obs::DegreeHistogram({1, 2, 2, 4, 4, 4, 8});
  fingerprint.num_nodes = count;
  return fingerprint;
}

TEST(DriftMonitor, BaselineMissingUntilSet) {
  obs::DriftMonitor monitor;
  monitor.RecordScore(1.0);
  obs::DriftReport report = monitor.Evaluate();
  EXPECT_FALSE(report.baseline_present);
  EXPECT_EQ(report.score_psi, 0.0);
  EXPECT_EQ(monitor.ReportJson().at("status").string_value(),
            "baseline_missing");

  monitor.SetBaseline(NormalFingerprint(1000, 3));
  EXPECT_TRUE(monitor.has_baseline());
  EXPECT_EQ(monitor.ReportJson().at("status").string_value(), "ok");
}

TEST(DriftMonitor, DetectsScoreShiftAndRecovers) {
  obs::DriftConfig config;
  config.window_buckets = 3;
  config.min_window_count = 64;
  obs::DriftMonitor monitor(config);
  monitor.SetBaseline(NormalFingerprint(5000, 17));

  // In-distribution traffic: PSI below the conventional 0.1 "stable" line.
  std::mt19937 rng(19);
  std::normal_distribution<double> base_dist(0.0, 1.0);
  for (int i = 0; i < 2000; ++i) monitor.RecordScore(base_dist(rng));
  obs::DriftReport stable = monitor.Evaluate();
  EXPECT_TRUE(stable.baseline_present);
  EXPECT_EQ(stable.window_count, 2000);
  EXPECT_LT(stable.score_psi, 0.1);
  EXPECT_LT(stable.score_ks, 0.1);

  // Shifted traffic dominates the window after rotations retire the
  // in-distribution buckets.
  std::normal_distribution<double> shifted(3.0, 1.0);
  for (int r = 0; r < 3; ++r) {
    monitor.Rotate();
    for (int i = 0; i < 1000; ++i) monitor.RecordScore(shifted(rng));
  }
  obs::DriftReport drifted = monitor.Evaluate();
  EXPECT_GT(drifted.score_psi, 0.25);
  EXPECT_GT(drifted.score_ks, 0.5);

  // Recovery: in-distribution traffic flushes the shifted buckets out.
  for (int r = 0; r < 3; ++r) {
    monitor.Rotate();
    for (int i = 0; i < 1000; ++i) monitor.RecordScore(base_dist(rng));
  }
  obs::DriftReport recovered = monitor.Evaluate();
  EXPECT_LT(recovered.score_psi, 0.1);
}

TEST(DriftMonitor, SmallWindowReportsZeroAndTimedRotation) {
  obs::DriftConfig config;
  config.min_window_count = 100;
  config.rotate_seconds = 10.0;
  obs::DriftMonitor monitor(config);
  monitor.SetBaseline(NormalFingerprint(1000, 23));
  for (int i = 0; i < 10; ++i) monitor.RecordScore(50.0);
  // 10 wildly-shifted scores are below min_window_count: report 0, not
  // a noise-driven alarm.
  EXPECT_EQ(monitor.Evaluate().score_psi, 0.0);

  EXPECT_FALSE(monitor.MaybeRotate(100.0));  // First call arms the clock.
  EXPECT_FALSE(monitor.MaybeRotate(105.0));  // Not due yet.
  EXPECT_TRUE(monitor.MaybeRotate(111.0));
  EXPECT_FALSE(monitor.MaybeRotate(112.0));
}

TEST(DriftMonitor, StructuralDrift) {
  obs::DriftMonitor monitor;
  obs::ModelFingerprint fingerprint = NormalFingerprint(100, 29);
  monitor.SetBaseline(fingerprint);

  monitor.SetLiveDegreeHistogram(fingerprint.degree_hist);
  EXPECT_NEAR(monitor.Evaluate().degree_distance, 0.0, 1e-12);
  monitor.SetLiveDegreeHistogram(obs::DegreeHistogram({0, 0, 0, 0}));
  EXPECT_GT(monitor.Evaluate().degree_distance, 0.3);

  // Event mix: lifetime counts accumulate, the window mix is the delta
  // since the last rotation. A window of pure attribute updates against
  // an edge-heavy lifetime is a large total-variation distance.
  monitor.RecordEventCounts({1000, 0, 0, 0});
  monitor.Rotate();
  monitor.RecordEventCounts({1000, 0, 0, 900});
  const double mix = monitor.Evaluate().event_mix_distance;
  EXPECT_GT(mix, 0.4);
  EXPECT_LE(mix, 1.0);
}

TEST(AlertRules, ParserAcceptsValidAndRejectsHostileConfigs) {
  Result<std::vector<obs::AlertRule>> rules = obs::ParseAlertRules(
      "{\"rules\":[{\"name\":\"psi\",\"metric\":\"drift.score.psi\","
      "\"op\":\">\",\"threshold\":0.25,\"for_seconds\":5},"
      "{\"name\":\"ks.low\",\"metric\":\"drift.score.ks\",\"op\":\"<=\","
      "\"threshold\":0.9}]}");
  ASSERT_TRUE(rules.ok()) << rules.status().ToString();
  ASSERT_EQ(rules.value().size(), 2u);
  EXPECT_EQ(rules.value()[0].name, "psi");
  EXPECT_EQ(rules.value()[0].for_seconds, 5.0);
  EXPECT_TRUE(rules.value()[0].Breached(0.3));
  EXPECT_FALSE(rules.value()[0].Breached(0.25));

  const char* hostile[] = {
      "not json at all",
      "{\"rules\":42}",
      "{\"rules\":[{\"metric\":\"m\",\"op\":\">\",\"threshold\":1}]}",
      "{\"rules\":[{\"name\":\"\",\"metric\":\"m\",\"op\":\">\","
      "\"threshold\":1}]}",
      "{\"rules\":[{\"name\":\"a b\",\"metric\":\"m\",\"op\":\">\","
      "\"threshold\":1}]}",
      "{\"rules\":[{\"name\":\"a\",\"metric\":\"\",\"op\":\">\","
      "\"threshold\":1}]}",
      "{\"rules\":[{\"name\":\"a\",\"metric\":\"m\",\"op\":\"!=\","
      "\"threshold\":1}]}",
      "{\"rules\":[{\"name\":\"a\",\"metric\":\"m\",\"op\":\">\","
      "\"threshold\":\"high\"}]}",
      "{\"rules\":[{\"name\":\"a\",\"metric\":\"m\",\"op\":\">\","
      "\"threshold\":1,\"for_seconds\":-2}]}",
      "{\"rules\":[{\"name\":\"a\",\"metric\":\"m\",\"op\":\">\","
      "\"threshold\":1},{\"name\":\"a\",\"metric\":\"m\",\"op\":\">\","
      "\"threshold\":2}]}",
  };
  for (const char* config : hostile) {
    Result<std::vector<obs::AlertRule>> parsed =
        obs::ParseAlertRules(config);
    EXPECT_FALSE(parsed.ok()) << config;
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument)
        << config;
  }
}

TEST(AlertEngine, ImmediateRuleFiresAndResolves) {
  Result<std::vector<obs::AlertRule>> rules = obs::ParseAlertRules(
      "{\"rules\":[{\"name\":\"psi\",\"metric\":\"psi\",\"op\":\">\","
      "\"threshold\":0.25}]}");
  ASSERT_TRUE(rules.ok());
  obs::AlertEngine engine(std::move(rules).value());

  double psi = 0.1;
  auto value_of = [&psi](const std::string&) { return psi; };
  EXPECT_TRUE(engine.Evaluate(value_of, 0.0).empty());

  psi = 0.5;  // for_seconds=0: breach fires on the same evaluation.
  std::vector<obs::AlertTransition> transitions =
      engine.Evaluate(value_of, 1.0);
  ASSERT_EQ(transitions.size(), 1u);
  EXPECT_EQ(transitions[0].type, "firing");
  EXPECT_EQ(transitions[0].rule, "psi");
  EXPECT_DOUBLE_EQ(transitions[0].value, 0.5);
  EXPECT_TRUE(engine.Evaluate(value_of, 2.0).empty());  // Still firing.

  psi = 0.2;
  transitions = engine.Evaluate(value_of, 3.0);
  ASSERT_EQ(transitions.size(), 1u);
  EXPECT_EQ(transitions[0].type, "resolved");
}

TEST(AlertEngine, ForDurationRequiresSustainedBreach) {
  Result<std::vector<obs::AlertRule>> rules = obs::ParseAlertRules(
      "{\"rules\":[{\"name\":\"slow\",\"metric\":\"m\",\"op\":\">=\","
      "\"threshold\":10,\"for_seconds\":5}]}");
  ASSERT_TRUE(rules.ok());
  obs::AlertEngine engine(std::move(rules).value());

  double value = 20.0;
  auto value_of = [&value](const std::string&) { return value; };
  EXPECT_TRUE(engine.Evaluate(value_of, 0.0).empty());  // Pending.
  EXPECT_TRUE(engine.Evaluate(value_of, 3.0).empty());  // Still pending.

  value = 5.0;  // Un-breach resets the pending clock without a transition.
  EXPECT_TRUE(engine.Evaluate(value_of, 4.0).empty());
  value = 20.0;
  EXPECT_TRUE(engine.Evaluate(value_of, 6.0).empty());
  std::vector<obs::AlertTransition> transitions =
      engine.Evaluate(value_of, 11.5);  // 5.5s of sustained breach.
  ASSERT_EQ(transitions.size(), 1u);
  EXPECT_EQ(transitions[0].type, "firing");
}

TEST(AlertEngine, UnavailableMetricResolvesFiringRule) {
  Result<std::vector<obs::AlertRule>> rules = obs::ParseAlertRules(
      "{\"rules\":[{\"name\":\"r\",\"metric\":\"gone\",\"op\":\">\","
      "\"threshold\":1}]}");
  ASSERT_TRUE(rules.ok());
  obs::AlertEngine engine(std::move(rules).value());
  double value = 5.0;
  auto value_of = [&value](const std::string&) { return value; };
  ASSERT_EQ(engine.Evaluate(value_of, 0.0).size(), 1u);

  value = std::numeric_limits<double>::quiet_NaN();
  std::vector<obs::AlertTransition> transitions =
      engine.Evaluate(value_of, 1.0);
  ASSERT_EQ(transitions.size(), 1u);
  EXPECT_EQ(transitions[0].type, "resolved");
  const obs::JsonValue state = engine.StateJson();
  EXPECT_FALSE(state.at("rules")
                   .array()[0]
                   .at("metric_available")
                   .boolean());
}

TEST(AlertEngine, ConcurrentEvaluateAndRender) {
  // TSan target: the monitor loop evaluates while /debug/alerts renders.
  Result<std::vector<obs::AlertRule>> rules = obs::ParseAlertRules(
      "{\"rules\":[{\"name\":\"r\",\"metric\":\"m\",\"op\":\">\","
      "\"threshold\":0.5}]}");
  ASSERT_TRUE(rules.ok());
  obs::AlertEngine engine(std::move(rules).value());
  std::thread evaluator([&engine] {
    for (int i = 0; i < 500; ++i) {
      engine.Evaluate([i](const std::string&) { return i % 2 ? 1.0 : 0.0; },
                      static_cast<double>(i));
    }
  });
  std::thread renderer([&engine] {
    for (int i = 0; i < 200; ++i) {
      (void)engine.StateJson();
      engine.PublishMetrics();
    }
  });
  evaluator.join();
  renderer.join();
}

TEST(RegistryReadValue, FindsGaugesAndCountersWithoutCreating) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  registry.GetGauge("drift_test.gauge")->Set(2.5);
  registry.GetCounter("drift_test.counter")->Add(7);
  ASSERT_TRUE(registry.ReadValue("drift_test.gauge").ok());
  EXPECT_DOUBLE_EQ(registry.ReadValue("drift_test.gauge").value(), 2.5);
  EXPECT_DOUBLE_EQ(registry.ReadValue("drift_test.counter").value(), 7.0);
  EXPECT_EQ(registry.ReadValue("drift_test.no_such").status().code(),
            StatusCode::kNotFound);
}

TEST(Webhook, UrlValidationIsLoopbackOnly) {
  int port = 0;
  std::string path;
  ASSERT_TRUE(
      serve::ParseWebhookUrl("http://127.0.0.1:9009/hook", &port, &path)
          .ok());
  EXPECT_EQ(port, 9009);
  EXPECT_EQ(path, "/hook");
  ASSERT_TRUE(serve::ParseWebhookUrl("http://localhost:80", &port, &path)
                  .ok());
  EXPECT_EQ(path, "/");

  for (const char* bad : {
           "https://127.0.0.1/hook",       // scheme
           "http://example.com/hook",      // SSRF: non-loopback host
           "http://127.0.0.2:80/",         // not the loopback literal
           "http://127.0.0.1:0/",          // port range
           "http://127.0.0.1:99999/",      // port range
           "http://127.0.0.1:banana/",     // port syntax
           "127.0.0.1:8080/hook",          // missing scheme
       }) {
    EXPECT_FALSE(serve::ParseWebhookUrl(bad, &port, &path).ok()) << bad;
  }
}

}  // namespace
}  // namespace vgod
