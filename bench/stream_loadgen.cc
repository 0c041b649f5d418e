// stream_loadgen — load benchmark for the streaming graph subsystem.
//
// Phases:
//
//  1. Mixed traffic: trains a VBM on the standard cora UNOD case, enables
//     streaming on a ScoringEngine, then runs concurrent ingest clients
//     (edge toggles + attribute updates + occasional node appends, each
//     client mutating a disjoint node range so batches never conflict)
//     against concurrent /score-path clients. Reports ingest throughput,
//     the observed touched-nodes-per-event mean (the O(deg) cost
//     certificate), compactions absorbed, and score latency under
//     mutation pressure.
//
//  2. O(deg) scaling probe: drives DeltaGraphStore + OnlineScorer
//     directly (identity embedding) on synthetic planted-partition graphs
//     of n and 4n nodes at EQUAL average degree and times the pure
//     per-event incremental update. If updates cost O(deg) — not O(n) —
//     the per-event microseconds stay flat as the graph quadruples;
//     the reported ratio is the acceptance signal. The same two graphs
//     then go through a whole ScoringEngine (Deg detector, streaming on)
//     as 16-event Ingest batches: the median batch time at 4n / n is the
//     engine-level ratio, which also sees any O(V) work Ingest does
//     beyond the store and scorer (a per-batch snapshot would show ~4).
//
//  3. (--drift) Model-drift probe (docs/OBSERVABILITY.md): fingerprints
//     the trained model, fills a DriftMonitor window from served scores
//     (stable PSI must stay ~0), then replays an attribute-shifted event
//     mix through /ingest and rescoring (shifted PSI must cross the
//     0.25 alert threshold). Reports the per-score sketch-record cost
//     and the per-evaluation PSI/KS cost — the monitoring overhead the
//     serving path pays.
//
//   stream_loadgen [--ingest-threads=2] [--score-threads=4]
//                  [--batches=30] [--batch-size=32] [--requests=200]
//                  [--scale-nodes=2000] [--scale-events=4000]
//                  [--drift] [--drift-batches=8]
//                  [--json=PATH]
//
// Honors the usual bench env knobs (VGOD_BENCH_SCALE / _SEED /
// _EPOCH_SCALE); tools/check_ingest.py and check_bench.py consume the
// manifest written under VGOD_BENCH_MANIFEST.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "core/args.h"
#include "core/rng.h"
#include "datasets/synthetic.h"
#include "detectors/simple.h"
#include "obs/drift.h"
#include "obs/fingerprint.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "serve/engine.h"
#include "stream/delta_graph.h"
#include "stream/events.h"
#include "stream/online_scorer.h"

namespace vgod::bench {
namespace {

struct MixedResult {
  int64_t events = 0;
  int64_t batches = 0;
  double ingest_wall_s = 0.0;
  double events_per_sec = 0.0;
  double touched_per_event = 0.0;
  int64_t compactions = 0;
  int64_t final_nodes = 0;
  int64_t score_requests = 0;
  double score_p50_ms = 0.0;
  double score_p99_ms = 0.0;
};

/// One ingest client: owns nodes [lo, hi) of the boot graph and toggles
/// edges only inside that range (plus range-local attribute updates and
/// the occasional node append), so concurrent clients can never race a
/// batch into invalidity — each sees its own edges' true state.
void IngestClient(serve::ScoringEngine* engine, const AttributedGraph& boot,
                  int lo, int hi, int batches, int batch_size, uint64_t seed,
                  int64_t* events_out, int64_t* touched_out) {
  Rng rng(seed);
  std::map<std::pair<int, int>, bool> edge_state;
  const int dim = boot.attribute_dim();
  const int span = hi - lo;
  for (int b = 0; b < batches; ++b) {
    stream::EventBatch batch;
    batch.events.reserve(batch_size);
    for (int e = 0; e < batch_size; ++e) {
      const double kind = rng.Uniform();
      if (kind < 0.65 && span >= 2) {
        int u = lo + static_cast<int>(rng.Next() % span);
        int v = lo + static_cast<int>(rng.Next() % span);
        if (u == v) v = lo + (v - lo + 1) % span;
        const std::pair<int, int> key = {std::min(u, v), std::max(u, v)};
        auto it = edge_state.find(key);
        const bool present =
            it != edge_state.end() ? it->second : boot.HasEdge(u, v);
        batch.events.push_back(present ? stream::GraphEvent::RemoveEdge(u, v)
                                       : stream::GraphEvent::AddEdge(u, v));
        edge_state[key] = !present;
      } else if (kind < 0.95) {
        const int node = lo + static_cast<int>(rng.Next() % span);
        std::vector<float> row(dim);
        for (float& x : row) x = static_cast<float>(rng.Uniform(-1.0, 1.0));
        batch.events.push_back(
            stream::GraphEvent::UpdateAttributes(node, row));
      } else {
        std::vector<float> row(dim);
        for (float& x : row) x = static_cast<float>(rng.Uniform(-1.0, 1.0));
        batch.events.push_back(stream::GraphEvent::AddNode(row));
      }
    }
    Result<serve::IngestResult> applied = engine->Ingest(batch);
    VGOD_CHECK(applied.ok()) << applied.status().ToString();
    *events_out += applied.value().events_applied;
    *touched_out += applied.value().touched_nodes;
  }
}

MixedResult RunMixedPhase(const UnodCase& unod_case, int ingest_threads,
                          int score_threads, int batches, int batch_size,
                          int score_requests_per_client) {
  MixedResult out;

  detectors::DetectorOptions options = OptionsFor(unod_case, EnvSeed());
  Result<std::unique_ptr<detectors::OutlierDetector>> detector =
      detectors::MakeDetector("VBM", options);
  VGOD_CHECK(detector.ok()) << detector.status().ToString();
  std::printf("training VBM on %s (%d nodes)...\n", unod_case.name.c_str(),
              unod_case.graph.num_nodes());
  Status fitted = detector.value()->Fit(unod_case.graph);
  VGOD_CHECK(fitted.ok()) << fitted.ToString();

  serve::ScoringEngine engine(std::move(detector.value()), unod_case.graph);
  serve::StreamingOptions stream_options;
  stream_options.compact_every = std::max(64, batch_size * batches / 4);
  VGOD_CHECK(engine.EnableStreaming(stream_options).ok());
  VGOD_CHECK(engine.Start().ok());
  obs::MetricsRegistry::Global().ResetAll();

  const int num_nodes = unod_case.graph.num_nodes();
  const int chunk = num_nodes / ingest_threads;
  std::vector<int64_t> events(ingest_threads, 0);
  std::vector<int64_t> touched(ingest_threads, 0);
  std::vector<std::vector<double>> score_ms(score_threads);
  std::atomic<bool> ingest_done{false};
  std::atomic<int> ingest_remaining{ingest_threads};
  std::atomic<double> ingest_wall_s{0.0};

  const auto wall_start = std::chrono::steady_clock::now();
  std::vector<std::thread> pool;
  pool.reserve(ingest_threads + score_threads);
  for (int t = 0; t < ingest_threads; ++t) {
    pool.emplace_back([&, t]() {
      const int lo = t * chunk;
      const int hi = t == ingest_threads - 1 ? num_nodes : lo + chunk;
      IngestClient(&engine, engine.graph(), lo, hi, batches, batch_size,
                   EnvSeed() * 977 + t, &events[t], &touched[t]);
      const double elapsed =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        wall_start)
              .count();
      double prior = ingest_wall_s.load();
      while (prior < elapsed &&
             !ingest_wall_s.compare_exchange_weak(prior, elapsed)) {
      }
      if (ingest_remaining.fetch_sub(1) == 1) ingest_done.store(true);
    });
  }
  for (int c = 0; c < score_threads; ++c) {
    pool.emplace_back([&, c]() {
      std::vector<double>& mine = score_ms[c];
      int r = 0;
      // Closed loop until both the per-client budget is spent and the
      // ingest side has finished — score traffic covers the whole
      // mutation window.
      while (r < score_requests_per_client || !ingest_done.load()) {
        std::vector<int> nodes = {(c * 131 + r * 17) % num_nodes,
                                  (c * 131 + r * 17 + 7) % num_nodes};
        const auto t0 = std::chrono::steady_clock::now();
        Result<serve::ScoreResult> result = engine.ScoreNodes(std::move(nodes));
        const auto t1 = std::chrono::steady_clock::now();
        VGOD_CHECK(result.ok()) << result.status().ToString();
        mine.push_back(
            std::chrono::duration<double, std::milli>(t1 - t0).count());
        ++r;
      }
    });
  }
  for (std::thread& t : pool) t.join();

  for (int64_t e : events) out.events += e;
  int64_t touched_total = 0;
  for (int64_t t : touched) touched_total += t;
  out.batches = static_cast<int64_t>(ingest_threads) * batches;
  out.ingest_wall_s = ingest_wall_s.load();
  out.events_per_sec = out.ingest_wall_s > 0.0
                           ? static_cast<double>(out.events) / out.ingest_wall_s
                           : 0.0;
  out.touched_per_event =
      out.events > 0
          ? static_cast<double>(touched_total) / static_cast<double>(out.events)
          : 0.0;

  std::vector<double> merged;
  for (const std::vector<double>& per_client : score_ms) {
    merged.insert(merged.end(), per_client.begin(), per_client.end());
  }
  out.score_requests = static_cast<int64_t>(merged.size());
  out.score_p50_ms = PercentileMs(&merged, 0.50);
  out.score_p99_ms = PercentileMs(&merged, 0.99);
  out.final_nodes = engine.resident_nodes();

  Result<std::vector<serve::WatchlistEntry>> watchlist = engine.Watchlist(5);
  VGOD_CHECK(watchlist.ok()) << watchlist.status().ToString();
  out.compactions = static_cast<int64_t>(
      obs::MetricsRegistry::Global().GetGauge("stream.compactions")->Value());

  engine.Shutdown();
  return out;
}

struct ScalePoint {
  int num_nodes = 0;
  int64_t events = 0;
  double per_event_us = 0.0;
  double touched_per_event = 0.0;
};

/// Applies `num_events` edge toggles to a fresh store+scorer over
/// `graph`, timing only the incremental update (validate excluded).
ScalePoint RunScalePoint(const AttributedGraph& graph, int num_events,
                         uint64_t seed) {
  ScalePoint out;
  out.num_nodes = graph.num_nodes();

  stream::DeltaGraphStore store(graph);
  stream::OnlineScorerConfig config;  // Identity embedding, no self term.
  Result<stream::OnlineScorer> scorer = stream::OnlineScorer::Create(
      &store, config);
  VGOD_CHECK(scorer.ok()) << scorer.status().ToString();

  Rng rng(seed);
  const int n = graph.num_nodes();
  int64_t touched_total = 0;
  std::chrono::nanoseconds spent{0};
  for (int e = 0; e < num_events; ++e) {
    int u = static_cast<int>(rng.Next() % n);
    int v = static_cast<int>(rng.Next() % n);
    if (u == v) v = (v + 1) % n;
    const stream::GraphEvent event =
        store.HasEdge(u, v) ? stream::GraphEvent::RemoveEdge(u, v)
                            : stream::GraphEvent::AddEdge(u, v);
    VGOD_CHECK(store.ValidateBatch({event}).ok());
    const auto t0 = std::chrono::steady_clock::now();
    store.ApplyOne(event);
    Result<int> touched = scorer.value().ApplyOne(event);
    spent += std::chrono::steady_clock::now() - t0;
    VGOD_CHECK(touched.ok()) << touched.status().ToString();
    touched_total += touched.value();
  }
  out.events = num_events;
  out.per_event_us = num_events > 0
                         ? std::chrono::duration<double, std::micro>(spent)
                                   .count() /
                               static_cast<double>(num_events)
                         : 0.0;
  out.touched_per_event =
      num_events > 0
          ? static_cast<double>(touched_total) / static_cast<double>(num_events)
          : 0.0;
  return out;
}

/// Median microseconds of one ScoringEngine::Ingest call over
/// `num_batches` batches of 16 edge toggles on `graph`. The detector is
/// training-free: Ingest never calls Score(), so only the engine's
/// per-batch work is timed.
double EngineBatchMedianUs(const AttributedGraph& graph, int num_batches,
                           uint64_t seed) {
  constexpr int kBatchEvents = 16;
  serve::ScoringEngine engine(std::make_unique<detectors::Deg>(), graph);
  VGOD_CHECK(engine.EnableStreaming(serve::StreamingOptions()).ok());
  VGOD_CHECK(engine.Start().ok());

  Rng rng(seed);
  const int n = graph.num_nodes();
  std::map<std::pair<int, int>, bool> edge_state;
  std::vector<double> batch_us;
  batch_us.reserve(static_cast<size_t>(num_batches));
  for (int b = 0; b < num_batches; ++b) {
    stream::EventBatch batch;
    for (int e = 0; e < kBatchEvents; ++e) {
      int u = static_cast<int>(rng.Next() % n);
      int v = static_cast<int>(rng.Next() % n);
      if (u == v) v = (v + 1) % n;
      const std::pair<int, int> key = {std::min(u, v), std::max(u, v)};
      auto it = edge_state.find(key);
      const bool present =
          it != edge_state.end() ? it->second : graph.HasEdge(u, v);
      batch.events.push_back(present ? stream::GraphEvent::RemoveEdge(u, v)
                                     : stream::GraphEvent::AddEdge(u, v));
      edge_state[key] = !present;
    }
    const auto t0 = std::chrono::steady_clock::now();
    Result<serve::IngestResult> applied = engine.Ingest(batch);
    batch_us.push_back(std::chrono::duration<double, std::micro>(
                           std::chrono::steady_clock::now() - t0)
                           .count());
    VGOD_CHECK(applied.ok()) << applied.status().ToString();
  }
  engine.Shutdown();
  return PercentileMs(&batch_us, 0.50);
}

struct DriftResult {
  int64_t scores_recorded = 0;
  double record_ns_per_score = 0.0;
  int64_t evaluations = 0;
  double evaluate_ms = 0.0;
  double stable_psi = 0.0;
  double shifted_psi = 0.0;
  double shifted_ks = 0.0;
};

/// The model-drift probe: fingerprint the trained model, fill the
/// monitor window with served scores (baseline agreement), replay an
/// attribute-shifted event mix through the streaming engine, rescore,
/// and measure both the detection signal (PSI before/after) and the
/// monitoring overhead (sketch-record ns, evaluation ms).
DriftResult RunDriftPhase(const UnodCase& unod_case, int batches) {
  DriftResult out;

  detectors::DetectorOptions options = OptionsFor(unod_case, EnvSeed());
  Result<std::unique_ptr<detectors::OutlierDetector>> detector =
      detectors::MakeDetector("VBM", options);
  VGOD_CHECK(detector.ok()) << detector.status().ToString();
  Status fitted = detector.value()->Fit(unod_case.graph);
  VGOD_CHECK(fitted.ok()) << fitted.ToString();

  // The bundle-export fingerprint, built the same way vgod_cli does it.
  const detectors::DetectorOutput trained =
      detector.value()->Score(unod_case.graph);
  std::vector<float> training_scores(trained.score.begin(),
                                     trained.score.end());
  std::vector<int64_t> degrees;
  degrees.reserve(static_cast<size_t>(unod_case.graph.num_nodes()));
  for (int node = 0; node < unod_case.graph.num_nodes(); ++node) {
    degrees.push_back(unod_case.graph.Degree(node));
  }
  obs::ModelFingerprint fingerprint = obs::BuildFingerprint(
      training_scores,
      unod_case.graph.has_attributes() ? unod_case.graph.attributes().data()
                                       : nullptr,
      unod_case.graph.num_nodes(),
      unod_case.graph.has_attributes() ? unod_case.graph.attribute_dim() : 0,
      degrees);

  serve::ScoringEngine engine(std::move(detector.value()), unod_case.graph);
  VGOD_CHECK(engine.EnableStreaming(serve::StreamingOptions()).ok());
  VGOD_CHECK(engine.Start().ok());

  obs::DriftConfig drift_config;
  drift_config.window_buckets = 2;
  drift_config.min_window_count = 16;
  obs::DriftMonitor monitor(drift_config);
  monitor.SetBaseline(std::move(fingerprint));

  const int num_nodes = unod_case.graph.num_nodes();
  const int dim = unod_case.graph.attribute_dim();
  std::chrono::nanoseconds record_spent{0};

  const auto score_and_record = [&]() {
    for (int start = 0; start < num_nodes; start += 64) {
      std::vector<int> nodes;
      nodes.reserve(64);
      for (int i = start; i < std::min(start + 64, num_nodes); ++i) {
        nodes.push_back(i);
      }
      Result<serve::ScoreResult> result = engine.ScoreNodes(std::move(nodes));
      VGOD_CHECK(result.ok()) << result.status().ToString();
      const auto t0 = std::chrono::steady_clock::now();
      for (double s : result.value().score) monitor.RecordScore(s);
      record_spent += std::chrono::steady_clock::now() - t0;
      out.scores_recorded +=
          static_cast<int64_t>(result.value().score.size());
    }
  };

  // Stable window: served scores reproduce the training fingerprint.
  score_and_record();
  out.stable_psi = monitor.Evaluate().score_psi;

  // Attribute-shifted event mix: every event rewrites a node's row with
  // an extreme random sign pattern. Per-node random directions scatter
  // the learned embeddings, inflating neighbor variance everywhere
  // (identical constant rows would collapse it instead).
  Rng rng(EnvSeed() + 41);
  const int batch_size = std::max(1, num_nodes / std::max(1, batches));
  for (int b = 0; b < batches; ++b) {
    stream::EventBatch batch;
    batch.events.reserve(static_cast<size_t>(batch_size));
    for (int e = 0; e < batch_size; ++e) {
      const int node = static_cast<int>(rng.Next() % num_nodes);
      std::vector<float> row(dim);
      for (float& x : row) x = rng.Uniform() < 0.5 ? -20.0f : 20.0f;
      batch.events.push_back(stream::GraphEvent::UpdateAttributes(node, row));
    }
    Result<serve::IngestResult> applied = engine.Ingest(batch);
    VGOD_CHECK(applied.ok()) << applied.status().ToString();
  }

  // Retire the stable window (2 buckets), then refill from the shifted
  // graph and time the evaluation path.
  monitor.Rotate();
  monitor.Rotate();
  score_and_record();
  out.record_ns_per_score =
      out.scores_recorded > 0
          ? std::chrono::duration<double, std::nano>(record_spent).count() /
                static_cast<double>(out.scores_recorded)
          : 0.0;

  constexpr int kEvaluations = 20;
  std::chrono::nanoseconds evaluate_spent{0};
  obs::DriftReport report;
  for (int i = 0; i < kEvaluations; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    report = monitor.Evaluate();
    evaluate_spent += std::chrono::steady_clock::now() - t0;
  }
  out.evaluations = kEvaluations;
  out.evaluate_ms =
      std::chrono::duration<double, std::milli>(evaluate_spent).count() /
      kEvaluations;
  out.shifted_psi = report.score_psi;
  out.shifted_ks = report.score_ks;

  engine.Shutdown();
  return out;
}

std::string ResultsJson(const UnodCase& unod_case, const MixedResult& mixed,
                        const ScalePoint& small, const ScalePoint& large,
                        double ratio, double engine_ratio,
                        const DriftResult* drift) {
  std::string out = "{\"benchmark\":\"stream_loadgen\",\"dataset\":";
  obs::AppendJsonString(&out, unod_case.name);
  out.append(",\"mixed\":{\"events\":");
  obs::AppendJsonNumber(&out, static_cast<double>(mixed.events));
  out.append(",\"batches\":");
  obs::AppendJsonNumber(&out, static_cast<double>(mixed.batches));
  out.append(",\"events_per_sec\":");
  obs::AppendJsonNumber(&out, mixed.events_per_sec);
  out.append(",\"touched_per_event\":");
  obs::AppendJsonNumber(&out, mixed.touched_per_event);
  out.append(",\"compactions\":");
  obs::AppendJsonNumber(&out, static_cast<double>(mixed.compactions));
  out.append(",\"final_nodes\":");
  obs::AppendJsonNumber(&out, static_cast<double>(mixed.final_nodes));
  out.append(",\"score_requests\":");
  obs::AppendJsonNumber(&out, static_cast<double>(mixed.score_requests));
  out.append(",\"score_p50_ms\":");
  obs::AppendJsonNumber(&out, mixed.score_p50_ms);
  out.append(",\"score_p99_ms\":");
  obs::AppendJsonNumber(&out, mixed.score_p99_ms);
  out.append("},\"scaling\":{\"points\":[");
  for (const ScalePoint* p : {&small, &large}) {
    if (p == &large) out.push_back(',');
    out.append("{\"nodes\":");
    obs::AppendJsonNumber(&out, p->num_nodes);
    out.append(",\"events\":");
    obs::AppendJsonNumber(&out, static_cast<double>(p->events));
    out.append(",\"per_event_us\":");
    obs::AppendJsonNumber(&out, p->per_event_us);
    out.append(",\"touched_per_event\":");
    obs::AppendJsonNumber(&out, p->touched_per_event);
    out.append("}");
  }
  out.append("],\"per_event_us_ratio\":");
  obs::AppendJsonNumber(&out, ratio);
  out.append(",\"engine_batch_us_ratio\":");
  obs::AppendJsonNumber(&out, engine_ratio);
  out.append("}");
  if (drift != nullptr) {
    out.append(",\"drift\":{\"scores_recorded\":");
    obs::AppendJsonNumber(&out, static_cast<double>(drift->scores_recorded));
    out.append(",\"record_ns_per_score\":");
    obs::AppendJsonNumber(&out, drift->record_ns_per_score);
    out.append(",\"evaluate_ms\":");
    obs::AppendJsonNumber(&out, drift->evaluate_ms);
    out.append(",\"stable_psi\":");
    obs::AppendJsonNumber(&out, drift->stable_psi);
    out.append(",\"shifted_psi\":");
    obs::AppendJsonNumber(&out, drift->shifted_psi);
    out.append(",\"shifted_ks\":");
    obs::AppendJsonNumber(&out, drift->shifted_ks);
    out.append("}");
  }
  out.append("}");
  return out;
}

int Main(int argc, char** argv) {
  Result<ArgParser> args = ArgParser::Parse(argc, argv);
  if (!args.ok()) {
    std::fprintf(stderr, "error: %s\n", args.status().ToString().c_str());
    return 2;
  }
  Status valid = args.value().Validate({"ingest-threads", "score-threads",
                                        "batches", "batch-size", "requests",
                                        "scale-nodes", "scale-events",
                                        "drift", "drift-batches", "json"});
  if (!valid.ok()) {
    std::fprintf(stderr, "error: %s\n", valid.ToString().c_str());
    return 2;
  }
  const int ingest_threads = std::max<int>(
      1, static_cast<int>(args.value().GetInt("ingest-threads", 2)));
  const int score_threads = std::max<int>(
      1, static_cast<int>(args.value().GetInt("score-threads", 4)));
  const int batches =
      std::max<int>(1, static_cast<int>(args.value().GetInt("batches", 30)));
  const int batch_size = std::max<int>(
      1, static_cast<int>(args.value().GetInt("batch-size", 32)));
  const int score_requests = std::max<int>(
      1, static_cast<int>(args.value().GetInt("requests", 200)));
  const int scale_nodes = std::max<int>(
      200, static_cast<int>(args.value().GetInt("scale-nodes", 2000)));
  const int scale_events = std::max<int>(
      100, static_cast<int>(args.value().GetInt("scale-events", 4000)));
  const bool drift_phase = args.value().GetBool("drift");
  const int drift_batches = std::max<int>(
      1, static_cast<int>(args.value().GetInt("drift-batches", 8)));
  const std::string json_path = args.value().GetString("json", "");

  PrintBanner("stream_loadgen",
              "streaming subsystem load benchmark: ingest throughput under "
              "concurrent scoring + O(deg) per-event scaling probe");

  UnodCase unod_case = MakeUnodCase("cora", EnvSeed());
  MixedResult mixed =
      RunMixedPhase(unod_case, ingest_threads, score_threads, batches,
                    batch_size, score_requests);
  std::printf(
      "\nmixed phase: %lld events in %lld batches (%d ingest x %d score "
      "clients)\n",
      static_cast<long long>(mixed.events),
      static_cast<long long>(mixed.batches), ingest_threads, score_threads);
  std::printf("  ingest            %12.1f events/s\n", mixed.events_per_sec);
  std::printf("  touched/event     %12.2f nodes\n", mixed.touched_per_event);
  std::printf("  compactions       %12lld\n",
              static_cast<long long>(mixed.compactions));
  std::printf("  resident nodes    %12lld\n",
              static_cast<long long>(mixed.final_nodes));
  std::printf("  score p50 / p99   %9.3f / %.3f ms over %lld requests\n",
              mixed.score_p50_ms, mixed.score_p99_ms,
              static_cast<long long>(mixed.score_requests));
  RecordManifestResult(unod_case.name, "VBM", "mixed.ingest_events_per_sec",
                       mixed.events_per_sec);
  RecordManifestResult(unod_case.name, "VBM", "mixed.touched_per_event",
                       mixed.touched_per_event);
  RecordManifestResult(unod_case.name, "VBM", "mixed.score_p99_ms",
                       mixed.score_p99_ms);
  RecordManifestResult(unod_case.name, "VBM", "mixed.compactions",
                       static_cast<double>(mixed.compactions));

  // Scaling probe: same expected degree, 4x the nodes. O(deg) updates
  // keep per-event cost flat; an O(n) dependence would show ~4x.
  datasets::SyntheticGraphSpec spec;
  spec.num_nodes = scale_nodes;
  spec.avg_degree = 8.0;
  spec.attribute_dim = 16;
  Rng small_rng(EnvSeed() + 1);
  const AttributedGraph small_graph =
      datasets::GeneratePlantedPartition(spec, &small_rng);
  spec.num_nodes = scale_nodes * 4;
  Rng large_rng(EnvSeed() + 2);
  const AttributedGraph large_graph =
      datasets::GeneratePlantedPartition(spec, &large_rng);

  const ScalePoint small =
      RunScalePoint(small_graph, scale_events, EnvSeed() + 3);
  const ScalePoint large =
      RunScalePoint(large_graph, scale_events, EnvSeed() + 4);
  const double ratio =
      small.per_event_us > 0.0 ? large.per_event_us / small.per_event_us : 0.0;
  std::printf("\nscaling probe (%d edge toggles, avg degree %.0f):\n",
              scale_events, spec.avg_degree);
  std::printf("  %8d nodes  %8.2f us/event  %6.2f touched/event\n",
              small.num_nodes, small.per_event_us, small.touched_per_event);
  std::printf("  %8d nodes  %8.2f us/event  %6.2f touched/event\n",
              large.num_nodes, large.per_event_us, large.touched_per_event);
  std::printf("  per-event cost ratio (4x nodes): %.2fx  (O(deg) => ~1, "
              "O(n) => ~4)\n",
              ratio);
  RecordManifestResult("synthetic", "stream", "scale.per_event_us_small",
                       small.per_event_us);
  RecordManifestResult("synthetic", "stream", "scale.per_event_us_large",
                       large.per_event_us);
  RecordManifestResult("synthetic", "stream", "scale.per_event_us_ratio",
                       ratio);
  RecordManifestResult("synthetic", "stream", "scale.touched_per_event",
                       large.touched_per_event);

  // The same 1x/4x graphs through the whole engine, 16-event batches.
  const int engine_batches = std::max(16, scale_events / 16);
  const double engine_small_us =
      EngineBatchMedianUs(small_graph, engine_batches, EnvSeed() + 5);
  const double engine_large_us =
      EngineBatchMedianUs(large_graph, engine_batches, EnvSeed() + 6);
  const double engine_ratio =
      engine_small_us > 0.0 ? engine_large_us / engine_small_us : 0.0;
  std::printf("  engine Ingest, %d batches of 16 toggles (median):\n",
              engine_batches);
  std::printf("  %8d nodes  %8.2f us/batch\n", small.num_nodes,
              engine_small_us);
  std::printf("  %8d nodes  %8.2f us/batch\n", large.num_nodes,
              engine_large_us);
  std::printf("  per-batch engine cost ratio (4x nodes): %.2fx  (O(batch) "
              "=> ~1, O(V) => ~4)\n",
              engine_ratio);
  RecordManifestResult("synthetic", "stream", "scale.engine_batch_us_small",
                       engine_small_us);
  RecordManifestResult("synthetic", "stream", "scale.engine_batch_us_large",
                       engine_large_us);
  RecordManifestResult("synthetic", "stream", "scale.engine_batch_us_ratio",
                       engine_ratio);

  DriftResult drift;
  if (drift_phase) {
    drift = RunDriftPhase(unod_case, drift_batches);
    std::printf("\ndrift probe (%d shift batches over %lld served "
                "scores):\n",
                drift_batches,
                static_cast<long long>(drift.scores_recorded));
    std::printf("  record cost       %12.1f ns/score\n",
                drift.record_ns_per_score);
    std::printf("  evaluate cost     %12.4f ms (PSI+KS+structural)\n",
                drift.evaluate_ms);
    std::printf("  PSI stable/shift  %9.4f / %.4f   (alert threshold "
                "0.25)\n",
                drift.stable_psi, drift.shifted_psi);
    std::printf("  KS  shifted       %12.4f\n", drift.shifted_ks);
    RecordManifestResult(unod_case.name, "VBM", "drift.record_ns_per_score",
                         drift.record_ns_per_score);
    RecordManifestResult(unod_case.name, "VBM", "drift.evaluate_ms",
                         drift.evaluate_ms);
    RecordManifestResult(unod_case.name, "VBM", "drift.stable_psi",
                         drift.stable_psi);
    RecordManifestResult(unod_case.name, "VBM", "drift.shifted_psi",
                         drift.shifted_psi);
  }

  if (!json_path.empty()) {
    std::ofstream file(json_path);
    if (!file) {
      std::fprintf(stderr, "error: cannot write %s\n", json_path.c_str());
      return 1;
    }
    file << ResultsJson(unod_case, mixed, small, large, ratio, engine_ratio,
                        drift_phase ? &drift : nullptr)
         << "\n";
    std::printf("wrote %s\n", json_path.c_str());
  }
  return 0;
}

}  // namespace
}  // namespace vgod::bench

int main(int argc, char** argv) { return vgod::bench::Main(argc, argv); }
