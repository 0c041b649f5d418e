// perfbench_probe: the compiled half of the repository benchmark. run.py
// drives it; every subcommand prints one JSON object on stdout.
//
//   load     open-loop /score load against a running server (loadgen.h)
//   detect   VGOD Fit + Score over graph files at a fixed kernel-pool width
//   stream   the in-process streaming engine: Ingest batches back to back
//            with interleaved ScoreNodes reads, then an exact replay check
//   layers   per-layer timings: calls into each module's public functions,
//            timed from here (nothing is added to the library)
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/args.h"
#include "core/parallel.h"
#include "core/rng.h"
#include "datasets/io.h"
#include "detectors/bundle.h"
#include "detectors/registry.h"
#include "detectors/vgod.h"
#include "eval/metrics.h"
#include "graph/graph_ops.h"
#include "loadgen.h"
#include "obs/drift.h"
#include "obs/json.h"
#include "obs/profile.h"
#include "serve/server.h"
#include "stream/delta_graph.h"
#include "stream/events.h"
#include "stream/online_scorer.h"
#include "tensor/kernels.h"

namespace perfbench {
namespace {

using vgod::ArgParser;
using vgod::AttributedGraph;
using vgod::Tensor;
using Clock = std::chrono::steady_clock;

/// How long past its step a load request may still be sent and count.
constexpr double kGraceSeconds = 1.0;
/// ScoreNodes reads per second beside the stream workload's ingest.
constexpr double kReadRps = 10.0;

double Since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

int Fail(const std::string& message) {
  std::fprintf(stderr, "perfbench_probe: %s\n", message.c_str());
  return 1;
}

std::vector<std::string> Split(const std::string& text, char sep) {
  std::vector<std::string> parts;
  size_t start = 0;
  while (start <= text.size()) {
    const size_t end = text.find(sep, start);
    const std::string part =
        text.substr(start, end == std::string::npos ? end : end - start);
    if (!part.empty()) parts.push_back(part);
    if (end == std::string::npos) break;
    start = end + 1;
  }
  return parts;
}

double Median(std::vector<double> values) {
  return Quantile(&values, 0.5);
}

/// FNV-1a over the score bytes: equal hashes mean bit-identical vectors.
uint64_t HashScores(const std::vector<double>& scores) {
  uint64_t h = 1469598103934665603ULL;
  const auto* bytes = reinterpret_cast<const unsigned char*>(scores.data());
  for (size_t i = 0; i < scores.size() * sizeof(double); ++i) {
    h = (h ^ bytes[i]) * 1099511628211ULL;
  }
  return h;
}

/// Peak resident set of this process (VmHWM), in KiB.
int64_t PeakRssKb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::atoll(line.c_str() + 6);
  }
  return 0;
}

/// Flat JSON object writer: {"key":value,...}.
class JsonOut {
 public:
  JsonOut& Num(const std::string& key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return Raw(key, buf);
  }
  JsonOut& Raw(const std::string& key, const std::string& json) {
    text_ += (text_.empty() ? "{\"" : ",\"") + key + "\":" + json;
    return *this;
  }
  std::string Done() const { return (text_.empty() ? "{" : text_) + "}"; }

 private:
  std::string text_;
};

std::string NumArray(const std::vector<double>& values) {
  std::string out = "[";
  char buf[40];
  for (size_t i = 0; i < values.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%.17g", values[i]);
    out += (i ? "," : "") + std::string(buf);
  }
  return out + "]";
}

vgod::Result<std::vector<AttributedGraph>> LoadGraphs(
    const std::vector<std::string>& paths) {
  std::vector<AttributedGraph> graphs;
  for (const std::string& path : paths) {
    auto graph = vgod::datasets::LoadGraph(path);
    if (!graph.ok()) return graph.status();
    graphs.push_back(std::move(graph).value());
  }
  return graphs;
}

vgod::detectors::DetectorOptions OptionsFrom(const ArgParser& args) {
  vgod::detectors::DetectorOptions options;
  options.seed = static_cast<uint64_t>(args.GetInt("seed", 1));
  options.epoch_scale = args.GetDouble("epoch-scale", 1.0);
  return options;
}

vgod::Result<std::unique_ptr<vgod::detectors::OutlierDetector>> FromBundle(
    const std::string& path) {
  auto bundle = vgod::detectors::LoadBundle(path);
  if (!bundle.ok()) return bundle.status();
  return vgod::detectors::MakeDetectorFromBundle(bundle.value());
}

vgod::Result<vgod::stream::EventBatch> ParseBatch(const std::string& body) {
  auto json = vgod::obs::ParseJson(body);
  if (!json.ok()) return json.status();
  return vgod::stream::ParseEventBatch(json.value(), 1 << 20);
}

vgod::Result<std::vector<int>> ParseNodes(const std::string& body) {
  auto json = vgod::obs::ParseJson(body);
  if (!json.ok()) return json.status();
  std::vector<int> nodes;
  for (const auto& v : json.value().at("nodes").array()) {
    nodes.push_back(static_cast<int>(v.number()));
  }
  return nodes;
}

/// Applies one /ingest body to `store` the way the engine does: all-or-
/// nothing validation, every event, then a compaction once the overlay
/// holds the engine's default compact_every events (or the batch asks).
vgod::Status ReplayBatch(vgod::stream::DeltaGraphStore* store,
                         const std::string& body) {
  auto batch = ParseBatch(body);
  if (!batch.ok()) return batch.status();
  vgod::Status valid = store->ValidateBatch(batch.value().events);
  if (!valid.ok()) return valid;
  for (const auto& event : batch.value().events) store->ApplyOne(event);
  if (batch.value().compact ||
      store->delta_ops() >= vgod::serve::StreamingOptions{}.compact_every) {
    store->Compact();
  }
  return vgod::Status::Ok();
}

/// Body i of a head-then-cycle body list (the order loadgen sends them).
const std::string& BodyAt(const std::vector<std::string>& bodies,
                          int64_t head, int64_t i) {
  if (i < head) return bodies[static_cast<size_t>(i)];
  const auto cycle = std::max<int64_t>(
      static_cast<int64_t>(bodies.size()) - head, 1);
  return bodies[static_cast<size_t>(
      std::min<int64_t>(head, static_cast<int64_t>(bodies.size()) - 1) +
      (i - head) % cycle)];
}

/// Of the time inside each top-level profiler scope, the share covered by
/// named child scopes.
double AttributedShare(const vgod::obs::ProfileNode& root) {
  double inclusive = 0, attributed = 0;
  for (const auto& top : root.children) {
    inclusive += static_cast<double>(top.inclusive_ns);
    attributed += static_cast<double>(top.inclusive_ns - top.exclusive_ns);
  }
  return inclusive > 0 ? attributed / inclusive : 0.0;
}

// --- load -----------------------------------------------------------------

/// /score bodies from --bodies at --rate per second for --seconds, over
/// one connection per CPU this process may run on; the summary on stdout,
/// each request to --dump.
int Load(const ArgParser& args) {
  const double seconds = args.GetDouble("seconds", 1.0);
  StreamSpec spec;
  spec.port = static_cast<int>(args.GetInt("port", 0));
  spec.bodies = ReadLines(args.GetString("bodies", ""));
  spec.rate = args.GetDouble("rate", 0.0);
  cpu_set_t cpus;
  spec.conns = sched_getaffinity(0, sizeof(cpus), &cpus) == 0
                   ? std::max(CPU_COUNT(&cpus), 1)
                   : 1;
  if (spec.bodies.empty() || spec.rate <= 0) {
    return Fail("load needs --bodies and --rate > 0");
  }
  const StreamResult result = RunOpenLoop(spec, seconds, kGraceSeconds);
  DumpRecords(result, args.GetString("dump", ""));
  std::printf("%s\n",
              SummarizeJson(result, seconds, seconds + kGraceSeconds).c_str());
  return 0;
}

// --- detect ---------------------------------------------------------------

int Detect(const ArgParser& args) {
  constexpr int kRescores = 5;
  const auto paths = Split(args.GetString("graphs", ""), ',');
  auto graphs = LoadGraphs(paths);
  if (!graphs.ok() || paths.empty()) return Fail("cannot load --graphs");
  const double seconds = args.GetDouble("seconds", 0.0);
  const std::string profile = args.GetString("profile", "");
  const std::string bundle_path = args.GetString("save-bundle", "");
  vgod::par::SetNumThreads(static_cast<int>(args.GetInt("width", 1)));
  if (!profile.empty()) {
    vgod::obs::ClearProfile();
    vgod::obs::SetProfileEnabled(true);
  }

  std::string passes = "[";
  int64_t failed = 0;
  std::vector<uint64_t> hashes(graphs.value().size());
  std::vector<double> aucs(graphs.value().size());
  std::unique_ptr<vgod::detectors::OutlierDetector> first;
  const Clock::time_point start = Clock::now();
  // Passes repeat until `seconds` have elapsed (at least one).
  for (int pass = 0; pass == 0 || Since(start) < seconds; ++pass) {
    std::vector<double> fit_s, score_s, rescore_s;
    for (size_t g = 0; g < graphs.value().size(); ++g) {
      const AttributedGraph& graph = graphs.value()[g];
      auto detector = vgod::detectors::MakeDetector("VGOD", OptionsFrom(args));
      if (!detector.ok()) return Fail(detector.status().ToString());
      const Clock::time_point t0 = Clock::now();
      vgod::Status fitted = detector.value()->Fit(graph);
      const double fit = Since(t0);
      if (!fitted.ok()) {
        // A failed fit is data: counted, and its graph's hash and AUC stay
        // 0 so the correctness checks fail too. Its Score times read 0 so
        // every pass lists every graph.
        std::fprintf(stderr, "perfbench_probe: fit failed: %s\n",
                     fitted.ToString().c_str());
        ++failed;
        hashes[g] = 0;
        aucs[g] = 0.0;
        fit_s.push_back(fit);
        score_s.push_back(0.0);
        rescore_s.insert(rescore_s.end(), kRescores, 0.0);
        continue;
      }
      const Clock::time_point t1 = Clock::now();
      const vgod::detectors::DetectorOutput out =
          detector.value()->Score(graph);
      score_s.push_back(Since(t1));
      fit_s.push_back(fit);
      // Repeated Score calls of the fitted model: the offline read path.
      for (int r = 0; r < kRescores; ++r) {
        const Clock::time_point t2 = Clock::now();
        detector.value()->Score(graph);
        rescore_s.push_back(Since(t2));
      }
      hashes[g] = HashScores(out.score);
      aucs[g] = graph.has_outlier_labels()
                    ? vgod::eval::Auc(out.score, graph.outlier_labels())
                    : 0.0;
      if (g == 0) first = std::move(detector).value();
    }
    passes += std::string(pass ? "," : "") +
              JsonOut().Raw("fit_s", NumArray(fit_s))
                  .Raw("score_s", NumArray(score_s))
                  .Raw("rescore_s", NumArray(rescore_s))
                  .Done();
  }
  passes += "]";
  const int64_t peak_kb = PeakRssKb();

  JsonOut out;
  out.Raw("passes", passes)
      .Num("peak_rss_kb", static_cast<double>(peak_kb))
      .Num("failed", static_cast<double>(failed));
  std::string hash_list = "[", nodes = "[";
  for (size_t g = 0; g < hashes.size(); ++g) {
    hash_list += (g ? ",\"" : "\"") + std::to_string(hashes[g]) + "\"";
    nodes += (g ? "," : "") + std::to_string(graphs.value()[g].num_nodes());
  }
  out.Raw("hashes", hash_list + "]").Raw("nodes", nodes + "]");
  out.Raw("auc", NumArray(aucs));
  if (!profile.empty()) {
    vgod::obs::SetProfileEnabled(false);
    out.Num("profile_attributed_share",
            AttributedShare(vgod::obs::SnapshotProfile()));
    vgod::Status written = vgod::obs::WriteProfile(profile);
    if (!written.ok()) return Fail(written.ToString());
  }
  if (!bundle_path.empty()) {
    if (first == nullptr) return Fail("no fitted model to save");
    auto bundle = first->ExportBundle();
    if (!bundle.ok()) return Fail(bundle.status().ToString());
    vgod::Status saved = vgod::detectors::SaveBundle(bundle.value(),
                                                     bundle_path);
    if (!saved.ok()) return Fail(saved.ToString());
  }
  std::printf("%s\n", out.Done().c_str());
  return 0;
}

// --- stream ---------------------------------------------------------------

/// The in-process streaming engine at kernel-pool width 1: ingest batches
/// applied back to back through ScoringEngine::Ingest (closed loop, the
/// caller's thread) for `seconds` after the head batches (node appends, not
/// measured), beside a second thread calling ScoreNodes kReadRps times a
/// second, each read timed from its due time. A rejected batch or failed
/// read is counted and the run goes on. Then the accepted batches are
/// replayed into a fresh DeltaGraphStore and the engine's scores and store
/// shape must match it exactly.
int Stream(const ArgParser& args) {
  vgod::par::SetNumThreads(1);
  const auto bodies = ReadLines(args.GetString("ingest-bodies", ""));
  const auto reads = ReadLines(args.GetString("score-bodies", ""));
  const int64_t head = args.GetInt("ingest-head", 0);
  const double seconds = args.GetDouble("seconds", 1.0);
  if (bodies.empty() || reads.empty()) return Fail("no request bodies");
  std::vector<std::vector<int>> read_nodes;
  for (const std::string& body : reads) {
    auto nodes = ParseNodes(body);
    if (!nodes.ok()) return Fail(nodes.status().ToString());
    read_nodes.push_back(std::move(nodes).value());
  }

  const Clock::time_point setup = Clock::now();
  auto engine = vgod::serve::BuildEngine(args.GetString("bundle", ""),
                                         args.GetString("graph", ""), {});
  if (!engine.ok()) return Fail(engine.status().ToString());
  vgod::Status status = engine.value()->EnableStreaming({});
  if (status.ok()) status = engine.value()->Start();
  if (!status.ok()) return Fail(status.ToString());
  const double engine_setup_s = Since(setup);

  const std::string profile = args.GetString("profile", "");
  if (!profile.empty()) {
    vgod::obs::ClearProfile();
    vgod::obs::SetProfileEnabled(true);
  }
  // Reads: the second thread's ScoreNodes calls, each due 1/kReadRps after
  // the last, timed from its due time.
  std::vector<double> read_ms;
  int64_t read_failed = 0, violations = 0;
  double read_total_ms = 0, unattributed_ms = 0;
  std::atomic<bool> reading{true};
  auto read_loop = [&] {
    const Clock::time_point origin = Clock::now();
    for (size_t k = 0;; ++k) {
      const Clock::time_point due =
          origin + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(k / kReadRps));
      std::this_thread::sleep_until(due);
      if (!reading.load()) return;
      const Clock::time_point t = Clock::now();
      auto scored =
          engine.value()->ScoreNodes(read_nodes[k % read_nodes.size()]);
      const Clock::time_point end = Clock::now();
      if (!scored.ok()) {
        ++read_failed;
        continue;
      }
      const double call =
          std::chrono::duration<double, std::milli>(end - t).count();
      read_ms.push_back(
          std::chrono::duration<double, std::milli>(end - due).count());
      read_total_ms += call;
      // The engine's own stages must fit inside the call that returned them.
      const auto& timing = scored.value().timing;
      const double stages = (timing.queue_wait_seconds +
                             timing.batch_assembly_seconds +
                             timing.score_seconds) * 1e3;
      if (stages > call) ++violations;
      unattributed_ms += call - stages;
    }
  };

  std::vector<double> ingest_ms;
  std::vector<int64_t> accepted;
  int64_t failed = 0, events = 0;
  vgod::serve::IngestResult last;
  std::thread reader;
  Clock::time_point start = Clock::now();
  for (int64_t i = 0; i < head || Since(start) < seconds; ++i) {
    if (i == head) {
      start = Clock::now();
      reader = std::thread(read_loop);
    }
    auto batch = ParseBatch(BodyAt(bodies, head, i));
    if (!batch.ok()) {
      reading.store(false);
      if (reader.joinable()) reader.join();
      return Fail(batch.status().ToString());
    }
    const Clock::time_point t = Clock::now();
    auto applied = engine.value()->Ingest(batch.value());
    const double took = Since(t) * 1e3;
    if (!applied.ok()) {
      ++failed;
      continue;
    }
    accepted.push_back(i);
    last = applied.value();
    if (i < head) continue;
    ingest_ms.push_back(took);
    events += applied.value().events_applied;
  }
  reading.store(false);
  if (reader.joinable()) reader.join();
  failed += read_failed;
  double ingest_total_ms = 0;
  for (double v : ingest_ms) ingest_total_ms += v;
  const int64_t peak_kb = PeakRssKb();
  if (!profile.empty()) {
    vgod::obs::SetProfileEnabled(false);
    status = vgod::obs::WriteProfile(profile);
    if (!status.ok()) return Fail(status.ToString());
  }

  // Replay: the accepted batches into a fresh store, in order.
  auto graph = vgod::datasets::LoadGraph(args.GetString("graph", ""));
  if (!graph.ok()) return Fail(graph.status().ToString());
  vgod::stream::DeltaGraphStore store(std::move(graph).value());
  for (const int64_t b : accepted) {
    vgod::Status replayed = ReplayBatch(&store, BodyAt(bodies, head, b));
    if (!replayed.ok()) return Fail("replay: " + replayed.ToString());
  }
  const auto snapshot = store.Snapshot();
  const auto replayed = engine.value()->detector().Score(*snapshot);
  std::vector<int> sample;
  for (int node = 0; node < snapshot->num_nodes();
       node += std::max(snapshot->num_nodes() / 64, 1)) {
    sample.push_back(node);
  }
  sample.push_back(snapshot->num_nodes() - 1);
  auto served = engine.value()->ScoreNodes(sample);
  int64_t mismatches = served.ok() ? 0 : 1;
  for (size_t k = 0; served.ok() && k < sample.size(); ++k) {
    mismatches += served.value().score[k] !=
                  replayed.score[static_cast<size_t>(sample[k])];
  }
  const bool shape_ok = last.num_nodes == snapshot->num_nodes() &&
                        last.delta_ops == store.delta_ops() &&
                        last.overlay_edges == store.overlay_edges() &&
                        last.compactions == store.compactions();
  engine.value()->Shutdown();

  JsonOut out;
  out.Num("engine_setup_s", engine_setup_s)
      .Num("batches", static_cast<double>(ingest_ms.size()))
      .Num("events", static_cast<double>(events))
      .Num("reads", static_cast<double>(read_ms.size()))
      .Num("failed", static_cast<double>(failed))
      .Num("ingest_total_ms", ingest_total_ms)
      .Num("ingest_p50_ms", Quantile(&ingest_ms, 0.5))
      .Num("ingest_p90_ms", Quantile(&ingest_ms, 0.9))
      .Num("ingest_p99_ms", Quantile(&ingest_ms, 0.99))
      .Num("read_p50_ms", Quantile(&read_ms, 0.5))
      .Num("read_p90_ms", Quantile(&read_ms, 0.9))
      .Num("unattributed_share",
           read_total_ms > 0 ? unattributed_ms / read_total_ms : 0.0)
      .Num("decomposition_violations", static_cast<double>(violations))
      .Num("peak_rss_kb", static_cast<double>(peak_kb))
      .Num("num_nodes", snapshot->num_nodes())
      .Num("replay_mismatches", static_cast<double>(mismatches))
      .Num("replay_shape_ok", shape_ok ? 1.0 : 0.0);
  std::printf("%s\n", out.Done().c_str());
  return 0;
}

// --- layers ---------------------------------------------------------------

/// Median seconds per call of `fn`, repeated for at least `budget` seconds
/// (and at least 3 calls).
template <typename Fn>
double TimeCall(Fn&& fn, double budget) {
  std::vector<double> samples;
  const Clock::time_point start = Clock::now();
  while (samples.size() < 3 || Since(start) < budget) {
    const Clock::time_point t0 = Clock::now();
    fn();
    samples.push_back(Since(t0));
  }
  return Median(samples);
}

/// tensor / gnn / graph: the dense and sparse kernels on the shapes a VBM
/// Fit issues on each graph (n x d attributes, hidden width 128), timed at
/// pool width 1. FLOPs and bytes are computed from the shapes.
void KernelLayers(const std::vector<AttributedGraph>& graphs, JsonOut* out) {
  constexpr int kHidden = 128;
  vgod::par::SetNumThreads(1);
  vgod::Rng rng(7);
  double flops = 0, bytes = 0, t_mm = 0, t_nt = 0, t_tn = 0;
  double t_mean = 0, t_spmm = 0, spmm_flops = 0, spmm_bytes = 0;
  for (const AttributedGraph& graph : graphs) {
    const int n = graph.num_nodes(), d = graph.attribute_dim();
    const Tensor& x = graph.attributes();
    const Tensor w = Tensor::RandomNormal(d, kHidden, 0.f, 0.1f, &rng);
    const Tensor h = Tensor::RandomNormal(n, kHidden, 0.f, 1.f, &rng);
    t_mm += TimeCall([&] { vgod::kernels::MatMul(x, w); }, 0.1);
    t_nt += TimeCall([&] { vgod::kernels::MatMulNT(h, w); }, 0.1);
    t_tn += TimeCall([&] { vgod::kernels::MatMulTN(x, h); }, 0.1);
    flops += 2.0 * n * d * kHidden;
    bytes += 4.0 * (static_cast<double>(n) * d + d * kHidden + n * kHidden);
    t_mean += TimeCall([&] { vgod::graph_ops::NeighborMean(graph, h); }, 0.1);
    t_spmm += TimeCall([&] { vgod::graph_ops::Spmm(graph, {}, h); }, 0.1);
    const double edges = static_cast<double>(graph.num_directed_edges());
    spmm_flops += 2.0 * edges * kHidden;
    spmm_bytes += 4.0 * (edges * kHidden + 2.0 * n * kHidden) + 12.0 * edges;
  }
  const double calls = static_cast<double>(graphs.size());
  out->Num("tensor.matmul_gflops", flops / t_mm * 1e-9)
      .Num("tensor.matmul_nt_gflops", flops / t_nt * 1e-9)
      .Num("tensor.matmul_tn_gflops", flops / t_tn * 1e-9)
      .Num("tensor.matmul_flops_per_call", flops / calls)
      .Num("tensor.matmul_bytes_per_call", bytes / calls)
      .Num("gnn.meanconv_ms", t_mean * 1e3)
      .Num("graph.spmm_ms", t_spmm * 1e3)
      .Num("graph.spmm_flops_per_call", spmm_flops / calls)
      .Num("graph.spmm_bytes_per_call", spmm_bytes / calls);
}

/// detectors: the registered VBM and ARM fitted alone, pool width 1.
vgod::Status DetectorLayers(const std::vector<AttributedGraph>& graphs,
                            const ArgParser& args, JsonOut* out) {
  vgod::par::SetNumThreads(1);
  vgod::obs::ClearProfile();
  vgod::obs::SetProfileEnabled(true);
  double vbm = 0, arm = 0;
  for (const AttributedGraph& graph : graphs) {
    for (const char* name : {"VBM", "ARM"}) {
      auto detector = vgod::detectors::MakeDetector(name, OptionsFrom(args));
      if (!detector.ok()) return detector.status();
      const Clock::time_point t0 = Clock::now();
      vgod::Status fitted = detector.value()->Fit(graph);
      if (!fitted.ok()) return fitted;
      (name[0] == 'V' ? vbm : arm) += Since(t0);
    }
  }
  vgod::obs::SetProfileEnabled(false);
  out->Num("detectors.vbm_fit_s", vbm)
      .Num("detectors.arm_fit_s", arm)
      .Num("profile.attributed_share",
           AttributedShare(vgod::obs::SnapshotProfile()));
  return vgod::Status::Ok();
}

/// stream: replays the ingest batches through a DeltaGraphStore plus an
/// OnlineScorer built the way the engine builds it, timing each stage.
vgod::Status StreamLayers(const AttributedGraph& resident,
                          const vgod::detectors::OutlierDetector& detector,
                          const std::vector<std::string>& bodies,
                          int64_t head, int64_t batches, JsonOut* out) {
  const auto* vgod_detector =
      dynamic_cast<const vgod::detectors::Vgod*>(&detector);
  if (vgod_detector == nullptr) {
    return vgod::Status::InvalidArgument("stream layers need a VGOD bundle");
  }
  const vgod::detectors::Vbm* vbm = &vgod_detector->vbm();
  vgod::stream::OnlineScorerConfig config;
  config.include_self = vbm->config().self_loop;
  config.embed = [vbm](const Tensor& rows) { return vbm->EmbedRows(rows); };
  vgod::stream::DeltaGraphStore store(resident);
  auto scorer = vgod::stream::OnlineScorer::Create(&store, config);
  if (!scorer.ok()) return scorer.status();
  const int64_t compact_every = vgod::serve::StreamingOptions{}.compact_every;

  double validate = 0, apply = 0, score = 0;
  int64_t events = 0, touched = 0;
  std::vector<double> snapshot_ms, compact_ms;
  for (int64_t i = 0; i < batches; ++i) {
    auto batch = ParseBatch(BodyAt(bodies, head, i));
    if (!batch.ok()) return batch.status();
    Clock::time_point t = Clock::now();
    vgod::Status valid = store.ValidateBatch(batch.value().events);
    validate += Since(t);
    if (!valid.ok()) return valid;
    for (const auto& event : batch.value().events) {
      t = Clock::now();
      store.ApplyOne(event);
      apply += Since(t);
      t = Clock::now();
      auto n = scorer.value().ApplyOne(event);
      score += Since(t);
      if (!n.ok()) return n.status();
      touched += n.value();
      ++events;
    }
    if (store.delta_ops() >= compact_every) {
      t = Clock::now();
      store.Compact();
      compact_ms.push_back(Since(t) * 1e3);
    }
    t = Clock::now();
    store.Snapshot();
    snapshot_ms.push_back(Since(t) * 1e3);
  }
  const double per_event_us = 1e6 / static_cast<double>(events);
  out->Num("stream.validate_us_per_event", validate * per_event_us)
      .Num("stream.apply_us_per_event", apply * per_event_us)
      .Num("stream.scorer_us_per_event", score * per_event_us)
      .Num("stream.touched_per_event",
           static_cast<double>(touched) / static_cast<double>(events))
      .Num("stream.snapshot_ms", Median(snapshot_ms))
      .Num("stream.compact_ms", compact_ms.empty() ? 0.0 : Median(compact_ms))
      .Num("stream.compactions", static_cast<double>(store.compactions()));
  return vgod::Status::Ok();
}

/// serve/http: the same requests sent over HTTP and submitted to an
/// in-process engine built from the same bundle and graph, alternating per
/// request. Overhead = median round trip - median in-process time.
vgod::Status HttpLayers(const ArgParser& args,
                        const std::vector<std::string>& score_bodies,
                        const std::vector<std::string>& ingest_bodies,
                        int64_t head, JsonOut* out) {
  const std::string bundle = args.GetString("bundle", "");
  const std::string graph = args.GetString("graph", "");
  const int64_t n = args.GetInt("n", 200);
  vgod::par::SetNumThreads(vgod::par::DefaultNumThreads());

  auto engine = vgod::serve::BuildEngine(bundle, graph, {});
  if (!engine.ok()) return engine.status();
  vgod::Status started = engine.value()->Start();
  if (!started.ok()) return started;
  Connection score_conn(static_cast<int>(args.GetInt("score-port", 0)));
  std::vector<double> rtt, inproc;
  std::string response;
  for (int64_t i = 0; i < n; ++i) {
    const std::string& body =
        score_bodies[static_cast<size_t>(i) % score_bodies.size()];
    auto nodes = ParseNodes(body);
    if (!nodes.ok()) return nodes.status();
    Clock::time_point t = Clock::now();
    auto scored = engine.value()->ScoreNodes(nodes.value());
    inproc.push_back(Since(t) * 1e3);
    if (!scored.ok()) return scored.status();
    t = Clock::now();
    const int status = score_conn.Post("/score", body, &response);
    rtt.push_back(Since(t) * 1e3);
    if (status != 200) {
      return vgod::Status::Internal("/score probe got HTTP " +
                                    std::to_string(status));
    }
  }
  engine.value()->Shutdown();
  out->Num("http.score_overhead_p50_ms", Median(rtt) - Median(inproc));

  auto streaming = vgod::serve::BuildEngine(bundle, graph, {});
  if (!streaming.ok()) return streaming.status();
  vgod::Status enabled = streaming.value()->EnableStreaming({});
  if (!enabled.ok()) return enabled;
  started = streaming.value()->Start();
  if (!started.ok()) return started;
  Connection ingest_conn(static_cast<int>(args.GetInt("ingest-port", 0)));
  std::vector<double> ingest_rtt, ingest_inproc, apply_ms;
  for (int64_t i = 0; i < n; ++i) {
    const std::string& body = BodyAt(ingest_bodies, head, i);
    auto batch = ParseBatch(body);
    if (!batch.ok()) return batch.status();
    Clock::time_point t = Clock::now();
    auto applied = streaming.value()->Ingest(batch.value());
    ingest_inproc.push_back(Since(t) * 1e3);
    if (!applied.ok()) return applied.status();
    t = Clock::now();
    const int status = ingest_conn.Post("/ingest", body, &response);
    ingest_rtt.push_back(Since(t) * 1e3);
    if (status != 200) {
      return vgod::Status::Internal("/ingest probe got HTTP " +
                                    std::to_string(status));
    }
    const size_t at = response.find("\"apply_us\":");
    if (at != std::string::npos) {
      apply_ms.push_back(std::atof(response.c_str() + at + 11) * 1e-3);
    }
  }
  streaming.value()->Shutdown();
  out->Num("http.ingest_overhead_p50_ms",
           Median(ingest_rtt) - Median(ingest_inproc))
      .Num("engine.ingest_p50_ms", Quantile(&apply_ms, 0.5))
      .Num("engine.ingest_p99_ms", Quantile(&apply_ms, 0.99));
  return vgod::Status::Ok();
}

int Layers(const ArgParser& args) {
  JsonOut out;
  auto graphs = LoadGraphs(Split(args.GetString("graphs", ""), ','));
  if (!graphs.ok() || graphs.value().empty()) {
    return Fail("cannot load --graphs");
  }
  KernelLayers(graphs.value(), &out);
  vgod::Status status = DetectorLayers(graphs.value(), args, &out);
  if (!status.ok()) return Fail(status.ToString());

  auto resident = vgod::datasets::LoadGraph(args.GetString("graph", ""));
  if (!resident.ok()) return Fail(resident.status().ToString());
  auto detector = FromBundle(args.GetString("bundle", ""));
  if (!detector.ok()) return Fail(detector.status().ToString());
  vgod::par::SetNumThreads(vgod::par::DefaultNumThreads());
  vgod::detectors::DetectorOutput scores;
  const double score_s = TimeCall(
      [&] { scores = detector.value()->Score(resident.value()); }, 0.5);
  out.Num("detectors.score_ms", score_s * 1e3);

  // obs: the drift monitor's per-score cost, fed the served scores.
  vgod::obs::DriftMonitor drift;
  constexpr int kRecords = 200000;
  const Clock::time_point t0 = Clock::now();
  for (int i = 0; i < kRecords; ++i) {
    drift.RecordScore(scores.score[static_cast<size_t>(i) %
                                   scores.score.size()]);
  }
  out.Num("obs.drift_record_ns", Since(t0) / kRecords * 1e9);

  const auto ingest_bodies = ReadLines(args.GetString("ingest-bodies", ""));
  const auto score_bodies = ReadLines(args.GetString("score-bodies", ""));
  const int64_t head = args.GetInt("ingest-head", 0);
  if (ingest_bodies.empty() || score_bodies.empty()) {
    return Fail("--ingest-bodies and --score-bodies are required");
  }
  status = StreamLayers(resident.value(), *detector.value(), ingest_bodies,
                        head, args.GetInt("stream-batches", 640), &out);
  if (!status.ok()) return Fail(status.ToString());
  status = HttpLayers(args, score_bodies, ingest_bodies, head, &out);
  if (!status.ok()) return Fail(status.ToString());
  std::printf("%s\n", out.Done().c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: perfbench_probe <load|detect|stream|layers> "
                 "[--options]\n");
    return 2;
  }
  auto args = vgod::ArgParser::Parse(argc - 1, argv + 1);
  if (!args.ok()) return perfbench::Fail(args.status().ToString());
  const std::string command = argv[1];
  if (command == "load") return perfbench::Load(args.value());
  if (command == "detect") return perfbench::Detect(args.value());
  if (command == "layers") return perfbench::Layers(args.value());
  if (command == "stream") return perfbench::Stream(args.value());
  return perfbench::Fail("unknown command " + command);
}
