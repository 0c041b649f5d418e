#include "serve/engine.h"

#include <algorithm>

#include "core/faultinject.h"
#include "core/parallel.h"
#include "detectors/vbm.h"
#include "detectors/vgod.h"
#include "eval/metrics.h"
#include "obs/memory.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "serve/access_log.h"

namespace vgod::serve {
namespace {

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Publishes the engine atomics as serve.engine.* gauges. Gauge Set() is
/// a relaxed atomic store on a cached pointer, cheap enough to call on
/// every update so /metrics (both formats) always agrees with the
/// in-process EngineStats.
void PublishEngineStats(const EngineStats& stats) {
  static obs::Gauge* batches = obs::MetricsRegistry::Global().GetGauge(
      "serve.engine.batches_flushed");
  static obs::Gauge* served = obs::MetricsRegistry::Global().GetGauge(
      "serve.engine.requests_served");
  static obs::Gauge* shed =
      obs::MetricsRegistry::Global().GetGauge("serve.engine.shed");
  batches->Set(static_cast<double>(stats.batches_flushed));
  served->Set(static_cast<double>(stats.requests_served));
  shed->Set(static_cast<double>(stats.shed));
}

/// Publishes the number of scoring calls in flight (the load-shedding
/// cap's counter) as the serve.queue.depth gauge.
void PublishInFlight(int in_flight) {
  static obs::Gauge* depth =
      obs::MetricsRegistry::Global().GetGauge("serve.queue.depth");
  depth->Set(static_cast<double>(in_flight));
}

/// Records one request's engine-side stage breakdown into the
/// serve.stage.* histograms.
void ObserveStages(const StageTiming& timing) {
  VGOD_HISTOGRAM_OBSERVE("serve.stage.queue_wait.seconds",
                         timing.queue_wait_seconds);
  VGOD_HISTOGRAM_OBSERVE("serve.stage.score.seconds", timing.score_seconds);
}

/// Runs the detector and validates every emitted score vector before any
/// request sees it. Unsupervised detectors routinely diverge or emit
/// degenerate scores, so the serving layer treats the score vector as
/// untrusted: a non-finite value turns into a structured Internal error
/// (-> HTTP 500) instead of NaNs in response JSON or sort UB downstream.
/// The "serve.score" fault site lets tests force the degenerate case.
Result<detectors::DetectorOutput> GuardedScore(
    const detectors::OutlierDetector& detector, const AttributedGraph& graph,
    int64_t* tensor_peak_bytes) {
  obs::BeginThreadMemoryWindow();
  detectors::DetectorOutput out;
  {
    // The profiler region every /debug/profile attribution hangs off:
    // detector and kernel scopes nest under serve/score on this thread.
    VGOD_PROFILE_SCOPE("serve/score");
    out = detector.Score(graph);
  }
  *tensor_peak_bytes = obs::ThreadMemoryWindowPeak();
  if (faults::Enabled() && !out.score.empty()) {
    out.score[0] = faults::MaybeNan("serve.score", out.score[0]);
  }
  Status finite = eval::NonFiniteCheck(out.score, "detector score");
  if (finite.ok()) {
    finite = eval::NonFiniteCheck(out.structural_score, "structural score");
  }
  if (finite.ok()) {
    finite = eval::NonFiniteCheck(out.contextual_score, "contextual score");
  }
  if (!finite.ok()) {
    VGOD_COUNTER_INC("serve.errors.nonfinite_scores");
    return Status::Internal("detector '" + detector.name() +
                            "' produced an unusable score vector (" +
                            finite.message() + ")");
  }
  return out;
}

/// Derives the online scorer's embedding hook from the served detector.
/// VBM (directly or inside VGOD) contributes its fitted Eq. 6 transform
/// and self-loop setting; an unfitted VBM or any other detector falls
/// back to identity embedding over raw attributes — the score definition
/// (neighbor variance) is unchanged, only the feature space differs.
stream::OnlineScorerConfig ScorerConfigFor(
    const detectors::OutlierDetector& detector) {
  stream::OnlineScorerConfig config;
  const detectors::Vbm* vbm = dynamic_cast<const detectors::Vbm*>(&detector);
  if (vbm == nullptr) {
    if (const auto* vgod = dynamic_cast<const detectors::Vgod*>(&detector)) {
      vbm = &vgod->vbm();
    }
  }
  if (vbm != nullptr && vbm->expected_attribute_dim() > 0) {
    config.include_self = vbm->config().self_loop;
    // `vbm` points into the engine-owned detector, which outlives the
    // engine-owned scorer holding this closure.
    config.embed = [vbm](const Tensor& rows) { return vbm->EmbedRows(rows); };
  }
  return config;
}

/// Bumps stream.events.total plus the per-op counter for one applied
/// event. Separate literal call sites so each VGOD_COUNTER_INC caches
/// its registry pointer.
void CountStreamEvent(stream::EventType type) {
  VGOD_COUNTER_INC("stream.events.total");
  switch (type) {
    case stream::EventType::kAddEdge:
      VGOD_COUNTER_INC("stream.events.add_edge");
      break;
    case stream::EventType::kRemoveEdge:
      VGOD_COUNTER_INC("stream.events.remove_edge");
      break;
    case stream::EventType::kAddNode:
      VGOD_COUNTER_INC("stream.events.add_node");
      break;
    case stream::EventType::kUpdateAttributes:
      VGOD_COUNTER_INC("stream.events.update_attributes");
      break;
  }
}

/// Publishes the delta store's current shape as stream.* gauges.
void PublishStreamGauges(const IngestResult& result) {
  static obs::Gauge* nodes =
      obs::MetricsRegistry::Global().GetGauge("stream.nodes");
  static obs::Gauge* delta_ops =
      obs::MetricsRegistry::Global().GetGauge("stream.delta.ops");
  static obs::Gauge* overlay = obs::MetricsRegistry::Global().GetGauge(
      "stream.delta.overlay_edges");
  static obs::Gauge* compactions =
      obs::MetricsRegistry::Global().GetGauge("stream.compactions");
  nodes->Set(static_cast<double>(result.num_nodes));
  delta_ops->Set(static_cast<double>(result.delta_ops));
  overlay->Set(static_cast<double>(result.overlay_edges));
  compactions->Set(static_cast<double>(result.compactions));
}

}  // namespace

ScoringEngine::ScoringEngine(
    std::unique_ptr<detectors::OutlierDetector> detector,
    AttributedGraph graph, EngineConfig config)
    : detector_(std::move(detector)),
      boot_graph_(std::make_shared<const AttributedGraph>(std::move(graph))),
      config_(config) {
  resident_nodes_.store(boot_graph_->num_nodes(), std::memory_order_relaxed);
  VGOD_CHECK(detector_ != nullptr) << "ScoringEngine needs a detector";
  VGOD_CHECK(config_.intra_op_threads >= 0)
      << "intra_op_threads must be >= 0 (0 = leave the global pool alone)";
  VGOD_CHECK(config_.max_queue > 0) << "max_queue must be positive";
}

ScoringEngine::~ScoringEngine() { Shutdown(); }

Status ScoringEngine::Start() {
  if (stopping_.load()) {
    return Status::FailedPrecondition("engine was shut down");
  }
  if (started_.exchange(true)) {
    return Status::FailedPrecondition("engine already started");
  }
  // Size the kernel pool before the first Score() runs parallel kernels
  // on the global vgod::par pool.
  if (config_.intra_op_threads > 0) {
    par::SetNumThreads(config_.intra_op_threads);
  }
  return Status::Ok();
}

void ScoringEngine::Shutdown() {
  stopping_.store(true);
  // Enter() counts a call in flight before it checks stopping_, and both
  // sides are sequentially consistent, so every call either sees
  // stopping_ or is counted here.
  for (int in_flight = in_flight_.load(); in_flight != 0;
       in_flight = in_flight_.load()) {
    in_flight_.wait(in_flight);
  }
}

Status ScoringEngine::EnableStreaming(StreamingOptions options) {
  if (options.watchlist_k <= 0) {
    return Status::InvalidArgument("watchlist_k must be positive");
  }
  if (options.compact_every < 0) {
    return Status::InvalidArgument("compact_every must be >= 0");
  }
  if (options.max_events_per_batch <= 0) {
    return Status::InvalidArgument("max_events_per_batch must be positive");
  }
  if (started_.load() || stopping_.load()) {
    return Status::FailedPrecondition(
        "EnableStreaming must run before Start()");
  }
  std::lock_guard<std::mutex> stream_lock(stream_mu_);
  if (store_ != nullptr) {
    return Status::FailedPrecondition("streaming already enabled");
  }
  if (!boot_graph_->has_attributes()) {
    return Status::FailedPrecondition(
        "streaming requires an attributed resident graph");
  }
  stream_options_ = options;
  auto store = std::make_unique<stream::DeltaGraphStore>(*boot_graph_);
  Result<stream::OnlineScorer> scorer =
      stream::OnlineScorer::Create(store.get(), ScorerConfigFor(*detector_));
  if (!scorer.ok()) return scorer.status();
  store_ = std::move(store);
  scorer_.emplace(std::move(scorer).value());
  return Status::Ok();
}

Result<IngestResult> ScoringEngine::Ingest(const stream::EventBatch& batch,
                                           uint64_t request_id) {
  if (store_ == nullptr) {
    return Status::FailedPrecondition(
        "streaming is not enabled on this engine (serve with --streaming)");
  }
  if (!started_.load() || stopping_.load()) {
    return Status::FailedPrecondition("engine is not accepting work");
  }
  VGOD_PROFILE_SCOPE("stream/ingest");
  const auto start = std::chrono::steady_clock::now();
  IngestResult result;
  result.request_id = request_id != 0 ? request_id : NextRequestId();

  std::unique_lock<std::mutex> stream_lock(stream_mu_);
  Status valid = store_->ValidateBatch(batch.events);
  if (!valid.ok()) {
    VGOD_COUNTER_INC("stream.ingest.rejected");
    return valid;
  }
  // Interleave store and scorer per event (not store-then-replay): an
  // attribute update's O(deg) fan-out must see the adjacency as of its
  // position in the batch, not the post-batch adjacency.
  for (const stream::GraphEvent& event : batch.events) {
    store_->ApplyOne(event);
    Result<int> touched = scorer_->ApplyOne(event);
    if (!touched.ok()) {
      // Embedder failure mid-batch: the store is ahead of the scorer.
      // Resync before surfacing the error so the two cannot drift, and
      // publish the events already applied as a new version so no table
      // keyed by the old one scores the changed store.
      VGOD_COUNTER_INC("stream.ingest.rejected");
      PublishVersionLocked();
      Status rebuilt = scorer_->Rebuild();
      if (!rebuilt.ok()) return rebuilt;
      return touched.status();
    }
    result.touched_nodes += touched.value();
    VGOD_HISTOGRAM_OBSERVE("stream.touched_nodes.per_event",
                           static_cast<double>(touched.value()));
    CountStreamEvent(event.type);
  }
  result.events_applied = static_cast<int>(batch.events.size());

  const bool auto_compact =
      stream_options_.compact_every > 0 &&
      store_->delta_ops() >= stream_options_.compact_every;
  if (batch.compact || auto_compact) {
    const auto compact_start = std::chrono::steady_clock::now();
    compacting_.store(true, std::memory_order_release);
    store_->Compact();
    compacting_.store(false, std::memory_order_release);
    result.compacted = true;
    result.compact_seconds = SecondsSince(compact_start);
    VGOD_HISTOGRAM_OBSERVE("stream.compaction.seconds",
                           result.compact_seconds);
  }

  // Publish the post-batch version. No snapshot is built here: the next
  // node read sees the new version and builds the snapshot and its score
  // table once, however many batches landed since the last read.
  PublishVersionLocked();

  result.num_nodes = store_->num_nodes();
  result.delta_ops = store_->delta_ops();
  result.overlay_edges = store_->overlay_edges();
  result.compactions = store_->compactions();
  result.apply_seconds = SecondsSince(start);
  VGOD_COUNTER_INC("stream.ingest.batches");
  VGOD_HISTOGRAM_OBSERVE("stream.ingest.latency.seconds",
                         result.apply_seconds);
  PublishStreamGauges(result);

  // Watchlist change detection: membership/order of node ids, not
  // scores (scores move on every batch). The callback runs after
  // stream_mu_ is released so it can fan out to the SSE hub without
  // holding an engine lock.
  std::vector<WatchlistEntry> changed_watchlist;
  if (watchlist_callback_) {
    std::vector<WatchlistEntry> top;
    std::vector<int> top_nodes;
    for (const auto& [node, score] :
         scorer_->TopK(stream_options_.watchlist_k)) {
      top.push_back({node, score});
      top_nodes.push_back(node);
    }
    if (top_nodes != last_watchlist_nodes_) {
      last_watchlist_nodes_ = std::move(top_nodes);
      changed_watchlist = std::move(top);
      VGOD_COUNTER_INC("stream.watchlist.changes");
    }
  }
  stream_lock.unlock();
  if (!changed_watchlist.empty()) {
    watchlist_callback_(changed_watchlist);
  }
  return result;
}

Result<std::vector<WatchlistEntry>> ScoringEngine::Watchlist(int k) {
  if (store_ == nullptr) {
    return Status::FailedPrecondition(
        "streaming is not enabled on this engine (serve with --streaming)");
  }
  if (k <= 0) k = stream_options_.watchlist_k;
  std::lock_guard<std::mutex> stream_lock(stream_mu_);
  std::vector<WatchlistEntry> out;
  for (const auto& [node, score] : scorer_->TopK(k)) {
    out.push_back({node, score});
  }
  return out;
}

bool ScoringEngine::Ready(std::string* reason) const {
  if (stopping_.load()) {
    *reason = "engine is draining";
    return false;
  }
  if (!started_.load()) {
    *reason = "engine not started";
    return false;
  }
  if (compacting_.load(std::memory_order_acquire)) {
    *reason = "compaction snapshot swap in flight";
    return false;
  }
  return true;
}

void ScoringEngine::PublishVersionLocked() {
  {
    std::lock_guard<std::mutex> graph_lock(graph_mu_);
    ++graph_version_;
  }
  resident_nodes_.store(store_->num_nodes(), std::memory_order_release);
}

std::shared_ptr<const AttributedGraph> ScoringEngine::GraphLocked() const {
  return store_ != nullptr ? store_->Snapshot() : boot_graph_;
}

std::shared_ptr<const AttributedGraph> ScoringEngine::CurrentGraph() const {
  std::lock_guard<std::mutex> stream_lock(stream_mu_);
  return GraphLocked();
}

std::vector<int64_t> ScoringEngine::Degrees() const {
  std::lock_guard<std::mutex> stream_lock(stream_mu_);
  const bool streaming = store_ != nullptr;
  std::vector<int64_t> degrees(
      streaming ? store_->num_nodes() : boot_graph_->num_nodes());
  for (size_t node = 0; node < degrees.size(); ++node) {
    const int id = static_cast<int>(node);
    degrees[node] =
        streaming ? store_->Degree(id) : boot_graph_->Degree(id);
  }
  return degrees;
}

EngineStats ScoringEngine::stats() const {
  EngineStats stats;
  stats.batches_flushed = score_calls_.load(std::memory_order_relaxed);
  stats.requests_served = requests_served_.load(std::memory_order_relaxed);
  stats.shed = shed_count_.load(std::memory_order_relaxed);
  return stats;
}

Status ScoringEngine::Enter() {
  VGOD_COUNTER_INC("serve.requests.total");
  const int in_flight = in_flight_.fetch_add(1) + 1;
  Status rejected = Status::Ok();
  if (stopping_.load() || !started_.load()) {
    rejected = Status::FailedPrecondition("engine is not accepting work");
  } else if (in_flight > config_.max_queue) {
    rejected = Status::OutOfRange("scoring engine at capacity (" +
                                  std::to_string(config_.max_queue) +
                                  " calls in flight)");
    shed_count_.fetch_add(1, std::memory_order_relaxed);
    PublishEngineStats(stats());
  }
  if (!rejected.ok()) {
    VGOD_COUNTER_INC("serve.requests.rejected");
    if (in_flight_.fetch_sub(1) == 1) in_flight_.notify_all();
    return rejected;
  }
  PublishInFlight(in_flight);
  return Status::Ok();
}

Result<ScoreResult> ScoringEngine::Finish(
    std::chrono::steady_clock::time_point start, Result<ScoreResult> result) {
  VGOD_HISTOGRAM_OBSERVE("serve.request.latency.seconds", SecondsSince(start));
  VGOD_COUNTER_INC("serve.requests.completed");
  requests_served_.fetch_add(1, std::memory_order_relaxed);
  PublishEngineStats(stats());
  const int in_flight = in_flight_.fetch_sub(1) - 1;
  PublishInFlight(in_flight);
  if (in_flight == 0) in_flight_.notify_all();
  return result;
}

Status ScoringEngine::ValidateNodes(const std::vector<int>& nodes) const {
  // Under streaming the bound is the latest published version's node
  // count, which only ever grows — a node valid here stays valid for
  // whichever (same-or-newer) version's table answers the request.
  const int resident = resident_nodes();
  for (int node : nodes) {
    if (node < 0 || node >= resident) {
      VGOD_COUNTER_INC("serve.requests.total");
      VGOD_COUNTER_INC("serve.requests.rejected");
      return Status::OutOfRange(
          "node " + std::to_string(node) + " outside resident graph (0.." +
          std::to_string(resident - 1) + ")");
    }
  }
  return Status::Ok();
}

Status ScoringEngine::ValidateSubgraph(const AttributedGraph& graph) const {
  // The detector's weights are bound to the training attribute schema; a
  // mismatched subgraph would abort deep inside a kernel VGOD_CHECK, so
  // reject it here instead (inductive scoring requires the same schema).
  if (graph.attribute_dim() != boot_graph_->attribute_dim()) {
    VGOD_COUNTER_INC("serve.requests.total");
    VGOD_COUNTER_INC("serve.requests.rejected");
    return Status::InvalidArgument(
        "subgraph attribute dim " + std::to_string(graph.attribute_dim()) +
        " does not match the served model's " +
        std::to_string(boot_graph_->attribute_dim()));
  }
  return Status::Ok();
}

Result<detectors::DetectorOutput> ScoringEngine::TimedScore(
    const AttributedGraph& graph, std::chrono::steady_clock::time_point start,
    StageTiming* timing) {
  Result<detectors::DetectorOutput> out =
      GuardedScore(*detector_, graph, &timing->tensor_peak_bytes);
  timing->score_seconds = SecondsSince(start);
  VGOD_HISTOGRAM_OBSERVE("serve.score.latency.seconds",
                         timing->score_seconds);
  score_calls_.fetch_add(1, std::memory_order_relaxed);
  PublishEngineStats(stats());
  return out;
}

ScoringEngine::ScoreTable ScoringEngine::LatestTable(StageTiming* timing) {
  const auto start = std::chrono::steady_clock::now();
  ScoreTable table;
  {
    // A hit needs only graph_mu_: the latest version already has a table.
    std::lock_guard<std::mutex> lock(graph_mu_);
    if (table_.valid() && table_version_ == graph_version_) table = table_;
  }
  std::optional<std::promise<Result<detectors::DetectorOutput>>> build;
  std::shared_ptr<const AttributedGraph> graph;  // Set only for a builder.
  std::chrono::steady_clock::time_point build_start;
  uint64_t version = 0;
  if (!table.valid()) {
    // A miss claims the table under stream_mu_, which holds ingest off,
    // so the version claimed and the snapshot built are the same one.
    std::lock_guard<std::mutex> stream_lock(stream_mu_);
    {
      std::lock_guard<std::mutex> lock(graph_mu_);
      if (!table_.valid() || table_version_ != graph_version_) {
        build.emplace();
        table_ = build->get_future().share();
        table_version_ = graph_version_;
      }
      version = table_version_;
      table = table_;
    }
    if (build) {
      build_start = std::chrono::steady_clock::now();
      graph = GraphLocked();
    }
  }
  if (!build) {
    table.wait();
    timing->queue_wait_seconds = SecondsSince(start);
    return table;
  }
  Result<detectors::DetectorOutput> built =
      TimedScore(*graph, build_start, timing);
  graph.reset();
  if (!built.ok()) {
    // Failures are not cached: this build's waiters get the error, and
    // the next reader of the version tries again.
    std::lock_guard<std::mutex> lock(graph_mu_);
    if (table_version_ == version) table_ = ScoreTable();
  }
  build->set_value(std::move(built));
  return table;
}

Result<ScoreResult> ScoringEngine::ScoreNodes(std::vector<int> nodes,
                                              uint64_t request_id) {
  VGOD_RETURN_IF_ERROR(ValidateNodes(nodes));
  VGOD_RETURN_IF_ERROR(Enter());
  const auto start = std::chrono::steady_clock::now();
  VGOD_PROFILE_SCOPE("serve/nodes");
  ScoreResult result;
  result.timing.request_id = request_id != 0 ? request_id : NextRequestId();
  const ScoreTable table = LatestTable(&result.timing);
  ObserveStages(result.timing);
  const Result<detectors::DetectorOutput>& scored = table.get();
  if (!scored.ok()) return Finish(start, scored.status());
  const detectors::DetectorOutput& out = scored.value();
  // Belt-and-braces under streaming: ids were validated against a
  // version no newer than the one scored, so this cannot fire unless
  // that ordering invariant breaks — degrade to a 500, not UB.
  for (int node : nodes) {
    if (static_cast<size_t>(node) >= out.score.size()) {
      return Finish(start,
                    Status::Internal(
                        "scored snapshot is older than the validated node "
                        "ids"));
    }
  }
  result.score.reserve(nodes.size());
  for (int node : nodes) result.score.push_back(out.score[node]);
  if (out.has_components()) {
    result.structural.reserve(nodes.size());
    result.contextual.reserve(nodes.size());
    for (int node : nodes) {
      result.structural.push_back(out.structural_score[node]);
      result.contextual.push_back(out.contextual_score[node]);
    }
  }
  result.nodes = std::move(nodes);
  return Finish(start, std::move(result));
}

Result<ScoreResult> ScoringEngine::ScoreGraph(AttributedGraph graph,
                                              uint64_t request_id) {
  VGOD_RETURN_IF_ERROR(ValidateSubgraph(graph));
  VGOD_RETURN_IF_ERROR(Enter());
  const auto start = std::chrono::steady_clock::now();
  VGOD_PROFILE_SCOPE("serve/subgraph");
  ScoreResult result;
  result.timing.request_id = request_id != 0 ? request_id : NextRequestId();
  Result<detectors::DetectorOutput> scored =
      TimedScore(graph, std::chrono::steady_clock::now(), &result.timing);
  ObserveStages(result.timing);
  if (!scored.ok()) return Finish(start, scored.status());
  detectors::DetectorOutput out = std::move(scored).value();
  result.nodes.resize(graph.num_nodes());
  for (int i = 0; i < graph.num_nodes(); ++i) result.nodes[i] = i;
  result.score = std::move(out.score);
  result.structural = std::move(out.structural_score);
  result.contextual = std::move(out.contextual_score);
  return Finish(start, std::move(result));
}

}  // namespace vgod::serve
