#ifndef VGOD_SERVE_ENGINE_H_
#define VGOD_SERVE_ENGINE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/status.h"
#include "detectors/detector.h"
#include "graph/graph.h"
#include "obs/fingerprint.h"
#include "stream/delta_graph.h"
#include "stream/events.h"
#include "stream/online_scorer.h"

namespace vgod::serve {

/// Scoring engine knobs (docs/SERVING.md, docs/PARALLELISM.md for how
/// the transport's dispatch pool and the kernel pool compose).
struct EngineConfig {
  /// Intra-op kernel threads (vgod::par pool width) applied at Start().
  /// 0 leaves the global pool as configured (VGOD_NUM_THREADS or
  /// hardware_concurrency). Pick dispatch_threads * intra_op_threads <=
  /// cores: the kernel pool runs one region at a time and concurrent
  /// Score() calls fall back to serial kernels, so request-level and
  /// kernel-level parallelism never oversubscribe.
  int intra_op_threads = 0;
  /// Scoring calls in flight beyond this are rejected (load shedding, so
  /// a burst degrades to fast 503s instead of unbounded latency).
  int max_queue = 1024;
};

/// Per-request stage timing filled in by the engine. The HTTP layer adds
/// parse/serialize on top (docs/OBSERVABILITY.md "Request lifecycle").
struct StageTiming {
  uint64_t request_id = 0;
  /// Time spent waiting for a score table another caller was computing
  /// for the same graph version (0 for the caller that computes it, ~0 for a
  /// table hit).
  double queue_wait_seconds = 0.0;
  /// Always 0. Kept so readers of the stage breakdown keep their field;
  /// the engine no longer assembles batches.
  double batch_assembly_seconds = 0.0;
  /// The table build this request ran (snapshot + Score(): under
  /// streaming the first reader of a version also materializes its
  /// graph) or an inline subgraph's Score(). 0 for a table hit or a
  /// waiter.
  double score_seconds = 0.0;
  /// High-water mark of net tensor allocations on the scoring thread
  /// during that Score() call (0 when the request ran none).
  int64_t tensor_peak_bytes = 0;
};

/// Streaming-ingest knobs (docs/STREAMING.md). Streaming is off by
/// default; ScoringEngine::EnableStreaming turns it on before Start().
struct StreamingOptions {
  /// Watchlist size served by GET /debug/watchlist (?k= can ask smaller).
  int watchlist_k = 10;
  /// Auto-compaction threshold: when an ingest batch leaves at least this
  /// many applied-but-uncompacted events in the delta overlay, the engine
  /// compacts before answering. 0 disables auto-compaction (batches can
  /// still request one explicitly with {"compact":true}).
  int compact_every = 4096;
  /// Per-request event cap (hostile-input bound, docs/ROBUSTNESS.md).
  int max_events_per_batch = 4096;
};

/// What one accepted ingest batch did, echoed as the POST /ingest
/// response body.
struct IngestResult {
  uint64_t request_id = 0;
  int events_applied = 0;
  /// Incremental score recomputations across the batch — the O(deg)
  /// cost certificate (stream.touched_nodes.per_event histogram).
  int touched_nodes = 0;
  bool compacted = false;
  int num_nodes = 0;
  int64_t delta_ops = 0;       // Outstanding overlay events post-batch.
  int64_t overlay_edges = 0;
  int64_t compactions = 0;     // Lifetime compaction count.
  double apply_seconds = 0.0;  // Whole batch: validate+apply+compact.
  double compact_seconds = 0.0;
};

/// One watchlist row: a current top-k outlier by online score.
struct WatchlistEntry {
  int node = -1;
  double score = 0.0;
};

/// Scores for the nodes a request asked about, row-aligned with `nodes`.
/// Component scores are present when the detector separates them.
struct ScoreResult {
  std::vector<int> nodes;
  std::vector<double> score;
  std::vector<double> structural;
  std::vector<double> contextual;
  StageTiming timing;
};

/// In-process engine counters, also exported as serve.engine.* gauges on
/// every registry scrape path (/metrics JSON and Prometheus alike).
struct EngineStats {
  int64_t batches_flushed = 0;   // Detector Score() invocations.
  int64_t requests_served = 0;   // Requests answered (ok or error).
  int64_t shed = 0;              // In-flight-cap load-shedding rejections.
};

/// Owns a fitted detector and a resident graph, and answers scoring
/// calls on the caller's thread.
///
/// Two request shapes:
///  * node requests — score node ids of the resident graph. A score is a
///    pure function of (model, graph version), so the engine keeps one
///    score table per published version: the first reader of a version
///    builds its snapshot and runs the detector's full-graph Score(), and
///    every other reader of that version waits on the same computation,
///    then answers by lookup.
///  * subgraph requests — score a request-supplied graph (the inductive
///    deployment shape), inline on the caller.
///
/// Scores are computed by the same Score() the offline path uses, so
/// served values are bit-identical to in-process scoring.
class ScoringEngine {
 public:
  /// Takes ownership of a fitted (or bundle-restored) detector and the
  /// resident graph it serves.
  ScoringEngine(std::unique_ptr<detectors::OutlierDetector> detector,
                AttributedGraph graph, EngineConfig config = {});
  ~ScoringEngine();

  ScoringEngine(const ScoringEngine&) = delete;
  ScoringEngine& operator=(const ScoringEngine&) = delete;

  /// Sizes the kernel pool and starts accepting calls. Fails if already
  /// started or shut down. The score table is built lazily, by the first
  /// node request.
  Status Start();

  /// Turns on the streaming subsystem (src/stream/): a DeltaGraphStore
  /// seeded from the resident graph plus an OnlineScorer whose embedder
  /// is derived from the detector (VBM/VGOD use the fitted Eq. 6
  /// transform; anything else scores raw attributes). Must run before
  /// Start(). After this, Ingest() mutates the resident graph and /score
  /// requests see the latest published version.
  Status EnableStreaming(StreamingOptions options = {});
  bool streaming_enabled() const { return store_ != nullptr; }
  const StreamingOptions& streaming_options() const {
    return stream_options_;
  }

  /// Applies one pre-parsed event batch: all-or-nothing validation, then
  /// per-event store+scorer updates, optional compaction, and a new graph
  /// version. The batch costs O(events * deg), not O(graph): it builds no
  /// snapshot (the first reader of the version does), and in-flight
  /// scoring keeps the immutable snapshot it already holds. Thread-safe
  /// (serialized on the stream mutex).
  Result<IngestResult> Ingest(const stream::EventBatch& batch,
                              uint64_t request_id = 0);

  /// Current top-k online outliers, descending by score. `k` <= 0 uses
  /// the configured watchlist_k. Fails when streaming is off.
  Result<std::vector<WatchlistEntry>> Watchlist(int k = 0);

  /// Hook fired from Ingest() when a batch changed the watchlist's
  /// membership or ordering (node ids, not scores — scores move every
  /// batch). Invoked on the ingesting thread with no engine lock held,
  /// so the callback may call back into the server (SSE publish) but
  /// must not re-enter the engine's streaming API. Set before Start().
  using WatchlistChangeCallback =
      std::function<void(const std::vector<WatchlistEntry>&)>;
  void SetWatchlistChangeCallback(WatchlistChangeCallback callback) {
    watchlist_callback_ = std::move(callback);
  }

  /// Baseline model fingerprint restored from the bundle (training-score
  /// sketch + attribute moments + degree histogram), or null when the
  /// bundle predates fingerprints. Set once by BuildEngine before
  /// Start(); the drift monitor seeds its baseline from this.
  void SetFingerprint(std::shared_ptr<const obs::ModelFingerprint> fp) {
    fingerprint_ = std::move(fp);
  }
  const std::shared_ptr<const obs::ModelFingerprint>& fingerprint() const {
    return fingerprint_;
  }

  /// Readiness (distinct from liveness): false while not yet started,
  /// draining, or a compaction snapshot swap is in flight, with a
  /// human-readable reason. GET /healthz/ready maps false to 503.
  bool Ready(std::string* reason) const;

  /// The graph /score currently scores: the boot graph until streaming
  /// ingest publishes a newer version. Under streaming this builds the
  /// version's snapshot when no reader has yet (O(V + E), under the
  /// stream mutex), so probes that need a count or degrees use
  /// resident_nodes() and Degrees() instead. Snapshots are immutable;
  /// holding the returned pointer pins that version, nothing more.
  std::shared_ptr<const AttributedGraph> CurrentGraph() const;

  /// Node count of the latest version, read without a lock or a snapshot.
  /// Streaming only ever grows it.
  int resident_nodes() const {
    return resident_nodes_.load(std::memory_order_acquire);
  }
  /// Degree of every node of the latest version, from the store's overlay
  /// (O(V), no snapshot) or from the boot graph when streaming is off.
  std::vector<int64_t> Degrees() const;

  /// Graceful shutdown: rejects new calls, then waits for the calls in
  /// flight to finish. Idempotent.
  void Shutdown();

  /// Scores node ids of the latest published version (the score table
  /// lookup described above). Fails fast on invalid node ids, a full
  /// in-flight cap, or a stopped engine. `request_id` tags the request's
  /// StageTiming and access-log line; 0 lets the engine assign one
  /// (NextRequestId).
  Result<ScoreResult> ScoreNodes(std::vector<int> nodes,
                                 uint64_t request_id = 0);
  /// Scores every node of `graph` with one inline Score() call.
  Result<ScoreResult> ScoreGraph(AttributedGraph graph,
                                 uint64_t request_id = 0);

  const detectors::OutlierDetector& detector() const { return *detector_; }
  /// The boot-time resident graph. Stable for the engine's lifetime even
  /// under streaming (ingest publishes new versions, read through
  /// CurrentGraph(); it never mutates or retires this one). Its
  /// attribute_dim() is every version's.
  const AttributedGraph& graph() const { return *boot_graph_; }

  /// Detector Score() invocations so far (table builds + subgraphs).
  int64_t score_calls() const {
    return score_calls_.load(std::memory_order_relaxed);
  }
  /// Requests answered so far (successfully or not).
  int64_t requests_served() const {
    return requests_served_.load(std::memory_order_relaxed);
  }
  /// All engine counters in one read (mirrors the serve.engine.* gauges).
  EngineStats stats() const;

 private:
  /// The full-graph detector output of one graph version, shared by
  /// every reader of that version. Holds score vectors only, never the
  /// graph, so a superseded snapshot is freed by the next ingest (which
  /// drops the store's cached copy) once its builder is done with it.
  using ScoreTable = std::shared_future<Result<detectors::DetectorOutput>>;

  /// Admission for a scoring call: counts it in flight, or rejects it
  /// (stopped engine, or the in-flight cap reached -> shed). Each Ok must
  /// be paired with Finish().
  Status Enter();
  /// Completes an admitted call started at `start`: latency and counters,
  /// then the in-flight release Shutdown() waits on. Returns `result`.
  Result<ScoreResult> Finish(std::chrono::steady_clock::time_point start,
                             Result<ScoreResult> result);
  /// Fast-fail validation; a failure is counted as a rejected request.
  Status ValidateNodes(const std::vector<int>& nodes) const;
  Status ValidateSubgraph(const AttributedGraph& graph) const;
  /// The score table of the latest version, built on this thread (the
  /// snapshot, then Score()) when this call is its first reader and
  /// waited on otherwise. `timing` receives the wait or build time this
  /// call paid.
  ScoreTable LatestTable(StageTiming* timing);
  /// Bumps graph_version_ and publishes the store's node count after a
  /// batch changed the store. Requires stream_mu_.
  void PublishVersionLocked();
  /// The latest version's graph: the store's (cached) snapshot, or the
  /// boot graph when streaming is off. Requires stream_mu_.
  std::shared_ptr<const AttributedGraph> GraphLocked() const;
  /// Runs one detector Score() under the non-finite guard; score_seconds
  /// is the time since `start`, so a table build counts its snapshot.
  Result<detectors::DetectorOutput> TimedScore(
      const AttributedGraph& graph,
      std::chrono::steady_clock::time_point start, StageTiming* timing);

  const std::unique_ptr<detectors::OutlierDetector> detector_;
  const std::shared_ptr<const AttributedGraph> boot_graph_;
  const EngineConfig config_;

  // --- Streaming state (null/idle when streaming is off) ---
  // Lock order: stream_mu_ may take graph_mu_; graph_mu_ is a leaf.
  // Ingest, a table builder and CurrentGraph() hold stream_mu_; a table
  // hit takes graph_mu_ alone.
  StreamingOptions stream_options_;
  /// Serializes store_/scorer_ access, snapshot builds included.
  mutable std::mutex stream_mu_;
  std::unique_ptr<stream::DeltaGraphStore> store_;
  std::optional<stream::OnlineScorer> scorer_;
  /// Watchlist node ids as of the last ingest batch (stream_mu_), the
  /// change-detection baseline for watchlist_callback_.
  std::vector<int> last_watchlist_nodes_;
  WatchlistChangeCallback watchlist_callback_;  // Set before Start().
  std::shared_ptr<const obs::ModelFingerprint> fingerprint_;

  // --- Published version and its score table (graph_mu_) ---
  mutable std::mutex graph_mu_;
  /// Bumped by every ingest that mutated the store (written with
  /// stream_mu_ and graph_mu_ held); keys the score table.
  uint64_t graph_version_ = 0;
  /// The one cached table: `table_` scores version `table_version_`.
  /// Invalid (no table) until the first read, after a failed build, and
  /// whenever the reader of a newer version replaces it.
  uint64_t table_version_ = 0;
  ScoreTable table_;
  /// True while a compaction snapshot swap is in flight (readiness gate).
  std::atomic<bool> compacting_{false};
  /// Monotone node count of the latest published version; ScoreNodes
  /// validates against this without touching a lock. Safe because
  /// streaming only ever grows the node set.
  std::atomic<int> resident_nodes_{0};

  // --- Lifecycle and counters (lock-free; see Enter/Shutdown) ---
  std::atomic<bool> started_{false};
  std::atomic<bool> stopping_{false};
  /// Scoring calls between Enter and Finish; Shutdown waits for 0.
  std::atomic<int> in_flight_{0};
  std::atomic<int64_t> score_calls_{0};
  std::atomic<int64_t> requests_served_{0};
  std::atomic<int64_t> shed_count_{0};
};

}  // namespace vgod::serve

#endif  // VGOD_SERVE_ENGINE_H_
