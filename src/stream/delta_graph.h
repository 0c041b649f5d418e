#ifndef VGOD_STREAM_DELTA_GRAPH_H_
#define VGOD_STREAM_DELTA_GRAPH_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "core/status.h"
#include "graph/graph.h"
#include "stream/events.h"

namespace vgod::stream {

/// Mutable graph store behind the streaming scoring engine: an immutable
/// base CSR (`shared_ptr<const AttributedGraph>`) plus a per-node delta
/// overlay — sorted added/removed adjacency lists relative to the base
/// row, replacement attribute rows, and appended nodes. Mutations are
/// O(deg) and never touch a published AttributedGraph. Readers that need
/// a whole graph take Snapshot(), an O(V + E) materialization of
/// base+overlay built on demand and cached until the next mutation, so
/// in-flight scorers (and the deterministic parallel kernels under them)
/// always see a fully consistent graph. A mutation drops the store's
/// reference to the cached snapshot, so a superseded graph lives only as
/// long as a reader still holds it. Compact() promotes the current
/// snapshot to the new base and clears the overlay, bounding overlay
/// memory and restoring O(log deg) HasEdge.
///
/// NOT internally synchronized: the owning ScoringEngine serializes every
/// call behind its stream mutex; its first reader of each new version
/// builds the snapshot (docs/STREAMING.md "Concurrency").
///
/// Materialized snapshots carry attributes only — community/outlier label
/// vectors are training/eval artifacts with no sizing story for appended
/// nodes, so the streaming path drops them (docs/STREAMING.md).
class DeltaGraphStore {
 public:
  /// The base graph must have attributes (streaming scoring needs them).
  explicit DeltaGraphStore(AttributedGraph base);

  DeltaGraphStore(const DeltaGraphStore&) = delete;
  DeltaGraphStore& operator=(const DeltaGraphStore&) = delete;

  int num_nodes() const {
    return base_->num_nodes() + static_cast<int>(new_rows_.size());
  }
  int attribute_dim() const { return base_->attribute_dim(); }

  /// Events applied since the last compaction (auto-compaction trigger).
  int64_t delta_ops() const { return delta_ops_; }
  /// Directed adjacency entries currently held in the overlay
  /// (added + removed lists across all nodes).
  int64_t overlay_edges() const { return overlay_edges_; }
  int64_t compactions() const { return compactions_; }

  /// Overlay-aware directed-edge membership. Out-of-range ids are false.
  bool HasEdge(int u, int v) const;
  /// Overlay-aware degree.
  int Degree(int node) const;
  /// Current sorted neighbor list of `node` (base minus removed plus
  /// added); the O(deg) view the incremental scorer walks.
  std::vector<int32_t> CurrentNeighbors(int node) const;
  /// Current attribute row of `node` (override/appended/base).
  std::vector<float> AttributeRow(int node) const;

  /// Validates `events` as a sequence against the current graph state
  /// (ranges, self loops, duplicate inserts, missing-edge removes,
  /// attribute widths — tracking intra-batch effects) WITHOUT mutating
  /// anything, so a hostile batch is rejected whole and the store stays
  /// exactly as it was (all-or-nothing ingest, docs/ROBUSTNESS.md).
  Status ValidateBatch(const std::vector<GraphEvent>& events) const;

  /// Applies one event that already passed ValidateBatch (in sequence).
  /// CHECK-fails on invalid input — callers must validate first.
  void ApplyOne(const GraphEvent& event);

  /// The current graph, materialized base+overlay. Cached: repeated calls
  /// without intervening ApplyOne return the same shared snapshot;
  /// ApplyOne drops the cache, and the next call pays one O(V + E)
  /// rebuild (one "stream/materialize" profiler scope). Nothing else
  /// builds it: a store that is mutated but never read never pays it.
  /// Returned snapshots are immutable forever.
  std::shared_ptr<const AttributedGraph> Snapshot();

  /// Promotes Snapshot() to the new base and clears the overlay.
  void Compact();

  /// The immutable base CSR (pre-overlay).
  std::shared_ptr<const AttributedGraph> base() const { return base_; }

 private:
  struct NodeDelta {
    std::vector<int32_t> added;    // Sorted; disjoint from base row.
    std::vector<int32_t> removed;  // Sorted; subset of base row.
  };

  /// Directed half-edge toggle: moves v in/out of u's added/removed lists
  /// depending on whether (u,v) is a base edge.
  void ToggleHalfEdge(int u, int v, bool insert);
  /// Appends the current neighbor row of `node` to `out`.
  void AppendCurrentNeighbors(int node, std::vector<int32_t>* out) const;
  AttributedGraph Materialize() const;

  std::shared_ptr<const AttributedGraph> base_;
  std::unordered_map<int, NodeDelta> delta_;
  /// Replacement attribute rows for base nodes.
  std::unordered_map<int, std::vector<float>> attr_override_;
  /// Attribute rows of appended nodes (node id = base nodes + index).
  std::vector<std::vector<float>> new_rows_;

  /// The materialized current graph; null when a mutation superseded it.
  std::shared_ptr<const AttributedGraph> cached_;
  int64_t delta_ops_ = 0;
  int64_t overlay_edges_ = 0;
  int64_t compactions_ = 0;
};

}  // namespace vgod::stream

#endif  // VGOD_STREAM_DELTA_GRAPH_H_
