#ifndef LOOM_GRAPH_GRAPH_H_
#define LOOM_GRAPH_GRAPH_H_

/// \file
/// The labelled graph G = (V, E, L_V, f_l) of the paper's §2: undirected,
/// vertex-labelled, dynamic (vertices and edges may be appended at any time,
/// matching the streaming setting).

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace loom {

/// Dense vertex identifier; assigned contiguously from 0.
using VertexId = uint32_t;

/// Vertex label (the paper's L_V); dense small integers.
using Label = uint32_t;

/// Sentinel for "no vertex".
inline constexpr VertexId kInvalidVertex = ~VertexId{0};

/// An undirected edge, stored with `u <= v` when normalized.
struct Edge {
  VertexId u = kInvalidVertex;
  VertexId v = kInvalidVertex;

  /// Returns the edge with endpoints ordered ascending.
  Edge Normalized() const { return u <= v ? Edge{u, v} : Edge{v, u}; }

  bool operator==(const Edge& other) const {
    return u == other.u && v == other.v;
  }
};

/// An undirected, vertex-labelled multigraph-free graph.
///
/// Storage is adjacency lists indexed by dense `VertexId`; neighbour lists
/// are unsorted (insertion order) and `HasEdge` is O(min degree). Vertices
/// are append-only; edges are append-only; self-loops and parallel edges are
/// rejected. This is the shared substrate for data graphs, query graphs and
/// motifs alike.
class LabeledGraph {
 public:
  LabeledGraph() = default;

  /// Adds a vertex with the given label; returns its id (dense, increasing).
  VertexId AddVertex(Label label);

  /// Adds the undirected edge {u, v}.
  /// Fails with InvalidArgument on self-loops or unknown endpoints and with
  /// AlreadyExists on duplicates.
  Status AddEdge(VertexId u, VertexId v);

  /// Adds {u, v} asserting validity; convenient for fixtures/generators.
  void AddEdgeUnchecked(VertexId u, VertexId v);

  /// Appends the undirected edge {u, v}, which the caller already knows is
  /// new: both endpoints exist, u != v, and {u, v} is not yet present
  /// (asserted in debug builds only). O(1) amortised, no `HasEdge` scan —
  /// the bulk-build path for loaders that dedup on their own
  /// (`GraphFromStream`). Neighbour order is append order, as for AddEdge.
  void AddNewEdge(VertexId u, VertexId v);

  /// Reserves room for `n` neighbours of `v`; changes no edge.
  void ReserveNeighbors(VertexId v, size_t n) { adjacency_[v].reserve(n); }

  size_t NumVertices() const { return labels_.size(); }
  size_t NumEdges() const { return num_edges_; }

  /// The label of vertex `v`.
  Label LabelOf(VertexId v) const { return labels_[v]; }

  /// Overwrites the label of `v` (used by motif planting and fixtures).
  void SetLabel(VertexId v, Label label);

  /// Degree of `v`.
  size_t Degree(VertexId v) const { return adjacency_[v].size(); }

  /// Neighbours of `v` in insertion order.
  const std::vector<VertexId>& Neighbors(VertexId v) const {
    return adjacency_[v];
  }

  /// True iff the undirected edge {u, v} is present. O(min degree).
  bool HasEdge(VertexId u, VertexId v) const;

  /// True iff `v` is a valid vertex id.
  bool HasVertex(VertexId v) const { return v < labels_.size(); }

  /// Number of distinct labels used (max label + 1; 0 when empty).
  size_t NumLabels() const { return num_labels_; }

  /// Calls `fn(u, v)` once per undirected edge, with u < v.
  void ForEachEdge(const std::function<void(VertexId, VertexId)>& fn) const;

  /// All edges, normalized (u < v), in adjacency order.
  std::vector<Edge> Edges() const;

  /// Sum of degrees == 2 * NumEdges (cheap self-check used by tests).
  size_t DegreeSum() const;

  /// Multiline diagnostic dump (small graphs only).
  std::string ToString() const;

 private:
  std::vector<Label> labels_;
  std::vector<std::vector<VertexId>> adjacency_;
  size_t num_edges_ = 0;
  size_t num_labels_ = 0;
};

/// The sub-graph of `g` induced by `vertices`.
///
/// Vertex i of the result corresponds to `vertices[i]`; labels are copied and
/// every edge of `g` with both endpoints in `vertices` is kept.
LabeledGraph InducedSubgraph(const LabeledGraph& g,
                             const std::vector<VertexId>& vertices);

/// The sub-graph of `g` consisting of exactly `edges` (plus their endpoints).
///
/// Unlike `InducedSubgraph` this keeps only the listed edges — the paper's
/// TPSTry++ nodes are edge-grown sub-graphs, not induced ones. `out_vertex_map`
/// (optional) receives, for each result vertex, the originating vertex of `g`.
LabeledGraph EdgeSubgraph(const LabeledGraph& g, const std::vector<Edge>& edges,
                          std::vector<VertexId>* out_vertex_map = nullptr);

/// True iff the graph is connected (empty graphs count as connected).
bool IsConnected(const LabeledGraph& g);

}  // namespace loom

#endif  // LOOM_GRAPH_GRAPH_H_
