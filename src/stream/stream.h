#ifndef LOOM_STREAM_STREAM_H_
#define LOOM_STREAM_STREAM_H_

/// \file
/// The graph-stream model (§3.1): an ordering over the elements of a dynamic
/// graph. loom uses the standard streaming-partitioner arrival model of
/// Stanton & Kliot: each vertex arrives once, carrying the edges to its
/// already-arrived neighbours ("back edges"). Orderings determine the
/// permutation; the paper names random, adversarial and stochastic orderings,
/// and we add BFS/DFS which the streaming-partitioning literature evaluates.

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "graph/graph.h"

namespace loom {

/// One vertex arrival with its edges to earlier arrivals.
struct VertexArrival {
  VertexId vertex = kInvalidVertex;
  Label label = 0;
  /// Neighbours of `vertex` that arrived strictly earlier.
  std::vector<VertexId> back_edges;
};

/// How the stream orders vertices (paper §3.1).
enum class StreamOrder {
  /// Uniformly random permutation.
  kRandom,
  /// Breadth-first from a random start per component.
  kBfs,
  /// Depth-first from a random start per component.
  kDfs,
  /// Adversarial: a greedy maximal independent set arrives first, so greedy
  /// partitioners see long runs of disconnected vertices (§3.1's example).
  kAdversarial,
  /// Stochastic growth process: arrival probability grows with the number of
  /// already-arrived neighbours — models users joining a social network
  /// their friends are already in (§3.1 "generated by some stochastic
  /// process, such as user input").
  kStochastic,
  /// Vertex-id order; for generative models (Barabási–Albert) this is the
  /// natural temporal order.
  kNatural,
};

/// Human-readable ordering name for tables.
std::string StreamOrderName(StreamOrder order);

/// A fully materialised graph stream: vertex arrivals in order.
class GraphStream {
 public:
  GraphStream() = default;
  explicit GraphStream(std::vector<VertexArrival> arrivals)
      : arrivals_(std::move(arrivals)) {}

  const std::vector<VertexArrival>& arrivals() const { return arrivals_; }
  size_t NumVertices() const { return arrivals_.size(); }
  size_t NumEdges() const;

  /// Appends one arrival — the online-ingest path (serving layer records
  /// the live stream as it is fed, so a later restream/repartition pass can
  /// replay it). The caller is responsible for the stream invariants: each
  /// vertex arrives once and back edges point at earlier arrivals.
  void Append(VertexArrival arrival) {
    arrivals_.push_back(std::move(arrival));
  }

 private:
  std::vector<VertexArrival> arrivals_;
};

/// Materialises the stream of `g` under `order`. Every vertex appears exactly
/// once and every edge is carried by its later endpoint.
GraphStream MakeStream(const LabeledGraph& g, StreamOrder order, Rng& rng);

/// Builds a stream from an explicit vertex permutation (tests, figures).
GraphStream MakeStreamFromOrder(const LabeledGraph& g,
                                const std::vector<VertexId>& order);

/// Rebuilds the labelled graph a back-edge stream was materialised from:
/// every edge is carried exactly once by its later endpoint, so the union of
/// arrivals and back edges is (V, E). Duplicate edges (full-neighbourhood
/// records, repeated entries) are kept once and self-loops dropped; vertex
/// ids never seen as arrivals get label 0. This is what lets a
/// restreaming/repartitioning pass reconstruct full neighbourhoods from a
/// recorded pass-one stream.
///
/// O(V + E): each adjacency list is reserved once at its degree (exact for
/// back-edge and full-neighbourhood streams) and duplicates are dropped by
/// a per-arrival stamp, not a HasEdge scan. Neighbour order is insertion
/// order — arrival by arrival, each arrival's entries in list order — the
/// order `LabeledGraph::AddEdge` over every entry gives, which the
/// stream-file format's full slices reproduce (docs/FORMATS.md).
LabeledGraph GraphFromStream(const GraphStream& stream);

}  // namespace loom

#endif  // LOOM_STREAM_STREAM_H_
