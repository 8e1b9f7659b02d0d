#include "metrics/metrics.h"

#include <algorithm>

namespace loom {

size_t NumCutEdges(const LabeledGraph& g, const PartitionAssignment& a) {
  // LabeledGraph keeps adjacency symmetric and has no self-loops or parallel
  // edges, so each edge is two entries that agree on whether it is cut.
  size_t cut_entries = 0;
  for (VertexId u = 0; u < g.NumVertices(); ++u) {
    const int32_t pu = a.PartOf(u);
    for (const VertexId v : g.Neighbors(u)) cut_entries += pu != a.PartOf(v);
  }
  return cut_entries / 2;
}

double EdgeCutFraction(const LabeledGraph& g, const PartitionAssignment& a) {
  if (g.NumEdges() == 0) return 0.0;
  return static_cast<double>(NumCutEdges(g, a)) /
         static_cast<double>(g.NumEdges());
}

double EdgeCutFraction(ArrivalSource& source, const PartitionAssignment& a) {
  source.Reset();
  uint64_t cut = 0;
  uint64_t total = 0;
  ArrivalView view;
  while (source.Next(&view)) {
    const int32_t pv = a.PartOf(view.vertex);
    total += view.back_edges.size();
    for (const VertexId w : view.back_edges) cut += pv != a.PartOf(w);
  }
  if (total == 0) return 0.0;
  return static_cast<double>(cut) / static_cast<double>(total);
}

double BalanceMaxOverAvg(const PartitionAssignment& a) {
  if (a.NumAssigned() == 0) return 1.0;
  const uint32_t max_size =
      *std::max_element(a.Sizes().begin(), a.Sizes().end());
  const double avg = static_cast<double>(a.NumAssigned()) /
                     static_cast<double>(a.k());
  return static_cast<double>(max_size) / avg;
}

bool AllAssigned(const LabeledGraph& g, const PartitionAssignment& a) {
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    if (!a.IsAssigned(v)) return false;
  }
  return true;
}

MigrationStats ComputeMigration(const PartitionAssignment& prev,
                                const PartitionAssignment& next) {
  MigrationStats out;
  const size_t bound = std::min(prev.IdBound(), next.IdBound());
  for (VertexId v = 0; v < bound; ++v) {
    const int32_t np = next.PartOf(v);
    if (np < 0) continue;
    const int32_t pp = prev.PartOf(v);
    if (pp < 0) continue;
    ++out.comparable;
    if (np != pp) ++out.moved;
  }
  return out;
}

double MigrationFraction(const PartitionAssignment& prev,
                         const PartitionAssignment& next) {
  const MigrationStats m = ComputeMigration(prev, next);
  if (m.comparable == 0) return 0.0;
  return static_cast<double>(m.moved) / static_cast<double>(m.comparable);
}

double ReplicationFactor(const ReplicaSet& replicas) {
  if (replicas.NumReplicatedVertices() == 0) return 0.0;
  return static_cast<double>(replicas.NumReplicas()) /
         static_cast<double>(replicas.NumReplicatedVertices());
}

double EdgeBalanceMaxOverAvg(const std::vector<uint64_t>& edge_counts) {
  if (edge_counts.empty()) return 0.0;
  uint64_t total = 0;
  uint64_t max_count = 0;
  for (const uint64_t count : edge_counts) {
    total += count;
    max_count = std::max(max_count, count);
  }
  if (total == 0) return 0.0;
  const double avg =
      static_cast<double>(total) / static_cast<double>(edge_counts.size());
  return static_cast<double>(max_count) / avg;
}

std::string SizesToString(const PartitionAssignment& a) {
  std::string out;
  for (size_t i = 0; i < a.Sizes().size(); ++i) {
    if (i) out += "/";
    out += std::to_string(a.Sizes()[i]);
  }
  return out;
}

}  // namespace loom
