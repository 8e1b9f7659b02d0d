#include "replication/hotspot.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <vector>

namespace loom {

ReplicaSet ComputeHotspotReplicas(const LabeledGraph& g,
                                  const PartitionAssignment& assignment,
                                  const Workload& workload,
                                  const ReplicationOptions& options,
                                  ReplicationStats* stats) {
  // Heat of a (target vertex, anchor partition) pair: frequency-weighted
  // rate of remote traversals into `target` from `partition`.
  std::unordered_map<uint64_t, double> heat;
  const double total_freq =
      workload.TotalFrequency() > 0 ? workload.TotalFrequency() : 1.0;

  for (const QuerySpec& q : workload.queries()) {
    std::unordered_map<uint64_t, uint64_t> per_query;
    uint64_t total_traversals = 0;
    const TraversalObserver observer = [&](VertexId from, VertexId to,
                                           bool cross) {
      ++total_traversals;
      if (!cross) return;
      const int32_t from_part = assignment.PartOf(from);
      if (from_part < 0) return;
      const uint64_t key = (static_cast<uint64_t>(to) << 32) |
                           static_cast<uint32_t>(from_part);
      ++per_query[key];
    };
    (void)ExecuteQuery(g, assignment, q.pattern,
                       options.max_embeddings_per_query, nullptr, observer);
    if (total_traversals == 0) continue;
    const double weight = q.frequency / total_freq /
                          static_cast<double>(total_traversals);
    for (const auto& [key, count] : per_query) {
      heat[key] += weight * static_cast<double>(count);
    }
  }

  // Rank hot pairs and place replicas within budget.
  std::vector<std::pair<double, uint64_t>> ranked;
  ranked.reserve(heat.size());
  for (const auto& [key, h] : heat) ranked.emplace_back(h, key);
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    if (a.first != b.first) return a.first > b.first;
    return a.second < b.second;  // deterministic ties
  });

  const size_t budget = static_cast<size_t>(
      std::floor(options.budget_fraction * static_cast<double>(g.NumVertices())));
  // Every ranked (vertex, partition) key is distinct, so each Add is new
  // and the mask count is the number of replicas placed for the vertex.
  ReplicaSet replicas;
  for (const auto& [h, key] : ranked) {
    (void)h;
    if (replicas.NumReplicas() >= budget) break;
    const VertexId v = static_cast<VertexId>(key >> 32);
    const uint32_t part = static_cast<uint32_t>(key & 0xffffffffu);
    if (replicas.MaskCountOf(v) >= options.max_partitions_per_vertex) {
      continue;
    }
    replicas.Add(v, part);
  }

  if (stats != nullptr) {
    stats->hot_pairs_observed = heat.size();
    stats->replicas_placed = replicas.NumReplicas();
  }
  return replicas;
}

}  // namespace loom
