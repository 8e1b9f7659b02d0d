#ifndef LOOM_METRICS_METRICS_H_
#define LOOM_METRICS_METRICS_H_

/// \file
/// Partitioning quality measures: the classic edge-cut and balance metrics
/// streaming partitioners optimise (§3.1), alongside which the workload-aware
/// ipt measures of workload/query_engine.h are reported.

#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "partition/partition_state.h"
#include "partition/replica_set.h"
#include "stream/arrival_source.h"

namespace loom {

/// Number of edges whose endpoints are assigned to different partitions
/// (an unassigned endpoint counts as partition -1). One O(V + E) sweep of
/// the adjacency.
size_t NumCutEdges(const LabeledGraph& g, const PartitionAssignment& a);

/// Cut edges as a fraction of all edges (lambda in the streaming literature).
double EdgeCutFraction(const LabeledGraph& g, const PartitionAssignment& a);

/// Streaming form for out-of-core runs: one sweep over `source` (rewound via
/// Reset first), counting each carried back edge once — O(1) memory where
/// the graph overload needs the materialised adjacency. The source must
/// yield *back-edge* views (every edge exactly once, on its later
/// endpoint); a full-neighbourhood replay source would double-count.
double EdgeCutFraction(ArrivalSource& source, const PartitionAssignment& a);

/// Normalised maximum load: max_i |V_i| / (n / k); 1.0 = perfectly balanced.
double BalanceMaxOverAvg(const PartitionAssignment& a);

/// True iff every vertex of `g` is assigned.
bool AllAssigned(const LabeledGraph& g, const PartitionAssignment& a);

/// Raw migration accounting between two assignments.
struct MigrationStats {
  /// Vertices assigned in both `prev` and `next`.
  size_t comparable = 0;
  /// Comparable vertices whose partition differs — each one is data moved
  /// between machines.
  size_t moved = 0;
};

/// Counts the vertices a re-partition would move: the integer form behind
/// `MigrationFraction`, exposed so budgeted passes can do exact move
/// arithmetic (a drift reaction's remaining budget is total allowed moves
/// minus `moved` so far — fractions would compound rounding error).
MigrationStats ComputeMigration(const PartitionAssignment& prev,
                                const PartitionAssignment& next);

/// Restreaming migration cost: the fraction of vertices assigned in both
/// `prev` and `next` whose partition changed between the two passes. Every
/// migrated vertex is data moved between machines, so restreaming trades
/// this against the edge-cut gain. Returns 0 when nothing is comparable.
double MigrationFraction(const PartitionAssignment& prev,
                         const PartitionAssignment& next);

/// "12/13/11/14"-style partition-size string for result tables.
std::string SizesToString(const PartitionAssignment& a);

/// Edge partitioning's quality metric: average replicas per replicated
/// vertex, NumReplicas / NumReplicatedVertices. >= 1 whenever any vertex is
/// replicated (every vertex touching an assigned edge holds at least its
/// own replica); 1.0 exactly when no vertex spans partitions. Returns 0 for
/// an empty set (no edges streamed).
double ReplicationFactor(const ReplicaSet& replicas);

/// Normalised maximum edge load: max_p |E_p| / (m / k); the edge-partition
/// counterpart of BalanceMaxOverAvg. 1.0 = perfectly balanced, 0 for an
/// empty vector or zero edges.
double EdgeBalanceMaxOverAvg(const std::vector<uint64_t>& edge_counts);

}  // namespace loom

#endif  // LOOM_METRICS_METRICS_H_
