#ifndef LOOM_SERVING_PLACEMENT_SNAPSHOT_H_
#define LOOM_SERVING_PLACEMENT_SNAPSHOT_H_

/// \file
/// The immutable placement snapshot the serving layer publishes: a frozen
/// view of the live `PartitionAssignment` plus the per-partition label
/// histogram that routes pattern queries. Snapshots are published through a
/// `SnapshotBoard` (common/snapshot.h), so `Locate`/`Touches` readers never
/// take a lock, never block on an ingest batch or a drift reaction, and can
/// never observe a torn assignment: they either see the whole snapshot of
/// epoch e or the whole snapshot of epoch e+1.
///
/// Copy-on-write: a snapshot stores its placements as fixed 64-vertex
/// chunks behind a pointer table. `PlacementSnapshotBuilder` builds each
/// snapshot from the previous one, so a chunk whose placements did not
/// change is shared by pointer with the retained predecessor and a publish
/// copies (and re-counts) only the chunks a batch changed.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "graph/graph.h"
#include "partition/partition_state.h"

namespace loom {

/// Vertices per placement chunk: 256 bytes of `int32_t` partitions.
inline constexpr size_t kPlacementChunk = 64;

/// A frozen view of one placement epoch. All fields are immutable after
/// construction (the serving layer publishes snapshots via `SnapshotBoard`,
/// whose readers rely on that). Chunks may live in a predecessor's
/// `owned_chunks`, so a snapshot is valid only while every snapshot built
/// before it is alive — `SnapshotBoard` retains them all. Not copyable: a
/// copy would point into the original's storage.
struct PlacementSnapshot {
  PlacementSnapshot() = default;
  PlacementSnapshot(const PlacementSnapshot&) = delete;
  PlacementSnapshot& operator=(const PlacementSnapshot&) = delete;

  /// Publication epoch (1-based, monotone across a service's lifetime; 0
  /// only in the pre-ingest snapshot published at service creation).
  uint64_t epoch = 0;
  /// Number of partitions.
  uint32_t k = 0;
  /// Label alphabet size of `label_counts`.
  uint32_t num_labels = 0;
  /// One past the largest vertex id the snapshot can place.
  size_t id_bound = 0;
  /// Partitions of ids `[c * 64, c * 64 + 64)` at `chunks[c]`, -1 while
  /// unassigned and for ids at or past `id_bound`. Points into this
  /// snapshot's `owned_chunks`, a predecessor's, or a shared all -1 chunk.
  std::vector<const int32_t*> chunks;
  /// Storage of the chunks this snapshot changed, 64 entries each.
  std::vector<int32_t> owned_chunks;
  /// Vertex count per partition.
  std::vector<uint32_t> sizes;
  /// Assigned vertices per (partition, label), flattened as
  /// `partition * num_labels + label` — the routing index for `Touches`.
  std::vector<uint32_t> label_counts;
  /// Total assigned vertices.
  size_t num_assigned = 0;

  /// Partition of `v`, or -1 when unassigned / unknown at snapshot time.
  int32_t Locate(VertexId v) const {
    return v < id_bound ? chunks[v / kPlacementChunk][v % kPlacementChunk]
                        : -1;
  }
};

/// Writer side of snapshot publication: freezes the live assignment into a
/// snapshot built from the one it built before. A chunk whose placements
/// and labels `memcmp`-equal the previous snapshot's is shared by pointer;
/// a changed chunk is copied into the new snapshot's `owned_chunks`, and
/// `label_counts` moves by a per-vertex delta over the entries that differ.
/// The first build is the same code against an empty predecessor. Every
/// snapshot `Build` returns must outlive all later ones. Single writer:
/// not thread-safe.
class PlacementSnapshotBuilder {
 public:
  /// \param num_labels alphabet size of `label_counts`; labels at or past
  ///        it are placed but not counted.
  explicit PlacementSnapshotBuilder(uint32_t num_labels)
      : num_labels_(num_labels) {}

  /// Freezes `assignment`. `label_of` maps VertexId to label (ids past its
  /// end count as label 0). `epoch` is stamped by the caller (the service
  /// owns the epoch sequence).
  std::unique_ptr<const PlacementSnapshot> Build(
      const PartitionAssignment& assignment,
      const std::vector<Label>& label_of, uint64_t epoch);

 private:
  const uint32_t num_labels_;
  /// The last snapshot built; null before the first build.
  const PlacementSnapshot* previous_ = nullptr;
  /// The label each vertex was counted under in `previous_`'s
  /// `label_counts` (meaningful only where it places the vertex).
  std::vector<Label> counted_label_;
};

/// The partitions a pattern query can possibly touch under `snapshot`:
/// every partition holding at least one vertex whose label occurs in
/// `query`. Sorted ascending. This is a sound *superset* of the partitions
/// any execution of the query actually visits — the matcher only probes
/// label-compatible candidates, so every traversal endpoint carries a query
/// label — which makes it the broadcast set a distributed router would ship
/// the query to. Labels outside the snapshot's alphabet contribute nothing.
std::vector<uint32_t> TouchedPartitions(const PlacementSnapshot& snapshot,
                                        const LabeledGraph& query);

}  // namespace loom

#endif  // LOOM_SERVING_PLACEMENT_SNAPSHOT_H_
