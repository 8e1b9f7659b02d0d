#ifndef LOOM_EDGE_PARTITION_HDRF_PARTITIONER_H_
#define LOOM_EDGE_PARTITION_HDRF_PARTITIONER_H_

/// \file
/// HDRF — High-Degree (are) Replicated First (Petroni et al., CIKM 2015):
/// the streaming edge partitioner that exploits power-law degree skew by
/// preferring to replicate hub vertices, keeping the long tail of
/// low-degree vertices intact. For edge (u, v) with partial degrees δ(u),
/// δ(v), normalised as θ(u) = δ(u) / (δ(u) + δ(v)), each partition p is
/// scored
///
///   C_REP(p) = g(u, p) + g(v, p),   g(x, p) = 1 + (1 − θ(x)) if p holds a
///                                   replica of x, else 0
///   C_BAL(p) = λ · (maxsize − size(p)) / (1 + maxsize − minsize)
///
/// and the edge goes to the argmax (ties to the lower index). The lower-
/// degree endpoint contributes the larger g, so the placement gravitates
/// to partitions holding the *tail* endpoint and the hub gets replicated.
/// λ tunes the balance term; the workload-heat hook (EffectiveDegree)
/// inflates hot vertices' θ so motif hubs replicate first even before
/// their structural degree shows it.
///
/// ## Kernel
///
/// The production placement rule is a dense bitmask kernel: eligibility is
/// word-parallel mask algebra over ReplicaSet's per-vertex partition
/// bitmasks and the partitioner's full-partition bit words, replica-
/// affinity candidates are the set bits of mask(u) | mask(v) (the only
/// partitions with a nonzero C_REP), the balance-only sweep reduces to an
/// integer least-loaded argmin — read in O(1) from the at-minimum bit
/// words whenever a candidate sits at the minimum load — and
/// maxsize/minsize come from the incrementally maintained load bounds: no
/// hash probes and no O(k) min/max scan per edge. It is placement-bit-
/// identical to the reference scalar loop (kept as PickPartitionScalar,
/// selectable via set_force_scalar_kernel for the golden-hash equivalence
/// tests).

#include <string>

#include "edge_partition/edge_partitioner.h"

namespace loom {

/// Streaming HDRF over the back-edge cursor.
class HdrfPartitioner : public EdgePartitioner {
 public:
  explicit HdrfPartitioner(const EdgePartitionerOptions& options)
      : EdgePartitioner(options) {}

  std::string Name() const override { return "hdrf"; }

  /// Test hook: route PickPartition through the reference scalar loop
  /// instead of the bitmask kernel. The golden-hash equivalence tests pin
  /// that both produce identical placements.
  void set_force_scalar_kernel(bool force) { force_scalar_kernel_ = force; }

 protected:
  uint32_t PickPartition(VertexId u, VertexId v) override;

 private:
  /// The reference O(k)-scan implementation of the scoring rule.
  uint32_t PickPartitionScalar(VertexId u, VertexId v);

  bool force_scalar_kernel_ = false;
};

}  // namespace loom

#endif  // LOOM_EDGE_PARTITION_HDRF_PARTITIONER_H_
