#include "partition/replica_set.h"

#include <algorithm>

namespace loom {

void ReplicaSet::SetMaskBit(VertexId v, uint32_t partition) {
  const uint32_t word = partition >> 6;
  if (word >= words_per_vertex_) {
    // Restride: the first partition index >= 64 * stride widens every
    // vertex's mask row in place (old word w of vertex v moves to the same
    // word of the wider row). Happens at most log2(k/64) times per set.
    const uint32_t new_stride = word + 1;
    std::vector<uint64_t> wide(
        (masks_.size() / words_per_vertex_) * new_stride, 0);
    const size_t num_vertices = masks_.size() / words_per_vertex_;
    for (size_t i = 0; i < num_vertices; ++i) {
      for (uint32_t w = 0; w < words_per_vertex_; ++w) {
        wide[i * new_stride + w] = masks_[i * words_per_vertex_ + w];
      }
    }
    masks_ = std::move(wide);
    words_per_vertex_ = new_stride;
  }
  const size_t base = static_cast<size_t>(v) * words_per_vertex_;
  if (base + words_per_vertex_ > masks_.size()) {
    masks_.resize((static_cast<size_t>(v) + 1) * words_per_vertex_, 0);
  }
  masks_[base + word] |= uint64_t{1} << (partition & 63);
}

void ReplicaSet::ClearMaskBit(VertexId v, uint32_t partition) {
  const uint32_t word = partition >> 6;
  if (word >= words_per_vertex_) return;
  const size_t base = static_cast<size_t>(v) * words_per_vertex_;
  if (base + word >= masks_.size()) return;
  masks_[base + word] &= ~(uint64_t{1} << (partition & 63));
}

void ReplicaSet::Add(VertexId v, uint32_t partition) {
  // Mask-first: the hot edge-partition path calls Add twice per edge and
  // the replica almost always exists already — answer that case from the
  // mask row alone.
  if (Has(v, partition)) return;
  SetMaskBit(v, partition);
  if (v >= lists_.size()) lists_.resize(static_cast<size_t>(v) + 1);
  ReplicaList& parts = lists_[v];
  if (parts.empty()) ++num_replicated_vertices_;
  parts.push_back(partition);
  ++num_replicas_;
}

bool ReplicaSet::Remove(VertexId v, uint32_t partition) {
  if (!Has(v, partition)) return false;
  ReplicaList& parts = lists_[v];
  // erase (not swap-and-pop) keeps insertion order, so removing the
  // primary promotes the oldest surviving secondary.
  parts.erase(std::find(parts.begin(), parts.end(), partition));
  ClearMaskBit(v, partition);
  --num_replicas_;
  if (parts.empty()) --num_replicated_vertices_;
  return true;
}

void ReplicaSet::BeginRebuild() {
  for (ReplicaList& parts : lists_) parts.clear();
  std::fill(masks_.begin(), masks_.end(), 0);
  num_replicas_ = 0;
  num_replicated_vertices_ = 0;
}

void ReplicaSet::ReserveVertices(size_t num_vertices) {
  lists_.reserve(num_vertices);
  masks_.reserve(num_vertices * words_per_vertex_);
}

uint32_t ReplicaSet::MaskCountOf(VertexId v) const {
  const size_t base = static_cast<size_t>(v) * words_per_vertex_;
  uint32_t count = 0;
  for (uint32_t w = 0; w < words_per_vertex_; ++w) {
    if (base + w >= masks_.size()) break;
    count += static_cast<uint32_t>(__builtin_popcountll(masks_[base + w]));
  }
  return count;
}

uint32_t ReplicaSet::PrimaryOf(VertexId v) const {
  const ReplicaList* parts = PartitionsOf(v);
  return parts == nullptr ? kNoReplica : parts->front();
}

size_t ReplicaSet::NumReplicasOf(VertexId v) const {
  return v < lists_.size() ? lists_[v].size() : 0;
}

bool ReplicaSet::CheckInvariants() const {
  size_t total = 0;
  size_t non_empty = 0;
  for (size_t i = 0; i < lists_.size(); ++i) {
    const VertexId vertex = static_cast<VertexId>(i);
    const ReplicaList& parts = lists_[i];
    if (!parts.empty()) ++non_empty;
    for (size_t a = 0; a < parts.size(); ++a) {
      for (size_t b = a + 1; b < parts.size(); ++b) {
        if (parts[a] == parts[b]) return false;
      }
    }
    // Every listed partition must be set in the mask.
    for (const uint32_t p : parts) {
      if (!Has(vertex, p)) return false;
    }
    total += parts.size();
  }
  if (total != num_replicas_ || non_empty != num_replicated_vertices_) {
    return false;
  }
  // Every set mask bit must be listed (no stale bits). Scan the dense
  // table directly so rows beyond the list table are audited too.
  const size_t num_rows = masks_.size() / words_per_vertex_;
  for (size_t i = 0; i < num_rows; ++i) {
    for (uint32_t w = 0; w < words_per_vertex_; ++w) {
      uint64_t bits = masks_[i * words_per_vertex_ + w];
      while (bits != 0) {
        const uint32_t p =
            (w << 6) + static_cast<uint32_t>(__builtin_ctzll(bits));
        bits &= bits - 1;
        if (i >= lists_.size()) return false;
        const ReplicaList& parts = lists_[i];
        if (std::find(parts.begin(), parts.end(), p) == parts.end()) {
          return false;
        }
      }
    }
  }
  return true;
}

}  // namespace loom
