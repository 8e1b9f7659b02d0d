#include "serving/placement_snapshot.h"

#include <algorithm>
#include <array>
#include <cstring>

#include "common/span.h"

namespace loom {

namespace {

template <typename T>
using Chunk = std::array<T, kPlacementChunk>;

constexpr size_t kChunkBytes = sizeof(Chunk<int32_t>);
static_assert(sizeof(Chunk<Label>) == kChunkBytes,
              "placement and label chunks are compared alike");

/// The all -1 chunk: ids past a snapshot's last chunk, and chunks in which
/// nothing has been placed yet.
const int32_t* UnassignedChunk() {
  static const Chunk<int32_t> chunk = [] {
    Chunk<int32_t> c{};
    c.fill(-1);
    return c;
  }();
  return chunk.data();
}

/// Chunk `c` of `values`, padded with `pad` past their end. Points into
/// `values` when the chunk lies wholly inside them, else fills `scratch`.
template <typename T>
const T* LiveChunk(Span<const T> values, size_t c, T pad,
                   Chunk<T>* scratch) {
  const size_t begin = c * kPlacementChunk;
  if (begin + kPlacementChunk <= values.size()) return values.data() + begin;
  for (size_t i = 0; i < kPlacementChunk; ++i) {
    (*scratch)[i] = begin + i < values.size() ? values[begin + i] : pad;
  }
  return scratch->data();
}

/// A chunk the new snapshot cannot take over unchanged from its
/// predecessor.
struct DirtyChunk {
  size_t index;
  /// Its placements differ (not only its labels) and it lies inside the
  /// new bound: the new snapshot needs its own copy.
  bool needs_copy;
};

}  // namespace

std::unique_ptr<const PlacementSnapshot> PlacementSnapshotBuilder::Build(
    const PartitionAssignment& assignment, const std::vector<Label>& label_of,
    uint64_t epoch) {
  auto snapshot = std::make_unique<PlacementSnapshot>();
  snapshot->epoch = epoch;
  snapshot->k = assignment.k();
  snapshot->num_labels = num_labels_;
  snapshot->num_assigned = assignment.NumAssigned();
  snapshot->sizes = assignment.Sizes();

  // An adopted assignment with another k cannot be diffed against the
  // previous counts: build it against an empty predecessor instead.
  const PlacementSnapshot* previous =
      previous_ != nullptr && previous_->k == snapshot->k ? previous_
                                                          : nullptr;
  if (previous != nullptr) {
    snapshot->label_counts = previous->label_counts;
  } else {
    snapshot->label_counts.assign(size_t{snapshot->k} * num_labels_, 0);
  }

  const Span<const int32_t> parts = assignment.PartOfSpan();
  const Span<const Label> labels(label_of);
  snapshot->id_bound = parts.size();
  const size_t num_chunks =
      (parts.size() + kPlacementChunk - 1) / kPlacementChunk;
  const size_t old_chunks = previous != nullptr ? previous->chunks.size() : 0;
  // Chunks past the new bound are scanned too: a shrinking bound unplaces
  // their vertices.
  const size_t scan = std::max(num_chunks, old_chunks);
  if (counted_label_.size() < scan * kPlacementChunk) {
    counted_label_.resize(scan * kPlacementChunk, 0);
  }
  Chunk<int32_t> part_scratch{};
  Chunk<Label> label_scratch{};
  const auto before_chunk = [&](size_t c) {
    return c < old_chunks ? previous->chunks[c] : UnassignedChunk();
  };
  const auto after_chunk = [&](size_t c) {
    return c < num_chunks ? LiveChunk(parts, c, -1, &part_scratch)
                          : UnassignedChunk();
  };

  // Pass 1: the chunks whose placements, or the labels they were counted
  // under, changed since the previous snapshot.
  std::vector<DirtyChunk> dirty;
  size_t num_copies = 0;
  for (size_t c = 0; c < scan; ++c) {
    const bool placements_changed =
        std::memcmp(before_chunk(c), after_chunk(c), kChunkBytes) != 0;
    if (!placements_changed &&
        std::memcmp(LiveChunk(labels, c, Label{0}, &label_scratch),
                    counted_label_.data() + c * kPlacementChunk,
                    kChunkBytes) == 0) {
      continue;
    }
    const bool needs_copy = placements_changed && c < num_chunks;
    dirty.push_back({c, needs_copy});
    if (needs_copy) ++num_copies;
  }

  // Pass 2: share every clean chunk, copy the changed ones, and move the
  // label histogram by the difference of each changed vertex.
  snapshot->chunks.resize(num_chunks);
  for (size_t c = 0; c < num_chunks; ++c) snapshot->chunks[c] = before_chunk(c);
  snapshot->owned_chunks.resize(num_copies * kPlacementChunk);
  int32_t* next_copy = snapshot->owned_chunks.data();
  std::vector<uint32_t>& counts = snapshot->label_counts;
  const auto count_index = [&](int32_t part, Label label) {
    return static_cast<size_t>(part) * num_labels_ + label;
  };
  for (const DirtyChunk& d : dirty) {
    const int32_t* before = before_chunk(d.index);
    const int32_t* after = after_chunk(d.index);
    for (size_t i = 0; i < kPlacementChunk; ++i) {
      const size_t v = d.index * kPlacementChunk + i;
      const Label old_label = counted_label_[v];
      const Label new_label = v < label_of.size() ? label_of[v] : 0;
      counted_label_[v] = new_label;
      if (before[i] == after[i] && old_label == new_label) continue;
      if (before[i] >= 0 && old_label < num_labels_) {
        --counts[count_index(before[i], old_label)];
      }
      if (after[i] >= 0 && new_label < num_labels_) {
        ++counts[count_index(after[i], new_label)];
      }
    }
    if (d.needs_copy) {
      std::memcpy(next_copy, after, kChunkBytes);
      snapshot->chunks[d.index] = next_copy;
      next_copy += kPlacementChunk;
    }
  }
  previous_ = snapshot.get();
  return snapshot;
}

std::vector<uint32_t> TouchedPartitions(const PlacementSnapshot& snapshot,
                                        const LabeledGraph& query) {
  // The query's label set (small patterns: linear dedup is fine).
  std::vector<Label> labels;
  for (VertexId v = 0; v < query.NumVertices(); ++v) {
    const Label l = query.LabelOf(v);
    if (l < snapshot.num_labels &&
        std::find(labels.begin(), labels.end(), l) == labels.end()) {
      labels.push_back(l);
    }
  }

  std::vector<uint32_t> touched;
  touched.reserve(snapshot.k);
  for (uint32_t p = 0; p < snapshot.k; ++p) {
    const size_t base = static_cast<size_t>(p) * snapshot.num_labels;
    for (const Label l : labels) {
      if (snapshot.label_counts[base + l] > 0) {
        touched.push_back(p);
        break;
      }
    }
  }
  return touched;
}

}  // namespace loom
