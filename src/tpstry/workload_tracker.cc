#include "tpstry/workload_tracker.h"

#include <algorithm>
#include <utility>

#include "common/hash.h"
#include "motif/canonical.h"

namespace loom {

MotifDistribution MotifDistributionOf(const TpstryPP& trie) {
  MotifDistribution dist;
  dist.reserve(trie.NumNodes());
  double total = 0.0;
  for (TpstryNodeId id = 0; id < trie.NumNodes(); ++id) {
    const TpstryNode& node = trie.node(id);
    if (node.support <= 0.0) continue;
    dist.push_back({Fnv1a64(node.canonical), node.support});
    total += node.support;
  }
  if (total <= 0.0) return {};
  for (MotifSupport& m : dist) m.probability /= total;
  std::sort(dist.begin(), dist.end(),
            [](const MotifSupport& a, const MotifSupport& b) {
              return a.canonical_hash < b.canonical_hash;
            });
  return dist;
}

WorkloadTracker::WorkloadTracker(uint32_t num_labels,
                                 const WorkloadTrackerOptions& options)
    : options_(options), trie_(num_labels) {
  if (options_.window_queries == 0) options_.window_queries = 1;
}

Status WorkloadTracker::Observe(const LabeledGraph& query) {
  // The DAG only grows, so a query isomorphic to one already woven touches
  // the same nodes: replaying its +1 support delta equals AddQuery exactly.
  Result<std::string> key = CanonicalForm(query);
  const auto memo =
      key.ok() ? touched_by_class_.find(*key) : touched_by_class_.end();
  std::vector<TpstryNodeId> touched;
  if (memo != touched_by_class_.end()) {
    touched = memo->second;
    trie_.ApplySupportDelta(touched, 1.0);
  } else {
    LOOM_RETURN_IF_ERROR(
        trie_.AddQuery(query, 1.0, options_.paths_only, &touched));
    if (key.ok()) touched_by_class_.emplace(std::move(*key), touched);
  }
  window_.push_back(std::move(touched));
  ++num_observed_;
  while (window_.size() > options_.window_queries) {
    trie_.ApplySupportDelta(window_.front(), -1.0);
    window_.pop_front();
  }
  return Status::OK();
}

TpstryPP WorkloadTracker::Snapshot() const {
  TpstryPP copy = trie_;
  copy.Normalize();
  return copy;
}

MotifDistribution WorkloadTracker::SupportDistribution() const {
  return MotifDistributionOf(trie_);
}

}  // namespace loom
