#include "restream/restreamer.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <utility>
#include <vector>

#include "common/timer.h"
#include "stream/cluster_log.h"

namespace loom {

std::string RestreamOrderName(RestreamOrder order) {
  switch (order) {
    case RestreamOrder::kOriginal:
      return "original";
    case RestreamOrder::kRandom:
      return "random";
    case RestreamOrder::kGain:
      return "gain";
    case RestreamOrder::kAmbivalence:
      return "ambivalence";
    case RestreamOrder::kDecisive:
      return "decisive";
  }
  return "unknown";
}

Status ValidateRestreamOptions(const RestreamOptions& options) {
  if (options.num_passes == 0) {
    return Status::InvalidArgument("RestreamOptions.num_passes must be >= 1");
  }
  if (std::isnan(options.max_migration_fraction) ||
      options.max_migration_fraction < 0.0) {
    return Status::InvalidArgument(
        "RestreamOptions.max_migration_fraction must be a non-negative "
        "number");
  }
  return Status::OK();
}

RestreamOptions SanitizeRestreamOptions(RestreamOptions options) {
  if (options.num_passes < 1) options.num_passes = 1;
  if (std::isnan(options.max_migration_fraction) ||
      options.max_migration_fraction < 0.0) {
    options.max_migration_fraction = 0.0;
  }
  return options;
}

uint64_t MigrationBudgetMoves(const PartitionAssignment& prior,
                              double max_migration_fraction) {
  // NaN fails every comparison: without the explicit test it would fall
  // through to the cast below (undefined behaviour). Invalid input maps to
  // the conservative end — zero moves — never to an unbudgeted pass.
  if (std::isnan(max_migration_fraction)) return 0;
  if (max_migration_fraction >= 1.0) return Restreamer::kUnlimitedMoves;
  if (max_migration_fraction <= 0.0) return 0;
  return static_cast<uint64_t>(max_migration_fraction *
                               static_cast<double>(prior.NumAssigned()));
}

Restreamer::Restreamer(const GraphStream& stream,
                       const RestreamOptions& options)
    : stream_(&stream),
      graph_(GraphFromStream(stream)),
      options_(SanitizeRestreamOptions(options)),
      materializations_(1) {}  // the construction-time GraphFromStream

Restreamer::Restreamer(FileArrivalSource* file, const RestreamOptions& options)
    : file_(file), options_(SanitizeRestreamOptions(options)) {
  assert(file != nullptr);
  assert(file->info().has_full_neighborhoods &&
         "out-of-core restreaming needs a full-neighbourhood stream file");
}

namespace {

// Pass-one view of a stream file: sequential back-edge arrivals, owning its
// own cursor position so concurrent Restreamer drivers never fight over the
// file's. Also the exactly-once edge sweep behind the out-of-core cut.
class FileBackCursor : public ArrivalSource {
 public:
  explicit FileBackCursor(const FileArrivalSource& file) : file_(&file) {}

  bool Next(ArrivalView* out) override {
    if (pos_ >= file_->NumVertices()) return false;
    const FileArrivalSource::Record record = file_->At(pos_++);
    out->vertex = record.vertex;
    out->label = record.label;
    out->back_edges = record.back_edges;
    return true;
  }
  void Reset() override { pos_ = 0; }
  uint64_t NumVertices() const override { return file_->NumVertices(); }
  uint64_t NumEdges() const override { return file_->NumEdges(); }

 private:
  const FileArrivalSource* file_;
  uint64_t pos_ = 0;
};

// Pass >= 2 replay over the materialised adjacency: yields `perm`'s vertices
// with their full neighbourhoods straight out of the graph — the borrowing
// cursor that replaced the per-pass GraphStream copy.
class GraphReplayCursor : public ArrivalSource {
 public:
  GraphReplayCursor(const LabeledGraph& graph,
                    const std::vector<VertexId>& perm, uint64_t num_edges)
      : graph_(&graph), perm_(&perm), num_edges_(num_edges) {}

  bool Next(ArrivalView* out) override {
    if (pos_ >= perm_->size()) return false;
    const VertexId v = (*perm_)[pos_++];
    out->vertex = v;
    out->label = graph_->LabelOf(v);
    out->back_edges = Span<const VertexId>(graph_->Neighbors(v).data(),
                                           graph_->Neighbors(v).size());
    return true;
  }
  void Reset() override { pos_ = 0; }
  uint64_t NumVertices() const override { return perm_->size(); }
  uint64_t NumEdges() const override { return num_edges_; }

 private:
  const LabeledGraph* graph_;
  const std::vector<VertexId>* perm_;
  uint64_t num_edges_;
  uint64_t pos_ = 0;
};

// Pass >= 2 replay straight out of the mapping: `perm`'s vertices with their
// full on-disk neighbourhoods, located through the vertex -> arrival-index
// map. O(1) state; the file's madvise budget bounds residency.
class FileReplayCursor : public ArrivalSource {
 public:
  FileReplayCursor(const FileArrivalSource& file,
                   const std::vector<VertexId>& perm,
                   const std::vector<uint32_t>& index_of_vertex)
      : file_(&file), perm_(&perm), index_of_vertex_(&index_of_vertex) {}

  bool Next(ArrivalView* out) override {
    if (pos_ >= perm_->size()) return false;
    const VertexId v = (*perm_)[pos_++];
    const FileArrivalSource::Record record =
        file_->At((*index_of_vertex_)[v]);
    out->vertex = record.vertex;
    out->label = record.label;
    out->back_edges = record.full_edges;
    return true;
  }
  void Reset() override { pos_ = 0; }
  uint64_t NumVertices() const override { return perm_->size(); }
  uint64_t NumEdges() const override { return file_->NumEdges(); }

 private:
  const FileArrivalSource* file_;
  const std::vector<VertexId>* perm_;
  const std::vector<uint32_t>* index_of_vertex_;
  uint64_t pos_ = 0;
};

// Sorts `perm` ascending by (key[v], v) — the order a stable comparison
// sort by that pair gives, a vertex listed twice kept twice — by counting
// sort in O(|perm| + |key| + max |key|). Every listed vertex is below
// key.size(). Scanning ids in ascending order inside each key bucket is
// the id tie-break.
void SortByKeyThenId(const std::vector<int32_t>& key,
                     std::vector<VertexId>* perm) {
  int32_t max_key = 0;
  for (const int32_t k : key) max_key = std::max(max_key, std::abs(k));
  std::vector<uint32_t> copies(key.size(), 0);
  for (const VertexId v : *perm) ++copies[v];
  // next[b] starts as the first output slot of bucket b = key + max_key.
  std::vector<size_t> next(2 * static_cast<size_t>(max_key) + 2, 0);
  for (VertexId v = 0; v < key.size(); ++v) {
    next[static_cast<size_t>(key[v] + max_key) + 1] += copies[v];
  }
  for (size_t b = 1; b < next.size(); ++b) next[b] += next[b - 1];
  for (VertexId v = 0; v < key.size(); ++v) {
    size_t& slot = next[static_cast<size_t>(key[v] + max_key)];
    for (uint32_t c = 0; c < copies[v]; ++c) (*perm)[slot++] = v;
  }
}

}  // namespace

std::vector<VertexId> Restreamer::PassOrder(RestreamOrder order,
                                            const PartitionAssignment& prior,
                                            Rng& rng) const {
  std::vector<VertexId> perm;
  if (OutOfCore()) {
    perm.reserve(file_->NumVertices());
    for (uint64_t i = 0; i < file_->NumVertices(); ++i) {
      perm.push_back(file_->At(i).vertex);
    }
  } else {
    perm.reserve(stream_->NumVertices());
    for (const VertexArrival& a : stream_->arrivals()) {
      perm.push_back(a.vertex);
    }
  }

  switch (order) {
    case RestreamOrder::kOriginal:
      return perm;
    case RestreamOrder::kRandom:
      rng.Shuffle(&perm);
      return perm;
    case RestreamOrder::kGain:
    case RestreamOrder::kAmbivalence:
    case RestreamOrder::kDecisive:
      break;
  }

  // Prioritized restreaming: gain(v) = edges to v's prior partition minus
  // edges to its best alternative, over the full (known) neighbourhood. The
  // sort key is an integer in [-max_degree, max_degree].
  const uint32_t k = prior.k();
  const auto gain_key = [order](int32_t gain) {
    // Sort key ascending: descending gain, ascending ambivalence, or
    // descending decisiveness (= |gain|).
    switch (order) {
      case RestreamOrder::kGain:
        return -gain;
      case RestreamOrder::kAmbivalence:
        return std::abs(gain);
      case RestreamOrder::kDecisive:
        return -std::abs(gain);
      case RestreamOrder::kOriginal:
      case RestreamOrder::kRandom:
        break;  // unreachable: both returned above
    }
    return 0;
  };
  const auto scored_gain = [&prior, k](VertexId v,
                                       Span<const VertexId> neighbors,
                                       std::vector<uint32_t>& counts) {
    std::fill(counts.begin(), counts.end(), 0);
    for (const VertexId w : neighbors) {
      const int32_t p = prior.PartOf(w);
      if (p >= 0) ++counts[static_cast<uint32_t>(p)];
    }
    const int32_t home = prior.PartOf(v);
    uint32_t stay = 0;
    uint32_t best_other = 0;
    for (uint32_t p = 0; p < k; ++p) {
      if (static_cast<int32_t>(p) == home) {
        stay = counts[p];
      } else {
        best_other = std::max(best_other, counts[p]);
      }
    }
    return static_cast<int32_t>(stay) - static_cast<int32_t>(best_other);
  };

  std::vector<int32_t> key;
  std::vector<uint32_t> counts(k, 0);
  if (OutOfCore()) {
    // One sequential sweep of the full-neighbourhood records; O(V) keys and
    // O(k) scratch, never the adjacency.
    key.assign(file_->IdBound(), 0);
    for (uint64_t i = 0; i < file_->NumVertices(); ++i) {
      const FileArrivalSource::Record record = file_->At(i);
      key[record.vertex] =
          gain_key(scored_gain(record.vertex, record.full_edges, counts));
    }
  } else {
    key.assign(graph_.NumVertices(), 0);
    for (VertexId v = 0; v < graph_.NumVertices(); ++v) {
      const std::vector<VertexId>& neighbors = graph_.Neighbors(v);
      key[v] = gain_key(scored_gain(
          v, Span<const VertexId>(neighbors.data(), neighbors.size()),
          counts));
    }
  }
  SortByKeyThenId(key, &perm);
  return perm;
}

const std::vector<uint32_t>& Restreamer::FileIndexOfVertex() const {
  if (file_index_of_vertex_.empty() && file_->NumVertices() > 0) {
    file_index_of_vertex_.assign(file_->IdBound(), ~uint32_t{0});
    for (uint64_t i = 0; i < file_->NumVertices(); ++i) {
      file_index_of_vertex_[file_->At(i).vertex] = static_cast<uint32_t>(i);
    }
  }
  return file_index_of_vertex_;
}

double Restreamer::CutFraction(const PartitionAssignment& a) const {
  if (!OutOfCore()) return EdgeCutFraction(graph_, a);
  FileBackCursor cursor(*file_);
  return EdgeCutFraction(cursor, a);
}

GraphStream Restreamer::ReplayStream(RestreamOrder order,
                                     const PartitionAssignment& prior,
                                     Rng& rng) const {
  const std::vector<VertexId> perm = PassOrder(order, prior, rng);
  std::vector<VertexArrival> arrivals(perm.size());
  ++materializations_;
  // Restream passes know the whole graph: each arrival carries the full
  // neighbourhood, and scores fall through to the prior for neighbours not
  // yet re-assigned this pass.
  if (OutOfCore()) {
    const std::vector<uint32_t>& index_of = FileIndexOfVertex();
    for (size_t i = 0; i < perm.size(); ++i) {
      const FileArrivalSource::Record record = file_->At(index_of[perm[i]]);
      arrivals[i].vertex = record.vertex;
      arrivals[i].label = record.label;
      arrivals[i].back_edges.assign(record.full_edges.begin(),
                                    record.full_edges.end());
    }
  } else {
    for (size_t i = 0; i < perm.size(); ++i) {
      const VertexId v = perm[i];
      arrivals[i].vertex = v;
      arrivals[i].label = graph_.LabelOf(v);
      arrivals[i].back_edges = graph_.Neighbors(v);
    }
  }
  return GraphStream(std::move(arrivals));
}

void Restreamer::Replay(StreamingPartitioner* partitioner,
                        const std::vector<VertexId>& perm) const {
  if (OutOfCore()) {
    FileReplayCursor cursor(*file_, perm, FileIndexOfVertex());
    partitioner->Run(cursor);
  } else {
    GraphReplayCursor cursor(graph_, perm, graph_.NumEdges());
    partitioner->Run(cursor);
  }
}

RestreamPassStats Restreamer::PassStats(
    uint32_t pass, double seconds, const StreamingPartitioner& partitioner,
    const PartitionAssignment* prior) const {
  const PartitionAssignment& a = partitioner.assignment();
  const PartitionerStats& stats = partitioner.stats();
  RestreamPassStats s;
  s.pass = pass;
  s.seconds = seconds;
  s.edge_cut_fraction = s.best_edge_cut_fraction = CutFraction(a);
  s.balance = BalanceMaxOverAvg(a);
  s.migration_fraction = prior ? MigrationFraction(*prior, a) : 0.0;
  s.overflow_fallbacks = stats.overflow_fallbacks;
  s.forced_placements = stats.forced_placements;
  s.assign_errors = stats.assign_errors;
  s.budget_denied_moves = stats.budget_denied_moves;
  return s;
}

RestreamPassStats Restreamer::RunIncrementalPass(
    StreamingPartitioner* partitioner, const PartitionAssignment& prior,
    uint64_t max_moves) const {
  Rng rng(options_.seed);
  WallTimer timer;
  // The replay ordering is part of the reaction latency: an incremental pass
  // is judged end-to-end, ordering included.
  const std::vector<VertexId> perm = PassOrder(options_.order, prior, rng);
  partitioner->BeginPass(&prior);
  partitioner->SetMigrationBudget(max_moves);
  Replay(partitioner, perm);
  partitioner->ClearPrior();
  return PassStats(1, timer.ElapsedSeconds(), *partitioner, &prior);
}

RestreamResult Restreamer::Run(StreamingPartitioner* partitioner) const {
  Rng rng(options_.seed);
  RestreamResult result;

  PartitionAssignment prior{1, 0};
  PartitionAssignment best{1, 0};
  double best_cut = std::numeric_limits<double>::infinity();

  const uint32_t passes = std::max<uint32_t>(1, options_.num_passes);
  // Cluster memoization: ask the partitioner to log its unit decomposition;
  // partitioners without the hook return no log and the whole feature
  // degrades to a no-op. Logging stays off for single-pass runs — the hot
  // path pays nothing.
  const bool want_memo = options_.memoize_clusters && passes > 1;
  if (want_memo) partitioner->SetClusterLogging(true);
  const bool memoize = want_memo && partitioner->cluster_log() != nullptr;
  // The previous pass's log (copied out before BeginPass resets the live
  // one) and the memo over it; both must outlive the pass that replays them.
  ClusterLog prev_log;
  ClusterMemo memo;

  for (uint32_t pass = 1; pass <= passes; ++pass) {
    std::vector<VertexId> perm;
    if (pass == 1) {
      partitioner->BeginPass(nullptr);
    } else {
      perm = PassOrder(options_.order, prior, rng);
      if (memoize) {
        partitioner->TakeClusterLog(&prev_log);
        // The final pass's log has no consumer — skip recording it, which
        // keeps the peak at one retained log plus one being recorded.
        partitioner->SetClusterLogging(pass < passes);
      }
      partitioner->BeginPass(&prior);
      if (memoize && prev_log.NumUnits() > 0) {
        memo = ClusterMemo(&prev_log);
        // Hoist each recalled unit's members to its first member's stream
        // position, so the unit arrives contiguously and can be scored as
        // one buffered group.
        perm = GroupPermByUnits(perm, memo);
        partitioner->SetClusterMemo(&memo);
      }
      partitioner->SetMigrationBudget(
          MigrationBudgetMoves(prior, options_.max_migration_fraction));
    }

    WallTimer timer;
    // Pass one streams the recorded arrivals (back edges only); later
    // passes replay full neighbourhoods, with no per-pass stream copy.
    if (pass > 1) {
      Replay(partitioner, perm);
    } else if (OutOfCore()) {
      FileBackCursor cursor(*file_);
      partitioner->Run(cursor);
    } else {
      partitioner->Run(*stream_);
    }

    RestreamPassStats s = PassStats(pass, timer.ElapsedSeconds(), *partitioner,
                                    pass == 1 ? nullptr : &prior);
    if (s.edge_cut_fraction <= best_cut) {
      best_cut = s.edge_cut_fraction;
      best = partitioner->assignment();
    }
    s.best_edge_cut_fraction = best_cut;
    result.passes.push_back(s);

    prior = options_.keep_best ? best : partitioner->assignment();
  }
  // `prior`, `prev_log` and `memo` die with this call; the partitioner must
  // not keep pointing at any of them, and logging is switched back off so
  // later single-pass uses pay nothing.
  partitioner->SetClusterMemo(nullptr);
  if (want_memo) partitioner->SetClusterLogging(false);
  partitioner->ClearPrior();

  if (options_.keep_best) {
    result.assignment = best;
    result.edge_cut_fraction = best_cut;
  } else {
    result.assignment = partitioner->assignment();
    result.edge_cut_fraction = result.passes.back().edge_cut_fraction;
  }
  return result;
}

}  // namespace loom
