// Tests for the restreaming/repartitioning subsystem: replay-stream
// construction, ReLDG prior semantics, the anytime (monotone best-cut)
// contract over the benchmark graph families for ldg/fennel/loom,
// migration-cost accounting, and the budgeted incremental pass's contract
// for every vertex partitioner.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/loom.h"
#include "graph/generators.h"
#include "graph/io.h"
#include "metrics/metrics.h"
#include "partition/buffered_ldg_partitioner.h"
#include "partition/fennel_partitioner.h"
#include "partition/hash_partitioner.h"
#include "partition/ldg_partitioner.h"
#include "restream/restreamer.h"
#include "stream/stream.h"
#include "workload/query_builders.h"

namespace loom {
namespace {

PartitionerOptions Opts(uint32_t k, size_t n, size_t m = 0,
                        double slack = 1.1) {
  PartitionerOptions o;
  o.k = k;
  o.num_vertices_hint = n;
  o.num_edges_hint = m;
  o.capacity_slack = slack;
  return o;
}

TEST(GraphFromStreamTest, RoundTripsVerticesEdgesAndLabels) {
  Rng rng(11);
  const LabeledGraph g = ErdosRenyiGnm(200, 600, LabelConfig{3, 0.0}, rng);
  const GraphStream stream = MakeStream(g, StreamOrder::kRandom, rng);
  const LabeledGraph back = GraphFromStream(stream);
  ASSERT_EQ(back.NumVertices(), g.NumVertices());
  EXPECT_EQ(back.NumEdges(), g.NumEdges());
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    EXPECT_EQ(back.LabelOf(v), g.LabelOf(v));
  }
  g.ForEachEdge([&](VertexId u, VertexId v) {
    EXPECT_TRUE(back.HasEdge(u, v)) << u << "-" << v;
  });
}

// GraphFromStream dedups with a stamp array and appends known-new edges; the
// reference adds every entry through AddEdge and ignores its refusals, as
// the function once did. Repeated back edges, a self-loop, a repeated
// arrival (with a new label), an edge to a vertex that never arrives and
// full-neighbourhood records must all give the same neighbour sequences.
TEST(GraphFromStreamTest, MatchesAnAddEdgeReferenceOnMessyStreams) {
  Rng rng(15);
  const LabeledGraph g = BarabasiAlbert(300, 3, LabelConfig{3, 0.0}, rng);
  const GraphStream back_edges = MakeStream(g, StreamOrder::kRandom, rng);

  std::vector<VertexArrival> full = back_edges.arrivals();
  for (VertexArrival& a : full) a.back_edges = g.Neighbors(a.vertex);

  std::vector<VertexArrival> messy = back_edges.arrivals();
  for (size_t i = 0; i < messy.size(); i += 7) {
    std::vector<VertexId>& edges = messy[i].back_edges;
    const std::vector<VertexId> copy = edges;
    edges.insert(edges.end(), copy.rbegin(), copy.rend());  // repeats
    edges.push_back(messy[i].vertex);                       // self-loop
  }
  messy[10].back_edges.push_back(messy[200].vertex);  // forward edge
  messy[20].back_edges.push_back(
      static_cast<VertexId>(g.NumVertices() + 4));  // never arrives
  VertexArrival again = messy[30];                   // repeated arrival
  again.label = 7;
  again.back_edges.push_back(messy[40].vertex);
  messy.push_back(again);

  const GraphStream streams[] = {back_edges, GraphStream(std::move(full)),
                                 GraphStream(std::move(messy))};
  for (const GraphStream& stream : streams) {
    LabeledGraph want;
    VertexId max_id = 0;
    for (const VertexArrival& a : stream.arrivals()) {
      max_id = std::max(max_id, a.vertex);
      for (const VertexId w : a.back_edges) max_id = std::max(max_id, w);
    }
    for (VertexId v = 0; v <= max_id; ++v) want.AddVertex(0);
    for (const VertexArrival& a : stream.arrivals()) {
      want.SetLabel(a.vertex, a.label);
      for (const VertexId w : a.back_edges) (void)want.AddEdge(a.vertex, w);
    }

    const LabeledGraph got = GraphFromStream(stream);
    ASSERT_EQ(got.NumVertices(), want.NumVertices());
    EXPECT_EQ(got.NumEdges(), want.NumEdges());
    EXPECT_EQ(got.NumLabels(), want.NumLabels());
    for (VertexId v = 0; v < want.NumVertices(); ++v) {
      EXPECT_EQ(got.LabelOf(v), want.LabelOf(v)) << "vertex " << v;
      ASSERT_EQ(got.Neighbors(v), want.Neighbors(v)) << "vertex " << v;
    }
  }
}

TEST(RestreamerTest, ReplayStreamCarriesFullNeighborhoodsOncePerVertex) {
  Rng rng(12);
  const LabeledGraph g = BarabasiAlbert(300, 3, LabelConfig{2, 0.0}, rng);
  const GraphStream stream = MakeStream(g, StreamOrder::kRandom, rng);
  const Restreamer restreamer(stream, RestreamOptions{});

  // A prior to prioritize against.
  LdgPartitioner ldg(Opts(4, g.NumVertices()));
  ldg.Run(stream);
  const PartitionAssignment prior = ldg.assignment();

  for (const RestreamOrder order :
       {RestreamOrder::kOriginal, RestreamOrder::kRandom, RestreamOrder::kGain,
        RestreamOrder::kAmbivalence}) {
    Rng order_rng(5);
    const GraphStream replay =
        restreamer.ReplayStream(order, prior, order_rng);
    ASSERT_EQ(replay.NumVertices(), g.NumVertices());
    std::set<VertexId> seen;
    size_t carried = 0;
    for (const VertexArrival& a : replay.arrivals()) {
      EXPECT_TRUE(seen.insert(a.vertex).second) << "duplicate arrival";
      EXPECT_EQ(a.back_edges.size(), g.Degree(a.vertex));
      carried += a.back_edges.size();
    }
    // Full neighbourhoods: every edge carried from both endpoints.
    EXPECT_EQ(carried, 2 * g.NumEdges());
  }
}

TEST(RestreamerTest, GainOrderingIsDeterministic) {
  Rng rng(13);
  const LabeledGraph g = WattsStrogatz(200, 3, 0.1, LabelConfig{2, 0.0}, rng);
  const GraphStream stream = MakeStream(g, StreamOrder::kRandom, rng);
  const Restreamer restreamer(stream, RestreamOptions{});
  LdgPartitioner ldg(Opts(4, g.NumVertices()));
  ldg.Run(stream);
  Rng r1(1), r2(1);
  const GraphStream a =
      restreamer.ReplayStream(RestreamOrder::kGain, ldg.assignment(), r1);
  const GraphStream b =
      restreamer.ReplayStream(RestreamOrder::kGain, ldg.assignment(), r2);
  for (size_t i = 0; i < a.arrivals().size(); ++i) {
    EXPECT_EQ(a.arrivals()[i].vertex, b.arrivals()[i].vertex);
  }
}

// The prioritized orders are a counting sort over integer gain keys; they
// must equal a stable comparison sort of the arrival order by (key, id)
// with double keys, as PassOrder once computed it. Low degree, small k and
// a partial prior make ties the rule; a repeated arrival is kept twice. The
// out-of-core Restreamer over the same stream gives the same order.
TEST(RestreamerTest, PrioritizedOrderIsTheStableSortByKeyThenId) {
  Rng rng(16);
  const LabeledGraph g = BarabasiAlbert(500, 2, LabelConfig{2, 0.0}, rng);
  const GraphStream stream = MakeStream(g, StreamOrder::kRandom, rng);
  std::vector<VertexArrival> repeated = stream.arrivals();
  repeated.push_back(repeated[123]);
  repeated.back().back_edges.clear();
  const GraphStream with_repeat(repeated);

  const uint32_t k = 3;
  PartitionAssignment prior(k, 0);
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    if (rng.Bernoulli(0.75)) {
      ASSERT_TRUE(
          prior.Assign(v, static_cast<uint32_t>(rng.UniformInt(0, k - 1)))
              .ok());
    }
  }
  std::vector<double> gain(g.NumVertices());
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    std::vector<uint32_t> counts(k, 0);
    for (const VertexId w : g.Neighbors(v)) {
      if (prior.PartOf(w) >= 0) ++counts[prior.PartOf(w)];
    }
    uint32_t stay = 0;
    uint32_t best_other = 0;
    for (uint32_t p = 0; p < k; ++p) {
      if (static_cast<int32_t>(p) == prior.PartOf(v)) {
        stay = counts[p];
      } else {
        best_other = std::max(best_other, counts[p]);
      }
    }
    gain[v] = static_cast<double>(stay) - static_cast<double>(best_other);
  }

  const std::string path =
      (std::filesystem::temp_directory_path() / "loom_pass_order.loomstrm")
          .string();
  ASSERT_TRUE(WriteStreamFile(stream, path).ok());
  auto file = FileArrivalSource::Open(path);
  ASSERT_TRUE(file.ok()) << file.status().ToString();

  for (const RestreamOrder order :
       {RestreamOrder::kGain, RestreamOrder::kAmbivalence,
        RestreamOrder::kDecisive}) {
    std::vector<double> key(g.NumVertices());
    for (VertexId v = 0; v < g.NumVertices(); ++v) {
      key[v] = order == RestreamOrder::kGain          ? -gain[v]
               : order == RestreamOrder::kAmbivalence ? std::fabs(gain[v])
                                                      : -std::fabs(gain[v]);
    }
    const auto reference = [&key](const GraphStream& s) {
      std::vector<VertexId> perm;
      for (const VertexArrival& a : s.arrivals()) perm.push_back(a.vertex);
      std::stable_sort(perm.begin(), perm.end(),
                       [&key](VertexId a, VertexId b) {
                         if (key[a] != key[b]) return key[a] < key[b];
                         return a < b;
                       });
      return perm;
    };
    const auto replayed = [&](const Restreamer& restreamer) {
      Rng order_rng(1);
      const GraphStream replay =
          restreamer.ReplayStream(order, prior, order_rng);
      std::vector<VertexId> perm;
      for (const VertexArrival& a : replay.arrivals()) perm.push_back(a.vertex);
      return perm;
    };
    const std::string name = RestreamOrderName(order);
    EXPECT_EQ(replayed(Restreamer(stream, {})), reference(stream)) << name;
    EXPECT_EQ(replayed(Restreamer(with_repeat, {})), reference(with_repeat))
        << name << ", repeated arrival";
    EXPECT_EQ(replayed(Restreamer(file->get(), {})), reference(stream))
        << name << ", out of core";
  }
  std::remove(path.c_str());
}

// The heart of ReLDG: a neighbour not yet re-assigned this pass scores with
// its prior-pass partition, so placement follows last pass's neighbourhood.
TEST(RestreamerTest, PriorPartitionAttractsUnassignedNeighbors) {
  // k=2, vertices 0..3, single edge {0,1}. Prior: 1 and 3 in partition 1,
  // 2 in partition 0. Pass two streams 0 first with its full neighbourhood
  // {1}: without the prior the score is all-zero (least-loaded -> p0); with
  // the prior, 1's last-pass placement pulls 0 into p1.
  LabeledGraph g;
  for (int i = 0; i < 4; ++i) g.AddVertex(0);
  g.AddEdgeUnchecked(0, 1);

  PartitionAssignment prior(2, /*capacity=*/2);
  ASSERT_TRUE(prior.Assign(1, 1).ok());
  ASSERT_TRUE(prior.Assign(3, 1).ok());
  ASSERT_TRUE(prior.Assign(2, 0).ok());

  LdgPartitioner ldg(Opts(2, 4, 0, /*slack=*/1.0));
  ldg.BeginPass(&prior);
  ldg.OnVertex(0, 0, {1});
  EXPECT_EQ(ldg.assignment().PartOf(0), 1);
  ldg.ClearPrior();

  LdgPartitioner fresh(Opts(2, 4, 0, /*slack=*/1.0));
  fresh.OnVertex(0, 0, {1});
  EXPECT_EQ(fresh.assignment().PartOf(0), 0);
}

TEST(RestreamerTest, BeginPassResetsToSinglePassBehavior) {
  Rng rng(14);
  const LabeledGraph g = BarabasiAlbert(400, 3, LabelConfig{3, 0.0}, rng);
  const GraphStream stream = MakeStream(g, StreamOrder::kRandom, rng);

  FennelPartitioner reused(Opts(4, g.NumVertices(), g.NumEdges()));
  reused.Run(stream);
  reused.BeginPass(nullptr);
  EXPECT_EQ(reused.assignment().NumAssigned(), 0u);
  EXPECT_EQ(reused.stats().overflow_fallbacks, 0u);
  reused.Run(stream);

  FennelPartitioner fresh(Opts(4, g.NumVertices(), g.NumEdges()));
  fresh.Run(stream);
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    EXPECT_EQ(reused.assignment().PartOf(v), fresh.assignment().PartOf(v));
  }
}

// Anytime contract on the BENCH_edge_cut.json graph families: three passes
// never end above the single-pass cut, the best-cut trajectory is monotone
// non-increasing, every pass assigns every vertex within the capacity bound,
// and migration is a sane fraction.
class RestreamQuality
    : public ::testing::TestWithParam<std::tuple<int, RestreamOrder>> {};

LabeledGraph FamilyGraph(int family, Rng& rng) {
  return family == 0 ? ErdosRenyiGnm(1200, 4800, LabelConfig{4, 0.3}, rng)
                     : BarabasiAlbert(1200, 4, LabelConfig{4, 0.3}, rng);
}

void CheckRestream(const LabeledGraph& g, const GraphStream& stream,
                   StreamingPartitioner* p, RestreamOrder order) {
  const uint32_t k = p->options().k;
  RestreamOptions ropts;
  ropts.num_passes = 3;
  ropts.order = order;
  const Restreamer restreamer(stream, ropts);

  const RestreamResult r = restreamer.Run(p);
  ASSERT_EQ(r.passes.size(), 3u);

  const size_t cap = ComputeCapacity(k, g.NumVertices(), 1.1);
  double prev_best = 1.0;
  for (const RestreamPassStats& s : r.passes) {
    EXPECT_LE(s.best_edge_cut_fraction, prev_best) << "pass " << s.pass;
    prev_best = s.best_edge_cut_fraction;
    EXPECT_GE(s.migration_fraction, 0.0);
    EXPECT_LE(s.migration_fraction, 1.0);
    EXPECT_EQ(s.forced_placements, 0u) << "pass " << s.pass;
  }
  EXPECT_EQ(r.passes[0].migration_fraction, 0.0);

  // Final result: never above single-pass (pass 1) quality, every vertex
  // assigned, balance within the capacity bound.
  EXPECT_LE(r.edge_cut_fraction, r.passes[0].edge_cut_fraction);
  EXPECT_EQ(r.assignment.NumAssigned(), g.NumVertices());
  EXPECT_TRUE(AllAssigned(g, r.assignment));
  for (const uint32_t size : r.assignment.Sizes()) EXPECT_LE(size, cap);

  // The partitioner itself holds the last pass, also complete.
  EXPECT_EQ(p->assignment().NumAssigned(), g.NumVertices());
}

TEST_P(RestreamQuality, LdgImprovesOrEqual) {
  const auto [family, order] = GetParam();
  Rng rng(21);
  const LabeledGraph g = FamilyGraph(family, rng);
  const GraphStream stream = MakeStream(g, StreamOrder::kRandom, rng);
  LdgPartitioner p(Opts(8, g.NumVertices(), g.NumEdges()));
  CheckRestream(g, stream, &p, order);
}

TEST_P(RestreamQuality, FennelImprovesOrEqual) {
  const auto [family, order] = GetParam();
  Rng rng(22);
  const LabeledGraph g = FamilyGraph(family, rng);
  const GraphStream stream = MakeStream(g, StreamOrder::kRandom, rng);
  FennelPartitioner p(Opts(8, g.NumVertices(), g.NumEdges()));
  CheckRestream(g, stream, &p, order);
}

TEST_P(RestreamQuality, LoomImprovesOrEqual) {
  const auto [family, order] = GetParam();
  Rng rng(23);
  // Labels must stay inside the workload's label universe (3 labels here).
  LabeledGraph g =
      family == 0 ? ErdosRenyiGnm(1200, 4800, LabelConfig{3, 0.2}, rng)
                  : BarabasiAlbert(1200, 4, LabelConfig{3, 0.2}, rng);
  PlantMotifs(&g, TriangleQuery(0, 1, 2), 30, rng, /*locality_span=*/16);
  const GraphStream stream = MakeStream(g, StreamOrder::kRandom, rng);

  Workload w;
  ASSERT_TRUE(w.Add("tri", TriangleQuery(0, 1, 2), 1.0).ok());
  ASSERT_TRUE(w.Add("ab", PathQuery({0, 1}), 1.0).ok());
  w.Normalize();
  LoomOptions o;
  o.partitioner = Opts(8, g.NumVertices(), g.NumEdges());
  o.partitioner.window_size = 64;
  o.matcher.frequency_threshold = 0.4;
  auto loom = Loom::Create(w, o);
  ASSERT_TRUE(loom.ok());
  CheckRestream(g, stream, &(*loom)->Partitioner(), order);
}

INSTANTIATE_TEST_SUITE_P(
    Families, RestreamQuality,
    ::testing::Combine(::testing::Values(0, 1),
                       ::testing::Values(RestreamOrder::kGain,
                                         RestreamOrder::kAmbivalence,
                                         RestreamOrder::kOriginal)));

TEST(RestreamerTest, MigrationFractionMatchesManualCount) {
  Rng rng(24);
  const LabeledGraph g = ErdosRenyiGnm(500, 1500, LabelConfig{2, 0.0}, rng);
  const GraphStream stream = MakeStream(g, StreamOrder::kRandom, rng);
  RestreamOptions ropts;
  ropts.num_passes = 2;
  ropts.order = RestreamOrder::kGain;
  const Restreamer restreamer(stream, ropts);

  LdgPartitioner first(Opts(4, g.NumVertices()));
  first.Run(stream);
  const PartitionAssignment pass1 = first.assignment();

  LdgPartitioner p(Opts(4, g.NumVertices()));
  const RestreamResult r = restreamer.Run(&p);
  // Pass one is deterministic, so the driver's pass-one assignment is
  // `pass1`; its reported migration for pass two must match a manual count.
  size_t moved = 0;
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    if (p.assignment().PartOf(v) != pass1.PartOf(v)) ++moved;
  }
  EXPECT_DOUBLE_EQ(
      r.passes[1].migration_fraction,
      static_cast<double>(moved) / static_cast<double>(g.NumVertices()));
}

// Restreaming an over-capacity stream must still never drop a vertex: the
// overflow fallback and the prior hook compose.
TEST(RestreamerTest, OverfullStreamRestreamsWithoutDrops) {
  Rng rng(25);
  const LabeledGraph g = BarabasiAlbert(600, 3, LabelConfig{2, 0.0}, rng);
  const GraphStream stream = MakeStream(g, StreamOrder::kRandom, rng);
  // Capacity sized for half the stream: k*C < n on every pass.
  PartitionerOptions o = Opts(4, g.NumVertices() / 2, 0, /*slack=*/1.0);
  LdgPartitioner p(o);
  RestreamOptions ropts;
  ropts.num_passes = 3;
  const Restreamer restreamer(stream, ropts);
  const RestreamResult r = restreamer.Run(&p);
  for (const RestreamPassStats& s : r.passes) {
    EXPECT_GT(s.forced_placements, 0u);
  }
  EXPECT_EQ(r.assignment.NumAssigned(), g.NumVertices());
  EXPECT_TRUE(AllAssigned(g, r.assignment));

  // The same overfull prior through one budgeted, decisiveness-ordered
  // incremental pass (the drift reaction's form): still no drops, and the
  // forced placements are counted rather than failing an Assign.
  RestreamOptions incremental;
  incremental.order = RestreamOrder::kDecisive;
  const Restreamer reactor(stream, incremental);
  LdgPartitioner live(o);
  live.Run(stream);
  const PartitionAssignment prior = live.assignment();
  const RestreamPassStats pass = reactor.RunIncrementalPass(
      &live, prior, MigrationBudgetMoves(prior, 0.2));
  EXPECT_GT(pass.forced_placements, 0u);
  EXPECT_EQ(pass.assign_errors, 0u);
  EXPECT_EQ(live.assignment().NumAssigned(), g.NumVertices());
  EXPECT_TRUE(AllAssigned(g, live.assignment()));
}

TEST(RestreamOptionsValidationTest, ClampsPassesAndRejectsInvalidBudgets) {
  RestreamOptions zero_passes;
  zero_passes.num_passes = 0;
  EXPECT_EQ(SanitizeRestreamOptions(zero_passes).num_passes, 1u);

  RestreamOptions nan_budget;
  nan_budget.max_migration_fraction = std::nan("");
  EXPECT_EQ(SanitizeRestreamOptions(nan_budget).max_migration_fraction, 0.0);

  RestreamOptions negative_budget;
  negative_budget.max_migration_fraction = -0.5;
  EXPECT_EQ(SanitizeRestreamOptions(negative_budget).max_migration_fraction,
            0.0);

  // MigrationBudgetMoves itself must never turn NaN into an unbudgeted
  // pass (the pre-fix behaviour cast NaN — undefined behaviour).
  PartitionAssignment prior(2, 10);
  ASSERT_TRUE(prior.Assign(0, 0).ok());
  ASSERT_TRUE(prior.Assign(1, 1).ok());
  EXPECT_EQ(MigrationBudgetMoves(prior, std::nan("")), 0u);
  EXPECT_EQ(MigrationBudgetMoves(prior, -1.0), 0u);
}

TEST(RestreamOptionsValidationTest, RestreamerSanitizesOnConstruction) {
  Rng rng(61);
  const LabeledGraph g = ErdosRenyiGnm(300, 900, LabelConfig{2, 0.0}, rng);
  const GraphStream stream = MakeStream(g, StreamOrder::kRandom, rng);

  // num_passes = 0 still runs one pass; a NaN budget freezes migration on
  // the prior-bearing passes instead of silently unbudgeting them.
  RestreamOptions ropts;
  ropts.num_passes = 0;
  LdgPartitioner one_pass(Opts(4, g.NumVertices()));
  const RestreamResult r = Restreamer(stream, ropts).Run(&one_pass);
  EXPECT_EQ(r.passes.size(), 1u);

  RestreamOptions nan_opts;
  nan_opts.num_passes = 2;
  nan_opts.max_migration_fraction = std::nan("");
  LdgPartitioner frozen(Opts(4, g.NumVertices()));
  const RestreamResult rf = Restreamer(stream, nan_opts).Run(&frozen);
  ASSERT_EQ(rf.passes.size(), 2u);
  EXPECT_EQ(rf.passes[1].migration_fraction, 0.0);
}

// ---------------------------------------------------------------------------
// The budgeted incremental pass (the drift reaction's unit of work), checked
// for every vertex partitioner.

enum class PartitionerKind { kHash, kLdg, kFennel, kBufferedLdg, kLoom };

std::string KindName(const ::testing::TestParamInfo<PartitionerKind>& info) {
  switch (info.param) {
    case PartitionerKind::kHash:
      return "Hash";
    case PartitionerKind::kLdg:
      return "Ldg";
    case PartitionerKind::kFennel:
      return "Fennel";
    case PartitionerKind::kBufferedLdg:
      return "BufferedLdg";
    case PartitionerKind::kLoom:
      return "Loom";
  }
  return "Unknown";
}

// A partitioner of one kind. LOOM's partitioner lives inside its facade,
// which `loom` keeps alive.
struct MadePartitioner {
  std::unique_ptr<StreamingPartitioner> owned;
  std::unique_ptr<Loom> loom;

  StreamingPartitioner* get() const {
    return loom ? &loom->Partitioner() : owned.get();
  }
};

MadePartitioner MakeOfKind(PartitionerKind kind, const LabeledGraph& g) {
  const PartitionerOptions popts = Opts(6, g.NumVertices(), g.NumEdges());
  MadePartitioner made;
  switch (kind) {
    case PartitionerKind::kHash:
      made.owned = std::make_unique<HashPartitioner>(popts);
      break;
    case PartitionerKind::kLdg:
      made.owned = std::make_unique<LdgPartitioner>(popts);
      break;
    case PartitionerKind::kFennel:
      made.owned = std::make_unique<FennelPartitioner>(popts);
      break;
    case PartitionerKind::kBufferedLdg:
      made.owned = std::make_unique<BufferedLdgPartitioner>(popts);
      break;
    case PartitionerKind::kLoom: {
      Workload w;
      EXPECT_TRUE(w.Add("tri", TriangleQuery(0, 1, 2), 1.0).ok());
      EXPECT_TRUE(w.Add("ab", PathQuery({0, 1}), 1.0).ok());
      w.Normalize();
      LoomOptions o;
      o.partitioner = popts;
      o.partitioner.window_size = 64;
      o.matcher.frequency_threshold = 0.4;
      auto created = Loom::Create(w, o);
      EXPECT_TRUE(created.ok());
      made.loom = std::move(created).value();
      break;
    }
  }
  return made;
}

void ExpectSameAssignment(const PartitionAssignment& a,
                          const PartitionAssignment& b) {
  const size_t bound = std::max(a.IdBound(), b.IdBound());
  for (VertexId v = 0; v < bound; ++v) {
    ASSERT_EQ(a.PartOf(v), b.PartOf(v)) << "vertex " << v;
  }
  EXPECT_EQ(a.Sizes(), b.Sizes());
  EXPECT_EQ(a.NumAssigned(), b.NumAssigned());
}

class IncrementalPassTest : public ::testing::TestWithParam<PartitionerKind> {
 protected:
  IncrementalPassTest()
      : rng_(41),
        g_(MotifGraph(rng_)),
        stream_(MakeStream(g_, StreamOrder::kRandom, rng_)) {
    options_.order = RestreamOrder::kDecisive;
  }

  // Planted triangles give LOOM motif clusters to re-score.
  static LabeledGraph MotifGraph(Rng& rng) {
    LabeledGraph g = BarabasiAlbert(900, 4, LabelConfig{3, 0.2}, rng);
    PlantMotifs(&g, TriangleQuery(0, 1, 2), 24, rng, /*locality_span=*/16);
    return g;
  }

  // A partitioner of the parameter's kind after one single pass: the live
  // state a drift reaction starts from.
  MadePartitioner Live() const {
    MadePartitioner made = MakeOfKind(GetParam(), g_);
    made.get()->Run(stream_);
    return made;
  }

  Rng rng_;
  LabeledGraph g_;
  GraphStream stream_;
  RestreamOptions options_;
};

// The pass is exactly the public lifecycle driven over ReplayStream's
// ordering: BeginPass(&prior), SetMigrationBudget, Run, ClearPrior.
TEST_P(IncrementalPassTest, MatchesAManualReplayOfReplayStream) {
  const Restreamer restreamer(stream_, options_);
  const MadePartitioner live = Live();
  const PartitionAssignment prior = live.get()->assignment();
  const uint64_t budget = MigrationBudgetMoves(prior, 0.2);
  const RestreamPassStats stats =
      restreamer.RunIncrementalPass(live.get(), prior, budget);

  const MadePartitioner manual = Live();
  Rng order_rng(options_.seed);
  const GraphStream replay =
      restreamer.ReplayStream(options_.order, prior, order_rng);
  manual.get()->BeginPass(&prior);
  manual.get()->SetMigrationBudget(budget);
  manual.get()->Run(replay);
  manual.get()->ClearPrior();

  ExpectSameAssignment(live.get()->assignment(), manual.get()->assignment());
  const PartitionerStats& want = manual.get()->stats();
  EXPECT_EQ(stats.overflow_fallbacks, want.overflow_fallbacks);
  EXPECT_EQ(stats.forced_placements, want.forced_placements);
  EXPECT_EQ(stats.assign_errors, want.assign_errors);
  EXPECT_EQ(stats.budget_denied_moves, want.budget_denied_moves);
}

TEST_P(IncrementalPassTest, DeterministicAcrossRepeatedRuns) {
  const Restreamer restreamer(stream_, options_);
  const MadePartitioner first = Live();
  const MadePartitioner second = Live();
  const PartitionAssignment prior = first.get()->assignment();
  ExpectSameAssignment(prior, second.get()->assignment());
  const uint64_t budget = MigrationBudgetMoves(prior, 0.25);

  const RestreamPassStats a =
      restreamer.RunIncrementalPass(first.get(), prior, budget);
  const RestreamPassStats b =
      restreamer.RunIncrementalPass(second.get(), prior, budget);
  ExpectSameAssignment(first.get()->assignment(), second.get()->assignment());
  EXPECT_EQ(a.edge_cut_fraction, b.edge_cut_fraction);
  EXPECT_EQ(a.balance, b.balance);
  EXPECT_EQ(a.migration_fraction, b.migration_fraction);
  EXPECT_EQ(a.budget_denied_moves, b.budget_denied_moves);
}

// The returned stats describe the assignment the partitioner is left
// holding, and the partitioner ends the pass with no prior and no budget.
TEST_P(IncrementalPassTest, StatsAgreeWithTheResultingAssignment) {
  const Restreamer restreamer(stream_, options_);
  const MadePartitioner live = Live();
  const PartitionAssignment prior = live.get()->assignment();
  const RestreamPassStats stats = restreamer.RunIncrementalPass(
      live.get(), prior, MigrationBudgetMoves(prior, 0.25));

  const PartitionAssignment& after = live.get()->assignment();
  EXPECT_EQ(live.get()->stats().prior_moves,
            ComputeMigration(prior, after).moved);
  EXPECT_DOUBLE_EQ(stats.migration_fraction, MigrationFraction(prior, after));
  EXPECT_DOUBLE_EQ(stats.balance, BalanceMaxOverAvg(after));
  EXPECT_DOUBLE_EQ(stats.edge_cut_fraction, EdgeCutFraction(g_, after));
  EXPECT_EQ(stats.pass, 1u);
  EXPECT_EQ(stats.best_edge_cut_fraction, stats.edge_cut_fraction);
  EXPECT_EQ(after.NumAssigned(), g_.NumVertices());
  EXPECT_FALSE(live.get()->HasPrior());
  EXPECT_FALSE(live.get()->MigrationBudgetExhausted());
}

INSTANTIATE_TEST_SUITE_P(
    EveryPartitioner, IncrementalPassTest,
    ::testing::Values(PartitionerKind::kHash, PartitionerKind::kLdg,
                      PartitionerKind::kFennel, PartitionerKind::kBufferedLdg,
                      PartitionerKind::kLoom),
    KindName);

}  // namespace
}  // namespace loom
