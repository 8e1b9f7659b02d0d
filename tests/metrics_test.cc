// Tests for partitioning quality metrics.

#include <gtest/gtest.h>

#include "graph/generators.h"
#include "metrics/metrics.h"
#include "workload/query_builders.h"

namespace loom {
namespace {

TEST(MetricsTest, CutEdgesCounted) {
  const LabeledGraph g = PaperFigure1Graph();  // 9 edges
  PartitionAssignment a(2, 0);
  // Split the q1 square {0,1,4,5} from the rest.
  for (const VertexId v : {0u, 1u, 4u, 5u}) ASSERT_TRUE(a.Assign(v, 0).ok());
  for (const VertexId v : {2u, 3u, 6u, 7u}) ASSERT_TRUE(a.Assign(v, 1).ok());
  // Cut edges: (1,2), (5,6), (4,7) -> 3.
  EXPECT_EQ(NumCutEdges(g, a), 3u);
  EXPECT_NEAR(EdgeCutFraction(g, a), 3.0 / 9.0, 1e-12);
}

TEST(MetricsTest, NoEdgesMeansZeroCut) {
  LabeledGraph g;
  g.AddVertex(0);
  PartitionAssignment a(2, 0);
  ASSERT_TRUE(a.Assign(0, 0).ok());
  EXPECT_EQ(NumCutEdges(g, a), 0u);
  EXPECT_EQ(EdgeCutFraction(g, a), 0.0);
}

// NumCutEdges sweeps both adjacency entries of every edge and halves the
// count; it must equal a plain count over the edge list, with unassigned
// endpoints (partition -1, including ids past the assignment's bound)
// comparing like any other partition.
TEST(MetricsTest, NumCutEdgesMatchesACountOverEdges) {
  Rng rng(31);
  for (int trial = 0; trial < 6; ++trial) {
    const LabeledGraph g =
        trial % 2 == 0 ? BarabasiAlbert(300, 3, LabelConfig{2, 0.0}, rng)
                       : ErdosRenyiGnm(300, 900, LabelConfig{2, 0.0}, rng);
    const uint32_t k = 2 + static_cast<uint32_t>(trial);
    PartitionAssignment a(k, 0);
    // The last 20 ids are never assigned, so they lie past the
    // assignment's IdBound; the rest are assigned with probability 0.8.
    for (VertexId v = 0; v + 20 < g.NumVertices(); ++v) {
      if (rng.Bernoulli(0.8)) {
        ASSERT_TRUE(a.Assign(v, static_cast<uint32_t>(
                                    rng.UniformInt(0, k - 1)))
                        .ok());
      }
    }
    size_t want = 0;
    for (const Edge& e : g.Edges()) want += a.PartOf(e.u) != a.PartOf(e.v);
    EXPECT_EQ(NumCutEdges(g, a), want) << "trial " << trial;
  }
}

TEST(MetricsTest, BalanceOfPerfectSplit) {
  PartitionAssignment a(2, 0);
  for (VertexId v = 0; v < 10; ++v) ASSERT_TRUE(a.Assign(v, v % 2).ok());
  EXPECT_DOUBLE_EQ(BalanceMaxOverAvg(a), 1.0);
}

TEST(MetricsTest, BalanceOfSkewedSplit) {
  PartitionAssignment a(2, 0);
  for (VertexId v = 0; v < 9; ++v) ASSERT_TRUE(a.Assign(v, 0).ok());
  ASSERT_TRUE(a.Assign(9, 1).ok());
  // max = 9, avg = 5.
  EXPECT_DOUBLE_EQ(BalanceMaxOverAvg(a), 1.8);
}

TEST(MetricsTest, AllAssignedDetectsGaps) {
  const LabeledGraph g = PaperFigure1Graph();
  PartitionAssignment a(2, 0);
  ASSERT_TRUE(a.Assign(0, 0).ok());
  EXPECT_FALSE(AllAssigned(g, a));
  for (VertexId v = 1; v < g.NumVertices(); ++v) {
    ASSERT_TRUE(a.Assign(v, 1).ok());
  }
  EXPECT_TRUE(AllAssigned(g, a));
}

TEST(MetricsTest, SizesToStringFormat) {
  PartitionAssignment a(3, 0);
  ASSERT_TRUE(a.Assign(0, 0).ok());
  ASSERT_TRUE(a.Assign(1, 0).ok());
  ASSERT_TRUE(a.Assign(2, 2).ok());
  EXPECT_EQ(SizesToString(a), "2/0/1");
}

}  // namespace
}  // namespace loom
