// Tests for continuous workload summarisation: TpstryPP::RemoveQuery and the
// sliding WorkloadTracker (§4.2 "a window over Q").

#include <gtest/gtest.h>

#include <vector>

#include "tpstry/workload_tracker.h"
#include "workload/query_builders.h"

namespace loom {
namespace {

double SupportOf(const TpstryPP& trie, const LabeledGraph& motif) {
  const auto id = trie.FindBySignature(trie.scheme().SignatureOf(motif));
  return id.has_value() ? trie.node(*id).support : -1.0;
}

TEST(RemoveQueryTest, ExactInverseOfAdd) {
  TpstryPP trie(4);
  ASSERT_TRUE(trie.AddQuery(PaperQ2(), 2.0).ok());
  ASSERT_TRUE(trie.AddQuery(PaperQ3(), 1.0).ok());
  EXPECT_DOUBLE_EQ(SupportOf(trie, PathQuery({0, 1})), 3.0);

  ASSERT_TRUE(trie.RemoveQuery(PaperQ3(), 1.0).ok());
  EXPECT_DOUBLE_EQ(SupportOf(trie, PathQuery({0, 1})), 2.0);
  // q3-only motifs drop to zero support but the nodes remain.
  EXPECT_DOUBLE_EQ(SupportOf(trie, PaperQ3()), 0.0);
  EXPECT_DOUBLE_EQ(trie.TotalFrequency(), 2.0);

  ASSERT_TRUE(trie.RemoveQuery(PaperQ2(), 2.0).ok());
  EXPECT_DOUBLE_EQ(SupportOf(trie, PathQuery({0, 1})), 0.0);
  EXPECT_DOUBLE_EQ(trie.TotalFrequency(), 0.0);
}

TEST(RemoveQueryTest, FrequentSetFollowsRemoval) {
  TpstryPP trie(4);
  ASSERT_TRUE(trie.AddQuery(PaperQ2(), 1.0).ok());
  ASSERT_TRUE(trie.AddQuery(PaperQ1(), 1.0).ok());
  // abc motif frequent while q2 is in: support 1 of total 2.
  EXPECT_GE(SupportOf(trie, PaperQ2()), 1.0);
  ASSERT_TRUE(trie.RemoveQuery(PaperQ2(), 1.0).ok());
  EXPECT_DOUBLE_EQ(SupportOf(trie, PaperQ2()), 0.0);
  // q1 motifs unaffected.
  EXPECT_DOUBLE_EQ(SupportOf(trie, PaperQ1()), 1.0);
}

TEST(WorkloadTrackerTest, WindowBoundsQueries) {
  WorkloadTrackerOptions opts;
  opts.window_queries = 3;
  WorkloadTracker tracker(4, opts);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(tracker.Observe(PaperQ2()).ok());
  }
  EXPECT_EQ(tracker.WindowSize(), 3u);
  EXPECT_EQ(tracker.NumObserved(), 10u);
  EXPECT_DOUBLE_EQ(tracker.trie().TotalFrequency(), 3.0);
}

TEST(WorkloadTrackerTest, DriftChangesFrequentMotifs) {
  WorkloadTrackerOptions opts;
  opts.window_queries = 4;
  WorkloadTracker tracker(4, opts);
  // Phase A: abc paths dominate.
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(tracker.Observe(PaperQ2()).ok());
  EXPECT_DOUBLE_EQ(SupportOf(tracker.trie(), PaperQ2()), 4.0);
  // Phase B: the workload shifts entirely to the abab cycle.
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(tracker.Observe(PaperQ1()).ok());
  EXPECT_DOUBLE_EQ(SupportOf(tracker.trie(), PaperQ2()), 0.0)
      << "expired motif must leave the summary";
  EXPECT_DOUBLE_EQ(SupportOf(tracker.trie(), PaperQ1()), 4.0);
}

TEST(WorkloadTrackerTest, SnapshotIsNormalized) {
  WorkloadTrackerOptions opts;
  opts.window_queries = 8;
  WorkloadTracker tracker(4, opts);
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(tracker.Observe(PaperQ2()).ok());
  ASSERT_TRUE(tracker.Observe(PaperQ1()).ok());
  const TpstryPP snapshot = tracker.Snapshot();
  EXPECT_DOUBLE_EQ(snapshot.TotalFrequency(), 1.0);
  EXPECT_NEAR(SupportOf(snapshot, PaperQ2()), 0.75, 1e-12);
  // The live trie is unchanged.
  EXPECT_DOUBLE_EQ(tracker.trie().TotalFrequency(), 4.0);
}

TEST(WorkloadTrackerTest, MixedShapesSupported) {
  WorkloadTrackerOptions opts;
  opts.window_queries = 16;
  WorkloadTracker tracker(5, opts);
  ASSERT_TRUE(tracker.Observe(TriangleQuery(0, 1, 2)).ok());
  ASSERT_TRUE(tracker.Observe(StarQuery(3, {4, 4})).ok());
  ASSERT_TRUE(tracker.Observe(PathQuery({0, 1, 2, 3})).ok());
  EXPECT_GT(tracker.trie().NumNodes(), 8u);
  EXPECT_EQ(tracker.WindowSize(), 3u);
}

// Repeated and isomorphic queries replay their memoised touched list; the
// summary must equal one woven query by query, with expired ones removed.
TEST(WorkloadTrackerTest, RepeatedShapesMatchAQueryByQueryWeave) {
  const std::vector<LabeledGraph> stream = {
      PaperQ2(),         PaperQ1(),         PathQuery({0, 1, 2}),
      PaperQ2(),         PathQuery({2, 1, 0}), TriangleQuery(0, 1, 2),
      PaperQ1(),         TriangleQuery(2, 0, 1), PaperQ2(),
      PathQuery({0, 1, 2})};
  WorkloadTrackerOptions opts;
  opts.window_queries = 4;
  WorkloadTracker tracker(4, opts);
  TpstryPP reference(4);
  for (size_t i = 0; i < stream.size(); ++i) {
    ASSERT_TRUE(tracker.Observe(stream[i]).ok());
    ASSERT_TRUE(reference.AddQuery(stream[i], 1.0).ok());
    if (i >= opts.window_queries) {
      ASSERT_TRUE(reference.RemoveQuery(stream[i - opts.window_queries], 1.0)
                      .ok());
    }
    ASSERT_EQ(tracker.trie().NumNodes(), reference.NumNodes());
    ASSERT_EQ(tracker.trie().NumDagEdges(), reference.NumDagEdges());
    EXPECT_EQ(tracker.trie().TotalFrequency(), reference.TotalFrequency());
    for (TpstryNodeId id = 0; id < reference.NumNodes(); ++id) {
      EXPECT_EQ(tracker.trie().node(id).canonical,
                reference.node(id).canonical);
      EXPECT_EQ(tracker.trie().node(id).support, reference.node(id).support)
          << "after query " << i << ", node " << id;
    }
  }
  // An invalid query is rejected every time, never memoised.
  for (int i = 0; i < 2; ++i) {
    EXPECT_FALSE(tracker.Observe(PathQuery({0, 7})).ok());
  }
  EXPECT_EQ(tracker.NumObserved(), stream.size());
}

TEST(WorkloadTrackerTest, PathsOnlyMode) {
  WorkloadTrackerOptions opts;
  opts.window_queries = 4;
  opts.paths_only = true;
  WorkloadTracker tracker(4, opts);
  ASSERT_TRUE(tracker.Observe(PaperQ1()).ok());
  // The cycle node must not exist in paths-only mode.
  EXPECT_EQ(SupportOf(tracker.trie(), PaperQ1()), -1.0);
  EXPECT_GT(SupportOf(tracker.trie(), PathQuery({0, 1, 0})), 0.0);
}

}  // namespace
}  // namespace loom
