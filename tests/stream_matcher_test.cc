// Tests for windowed graph-stream pattern matching (§4.3), including the
// Figure 3 overlapping-motif scenario and the re-grow procedure.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <deque>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "common/hash.h"
#include "common/rng.h"
#include "core/loom.h"
#include "graph/generators.h"
#include "matching/stream_matcher.h"
#include "stream/stream.h"
#include "workload/query_builders.h"
#include "workload/workload_gen.h"

namespace loom {
namespace {

std::unique_ptr<TpstryPP> AbcTrie() {
  // Workload: the path a-b-c with frequency 1 -> every sub-motif frequent.
  Workload w;
  EXPECT_TRUE(w.Add("abc", PathQuery({0, 1, 2}), 1.0).ok());
  w.Normalize();
  auto trie = BuildTrie(w);
  EXPECT_TRUE(trie.ok());
  return std::move(trie).value();
}

StreamMatcherOptions ExactOpts(double threshold = 0.5) {
  StreamMatcherOptions o;
  o.frequency_threshold = threshold;
  o.verify_exact = true;
  return o;
}

TEST(StreamMatcherTest, SingleEdgeMotifTracked) {
  auto trie = AbcTrie();
  StreamMatcher m(trie.get(), ExactOpts());
  m.OnVertex(10, 0, {});
  m.OnVertex(11, 1, {10});
  // The ab edge is a frequent motif (support 1.0 >= 0.5).
  EXPECT_GE(m.NumFrequentMatches(), 1u);
  const auto closure = m.MatchClosureFor(10);
  ASSERT_EQ(closure.size(), 1u);
  EXPECT_EQ(closure[0], 11u);
}

TEST(StreamMatcherTest, FullPathMotifDetected) {
  auto trie = AbcTrie();
  StreamMatcher m(trie.get(), ExactOpts());
  m.OnVertex(1, 0, {});
  m.OnVertex(2, 1, {1});
  m.OnVertex(3, 2, {2});
  // Tracked: ab, bc, abc (all frequent).
  const auto sets = m.FrequentMatchVertexSets();
  EXPECT_TRUE(std::find(sets.begin(), sets.end(),
                        std::vector<VertexId>{1, 2, 3}) != sets.end())
      << "full abc match missing";
  // Closure of vertex 1 spans the whole path via the abc match.
  EXPECT_EQ(m.MatchClosureFor(1), (std::vector<VertexId>{2, 3}));
}

TEST(StreamMatcherTest, LabelMismatchNotTracked) {
  auto trie = AbcTrie();
  StreamMatcher m(trie.get(), ExactOpts());
  m.OnVertex(1, 2, {});
  m.OnVertex(2, 2, {1});  // c-c edge: not a motif
  EXPECT_EQ(m.NumTracked(), 0u);
  EXPECT_TRUE(m.MatchClosureFor(1).empty());
}

TEST(StreamMatcherTest, RemoveVertexPurgesMatches) {
  auto trie = AbcTrie();
  StreamMatcher m(trie.get(), ExactOpts());
  m.OnVertex(1, 0, {});
  m.OnVertex(2, 1, {1});
  m.OnVertex(3, 2, {2});
  EXPECT_GT(m.NumTracked(), 0u);
  m.RemoveVertex(2);
  // Every tracked sub-graph contained vertex 2 (it is the path's middle).
  EXPECT_TRUE(m.MatchClosureFor(1).empty());
  EXPECT_TRUE(m.MatchClosureFor(3).empty());
}

TEST(StreamMatcherTest, ThresholdGatesMatchesButNotTracking) {
  // Workload: abc twice as frequent as cd. Threshold 0.5 keeps abc motifs
  // frequent, cd infrequent.
  Workload w;
  ASSERT_TRUE(w.Add("abc", PathQuery({0, 1, 2}), 2.0).ok());
  ASSERT_TRUE(w.Add("cd", PathQuery({2, 3}), 1.0).ok());
  w.Normalize();
  auto trie = BuildTrie(w);
  ASSERT_TRUE(trie.ok());
  StreamMatcher m(trie->get(), ExactOpts(0.5));
  m.OnVertex(1, 2, {});
  m.OnVertex(2, 3, {1});  // cd edge: known motif, support 1/3 < 0.5
  EXPECT_TRUE(m.MatchClosureFor(1).empty());
}

TEST(StreamMatcherTest, Figure3OverlappingMotifsViaRegrow) {
  // Fig. 3: the window holds a-b-c (S, a motif match). A second c attaches
  // to b, forming S' = abc+c which is NOT a motif; without re-grow the
  // second abc instance (a, b, c2) would be missed.
  auto trie = AbcTrie();
  StreamMatcherOptions with_regrow = ExactOpts();
  StreamMatcher m(trie.get(), with_regrow);
  m.OnVertex(1, 0, {});        // a
  m.OnVertex(2, 1, {1});       // b: S = ab
  m.OnVertex(3, 2, {2});       // c1: S = abc  (match)
  m.OnVertex(4, 2, {2});       // c2 attaches to b
  const auto sets = m.FrequentMatchVertexSets();
  const bool first_abc =
      std::find(sets.begin(), sets.end(), std::vector<VertexId>{1, 2, 3}) !=
      sets.end();
  const bool second_abc =
      std::find(sets.begin(), sets.end(), std::vector<VertexId>{1, 2, 4}) !=
      sets.end();
  EXPECT_TRUE(first_abc) << "original abc lost";
  EXPECT_TRUE(second_abc) << "Fig. 3: overlapping abc not recovered";
  EXPECT_GE(m.stats().regrow_matches, 1u);
}

TEST(StreamMatcherTest, Figure3MissedWithoutRegrow) {
  auto trie = AbcTrie();
  StreamMatcherOptions no_regrow = ExactOpts();
  no_regrow.use_regrow = false;
  StreamMatcher m(trie.get(), no_regrow);
  m.OnVertex(1, 0, {});
  m.OnVertex(2, 1, {1});
  m.OnVertex(3, 2, {2});
  m.OnVertex(4, 2, {2});
  const auto sets = m.FrequentMatchVertexSets();
  const bool second_abc =
      std::find(sets.begin(), sets.end(), std::vector<VertexId>{1, 2, 4}) !=
      sets.end();
  // bc (4,2) still matches as an edge motif, but the full second abc is
  // unreachable without re-grow: growing S=abc by edge (2,4) leaves the trie.
  EXPECT_FALSE(second_abc)
      << "ablation expectation violated: regrow off but match found";
}

TEST(StreamMatcherTest, TransitiveVsDirectClosure) {
  auto trie = AbcTrie();
  StreamMatcher m(trie.get(), ExactOpts());
  // Two abc paths sharing only the a vertex: 2-1-3 and 2-4-5 (labels b,a,c
  // arranged so both contain vertex 1).
  m.OnVertex(1, 0, {});        // a
  m.OnVertex(2, 1, {1});       // b1
  m.OnVertex(3, 2, {2});       // c1 -> match {1,2,3}
  m.OnVertex(4, 1, {1});       // b2
  m.OnVertex(5, 2, {4});       // c2 -> match {1,4,5}
  // Transitive closure from 3 reaches the second path through vertex 1.
  const auto transitive = m.MatchClosureFor(3, /*transitive=*/true);
  EXPECT_EQ(transitive, (std::vector<VertexId>{1, 2, 4, 5}));
  // Direct closure from 3 stays within its own match.
  const auto direct = m.MatchClosureFor(3, /*transitive=*/false);
  EXPECT_EQ(direct, (std::vector<VertexId>{1, 2}));
}

TEST(StreamMatcherTest, SignatureOnlyModeMatchesExactOnCleanData) {
  // On a stream without collision-shaped structures, verify_exact=false
  // (the paper's mode) finds the same matches.
  auto trie = AbcTrie();
  StreamMatcherOptions fast = ExactOpts();
  fast.verify_exact = false;
  StreamMatcher exact(trie.get(), ExactOpts());
  StreamMatcher approx(trie.get(), fast);
  for (StreamMatcher* m : {&exact, &approx}) {
    m->OnVertex(1, 0, {});
    m->OnVertex(2, 1, {1});
    m->OnVertex(3, 2, {2});
  }
  EXPECT_EQ(exact.FrequentMatchVertexSets(), approx.FrequentMatchVertexSets());
}

TEST(StreamMatcherTest, StatsAccumulate) {
  auto trie = AbcTrie();
  StreamMatcher m(trie.get(), ExactOpts());
  m.OnVertex(1, 0, {});
  m.OnVertex(2, 1, {1});
  m.OnVertex(3, 2, {2});
  const auto& s = m.stats();
  EXPECT_EQ(s.edges_processed, 2u);
  EXPECT_GT(s.growths_accepted, 0u);
  EXPECT_GT(s.max_tracked_live, 0u);
}

TEST(StreamMatcherTest, MaxTrackedPerVertexCapsGrowth) {
  // A hub with many b-neighbours under a tiny per-vertex cap.
  auto trie = AbcTrie();
  StreamMatcherOptions capped = ExactOpts();
  capped.max_tracked_per_vertex = 2;
  StreamMatcher m(trie.get(), capped);
  m.OnVertex(0, 0, {});  // a hub
  for (VertexId v = 1; v <= 20; ++v) {
    m.OnVertex(v, 1, {0});  // b leaves -> ab matches
  }
  EXPECT_GT(m.stats().tracked_dropped, 0u);
  const auto idx = m.MatchClosureFor(0);
  EXPECT_LE(idx.size(), 4u);  // bounded by the cap, not 20
}

// ---------------------------------------------------------------------------
// Golden pins of the whole matcher: every StreamMatcherStats counter, the
// closures taken on eviction and the frequent matches left at the end of
// three streams, each run with verify_exact off and on. The values were
// captured from the signature-multiplying matcher that the node-transition
// table replaced; set LOOM_EQUIV_DUMP=1 to print the rows this build
// produces.

struct MatcherGolden {
  const char* stream;
  bool verify_exact;
  uint64_t edges_processed;
  uint64_t growths_accepted;
  uint64_t growths_rejected;
  uint64_t regrow_invocations;
  uint64_t regrow_matches;
  uint64_t tracked_dropped;
  uint64_t max_tracked_live;
  uint64_t closures_hash;
  uint64_t sets_hash;
};

struct MatcherRun {
  StreamMatcherStats stats;
  uint64_t closures_hash = 0;
  uint64_t sets_hash = 0;
};

uint64_t HashVertices(uint64_t h, const std::vector<VertexId>& vs) {
  h = HashCombine(h, vs.size());
  for (const VertexId v : vs) h = HashCombine(h, v);
  return h;
}

/// Drives a matcher over `arrivals` through a FIFO window of `window`
/// vertices: when it is full, the oldest member's closure is hashed (if it
/// has a frequent match) and the member is removed before the next one
/// enters; the matcher sees only back edges into the window. The last
/// `window` vertices stay buffered, so the final frequent matches are
/// non-trivial.
MatcherRun RunWindowed(const TpstryPP& trie, const StreamMatcherOptions& o,
                       const std::vector<VertexArrival>& arrivals,
                       size_t window) {
  StreamMatcher m(&trie, o);
  std::deque<VertexId> fifo;
  std::vector<uint8_t> in_window;
  MatcherRun run;
  std::vector<VertexId> filtered;
  for (const VertexArrival& a : arrivals) {
    if (fifo.size() == window) {
      const VertexId oldest = fifo.front();
      fifo.pop_front();
      if (m.HasFrequentMatch(oldest)) {
        run.closures_hash = HashVertices(
            HashCombine(run.closures_hash, oldest), m.MatchClosureFor(oldest));
      }
      m.RemoveVertex(oldest);
      in_window[oldest] = 0;
    }
    filtered.clear();
    for (const VertexId w : a.back_edges) {
      if (w < in_window.size() && in_window[w]) filtered.push_back(w);
    }
    m.OnVertex(a.vertex, a.label, filtered);
    if (a.vertex >= in_window.size()) in_window.resize(a.vertex + 1, 0);
    in_window[a.vertex] = 1;
    fifo.push_back(a.vertex);
  }
  run.stats = m.stats();
  run.sets_hash = 0x9E3779B97F4A7C15ull;
  for (const auto& set : m.FrequentMatchVertexSets()) {
    run.sets_hash = HashVertices(run.sets_hash, set);
  }
  return run;
}

Workload MixedWorkload() {
  WorkloadGenOptions wopts;
  wopts.num_queries = 4;
  return MixedMotifWorkload(wopts);
}

/// BA in natural order with the mixed-motif queries planted at locality
/// span 32: the motif-dense regime of a natural-order LOOM stream.
std::vector<VertexArrival> NaturalBaStream(const Workload& w) {
  Rng rng(17);
  LabeledGraph g = BarabasiAlbert(20000, 4, LabelConfig{4, 0.4}, rng);
  for (const QuerySpec& q : w.queries()) {
    PlantMotifs(&g, q.pattern, 20000 / 24, rng, /*locality_span=*/32);
  }
  return MakeStream(g, StreamOrder::kNatural, rng).arrivals();
}

/// ER in random order: a nearly motif-free window.
std::vector<VertexArrival> RandomErStream(const Workload& w) {
  Rng rng(23);
  LabeledGraph g = ErdosRenyiGnm(8000, 8000 * 4, LabelConfig{4, 0.3}, rng);
  for (const QuerySpec& q : w.queries()) {
    PlantMotifs(&g, q.pattern, 8000 / 24, rng, /*locality_span=*/32);
  }
  return MakeStream(g, StreamOrder::kRandom, rng).arrivals();
}

/// A dense hand-built stream over a short id range: every vertex links to
/// a few of the previous 12, one back edge in three is repeated (duplicate
/// back edges are legal input), and every seventh vertex carries label 9,
/// outside the workload's alphabet.
std::vector<VertexArrival> HandBuiltStream() {
  std::vector<VertexArrival> out;
  Rng rng(5);
  for (VertexId v = 0; v < 1500; ++v) {
    VertexArrival a;
    a.vertex = v;
    a.label = v % 7 == 3 ? 9 : static_cast<Label>(rng.UniformInt(0, 3));
    const uint32_t span = std::min<uint32_t>(v, 12);
    const uint64_t degree = span == 0 ? 0 : 1 + rng.UniformInt(0, 3);
    for (uint64_t i = 0; i < degree; ++i) {
      const VertexId w =
          v - 1 - static_cast<VertexId>(rng.UniformInt(0, span - 1));
      a.back_edges.push_back(w);
      if (rng.UniformInt(0, 2) == 0) a.back_edges.push_back(w);
    }
    out.push_back(std::move(a));
  }
  return out;
}

constexpr MatcherGolden kMatcherGolden[] = {
    {"ba_natural", false, 12545, 2443, 10543, 10197, 4203, 34, 277,
     0x17c3e906fcb96698ull, 0x4b486b40af77fe59ull},
    {"ba_natural", true, 12545, 2443, 10543, 10197, 4203, 34, 277,
     0x17c3e906fcb96698ull, 0x4b486b40af77fe59ull},
    {"er_random", false, 2261, 56, 216, 2206, 734, 0, 22,
     0x7f413c0452e73146ull, 0x5f4b88e971e30526ull},
    {"er_random", true, 2261, 56, 216, 2206, 734, 0, 22,
     0x7f413c0452e73146ull, 0x5f4b88e971e30526ull},
    {"hand_built", false, 3650, 110, 2764, 3550, 752, 0, 89,
     0x7bf4ce4969bfe1a7ull, 0xd1e88ef91ba7e6eaull},
    {"hand_built", true, 3650, 110, 2764, 3550, 752, 0, 89,
     0x7bf4ce4969bfe1a7ull, 0xd1e88ef91ba7e6eaull},
};

TEST(StreamMatcherGolden, CountersAndMatchesArePinned) {
  const bool dump = std::getenv("LOOM_EQUIV_DUMP") != nullptr;
  const Workload w = MixedWorkload();
  auto trie = BuildTrie(w);
  ASSERT_TRUE(trie.ok());
  const std::pair<const char*, std::vector<VertexArrival>> streams[] = {
      {"ba_natural", NaturalBaStream(w)},
      {"er_random", RandomErStream(w)},
      {"hand_built", HandBuiltStream()},
  };
  for (const auto& [name, arrivals] : streams) {
    for (const bool exact : {false, true}) {
      StreamMatcherOptions o;
      o.frequency_threshold = 0.2;
      o.verify_exact = exact;
      const MatcherRun r = RunWindowed(**trie, o, arrivals, 256);
      const StreamMatcherStats& s = r.stats;
      if (dump) {
        std::cout << "    {\"" << name << "\", " << (exact ? "true" : "false")
                  << ", " << s.edges_processed << ", " << s.growths_accepted
                  << ", " << s.growths_rejected << ", "
                  << s.regrow_invocations << ", " << s.regrow_matches << ", "
                  << s.tracked_dropped << ", " << s.max_tracked_live
                  << ", 0x" << std::hex << r.closures_hash << "ull, 0x"
                  << r.sets_hash << std::dec << "ull},\n";
        continue;
      }
      const MatcherGolden* golden = nullptr;
      for (const MatcherGolden& row : kMatcherGolden) {
        if (std::string(row.stream) == name && row.verify_exact == exact) {
          golden = &row;
        }
      }
      ASSERT_NE(golden, nullptr) << "no golden row for " << name;
      const std::string at = std::string(name) + (exact ? "/exact" : "/sig");
      EXPECT_EQ(s.edges_processed, golden->edges_processed) << at;
      EXPECT_EQ(s.growths_accepted, golden->growths_accepted) << at;
      EXPECT_EQ(s.growths_rejected, golden->growths_rejected) << at;
      EXPECT_EQ(s.regrow_invocations, golden->regrow_invocations) << at;
      EXPECT_EQ(s.regrow_matches, golden->regrow_matches) << at;
      EXPECT_EQ(s.tracked_dropped, golden->tracked_dropped) << at;
      EXPECT_EQ(s.max_tracked_live, golden->max_tracked_live) << at;
      EXPECT_EQ(r.closures_hash, golden->closures_hash) << at;
      EXPECT_EQ(r.sets_hash, golden->sets_hash) << at;
    }
  }
}

// The node-transition table answers every (node or empty sub-graph, growth
// shape, label pair) exactly as the trie lookup on the explicitly multiplied
// signature, filtered by the useful bitmap — asked twice, so the cached
// answer is checked as well as the first lookup. The second trie's alphabet
// has labels no motif uses (1 and 2), whose growths the table answers
// without a lookup.
TEST(StreamMatcherTest, TransitionTableMatchesSignatureLookup) {
  Workload sparse;
  ASSERT_TRUE(sparse.Add("a-d-a", PathQuery({0, 3, 0}), 1.0).ok());
  sparse.Normalize();
  for (const Workload& w : {MixedWorkload(), sparse}) {
    auto built = BuildTrie(w);
    ASSERT_TRUE(built.ok());
    const TpstryPP& trie = **built;
    const double threshold = 0.2;
    const std::vector<bool> useful = trie.UsefulBitmap(threshold);
    StreamMatcherOptions o;
    o.frequency_threshold = threshold;
    StreamMatcher m(&trie, o);
    const SignatureScheme& scheme = trie.scheme();
    size_t hits = 0;
    std::vector<TpstryNodeId> froms = {kInvalidTpstryNode};
    for (TpstryNodeId id = 0; id < trie.NumNodes(); ++id) froms.push_back(id);
    for (const TpstryNodeId from : froms) {
      for (const StreamMatcher::Growth g :
           {StreamMatcher::kEdgeOnly, StreamMatcher::kOneNew,
            StreamMatcher::kBothNew}) {
        for (Label a = 0; a < scheme.num_labels(); ++a) {
          for (Label b = 0; b < scheme.num_labels(); ++b) {
            GraphSignature sig = from == kInvalidTpstryNode
                                     ? GraphSignature()
                                     : trie.node(from).signature;
            if (g != StreamMatcher::kEdgeOnly) scheme.MultiplyVertex(&sig, a);
            if (g == StreamMatcher::kBothNew) scheme.MultiplyVertex(&sig, b);
            scheme.MultiplyEdge(&sig, a, b);
            const auto found = trie.FindBySignature(sig);
            const TpstryNodeId expected = found.has_value() && useful[*found]
                                              ? *found
                                              : kInvalidTpstryNode;
            hits += expected != kInvalidTpstryNode;
            for (int ask = 0; ask < 2; ++ask) {
              EXPECT_EQ(m.Transition(from, g, a, b), expected)
                  << "from " << from << " growth " << g << " labels " << a
                  << "," << b << " ask " << ask;
            }
          }
        }
      }
    }
    EXPECT_GT(hits, trie.NumNodes() / 2);
  }
}

}  // namespace
}  // namespace loom
