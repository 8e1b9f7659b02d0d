// Contract tests of the loom::Service serving facade: options validation,
// snapshot publication under concurrent readers, batched-vs-serial ingest
// equivalence, Locate/Touches correctness against the query engine's ground
// truth, and the drift loop reacting while clients keep reading. Suite
// names contain "Serving" so CI's TSan job picks every test up.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/loom.h"
#include "core/partitioner_factory.h"
#include "restream/restreamer.h"
#include "serving/service.h"
#include "serving_scenario.h"
#include "workload/query_builders.h"
#include "workload/query_engine.h"

namespace loom {
namespace {

using bench::GraphKind;
using bench::MakeGraph;
using bench::PlantWorkloadMotifs;
using bench::RunServingScenario;
using bench::ServingScenarioConfig;
using bench::ServingScenarioResult;

Workload SmallWorkload() {
  Workload w;
  (void)w.Add("path", PathQuery({0, 1, 0}), 2.0);
  (void)w.Add("cycle", CycleQuery({0, 1, 0, 1}), 1.0);
  w.Normalize();
  return w;
}

/// Graph + stream fixture shared by the equivalence and query tests.
struct Scenario {
  LabeledGraph g;
  GraphStream stream;
};

Scenario MakeScenario(uint32_t n, uint64_t seed) {
  Scenario s;
  Rng rng(seed);
  s.g = MakeGraph(GraphKind::kBarabasiAlbert, n, 6, LabelConfig{4, 0.2}, rng);
  PlantWorkloadMotifs(&s.g, SmallWorkload(), n / 24, rng,
                      /*locality_span=*/48);
  s.stream = MakeStream(s.g, StreamOrder::kDfs, rng);
  return s;
}

ServiceOptions BaseOptions(const Scenario& s, uint32_t k) {
  ServiceOptions opts;
  opts.loom.partitioner.k = k;
  opts.loom.partitioner.num_vertices_hint = s.g.NumVertices();
  opts.loom.partitioner.num_edges_hint = s.g.NumEdges();
  opts.loom.partitioner.window_size = 64;
  opts.loom.matcher.frequency_threshold = 0.2;
  opts.num_labels = 4;
  return opts;
}

// ------------------------------------------------------ options validation

TEST(ServingOptionsTest, DefaultsValidateAndSanitizeIsIdentityOnThem) {
  const ServiceOptions defaults;
  EXPECT_TRUE(ValidateServiceOptions(defaults).ok());
  const ServiceOptions sanitized = SanitizeServiceOptions(defaults);
  EXPECT_TRUE(ValidateServiceOptions(sanitized).ok());
  EXPECT_EQ(sanitized.partitioner, defaults.partitioner);
  EXPECT_EQ(sanitized.publish_every_batches, defaults.publish_every_batches);
}

TEST(ServingOptionsTest, ValidateRejectsTheFirstBadFieldWithoutMutating) {
  ServiceOptions opts;
  opts.loom.partitioner.k = 0;
  Status status = ValidateServiceOptions(opts);
  EXPECT_TRUE(status.code() == StatusCode::kInvalidArgument);
  EXPECT_EQ(opts.loom.partitioner.k, 0u);  // untouched

  opts = ServiceOptions();
  opts.partitioner = "metis";
  EXPECT_EQ(ValidateServiceOptions(opts).code(),
            StatusCode::kInvalidArgument);

  opts = ServiceOptions();
  opts.drift_check_every_queries = 0;
  EXPECT_EQ(ValidateServiceOptions(opts).code(),
            StatusCode::kInvalidArgument);

  opts = ServiceOptions();
  opts.publish_every_batches = 0;
  EXPECT_EQ(ValidateServiceOptions(opts).code(),
            StatusCode::kInvalidArgument);

  opts = ServiceOptions();
  opts.tracker.window_queries = 0;
  EXPECT_EQ(ValidateServiceOptions(opts).code(),
            StatusCode::kInvalidArgument);

  // Nested drift options are validated through the same contract.
  opts = ServiceOptions();
  opts.drift.reaction_passes = 0;
  EXPECT_EQ(ValidateServiceOptions(opts).code(),
            StatusCode::kInvalidArgument);

  opts = ServiceOptions();
  opts.drift.detector.fire_threshold = 2.0;
  EXPECT_EQ(ValidateServiceOptions(opts).code(),
            StatusCode::kInvalidArgument);
}

TEST(ServingOptionsTest, SanitizeClampsEveryFieldValidateRejects) {
  ServiceOptions opts;
  opts.loom.partitioner.k = 0;
  opts.partitioner = "no-such-partitioner";
  opts.drift_check_every_queries = 0;
  opts.publish_every_batches = 0;
  opts.tracker.window_queries = 0;
  opts.drift.reaction_passes = 0;
  opts.drift.max_migration_fraction = std::nan("");
  const ServiceOptions sane = SanitizeServiceOptions(opts);
  EXPECT_TRUE(ValidateServiceOptions(sane).ok());
  EXPECT_EQ(sane.loom.partitioner.k, 1u);
  EXPECT_EQ(sane.partitioner, "loom");
  EXPECT_EQ(sane.drift_check_every_queries, 1u);
  EXPECT_EQ(sane.publish_every_batches, 1u);
  EXPECT_EQ(sane.tracker.window_queries, 1u);
  EXPECT_EQ(sane.drift.reaction_passes, 1u);
  EXPECT_EQ(sane.drift.max_migration_fraction, 0.0);  // migration frozen
}

TEST(ServingOptionsTest, UniformContractAcrossTheOptionsFamily) {
  // The same Validate/Sanitize pairing holds for the restream and drift
  // structs the service composes.
  RestreamOptions ropts;
  ropts.num_passes = 0;
  EXPECT_EQ(ValidateRestreamOptions(ropts).code(),
            StatusCode::kInvalidArgument);
  EXPECT_GE(SanitizeRestreamOptions(ropts).num_passes, 1u);

  DriftControllerOptions dopts;
  dopts.detector.clear_threshold = 0.9;  // above fire_threshold: inverted
  EXPECT_EQ(ValidateDriftControllerOptions(dopts).code(),
            StatusCode::kInvalidArgument);
  const DriftControllerOptions sane = SanitizeDriftControllerOptions(dopts);
  EXPECT_TRUE(ValidateDriftControllerOptions(sane).ok());
  EXPECT_LE(sane.detector.clear_threshold, sane.detector.fire_threshold);
}

TEST(ServingOptionsTest, CreateRejectsInvalidOptions) {
  ServiceOptions opts;
  opts.publish_every_batches = 0;
  auto created = Service::Create(SmallWorkload(), opts);
  EXPECT_FALSE(created.ok());
  EXPECT_TRUE(created.status().code() == StatusCode::kInvalidArgument);
}

// ------------------------------------------------- ingest + rejection path

TEST(ServingIngestTest, InvalidBatchesAreRejectedWholeAndCounted) {
  const Scenario s = MakeScenario(400, 7);
  auto created = Service::Create(SmallWorkload(), BaseOptions(s, 4));
  ASSERT_TRUE(created.ok());
  Service& service = **created;

  // Self-loop back edge: reject, apply nothing.
  std::vector<VertexArrival> bad(2);
  bad[0].vertex = 0;
  bad[1].vertex = 1;
  bad[1].back_edges = {1};
  EXPECT_TRUE(service.Ingest(bad).code() == StatusCode::kInvalidArgument);

  // Invalid vertex id: same.
  bad[1].vertex = kInvalidVertex;
  bad[1].back_edges = {0};
  EXPECT_TRUE(service.Ingest(bad).code() == StatusCode::kInvalidArgument);

  const ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.rejected_batches, 2u);
  EXPECT_EQ(stats.ingested_vertices, 0u);
  EXPECT_EQ(stats.ingested_batches, 0u);

  // Empty batches are a no-op, not an error.
  EXPECT_TRUE(service.Ingest(nullptr, 0).ok());
  EXPECT_TRUE((*created)->Seal().ok());
}

// A vertex arriving a second time breaks the stream invariant the
// partitioner relies on (a Debug build asserts on it in the worker), so
// Ingest rejects the whole batch up front: against an earlier batch or
// within one, and without marking the batch's other vertices.
TEST(ServingIngestTest, ReIngestedVertexIsRejectedAndLeavesPlacementAlone) {
  ServiceOptions opts;
  opts.partitioner = "ldg";
  opts.loom.partitioner.k = 2;
  opts.num_labels = 4;
  std::vector<VertexArrival> first(2);
  first[0].vertex = 0;
  first[1].vertex = 1;
  first[1].back_edges = {0};

  auto reference = Service::Create(SmallWorkload(), opts);
  ASSERT_TRUE(reference.ok());
  ASSERT_TRUE((*reference)->Ingest(first).ok());
  ASSERT_TRUE((*reference)->Seal().ok());

  auto created = Service::Create(SmallWorkload(), opts);
  ASSERT_TRUE(created.ok());
  Service& service = **created;
  ASSERT_TRUE(service.Ingest(first).ok());
  std::vector<VertexArrival> again(1);
  again[0].vertex = 0;
  EXPECT_EQ(service.Ingest(again).code(), StatusCode::kInvalidArgument);

  // A repeat inside one batch, and a fresh vertex batched with a placed
  // one: both rejected whole, and vertex 2 stays admissible.
  std::vector<VertexArrival> twice(2);
  twice[0].vertex = 2;
  twice[1].vertex = 2;
  EXPECT_EQ(service.Ingest(twice).code(), StatusCode::kInvalidArgument);
  std::vector<VertexArrival> mixed(2);
  mixed[0].vertex = 2;
  mixed[1].vertex = 1;
  EXPECT_EQ(service.Ingest(mixed).code(), StatusCode::kInvalidArgument);
  mixed.resize(1);
  EXPECT_TRUE(service.Ingest(mixed).ok());
  ASSERT_TRUE(service.Seal().ok());

  const ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.rejected_batches, 3u);
  EXPECT_EQ(stats.ingested_vertices, 3u);
  EXPECT_EQ(stats.ingested_batches, 2u);
  EXPECT_EQ(stats.assign_errors, 0u);
  for (const VertexId v : {VertexId{0}, VertexId{1}}) {
    EXPECT_GE(service.Locate(v), 0) << v;
    EXPECT_EQ(service.Locate(v), (*reference)->Locate(v)) << v;
  }
  EXPECT_GE(service.Locate(2), 0);
}

TEST(ServingIngestTest, SealStopsIngestAndIsNotRepeatable) {
  const Scenario s = MakeScenario(300, 11);
  auto created = Service::Create(SmallWorkload(), BaseOptions(s, 4));
  ASSERT_TRUE(created.ok());
  Service& service = **created;

  ASSERT_TRUE(service.Ingest(s.stream.arrivals()).ok());
  ASSERT_TRUE(service.Seal().ok());
  EXPECT_TRUE(service.Stats().sealed);
  EXPECT_EQ(service.Stats().ingested_vertices, s.g.NumVertices());

  EXPECT_EQ(service.Ingest(s.stream.arrivals()).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(service.Seal().code(), StatusCode::kFailedPrecondition);
  // Reads stay valid after sealing.
  EXPECT_GE(service.Locate(0), 0);
}

// The tentpole equivalence: batched ingest through the single pipeline
// worker must be result-identical to the serial pipeline on the same
// stream, for every batch size.
TEST(ServingIngestTest, BatchedIngestMatchesSerialPipelineBitForBit) {
  const Scenario s = MakeScenario(800, 13);
  const Workload workload = SmallWorkload();

  for (const char* name : {"ldg", "loom"}) {
    // Serial reference: the same partitioner fed by Run(stream).
    ServiceOptions ref_opts = BaseOptions(s, 6);
    ref_opts.partitioner = name;
    auto trie = BuildTrie(workload, ref_opts.loom.paths_only);
    ASSERT_TRUE(trie.ok());
    auto serial = MakePartitioner(name, ref_opts.loom, trie->get());
    ASSERT_TRUE(serial.ok());
    (*serial)->Run(s.stream);
    const PartitionAssignment& want = (*serial)->assignment();

    for (const size_t batch_size : {size_t{1}, size_t{7}, size_t{64}}) {
      ServiceOptions opts = BaseOptions(s, 6);
      opts.partitioner = name;
      opts.enable_drift_reactions = false;
      opts.publish_every_batches = 3;
      auto created = Service::Create(workload, opts);
      ASSERT_TRUE(created.ok());
      Service& service = **created;

      const std::vector<VertexArrival>& arrivals = s.stream.arrivals();
      for (size_t off = 0; off < arrivals.size(); off += batch_size) {
        const size_t count = std::min(batch_size, arrivals.size() - off);
        ASSERT_TRUE(service.Ingest(arrivals.data() + off, count).ok());
      }
      ASSERT_TRUE(service.Seal().ok());

      const PlacementSnapshot* snapshot = service.Snapshot();
      ASSERT_NE(snapshot, nullptr);
      ASSERT_EQ(snapshot->num_assigned, want.NumAssigned())
          << name << " batch=" << batch_size;
      for (VertexId v = 0; v < s.g.NumVertices(); ++v) {
        ASSERT_EQ(snapshot->Locate(v), want.PartOf(v))
            << name << " batch=" << batch_size << " vertex=" << v;
      }
      EXPECT_EQ(service.Stats().assign_errors, 0u);
    }
  }
}

TEST(ServingIngestTest, IngestSourceMatchesBatchedIngest) {
  // The ArrivalSource bridge: draining a cursor (here a StreamCursor, in
  // production an mmap-ed stream file or a generator) must place every
  // vertex exactly where the equivalent hand-batched Ingest calls would.
  const Scenario s = MakeScenario(600, 17);
  const Workload workload = SmallWorkload();

  ServiceOptions opts = BaseOptions(s, 6);
  opts.enable_drift_reactions = false;
  auto reference = Service::Create(workload, opts);
  ASSERT_TRUE(reference.ok());
  ASSERT_TRUE((*reference)->Ingest(s.stream.arrivals()).ok());
  ASSERT_TRUE((*reference)->Seal().ok());
  const PlacementSnapshot* want = (*reference)->Snapshot();
  ASSERT_NE(want, nullptr);

  for (const size_t batch_size : {size_t{1}, size_t{50}, size_t{100000}}) {
    auto created = Service::Create(workload, opts);
    ASSERT_TRUE(created.ok());
    Service& service = **created;
    StreamCursor cursor(s.stream);
    ASSERT_TRUE(service.IngestSource(cursor, batch_size).ok());
    ASSERT_TRUE(service.Seal().ok());

    const PlacementSnapshot* got = service.Snapshot();
    ASSERT_NE(got, nullptr);
    ASSERT_EQ(got->num_assigned, want->num_assigned);
    for (VertexId v = 0; v < s.g.NumVertices(); ++v) {
      ASSERT_EQ(got->Locate(v), want->Locate(v))
          << "batch=" << batch_size << " vertex=" << v;
    }
    EXPECT_EQ(service.Stats().ingested_vertices, s.g.NumVertices());
  }
}

// --------------------------------------------------- reads vs. ground truth

TEST(ServingQueryTest, LocateAndTouchesMatchTheQueryEngineGroundTruth) {
  const Scenario s = MakeScenario(900, 17);
  const Workload workload = SmallWorkload();
  ServiceOptions opts = BaseOptions(s, 6);
  opts.enable_drift_reactions = false;
  auto created = Service::Create(workload, opts);
  ASSERT_TRUE(created.ok());
  Service& service = **created;
  ASSERT_TRUE(service.Ingest(s.stream.arrivals()).ok());
  ASSERT_TRUE(service.Seal().ok());

  // Rebuild the assignment from the published snapshot; Locate must agree.
  const PlacementSnapshot* snapshot = service.Snapshot();
  ASSERT_NE(snapshot, nullptr);
  PartitionAssignment assignment(snapshot->k, /*capacity=*/0);
  for (VertexId v = 0; v < s.g.NumVertices(); ++v) {
    const int32_t part = service.Locate(v);
    ASSERT_GE(part, 0);
    ASSERT_TRUE(assignment.Assign(v, static_cast<uint32_t>(part)).ok());
  }

  // Touches must be a superset of every partition the matcher actually
  // visits executing the query (soundness of the broadcast set).
  for (const QuerySpec& q : workload.queries()) {
    const std::vector<uint32_t> touches = service.Touches(q.pattern);
    EXPECT_TRUE(std::is_sorted(touches.begin(), touches.end()));
    std::set<uint32_t> visited;
    const TraversalObserver observer = [&](VertexId from, VertexId to,
                                           bool /*cross*/) {
      visited.insert(static_cast<uint32_t>(assignment.PartOf(from)));
      visited.insert(static_cast<uint32_t>(assignment.PartOf(to)));
    };
    const QueryExecutionStats stats = ExecuteQuery(
        s.g, assignment, q.pattern, /*max_embeddings=*/5000,
        /*replicas=*/nullptr, observer);
    EXPECT_GT(stats.total_traversals, 0u) << q.name;
    for (const uint32_t part : visited) {
      EXPECT_TRUE(
          std::binary_search(touches.begin(), touches.end(), part))
          << q.name << " visited partition " << part
          << " missing from Touches";
    }
  }

  // Unknown vertices are -1, not garbage.
  EXPECT_EQ(service.Locate(static_cast<VertexId>(s.g.NumVertices() + 1000)),
            -1);
}

// ----------------------------------------------- snapshots under concurrency

TEST(ServingSnapshotTest, EpochsAreMonotoneAndSizesStayConsistent) {
  const Scenario s = MakeScenario(600, 19);
  ServiceOptions opts = BaseOptions(s, 4);
  opts.enable_drift_reactions = false;
  opts.publish_every_batches = 1;
  auto created = Service::Create(SmallWorkload(), opts);
  ASSERT_TRUE(created.ok());
  Service& service = **created;

  std::atomic<bool> stop{false};
  std::atomic<bool> torn{false};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      uint64_t last_epoch = 0;
      while (!stop.load(std::memory_order_acquire)) {
        // Stats() names only epochs Snapshot() already returns.
        const uint64_t stats_epoch = service.Stats().snapshot_epoch;
        const PlacementSnapshot* snap = service.Snapshot();
        if (snap == nullptr) continue;
        if (snap->epoch < stats_epoch) torn.store(true);
        // Epochs only move forward, and every snapshot is internally
        // consistent: the per-partition sizes, the label histogram (every
        // label is in the alphabet) and the located ids all count the
        // assigned vertices.
        if (snap->epoch < last_epoch) torn.store(true);
        last_epoch = snap->epoch;
        size_t total = 0;
        for (const uint32_t size : snap->sizes) total += size;
        if (total != snap->num_assigned) torn.store(true);
        size_t labelled = 0;
        for (const uint32_t count : snap->label_counts) labelled += count;
        if (labelled != snap->num_assigned) torn.store(true);
        size_t located = 0;
        for (VertexId v = 0; v < s.g.NumVertices(); ++v) {
          located += snap->Locate(v) >= 0 ? 1 : 0;
        }
        if (located != snap->num_assigned) torn.store(true);
      }
    });
  }

  const std::vector<VertexArrival>& arrivals = s.stream.arrivals();
  for (size_t off = 0; off < arrivals.size(); off += 32) {
    ASSERT_TRUE(service
                    .Ingest(arrivals.data() + off,
                            std::min<size_t>(32, arrivals.size() - off))
                    .ok());
  }
  ASSERT_TRUE(service.Seal().ok());
  stop.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  EXPECT_FALSE(torn.load());
  const ServiceStats stats = service.Stats();
  EXPECT_GE(stats.snapshots_published,
            arrivals.size() / 32 / opts.publish_every_batches);
  EXPECT_EQ(stats.snapshot_epoch + 1, stats.snapshots_published);
}

/// FNV-1a over `Locate(v)` for every v below `id_limit`.
uint64_t LocateHash(const PlacementSnapshot& snapshot, VertexId id_limit) {
  uint64_t hash = 1469598103934665603ull;
  for (VertexId v = 0; v < id_limit; ++v) {
    hash ^= static_cast<uint32_t>(snapshot.Locate(v));
    hash *= 1099511628211ull;
  }
  return hash;
}

/// Checks `snapshot` against a naive full recount: `Locate` equals the
/// reference `part_of` for every id below `id_limit`, and `sizes`,
/// `num_assigned` and `label_counts` equal the counts of that placement
/// under `label_of` (ids past its end count as label 0).
template <typename PartOf>
void ExpectEqualsFullRecount(const PlacementSnapshot& snapshot,
                             PartOf&& part_of,
                             const std::vector<Label>& label_of,
                             VertexId id_limit) {
  const uint32_t num_labels = snapshot.num_labels;
  std::vector<uint32_t> sizes(snapshot.k, 0);
  std::vector<uint32_t> counts(size_t{snapshot.k} * num_labels, 0);
  size_t assigned = 0;
  for (VertexId v = 0; v < id_limit; ++v) {
    const int32_t p = part_of(v);
    ASSERT_EQ(snapshot.Locate(v), p)
        << "epoch " << snapshot.epoch << " vertex " << v;
    if (p < 0) continue;
    ++assigned;
    ++sizes[static_cast<size_t>(p)];
    const Label label = v < label_of.size() ? label_of[v] : 0;
    if (label < num_labels) {
      ++counts[static_cast<size_t>(p) * num_labels + label];
    }
  }
  EXPECT_EQ(snapshot.num_assigned, assigned) << "epoch " << snapshot.epoch;
  EXPECT_EQ(snapshot.sizes, sizes) << "epoch " << snapshot.epoch;
  EXPECT_EQ(snapshot.label_counts, counts) << "epoch " << snapshot.epoch;
}

TEST(ServingSnapshotTest, IncrementalSnapshotsEqualAFullRecount) {
  // Every third id is never ingested, and the id bound (1049) is not a
  // multiple of the 64-vertex chunk.
  const Scenario s = MakeScenario(700, 29);
  const auto id_of = [](VertexId v) { return v + v / 2; };
  const VertexId id_bound = id_of(s.g.NumVertices() - 1) + 1;
  ASSERT_NE(id_bound % 64, 0u);
  const VertexId id_limit = id_bound + 64;
  std::vector<std::vector<VertexArrival>> batches;
  for (const VertexArrival& a : s.stream.arrivals()) {
    if (batches.empty() || batches.back().size() == 50) batches.emplace_back();
    VertexArrival mapped;
    mapped.vertex = id_of(a.vertex);
    mapped.label = a.label;
    for (const VertexId w : a.back_edges) mapped.back_edges.push_back(id_of(w));
    batches.back().push_back(std::move(mapped));
  }
  const size_t half = batches.size() / 2;

  ServiceOptions opts = BaseOptions(s, 4);
  opts.loom.partitioner.num_vertices_hint = id_bound;
  opts.drift_check_every_queries = 8;
  struct Published {
    const PlacementSnapshot* snapshot;
    uint64_t hash;
    size_t batches;  // ingest batches the snapshot covers
  };
  std::vector<Published> published;
  const Service* reader = nullptr;
  const auto record = [&](size_t covered) {
    const PlacementSnapshot* snap = reader->Snapshot();
    published.push_back({snap, LocateHash(*snap, id_limit), covered});
  };
  // Runs on the pipeline worker right after each batch's publish.
  opts.on_batch_processed = [&](uint64_t seq) { record(seq + 1); };
  auto created = Service::Create(SmallWorkload(), opts);
  ASSERT_TRUE(created.ok());
  Service& service = **created;
  reader = &service;

  for (size_t b = 0; b < half; ++b) {
    ASSERT_TRUE(service.Ingest(batches[b]).ok());
  }
  service.Flush();
  // Drifted traffic until the detector fires; the reaction then runs on
  // the worker and publishes its adopted placement.
  Workload drifted;
  (void)drifted.Add("tri", TriangleQuery(2, 3, 2), 2.0);
  (void)drifted.Add("star", StarQuery(3, {2, 2}), 1.0);
  drifted.Normalize();
  Rng rng(5);
  for (int i = 0; i < 20000 && service.Stats().drift_fires == 0; ++i) {
    const QuerySpec& q = drifted.queries()[drifted.SampleIndex(rng)];
    ASSERT_TRUE(service.ObserveQuery(q.pattern).ok());
  }
  ASSERT_EQ(service.Stats().drift_fires, 1u);
  service.Flush();
  ASSERT_EQ(service.Stats().drift_reactions, 1u);
  record(half);
  const size_t reaction_index = published.size() - 1;
  for (size_t b = half; b < batches.size(); ++b) {
    ASSERT_TRUE(service.Ingest(batches[b]).ok());
  }
  ASSERT_TRUE(service.Seal().ok());
  record(batches.size());
  // Every publish after the pre-ingest epoch 0 was recorded.
  ASSERT_EQ(published.size() + 1, service.Stats().snapshots_published);

  // Before the reaction the live placement is the serial pipeline's, fed
  // the same batches; from the reaction on the reference is the snapshot's
  // own Locate, whose recount must still match the copied sizes.
  auto trie = BuildTrie(SmallWorkload(), opts.loom.paths_only);
  ASSERT_TRUE(trie.ok());
  auto serial = MakePartitioner("loom", opts.loom, trie->get());
  ASSERT_TRUE(serial.ok());
  std::vector<Label> label_of(id_bound, 0);
  size_t fed = 0;
  uint64_t last_epoch = 0;
  for (size_t i = 0; i < published.size(); ++i) {
    const Published& p = published[i];
    SCOPED_TRACE("epoch " + std::to_string(p.snapshot->epoch));
    EXPECT_GT(p.snapshot->epoch, last_epoch);
    last_epoch = p.snapshot->epoch;
    for (; fed < p.batches; ++fed) {
      for (const VertexArrival& a : batches[fed]) {
        label_of[a.vertex] = a.label;
        if (i < reaction_index) {
          (*serial)->OnVertex(a.vertex, a.label, a.back_edges);
        }
      }
    }
    if (i < reaction_index) {
      const PartitionAssignment& live = (*serial)->assignment();
      ExpectEqualsFullRecount(
          *p.snapshot, [&](VertexId v) { return live.PartOf(v); }, label_of,
          id_limit);
    } else {
      ExpectEqualsFullRecount(
          *p.snapshot, [&](VertexId v) { return p.snapshot->Locate(v); },
          label_of, id_limit);
    }
  }
  // The sealed snapshot places every ingested id and nothing else.
  const PlacementSnapshot& sealed = *published.back().snapshot;
  for (VertexId v = 0; v < s.g.NumVertices(); ++v) {
    EXPECT_GE(sealed.Locate(id_of(v)), 0) << "vertex " << id_of(v);
    if (id_of(v) + 1 < id_bound && id_of(v + 1) != id_of(v) + 1) {
      EXPECT_EQ(sealed.Locate(id_of(v) + 1), -1) << "gap " << id_of(v) + 1;
    }
  }
  // Retained snapshots are immutable: later publishes and the reaction
  // left every earlier Locate table as it was.
  for (const Published& p : published) {
    EXPECT_EQ(LocateHash(*p.snapshot, id_limit), p.hash)
        << "epoch " << p.snapshot->epoch;
  }
}

TEST(ServingSnapshotTest, BuilderDeltaStaysExactAcrossRelabelsAndBoundChanges) {
  // The builder on hand-made assignments, each replacing the last the way
  // AdoptAssignment replaces the live one. Label 3 is outside the
  // alphabet: placed, never counted.
  PlacementSnapshotBuilder builder(/*num_labels=*/3);
  constexpr VertexId kIdLimit = 400;
  std::vector<std::unique_ptr<const PlacementSnapshot>> retained;
  std::vector<uint64_t> hashes;
  const auto publish = [&](const PartitionAssignment& a,
                           const std::vector<Label>& labels) {
    retained.push_back(builder.Build(a, labels, retained.size()));
    ExpectEqualsFullRecount(
        *retained.back(), [&](VertexId v) { return a.PartOf(v); }, labels,
        kIdLimit);
    hashes.push_back(LocateHash(*retained.back(), kIdLimit));
  };
  std::vector<Label> labels(kIdLimit);
  for (VertexId v = 0; v < kIdLimit; ++v) labels[v] = v % 4;

  PartitionAssignment live(4, /*capacity=*/0);
  publish(live, labels);
  // Sparse ids up to a bound of 148, inside a partial last chunk.
  for (VertexId v = 0; v < 150; v += 3) ASSERT_TRUE(live.Assign(v, v % 4).ok());
  publish(live, labels);
  // Placed vertices re-ingested with new labels, partitions unchanged: one
  // moves between counted labels, one leaves the alphabet, one enters it.
  labels[9] = 2;
  labels[12] = 3;
  labels[15] = 0;
  publish(live, labels);
  // Growth inside the partial chunk and three chunks past it, with ids
  // past the end of the label table (label 0).
  ASSERT_TRUE(live.Assign(149, 1).ok());
  ASSERT_TRUE(live.Assign(330, 2).ok());
  labels.resize(300);
  publish(live, labels);
  // An adopted assignment with a bound that shrinks mid-chunk and moves
  // some survivors.
  PartitionAssignment shrunk(4, 0);
  for (VertexId v = 0; v < 100; v += 3) {
    ASSERT_TRUE(shrunk.Assign(v, v % 7 == 0 ? (v + 1) % 4 : v % 4).ok());
  }
  publish(shrunk, labels);
  // ... then one that grows again, densely.
  PartitionAssignment grown(4, 0);
  for (VertexId v = 0; v < 390; ++v) ASSERT_TRUE(grown.Assign(v, v % 4).ok());
  labels.assign(kIdLimit, 1);
  publish(grown, labels);
  // Another k cannot be diffed: built against an empty predecessor.
  PartitionAssignment three_way(3, 0);
  for (VertexId v = 0; v < 200; v += 2) {
    ASSERT_TRUE(three_way.Assign(v, v % 3).ok());
  }
  publish(three_way, labels);

  for (size_t i = 0; i < retained.size(); ++i) {
    EXPECT_EQ(LocateHash(*retained[i], kIdLimit), hashes[i]) << "build " << i;
  }
}

// --------------------------------------------------------- drift reactions

TEST(ServingDriftTest, ScenarioServesQueriesWhileTheReactionRuns) {
  // The fast-mode defaults, as `bench_serving --fast` runs them.
  const ServingScenarioResult r = RunServingScenario(ServingScenarioConfig{});

  ASSERT_TRUE(r.ok) << "reactions=" << r.drift_reactions
                    << " assign_errors=" << r.assign_errors
                    << " ingested=" << r.ingested_vertices;
  EXPECT_GE(r.drift_fires, 1u);
  EXPECT_GE(r.drift_reactions, 1u);
  EXPECT_GT(r.queries_during_reaction, 0u)
      << "reads must proceed while the pipeline worker repartitions";
  EXPECT_EQ(r.assign_errors, 0u);
  EXPECT_GT(r.locate_queries, 0u);
  EXPECT_GT(r.touches_queries, 0u);
  // The reaction improved (or at worst kept) the cut: keep-best adoption.
  EXPECT_LE(r.reaction_cut_after, r.reaction_cut_before + 1e-12);
  // Percentiles are ordered within every latency population.
  for (const bench::LatencySummary* summary :
       {&r.ingest_batch_latency, &r.locate_latency, &r.touches_latency}) {
    EXPECT_LE(summary->p50_seconds, summary->p99_seconds);
    EXPECT_LE(summary->p99_seconds, summary->p999_seconds);
  }
}

TEST(ServingDriftTest, StableWorkloadNeverTriggersAReaction) {
  const Scenario s = MakeScenario(500, 23);
  const Workload workload = SmallWorkload();
  ServiceOptions opts = BaseOptions(s, 4);
  opts.drift_check_every_queries = 8;
  auto created = Service::Create(workload, opts);
  ASSERT_TRUE(created.ok());
  Service& service = **created;
  ASSERT_TRUE(service.Ingest(s.stream.arrivals()).ok());
  service.Flush();

  // Traffic matching the reference distribution: checks run, nothing fires.
  Rng rng(3);
  for (int i = 0; i < 200; ++i) {
    const QuerySpec& q = workload.queries()[workload.SampleIndex(rng)];
    ASSERT_TRUE(service.ObserveQuery(q.pattern).ok());
  }
  ASSERT_TRUE(service.Seal().ok());

  const ServiceStats stats = service.Stats();
  EXPECT_GT(stats.drift_checks, 0u);
  EXPECT_EQ(stats.drift_fires, 0u);
  EXPECT_EQ(stats.drift_reactions, 0u);
  EXPECT_EQ(stats.observed_queries, 200u);
}

}  // namespace
}  // namespace loom
