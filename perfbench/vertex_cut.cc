// vertex-cut: HDRF under the budgeted EdgeRestreamer, reading a stream file
// through the mmap-backed FileArrivalSource. No window or matcher runs.

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "common/hash.h"
#include "edge_partition/edge_partitioner.h"
#include "edge_partition/edge_restream.h"
#include "graph/generators.h"
#include "graph/io.h"
#include "harness.h"
#include "metrics/metrics.h"
#include "partition/replica_set.h"
#include "workload/query_engine.h"
#include "workloads.h"

namespace perfbench {

namespace {

using loom::VertexId;

/// Independent graphs per run, each generated from --seed and its index.
/// Each is small enough that its restream state stays close to the core
/// (see README), and pooling their quality figures keeps those steady from
/// seed to seed.
constexpr uint32_t kGraphs = 24;
constexpr uint32_t kVertices = 10000;  // per graph
constexpr uint32_t kEdgesPerVertex = 4;  // BA average degree 8
constexpr uint32_t kParts = 16;
constexpr uint32_t kLocalitySpan = 32;

/// ArrivalSource decorator that times every Next call: the `stream` span of
/// the traced run, taken at the public cursor interface the restreamer
/// consumes.
class TimedSource : public loom::ArrivalSource {
 public:
  explicit TimedSource(loom::ArrivalSource* inner) : inner_(inner) {}

  bool Next(loom::ArrivalView* out) override {
    const Clock::time_point start = Clock::now();
    const bool more = inner_->Next(out);
    next_s_ += SecondsSince(start);
    ++calls_;
    if (more) ++arrivals_;
    return more;
  }
  void Reset() override { inner_->Reset(); }
  uint64_t NumVertices() const override { return inner_->NumVertices(); }
  uint64_t NumEdges() const override { return inner_->NumEdges(); }

  double next_s() const { return next_s_; }
  uint64_t calls() const { return calls_; }
  uint64_t arrivals() const { return arrivals_; }

 private:
  loom::ArrivalSource* inner_;
  double next_s_ = 0.0;
  uint64_t calls_ = 0;
  uint64_t arrivals_ = 0;
};

/// The set-up calls of one repetition and the restream they feed.
struct Setup {
  double write_s = 0.0;
  double open_s = 0.0;
  std::unique_ptr<loom::FileArrivalSource> source;
  std::unique_ptr<loom::EdgePartitioner> partitioner;
};

/// Runs the set-up calls, timing all three together into `samples`.
Setup RunSetup(const loom::GraphStream& stream, const std::string& path,
               const loom::EdgePartitionerOptions& options, Samples* samples) {
  Setup setup;
  loom::StreamFileOptions file_options;
  // The edge restream replays back edges only.
  file_options.full_neighborhoods = false;
  const Stopwatch total;
  Clock::time_point t = Clock::now();
  MustOk(loom::WriteStreamFile(stream, path, file_options), "WriteStreamFile");
  setup.write_s = SecondsSince(t);
  t = Clock::now();
  setup.source = Must(loom::FileArrivalSource::Open(path), "Open");
  setup.open_s = SecondsSince(t);
  setup.partitioner =
      Must(loom::MakeEdgePartitioner("hdrf", options), "MakeEdgePartitioner");
  total.Stop(samples);
  return setup;
}

/// One input graph: its stream, stream file, set-up and the samples and
/// result of its restreams.
struct Input {
  loom::LabeledGraph g;
  loom::GraphStream stream;
  std::string path;
  loom::EdgePartitionerOptions options;
  Setup setup;  // the last set-up, whose partitioner the last restream used
  Samples setup_samples;
  Samples run;
  std::vector<double> write_s;
  std::vector<double> open_s;
  loom::EdgeRestreamResult last;
  uint64_t first_hash = 0;
};

uint64_t PlacementHash(const std::vector<uint32_t>& placements) {
  uint64_t h = 0;
  for (const uint32_t p : placements) h = loom::HashCombine(h, p);
  return h;
}

/// Rebuilds the replica set of `placements` (stream edge order), so rf is
/// recomputed from the placement itself rather than taken from the
/// restreamer.
loom::ReplicaSet ReplicasOf(const loom::GraphStream& stream,
                            const std::vector<uint32_t>& placements) {
  loom::ReplicaSet replicas;
  replicas.ReserveVertices(stream.NumVertices());
  size_t i = 0;
  for (const loom::VertexArrival& a : stream.arrivals()) {
    for (const VertexId w : a.back_edges) {
      if (i >= placements.size()) return replicas;
      replicas.Add(a.vertex, placements[i]);
      replicas.Add(w, placements[i]);
      ++i;
    }
  }
  return replicas;
}

void CheckRestream(const loom::GraphStream& stream, uint64_t m,
                   const loom::EdgePartitioner& partitioner,
                   const loom::EdgeRestreamResult& run, Result* result) {
  for (const loom::EdgeRestreamPassStats& p : run.passes) {
    result->Check(p.assign_errors == 0, "edge restream pass " +
                                            std::to_string(p.pass) +
                                            ": assign_errors == 0");
  }
  result->Check(run.placements.size() == m, "one placement per edge");
  std::vector<uint64_t> counts(kParts, 0);
  bool in_range = true;
  for (const uint32_t p : run.placements) {
    if (p < kParts) {
      ++counts[p];
    } else {
      in_range = false;
    }
  }
  result->Check(in_range, "every placement names a partition < k");
  uint64_t last_pass_edges = 0;
  for (const uint64_t c : partitioner.edge_counts()) last_pass_edges += c;
  result->Check(last_pass_edges == m, "edge_counts() sum to m");
  result->Check(std::abs(loom::ReplicationFactor(partitioner.replicas()) -
                         run.passes.back().replication_factor) <= 1e-12,
                "rf from replicas() equals the last pass's reported rf");
  result->Check(std::abs(loom::ReplicationFactor(ReplicasOf(
                             stream, run.placements)) -
                         run.replication_factor) <= 1e-12,
                "rf recomputed from the reported placement equals the "
                "restreamer's");
  result->Check(std::abs(loom::EdgeBalanceMaxOverAvg(counts) - run.balance) <=
                    1e-12,
                "edge balance recomputed from the placement matches");
}

}  // namespace

void RunVertexCut(const Args& args, Result* result) {
  const loom::Workload workload = MixedWorkload();
  std::vector<Input> inputs(kGraphs);
  uint64_t n = 0;
  uint64_t m = 0;
  uint64_t arrival_hash = 0;
  for (uint32_t i = 0; i < kGraphs; ++i) {
    Input& in = inputs[i];
    loom::Rng rng(loom::HashCombine(args.seed, i));
    in.g = loom::BarabasiAlbert(kVertices, kEdgesPerVertex,
                                loom::LabelConfig{4, 0.4}, rng);
    loom::bench::PlantWorkloadMotifs(&in.g, workload, kVertices / 24, rng,
                                     kLocalitySpan);
    in.stream = loom::MakeStream(in.g, loom::StreamOrder::kRandom, rng);
    in.path = args.tmp_dir + "/vertex-cut-" + std::to_string(getpid()) + "-" +
              std::to_string(i) + ".loomstrm";
    in.options.k = kParts;
    in.options.lambda = 1.0;
    in.options.num_edges_hint = in.stream.NumEdges();
    in.options.num_vertices_hint = in.g.NumVertices();
    n += in.g.NumVertices();
    m += in.stream.NumEdges();
    arrival_hash = loom::HashCombine(arrival_hash, ArrivalHash(in.stream));
  }
  result->Provenance("seed", std::to_string(args.seed));
  result->Provenance("graph", std::to_string(kGraphs) +
                                  "x barabasi-albert(edges_per_vertex=4,"
                                  "labels=4,zipf=0.4)");
  result->Provenance("workload", "mixed-motif(queries=4,seed=" +
                                     std::to_string(kWorkloadSeed) +
                                     ",planted_per_query=n/24,span=32)");
  result->Provenance("order", loom::StreamOrderName(loom::StreamOrder::kRandom));
  result->Provenance("n", std::to_string(n));
  result->Provenance("m", std::to_string(m));
  result->Provenance("arrival_hash", Hex(arrival_hash));

  loom::EdgeRestreamOptions restream_options;
  restream_options.num_passes = 3;
  restream_options.max_migration_fraction = 0.25;
  restream_options.keep_best = true;

  bool identical = true;
  auto restream = [&](Input* in, int rep) {
    in->setup = Setup();  // unmap the previous file before rewriting it
    in->setup = RunSetup(in->stream, in->path, in->options, &in->setup_samples);
    in->write_s.push_back(in->setup.write_s);
    in->open_s.push_back(in->setup.open_s);
    loom::EdgeRestreamer restreamer(in->setup.source.get(), restream_options);
    const Stopwatch run_watch;
    in->last = Must(restreamer.Run(in->setup.partitioner.get()),
                    "EdgeRestreamer::Run");
    run_watch.Stop(&in->run);
    const uint64_t h = PlacementHash(in->last.placements);
    if (rep == 0) in->first_hash = h;
    identical = identical && h == in->first_hash;
  };
  auto remove_files = [&] {
    for (Input& in : inputs) {
      in.setup = Setup();
      std::remove(in.path.c_str());
    }
  };

  if (!args.trace) {
    // Each graph repeats back to back for its share of the time, so its
    // fastest sample comes from a run of warm repetitions.
    for (Input& in : inputs) {
      Repeat(args.seconds / kGraphs, 3, 100000,
             [&](int rep) { restream(&in, rep); });
    }
    result->Check(identical, "every repeated restream places identically");
    std::vector<Samples> setup_parts;
    std::vector<Samples> run_parts;
    QualityMean quality;
    for (const Input& in : inputs) {
      CheckRestream(in.stream, in.stream.NumEdges(), *in.setup.partitioner,
                    in.last, result);
      setup_parts.push_back(in.setup_samples);
      run_parts.push_back(in.run);

      // ipt of the reported placement under replication semantics: each
      // vertex's primary replica anchors it, and a traversal into a vertex
      // replicated in the anchor's partition is local.
      const loom::ReplicaSet replicas =
          ReplicasOf(in.stream, in.last.placements);
      loom::PartitionAssignment primary(kParts, 0);
      size_t unplaced = 0;
      for (VertexId v = 0; v < in.g.NumVertices(); ++v) {
        const uint32_t p = replicas.PrimaryOf(v);
        if (p == loom::kNoReplica || !primary.Assign(v, p).ok()) ++unplaced;
      }
      result->Check(unplaced == 0, "every vertex has a primary replica");
      const loom::WorkloadIptStats stats =
          loom::EvaluateWorkloadIpt(in.g, primary, workload, 20000, &replicas);
      quality.Add(stats.ipt_probability, stats.single_partition_fraction,
                  loom::EdgeCutFraction(in.g, primary), in.last.balance,
                  in.last.replication_factor);
    }
    ReportTimes(setup_parts, run_parts, result);
    quality.Report(result);
    result->Metric("peak_rss_mb", PeakRssMb(), "MB");
    remove_files();
    return;
  }

  // Traced run, on the first graph: untraced and traced restreams alternate,
  // so the overhead ratio compares repetitions that met the same machine
  // load. The traced ones read through the timed cursor.
  Input& in = inputs[0];
  Trace trace;
  Samples traced_setup;
  std::vector<double> traced_s;
  std::vector<double> next_s;
  uint64_t arrivals = 0;
  Repeat(args.seconds, 3, 1000, [&](int rep) {
    restream(&in, rep);
    in.setup = Setup();  // unmap the previous file before rewriting it
    in.setup = RunSetup(in.stream, in.path, in.options, &traced_setup);
    TimedSource timed(in.setup.source.get());
    loom::EdgeRestreamer restreamer(&timed, restream_options);
    const Clock::time_point t = Clock::now();
    in.last = Must(restreamer.Run(in.setup.partitioner.get()),
                   "EdgeRestreamer::Run");
    traced_s.push_back(SecondsSince(t));
    next_s.push_back(timed.next_s());
    arrivals = timed.arrivals();
    identical = identical && PlacementHash(in.last.placements) == in.first_hash;
    trace.Add("stream.next", timed.calls(), timed.next_s());
    trace.Add("edge_restream.run", 1, traced_s.back(),
              traced_s.back() - timed.next_s());
  });
  trace.Add("stream.write", in.write_s.size(),
            std::accumulate(in.write_s.begin(), in.write_s.end(), 0.0));
  trace.Add("stream.open", in.open_s.size(),
            std::accumulate(in.open_s.begin(), in.open_s.end(), 0.0));
  result->Check(identical, "traced restream places like the untraced one");
  const uint64_t graph_m = in.stream.NumEdges();
  CheckRestream(in.stream, graph_m, *in.setup.partitioner, in.last, result);
  const loom::EdgeRestreamResult& last = in.last;

  result->Metric("stream.next_s", Median(next_s), "s");
  result->Metric("stream.write_s", Median(in.write_s), "s");
  result->Metric("stream.open_s", Median(in.open_s), "s");
  result->Count("stream.arrivals", arrivals);
  result->Count("stream.edges", graph_m * last.passes.size());

  std::vector<double> pass_rf;
  uint64_t reported_pass = 0;
  uint64_t budget_denied_moves = 0;
  uint64_t overflow_fallbacks = 0;
  uint64_t cap_relaxations = 0;
  uint64_t assign_errors = 0;
  for (const loom::EdgeRestreamPassStats& p : last.passes) {
    const std::string pass = "edge_partition.pass" + std::to_string(p.pass);
    result->Metric(pass + "_s", p.seconds, "s");
    result->Metric(pass + "_rf", p.replication_factor, "ratio");
    if (p.pass > 1) result->Metric(pass + "_moved", p.moved_fraction, "ratio");
    pass_rf.push_back(p.replication_factor);
    budget_denied_moves += p.budget_denied_moves;
    overflow_fallbacks += p.overflow_fallbacks;
    cap_relaxations += p.cap_relaxations;
    assign_errors += p.assign_errors;
    if (reported_pass == 0 &&
        p.replication_factor == last.replication_factor) {
      reported_pass = p.pass;
    }
  }
  result->Metric("edge_partition.pass1_eps",
                 Ratio(static_cast<double>(graph_m), last.passes[0].seconds),
                 "1/s");
  result->Metric("edge_partition.rf_delta_pass2",
                 pass_rf.size() > 1 ? pass_rf[1] - pass_rf[0] : 0.0, "ratio");
  result->Count("edge_partition.reported_pass", reported_pass);
  result->Count("edge_partition.budget_denied_moves", budget_denied_moves);
  result->Count("edge_partition.overflow_fallbacks", overflow_fallbacks);
  result->Count("edge_partition.cap_relaxations", cap_relaxations);
  result->Count("edge_partition.assign_errors", assign_errors);

  const double timed = Median(traced_s);
  const double untraced = Median(in.run.wall_s);
  result->Metric("trace.timed_s", timed, "s");
  result->Metric("trace.untraced_s", untraced, "s");
  result->Metric("trace.overhead_ratio", Ratio(timed, untraced), "ratio");
  trace.Print();
  remove_files();
}

}  // namespace perfbench
