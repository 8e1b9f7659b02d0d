// loom-natural and restream-random: the LOOM vertex partitioner streamed
// once in natural order, and restreamed by the Restreamer over a random
// order. Both share the input generator, the traced cold pass and the
// outside-in window/matching split.

#include <algorithm>
#include <cmath>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "core/loom.h"
#include "core/partitioner_factory.h"
#include "graph/generators.h"
#include "harness.h"
#include "metrics/metrics.h"
#include "restream/restreamer.h"
#include "stream/arrival_source.h"
#include "stream/window.h"
#include "workload/query_engine.h"
#include "workloads.h"

namespace perfbench {

namespace {

using loom::VertexId;

constexpr uint32_t kParts = 8;
constexpr size_t kWindowSize = 256;
constexpr double kFrequencyThreshold = 0.2;
constexpr uint32_t kEdgesPerVertex = 4;  // BA average degree 8
constexpr uint32_t kLocalitySpan = 32;
/// Independent graphs per run and vertices per graph, each graph generated
/// from --seed and its index. Each graph is timed back to back for its
/// share of the run; small graphs keep the fastest samples steady (see
/// README).
constexpr uint32_t kLoomNaturalGraphs = 1;
constexpr uint32_t kLoomNaturalVertices = 200000;
constexpr uint32_t kRestreamGraphs = 8;
constexpr uint32_t kRestreamVertices = 10000;
/// Set-up samples (Loom::Create + Restreamer constructor) taken beside each
/// restream repetition, so the minimum has many samples to choose from.
constexpr int kRestreamSetupSamplesPerRep = 3;

struct LoomInput {
  loom::Workload workload;
  loom::LabeledGraph g;
  loom::GraphStream stream;
  loom::LoomOptions options;
};

loom::LoomOptions MakeLoomOptions(const loom::LabeledGraph& g) {
  loom::LoomOptions options;
  options.partitioner.k = kParts;
  options.partitioner.num_vertices_hint = g.NumVertices();
  options.partitioner.num_edges_hint = g.NumEdges();
  options.partitioner.window_size = kWindowSize;
  options.matcher.frequency_threshold = kFrequencyThreshold;
  return options;
}

std::vector<LoomInput> MakeLoomInputs(const Args& args, uint32_t graphs,
                                      uint32_t n, loom::StreamOrder order,
                                      Result* result) {
  std::vector<LoomInput> inputs(graphs);
  uint64_t total_n = 0;
  uint64_t total_m = 0;
  uint64_t arrival_hash = 0;
  for (uint32_t i = 0; i < graphs; ++i) {
    LoomInput& in = inputs[i];
    in.workload = MixedWorkload();
    loom::Rng rng(loom::HashCombine(args.seed, i));
    in.g = loom::BarabasiAlbert(n, kEdgesPerVertex, loom::LabelConfig{4, 0.4},
                                rng);
    loom::bench::PlantWorkloadMotifs(&in.g, in.workload, n / 24, rng,
                                     kLocalitySpan);
    in.stream = loom::MakeStream(in.g, order, rng);
    in.options = MakeLoomOptions(in.g);
    total_n += in.g.NumVertices();
    total_m += in.g.NumEdges();
    arrival_hash = loom::HashCombine(arrival_hash, ArrivalHash(in.stream));
  }
  result->Provenance("seed", std::to_string(args.seed));
  result->Provenance("graph", std::to_string(graphs) +
                                  "x barabasi-albert(edges_per_vertex=4,"
                                  "labels=4,zipf=0.4)");
  result->Provenance("workload", "mixed-motif(queries=4,seed=" +
                                     std::to_string(kWorkloadSeed) +
                                     ",planted_per_query=n/24,span=32)");
  result->Provenance("order", loom::StreamOrderName(order));
  result->Provenance("n", std::to_string(total_n));
  result->Provenance("m", std::to_string(total_m));
  result->Provenance("arrival_hash", Hex(arrival_hash));
  return inputs;
}

bool SameMatcherStats(const loom::StreamMatcherStats& a,
                      const loom::StreamMatcherStats& b) {
  return a.edges_processed == b.edges_processed &&
         a.growths_accepted == b.growths_accepted &&
         a.growths_rejected == b.growths_rejected &&
         a.regrow_invocations == b.regrow_invocations &&
         a.regrow_matches == b.regrow_matches &&
         a.tracked_dropped == b.tracked_dropped &&
         a.max_tracked_live == b.max_tracked_live;
}

void ReportPartitionCounters(const loom::PartitionerStats& s,
                             Result* result) {
  result->Count("partition.overflow_fallbacks", s.overflow_fallbacks);
  result->Count("partition.forced_placements", s.forced_placements);
  result->Count("partition.assign_errors", s.assign_errors);
  result->Count("partition.prior_moves", s.prior_moves);
  result->Count("partition.budget_denied_moves", s.budget_denied_moves);
}

/// One cold LOOM pass driven arrival by arrival, with a span around every
/// ArrivalSource::Next and LoomPartitioner::OnVertex call and one around
/// Finish. Consecutive spans share their boundary timestamp, so the three
/// self times tile the pass.
struct TracedPass {
  double region_s = 0.0;
  double next_s = 0.0;
  double on_vertex_s = 0.0;
  double finish_s = 0.0;
  uint64_t arrivals = 0;
  uint64_t edges = 0;
};

TracedPass RunTracedPass(loom::StreamingPartitioner* partitioner,
                         const loom::GraphStream& stream) {
  partitioner->Reset();
  loom::StreamCursor cursor(stream);
  loom::ArrivalView view;
  TracedPass pass;
  const Clock::time_point start = Clock::now();
  Clock::time_point t0 = start;
  for (;;) {
    const bool more = cursor.Next(&view);
    const Clock::time_point t1 = Clock::now();
    pass.next_s += SecondsBetween(t0, t1);
    t0 = t1;
    if (!more) break;
    partitioner->OnVertex(view.vertex, view.label, view.back_edges);
    const Clock::time_point t2 = Clock::now();
    pass.on_vertex_s += SecondsBetween(t1, t2);
    t0 = t2;
    ++pass.arrivals;
    pass.edges += view.back_edges.size();
  }
  partitioner->Finish();
  const Clock::time_point end = Clock::now();
  pass.finish_s = SecondsBetween(t0, end);
  pass.region_s = SecondsBetween(start, end);
  return pass;
}

/// Untraced, isolated replays of the three calls a LOOM pass makes besides
/// its own scoring: the arrival cursor, the window and the matcher.
struct Split {
  bool reported = false;  // the replay reproduced LOOM's matcher counters
  double cursor_s = 0.0;
  double window_s = 0.0;
  double matching_s = 0.0;
};

/// Outside-in split of LOOM's pass. A recording pass drives a public
/// StreamWindow + StreamMatcher over `stream` with LOOM's rule (evict the
/// oldest when full; if it has a frequent match, its closure leaves with it;
/// the matcher sees only in-window back edges) and logs every call. Timed
/// passes then replay the cursor alone, the window calls alone and the
/// matcher calls alone (medians of `reps`). Records the window and matching
/// counters; the split is reported only when the replay's matcher counters
/// equal LOOM's own.
Split SplitLoomPass(const loom::TpstryPP* trie,
                    const loom::LoomOptions& options,
                    const loom::GraphStream& stream,
                    const loom::StreamMatcherStats& loom_matcher_stats,
                    int reps, Trace* trace, Result* result) {
  struct Eviction {
    VertexId oldest;
    size_t closure_begin;
    size_t closure_end;
  };
  const auto& arrivals = stream.arrivals();
  const size_t capacity = options.partitioner.window_size;
  const bool transitive = options.group_overlapping_matches;
  std::vector<std::vector<VertexId>> in_window(arrivals.size());
  std::vector<Eviction> evictions;
  std::vector<VertexId> closures;
  std::vector<uint8_t> is_eviction;  // event sequence: 0 arrival, 1 eviction
  is_eviction.reserve(2 * arrivals.size());
  uint64_t num_closures = 0;
  uint64_t closure_vertices = 0;
  loom::StreamMatcherStats recorded;
  {
    loom::StreamWindow window(capacity);
    loom::StreamMatcher matcher(trie, options.matcher);
    auto evict = [&] {
      const VertexId oldest = window.Oldest();
      const std::vector<VertexId> closure =
          matcher.HasFrequentMatch(oldest)
              ? matcher.MatchClosureFor(oldest, transitive)
              : std::vector<VertexId>();
      evictions.push_back({oldest, closures.size(),
                           closures.size() + closure.size()});
      closures.insert(closures.end(), closure.begin(), closure.end());
      window.Remove(oldest);
      matcher.RemoveVertex(oldest);
      for (const VertexId v : closure) {
        window.Remove(v);
        matcher.RemoveVertex(v);
      }
      if (!closure.empty()) {
        ++num_closures;
        closure_vertices += closure.size() + 1;
      }
      is_eviction.push_back(1);
    };
    for (size_t i = 0; i < arrivals.size(); ++i) {
      const loom::VertexArrival& a = arrivals[i];
      if (window.Full()) evict();
      window.Push(a.vertex, a.label, a.back_edges);
      for (const VertexId w : a.back_edges) {
        if (w != a.vertex && window.Contains(w)) in_window[i].push_back(w);
      }
      matcher.OnVertex(a.vertex, a.label, in_window[i]);
      is_eviction.push_back(0);
    }
    while (!window.Empty()) evict();
    recorded = matcher.stats();
  }

  std::vector<double> cursor_s;
  std::vector<double> window_s;
  std::vector<double> matching_s;
  bool replay_equal = true;
  for (int rep = 0; rep < reps; ++rep) {
    {
      loom::StreamCursor cursor(stream);
      loom::ArrivalView view;
      uint64_t edges = 0;
      const Clock::time_point start = Clock::now();
      while (cursor.Next(&view)) edges += view.back_edges.size();
      cursor_s.push_back(SecondsSince(start));
      if (edges != stream.NumEdges()) replay_equal = false;
    }
    {
      loom::StreamWindow window(capacity);
      std::vector<VertexId> scratch;
      size_t ai = 0;
      size_t ei = 0;
      const Clock::time_point start = Clock::now();
      for (const uint8_t ev : is_eviction) {
        if (ev == 0) {
          const loom::VertexArrival& a = arrivals[ai++];
          window.Push(a.vertex, a.label, a.back_edges);
          scratch.clear();
          for (const VertexId w : a.back_edges) {
            if (w != a.vertex && window.Contains(w)) scratch.push_back(w);
          }
        } else {
          const Eviction& e = evictions[ei++];
          if (window.Oldest() != e.oldest) replay_equal = false;
          window.Remove(e.oldest);
          for (size_t c = e.closure_begin; c < e.closure_end; ++c) {
            window.Remove(closures[c]);
          }
        }
      }
      window_s.push_back(SecondsSince(start));
    }
    {
      loom::StreamMatcher matcher(trie, options.matcher);
      size_t ai = 0;
      size_t ei = 0;
      const Clock::time_point start = Clock::now();
      for (const uint8_t ev : is_eviction) {
        if (ev == 0) {
          const loom::VertexArrival& a = arrivals[ai];
          matcher.OnVertex(a.vertex, a.label, in_window[ai]);
          ++ai;
        } else {
          const Eviction& e = evictions[ei++];
          const std::vector<VertexId> closure =
              matcher.HasFrequentMatch(e.oldest)
                  ? matcher.MatchClosureFor(e.oldest, transitive)
                  : std::vector<VertexId>();
          matcher.RemoveVertex(e.oldest);
          for (const VertexId v : closure) matcher.RemoveVertex(v);
        }
      }
      matching_s.push_back(SecondsSince(start));
      if (!SameMatcherStats(matcher.stats(), recorded)) replay_equal = false;
    }
  }
  Split split;
  split.reported =
      replay_equal && SameMatcherStats(recorded, loom_matcher_stats);
  split.cursor_s = Median(cursor_s);
  split.window_s = Median(window_s);
  split.matching_s = Median(matching_s);
  trace->Add("stream.replay", reps, split.cursor_s * reps);
  trace->Add("window.replay", reps, split.window_s * reps);
  trace->Add("matching.replay", reps, split.matching_s * reps);

  // The counters are LOOM's own; the replay only supplies the times.
  const loom::StreamMatcherStats& s = loom_matcher_stats;
  result->Count("window.evictions", evictions.size());
  result->Count("matching.split_reported", split.reported ? 1 : 0);
  result->Count("matching.edges_processed", s.edges_processed);
  result->Count("matching.growths_accepted", s.growths_accepted);
  result->Count("matching.growths_rejected", s.growths_rejected);
  result->Metric("matching.growth_accept_ratio",
                 Ratio(static_cast<double>(s.growths_accepted),
                       static_cast<double>(s.growths_accepted +
                                           s.growths_rejected)),
                 "ratio");
  result->Count("matching.regrow_invocations", s.regrow_invocations);
  result->Count("matching.regrow_matches", s.regrow_matches);
  result->Count("matching.tracked_dropped", s.tracked_dropped);
  result->Count("matching.max_tracked_live", s.max_tracked_live);
  result->Count("matching.closures", num_closures);
  result->Metric("matching.mean_closure_size",
                 Ratio(static_cast<double>(closure_vertices),
                       static_cast<double>(num_closures)),
                 "count");
  return split;
}

void CheckPartitionerStats(const loom::PartitionerStats& stats,
                           const std::string& what, Result* result) {
  result->Check(stats.assign_errors == 0, what + ": assign_errors == 0");
}

/// LDG over the same stream and the same partitioner options: the
/// quality/throughput reference for LOOM.
void LdgReference(const LoomInput& in, int reps, Result* result) {
  std::unique_ptr<loom::StreamingPartitioner> ldg =
      Must(loom::MakePartitioner("ldg", in.options.partitioner), "ldg");
  std::vector<double> run_s;
  for (int rep = 0; rep < reps; ++rep) {
    ldg->Reset();
    const Clock::time_point t = Clock::now();
    ldg->Run(in.stream);
    run_s.push_back(SecondsSince(t));
  }
  const loom::WorkloadIptStats ipt =
      loom::EvaluateWorkloadIpt(in.g, ldg->assignment(), in.workload);
  result->Metric("ref.ldg_eps",
                 static_cast<double>(in.g.NumEdges()) / Median(run_s), "1/s");
  result->Metric("ref.ldg_ipt", ipt.ipt_probability, "ratio");
  result->Metric("ref.ldg_one_part", ipt.single_partition_fraction, "ratio");
}

/// The traced run shared by both LOOM workloads: untraced and traced cold
/// passes alternate (so the overhead ratio compares passes that met the same
/// machine load), then the outside-in split. Records the stream, window,
/// matching, core (except memo), partition and trace metrics.
void TraceColdLoomPass(const LoomInput& in, const Args& args, Result* result,
                       Trace* trace) {
  const loom::LoomOptions& options = in.options;
  std::vector<double> untraced_s;
  std::vector<double> setup_s;
  uint64_t first_hash = 0;
  std::unique_ptr<loom::Loom> loom_instance;
  std::vector<TracedPass> passes;
  bool identical = true;
  Repeat(args.seconds / 2, 3, 1000, [&](int rep) {
    loom_instance.reset();
    Clock::time_point t = Clock::now();
    loom_instance =
        Must(loom::Loom::Create(in.workload, options), "Loom::Create");
    setup_s.push_back(SecondsSince(t));
    loom::LoomPartitioner& partitioner = loom_instance->Partitioner();
    t = Clock::now();
    partitioner.Run(in.stream);
    untraced_s.push_back(SecondsSince(t));
    const uint64_t h = AssignmentHash(partitioner.assignment());
    if (rep == 0) first_hash = h;
    passes.push_back(RunTracedPass(&partitioner, in.stream));
    identical = identical && h == first_hash &&
                AssignmentHash(partitioner.assignment()) == first_hash;
  });
  trace->Add("core.loom_create", setup_s.size(),
             std::accumulate(setup_s.begin(), setup_s.end(), 0.0));
  const loom::LoomPartitioner& partitioner = loom_instance->Partitioner();
  result->Check(identical, "traced LOOM passes place like the untraced ones");
  std::vector<double> regions;
  std::vector<double> on_vertex_s;
  std::vector<double> finish_s;
  TracedPass sum;
  for (const TracedPass& p : passes) {
    sum.next_s += p.next_s;
    sum.on_vertex_s += p.on_vertex_s;
    sum.finish_s += p.finish_s;
    sum.region_s += p.region_s;
    regions.push_back(p.region_s);
    on_vertex_s.push_back(p.on_vertex_s);
    finish_s.push_back(p.finish_s);
  }
  trace->Add("stream.next", passes.size() * (passes[0].arrivals + 1),
             sum.next_s);
  trace->Add("core.on_vertex", passes.size() * passes[0].arrivals,
             sum.on_vertex_s);
  trace->Add("core.finish", passes.size(), sum.finish_s);

  const Split split =
      SplitLoomPass(&loom_instance->Trie(), options, in.stream,
                    partitioner.matcher_stats(), 3, trace, result);
  result->Check(split.reported,
                "window/matching replay reproduces LOOM's matcher counters");
  const double untraced = Median(untraced_s);
  result->Metric("stream.next_s", split.cursor_s, "s");
  result->Count("stream.arrivals", passes[0].arrivals);
  result->Count("stream.edges", passes[0].edges);
  result->Metric("stream.eps",
                 static_cast<double>(in.g.NumEdges()) / Min(untraced_s),
                 "1/s");
  result->Metric("window.s", split.reported ? split.window_s : 0.0, "s");
  result->Metric("matching.s", split.reported ? split.matching_s : 0.0, "s");

  const loom::LoomStats& ls = partitioner.loom_stats();
  result->Metric("core.on_vertex_s", Median(on_vertex_s), "s");
  result->Metric("core.finish_s", Median(finish_s), "s");
  // The untraced pass minus the isolated replays of the calls LOOM makes
  // into the cursor, the window and the matcher: what its own scoring and
  // assignment cost, without the traced run's clock reads.
  result->Metric("core.score_assign_s",
                 split.reported ? untraced - split.cursor_s - split.window_s -
                                      split.matching_s
                                : 0.0,
                 "s");
  result->Count("core.clusters_assigned", ls.clusters_assigned);
  result->Metric("core.cluster_vertex_share",
                 Ratio(static_cast<double>(ls.cluster_vertices),
                       static_cast<double>(in.g.NumVertices())),
                 "ratio");
  result->Count("core.clusters_split", ls.clusters_split);
  result->Count("core.split_chunks", ls.split_chunks);
  result->Count("core.single_vertices", ls.single_vertices);

  ReportPartitionCounters(partitioner.stats(), result);
  CheckPartitionerStats(partitioner.stats(), "traced LOOM pass", result);
  CheckVertexAssignment(in.stream, partitioner.assignment(),
                        options.partitioner.capacity_slack, result);

  const double timed = Median(regions);
  result->Metric("trace.timed_s", timed, "s");
  result->Metric("trace.untraced_s", untraced, "s");
  result->Metric("trace.overhead_ratio", Ratio(timed, untraced), "ratio");
  // The spans share their boundaries, so this is 1 by construction: it shows
  // the spans cover the pass, not that the traced times are accurate (the
  // overhead ratio says how far they are from the untraced pass).
  result->Metric("trace.self_sum_ratio",
                 Ratio(sum.next_s + sum.on_vertex_s + sum.finish_s,
                       sum.region_s),
                 "ratio");
}

}  // namespace

void RunLoomNatural(const Args& args, Result* result) {
  const std::vector<LoomInput> inputs =
      MakeLoomInputs(args, kLoomNaturalGraphs, kLoomNaturalVertices,
                     loom::StreamOrder::kNatural, result);

  if (args.trace) {
    Trace trace;
    TraceColdLoomPass(inputs[0], args, result, &trace);
    LdgReference(inputs[0], 3, result);
    trace.Print();
    return;
  }

  // Cold passes, each on a fresh Loom whose Loom::Create is a set-up sample.
  std::vector<Samples> setup(inputs.size());
  std::vector<Samples> run(inputs.size());
  QualityMean quality;
  uint64_t m = 0;
  for (size_t i = 0; i < inputs.size(); ++i) {
    const LoomInput& in = inputs[i];
    std::unique_ptr<loom::Loom> last;
    uint64_t first_hash = 0;
    bool identical = true;
    Repeat(args.seconds / inputs.size(), 5, 100000, [&](int rep) {
      last.reset();
      const Stopwatch setup_watch;
      last = Must(loom::Loom::Create(in.workload, in.options), "Loom::Create");
      setup_watch.Stop(&setup[i]);
      const Stopwatch run_watch;
      last->Partitioner().Run(in.stream);
      run_watch.Stop(&run[i]);
      const uint64_t h = AssignmentHash(last->Partitioner().assignment());
      if (rep == 0) first_hash = h;
      identical = identical && h == first_hash;
    });
    result->Check(identical, "every repeated LOOM pass places identically");
    const loom::LoomPartitioner& partitioner = last->Partitioner();
    CheckPartitionerStats(partitioner.stats(), "LOOM pass", result);
    CheckVertexAssignment(in.stream, partitioner.assignment(),
                          in.options.partitioner.capacity_slack, result);
    AddVertexQuality(in.g, partitioner.assignment(), in.workload, &quality);
    m += in.g.NumEdges();
  }
  ReportTimes(setup, run, result);
  double fastest = 0.0;
  for (const Samples& r : run) fastest += Min(r.cpu_s);
  result->Metric("stream_eps", Ratio(static_cast<double>(m), fastest), "1/s");
  quality.Report(result);
  result->Metric("peak_rss_mb", PeakRssMb(), "MB");
}

void RunRestreamRandom(const Args& args, Result* result) {
  const std::vector<LoomInput> inputs =
      MakeLoomInputs(args, kRestreamGraphs, kRestreamVertices,
                     loom::StreamOrder::kRandom, result);
  const loom::RestreamOptions restream_options;  // 3 passes, kGain, memo, keep-best

  // One restream: Loom::Create and the Restreamer constructor are set-up,
  // timed into `setup`; Restreamer::Run is the timed call, timed into
  // `timed`.
  struct Run {
    double ctor_s = 0.0;  // wall
    double run_s = 0.0;   // wall
    loom::RestreamResult restream;
    std::unique_ptr<loom::Loom> loom;
  };
  auto restream_once = [&](const LoomInput& in, Samples* setup,
                           Samples* timed) {
    Run run;
    const Stopwatch setup_watch;
    run.loom =
        Must(loom::Loom::Create(in.workload, in.options), "Loom::Create");
    const Clock::time_point ctor_start = Clock::now();
    const loom::Restreamer restreamer(in.stream, restream_options);
    run.ctor_s = SecondsSince(ctor_start);
    setup_watch.Stop(setup);
    const Stopwatch run_watch;
    run.restream = restreamer.Run(&run.loom->Partitioner());
    run_watch.Stop(timed);
    run.run_s = timed->wall_s.back();
    return run;
  };
  auto check_run = [&](const LoomInput& in, const Run& run) {
    for (const loom::RestreamPassStats& p : run.restream.passes) {
      result->Check(p.assign_errors == 0,
                    "restream pass " + std::to_string(p.pass) +
                        ": assign_errors == 0");
    }
    const double recomputed =
        loom::EdgeCutFraction(in.g, run.restream.assignment);
    result->Check(std::abs(recomputed - run.restream.edge_cut_fraction) <=
                      1e-12,
                  "recomputed edge cut equals the Restreamer's");
    CheckVertexAssignment(in.stream, run.restream.assignment,
                          in.options.partitioner.capacity_slack, result);
  };

  if (!args.trace) {
    std::vector<Samples> setup(inputs.size());
    std::vector<Samples> run(inputs.size());
    QualityMean quality;
    for (size_t i = 0; i < inputs.size(); ++i) {
      const LoomInput& in = inputs[i];
      Run last;
      uint64_t first_hash = 0;
      bool identical = true;
      Repeat(args.seconds / inputs.size(), 5, 100000, [&](int rep) {
        last = Run();  // free the previous run before the next allocates
        // Set-up alone, apart from any restream's memory traffic.
        for (int j = 0; j < kRestreamSetupSamplesPerRep; ++j) {
          const Stopwatch setup_watch;
          const std::unique_ptr<loom::Loom> loom_instance = Must(
              loom::Loom::Create(in.workload, in.options), "Loom::Create");
          const loom::Restreamer restreamer(in.stream, restream_options);
          setup_watch.Stop(&setup[i]);
        }
        last = restream_once(in, &setup[i], &run[i]);
        const uint64_t h = AssignmentHash(last.restream.assignment);
        if (rep == 0) first_hash = h;
        identical = identical && h == first_hash;
      });
      result->Check(identical, "every repeated restream places identically");
      check_run(in, last);
      AddVertexQuality(in.g, last.restream.assignment, in.workload, &quality);
    }
    ReportTimes(setup, run, result);
    quality.Report(result);
    result->Metric("peak_rss_mb", PeakRssMb(), "MB");
    return;
  }

  // The traced run uses the first graph.
  const LoomInput& in = inputs[0];
  Trace trace;
  TraceColdLoomPass(in, args, result, &trace);

  Samples setup;
  Samples timed;
  const Run run = restream_once(in, &setup, &timed);
  check_run(in, run);
  result->Metric("restream.ctor_s", run.ctor_s, "s");
  double pass_sum = 0.0;
  uint64_t reported_pass = 0;
  // partition.* of the traced cold pass are replaced by the restream's
  // counters (summed over passes; prior moves are the last pass's).
  loom::PartitionerStats counters;
  for (const loom::RestreamPassStats& p : run.restream.passes) {
    const std::string pass = "restream.pass" + std::to_string(p.pass);
    result->Metric(pass + "_s", p.seconds, "s");
    result->Metric(pass + "_edge_cut", p.edge_cut_fraction, "ratio");
    if (p.pass > 1) {
      result->Metric(pass + "_migration", p.migration_fraction, "ratio");
    }
    pass_sum += p.seconds;
    if (reported_pass == 0 &&
        p.edge_cut_fraction == run.restream.edge_cut_fraction) {
      reported_pass = p.pass;
    }
    counters.overflow_fallbacks += p.overflow_fallbacks;
    counters.forced_placements += p.forced_placements;
    counters.assign_errors += p.assign_errors;
    counters.budget_denied_moves += p.budget_denied_moves;
  }
  counters.prior_moves = run.loom->Partitioner().stats().prior_moves;
  ReportPartitionCounters(counters, result);
  const double driver_s = run.run_s - pass_sum;
  result->Metric("restream.driver_s", driver_s, "s");
  result->Count("restream.reported_pass", reported_pass);
  trace.Add("restream.ctor", 1, run.ctor_s);
  trace.Add("restream.run", 1, run.run_s, driver_s);
  trace.Add("restream.pass", run.restream.passes.size(), pass_sum);

  const loom::LoomStats& memo = run.loom->Partitioner().loom_stats();
  result->Count("core.memo_units", memo.memo_units);
  result->Count("core.memo_vertices", memo.memo_vertices);
  result->Count("core.memo_invalidated", memo.memo_invalidated);
  result->Metric("core.memo_hit_ratio",
                 Ratio(static_cast<double>(memo.memo_units),
                       static_cast<double>(memo.memo_units +
                                           memo.memo_invalidated)),
                 "ratio");

  LdgReference(in, 3, result);
  trace.Print();
}

}  // namespace perfbench
