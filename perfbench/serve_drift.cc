// serve-drift: a loom::Service ingesting an open-loop arrival stream while
// two closed-loop readers call Locate/Touches, with the query mix flipping
// from workload A to workload B halfway so the drift loop fires and a
// restream reaction runs on the pipeline worker.
//
// Threads: the generator (this thread) sends ingest batches on a fixed
// schedule and issues a fixed number of seeded observations between
// batches, so every reaction queues behind the same batch in every
// repetition; two reader threads; the service's pipeline worker.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <numeric>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "graph/generators.h"
#include "harness.h"
#include "serving/service.h"
#include "workload/query_builders.h"
#include "workloads.h"

namespace perfbench {

namespace {

using loom::VertexId;

constexpr uint32_t kVertices = 40000;
constexpr uint32_t kEdgesPerVertex = 4;  // BA average degree 8
constexpr uint32_t kParts = 8;
constexpr uint32_t kBatchSize = 128;
/// Open-loop arrival rate, below the rate one pipeline worker sustains on
/// this configuration with both readers running, so the backlog stays
/// bounded outside the reaction.
constexpr double kArrivalsPerSecond = 40000.0;
constexpr uint32_t kObservationsPerBatch = 4;
constexpr uint32_t kReaders = 2;
constexpr double kLocateShare = 0.7;
/// Service::Create samples taken before each repetition. One takes about
/// 0.1 ms, so many samples are needed for a steady minimum.
constexpr int kSetupSamplesPerRep = 40;
/// Scenario repetitions the traced run adds under fully default options.
constexpr int kDefaultWindowReps = 3;
/// Ingest time of one scenario repetition (n / rate), which sets how many
/// repetitions fit in --seconds.
constexpr double kScenarioSeconds = kVertices / kArrivalsPerSecond;

// Pre-drift traffic: label-{0,1} paths and cycles.
loom::Workload WorkloadA() {
  loom::Workload w;
  (void)w.Add("a-path", loom::PathQuery({0, 1, 0}), 2.0);
  (void)w.Add("a-cycle", loom::CycleQuery({0, 1, 0, 1}), 1.0);
  w.Normalize();
  return w;
}

// Post-drift traffic: label-{2,3} triangles and stars.
loom::Workload WorkloadB() {
  loom::Workload w;
  (void)w.Add("b-tri", loom::TriangleQuery(2, 3, 2), 2.0);
  (void)w.Add("b-star", loom::StarQuery(3, {2, 2}), 1.0);
  w.Normalize();
  return w;
}

/// Latency histogram in nanoseconds: exact below 16 us, 1 us buckets up to
/// 16 ms, one overflow bucket. Readers record tens of millions of calls, too
/// many to keep as samples.
class Histogram {
 public:
  Histogram() : buckets_(kExact + kCoarse + 1, 0) {}

  void Add(double seconds) {
    const double ns = seconds * 1e9;
    size_t b;
    if (ns < kExact) {
      b = static_cast<size_t>(ns);
    } else if (ns < kExact + kCoarse * 1000.0) {
      b = kExact + static_cast<size_t>((ns - kExact) / 1000.0);
    } else {
      b = kExact + kCoarse;
    }
    ++buckets_[b];
    ++count_;
  }

  void Merge(const Histogram& other) {
    for (size_t i = 0; i < buckets_.size(); ++i) buckets_[i] += other.buckets_[i];
    count_ += other.count_;
  }

  uint64_t count() const { return count_; }

  /// Nearest-rank percentile in seconds (bucket lower edge).
  double Percentile(double q) const {
    if (count_ == 0) return 0.0;
    const uint64_t rank = std::max<uint64_t>(
        1, static_cast<uint64_t>(std::ceil(q * static_cast<double>(count_))));
    uint64_t seen = 0;
    for (size_t b = 0; b < buckets_.size(); ++b) {
      seen += buckets_[b];
      if (seen >= rank) {
        const double ns = b < kExact ? static_cast<double>(b)
                                     : kExact + (b - kExact) * 1000.0;
        return ns * 1e-9;
      }
    }
    return (kExact + kCoarse * 1000.0) * 1e-9;
  }

 private:
  static constexpr size_t kExact = 16000;
  static constexpr size_t kCoarse = 16000;
  std::vector<uint64_t> buckets_;
  uint64_t count_ = 0;
};

struct Reader {
  Histogram locate;
  Histogram touches;
  uint64_t calls = 0;
  uint64_t during_reaction = 0;
  bool epochs_monotone = true;
};

/// Everything one scenario repetition measured.
struct Rep {
  bool ingest_ok = true;
  uint64_t fires = 0;
  double adapt_s = 0.0;
  /// Pipeline-worker CPU seconds from its start to the last batch's
  /// completion: every batch's ingest and snapshot publish, and the drift
  /// reaction queued between two of them.
  double pipeline_cpu_s = 0.0;
  /// Minor page faults the pipeline worker took in the repetition.
  uint64_t pipeline_page_faults = 0;
  std::vector<double> ingest_s;    // scheduled send -> completion
  std::vector<double> pipeline_s;  // Ingest return -> completion
  std::vector<double> call_s;      // Ingest call
  std::vector<double> late_s;      // generator lateness at send
  std::vector<double> observe_s;   // ObserveQuery call
  uint64_t backlog_max = 0;
  Reader readers;                  // merged over reader threads
  loom::ServiceStats stats;
  bool all_located = true;
  loom::PartitionAssignment sealed{kParts, 0};
};

/// The service's options: the defaults, except for the graph-size hints
/// and, when `one_check_window` is set, a tracker window of one drift-check
/// period. That window is all B within two checks of the flip, so drift
/// fires once, against the full B mix. With the default 256-query window
/// the first fire rebases onto a partly-B mix and a second fire follows at a
/// check whose timing depends on when the first reaction finished (checks
/// are skipped while one is pending), so the adapt time and the sealed
/// placement vary from repetition to repetition. The timed scenario uses the
/// one-check window; the traced run also runs the default window and
/// records that variation (drift.default_*).
loom::ServiceOptions MakeServiceOptions(const loom::LabeledGraph& g,
                                        uint64_t seed, bool one_check_window) {
  loom::ServiceOptions options;
  options.loom.partitioner.k = kParts;
  options.loom.partitioner.num_vertices_hint = g.NumVertices();
  options.loom.partitioner.num_edges_hint = g.NumEdges();
  options.loom.matcher.frequency_threshold = 0.2;
  options.num_labels = 4;
  options.drift.seed = seed;
  if (one_check_window) {
    options.tracker.window_queries = options.drift_check_every_queries;
  }
  return options;
}

/// One scenario repetition; its Service::Create is timed into `setup`.
Rep RunScenario(const loom::LabeledGraph& g, const loom::GraphStream& stream,
                const loom::Workload& workload_a,
                const loom::Workload& workload_b, uint64_t seed,
                bool one_check_window, Samples* setup) {
  Rep rep;
  const std::vector<loom::VertexArrival>& arrivals = stream.arrivals();
  const size_t num_batches = (arrivals.size() + kBatchSize - 1) / kBatchSize;
  std::vector<Clock::time_point> completed(num_batches);
  std::atomic<uint64_t> batches_done{0};
  loom::ServiceOptions options = MakeServiceOptions(g, seed, one_check_window);
  options.on_batch_processed = [&](uint64_t seq) {
    completed[seq] = Clock::now();
    // The callback runs on the pipeline worker: these are its CPU clock and
    // fault count.
    rep.pipeline_cpu_s = ThreadCpuSeconds();
    rusage usage{};
    if (getrusage(RUSAGE_THREAD, &usage) == 0) {
      rep.pipeline_page_faults = static_cast<uint64_t>(usage.ru_minflt);
    }
    batches_done.fetch_add(1, std::memory_order_release);
  };
  const Stopwatch create_watch;
  std::unique_ptr<loom::Service> service =
      Must(loom::Service::Create(workload_a, options), "Service::Create");
  create_watch.Stop(setup);

  std::atomic<bool> stop{false};
  std::atomic<bool> phase_b{false};
  std::vector<Reader> readers(kReaders);
  std::vector<std::thread> threads;
  for (uint32_t r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      loom::Rng rng(seed * 1000 + 17 + r);
      Reader& log = readers[r];
      uint64_t last_epoch = 0;
      while (!stop.load(std::memory_order_acquire)) {
        const loom::Workload& w =
            phase_b.load(std::memory_order_acquire) ? workload_b : workload_a;
        if (rng.UniformDouble() < kLocateShare) {
          const VertexId v = static_cast<VertexId>(
              rng.UniformInt(0, g.NumVertices() - 1));
          const Clock::time_point t = Clock::now();
          (void)service->Locate(v);
          log.locate.Add(SecondsSince(t));
        } else {
          const loom::LabeledGraph& q =
              w.queries()[w.SampleIndex(rng)].pattern;
          const Clock::time_point t = Clock::now();
          (void)service->Touches(q);
          log.touches.Add(SecondsSince(t));
        }
        // Sampled every 64 calls: reads during a reaction, epoch order.
        if (++log.calls % 64 == 0) {
          if (service->Stats().reaction_running) log.during_reaction += 64;
          const uint64_t epoch = service->Snapshot()->epoch;
          if (epoch < last_epoch) log.epochs_monotone = false;
          last_epoch = epoch;
        }
      }
    });
  }

  // Generator: batch i is due at start + i * interval whatever the service
  // does; between batches it issues the seeded observations and polls the
  // drift counters from outside.
  loom::Rng observe_rng(seed * 1000 + 3);
  const double interval = kBatchSize / kArrivalsPerSecond;
  const Clock::time_point start = Clock::now();
  std::vector<double> scheduled(num_batches);
  std::vector<double> returned_at;  // Ingest return, seconds after start
  Clock::time_point first_fire{};
  bool fired = false;
  uint64_t reactions_seen = 0;
  Clock::time_point last_reaction_seen{};
  auto poll = [&] {
    const loom::ServiceStats s = service->Stats();
    if (s.drift_reactions > reactions_seen) {
      reactions_seen = s.drift_reactions;
      last_reaction_seen = Clock::now();
    }
  };
  uint64_t sent = 0;
  for (size_t i = 0; i < num_batches && rep.ingest_ok; ++i) {
    const double due = static_cast<double>(i) * interval;
    scheduled[i] = due;
    for (double now = SecondsSince(start); now < due;
         now = SecondsSince(start)) {
      poll();
      std::this_thread::sleep_for(std::chrono::duration<double>(
          std::min(due - now, 0.0005)));
    }
    rep.late_s.push_back(SecondsSince(start) - due);
    const size_t offset = i * kBatchSize;
    const size_t count = std::min<size_t>(kBatchSize, arrivals.size() - offset);
    const Clock::time_point call = Clock::now();
    if (!service->Ingest(arrivals.data() + offset, count).ok()) {
      rep.ingest_ok = false;
      break;
    }
    const Clock::time_point returned = Clock::now();
    rep.call_s.push_back(SecondsBetween(call, returned));
    returned_at.push_back(SecondsBetween(start, returned));
    ++sent;
    rep.backlog_max = std::max<uint64_t>(
        rep.backlog_max,
        sent - batches_done.load(std::memory_order_acquire));
    if (i + 1 == num_batches / 2) {
      phase_b.store(true, std::memory_order_release);
    }
    const loom::Workload& w = i + 1 >= num_batches / 2 ? workload_b
                                                       : workload_a;
    for (uint32_t o = 0; o < kObservationsPerBatch; ++o) {
      const loom::LabeledGraph& q =
          w.queries()[w.SampleIndex(observe_rng)].pattern;
      const uint64_t fires_before = service->Stats().drift_fires;
      const Clock::time_point t = Clock::now();
      if (!service->ObserveQuery(q).ok()) rep.ingest_ok = false;
      rep.observe_s.push_back(SecondsSince(t));
      if (!fired && service->Stats().drift_fires > fires_before) {
        fired = true;
        first_fire = t;
      }
    }
    poll();
  }
  service->Flush();
  // Wait (polling from outside) until every fired reaction has completed.
  const Clock::time_point wait_start = Clock::now();
  for (;;) {
    poll();
    const loom::ServiceStats s = service->Stats();
    if (s.drift_reactions >= s.drift_fires || SecondsSince(wait_start) > 60) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& t : threads) t.join();
  for (const Reader& r : readers) {
    rep.readers.locate.Merge(r.locate);
    rep.readers.touches.Merge(r.touches);
    rep.readers.calls += r.calls;
    rep.readers.during_reaction += r.during_reaction;
    rep.readers.epochs_monotone =
        rep.readers.epochs_monotone && r.epochs_monotone;
  }
  if (!service->Seal().ok()) rep.ingest_ok = false;
  rep.stats = service->Stats();
  rep.fires = rep.stats.drift_fires;
  rep.adapt_s = fired && reactions_seen == rep.fires
                    ? SecondsBetween(first_fire, last_reaction_seen)
                    : 0.0;

  for (size_t i = 0; i < rep.call_s.size(); ++i) {
    const double done = SecondsBetween(start, completed[i]);
    rep.ingest_s.push_back(done - scheduled[i]);
    rep.pipeline_s.push_back(done - returned_at[i]);
  }
  // The sealed placement: every ingested vertex must be located.
  const loom::PlacementSnapshot* sealed = service->Snapshot();
  for (const loom::VertexArrival& a : arrivals) {
    const int32_t p = sealed->Locate(a.vertex);
    if (p < 0 || !rep.sealed.Assign(a.vertex, static_cast<uint32_t>(p)).ok()) {
      rep.all_located = false;
    }
  }
  return rep;
}

}  // namespace

void RunServeDrift(const Args& args, Result* result) {
  const loom::Workload workload_a = WorkloadA();
  const loom::Workload workload_b = WorkloadB();
  loom::Rng rng(args.seed);
  loom::LabeledGraph g = loom::BarabasiAlbert(
      kVertices, kEdgesPerVertex, loom::LabelConfig{4, 0.2}, rng);
  loom::bench::PlantWorkloadMotifs(&g, workload_a, kVertices / 24, rng, 48);
  loom::bench::PlantWorkloadMotifs(&g, workload_b, kVertices / 24, rng, 48);
  const loom::GraphStream stream =
      loom::MakeStream(g, loom::StreamOrder::kDfs, rng);
  result->Provenance("seed", std::to_string(args.seed));
  result->Provenance("graph",
                     "barabasi-albert(edges_per_vertex=4,labels=4,zipf=0.2)");
  result->Provenance("workload", "A(path,cycle)->B(triangle,star),"
                                 "planted_per_query=n/24,span=48");
  result->Provenance("order", loom::StreamOrderName(loom::StreamOrder::kDfs));
  result->Provenance("schedule",
                     "batch=128,rate=40000/s,observations_per_batch=4,"
                     "flip_at_batch=half,readers=2");
  result->Provenance("n", std::to_string(g.NumVertices()));
  result->Provenance("m", std::to_string(g.NumEdges()));
  result->Provenance("arrival_hash", Hex(ArrivalHash(stream)));

  // A fixed repetition count for a given --seconds (not "until the time
  // is up"): peak RSS depends on how many services the process has run.
  const int num_reps =
      std::max(2, static_cast<int>(args.seconds / kScenarioSeconds));
  Samples setup;
  std::vector<Rep> reps;
  for (int i = 0; i < num_reps; ++i) {
    for (int j = 0; j < kSetupSamplesPerRep; ++j) {
      const Stopwatch setup_watch;
      const std::unique_ptr<loom::Service> service =
          Must(loom::Service::Create(workload_a,
                                     MakeServiceOptions(g, args.seed, true)),
               "Service::Create");
      setup_watch.Stop(&setup);
    }
    reps.push_back(RunScenario(g, stream, workload_a, workload_b, args.seed,
                               true, &setup));
  }

  // The timed work: the pipeline worker's CPU for the whole scenario, with
  // the adapt time as its wall-clock reading.
  Samples pipeline;
  std::vector<double> ingest_s;
  std::vector<double> pipeline_s;
  std::vector<double> call_s;
  std::vector<double> late_s;
  std::vector<double> observe_s;
  std::vector<double> reaction_s;
  Histogram locate;
  Histogram touches;
  uint64_t backlog_max = 0;
  uint64_t during_reaction = 0;
  uint64_t rejected = 0;
  std::set<uint64_t> sealed_hashes;
  for (const Rep& rep : reps) {
    result->Check(rep.ingest_ok, "every Ingest/ObserveQuery/Seal call is OK");
    result->Check(rep.stats.rejected_batches == 0, "no rejected batches");
    result->Check(rep.stats.ingested_vertices == stream.NumVertices(),
                  "every arrival ingested");
    result->Check(rep.all_located,
                  "after Seal every ingested vertex has Locate >= 0");
    result->Check(rep.readers.epochs_monotone,
                  "snapshot epochs seen by readers are monotone");
    result->Check(rep.stats.assign_errors == 0, "assign_errors == 0");
    result->Check(rep.fires >= 1 && rep.stats.drift_reactions == rep.fires,
                  "drift fired and every fire completed its reaction");
    result->Check(rep.fires == reps[0].fires,
                  "drift fire count equal in every repetition");
    result->Check(AssignmentHash(rep.sealed) == AssignmentHash(reps[0].sealed),
                  "sealed placement identical in every repetition");
    result->Attempted(rep.readers.calls);
    pipeline.wall_s.push_back(rep.adapt_s);
    pipeline.cpu_s.push_back(rep.pipeline_cpu_s);
    ingest_s.insert(ingest_s.end(), rep.ingest_s.begin(), rep.ingest_s.end());
    pipeline_s.insert(pipeline_s.end(), rep.pipeline_s.begin(),
                      rep.pipeline_s.end());
    call_s.insert(call_s.end(), rep.call_s.begin(), rep.call_s.end());
    late_s.insert(late_s.end(), rep.late_s.begin(), rep.late_s.end());
    observe_s.insert(observe_s.end(), rep.observe_s.begin(),
                     rep.observe_s.end());
    reaction_s.push_back(rep.stats.last_reaction_seconds);
    sealed_hashes.insert(AssignmentHash(rep.sealed));
    locate.Merge(rep.readers.locate);
    touches.Merge(rep.readers.touches);
    backlog_max = std::max(backlog_max, rep.backlog_max);
    during_reaction += rep.readers.during_reaction;
    rejected += rep.stats.rejected_batches;
  }
  const Rep& last = reps.back();
  CheckVertexAssignment(stream, last.sealed,
                        MakeServiceOptions(g, args.seed, true)
                            .loom.partitioner.capacity_slack,
                        result);

  if (!args.trace) {
    ReportTimes({setup}, {pipeline}, result);
    // Quality of the sealed placement against the post-drift workload.
    QualityMean quality;
    AddVertexQuality(g, last.sealed, workload_b, &quality);
    quality.Report(result);
    result->Metric("peak_rss_mb", PeakRssMb(), "MB");
    return;
  }

  // The serving calls are timed in every run (the timings are the
  // measurement), so the traced run adds no spans and no overhead.
  Trace trace;
  trace.Add("serving.ingest_call", call_s.size(),
            std::accumulate(call_s.begin(), call_s.end(), 0.0));
  trace.Add("serving.observe", observe_s.size(),
            std::accumulate(observe_s.begin(), observe_s.end(), 0.0));
  trace.Print();
  result->Count("serving.batches", ingest_s.size());
  result->Metric("serving.ingest_p50_ms", Percentile(ingest_s, 0.50) * 1e3,
                 "ms");
  result->Metric("serving.ingest_p99_ms", Percentile(ingest_s, 0.99) * 1e3,
                 "ms");
  result->Metric("serving.ingest_call_p50_us", Percentile(call_s, 0.50) * 1e6,
                 "us");
  result->Metric("serving.ingest_call_p99_us", Percentile(call_s, 0.99) * 1e6,
                 "us");
  result->Metric("serving.pipeline_p50_ms",
                 Percentile(pipeline_s, 0.50) * 1e3, "ms");
  result->Metric("serving.pipeline_p99_ms",
                 Percentile(pipeline_s, 0.99) * 1e3, "ms");
  result->Metric("serving.locate_p99_us", locate.Percentile(0.99) * 1e6, "us");
  result->Metric("serving.touches_p99_us", touches.Percentile(0.99) * 1e6,
                 "us");
  result->Metric("serving.observe_p99_us", Percentile(observe_s, 0.99) * 1e6,
                 "us");
  result->Metric("serving.generator_late_p99_ms",
                 Percentile(late_s, 0.99) * 1e3, "ms");
  result->Count("serving.backlog_max_batches", backlog_max);
  // The first repetition's worker starts from an empty allocator arena; the
  // later ones reuse the memory it faulted in (see main.cc).
  result->Count("serving.pipeline_page_faults",
                reps[0].pipeline_page_faults);
  result->Count("serving.snapshots_published",
                last.stats.snapshots_published);
  result->Count("serving.rejected_batches", rejected);
  result->Count("serving.queries_during_reaction", during_reaction);

  const double adapt = Median(pipeline.wall_s);
  const double reaction = Median(reaction_s);
  result->Count("drift.checks", last.stats.drift_checks);
  result->Count("drift.fires", last.fires);
  result->Count("drift.reactions", last.stats.drift_reactions);
  result->Metric("drift.adapt_s", adapt, "s");
  result->Metric("drift.reaction_s", reaction, "s");
  result->Metric("drift.queue_wait_s", adapt - reaction, "s");
  result->Metric("drift.cut_before", last.stats.last_reaction_edge_cut_before,
                 "ratio");
  result->Metric("drift.cut_after", last.stats.last_reaction_edge_cut_after,
                 "ratio");
  result->Metric("drift.migration",
                 last.stats.last_reaction_migration_fraction, "ratio");
  result->Count("drift.placement_variants", sealed_hashes.size());

  // The same scenario under fully default options. Its fire count and
  // sealed placement are recorded as measured, not checked.
  std::set<uint64_t> default_fires;
  std::set<uint64_t> default_placements;
  std::vector<double> default_adapt_s;
  uint64_t default_fires_max = 0;
  for (int i = 0; i < kDefaultWindowReps; ++i) {
    Samples default_setup;
    const Rep rep = RunScenario(g, stream, workload_a, workload_b, args.seed,
                                false, &default_setup);
    result->Check(rep.ingest_ok && rep.all_located &&
                      rep.stats.rejected_batches == 0 &&
                      rep.stats.assign_errors == 0 &&
                      rep.stats.drift_reactions == rep.fires,
                  "default-window scenario: calls OK, every vertex located, "
                  "every fire completed its reaction");
    default_fires.insert(rep.fires);
    default_fires_max = std::max(default_fires_max, rep.fires);
    default_placements.insert(AssignmentHash(rep.sealed));
    default_adapt_s.push_back(rep.adapt_s);
  }
  result->Count("drift.default_fires", default_fires_max);
  result->Count("drift.default_fire_variants", default_fires.size());
  result->Count("drift.default_placement_variants", default_placements.size());
  result->Metric("drift.default_adapt_s", Median(default_adapt_s), "s");
}

}  // namespace perfbench
