#include "serving_scenario.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <thread>
#include <utility>

#include "workload/query_builders.h"

namespace loom {
namespace bench {

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Pre-drift traffic: label-{0,1} paths and cycles (matches the drift
// scenario, so the two benches exercise the same drift).
Workload WorkloadA() {
  Workload w;
  (void)w.Add("a-path", PathQuery({0, 1, 0}), 2.0);
  (void)w.Add("a-cycle", CycleQuery({0, 1, 0, 1}), 1.0);
  w.Normalize();
  return w;
}

// Post-drift traffic: label-{2,3} triangles and stars.
Workload WorkloadB() {
  Workload w;
  (void)w.Add("b-tri", TriangleQuery(2, 3, 2), 2.0);
  (void)w.Add("b-star", StarQuery(3, {2, 2}), 1.0);
  w.Normalize();
  return w;
}

double Percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double rank = q * static_cast<double>(sorted.size());
  size_t index = static_cast<size_t>(std::ceil(rank));
  if (index > 0) --index;
  if (index >= sorted.size()) index = sorted.size() - 1;
  return sorted[index];
}

/// Per-client tallies, merged after join.
struct ClientLog {
  std::vector<double> locate_seconds;
  std::vector<double> touches_seconds;
  uint64_t during_reaction = 0;
};

}  // namespace

LatencySummary Summarize(std::vector<double>* samples) {
  LatencySummary summary;
  std::sort(samples->begin(), samples->end());
  summary.count = samples->size();
  summary.p50_seconds = Percentile(*samples, 0.50);
  summary.p99_seconds = Percentile(*samples, 0.99);
  summary.p999_seconds = Percentile(*samples, 0.999);
  return summary;
}

ServingScenarioResult RunServingScenario(const ServingScenarioConfig& config) {
  ServingScenarioResult result;

  const Workload workload_a = WorkloadA();
  const Workload workload_b = WorkloadB();

  // Data graph carrying BOTH workloads' structures, streamed once.
  Rng rng(config.seed);
  LabeledGraph g = MakeGraph(GraphKind::kBarabasiAlbert, config.n,
                             config.avg_degree, LabelConfig{4, 0.2}, rng);
  PlantWorkloadMotifs(&g, workload_a, config.n / 24, rng,
                      /*locality_span=*/48);
  PlantWorkloadMotifs(&g, workload_b, config.n / 24, rng,
                      /*locality_span=*/48);
  const GraphStream stream = MakeStream(g, config.stream_order, rng);

  ServiceOptions opts;
  opts.loom.partitioner.k = config.k;
  opts.loom.partitioner.num_vertices_hint = g.NumVertices();
  opts.loom.partitioner.num_edges_hint = g.NumEdges();
  opts.loom.partitioner.window_size = config.window_size;
  opts.loom.matcher.frequency_threshold = config.frequency_threshold;
  opts.num_labels = 4;
  opts.publish_every_batches = config.publish_every_batches;
  opts.drift_check_every_queries = config.drift_check_every_queries;
  opts.tracker.window_queries = config.tracker_window;
  opts.drift.max_migration_fraction = config.max_migration_fraction;
  opts.drift.reaction_passes = config.reaction_passes;
  opts.drift.seed = config.seed;

  const std::vector<VertexArrival>& arrivals = stream.arrivals();
  const uint64_t num_batches =
      (arrivals.size() + config.batch_size - 1) / config.batch_size;

  // Completion stamp per batch, written by the pipeline thread.
  std::vector<Clock::time_point> completed(num_batches);
  std::atomic<uint64_t> batches_completed{0};
  opts.on_batch_processed = [&](uint64_t seq) {
    completed[seq] = Clock::now();
    batches_completed.fetch_add(1, std::memory_order_release);
  };

  // A reaction lasts a few milliseconds; on a loaded machine it can start
  // and finish while no client thread is scheduled. So each reaction is
  // held at its start until some client has read `reaction_running` (once
  // that has happened, later reactions pass straight through), the clients
  // stop, or the wait bound expires.
  std::atomic<bool> stop{false};
  std::atomic<bool> read_during_reaction{false};
  std::atomic<int64_t> hold_ns{0};
  opts.on_reaction_start = [&] {
    const Clock::time_point begin = Clock::now();
    while (!read_during_reaction.load(std::memory_order_acquire) &&
           !stop.load(std::memory_order_acquire) &&
           SecondsSince(begin) < config.reaction_wait_seconds) {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    hold_ns.fetch_add(std::chrono::duration_cast<std::chrono::nanoseconds>(
                          Clock::now() - begin)
                          .count(),
                      std::memory_order_relaxed);
  };

  auto created = Service::Create(workload_a, opts);
  if (!created.ok()) return result;  // impossible for the fixed workloads
  Service& service = **created;

  // Client threads: Locate / (Touches + ObserveQuery) mix, phase-flipped
  // from A-patterns to B-patterns when half the batches have been sent.
  std::atomic<bool> phase_b{false};
  std::vector<ClientLog> logs(config.num_clients);
  std::vector<std::thread> clients;
  clients.reserve(config.num_clients);
  for (uint32_t c = 0; c < config.num_clients; ++c) {
    clients.emplace_back([&, c] {
      Rng crng(config.seed + 101 + c);
      ClientLog& log = logs[c];
      // Drift checks are skipped while a reaction is queued or running, so
      // the clients stop observing then and issue only the lock-free reads:
      // none of them waits on the tracker lock through the reaction.
      bool reaction_outstanding = false;
      while (!stop.load(std::memory_order_acquire)) {
        const Workload& w = phase_b.load(std::memory_order_acquire)
                                ? workload_b
                                : workload_a;
        const LabeledGraph& pattern =
            w.queries()[w.SampleIndex(crng)].pattern;
        if (crng.UniformDouble() < config.locate_fraction) {
          const VertexId v = static_cast<VertexId>(
              crng.UniformInt(0, g.NumVertices() - 1));
          const Clock::time_point begin = Clock::now();
          (void)service.Locate(v);
          log.locate_seconds.push_back(SecondsSince(begin));
        } else {
          const Clock::time_point begin = Clock::now();
          (void)service.Touches(pattern);
          log.touches_seconds.push_back(SecondsSince(begin));
          if (!reaction_outstanding) (void)service.ObserveQuery(pattern);
        }
        const ServiceStats stats = service.Stats();
        if (stats.reaction_running) {
          ++log.during_reaction;
          read_during_reaction.store(true, std::memory_order_release);
        }
        reaction_outstanding = stats.drift_fires > stats.drift_reactions;
      }
    });
  }

  // Open-loop ingest: batch i is due at start + i * batch / rate; send time
  // never slips because the service is slow — that queueing delay is the
  // latency being measured.
  const double batch_interval =
      static_cast<double>(config.batch_size) / config.arrivals_per_second;
  const Clock::time_point start = Clock::now();
  bool ingest_ok = true;
  for (uint64_t i = 0; i < num_batches; ++i) {
    const double due = static_cast<double>(i) * batch_interval;
    for (double now = SecondsSince(start); now < due;
         now = SecondsSince(start)) {
      std::this_thread::sleep_for(
          std::chrono::duration<double>(due - now));
    }
    const size_t offset = static_cast<size_t>(i) * config.batch_size;
    const size_t count =
        std::min<size_t>(config.batch_size, arrivals.size() - offset);
    if (!service.Ingest(arrivals.data() + offset, count).ok()) {
      ingest_ok = false;
      break;
    }
    if (i + 1 == num_batches / 2) {
      phase_b.store(true, std::memory_order_release);
    }
  }
  service.Flush();
  result.ingest_seconds = SecondsSince(start);

  // Scheduled-send -> completion latency per batch.
  std::vector<double> batch_latency;
  if (ingest_ok) {
    batch_latency.reserve(num_batches);
    for (uint64_t i = 0; i < num_batches; ++i) {
      const double due = static_cast<double>(i) * batch_interval;
      batch_latency.push_back(
          std::chrono::duration<double>(completed[i] - start).count() - due);
    }
  }

  // Keep the clients querying (B-phase) until the reaction lands.
  const Clock::time_point wait_start = Clock::now();
  while (service.Stats().drift_reactions == 0 &&
         SecondsSince(wait_start) < config.reaction_wait_seconds) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  stop.store(true, std::memory_order_release);
  for (std::thread& t : clients) t.join();
  (void)service.Seal();

  const ServiceStats stats = service.Stats();
  result.ingested_vertices = stats.ingested_vertices;
  result.ingested_batches = stats.ingested_batches;
  result.vertices_per_second =
      result.ingest_seconds > 0.0
          ? static_cast<double>(stats.ingested_vertices) /
                result.ingest_seconds
          : 0.0;
  result.ingest_batch_latency = Summarize(&batch_latency);

  std::vector<double> locate_samples;
  std::vector<double> touches_samples;
  for (ClientLog& log : logs) {
    locate_samples.insert(locate_samples.end(), log.locate_seconds.begin(),
                          log.locate_seconds.end());
    touches_samples.insert(touches_samples.end(),
                           log.touches_seconds.begin(),
                           log.touches_seconds.end());
    result.queries_during_reaction += log.during_reaction;
  }
  result.locate_latency = Summarize(&locate_samples);
  result.touches_latency = Summarize(&touches_samples);
  result.locate_queries = stats.locate_queries;
  result.touches_queries = stats.touches_queries;
  result.observed_queries = stats.observed_queries;

  result.drift_fires = stats.drift_fires;
  result.drift_reactions = stats.drift_reactions;
  result.reaction_cut_before = stats.last_reaction_edge_cut_before;
  result.reaction_cut_after = stats.last_reaction_edge_cut_after;
  result.reaction_migration = stats.last_reaction_migration_fraction;
  result.reaction_seconds = stats.last_reaction_seconds;
  result.reaction_hold_seconds =
      static_cast<double>(hold_ns.load(std::memory_order_relaxed)) * 1e-9;

  result.assign_errors = stats.assign_errors;
  result.snapshots_published = stats.snapshots_published;
  result.snapshot_epoch = stats.snapshot_epoch;

  result.ok = ingest_ok && stats.ingested_vertices == arrivals.size() &&
              stats.drift_reactions >= 1 && stats.assign_errors == 0 &&
              result.locate_queries > 0 && result.touches_queries > 0;
  return result;
}

}  // namespace bench
}  // namespace loom
