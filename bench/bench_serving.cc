// Concurrent serving under drift: a loom::Service ingests an open-loop
// arrival stream in batches while N client threads issue Locate/Touches
// against the published placement snapshot and feed ObserveQuery. Halfway
// through ingest the query mix flips from workload A to workload B; the
// drift loop fires and runs its bounded-migration reaction on the pipeline
// worker while the clients keep reading from the immutable snapshot — the
// table reports the tail latencies (p50/p99/p999) that design buys, and how
// many queries were answered *during* the reaction (the lock-free-reads
// claim, measured).
//
// Open-loop means batch i is *scheduled* at start + i*batch/rate and its
// latency is measured from that scheduled time, so a slow pipeline is
// charged its queueing delay instead of silently slowing the load generator
// (no coordinated omission).

#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

#include "common/table.h"
#include "serving_scenario.h"

int main(int argc, char** argv) {
  using namespace loom;
  using namespace loom::bench;

  ServingScenarioConfig config;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--full") == 0) {
      config.n = 20000;
    } else if (std::strcmp(argv[i], "--fast") == 0) {
      // defaults
    } else if (std::strcmp(argv[i], "--clients") == 0 && i + 1 < argc) {
      config.num_clients =
          static_cast<uint32_t>(std::atoi(argv[++i]));
      if (config.num_clients == 0) config.num_clients = 1;
    } else if (std::strcmp(argv[i], "--rate") == 0 && i + 1 < argc) {
      config.arrivals_per_second = std::atof(argv[++i]);
      if (config.arrivals_per_second <= 0.0) {
        config.arrivals_per_second = 100000.0;
      }
    } else {
      std::cerr << "usage: bench_serving [--fast|--full] [--clients N] "
                   "[--rate ARRIVALS_PER_S]\n";
      return 2;
    }
  }

  const ServingScenarioResult r = RunServingScenario(config);
  if (!r.ok) {
    std::cerr << "serving scenario failed: reactions=" << r.drift_reactions
              << " assign_errors=" << r.assign_errors
              << " ingested=" << r.ingested_vertices << "\n";
    return 1;
  }

  std::cout << "Ingest: " << r.ingested_vertices << " vertices in "
            << r.ingested_batches << " batches, "
            << FormatDouble(r.vertices_per_second / 1e3, 1)
            << "k vertices/s effective\n";
  std::cout << "Drift: fires=" << r.drift_fires
            << " reactions=" << r.drift_reactions << ", cut "
            << FormatPercent(r.reaction_cut_before) << " -> "
            << FormatPercent(r.reaction_cut_after) << " at migration "
            << FormatPercent(r.reaction_migration) << " in "
            << FormatDouble(r.reaction_seconds, 3) << "s\n";
  std::cout << "Queries answered during the reaction: "
            << r.queries_during_reaction << " (reads never blocked)\n\n";

  const auto us = [](double seconds) {
    return FormatDouble(seconds * 1e6, 1);
  };
  TablePrinter table(
      "Serving tail latency (" + std::to_string(config.num_clients) +
          " clients, open-loop ingest at " +
          FormatDouble(config.arrivals_per_second / 1e3, 0) +
          "k arrivals/s, k=" + std::to_string(config.k) + ")",
      {"operation", "count", "p50 us", "p99 us", "p999 us"});
  table.AddRow({"ingest batch", std::to_string(r.ingest_batch_latency.count),
                us(r.ingest_batch_latency.p50_seconds),
                us(r.ingest_batch_latency.p99_seconds),
                us(r.ingest_batch_latency.p999_seconds)});
  table.AddRow({"locate", std::to_string(r.locate_latency.count),
                us(r.locate_latency.p50_seconds),
                us(r.locate_latency.p99_seconds),
                us(r.locate_latency.p999_seconds)});
  table.AddRow({"touches", std::to_string(r.touches_latency.count),
                us(r.touches_latency.p50_seconds),
                us(r.touches_latency.p99_seconds),
                us(r.touches_latency.p999_seconds)});
  table.Print(std::cout);

  std::cout << "\nExpected shape: locate p50 well under a microsecond (one "
               "acquire load + array read); touches within a small factor; "
               "p999 bounded by scheduler noise, not by the reaction — "
               "queries_during_reaction > 0 shows reads proceeding while "
               "the pipeline worker repartitions.\n";
  return 0;
}
