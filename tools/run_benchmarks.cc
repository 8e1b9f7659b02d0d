// run_benchmarks: writes BENCH_edge_cut.json, the repo's quality golden.
//
// Runs a fast subset of the bench/ experiments (the file-backed large tier,
// edge-cut quality across the standard partitioner set, multi-pass
// restreaming, the drift-reaction scenario and streaming vertex-cut) and
// writes DIR/BENCH_edge_cut.json. Every value in it is a deterministic
// function of (input, options, seed), with no timing and no memory reading,
// so tests/bench_driver_test.cc compares a fresh `--fast` run with the
// checked-in file byte for byte. Speed is measured by perfbench/. The JSON
// schema is documented in docs/BENCH_SCHEMA.md.
//
// Usage:
//   run_benchmarks [--fast] [--full] [--out DIR]
//                  [--large-n N] [--large-degree M] [--large-file PATH]
//
// --fast (default) runs in about a second; --full runs the paper-scale
// configuration — including the LiveJournal-class `large` tier (~5M
// vertices / ~50M edges, file-backed). --large-n / --large-degree override
// the large tier's synthetic scale (positive integers below 2^32);
// --large-file points it at a pre-built loom-stream file instead. Exit
// status is 2 on a bad argument and 1 when a run fails or a contract check
// does not hold; the file is written only when every check held. The checks:
// the large tier's peak RSS stays under its O(V) ceiling, materialises
// nothing and its gain pass does not raise the ldg cut; no restream pass
// forces a placement past capacity; the drift detector fires only during
// the drift; no edge-partition row has an assign error or a cap relaxation;
// and HDRF replicates no more than DBH on the in-memory Barabási–Albert
// family and on the file-backed tier (with --large-file, on the given file).

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "common/timer.h"
#include "drift_scenario.h"
#include "edge_partition/edge_partitioner.h"
#include "edge_partition/edge_restream.h"
#include "graph/io.h"
#include "harness.h"
#include "perf_report.h"
#include "restream/restreamer.h"
#include "workload/query_builders.h"

namespace loom {
namespace bench {
namespace {

// The edge-partition contract of one run over `num_edges` edges: every edge
// placed, no placement logic error, and no replica-cap relaxation.
bool CheckEdgeStats(const std::string& name, const EdgePartitionerStats& stats,
                    uint64_t num_edges) {
  if (stats.assign_errors == 0 && stats.edges_assigned == num_edges &&
      stats.cap_relaxations == 0) {
    return true;
  }
  std::cerr << "run_benchmarks: edge partition contract violated (" << name
            << "): " << stats.edges_assigned << " of " << num_edges
            << " edges placed, " << stats.assign_errors << " assign errors, "
            << stats.cap_relaxations << " cap relaxations\n";
  return false;
}

// HDRF's degree-aware scoring must not replicate more than plain degree
// hashing on the power-law family at the same lambda.
bool CheckHdrfBeatsDbh(const std::string& where, double hdrf_rf,
                       double dbh_rf) {
  if (hdrf_rf <= dbh_rf) return true;
  std::cerr << "run_benchmarks: " << where << ": HDRF replication factor "
            << hdrf_rf << " exceeds DBH's " << dbh_rf << "\n";
  return false;
}

// ------------------------------------------------------------------- large

// File-backed out-of-core tier: streaming generator -> loom-stream file ->
// ldg pass one + one gain-ordered restream pass, all through the mmap-ed
// FileArrivalSource, never materialising the graph. MUST run before every
// in-memory section: PeakRssBytes() is a process-wide high-water mark, so
// the O(V) assertion is only meaningful while nothing else has built O(E)
// state yet.
struct LargeConfig {
  uint32_t n = 60000;
  /// Barabási–Albert attachments per vertex (edges ~= n * degree).
  uint32_t degree = 10;
  uint32_t k = 16;
  uint64_t seed = 2024;
  /// Pre-built loom-stream file to use instead of generating (kept on disk);
  /// empty = generate into `work_dir` and remove afterwards.
  std::string file;
  std::string work_dir = ".";
};

// RSS ceiling model asserted by the section: a fixed process base (binary,
// allocator, the writer's fill buffer and the reader's residency budget)
// plus a per-vertex allowance for the O(V) state the out-of-core path
// legitimately holds — writer index arrays, ordering keys, permutation,
// prior + live assignments, the generator's Fenwick tree. 80 bytes/vertex
// covers those (~20 u32/u64 arrays' worth) with modest headroom; the
// measured full-scale peak is ~124 B/vertex total including the base. The
// model has NO per-edge term on purpose: the full-scale run keeps ~400MB of
// edge slices on disk, so an O(E) regression (materialising adjacency at
// 8+ bytes/edge, mapping pages without dropping them) blows through the
// ceiling immediately.
constexpr uint64_t kLargeRssBaseBytes = 256ull << 20;
constexpr uint64_t kLargeRssPerVertexBytes = 80;

// The workload-aware row of the large tier: LOOM through the same
// out-of-core replay, three original-order passes with cluster memoization,
// reporting the cuts and the recall counters. Runs under the same O(V)
// peak-RSS ceiling as the ldg row — the memo structures (log, fingerprints,
// unit index, grouped permutation) are all O(V) by design. (Memo-off
// placements equal memo-on ones; MemoEquivalence in cluster_memo_test pins
// that.)
bool RunLargeLoomRow(const LargeConfig& cfg, FileArrivalSource& file,
                     uint64_t rss_ceiling, std::vector<JsonObject>* rows) {
  Workload workload;
  Status ws = workload.Add("tri", TriangleQuery(0, 1, 2), 1.0);
  if (ws.ok()) ws = workload.Add("ab", PathQuery({0, 1}), 1.0);
  if (!ws.ok()) {
    std::cerr << "run_benchmarks: large tier workload: " << ws.ToString()
              << "\n";
    return false;
  }
  workload.Normalize();

  LoomOptions lopts;
  lopts.partitioner.k = cfg.k;
  lopts.partitioner.num_vertices_hint = file.NumVertices();
  lopts.partitioner.num_edges_hint = file.NumEdges();
  lopts.partitioner.window_size = 256;
  lopts.matcher.frequency_threshold = 0.2;

  RestreamOptions ropts;
  ropts.num_passes = 3;
  ropts.order = RestreamOrder::kOriginal;

  auto loom = Loom::Create(workload, lopts);
  if (!loom.ok()) {
    std::cerr << "run_benchmarks: large tier loom creation failed\n";
    return false;
  }
  const Restreamer restreamer(&file, ropts);
  const RestreamResult res = restreamer.Run(&(*loom)->Partitioner());

  const uint64_t peak = PeakRssBytes();
  if (peak == 0 || peak > rss_ceiling) {
    std::cerr << "run_benchmarks: large tier (loom) peak RSS " << peak
              << " bytes exceeds the O(V) ceiling " << rss_ceiling
              << " bytes\n";
    return false;
  }
  if (restreamer.materializations() != 0) {
    std::cerr << "run_benchmarks: large tier (loom) materialised O(E) state "
                 "(out-of-core replay must not)\n";
    return false;
  }
  for (const RestreamPassStats& p : res.passes) {
    if (p.assign_errors != 0) {
      std::cerr << "run_benchmarks: large tier (loom) assign errors\n";
      return false;
    }
  }
  // Last-pass recall counters (the partitioner holds the final pass's
  // stats).
  const LoomStats& stats = (*loom)->Partitioner().loom_stats();

  JsonObject row;
  row.Add("tier", std::string(cfg.file.empty() ? "file-backed-ba"
                                               : "file-backed-input"));
  row.Add("partitioner", std::string("loom"));
  row.Add("ordering", RestreamOrderName(ropts.order));
  row.Add("num_vertices", file.NumVertices());
  row.Add("num_edges", file.NumEdges());
  row.Add("k", static_cast<uint64_t>(cfg.k));
  row.Add("memo_units", stats.memo_units);
  row.Add("memo_vertices", stats.memo_vertices);
  row.Add("memo_invalidated", stats.memo_invalidated);
  row.Add("edge_cut_fraction_pass1", res.passes.front().edge_cut_fraction);
  row.Add("edge_cut_fraction", res.edge_cut_fraction);
  row.Add("balance", res.passes.back().balance);
  row.Add("rss_ceiling_bytes", rss_ceiling);
  rows->push_back(std::move(row));
  return true;
}

// File-backed edge-partitioning rows (vertex-cut): HDRF and DBH stream the
// same loom-stream file end-to-end and report replication factor and
// balance. Emitted into the `edge_partition` section (tier field set), not
// `large`, so the two cut models keep separate row schemas. Runs while the
// large tier's file still exists and before the in-memory sections, under
// the same O(V) state discipline (no placement log).
bool RunLargeEdgePartitionRows(const LargeConfig& cfg, FileArrivalSource& file,
                               bool generated,
                               std::vector<JsonObject>* rows) {
  const std::string tier = generated ? "file-backed-ba" : "file-backed-input";
  std::vector<double> rf;  // hdrf, dbh
  for (const char* name : {"hdrf", "dbh"}) {
    EdgePartitionerOptions eopts;
    eopts.k = cfg.k;
    eopts.lambda = 1.0;
    eopts.num_edges_hint = file.NumEdges();
    eopts.num_vertices_hint = file.IdBound();
    eopts.seed = cfg.seed;
    eopts.record_placements = false;  // keep the tier O(V), not O(E)
    auto partitioner = MakeEdgePartitioner(name, eopts);
    if (!partitioner.ok()) {
      std::cerr << "run_benchmarks: edge partitioner: "
                << partitioner.status().ToString() << "\n";
      return false;
    }
    file.Reset();
    (*partitioner)->Run(file);

    const EdgePartitionerStats& stats = (*partitioner)->stats();
    if (!CheckEdgeStats(name, stats, file.NumEdges())) return false;
    rf.push_back(ReplicationFactor((*partitioner)->replicas()));
    JsonObject row;
    row.Add("tier", tier);
    row.Add("graph", std::string(generated ? "barabasi-albert" : "input"));
    row.Add("partitioner", std::string(name));
    row.Add("lambda", eopts.lambda);
    row.Add("k", static_cast<uint64_t>(cfg.k));
    row.Add("restream_passes", static_cast<uint64_t>(1));
    row.Add("num_vertices", file.NumVertices());
    row.Add("num_edges", file.NumEdges());
    row.Add("replication_factor", rf.back());
    row.Add("balance", EdgeBalanceMaxOverAvg((*partitioner)->edge_counts()));
    row.Add("overflow_fallbacks", stats.overflow_fallbacks);
    row.Add("cap_relaxations", stats.cap_relaxations);
    row.Add("assign_errors", stats.assign_errors);
    rows->push_back(std::move(row));
  }
  return CheckHdrfBeatsDbh(tier, rf[0], rf[1]);
}

bool RunLargeSection(const LargeConfig& cfg, std::vector<JsonObject>* rows,
                     std::vector<JsonObject>* edge_partition_rows) {
  const bool generated = cfg.file.empty();
  const std::string path =
      generated ? cfg.work_dir + "/.bench_large.loomstrm" : cfg.file;

  if (generated) {
    BarabasiAlbertArrivalSource source(cfg.n, cfg.degree, LabelConfig{4, 0.0},
                                       cfg.seed);
    auto writer = StreamFileWriter::Create(path);
    if (!writer.ok()) {
      std::cerr << "run_benchmarks: large tier writer: "
                << writer.status().ToString() << "\n";
      return false;
    }
    Status status = (*writer)->AppendAll(source);
    if (status.ok()) status = (*writer)->Finish();
    if (!status.ok()) {
      std::cerr << "run_benchmarks: large tier write: " << status.ToString()
                << "\n";
      return false;
    }
  }

  bool ok = false;
  {
    auto opened = FileArrivalSource::Open(path);
    if (!opened.ok()) {
      std::cerr << "run_benchmarks: large tier open: "
                << opened.status().ToString() << "\n";
    } else {
      FileArrivalSource& file = **opened;

      PartitionerOptions popts;
      popts.k = cfg.k;
      popts.num_vertices_hint = file.NumVertices();
      popts.num_edges_hint = file.NumEdges();
      auto ldg = MakePartitioner("ldg", popts);
      if (!ldg.ok()) {
        std::cerr << "run_benchmarks: large tier partitioner: "
                  << ldg.status().ToString() << "\n";
      } else {
        RestreamOptions ropts;
        ropts.num_passes = 2;  // pass one + one incremental replay pass
        ropts.order = RestreamOrder::kGain;
        const Restreamer restreamer(&file, ropts);
        const RestreamResult r = restreamer.Run(ldg->get());

        const uint64_t peak = PeakRssBytes();
        const uint64_t ceiling =
            kLargeRssBaseBytes + kLargeRssPerVertexBytes * file.IdBound();
        const RestreamPassStats& p1 = r.passes.front();
        const RestreamPassStats& p2 = r.passes.back();

        if (r.passes.size() != 2 || p1.forced_placements != 0 ||
            p1.assign_errors != 0 || p2.assign_errors != 0) {
          std::cerr << "run_benchmarks: large tier partition contract "
                       "violated\n";
        } else if (restreamer.materializations() != 0) {
          std::cerr << "run_benchmarks: large tier materialised "
                    << restreamer.materializations()
                    << "x O(E) state (out-of-core replay must not)\n";
        } else if (peak == 0 || peak > ceiling) {
          std::cerr << "run_benchmarks: large tier peak RSS " << peak
                    << " bytes exceeds the O(V) ceiling " << ceiling
                    << " bytes\n";
        } else if (r.edge_cut_fraction > p1.edge_cut_fraction) {
          std::cerr << "run_benchmarks: large tier gain pass raised the cut "
                    << p1.edge_cut_fraction << " -> " << r.edge_cut_fraction
                    << "\n";
        } else {
          JsonObject row;
          row.Add("tier", std::string(generated ? "file-backed-ba"
                                                : "file-backed-input"));
          row.Add("partitioner", std::string("ldg"));
          row.Add("ordering", RestreamOrderName(ropts.order));
          row.Add("num_vertices", file.NumVertices());
          row.Add("num_edges", file.NumEdges());
          row.Add("file_bytes", file.info().file_bytes);
          row.Add("k", static_cast<uint64_t>(cfg.k));
          row.Add("edge_cut_fraction_before", p1.edge_cut_fraction);
          row.Add("edge_cut_fraction_after", r.edge_cut_fraction);
          row.Add("migration_fraction", p2.migration_fraction);
          row.Add("balance", p2.balance);
          row.Add("materializations", restreamer.materializations());
          row.Add("rss_ceiling_bytes", ceiling);
          rows->push_back(std::move(row));
          ok = RunLargeLoomRow(cfg, file, ceiling, rows) &&
               RunLargeEdgePartitionRows(cfg, file, generated,
                                         edge_partition_rows);
        }
      }
    }
  }
  if (generated) std::remove(path.c_str());
  return ok;
}

// ----------------------------------------------------------------- edge cut

struct EdgeCutConfig {
  uint32_t n = 4000;
  uint32_t k = 8;
  uint32_t avg_degree = 8;
  uint64_t seed = 2024;
  std::vector<GraphKind> kinds;
};

// Multi-pass restreaming rows: for ldg, fennel and loom, three gain-ordered
// passes per graph family, each row one pass with its raw cut, the anytime
// best cut, balance, migration cost and overflow counters. The restream
// ctest suite asserts the monotone best-cut contract.
bool RunRestreamRows(const EdgeCutConfig& cfg, const Workload& workload,
                     std::vector<JsonObject>* rows) {
  for (const GraphKind kind : cfg.kinds) {
    Rng rng(cfg.seed + 1);
    LabeledGraph g = MakeGraph(kind, cfg.n, cfg.avg_degree,
                               LabelConfig{4, 0.3}, rng);
    const GraphStream stream = MakeStream(g, StreamOrder::kRandom, rng);

    PartitionerOptions popts;
    popts.k = cfg.k;
    popts.num_vertices_hint = g.NumVertices();
    popts.num_edges_hint = g.NumEdges();

    PartitionerSet set = MakeStandardSet(popts, workload, 0.3);
    RestreamOptions ropts;
    ropts.num_passes = 3;
    ropts.order = RestreamOrder::kGain;
    const Restreamer restreamer(stream, ropts);
    for (StreamingPartitioner* p : set.All()) {
      const std::string name = p->Name();
      if (name != "ldg" && name != "fennel" && name != "loom") continue;
      const RestreamResult r = restreamer.Run(p);
      for (const RestreamPassStats& s : r.passes) {
        if (s.forced_placements != 0) {
          std::cerr << "run_benchmarks: restream pass forced placements past "
                       "capacity (" << name << ")\n";
          return false;
        }
        JsonObject row;
        row.Add("graph", GraphKindName(kind));
        row.Add("partitioner", name);
        row.Add("pass", static_cast<uint64_t>(s.pass));
        row.Add("ordering", RestreamOrderName(ropts.order));
        row.Add("edge_cut_fraction", s.edge_cut_fraction);
        row.Add("best_edge_cut_fraction", s.best_edge_cut_fraction);
        row.Add("balance", s.balance);
        row.Add("migration_fraction", s.migration_fraction);
        row.Add("overflow_fallbacks", s.overflow_fallbacks);
        row.Add("forced_placements", s.forced_placements);
        row.Add("assign_errors", s.assign_errors);
        rows->push_back(std::move(row));
      }
    }
  }
  if (rows->empty()) {
    std::cerr << "run_benchmarks: restream section produced no rows\n";
    return false;
  }
  return true;
}

// Drift rows: the piecewise-stationary scenario (bench/drift_scenario.h),
// one row per strategy — no-reaction (stale live assignment), the budgeted
// drift reaction, and the cold multi-pass restream. The detector contract
// is checked here; the reaction contract (cut within 2 points of cold,
// migration <= budget, zero pressure counters) by DriftScenarioTest.
bool RunDriftRows(bool fast, std::vector<JsonObject>* rows) {
  DriftScenarioConfig config;
  if (!fast) config.n = 20000;
  const DriftScenarioResult r = RunDriftScenario(config);

  if (!r.fired || r.stationary_fires != 0 || r.post_reaction_fires != 0) {
    std::cerr << "run_benchmarks: drift detector contract violated (fired="
              << r.fired << ", stationary=" << r.stationary_fires
              << ", post-reaction=" << r.post_reaction_fires << ")\n";
    return false;
  }

  const auto common = [&](JsonObject* row) {
    row->Add("scenario", std::string("piecewise-stationary"));
    row->Add("max_migration_fraction", r.max_migration_fraction);
    row->Add("fire_tick", static_cast<uint64_t>(r.fire_tick));
    row->Add("stationary_fires", static_cast<uint64_t>(r.stationary_fires));
    row->Add("post_reaction_fires",
             static_cast<uint64_t>(r.post_reaction_fires));
  };

  JsonObject none;
  common(&none);
  none.Add("strategy", std::string("no-reaction"));
  none.Add("edge_cut_fraction", r.cut_no_reaction);
  none.Add("migration_fraction", 0.0);
  rows->push_back(std::move(none));

  JsonObject reaction;
  common(&reaction);
  reaction.Add("strategy", std::string("drift-reaction"));
  reaction.Add("edge_cut_fraction", r.cut_reaction);
  reaction.Add("migration_fraction", r.migration_reaction);
  reaction.Add("overflow_fallbacks", r.reaction_overflow_fallbacks);
  reaction.Add("forced_placements", r.reaction_forced_placements);
  reaction.Add("assign_errors", r.reaction_assign_errors);
  reaction.Add("budget_denied_moves", r.reaction_budget_denied_moves);
  reaction.Add("detection_js", r.fire_signal.js);
  reaction.Add("detection_l1", r.fire_signal.l1);
  rows->push_back(std::move(reaction));

  JsonObject cold;
  common(&cold);
  cold.Add("strategy", std::string("cold-restream"));
  cold.Add("edge_cut_fraction", r.cut_cold);
  cold.Add("migration_fraction", r.migration_cold);
  rows->push_back(std::move(cold));
  return true;
}

// In-memory edge-partitioning rows: per graph family, HDRF and DBH at
// lambda in {1.0, 4.0} (DBH ignores lambda; the full matrix keeps rows
// regular so they compare at equal settings), plus one budgeted two-pass
// HDRF restream row per family. Replication factor and balance are the
// §vertex-cut quality axes.
bool RunEdgePartitionRows(const EdgeCutConfig& cfg,
                          std::vector<JsonObject>* rows) {
  for (const GraphKind kind : cfg.kinds) {
    Rng rng(cfg.seed + 2);
    const LabeledGraph g = MakeGraph(kind, cfg.n, cfg.avg_degree,
                                     LabelConfig{4, 0.3}, rng);
    const GraphStream stream = MakeStream(g, StreamOrder::kRandom, rng);

    struct Config {
      const char* name;
      double lambda;
      uint32_t passes;
    };
    const std::vector<Config> configs = {
        {"hdrf", 1.0, 1}, {"hdrf", 4.0, 1}, {"dbh", 1.0, 1},
        {"dbh", 4.0, 1},  {"hdrf", 1.0, 2},
    };
    double hdrf_rf = 0.0;
    double dbh_rf = 0.0;
    for (const Config& config : configs) {
      EdgePartitionerOptions eopts;
      eopts.k = cfg.k;
      eopts.lambda = config.lambda;
      eopts.num_edges_hint = g.NumEdges();
      eopts.num_vertices_hint = g.NumVertices();
      eopts.seed = cfg.seed;
      auto partitioner = MakeEdgePartitioner(config.name, eopts);
      if (!partitioner.ok()) {
        std::cerr << "run_benchmarks: edge partitioner: "
                  << partitioner.status().ToString() << "\n";
        return false;
      }

      StreamCursor cursor(stream);
      EdgeRestreamOptions ropts;
      ropts.num_passes = config.passes;
      ropts.max_migration_fraction = 0.25;
      EdgeRestreamer restreamer(&cursor, ropts);
      auto run = restreamer.Run(partitioner->get());
      if (!run.ok()) {
        std::cerr << "run_benchmarks: edge partition: "
                  << run.status().ToString() << "\n";
        return false;
      }
      const EdgePartitionerStats& stats = (*partitioner)->stats();
      if (!CheckEdgeStats(config.name, stats, g.NumEdges())) return false;
      if (config.lambda == 1.0 && config.passes == 1) {
        double& rf = std::string(config.name) == "hdrf" ? hdrf_rf : dbh_rf;
        rf = run->replication_factor;
      }

      JsonObject row;
      row.Add("tier", std::string("in-memory"));
      row.Add("graph", GraphKindName(kind));
      row.Add("partitioner", std::string(config.name));
      row.Add("lambda", config.lambda);
      row.Add("k", static_cast<uint64_t>(cfg.k));
      row.Add("restream_passes", static_cast<uint64_t>(config.passes));
      row.Add("num_vertices", static_cast<uint64_t>(g.NumVertices()));
      row.Add("num_edges", static_cast<uint64_t>(g.NumEdges()));
      row.Add("replication_factor", run->replication_factor);
      row.Add("balance", run->balance);
      if (config.passes > 1) {
        row.Add("moved_fraction", run->passes.back().moved_fraction);
        row.Add("best_replication_factor",
                run->passes.back().best_replication_factor);
      }
      row.Add("overflow_fallbacks", stats.overflow_fallbacks);
      row.Add("cap_relaxations", stats.cap_relaxations);
      row.Add("assign_errors", stats.assign_errors);
      rows->push_back(std::move(row));
    }
    if (kind == GraphKind::kBarabasiAlbert &&
        !CheckHdrfBeatsDbh("in-memory barabasi-albert", hdrf_rf, dbh_rf)) {
      return false;
    }
  }
  return true;
}

bool RunEdgeCutSection(const EdgeCutConfig& cfg, const LargeConfig& large_cfg,
                       const std::string& mode, const std::string& path) {
  // The large tier goes first: its O(V) peak-RSS assertion is against the
  // process high-water mark, which the in-memory sections below would
  // otherwise raise (see RunLargeSection).
  std::vector<JsonObject> large_rows;
  std::vector<JsonObject> edge_partition_rows;
  if (!RunLargeSection(large_cfg, &large_rows, &edge_partition_rows)) {
    return false;
  }

  WorkloadGenOptions wopts;
  wopts.num_queries = 3;
  Workload workload = PathWorkload(wopts);

  std::vector<JsonObject> rows;
  for (const GraphKind kind : cfg.kinds) {
    Rng rng(cfg.seed);
    LabeledGraph g = MakeGraph(kind, cfg.n, cfg.avg_degree,
                               LabelConfig{4, 0.3}, rng);
    const GraphStream stream = MakeStream(g, StreamOrder::kRandom, rng);

    PartitionerOptions popts;
    popts.k = cfg.k;
    popts.num_vertices_hint = g.NumVertices();
    popts.num_edges_hint = g.NumEdges();

    PartitionerSet set = MakeStandardSet(popts, workload, 0.3);
    std::vector<RunResult> results;
    for (StreamingPartitioner* p : set.All()) {
      results.push_back(RunStreaming(p, g, stream, workload));
    }
    results.push_back(
        RunOffline(g, workload, cfg.k, /*slack=*/1.1, /*seed=*/7));

    for (const RunResult& r : results) {
      JsonObject row;
      row.Add("graph", GraphKindName(kind));
      row.Add("partitioner", r.partitioner);
      row.Add("edge_cut_fraction", r.cut_fraction);
      row.Add("balance", r.balance);
      row.Add("num_vertices", static_cast<uint64_t>(r.num_vertices));
      row.Add("num_edges", static_cast<uint64_t>(r.num_edges));
      rows.push_back(std::move(row));
    }
  }
  if (rows.empty()) {
    std::cerr << "run_benchmarks: edge-cut section produced no rows\n";
    return false;
  }

  std::vector<JsonObject> restream_rows;
  if (!RunRestreamRows(cfg, workload, &restream_rows)) return false;

  std::vector<JsonObject> drift_rows;
  if (!RunDriftRows(mode == "fast", &drift_rows)) return false;

  if (!RunEdgePartitionRows(cfg, &edge_partition_rows)) return false;

  JsonObject config;
  config.Add("n", static_cast<uint64_t>(cfg.n));
  config.Add("k", static_cast<uint64_t>(cfg.k));
  config.Add("avg_degree", static_cast<uint64_t>(cfg.avg_degree));
  config.Add("seed", cfg.seed);

  JsonObject root;
  root.Add("schema", std::string("loom-bench-edge-cut-v10"));
  root.Add("mode", mode);
  root.AddRaw("config", config.Render(2));
  root.AddRaw("large", RenderArray(large_rows, 2));
  root.AddRaw("results", RenderArray(rows, 2));
  root.AddRaw("restream", RenderArray(restream_rows, 2));
  root.AddRaw("drift", RenderArray(drift_rows, 2));
  root.AddRaw("edge_partition", RenderArray(edge_partition_rows, 2));
  return WriteFile(path, root.Render(0));
}

// --------------------------------------------------------------------- main

// Parses `text` as the value of `flag`: a positive integer below 2^32,
// digits only. Prints why and returns false otherwise.
bool ParseCount(const std::string& flag, const char* text, uint32_t* out) {
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (text[0] < '0' || text[0] > '9' || *end != '\0' || value == 0 ||
      value > UINT32_MAX) {
    std::cerr << "run_benchmarks: " << flag
              << " needs a positive integer below 2^32, got '" << text
              << "'\n";
    return false;
  }
  *out = static_cast<uint32_t>(value);
  return true;
}

int Main(int argc, char** argv) {
  bool fast = true;
  std::string out_dir = ".";
  uint32_t large_n = 0;  // 0 = mode default
  uint32_t large_degree = 10;
  std::string large_file;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--fast") {
      fast = true;
    } else if (arg == "--full") {
      fast = false;
    } else if (arg == "--out" && i + 1 < argc) {
      out_dir = argv[++i];
    } else if (arg == "--large-n" && i + 1 < argc) {
      if (!ParseCount(arg, argv[++i], &large_n)) return 2;
    } else if (arg == "--large-degree" && i + 1 < argc) {
      if (!ParseCount(arg, argv[++i], &large_degree)) return 2;
    } else if (arg == "--large-file" && i + 1 < argc) {
      large_file = argv[++i];
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "Usage: run_benchmarks [--fast|--full] [--out DIR] "
                   "[--large-n N] [--large-degree M] [--large-file PATH]\n";
      return 0;
    } else {
      std::cerr << "run_benchmarks: unknown argument '" << arg << "'\n";
      return 2;
    }
  }

  EdgeCutConfig cfg;
  if (fast) {
    cfg.n = 4000;
    cfg.kinds = {GraphKind::kErdosRenyi, GraphKind::kBarabasiAlbert};
  } else {
    cfg.n = 30000;
    cfg.kinds = {GraphKind::kErdosRenyi, GraphKind::kBarabasiAlbert,
                 GraphKind::kWattsStrogatz, GraphKind::kRMat};
  }
  const std::string mode = fast ? "fast" : "full";

  // Large tier scale: the fast default keeps the section to well under a
  // second while still exercising the whole file-backed path; --full runs
  // the LiveJournal-class configuration.
  LargeConfig large_cfg;
  large_cfg.n = large_n != 0 ? large_n : (fast ? 60000 : 5000000);
  large_cfg.degree = large_degree;
  large_cfg.file = large_file;
  large_cfg.work_dir = out_dir;

  // Every row is collected and checked before the file is written, so a
  // failed run leaves an existing file untouched.
  const std::string path = out_dir + "/BENCH_edge_cut.json";
  std::cout << "run_benchmarks: " << mode << " run ...\n";
  if (!RunEdgeCutSection(cfg, large_cfg, mode, path)) return 1;
  std::cout << "  wrote " << path << "\n";
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace loom

int main(int argc, char** argv) { return loom::bench::Main(argc, argv); }
