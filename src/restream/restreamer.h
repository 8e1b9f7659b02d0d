#ifndef LOOM_RESTREAM_RESTREAMER_H_
#define LOOM_RESTREAM_RESTREAMER_H_

/// \file
/// Multi-pass restreaming / repartitioning over any StreamingPartitioner —
/// the literature's cure for single-pass fragility and the entry point for
/// adapting a partitioning after workload or graph drift (paper §5 future
/// work). Pass one consumes the recorded stream as-is; every later pass
/// replays the graph with *full* neighbourhoods (the graph is known after
/// pass one) under a pluggable inter-pass ordering, with the previous pass's
/// assignment installed as a scoring prior (ReLDG/ReFennel semantics:
/// balance counts this pass's placements, scores see last pass's
/// neighbourhoods). Prioritized orderings follow Awadelkarim & Ugander,
/// "Prioritized Restreaming Algorithms for Balanced Graph Partitioning"
/// (KDD 2020); the repartitioning framing follows Le Merrer & Liang,
/// "(Re)partitioning for stream-enabled computation" (2013). Running the
/// LOOM partitioner through the same driver restreams whole motif clusters
/// against the prior — the workload-aware mode the paper leaves open.

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "graph/graph.h"
#include "graph/io.h"
#include "metrics/metrics.h"
#include "partition/partitioner.h"
#include "stream/arrival_source.h"
#include "stream/stream.h"

namespace loom {

/// How passes >= 2 order the replayed vertices.
enum class RestreamOrder {
  /// Replay the pass-one arrival order.
  kOriginal,
  /// Fresh uniform permutation per pass.
  kRandom,
  /// Prioritized restreaming: descending gain, where gain(v) = edges to v's
  /// prior partition minus edges to its best alternative. Confidently-placed
  /// vertices stream first and anchor their neighbourhoods.
  kGain,
  /// Prioritized restreaming: ascending |gain| — the most ambivalent
  /// vertices stream first, while both options still have room.
  kAmbivalence,
  /// Descending |gain| — the most *decided* vertices first: strong stayers
  /// anchor their neighbourhoods and strong movers spend the migration
  /// budget before the ambivalent tail can waste it. The right ordering for
  /// budgeted passes, where kGain would queue every mover at the stream
  /// tail in worst-value-first order.
  kDecisive,
};

/// Human-readable ordering name for tables.
std::string RestreamOrderName(RestreamOrder order);

struct RestreamOptions {
  /// Total passes including the initial stream (>= 1).
  uint32_t num_passes = 3;
  RestreamOrder order = RestreamOrder::kGain;
  /// Seed for the kRandom inter-pass permutations.
  uint64_t seed = 42;
  /// Anytime guarantee: use the best-cut assignment seen so far as the prior
  /// for later passes and as the final result, so the reported partitioning
  /// never regresses below the best pass. Off = plain last-pass semantics.
  bool keep_best = true;
  /// Bounded-migration budget for every pass that has a prior: at most
  /// floor(max_migration_fraction * prior.NumAssigned()) placements may land
  /// on a different partition than the prior assigned; once spent, further
  /// moves are clamped back to the vertex's prior partition and the pass
  /// early-stops its scoring (see StreamingPartitioner::SetMigrationBudget).
  /// >= 1.0 (the default) disables the budget — full-restream semantics.
  /// This is what makes a restream pass a cheap *incremental* re-partition:
  /// the drift controller runs one budgeted pass with the live assignment as
  /// prior instead of a cold multi-pass restream.
  double max_migration_fraction = 1.0;
  /// Cluster-memoized replay (stream/cluster_log.h): when the partitioner
  /// supports cluster logging (LOOM does), record the unit decomposition of
  /// every pass and feed it to the next as pre-grouped arrivals, so
  /// unchanged units skip the window/matcher pipeline and are re-scored
  /// straight off their buffered neighbourhoods. A per-member fingerprint
  /// gate invalidates recalled units whose label or neighbourhood changed —
  /// those members flow through the normal pipeline. Pass one is untouched.
  /// No-op for partitioners without the logging hook.
  bool memoize_clusters = true;
};

/// Uniform options contract (shared with `DriftControllerOptions` and
/// `ServiceOptions`): every options struct ships a `Validate*Options` that
/// *rejects* — returns InvalidArgument naming the first bad field, mutating
/// nothing — and a `Sanitize*Options` that *clamps* — a total function
/// mapping any input to a safe configuration, always towards the
/// conservative end. Facade entry points (`Service::Create`) validate so
/// callers hear about mistakes; internal constructors sanitize so garbage
/// can never reach the arithmetic.
///
/// Rejects: `num_passes == 0`, and a NaN or negative
/// `max_migration_fraction` (values > 1 are valid — they mean unbudgeted).
Status ValidateRestreamOptions(const RestreamOptions& options);

/// Sanitized copy of `options`: `num_passes` clamped to >= 1, and a NaN or
/// negative `max_migration_fraction` rejected by clamping it to 0.0 — the
/// conservative end (a garbage budget freezes migration; it must never
/// silently become an *unbudgeted* pass, nor feed NaN into the move
/// arithmetic). The Restreamer constructor applies this to everything it is
/// given.
RestreamOptions SanitizeRestreamOptions(RestreamOptions options);

/// Move allowance implied by a migration-fraction budget over `prior`:
/// floor(fraction * prior.NumAssigned()), saturating to unlimited for
/// fraction >= 1 and to zero for fraction <= 0 — or NaN, which is invalid
/// input and maps to the conservative end (zero moves), never to
/// unlimited.
uint64_t MigrationBudgetMoves(const PartitionAssignment& prior,
                              double max_migration_fraction);

/// Quality and cost of one restream pass.
struct RestreamPassStats {
  /// 1-based pass number.
  uint32_t pass = 0;
  /// Raw edge-cut fraction of this pass's assignment.
  double edge_cut_fraction = 0.0;
  /// Best edge-cut fraction over passes 1..pass (the anytime trajectory;
  /// non-increasing by construction).
  double best_edge_cut_fraction = 0.0;
  double balance = 0.0;
  /// Fraction of vertices whose partition changed from the previous pass's
  /// prior (0 for pass one) — the data-migration cost of adopting the pass.
  double migration_fraction = 0.0;
  /// Capacity-pressure counters from PartitionerStats, per pass: a non-zero
  /// value means placements were re-routed (or forced past C) because
  /// partitions filled up — quality numbers under pressure are suspect, so
  /// benches assert these stay zero during budgeted migration.
  uint64_t overflow_fallbacks = 0;
  uint64_t forced_placements = 0;
  /// Non-capacity Assign failures (always a logic error; see
  /// PartitionerStats::assign_errors). Surfaced per pass so Release-mode
  /// drivers can fail loudly instead of reading a silently-wrong cut.
  uint64_t assign_errors = 0;
  /// Would-be moves clamped back to the prior partition by the migration
  /// budget (0 on unbudgeted passes).
  uint64_t budget_denied_moves = 0;
  double seconds = 0.0;
};

/// Outcome of a full restream run.
struct RestreamResult {
  std::vector<RestreamPassStats> passes;
  /// Final assignment: the best-cut pass under keep_best, else the last.
  PartitionAssignment assignment{1, 0};
  /// Edge-cut fraction of `assignment`.
  double edge_cut_fraction = 0.0;
};

/// Replays a recorded stream for N passes over one partitioner.
///
/// Two backing modes share every driver:
///
///  * **Materialised** — constructed from an in-memory GraphStream (which
///    must outlive the Restreamer). The adjacency needed for full
///    neighbourhoods and prioritized orderings is rebuilt from it exactly
///    once at construction (GraphFromStream); passes replay through
///    a borrowing cursor over that adjacency, so no per-pass stream copy is
///    ever made (`materializations()` counts the O(E) builds — a 3-pass
///    run performs exactly one).
///  * **Out-of-core** — constructed from an mmap-ed FileArrivalSource
///    written with full neighbourhoods. Pass one streams the file's back
///    edges; later passes replay full-neighbourhood records in prioritized
///    order through the mapping. Passes keep O(V) memory (ordering keys,
///    permutation, vertex index — never the edges); only ReplayStream
///    materialises. `graph()` is empty in this mode.
class Restreamer {
 public:
  Restreamer(const GraphStream& stream, const RestreamOptions& options);

  /// Out-of-core mode over `file`, which is borrowed (must outlive the
  /// Restreamer, which owns its cursor positions: the file's own cursor is
  /// not used). The file must carry full neighbourhoods
  /// (`info().has_full_neighborhoods`) — replay passes need them.
  Restreamer(FileArrivalSource* file, const RestreamOptions& options);

  /// Runs `options.num_passes` passes of `partitioner` (reset via BeginPass,
  /// so a used partitioner is fine). After the call the partitioner holds
  /// the *last* pass's assignment; the returned result holds the final one.
  RestreamResult Run(StreamingPartitioner* partitioner) const;

  /// One bounded-migration pass against an externally-supplied prior —
  /// typically the *live* assignment, which is what turns a restream pass
  /// into an incremental drift reaction. Replays the stream under
  /// `options.order` with `prior` installed as the scoring prior and at most
  /// `max_moves` placements allowed to leave their prior partition
  /// (kUnlimitedMoves disables the cap). After the call the partitioner
  /// holds the resulting assignment and its prior is cleared. The returned
  /// stats carry pass = 1 and best = raw cut; callers chaining passes
  /// renumber and fold them.
  RestreamPassStats RunIncrementalPass(StreamingPartitioner* partitioner,
                                       const PartitionAssignment& prior,
                                       uint64_t max_moves) const;

  /// `max_moves` value that disables the migration cap.
  static constexpr uint64_t kUnlimitedMoves =
      StreamingPartitioner::kUnlimitedMigrationBudget;

  /// The pass >= 2 stream for `order` given a prior assignment: arrivals in
  /// prioritized order, each carrying its full neighbourhood, materialised
  /// into an owned GraphStream (counted by `materializations()`). Exposed
  /// for tests and for drivers that schedule passes themselves; passes run
  /// by this class replay through borrowing cursors instead.
  GraphStream ReplayStream(RestreamOrder order,
                           const PartitionAssignment& prior, Rng& rng) const;

  /// The adjacency rebuilt from the recorded stream; empty in out-of-core
  /// mode (the whole point is never to build it).
  const LabeledGraph& graph() const { return graph_; }

  /// How many times this Restreamer has built O(E) neighbourhood state: the
  /// construction-time GraphFromStream (materialised mode) plus one per
  /// ReplayStream call. Multi-pass runs replay through borrowing
  /// cursors, so a 3-pass Run() reports exactly 1 in materialised mode and
  /// 0 out-of-core — the regression guard for the per-pass re-copying this
  /// class used to do.
  uint64_t materializations() const { return materializations_; }

 private:
  /// The vertex permutation for a pass >= 2: the pass-one arrival order,
  /// shuffled (kRandom), or — for the prioritized orders — sorted ascending
  /// by (key, vertex id), where key is an integer in [-Δ, Δ] (Δ = maximum
  /// degree): -gain (kGain), |gain| (kAmbivalence) or -|gain| (kDecisive).
  /// A vertex that arrived twice is listed twice. Scoring sweeps the full
  /// neighbourhoods once and a counting sort orders the keys, so a
  /// prioritized order costs O(V·k + E + Δ) with no comparison sort.
  std::vector<VertexId> PassOrder(RestreamOrder order,
                                  const PartitionAssignment& prior,
                                  Rng& rng) const;

  /// True when backed by a FileArrivalSource instead of a GraphStream.
  bool OutOfCore() const { return file_ != nullptr; }

  /// Arrival index of each vertex id, built lazily on the first replay pass
  /// (out-of-core mode only; O(id_bound) once, then reused by every pass).
  const std::vector<uint32_t>& FileIndexOfVertex() const;

  /// Edge-cut fraction of `a` in whichever mode is active.
  double CutFraction(const PartitionAssignment& a) const;

  /// Streams `perm`'s full neighbourhoods through a borrowing cursor.
  void Replay(StreamingPartitioner* partitioner,
              const std::vector<VertexId>& perm) const;
  /// Stats of the pass just run (best = raw cut; migration 0 if no prior).
  RestreamPassStats PassStats(uint32_t pass, double seconds,
                              const StreamingPartitioner& partitioner,
                              const PartitionAssignment* prior) const;

  /// Exactly one of stream_/file_ is set (materialised vs out-of-core).
  const GraphStream* stream_ = nullptr;
  FileArrivalSource* file_ = nullptr;
  LabeledGraph graph_;
  RestreamOptions options_;
  /// O(E) neighbourhood-state builds so far (see materializations()).
  mutable uint64_t materializations_ = 0;
  /// Lazy cache behind FileIndexOfVertex().
  mutable std::vector<uint32_t> file_index_of_vertex_;
};

}  // namespace loom

#endif  // LOOM_RESTREAM_RESTREAMER_H_
