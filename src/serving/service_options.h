#ifndef LOOM_SERVING_SERVICE_OPTIONS_H_
#define LOOM_SERVING_SERVICE_OPTIONS_H_

/// \file
/// Configuration of `loom::Service` — the facade's one options struct,
/// following the uniform Validate/Sanitize contract shared with
/// `RestreamOptions` and `DriftControllerOptions` (see
/// `ValidateRestreamOptions`): `ValidateServiceOptions` rejects with an
/// InvalidArgument naming the first bad field; `SanitizeServiceOptions`
/// clamps every bad field to the conservative end. `Service::Create`
/// validates first (callers hear about mistakes), then sanitizes (nested
/// defaults stay safe even as structs grow fields).

#include <cstdint>
#include <functional>
#include <string>

#include "common/status.h"
#include "core/loom_options.h"
#include "drift/drift_controller.h"
#include "tpstry/workload_tracker.h"

namespace loom {

/// All serving knobs in one place.
struct ServiceOptions {
  /// Partitioner configuration. `loom.partitioner` carries the generic
  /// streaming settings (k, capacity, window size) used by every
  /// partitioner; the rest applies to the "loom" partitioner only.
  LoomOptions loom;

  /// Which partitioner the service drives — any `KnownPartitioners()` name.
  std::string partitioner = "loom";

  /// Drift policy: detector thresholds plus the bounded-migration reaction.
  DriftControllerOptions drift;

  /// Workload summarisation window over the observed query stream.
  WorkloadTrackerOptions tracker;

  /// Label alphabet size of the data graph. 0 = derive from the workload
  /// (its max label + 1); set explicitly when arrivals carry labels the
  /// workload's queries never mention.
  uint32_t num_labels = 0;

  /// False disables the drift loop entirely: `ObserveQuery` still feeds the
  /// tracker but never checks the detector or enqueues reactions. Needed
  /// for bit-exact batched-vs-serial comparisons.
  bool enable_drift_reactions = true;

  /// Detector cadence: one drift check per this many observed queries.
  uint64_t drift_check_every_queries = 64;

  /// Snapshot cadence: publish a fresh placement snapshot every N processed
  /// ingest batches. A publish compares the assignment with the previous
  /// snapshot chunk by chunk and copies only the 64-vertex chunks that
  /// changed, so its cost and the memory it retains (every snapshot lives
  /// for the service's lifetime — see common/snapshot.h) scale with the
  /// placements changed since the last publish. Reactions and `Seal`
  /// always publish.
  uint32_t publish_every_batches = 1;

  /// Test/bench hook, called on the pipeline thread after each ingest batch
  /// finishes processing (argument: the batch's 0-based sequence number).
  /// Keep it cheap — it runs inside the ingest pipeline.
  std::function<void(uint64_t)> on_batch_processed;

  /// Test/bench hook, called on the pipeline thread as each drift reaction
  /// starts: after `Stats().reaction_running` reads true, before the
  /// reaction's work (and its timer). Null = no call. Whatever it waits for
  /// delays the reaction and every batch queued behind it.
  std::function<void()> on_reaction_start;
};

/// Rejects the first invalid field: k == 0, an unknown `partitioner` name,
/// `drift_check_every_queries == 0`, `publish_every_batches == 0`, a zero
/// tracker window, or anything `ValidateDriftControllerOptions` rejects.
Status ValidateServiceOptions(const ServiceOptions& options);

/// Clamps every field `ValidateServiceOptions` rejects: zero counts become
/// 1 (k, cadences, tracker window), an unknown partitioner name
/// falls back to "loom", and the drift options are routed through
/// `SanitizeDriftControllerOptions`.
ServiceOptions SanitizeServiceOptions(ServiceOptions options);

}  // namespace loom

#endif  // LOOM_SERVING_SERVICE_OPTIONS_H_
