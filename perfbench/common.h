#ifndef LOOM_PERFBENCH_COMMON_H_
#define LOOM_PERFBENCH_COMMON_H_

// Shared plumbing of the end-to-end benchmark: command-line arguments, the
// result sink every workload writes metrics and output checks into, the
// outside-in span recorder of the traced run, the input provenance hash and
// small statistics helpers.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "graph/graph.h"
#include "partition/partition_state.h"
#include "stream/stream.h"
#include "workload/workload.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// CPU seconds the calling thread has used so far. Unlike wall time, it
/// leaves out the time the thread waited for a core: on a shared virtual
/// machine that wait is other tenants' load (the guest kernel accounts
/// hypervisor steal apart from the thread's run time), not the program's
/// cost.
double ThreadCpuSeconds();

/// Samples of one timed call: wall seconds and the calling thread's CPU
/// seconds, one of each per call.
struct Samples {
  std::vector<double> wall_s;
  std::vector<double> cpu_s;
};

/// Times one call on the calling thread, from construction to Stop.
class Stopwatch {
 public:
  Stopwatch() : wall_(Clock::now()), cpu_(ThreadCpuSeconds()) {}

  /// Appends the wall and CPU seconds since construction to `samples`.
  void Stop(Samples* samples) const {
    samples->wall_s.push_back(SecondsSince(wall_));
    samples->cpu_s.push_back(ThreadCpuSeconds() - cpu_);
  }

 private:
  Clock::time_point wall_;
  double cpu_;
};

/// `num / den`, or 0 when `den` is not positive.
inline double Ratio(double num, double den) {
  return den > 0.0 ? num / den : 0.0;
}

/// Aborts the run (exit 1, no result line) when a set-up call the workload
/// cannot proceed without fails; such a failure is a benchmark bug, not a
/// measured outcome.
inline void MustOk(const loom::Status& status, const char* what) {
  if (status.ok()) return;
  std::fprintf(stderr, "perfbench: %s failed: %s\n", what,
               status.ToString().c_str());
  std::exit(1);
}

template <typename T>
T Must(loom::Result<T> result, const char* what) {
  MustOk(result.status(), what);
  return std::move(result.value());
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory for scratch files (the vertex-cut stream file).
  std::string tmp_dir = ".";
};

/// Calls `body(rep)` until at least `min_reps` calls have run and
/// `seconds` have elapsed, or `max_reps` calls have run.
void Repeat(double seconds, int min_reps, int max_reps,
            const std::function<void(int)>& body);

/// Median of `values` (0 for an empty vector).
double Median(std::vector<double> values);

/// Smallest of `values` (0 for an empty vector).
double Min(const std::vector<double>& values);

/// Nearest-rank percentile `q` in [0, 1] of `values` (0 when empty).
double Percentile(std::vector<double> values, double q);

/// High-water resident set size of this process, in MiB.
double PeakRssMb();

/// Metrics, output checks and provenance of one workload run; printed as
/// the human-readable report plus the final one-line JSON result.
class Result {
 public:
  void Metric(const std::string& name, double value, const std::string& unit);

  /// A metric in unit "count".
  void Count(const std::string& name, uint64_t n) {
    Metric(name, static_cast<double>(n), "count");
  }

  /// Records one output check: an attempted operation that fails when `ok`
  /// is false. `what` names the check in the report.
  void Check(bool ok, const std::string& what);

  /// Counts `n` operations that succeeded without an individual check (for
  /// example the reads a serving client issued).
  void Attempted(uint64_t n) { attempted_ += n; }

  /// Records one input-provenance fact (seed, generator parameters, n, m,
  /// arrival hash).
  void Provenance(const std::string& key, const std::string& value);

  /// Prints every metric, check failure and provenance fact, then the
  /// result line. Returns the process exit code.
  int Print() const;

 private:
  struct Value {
    double value;
    std::string unit;
  };
  std::map<std::string, Value> metrics_;
  std::vector<std::pair<std::string, std::string>> provenance_;
  std::vector<std::string> failures_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

/// In-memory span recorder for the traced run. Each span is identified by
/// name and accumulates a call count, total seconds and self seconds
/// (total minus the time its child spans cover). Hot loops accumulate in
/// locals and add once; everything is written out by `Print`.
class Trace {
 public:
  void Add(const std::string& name, uint64_t count, double total_s,
           double self_s);
  void Add(const std::string& name, uint64_t count, double total_s) {
    Add(name, count, total_s, total_s);
  }
  void Print() const;

 private:
  struct Span {
    uint64_t count = 0;
    double total_s = 0.0;
    double self_s = 0.0;
  };
  std::map<std::string, Span> spans_;
};

/// Records `setup_s` and `run_s`: each the least CPU time of its samples,
/// with the least and median wall times and the sample counts beside them.
/// The benchmark machine is shared. Waiting for a core is left out of CPU
/// time, and other tenants' cache and memory traffic only ever slows a
/// sample down, so the fastest CPU sample is the steadiest estimate of the
/// program's own cost. A workload that times several inputs passes one
/// Samples per input, and each figure is the sum over the inputs.
void ReportTimes(const std::vector<Samples>& setup,
                 const std::vector<Samples>& run, Result* result);

/// Hash of every (vertex, label, back edges) of `stream`, in order: two
/// runs that print the same hash streamed the same input.
uint64_t ArrivalHash(const loom::GraphStream& stream);

std::string Hex(uint64_t value);

/// Hash of the partition of every vertex id: equal hashes mean the same
/// placement.
uint64_t AssignmentHash(const loom::PartitionAssignment& a);

/// Generator seed of the fixed query workload; only the graph, the planted
/// copies and the arrival order follow --seed, so every seed scores the same
/// queries.
constexpr uint64_t kWorkloadSeed = 5;

/// The mixed-motif workload (4 queries) the LOOM and vertex-cut workloads
/// plant and score.
loom::Workload MixedWorkload();

/// Output checks shared by every vertex-partition workload: every streamed
/// vertex assigned exactly once, balance within the capacity slack.
void CheckVertexAssignment(const loom::GraphStream& stream,
                           const loom::PartitionAssignment& assignment,
                           double capacity_slack, Result* result);

/// The quality metrics of a workload: ipt, one_part, edge_cut, balance and
/// rf of its reported placements, each the mean over the workload's inputs.
class QualityMean {
 public:
  void Add(double ipt, double one_part, double edge_cut, double balance,
           double rf);

  /// Records the five means.
  void Report(Result* result) const;

 private:
  double ipt_ = 0.0;
  double one_part_ = 0.0;
  double edge_cut_ = 0.0;
  double balance_ = 0.0;
  double rf_ = 0.0;
  int count_ = 0;
};

/// Adds the quality of a vertex assignment of `g` scored against `workload`.
void AddVertexQuality(const loom::LabeledGraph& g,
                      const loom::PartitionAssignment& assignment,
                      const loom::Workload& workload, QualityMean* quality);

}  // namespace perfbench

#endif  // LOOM_PERFBENCH_COMMON_H_
