#include "common.h"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <sstream>

#include "common/hash.h"
#include "metrics/metrics.h"
#include "partition/replica_set.h"
#include "workload/query_engine.h"
#include "workload/workload_gen.h"

namespace perfbench {

void Repeat(double seconds, int min_reps, int max_reps,
            const std::function<void(int)>& body) {
  const Clock::time_point start = Clock::now();
  for (int rep = 0; rep < max_reps; ++rep) {
    if (rep >= min_reps && SecondsSince(start) >= seconds) break;
    body(rep);
  }
}

double ThreadCpuSeconds() {
  timespec ts{};
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) != 0) return 0.0;
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

double Min(const std::vector<double>& values) {
  return values.empty() ? 0.0 : *std::min_element(values.begin(), values.end());
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  size_t index = static_cast<size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  if (index > 0) --index;
  return values[std::min(index, values.size() - 1)];
}

double PeakRssMb() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void Result::Metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_[name] = Value{value, unit};
}

void Result::Check(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    failures_.push_back(what);
  }
}

void Result::Provenance(const std::string& key, const std::string& value) {
  provenance_.emplace_back(key, value);
}

int Result::Print() const {
  std::ostringstream prov;
  prov << "input:";
  for (const auto& [key, value] : provenance_) prov << ' ' << key << '=' << value;
  std::cout << prov.str() << '\n';
  for (const auto& [name, v] : metrics_) {
    std::printf("metric %-40s %.9g %s\n", name.c_str(), v.value,
                v.unit.c_str());
  }
  for (const std::string& f : failures_) {
    std::cout << "check FAILED: " << f << '\n';
  }
  std::cout << "checks: " << (attempted_ - failed_) << '/' << attempted_
            << " passed\n";

  // The result line: every metric, all digits kept (%.17g round-trips).
  std::ostringstream out;
  out << "{\"correct\": " << (failed_ == 0 ? "true" : "false")
      << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
      << ", \"metrics\": {";
  bool first = true;
  char buf[64];
  for (const auto& [name, v] : metrics_) {
    std::snprintf(buf, sizeof(buf), "%.17g",
                  std::isfinite(v.value) ? v.value : 0.0);
    out << (first ? "" : ", ") << '"' << name << "\": {\"value\": " << buf
        << ", \"unit\": \"" << v.unit << "\"}";
    first = false;
  }
  out << "}}";
  std::cout << out.str() << std::endl;
  return 0;
}

void Trace::Add(const std::string& name, uint64_t count, double total_s,
                double self_s) {
  Span& s = spans_[name];
  s.count += count;
  s.total_s += total_s;
  s.self_s += self_s;
}

void Trace::Print() const {
  std::printf("%-28s %12s %12s %12s\n", "span", "count", "total_s", "self_s");
  for (const auto& [name, s] : spans_) {
    std::printf("%-28s %12llu %12.6f %12.6f\n", name.c_str(),
                static_cast<unsigned long long>(s.count), s.total_s,
                s.self_s);
  }
}

void ReportTimes(const std::vector<Samples>& setup,
                 const std::vector<Samples>& run, Result* result) {
  // Sums `stat` of the CPU or wall samples of every part.
  auto sum = [](const std::vector<Samples>& parts, bool cpu,
                double (*stat)(const std::vector<double>&)) {
    double total = 0.0;
    for (const Samples& p : parts) total += stat(cpu ? p.cpu_s : p.wall_s);
    return total;
  };
  auto median = [](const std::vector<double>& v) { return Median(v); };
  result->Metric("setup_s", sum(setup, true, Min), "s");
  result->Metric("setup_wall_s", sum(setup, false, Min), "s");
  result->Metric("setup_wall_median_s", sum(setup, false, median), "s");
  result->Count("setup_samples", setup[0].cpu_s.size());
  result->Metric("run_s", sum(run, true, Min), "s");
  result->Metric("run_wall_s", sum(run, false, Min), "s");
  result->Metric("run_wall_median_s", sum(run, false, median), "s");
  result->Count("repetitions", run[0].cpu_s.size());
}

uint64_t ArrivalHash(const loom::GraphStream& stream) {
  uint64_t h = 0;
  for (const loom::VertexArrival& a : stream.arrivals()) {
    h = loom::HashCombine(h, a.vertex);
    h = loom::HashCombine(h, a.label);
    h = loom::HashCombine(h, a.back_edges.size());
    for (const loom::VertexId w : a.back_edges) h = loom::HashCombine(h, w);
  }
  return h;
}

std::string Hex(uint64_t value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

uint64_t AssignmentHash(const loom::PartitionAssignment& a) {
  uint64_t h = 0;
  for (size_t v = 0; v < a.IdBound(); ++v) {
    h = loom::HashCombine(
        h, static_cast<uint64_t>(
               a.PartOf(static_cast<loom::VertexId>(v)) + 1));
  }
  return h;
}

loom::Workload MixedWorkload() {
  loom::WorkloadGenOptions wopts;
  wopts.num_queries = 4;
  wopts.seed = kWorkloadSeed;
  return loom::MixedMotifWorkload(wopts);
}

void CheckVertexAssignment(const loom::GraphStream& stream,
                           const loom::PartitionAssignment& assignment,
                           double capacity_slack, Result* result) {
  // Exactly once: every arrival assigned, and the assignment holds no
  // vertex the stream did not carry.
  size_t unassigned = 0;
  for (const loom::VertexArrival& a : stream.arrivals()) {
    if (!assignment.IsAssigned(a.vertex)) ++unassigned;
  }
  result->Check(unassigned == 0, "every streamed vertex is assigned");
  result->Check(assignment.NumAssigned() == stream.NumVertices(),
                "assigned count equals streamed vertex count");
  const double balance = loom::BalanceMaxOverAvg(assignment);
  // C = ceil(slack * n / k), so max/avg can exceed slack by k/n rounding.
  const double limit =
      capacity_slack + static_cast<double>(assignment.k()) /
                           static_cast<double>(stream.NumVertices());
  result->Check(balance <= limit, "balance within the capacity slack");
}

void QualityMean::Add(double ipt, double one_part, double edge_cut,
                      double balance, double rf) {
  ipt_ += ipt;
  one_part_ += one_part;
  edge_cut_ += edge_cut;
  balance_ += balance;
  rf_ += rf;
  ++count_;
}

void QualityMean::Report(Result* result) const {
  const double n = count_ > 0 ? count_ : 1;
  result->Metric("ipt", ipt_ / n, "ratio");
  result->Metric("one_part", one_part_ / n, "ratio");
  result->Metric("edge_cut", edge_cut_ / n, "ratio");
  result->Metric("balance", balance_ / n, "ratio");
  result->Metric("rf", rf_ / n, "ratio");
}

void AddVertexQuality(const loom::LabeledGraph& g,
                      const loom::PartitionAssignment& assignment,
                      const loom::Workload& workload, QualityMean* quality) {
  const loom::WorkloadIptStats ipt =
      loom::EvaluateWorkloadIpt(g, assignment, workload);
  // A vertex partition stores every vertex once; measured through the same
  // ReplicationFactor the vertex-cut workload reports.
  loom::ReplicaSet replicas;
  replicas.ReserveVertices(g.NumVertices());
  for (loom::VertexId v = 0; v < g.NumVertices(); ++v) {
    const int32_t p = assignment.PartOf(v);
    if (p >= 0) replicas.Add(v, static_cast<uint32_t>(p));
  }
  quality->Add(ipt.ipt_probability, ipt.single_partition_fraction,
               loom::EdgeCutFraction(g, assignment),
               loom::BalanceMaxOverAvg(assignment),
               loom::ReplicationFactor(replicas));
}

}  // namespace perfbench
