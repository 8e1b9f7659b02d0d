#ifndef LOOM_BENCH_PERF_REPORT_H_
#define LOOM_BENCH_PERF_REPORT_H_

/// \file
/// Minimal JSON emitter behind `tools/run_benchmarks` (`BENCH_edge_cut.json`,
/// docs/BENCH_SCHEMA.md): enough for flat objects and arrays of flat
/// objects. Doubles print with round-trip precision (`%.17g`), so the
/// checked-in file pins every quality value bit for bit.

#include <cstdint>
#include <string>
#include <vector>

namespace loom {
namespace bench {

struct JsonObject {
  std::vector<std::string> fields;

  void Add(const std::string& key, const std::string& value);
  void Add(const std::string& key, double value);
  void Add(const std::string& key, uint64_t value);
  void AddRaw(const std::string& key, const std::string& raw);

  std::string Render(int indent) const;
};

std::string RenderArray(const std::vector<JsonObject>& items, int indent);

bool WriteFile(const std::string& path, const std::string& content);

}  // namespace bench
}  // namespace loom

#endif  // LOOM_BENCH_PERF_REPORT_H_
