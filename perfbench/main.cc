// loom_perfbench: the end-to-end benchmark program. One invocation runs one
// workload and prints a human-readable report followed by one JSON result
// line holding every metric it measured. perfbench/run.py builds this
// binary and narrows that line to the metrics BENCHMARK.json lists.
//
//   loom_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  [--tmp-dir <dir>]

#include <malloc.h>

#include <climits>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

#include "common.h"
#include "workloads.h"

namespace {

int Usage() {
  std::cerr << "usage: loom_perfbench --workload "
               "<loom-natural|restream-random|vertex-cut|serve-drift> "
               "--seed <n> --seconds <s> --trace <0|1> [--tmp-dir <dir>]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      args.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--tmp-dir") {
      args.tmp_dir = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 == 0 || args.seconds <= 0.0) return Usage();

  // Freed memory stays in the process, and large blocks come from the heap
  // rather than fresh mappings, so the repetitions after the first reuse
  // pages already faulted in. In a virtual machine a first-touch page fault
  // costs the guest a trip to the host, whose price swings with the host's
  // load (a quarter of serve-drift's pipeline CPU in one probe). The
  // repetitions after the first are timed without it; peak RSS and
  // serving.pipeline_page_faults still show the memory.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, INT_MAX);

  perfbench::Result result;
  if (args.workload == "loom-natural") {
    perfbench::RunLoomNatural(args, &result);
  } else if (args.workload == "restream-random") {
    perfbench::RunRestreamRandom(args, &result);
  } else if (args.workload == "vertex-cut") {
    perfbench::RunVertexCut(args, &result);
  } else if (args.workload == "serve-drift") {
    perfbench::RunServeDrift(args, &result);
  } else {
    return Usage();
  }
  return result.Print();
}
