#ifndef LOOM_PERFBENCH_WORKLOADS_H_
#define LOOM_PERFBENCH_WORKLOADS_H_

// The benchmark's four workloads. Each generates its input from the seed,
// measures its end-to-end metrics untraced (or, with --trace 1, its
// per-layer metrics from a separate traced run) and records output checks.

#include "common.h"

namespace perfbench {

void RunLoomNatural(const Args& args, Result* result);
void RunRestreamRandom(const Args& args, Result* result);
void RunVertexCut(const Args& args, Result* result);
void RunServeDrift(const Args& args, Result* result);

}  // namespace perfbench

#endif  // LOOM_PERFBENCH_WORKLOADS_H_
