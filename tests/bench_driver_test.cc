// Golden test for tools/run_benchmarks: a fresh `--fast` run must reproduce
// the checked-in BENCH_edge_cut.json byte for byte. Every value in that file
// is a deterministic quality number or counter, so any difference is a
// behaviour change; when it is intended, regenerate the file with
// `cmake --build build --target bench_baseline` and explain the diff in
// CHANGES.md. The binary and golden paths are injected by CMake
// (RUN_BENCHMARKS_BIN, BENCH_GOLDEN_PATH).

#include <gtest/gtest.h>
#include <stdlib.h>  // mkdtemp
#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

namespace loom {
namespace {

// Runs tools/run_benchmarks with `args` (stdout and stderr discarded);
// returns its exit status, or -1 when it did not exit normally.
int RunBenchmarks(const std::string& args) {
  const std::string cmd =
      std::string(RUN_BENCHMARKS_BIN) + " " + args + " > /dev/null 2>&1";
  const int status = std::system(cmd.c_str());
  return status != -1 && WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

TEST(BenchDriverTest, FastRunMatchesGolden) {
  std::string dir = "/tmp/loom_bench_driver_XXXXXX";
  ASSERT_NE(mkdtemp(dir.data()), nullptr) << "mkdtemp failed";
  ASSERT_EQ(RunBenchmarks("--fast --out " + dir), 0);

  const std::string fresh_path = dir + "/BENCH_edge_cut.json";
  std::ifstream golden(BENCH_GOLDEN_PATH);
  std::ifstream fresh(fresh_path);
  ASSERT_TRUE(golden) << "cannot read " << BENCH_GOLDEN_PATH;
  ASSERT_TRUE(fresh) << "cannot read " << fresh_path;
  std::string want;
  std::string got;
  for (int line = 1;; ++line) {
    const bool more_want = static_cast<bool>(std::getline(golden, want));
    const bool more_got = static_cast<bool>(std::getline(fresh, got));
    if (!more_want && !more_got) break;
    if (more_want && more_got && want == got) continue;
    FAIL() << BENCH_GOLDEN_PATH << " differs from a fresh run at line " << line
           << "\n  golden: " << (more_want ? want : "<end of file>")
           << "\n  fresh:  " << (more_got ? got : "<end of file>")
           << "\nRegenerate it with `cmake --build build --target "
              "bench_baseline` and explain the change in CHANGES.md.";
  }
  std::remove(fresh_path.c_str());
  std::remove(dir.c_str());
}

TEST(BenchDriverTest, RejectsMalformedNumbersWithExitTwo) {
  // Nothing may run on a bad value: before, `--large-n abc --large-degree
  // xyz` exited 0 after a 60k-vertex large tier at degree 1.
  for (const char* args :
       {"--large-n abc", "--large-degree xyz", "--large-n 0",
        "--large-degree 0", "--large-n -5", "--large-n 12x",
        "--large-n 99999999999"}) {
    EXPECT_EQ(RunBenchmarks(std::string(args) + " --out /nonexistent-dir"), 2)
        << args;
  }
}

}  // namespace
}  // namespace loom
