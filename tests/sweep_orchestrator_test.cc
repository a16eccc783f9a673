// End-to-end coverage for tools/sweep, the multi-process grid orchestrator.
// Drives the real binary against the real fig2_stamp bench over a tiny
// two-cell spec and checks the load-bearing guarantees: --dry-run prints a
// deterministic expansion without executing anything, the merged artifact is
// byte-identical between serial (--jobs=1) and parallel (--jobs=4) sharding,
// failed cells surface their captured stderr and fail the sweep with exit
// code 1, and no half-written .tmp files survive (telemetry writes are
// atomic rename-into-place).
//
// Invoked with the sweep binary and the bench directory as arguments (plain
// add_test, like policy_equivalence_test — the paths are build products only
// CMake knows).
#include <sys/stat.h>
#include <sys/wait.h>

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <dirent.h>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "sim/invariants.h"

namespace tsxhpc::sim {
namespace {

std::string g_sweep_bin;
std::string g_bench_dir;

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void spit(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
  ASSERT_TRUE(out.good()) << path;
}

/// Run a shell command, capture combined stdout+stderr, return the exit code.
int run_cmd(const std::string& cmd, std::string& output,
            const std::string& capture_path) {
  const int status =
      std::system((cmd + " > " + capture_path + " 2>&1").c_str());
  output = slurp(capture_path);
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

/// Names in `dir` ending with `suffix` (no recursion; empty if no dir).
std::vector<std::string> entries_with_suffix(const std::string& dir,
                                             const std::string& suffix) {
  std::vector<std::string> hits;
  DIR* d = opendir(dir.c_str());
  if (!d) return hits;
  while (dirent* e = readdir(d)) {
    const std::string name = e->d_name;
    if (name.size() >= suffix.size() &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0) {
      hits.push_back(name);
    }
  }
  closedir(d);
  return hits;
}

/// A 2-cell spec (scheme in {sgl, tsx}, one workload, one thread count) that
/// finishes in a couple of seconds even in CI.
const char* kTinySpec = R"({
  "schema": "tsxhpc-sweepspec-v1",
  "name": "e2e_tiny",
  "bench": "fig2_stamp",
  "args": ["--ref=0", "--workload=genome"],
  "quick_args": ["--quick"],
  "full_args": [],
  "axes": [
    {"axis": "scheme", "flag": "--scheme", "values": ["sgl", "tsx"]},
    {"axis": "threads", "flag": "--threads", "values": ["2"]}
  ]
})";

std::string write_spec(const std::string& name, const std::string& text) {
  const std::string path = "sweep_e2e_" + name + ".spec.json";
  spit(path, text);
  return path;
}

TEST(SweepOrchestrator, DryRunIsDeterministicAndExecutesNothing) {
  const std::string spec = write_spec("dryrun", kTinySpec);
  const std::string cmd = g_sweep_bin + " " + spec + " --dry-run --bench-dir=" +
                          g_bench_dir + " --out=sweep_e2e_dryrun.json";
  std::string first, second;
  ASSERT_EQ(run_cmd(cmd, first, "sweep_e2e_dryrun.1.log"), 0) << first;
  ASSERT_EQ(run_cmd(cmd, second, "sweep_e2e_dryrun.2.log"), 0) << second;
  EXPECT_EQ(first, second) << "dry-run expansion must be deterministic";
  // The expansion is stable-ordered (spec order, last axis fastest) and the
  // printed lines carry the exact child argv.
  const std::size_t sgl = first.find("00000 scheme=sgl/threads=2:");
  const std::size_t tsx = first.find("00001 scheme=tsx/threads=2:");
  EXPECT_NE(sgl, std::string::npos) << first;
  EXPECT_NE(tsx, std::string::npos) << first;
  EXPECT_LT(sgl, tsx);
  EXPECT_NE(first.find("--ref=0 --workload=genome --quick --scheme=sgl "
                       "--threads=2 --json="),
            std::string::npos)
      << first;
  // Nothing ran: no merged artifact, no cells directory.
  EXPECT_TRUE(slurp("sweep_e2e_dryrun.json").empty());
  struct stat st;
  EXPECT_NE(stat("sweep_e2e_dryrun.json.cells", &st), 0);
}

TEST(SweepOrchestrator, SerialAndParallelMergesAreByteIdentical) {
  const std::string spec = write_spec("jobs", kTinySpec);
  std::string out;
  const std::string base = g_sweep_bin + " " + spec +
                           " --bench-dir=" + g_bench_dir;
  ASSERT_EQ(run_cmd(base + " --jobs=1 --out=sweep_e2e_serial.json", out,
                    "sweep_e2e_serial.log"),
            0)
      << out;
  ASSERT_EQ(run_cmd(base + " --jobs=4 --out=sweep_e2e_parallel.json", out,
                    "sweep_e2e_parallel.log"),
            0)
      << out;
  const std::string serial = slurp("sweep_e2e_serial.json");
  const std::string parallel = slurp("sweep_e2e_parallel.json");
  ASSERT_FALSE(serial.empty());
  EXPECT_EQ(serial, parallel)
      << "merged artifact must not depend on process sharding";

  std::string err;
  JsonValue doc;
  ASSERT_TRUE(load_artifact(serial, doc, &err)) << err;
  EXPECT_EQ(doc.str("schema"), "tsxhpc-sweep-v1");
  ASSERT_EQ(doc.arr("cells").size(), 2u);
  const JsonValue& cell = doc.arr("cells").obj(1);
  EXPECT_EQ(cell.str("cell"), "scheme=tsx/threads=2");
  EXPECT_EQ(cell.obj("telemetry").str("schema"), "tsxhpc-telemetry-v8");

  // Telemetry and merge writes are atomic (<path>.tmp + rename): a clean run
  // leaves no .tmp next to the merged artifacts or the per-cell telemetry.
  struct stat st;
  EXPECT_NE(stat("sweep_e2e_serial.json.tmp", &st), 0);
  EXPECT_NE(stat("sweep_e2e_parallel.json.tmp", &st), 0);
  EXPECT_TRUE(
      entries_with_suffix("sweep_e2e_serial.json.cells", ".tmp").empty());
  EXPECT_TRUE(
      entries_with_suffix("sweep_e2e_parallel.json.cells", ".tmp").empty());
}

TEST(SweepOrchestrator, FailingCellFailsTheSweepAndShowsItsStderr) {
  // "bogus" is not a scheme fig2_stamp accepts, so that cell exits non-zero
  // on both attempts; the sgl cell still succeeds.
  std::string bad = kTinySpec;
  const std::string from = "\"tsx\"";
  bad.replace(bad.find(from), from.size(), "\"bogus\"");
  const std::string spec = write_spec("fail", bad);
  std::string out;
  const int rc = run_cmd(g_sweep_bin + " " + spec + " --bench-dir=" +
                             g_bench_dir + " --out=sweep_e2e_fail.json",
                         out, "sweep_e2e_fail.log");
  EXPECT_EQ(rc, 1) << out;
  EXPECT_NE(out.find("scheme=bogus/threads=2 FAILED"), std::string::npos)
      << out;
  EXPECT_NE(out.find("captured stderr"), std::string::npos) << out;
  EXPECT_NE(out.find("retrying"), std::string::npos) << out;
  // A failed sweep must not leave a merged artifact behind.
  EXPECT_TRUE(slurp("sweep_e2e_fail.json").empty());
}

TEST(SweepOrchestrator, BadSpecAndMissingBenchAreUsageErrors) {
  const std::string spec =
      write_spec("badschema",
                 R"({"schema": "nope", "name": "x", "bench": "y", "axes": []})");
  std::string out;
  EXPECT_EQ(run_cmd(g_sweep_bin + " " + spec, out, "sweep_e2e_badspec.log"), 2)
      << out;
  const std::string good = write_spec("nobench", kTinySpec);
  EXPECT_EQ(run_cmd(g_sweep_bin + " " + good + " --bench-dir=/nonexistent",
                    out, "sweep_e2e_nobench.log"),
            2)
      << out;
  EXPECT_NE(out.find("not executable"), std::string::npos) << out;
}

}  // namespace
}  // namespace tsxhpc::sim

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  if (argc < 3) {
    std::fprintf(stderr,
                 "usage: sweep_orchestrator_test <sweep-bin> <bench-dir>\n");
    return 2;
  }
  tsxhpc::sim::g_sweep_bin = argv[1];
  tsxhpc::sim::g_bench_dir = argv[2];
  // Every artifact this test writes is prefixed sweep_e2e_; drop leftovers
  // from a previous (possibly failed) run so absence checks start clean.
  if (std::system("rm -rf sweep_e2e_*") != 0) return 2;
  return RUN_ALL_TESTS();
}
