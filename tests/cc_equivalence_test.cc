// The determinism contract for the schemes the CcBackend seam introduced:
// a tictoc / tictoc-hybrid / mvcc run must produce the same artifact on the
// fiber and thread execution backends, byte for byte modulo the advertised
// per-run "backend" name. (That sgl / tl2 / tsx through the seam still
// reproduce the historic telemetry is pinned by the exact baseline gates,
// `ctest -L baseline_test`.)
//
// Invoked with the fig2_stamp binary as its argument (plain add_test, not
// gtest_discover_tests — the binary is a build product whose path only
// CMake knows).
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

namespace tsxhpc::sim {
namespace {

std::string g_fig2_bin;

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// The artifacts may differ only in the advertised backend name.
std::string normalize_backend(std::string json) {
  const std::string from = "\"backend\":\"thread\"";
  const std::string to = "\"backend\":\"fiber\"";
  for (std::size_t pos = json.find(from); pos != std::string::npos;
       pos = json.find(from, pos + to.size())) {
    json.replace(pos, from.size(), to);
  }
  return json;
}

/// Run fig2_stamp restricted to one scheme on a chosen execution backend
/// and return the artifact text. TSXHPC_BACKEND is read once per process,
/// so the override goes through the child's environment.
std::string run_scheme(const std::string& scheme, const char* exec_backend,
                       const std::string& artifact_name) {
  const std::string cmd = "TSXHPC_BACKEND=" + std::string(exec_backend) +
                          " " + g_fig2_bin + " --quick --scheme=" + scheme +
                          " --threads=2 --ref=0 --json=" + artifact_name +
                          " > /dev/null";
  EXPECT_EQ(std::system(cmd.c_str()), 0) << cmd;
  return slurp(artifact_name);
}

class SchemeBackendIdentity : public ::testing::TestWithParam<const char*> {};

TEST_P(SchemeBackendIdentity, FiberAndThreadArtifactsAreByteIdentical) {
  const std::string scheme = GetParam();
  const std::string fiber =
      run_scheme(scheme, "fiber", "cc_equiv_" + scheme + "_fiber.json");
  const std::string thread =
      run_scheme(scheme, "thread", "cc_equiv_" + scheme + "_thread.json");
  ASSERT_FALSE(fiber.empty());
  ASSERT_FALSE(thread.empty());
  EXPECT_NE(fiber.find("\"backend\":\"fiber\""), std::string::npos);
  EXPECT_NE(thread.find("\"backend\":\"thread\""), std::string::npos);
  EXPECT_NE(fiber.find("\"schema\":\"tsxhpc-telemetry-v7\""),
            std::string::npos);
  EXPECT_EQ(fiber, normalize_backend(thread))
      << scheme << " telemetry diverges between execution backends";
}

INSTANTIATE_TEST_SUITE_P(NewSchemes, SchemeBackendIdentity,
                         ::testing::Values("tictoc", "tictoc-hybrid", "mvcc"),
                         [](const ::testing::TestParamInfo<const char*>&
                                info) {
                           std::string name = info.param;
                           for (char& ch : name) {
                             if (ch == '-') ch = '_';
                           }
                           return name;
                         });

}  // namespace
}  // namespace tsxhpc::sim

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  if (argc < 2) {
    std::fprintf(stderr, "usage: cc_equivalence_test <fig2_stamp>\n");
    return 2;
  }
  tsxhpc::sim::g_fig2_bin = argv[1];
  return RUN_ALL_TESTS();
}
