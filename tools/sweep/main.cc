// sweep: multi-process parameter-grid orchestrator.
//
//   sweep <spec.json> --out=SWEEP_name.json [--jobs=N] [--scale=quick|full]
//         [--bench-dir=DIR] [--cells-dir=DIR] [--timeout=SECS] [--retry=N]
//   sweep <spec.json> --dry-run     print the expanded cell list and the
//                                   exact child argv, without executing
//
// The spec (tsxhpc-sweepspec-v1, see DESIGN.md §9) names a bench binary and
// the flag axes to cross. Each cell of the cross product runs as an
// independent child process — the simulator is single-threaded and
// deterministic in virtual time, so host-level process parallelism is free —
// with its telemetry artifact landing in --cells-dir. Failed or timed-out
// cells are retried once; a cell that fails twice prints its captured stderr
// and fails the sweep. When every cell has succeeded, the per-cell artifacts
// are merged in expansion order into one tsxhpc-sweep-v1 grid artifact
// (byte-identical whatever --jobs was; tsx_report renders and diffs it).
//
// Exit codes: 0 ok, 1 cell failure(s), 2 usage/spec/merge error.
#include <fcntl.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "bench/args.h"
#include "sim/fsio.h"
#include "sim/invariants.h"
#include "sim/json_parse.h"
#include "sim/sweep.h"

namespace {

using tsxhpc::sim::JsonParser;
using tsxhpc::sim::JsonValue;
using tsxhpc::sim::SweepCell;
using tsxhpc::sim::SweepSpec;

double monotonic_now() {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Zero-padded expansion index: stable per-cell file names that need no
/// label sanitization.
std::string cell_stem(std::size_t index) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%05zu", index);
  return buf;
}

struct CellRun {
  std::size_t index = 0;       // position in the expansion order
  int attempts = 0;            // 1 on first launch, 2 on the retry
  pid_t pid = -1;
  double deadline = 0.0;       // CLOCK_MONOTONIC seconds; 0 = no timeout
  bool timed_out = false;
};

class Orchestrator {
 public:
  Orchestrator(std::vector<SweepCell> cells, std::string bench_path,
               std::vector<std::string> common_args, std::string cells_dir,
               int jobs, double timeout_s, int retries)
      : cells_(std::move(cells)),
        bench_path_(std::move(bench_path)),
        common_args_(std::move(common_args)),
        cells_dir_(std::move(cells_dir)),
        jobs_(jobs < 1 ? 1 : jobs),
        timeout_s_(timeout_s),
        retries_(retries) {}

  std::string artifact_path(std::size_t index) const {
    return cells_dir_ + "/" + cell_stem(index) + ".json";
  }
  std::string stderr_path(std::size_t index) const {
    return cells_dir_ + "/" + cell_stem(index) + ".stderr";
  }
  std::string stdout_path(std::size_t index) const {
    return cells_dir_ + "/" + cell_stem(index) + ".stdout";
  }

  std::vector<std::string> child_argv(std::size_t index) const {
    std::vector<std::string> argv;
    argv.push_back(bench_path_);
    for (const std::string& a : common_args_) argv.push_back(a);
    for (const std::string& f : cells_[index].flags) argv.push_back(f);
    argv.push_back("--json=" + artifact_path(index));
    return argv;
  }

  /// Run the whole grid; returns the number of cells that failed for good.
  int run() {
    std::vector<std::size_t> queue;
    for (std::size_t i = 0; i < cells_.size(); ++i) queue.push_back(i);
    // FIFO over expansion order: deterministic launch order at --jobs=1.
    std::size_t next = 0;
    std::vector<CellRun> running;
    int failed = 0;
    std::size_t done = 0;
    while (next < queue.size() || !running.empty()) {
      while (next < queue.size() &&
             running.size() < static_cast<std::size_t>(jobs_)) {
        CellRun r;
        r.index = queue[next++];
        r.attempts = attempts_[r.index] + 1;
        if (!launch(r)) {
          std::fprintf(stderr, "sweep: cannot launch cell %s\n",
                       cells_[r.index].label.c_str());
          return ++failed;
        }
        running.push_back(r);
      }
      reap_one(running, queue, failed, done);
    }
    return failed;
  }

 private:
  bool launch(CellRun& r) {
    const std::vector<std::string> argv = child_argv(r.index);
    std::vector<char*> cargv;
    for (const std::string& a : argv) {
      cargv.push_back(const_cast<char*>(a.c_str()));
    }
    cargv.push_back(nullptr);
    const pid_t pid = fork();
    if (pid < 0) return false;
    if (pid == 0) {
      // Child: stdout/stderr go to per-cell capture files; stderr is shown
      // on final failure.
      const int out = open(stdout_path(r.index).c_str(),
                           O_CREAT | O_WRONLY | O_TRUNC, 0644);
      const int err = open(stderr_path(r.index).c_str(),
                           O_CREAT | O_WRONLY | O_TRUNC, 0644);
      if (out >= 0) dup2(out, 1);
      if (err >= 0) dup2(err, 2);
      execv(cargv[0], cargv.data());
      std::fprintf(stderr, "sweep: execv %s: %s\n", cargv[0],
                   std::strerror(errno));
      _exit(127);
    }
    attempts_[r.index] = r.attempts;
    r.pid = pid;
    r.deadline = timeout_s_ > 0 ? monotonic_now() + timeout_s_ : 0.0;
    return true;
  }

  void reap_one(std::vector<CellRun>& running, std::vector<std::size_t>& queue,
                int& failed, std::size_t& done) {
    for (;;) {
      // Kill any child past its wall-clock deadline (virtual time cannot
      // hang; this guards real bugs — livelocked children, bad flags that
      // stall on a tty, ...).
      const double now = monotonic_now();
      for (CellRun& r : running) {
        if (r.deadline > 0 && now > r.deadline && !r.timed_out) {
          r.timed_out = true;
          kill(r.pid, SIGKILL);
        }
      }
      int status = 0;
      const pid_t pid = waitpid(-1, &status, WNOHANG);
      if (pid > 0) {
        for (std::size_t i = 0; i < running.size(); ++i) {
          if (running[i].pid != pid) continue;
          finish(running[i], status, queue, failed, done);
          running.erase(running.begin() + static_cast<std::ptrdiff_t>(i));
          return;
        }
        continue;  // not one of ours (cannot happen in practice)
      }
      if (running.empty()) return;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }

  void finish(const CellRun& r, int status, std::vector<std::size_t>& queue,
              int& failed, std::size_t& done) {
    const bool exited_ok = WIFEXITED(status) && WEXITSTATUS(status) == 0;
    std::string artifact_err;
    const bool ok = exited_ok && !r.timed_out &&
                    validate_artifact(artifact_path(r.index), &artifact_err);
    if (ok) {
      done++;
      std::printf("sweep: [%zu/%zu] %s ok%s\n", done, cells_.size(),
                  cells_[r.index].label.c_str(),
                  r.attempts > 1 ? " (on retry)" : "");
      std::fflush(stdout);
      return;
    }
    std::string why;
    if (r.timed_out) {
      why = "timed out after " + std::to_string(timeout_s_) + "s";
    } else if (WIFSIGNALED(status)) {
      why = "killed by signal " + std::to_string(WTERMSIG(status));
    } else if (!exited_ok) {
      why = "exit code " + std::to_string(WEXITSTATUS(status));
    } else {
      why = "bad artifact: " + artifact_err;
    }
    if (r.attempts <= retries_) {
      std::fprintf(stderr, "sweep: cell %s %s — retrying\n",
                   cells_[r.index].label.c_str(), why.c_str());
      queue.push_back(r.index);
      return;
    }
    failed++;
    std::fprintf(stderr, "sweep: cell %s FAILED (%s, %d attempt(s))\n",
                 cells_[r.index].label.c_str(), why.c_str(), r.attempts);
    std::string err_text;
    if (tsxhpc::sim::read_file(stderr_path(r.index), err_text) &&
        !err_text.empty()) {
      std::fprintf(stderr, "sweep: --- captured stderr (%s) ---\n%s%s",
                   cells_[r.index].label.c_str(), err_text.c_str(),
                   err_text.back() == '\n' ? "" : "\n");
    }
  }

  static bool validate_artifact(const std::string& path, std::string* error) {
    std::string text;
    if (!tsxhpc::sim::read_file(path, text)) {
      *error = "missing telemetry artifact " + path;
      return false;
    }
    // The loader tsx_report uses, so every merged cell loads there too.
    JsonValue doc;
    std::string load_err;
    if (!tsxhpc::sim::load_artifact(text, doc, &load_err)) {
      *error = path + ": " + load_err;
      return false;
    }
    return true;
  }

  std::vector<SweepCell> cells_;
  std::string bench_path_;
  std::vector<std::string> common_args_;
  std::string cells_dir_;
  int jobs_;
  double timeout_s_;
  int retries_;
  std::map<std::size_t, int> attempts_;
};

std::string dirname_of(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? "." : path.substr(0, slash);
}

}  // namespace

int main(int argc, char** argv) {
  tsxhpc::bench::Args args(
      "sweep", "expand a parameter-grid spec, shard the cells across host "
               "cores, merge the telemetry into one tsxhpc-sweep-v1 artifact");
  std::string spec_path, out_path, bench_dir, cells_dir, scale = "quick";
  bool dry_run = false, cli_markdown = false;
  int jobs = static_cast<int>(std::thread::hardware_concurrency());
  if (jobs < 1) jobs = 1;
  double timeout_s = 300.0;
  int retries = 1;
  // The positional is checked manually after parse so --cli-markdown works
  // without a spec.
  args.add_positional("spec", "tsxhpc-sweepspec-v1 JSON file", &spec_path,
                      false);
  args.add_string("out", "merged grid artifact path (default: SWEEP_<name>."
                         "json)", &out_path);
  args.add_bool("dry-run", "print the expanded cells and exact child argv "
                           "without executing", &dry_run);
  args.add_int("jobs", "max concurrent cell processes (default: host cores)",
               &jobs);
  args.add_string("scale", "which per-scale flag set to append: quick or "
                           "full", &scale);
  args.add_string("bench-dir", "directory holding the bench binaries "
                               "(default: <sweep-binary-dir>/../bench)",
                  &bench_dir);
  args.add_string("cells-dir", "per-cell artifact/log directory (default: "
                               "<out>.cells)", &cells_dir);
  args.add_double("timeout", "per-cell wall-clock timeout in seconds "
                             "(0 = none)", &timeout_s);
  args.add_int("retry", "relaunch a failed/timed-out cell this many times",
               &retries);
  args.add_bool("cli-markdown",
                "print the flag table as markdown and exit (the "
                "EXPERIMENTS.md CLI reference is generated from this)",
                &cli_markdown);
  if (!args.parse(argc, argv)) return args.exit_code();
  if (cli_markdown) {
    std::printf("### `sweep`\n\n%s", args.markdown().c_str());
    return 0;
  }
  if (spec_path.empty()) {
    return args.fail("missing required argument <spec>");
  }
  if (scale != "quick" && scale != "full") {
    return args.fail("bad value for '--scale': '" + scale +
                     "' (expected quick or full)");
  }

  std::string spec_text;
  if (!tsxhpc::sim::read_file(spec_path, spec_text)) {
    std::fprintf(stderr, "sweep: cannot read %s\n", spec_path.c_str());
    return 2;
  }
  std::string err;
  const JsonValue spec_doc = JsonParser::parse(spec_text, &err);
  if (spec_doc.is_null()) {
    std::fprintf(stderr, "sweep: %s: parse error: %s\n", spec_path.c_str(),
                 err.c_str());
    return 2;
  }
  SweepSpec spec;
  if (!tsxhpc::sim::parse_sweep_spec(spec_doc, spec, &err)) {
    std::fprintf(stderr, "sweep: %s: %s\n", spec_path.c_str(), err.c_str());
    return 2;
  }
  const std::vector<SweepCell> cells = tsxhpc::sim::expand_cells(spec);
  const std::vector<std::string> common = spec.args_for_scale(scale);
  if (bench_dir.empty()) bench_dir = dirname_of(argv[0]) + "/../bench";
  const std::string bench_path = bench_dir + "/" + spec.bench;
  if (out_path.empty()) out_path = "SWEEP_" + spec.name + ".json";
  if (cells_dir.empty()) cells_dir = out_path + ".cells";

  Orchestrator orch(cells, bench_path, common, cells_dir, jobs, timeout_s,
                    retries);
  if (dry_run) {
    std::printf("sweep %s: bench=%s scale=%s cells=%zu\n", spec.name.c_str(),
                bench_path.c_str(), scale.c_str(), cells.size());
    for (std::size_t i = 0; i < cells.size(); ++i) {
      std::printf("%s %s:", cell_stem(i).c_str(), cells[i].label.c_str());
      for (const std::string& a : orch.child_argv(i)) {
        std::printf(" %s", a.c_str());
      }
      std::printf("\n");
    }
    return 0;
  }

  if (access(bench_path.c_str(), X_OK) != 0) {
    std::fprintf(stderr, "sweep: bench binary %s is not executable "
                         "(--bench-dir?)\n", bench_path.c_str());
    return 2;
  }
  if (mkdir(cells_dir.c_str(), 0755) != 0 && errno != EEXIST) {
    std::fprintf(stderr, "sweep: cannot create %s: %s\n", cells_dir.c_str(),
                 std::strerror(errno));
    return 2;
  }
  std::printf("sweep %s: %zu cells, --jobs=%d, bench=%s\n", spec.name.c_str(),
              cells.size(), jobs, bench_path.c_str());
  const int failed = orch.run();
  if (failed > 0) {
    std::fprintf(stderr, "sweep: %d cell(s) failed; not merging\n", failed);
    return 1;
  }

  // Merge in expansion order: the artifact bytes are independent of --jobs.
  std::vector<std::string> artifacts(cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (!tsxhpc::sim::read_file(orch.artifact_path(i), artifacts[i])) {
      std::fprintf(stderr, "sweep: lost cell artifact %s\n",
                   orch.artifact_path(i).c_str());
      return 2;
    }
  }
  const std::string merged =
      tsxhpc::sim::merge_sweep(spec, scale, common, cells, artifacts);
  if (!tsxhpc::sim::atomic_write_file(out_path, merged)) {
    std::fprintf(stderr, "sweep: cannot write %s\n", out_path.c_str());
    return 2;
  }
  std::printf("sweep: merged %zu cells -> %s (%zu bytes)\n", cells.size(),
              out_path.c_str(), merged.size());
  return 0;
}
