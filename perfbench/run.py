#!/usr/bin/env python3
"""Build and run the simulator host-throughput benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload rtm --seed 1 --seconds 25 --trace 0

Builds perfbench/ (and the simulator sources it compiles) into
$CARGO_TARGET_DIR, default .bench_build, then runs the benchmark binary with
the given flags. `--flag value` and `--flag=value` are both accepted; the
binary validates every flag. `--workload all` runs each workload in its own
process and ends with one JSON line holding every workload's metrics,
prefixed with the workload name. The last stdout line is always the result
JSON; build output goes to stderr.
"""
import fcntl
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["rtm", "no_rtm", "numa64"]


def build(build_dir):
    os.makedirs(build_dir, exist_ok=True)
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja") and not os.path.exists(
                os.path.join(build_dir, "Makefile")):
            configure += ["-G", "Ninja"]
        jobs = str(min(4, os.cpu_count() or 1))
        for cmd in (configure, ["cmake", "--build", build_dir, "-j", jobs]):
            if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
                return False
    return True


def normalize(argv):
    """Join `--flag value` into `--flag=value` for the binary's parser."""
    out, i = [], 0
    while i < len(argv):
        arg = argv[i]
        if (arg.startswith("--") and "=" not in arg and arg != "--help"
                and i + 1 < len(argv) and not argv[i + 1].startswith("--")):
            out.append(arg + "=" + argv[i + 1])
            i += 2
        else:
            out.append(arg)
            i += 1
    return out


def main():
    build_dir = os.path.join(
        os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
    # Keep the compiler's temporary files inside the checkout too.
    tmp = os.path.abspath(os.path.join(build_dir, "tmp"))
    os.makedirs(tmp, exist_ok=True)
    os.environ["TMPDIR"] = tmp
    if not build(build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(build_dir, "perfbench")
    args = normalize(sys.argv[1:])
    base = [binary, "--expect-dir=" + os.path.join(HERE, "expected"),
            "--spans=" + os.path.join(build_dir, "spans.json")]
    if "--workload=all" not in args:
        return subprocess.run(base + args).returncode

    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    rc = 0
    for w in WORKLOADS:
        wargs = ["--workload=" + w if a == "--workload=all" else a for a in args]
        p = subprocess.run(base + wargs, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(p.stdout)
        rc = max(rc, p.returncode)
        lines = p.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            return rc or 1
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            merged["metrics"][w + "." + name] = m
    print(json.dumps(merged))
    return rc


if __name__ == "__main__":
    sys.exit(main())
