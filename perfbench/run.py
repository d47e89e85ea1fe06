#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --p99-limit-us 20000 --workload tcp_steady \
        --seed 1 --seconds 40 --trace 0

Builds perfbench/ (which compiles ../src) with CMake into .bench_build/,
runs one workload in its own process, checks that the result names exactly
the metrics BENCHMARK.json declares for the run's class (end_to_end with
--trace 0, per_layer with --trace 1) with the declared units, and prints the
program's report with the result JSON as the last line. Exits non-zero when
the sources are missing, the build fails, an output check fails or the
result does not match BENCHMARK.json.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time

RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def fail(message, code=3):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def source_revision(root):
    """The git commit when there is one, else a digest of the sources."""
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
        if rev.returncode == 0 and rev.stdout.strip():
            return rev.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha1()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-" + digest.hexdigest()[:16]


def build(root, build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(root, "perfbench"), "-B",
                      build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        done = subprocess.run(step, cwd=root, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
        if done.returncode != 0:
            fail("build step failed: " + " ".join(step))
    return os.path.join(build_dir, "perfbench")


def check_result(line, declared, trace):
    try:
        result = json.loads(line)
    except ValueError:
        return "last line is not JSON"
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        return "result keys are not correct/attempted/failed/metrics"
    metrics = result["metrics"]
    wanted = declared["per_layer" if trace else "end_to_end"]
    names = [m["name"] for m in wanted]
    if sorted(metrics) != sorted(names):
        missing = sorted(set(names) - set(metrics))
        extra = sorted(set(metrics) - set(names))
        return f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}"
    for m in wanted:
        if metrics[m["name"]].get("unit") != m["unit"]:
            return f"unit of {m['name']} differs from BENCHMARK.json"
    return None


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    parser.add_argument("--p99-limit-us", required=True, type=float)
    args = parser.parse_args()

    root = os.getcwd()
    for needed in ("BENCHMARK.json", "src/CMakeLists.txt",
                   "perfbench/CMakeLists.txt"):
        if not os.path.exists(os.path.join(root, needed)):
            fail(f"{needed} not found; run from the repository root")
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        declared = json.load(f)
    if args.workload not in [w["name"] for w in declared["workloads"]]:
        fail(f"unknown workload {args.workload}", 2)

    out_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR",
                                                ".bench_build"))
    binary = build(root, os.path.join(out_dir, "perfbench"))

    workdir = os.path.join(out_dir, "work", f"{args.workload}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--p99-limit-us", str(args.p99_limit_us), "--workdir", workdir,
           "--source-rev", source_revision(root)]
    start = time.time()
    proc = subprocess.Popen(cmd, cwd=root, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        shutil.rmtree(workdir, ignore_errors=True)
        fail(f"run exceeded {RUN_TIMEOUT_S} s", 4)

    shutil.rmtree(workdir, ignore_errors=True)

    lines = stdout.rstrip("\n").split("\n")
    if proc.returncode not in (0, 1) or not lines or not lines[-1]:
        fail(f"benchmark exited with {proc.returncode} and no result", 4)
    problem = check_result(lines[-1], declared, args.trace == "1")
    if problem:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        fail(problem, 4)
    print("\n".join(lines[:-1]))
    print(f"run wall time {time.time() - start:.1f} s")
    print(lines[-1])
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
