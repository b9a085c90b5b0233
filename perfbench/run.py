#!/usr/bin/env python3
"""Benchmark of the XPaxos + quorum-selection stack (see perfbench/README.md).

    python3 perfbench/run.py --workload tcp_serial --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-test

Run from the repository root. Builds the rig from source into
$CARGO_TARGET_DIR (default .bench_build) with CMake, prints a host header,
every metric as "name value unit", and as the last line one JSON object
{correct, attempted, failed, metrics}. Exits 1 when a correctness gate
fails and 2 when the rig cannot be built or run.
"""

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["tcp_serial", "tcp_window", "sim_leader_crash"]
BUILD_TYPE = "RelWithDebInfo"
RUN_TIMEOUT_S = 170


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(os.path.join(ROOT, target), "perfbench")


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build(target):
    """Configures once, then (re)builds `target`; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: no src/ beside perfbench/; run from a repository checkout")
        sys.exit(2)
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE])
    steps.append(["cmake", "--build", out, "--target", target, "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            log("perfbench: build step failed:", " ".join(step))
            sys.exit(2)
    return os.path.join(out, target)


def tree_digest():
    """SHA-256 over the sources the rig is built from."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_revision():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short", "HEAD"],
                              capture_output=True, text=True, env=env, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "none"
    return done.stdout.strip() if done.returncode == 0 else "none"


def host_header():
    model, flags = platform.processor() or "unknown", set()
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                key, _, value = line.partition(":")
                if key.strip() == "model name":
                    model = value.strip()
                elif key.strip() == "flags":
                    flags = set(value.split())
    except OSError:
        pass
    build_type = "unknown"
    try:
        with open(os.path.join(build_dir(), "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_BUILD_TYPE:"):
                    build_type = line.split("=", 1)[1].strip()
    except OSError:
        pass
    return ("# host: nproc=%d cpu=%r sha_ni=%s build=%s git=%s tree=%s"
            % (os.cpu_count() or 0, model, "yes" if "sha_ni" in flags else "no",
               build_type, git_revision(), tree_digest()))


def run_workload(binary, args, workload):
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace == 1:
        cmd += ["--spans", os.path.join(build_dir(), "spans-%s.csv" % workload)]
    try:
        done = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: %s did not finish in %d s" % (workload, RUN_TIMEOUT_S))
        sys.exit(2)
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    if done.returncode not in (0, 1) or not lines:
        log("perfbench: rig exited %d" % done.returncode)
        sys.exit(2)
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        log("perfbench: malformed result line")
        sys.exit(2)
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the rig's parity test")
    args = parser.parse_args()
    if args.self_test:
        sys.exit(subprocess.run([build("perfbench_parity_test")]).returncode)
    if args.workload is None or args.seed < 0 or args.seconds < 1:
        parser.error("--workload, a seed >= 0 and --seconds >= 1 are required")

    binary = build("qsel_perfbench")
    print(host_header(), flush=True)
    names = WORKLOADS if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        print("# workload %s" % name, flush=True)
        results[name] = run_workload(binary, args, name)
        if len(names) > 1:
            print(json.dumps(results[name]), flush=True)
    if len(names) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {"%s.%s" % (name, metric): value
                        for name, r in results.items()
                        for metric, value in r["metrics"].items()},
        }
    print(json.dumps(result), flush=True)
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
