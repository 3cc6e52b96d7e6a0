#!/usr/bin/env python3
"""Run one workload of the CXL0 checker benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Builds perfbench/ (the checker library from src/ plus the cxl0bench
program, Release) into .bench_build/, runs any oracle the workload needs
in its own process, then runs the workload in a fresh process. The last
line of standard output is the result JSON; the line before it records
host, build, seed, sample counts and host calibration. Everything the run
writes stays under .bench_build/ and .bench_out/ in the checkout.
"""

import argparse
import fcntl
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench-release")
OUT = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD, "cxl0bench")
WORKLOADS = ("explore_crash_heavy", "refine_deep", "scenario_stream",
             "durable_campaign")
# Oracle plus workload must end within this many seconds of the build.
RUN_TIMEOUT_S = 170


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def run_quiet(cmd, timeout):
    """Run a build step, sending its output to stderr."""
    proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                          stderr=sys.stderr, timeout=timeout)
    return proc.returncode == 0


def build():
    os.makedirs(BUILD, exist_ok=True)
    # One build at a time per checkout.
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            cmd = ["cmake", "-S", HERE, "-B", BUILD,
                   "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if not run_quiet(cmd, 600):
                shutil.rmtree(BUILD, ignore_errors=True)
                return False
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        return run_quiet(["cmake", "--build", BUILD, "-j", jobs], 850)


def source_id():
    """The git commit when the checkout is a repository's top level,
    else a digest of the sources the benchmark builds."""
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse",
                              "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and len(lines) == 2 and \
                os.path.realpath(lines[0]) == os.path.realpath(ROOT):
            return lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for base in ("src", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, base))):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "src-sha256:" + h.hexdigest()[:16]


def run_child(cmd, deadline):
    """Run cxl0bench; stdout is returned, stderr passes through. The
    child is killed and reaped if it is still running at `deadline`."""
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        log("timed out: " + " ".join(cmd))
        return None
    if proc.returncode != 0:
        log("exit %d: %s" % (proc.returncode, " ".join(cmd)))
        return None
    return proc.stdout


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="recompute the stored known answers")
    args = ap.parse_args()
    if not args.self_test and args.workload is None:
        ap.error("--workload is required")
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    if not build():
        log("build failed")
        return 1
    if args.self_test:
        proc = subprocess.run([BINARY, "--oracle", "self-test",
                               "--root", ROOT], cwd=ROOT)
        return proc.returncode

    os.makedirs(OUT, exist_ok=True)
    deadline = time.monotonic() + RUN_TIMEOUT_S
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(float(args.seconds)), "--trace",
           str(args.trace), "--root", ROOT, "--out-dir", OUT,
           "--commit", source_id()]
    if args.workload == "scenario_stream":
        refs = os.path.join(OUT, "stream-refs-seed%d.txt" % args.seed)
        if run_child([BINARY, "--oracle", "stream", "--seed",
                      str(args.seed), "--refs", refs], deadline) is None:
            return 1
        cmd += ["--refs", refs]

    out = run_child(cmd, deadline)
    if out is None:
        return 1
    lines = out.strip().splitlines()
    if not lines:
        log("no result line")
        return 1
    result = json.loads(lines[-1])
    want = declared_metrics(args.trace == 1)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        log("metrics differ from BENCHMARK.json: %r" %
            sorted(set(got.items()) ^ set(want.items())))
        return 1
    record = os.path.join(OUT, "%s-seed%d-trace%d.json" %
                          (args.workload, args.seed, args.trace))
    with open(record, "w") as f:
        f.write(out)
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
