#!/usr/bin/env python3
"""Build and run the repository benchmark from the root of a checkout.

    python3 perfbench/run.py --workload serve_43 --seed 1 --seconds 10 --trace 0

Builds perfbench/perfbench.exe from source with dune (release profile,
build directory .bench_build, shared cache off), runs one workload, and
prints the benchmark's human-readable lines followed by the result
object as the last line.  With --trace 0 the result carries the
end-to-end metrics, including peak_rss_mb, the peak resident set of the
benchmark process (one workload per process).  With --trace 1 it
carries the per-layer metrics of the traced pass.

Details (a record with the environment, the per-request samples and,
for traced runs, the spans) are written to .bench_build/perfbench-out.
Exit status: 0 on a correct run, 1 on wrong results or failed
requests, 2 on bad usage or a tree without the sources, 3 when a
workload stops exercising what it claims.
"""

import argparse
import json
import os
import subprocess
import sys
import threading

BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "perfbench.exe")
OUT_DIR = os.path.join(BUILD_DIR, "perfbench-out")
WORKLOADS = ("serve_43", "adhoc_joins", "skew_large")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
DEFAULT_L3_BYTES = 32 * 1024 * 1024


def die(code, msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def l3_bytes():
    """Last-level cache size; the default when the system does not say."""
    path = "/sys/devices/system/cpu/cpu0/cache/index3/size"
    try:
        with open(path) as f:
            text = f.read().strip()
    except OSError:
        return DEFAULT_L3_BYTES
    scale = {"K": 1024, "M": 1024 * 1024, "G": 1024 ** 3}
    if text and text[-1] in scale and text[:-1].isdigit():
        return int(text[:-1]) * scale[text[-1]]
    return int(text) if text.isdigit() else DEFAULT_L3_BYTES


def git_sha():
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
           "--profile", "release", "./perfbench/perfbench.exe"]
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
    except FileNotFoundError:
        die(2, "dune not found on PATH")
    except subprocess.TimeoutExpired:
        die(2, "build timed out")
    if done.returncode != 0:
        die(2, "build failed")


def run(args):
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--l3-bytes", str(l3_bytes()), "--git-sha", git_sha(),
           "--out", OUT_DIR]
    if args.corrupt_reference:
        cmd.append("--corrupt-reference")
    os.makedirs(OUT_DIR, exist_ok=True)
    # One malloc arena: glibc's default gives every thread its own arena,
    # and the memory the executor threads free then stays resident in
    # theirs, so peak RSS measured the allocator (on a 2-vCPU VM, about
    # twice the heap on skew_large and 20% apart from run to run) instead
    # of the program.
    env = dict(os.environ, MALLOC_ARENA_MAX="1")
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env)
    timer = threading.Timer(RUN_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
        # wait4 reaps this one child and returns its own resource usage:
        # ru_maxrss is the benchmark process's peak resident set, in KiB.
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
        proc.stdout.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out, usage.ru_maxrss / 1024.0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    p.add_argument("--corrupt-reference", action="store_true",
                   help="corrupt one reference digest (self-test of the check)")
    args = p.parse_args()
    if args.seconds < 1 or args.seed < 0:
        die(2, "--seconds must be at least 1 and --seed non-negative")
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        die(2, "run from the root of a checkout: dune-project or lib/ is missing")
    build()
    code, out, peak_rss_mb = run(args)
    lines = out.splitlines()
    for line in lines[:-1]:
        print(line)
    if code != 0 or not lines:
        if lines:
            print(lines[-1])
        sys.exit(code if code != 0 else 1)
    result = json.loads(lines[-1])
    if args.trace == 0:
        result["metrics"]["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MB"}
    print(json.dumps(result))


if __name__ == "__main__":
    main()
