#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run configures and builds
perfbench/CMakeLists.txt (the jsrev libraries, jsr_serve and the driver)
under .bench_build/; later runs rebuild incrementally. The driver's result
object is the last line of stdout; progress goes to stderr. Exit status is
nonzero when the build fails, the run fails, or any daemon verdict differs
from the library's.

--tiny and --inject-mismatch are for perfbench/selftest.py only.
"""
import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
# Every run exits within 180 s; the driver gets what the build left of it.
RUN_DEADLINE_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "-j", "4"],
                   stdout=sys.stderr, check=True)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=["0", "1"], required=True)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--inject-mismatch", action="store_true")
    args = ap.parse_args()

    for needed in ("src/CMakeLists.txt", "tools/jsr_serve.cpp"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            fail("no %s: run from the root of a full checkout" % needed)
    with open(os.path.join(HERE, "plan.json")) as f:
        plan = json.load(f)["workloads"]
    if args.workload not in plan:
        fail("unknown workload %r (have: %s)" %
             (args.workload, ", ".join(sorted(plan))))
    wl = plan[args.workload]

    try:
        build()
    except (subprocess.CalledProcessError, OSError) as e:
        fail("build failed: %s" % e)
    started = time.monotonic()

    # The daemon's Unix socket lives in the run directory, addressed
    # relative to it: absolute checkout paths can exceed sun_path.
    workdir = os.path.join(BUILD, "run-%d" % os.getpid())
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    cmd = [os.path.join(BUILD, "jsr_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--serve", os.path.join(BUILD, "jsr_serve"), "--workdir", ".",
           "--low-rps", str(wl["low_rps"]), "--high-rps", str(wl["high_rps"]),
           "--window", str(wl["window"]),
           "--layer-scripts", str(wl["layer_scripts"])]
    if args.tiny:
        cmd.append("--tiny")
    if args.inject_mismatch:
        cmd.append("--inject-mismatch")
    # Own session, so a timeout can stop the driver and the daemons it spawned.
    proc = subprocess.Popen(cmd, cwd=workdir, stdout=subprocess.PIPE,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_DEADLINE_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        shutil.rmtree(workdir, ignore_errors=True)
        fail("run exceeded %d s" % RUN_DEADLINE_S)
    shutil.rmtree(workdir, ignore_errors=True)
    sys.stdout.write(out.decode())
    sys.stdout.flush()
    print("perfbench: run took %.1f s" % (time.monotonic() - started),
          file=sys.stderr)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
