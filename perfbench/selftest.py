#!/usr/bin/env python3
"""Self-tests of the benchmark, at the tiny size (about a minute):

  * every workload, untraced and traced, prints exactly the metric names
    BENCHMARK.json lists, with the units it lists;
  * one seed gives one input digest, and another seed another;
  * a verdict mismatch, injected into the reference verdicts, makes the run
    exit nonzero with "correct": false.

Run from the root of a checkout: python3 perfbench/selftest.py
"""
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, seed, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", "3", "--trace",
           str(trace), "--tiny", *extra]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    m = re.search(r"input digest ([0-9a-f]{16})", p.stderr)
    return p.returncode, result, m.group(1) if m else None, p.stderr


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    failures = []

    def check(ok, what):
        print(("ok    " if ok else "FAIL  ") + what)
        if not ok:
            failures.append(what)

    for w in bench["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            rc, res, _, err = run(w["name"], 1, trace)
            want = {m["name"]: m["unit"] for m in bench[key]}
            got = ({k: v["unit"] for k, v in res["metrics"].items()}
                   if res else {})
            check(rc == 0 and res is not None and res["correct"],
                  "%s trace %d runs correctly" % (w["name"], trace))
            if rc != 0:
                print(err[-2000:])
            check(got == want,
                  "%s trace %d prints the %s names and units of "
                  "BENCHMARK.json (missing %s, extra %s)" %
                  (w["name"], trace, key, sorted(set(want) - set(got)),
                   sorted(set(got) - set(want))))

    _, _, d1, _ = run("small_frames", 7, 0)
    _, _, d2, _ = run("small_frames", 7, 0)
    _, _, d3, _ = run("small_frames", 8, 0)
    check(d1 is not None and d1 == d2, "same seed, same input digest")
    check(d3 is not None and d3 != d1, "other seed, other input digest")

    rc, res, _, _ = run("corpus_mix", 1, 0, "--inject-mismatch")
    check(rc != 0 and res is not None and not res["correct"],
          "an injected verdict mismatch fails the run")

    print("%d failure(s)" % len(failures))
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
