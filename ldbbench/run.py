#!/usr/bin/env python3
"""Build the program and the benchmark harness from source, then run one
workload of the repository benchmark (see ldbbench/README.md).

    python3 ldbbench/run.py --workload serve-read --seed 1 --seconds 15 --trace 0
    python3 ldbbench/run.py --selfcheck

Run it from the root of a checkout. The last line of standard output is
the result object; build output and progress go to standard error.
"""

import json
import os
import shutil
import signal
import subprocess
import sys

HARNESS = "_build/default/ldbbench/harness.exe"
LDB = "_build/default/bin/ldb.exe"


def fail(msg):
    print("ldbbench: " + msg, file=sys.stderr)
    sys.exit(2)


def dune_command():
    if shutil.which("dune"):
        return ["dune"]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    fail("neither dune nor opam is on PATH")


def build():
    for path in ("dune-project", "lib", "bin", "ldbbench/dune"):
        if not os.path.exists(path):
            fail("run from the root of a checkout of the repository (%s is missing)" % path)
    cmd = dune_command() + ["build", "--root", ".", "./bin/ldb.exe", "./ldbbench/harness.exe"]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def one_cpu():
    """Keep the harness, and the daemon it starts, on one CPU: a closed
    loop runs one request at a time, and on a shared virtual machine each
    hand-off to another CPU waits for the host to schedule that CPU."""
    try:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    except OSError:
        pass


def harness(args):
    """Run the harness to completion; a signal to this script stops it too."""
    child = subprocess.Popen(
        [HARNESS, "--ldb", LDB] + args, stdout=subprocess.PIPE, text=True, preexec_fn=one_cpu
    )

    def forward(signum, _frame):
        child.send_signal(signum)

    for s in (signal.SIGINT, signal.SIGTERM, signal.SIGHUP):
        signal.signal(s, forward)
    out, _ = child.communicate()
    return child.returncode, out


def result_of(out):
    lines = out.strip().splitlines()
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except ValueError:
        return None


def selfcheck():
    """Every workload for about a second, traced and untraced: every metric
    BENCHMARK.json names must be printed, with its unit, and no
    operation may fail."""
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    code, out = harness(["--check-reference"])
    problems = [] if code == 0 else ["the approximation reference disagrees with the Direct backend"]
    for w in spec["workloads"]:
        for trace, names in (("0", spec["end_to_end"]), ("1", spec["per_layer"])):
            args = ["--workload", w["name"], "--seed", "7", "--seconds", "1", "--trace", trace]
            code, out = harness(args)
            r = result_of(out)
            where = "%s --trace %s" % (w["name"], trace)
            if code != 0 or r is None:
                problems.append("%s: no result (exit %d)" % (where, code))
                continue
            if not r["correct"] or r["failed"] != 0 or r["attempted"] < 1:
                problems.append("%s: %d of %d operations failed" % (where, r["failed"], r["attempted"]))
            for m in names:
                got = r["metrics"].get(m["name"])
                if got is None or got.get("unit") != m["unit"]:
                    problems.append("%s: metric %s missing or not in %s" % (where, m["name"], m["unit"]))
            print("%s: %d operations, %d metrics" % (where, r["attempted"], len(r["metrics"])))
    for p in problems:
        print("FAIL " + p)
    print("selfcheck: " + ("ok" if not problems else "%d problems" % len(problems)))
    return 0 if not problems else 1


def main():
    args = sys.argv[1:]
    build()
    if args == ["--selfcheck"]:
        sys.exit(selfcheck())
    code, out = harness(args)
    sys.stdout.write(out)
    if code != 0 or result_of(out) is None:
        sys.exit(code or 1)


if __name__ == "__main__":
    main()
