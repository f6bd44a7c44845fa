#!/usr/bin/env python3
"""Build and run the audit-system benchmark.

    python3 perfbench/run.py --workload session_ph|fleet_audit|stream \
        --seed N --seconds S --trace 0|1

Run from the root of a source tree.  Builds perfbench/perfbench.exe with
dune (build output stays in the tree's _build/), runs it, and passes its
standard output through: the last line is the JSON result.  Build logs
and errors go to standard error; any failure exits non-zero without a
result line.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("session_ph", "fleet_audit", "stream")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def run(cmd, timeout, env=None, stdout=None):
    """Run cmd to completion; on timeout kill it and wait for it."""
    proc = subprocess.Popen(cmd, env=env, stdout=stdout)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("%s did not finish within %d s" % (cmd[0], timeout))


def source_revision():
    """The git commit of the tree, or "unknown" outside a git checkout.
    The ceiling keeps git from looking above the tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(os.getcwd()))
    try:
        out = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                             env=env, capture_output=True, text=True,
                             timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else "unknown"


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    a = p.parse_args()
    if a.seed < 0 or not 1 <= a.seconds <= 60:
        fail("--seed must be >= 0 and --seconds in 1..60")
    for need in ("dune-project", os.path.join("lib", "core", "dune"),
                 os.path.join("perfbench", "dune")):
        if not os.path.exists(need):
            fail("run from the root of the source tree (%s is missing)" % need)

    # The dune cache lives outside the tree; keep every build artifact
    # inside it.
    env = dict(os.environ, DUNE_CACHE="disabled")
    code = run(["dune", "build", "--root", ".", "--display", "quiet",
                "./perfbench/perfbench.exe"], BUILD_TIMEOUT_S, env=env,
               stdout=sys.stderr)
    if code != 0:
        fail("build failed (dune exit %d)" % code)

    sys.stdout.flush()
    code = run([EXE, "--workload", a.workload, "--seed", str(a.seed),
                "--seconds", str(a.seconds), "--trace", str(a.trace),
                "--commit", source_revision()], RUN_TIMEOUT_S)
    if code != 0:
        fail("benchmark exited with code %d" % code)


if __name__ == "__main__":
    main()
