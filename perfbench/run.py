#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout of the repository.  The benchmark is the
OCaml executable perfbench/bench.exe; this script builds it with dune
(the first build compiles the libraries it links, later builds are
no-ops), runs it, checks that the last line of its output is the result
object, and passes its output through.  Exit status is 0 only when a
result was printed.  See perfbench/README.md.
"""

import json
import os
import shutil
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175
EXE = os.path.join("_build", "default", "perfbench", "bench.exe")


def fail(msg, code=1):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile("dune-project") or not os.path.isdir("lib"):
        fail("no dune-project and lib/ here: run from the root of a checkout "
             "of the repository, which this benchmark builds from source", 2)
    dune = shutil.which("dune")
    if dune is None and os.environ.get("OPAM_SWITCH_PREFIX"):
        dune = shutil.which("dune", path=os.path.join(os.environ["OPAM_SWITCH_PREFIX"], "bin"))
    if dune is None:
        fail("dune not found on PATH or in the opam switch", 2)
    # keep every build artefact inside the checkout
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        r = subprocess.run(
            [dune, "build", "--root", ".", "./perfbench/bench.exe"],
            stdout=sys.stderr, stderr=sys.stderr, env=env,
            timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if r.returncode != 0:
        fail("build failed (dune exit %d)" % r.returncode)


def main(argv):
    build()
    try:
        r = subprocess.run([EXE] + argv, stdout=subprocess.PIPE,
                           stderr=sys.stderr, timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail("benchmark timed out after %d s" % RUN_TIMEOUT_S)
    if r.returncode != 0:
        fail("benchmark exited %d" % r.returncode, r.returncode)
    lines = r.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (IndexError, ValueError, AssertionError):
        fail("benchmark printed no result line")
    sys.stdout.write(r.stdout)


if __name__ == "__main__":
    main(sys.argv[1:])
