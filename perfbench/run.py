#!/usr/bin/env python3
"""Build the benchmark from source in this checkout, then run it.

    python3 perfbench/run.py --workload figures|gray-wire|explore \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout of the repository. The build is plain
dune with its shared cache off, so it reads and writes only inside the
checkout (_build/). The benchmark process replaces this one and is
pinned to one CPU together with the reference-kernel helper it forks,
so the two alternate on the same core (see timeshare.ml). The last line
of standard output is the result JSON; build output goes to stderr.
"""
import os
import shutil
import subprocess
import sys
import time


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not (os.path.isfile(os.path.join(root, "dune-project"))
            and os.path.isdir(os.path.join(root, "lib"))):
        print("perfbench: the program's sources (dune-project, lib/) are not "
              "next to the benchmark; run it from a checkout of the repository",
              file=sys.stderr)
        return 2
    dune = shutil.which("dune")
    if dune is None:
        print("perfbench: dune is not on PATH", file=sys.stderr)
        return 2
    build = subprocess.run(
        [dune, "build", "--root", root, "--cache=disabled",
         os.path.join("perfbench", "bench.exe")],
        cwd=root, stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    exe = os.path.join(root, "_build", "default", "perfbench", "bench.exe")
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[-1]})
    sys.stdout.flush()
    os.chdir(root)
    t0 = time.monotonic()
    os.execv(exe, [exe] + sys.argv[1:] + ["--t0", repr(t0)])


if __name__ == "__main__":
    sys.exit(main())
