#!/usr/bin/env python3
"""Builds and runs the H-ORAM end-to-end benchmark.

Run from the root of a checkout:

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 e2ebench/run.py --selftest

The first call configures and builds e2ebench/ (its own CMake package,
compiling the library sources under src/) into $CARGO_TARGET_DIR or
.bench_build/, then every call runs the benchmark binary with the given
arguments. Build output goes to stderr, so the last line of stdout is the
binary's result line. Traced runs write their Chrome trace under
.bench_out/. Exits non-zero, without a result line, when the library
sources are missing or the build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "e2ebench")


def build():
    """Configures (once) and builds; returns the binary path or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "horam.h")):
        print("e2ebench: no library sources (src/horam.h) in " + ROOT,
              file=sys.stderr)
        return None
    out = build_dir()
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", "4"])
    for step in steps:
        # The build's own chatter must not reach stdout.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                          check=False).returncode != 0:
            print("e2ebench: build step failed: " + " ".join(step),
                  file=sys.stderr)
            return None
    binary = os.path.join(out, "horam_e2e")
    return binary if os.path.isfile(binary) else None


def main():
    binary = build()
    if binary is None:
        return 2
    sys.stdout.flush()
    return subprocess.run([binary] + sys.argv[1:], cwd=ROOT,
                          check=False).returncode


if __name__ == "__main__":
    sys.exit(main())
