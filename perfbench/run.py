#!/usr/bin/env python3
"""Build and run perfbench, the two-clock benchmark of futharkcc.

Run from the repository root:

    python3 perfbench/run.py --workload <suite-sim|compile-corpus|serve-mix> \
        --seed <n> --seconds <s> --trace <0|1>

The benchmark is built (Release) from ../src into $CARGO_TARGET_DIR/perfbench,
or .bench_build/perfbench when the variable is unset; build output goes to
stderr.  The last line of stdout is the JSON result.  Traced runs write their
spans, and serve-mix its artifact directory, under <build root>/perfbench-out.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def step(cmd):
    """Runs one build command with its output on stderr."""
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        print("run.py: failed: " + " ".join(cmd), file=sys.stderr)
        return False
    return True


def main():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build = os.path.join(root, "perfbench")
    jobs = str(min(4, os.cpu_count() or 1))
    configured = os.path.exists(os.path.join(build, "CMakeCache.txt"))
    if not configured and not step(["cmake", "-S", HERE, "-B", build,
                                    "-DCMAKE_BUILD_TYPE=Release"]):
        return 1
    if not step(["cmake", "--build", build, "--target", "perfbench",
                 "-j", jobs]):
        return 1
    exe = os.path.join(build, "perfbench")
    out = os.path.join(root, "perfbench-out")
    return subprocess.run([exe, *sys.argv[1:], "--out", out]).returncode


if __name__ == "__main__":
    sys.exit(main())
