#!/usr/bin/env python3
"""Build and run the EdgePCC benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1> [--tiny] [--corrupt]

Run from the root of a source tree. Builds the library and the
perfbench binary from source into .bench_build/perfbench (CMake,
RelWithDebInfo), then runs the binary from the tree root. Its
standard output is passed through; the last line is the result JSON.
The full result and the span log of a traced run go to .bench_out/.

Exits 2 without printing a result when the tree holds no library
sources to build.
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD_DIR, "perfbench")

# What the benchmark's build compiles: its digest names the code a
# result was measured on when the tree is not a git checkout.
SOURCE_PATHS = ["CMakeLists.txt", "cmake", "include", "src", "perfbench"]


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def source_digest():
    digest = hashlib.sha256()
    for top in SOURCE_PATHS:
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f)
            for d, _, names in os.walk(path)
            for f in names if not f.endswith(".pyc"))
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()[:16]


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def build():
    """Builds the binary, configuring first when the tree has not been
    configured or an incremental build fails. Build output goes to
    stderr so stdout stays the benchmark's."""
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    compile_ = ["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                "-j", jobs]

    def step(command):
        return subprocess.run(command, stdout=sys.stderr,
                              stderr=sys.stderr).returncode == 0

    if os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")) and \
            step(compile_):
        return
    if not (step(configure) and step(compile_)):
        fail("build failed")


def main():
    for required in ("CMakeLists.txt", "src", "include"):
        if not os.path.exists(os.path.join(ROOT, required)):
            fail(f"no {required} next to perfbench/: nothing to build")
    build()
    command = [BINARY, *sys.argv[1:], "--out-dir", OUT_DIR,
               "--commit", git_commit(), "--source-digest", source_digest()]
    sys.stdout.flush()
    sys.exit(subprocess.run(command, cwd=ROOT).returncode)


if __name__ == "__main__":
    main()
