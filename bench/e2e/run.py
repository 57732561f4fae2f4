#!/usr/bin/env python3
"""Builds bench_e2e from source and runs one workload of it.

    python3 bench/e2e/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run configures and builds an
optimized tree in $CARGO_TARGET_DIR (default: .bench_build under the
repository root); later runs only rebuild what changed. Build output goes to
stderr. The arguments are passed to bench_e2e unchanged; its last line of
standard output is the JSON result. Exits non-zero, without a result, when
the library sources are missing or the build fails.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("run.py: library sources not found under " + ROOT, file=sys.stderr)
        return False
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    compile_cmd = ["cmake", "--build", build_dir, "--target", "bench_e2e", "-j", jobs]
    return subprocess.run(compile_cmd, stdout=sys.stderr).returncode == 0


def main():
    build_dir = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    if not build(build_dir):
        return 1
    return subprocess.run([os.path.join(build_dir, "bench_e2e")] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
