#!/usr/bin/env python3
"""Build the satom benchmark from source and run one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

The benchmark (perfbench/CMakeLists.txt) is configured as a Release
build in .bench_build/ and rebuilt when its sources change; build output
goes to standard error so that the benchmark's result line stays the
last line of standard output.  Every argument is passed through to the
satom_perf executable (see perfbench/README.md).  Exit status is the
executable's; a failed build exits 2 without printing a result.
"""

import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "cmake")


def source_digest():
    """SHA-256 over the library and benchmark sources, path by path."""
    h = hashlib.sha256()
    for top in ("src", os.path.basename(HERE)):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "none"


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("run.py: no satom sources (src/) in " + ROOT, file=sys.stderr)
        return None
    configure = ["cmake", "-S", HERE, "-B", BUILD,
                 "-DCMAKE_BUILD_TYPE=Release",
                 "-DPERF_COMMIT=" + commit(),
                 "-DPERF_SOURCE_DIGEST=" + source_digest()]
    if shutil.which("ninja") and not os.path.isfile(
            os.path.join(BUILD, "Makefile")):
        configure += ["-G", "Ninja"]
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (configure, ["cmake", "--build", BUILD, "-j", jobs]):
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            print("run.py: build step failed: " + " ".join(cmd),
                  file=sys.stderr)
            return None
    return os.path.join(BUILD, "satom_perf")


def main():
    exe = build()
    if exe is None:
        return 2
    env = {k: v for k, v in os.environ.items() if not k.startswith("SATOM_")}
    sys.stdout.flush()
    done = subprocess.run([exe, "--root", "."] + sys.argv[1:], cwd=ROOT,
                          env=env)
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
