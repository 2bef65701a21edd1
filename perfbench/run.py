#!/usr/bin/env python3
"""Build and run the CLUSEQ benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Builds perfbench/bin/main.exe
from source with dune (build tree in .bench_build/), then runs it in
.perfbench-work/ and passes its output through: a metrics table and, as
the last line, one JSON result. Build output goes to stderr. Exits with
the benchmark's code: 0 when every output check passed, non-zero on a
failed check, a build error or a usage error.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = ".bench_build"
WORK_DIR = ".perfbench-work"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "bin", "main.exe")
WORKLOADS = ("synth-batch", "protein-observed")
RUN_TIMEOUT_S = 175


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args()
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def source_revision():
    """The git commit when there is one, else a digest of the sources."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        )
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha1()
    for top in ("lib", "bin", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "src-" + h.hexdigest()[:12]


def dune():
    if shutil.which("dune"):
        return ["dune"]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    sys.exit("run.py: dune not found on PATH")


def build():
    cmd = dune() + ["build", "--root", ".", "--build-dir", BUILD_DIR,
                    "--profile", "release", "./perfbench/bin/main.exe"]
    res = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    if res.returncode != 0:
        sys.exit("run.py: build failed (exit %d)" % res.returncode)


def main():
    args = parse_args()
    build()
    work = os.path.join(ROOT, WORK_DIR)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    cmd = [os.path.join(ROOT, EXE),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--rev", source_revision(), "--workdir", work]
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.exit("run.py: benchmark exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(code)


if __name__ == "__main__":
    main()
