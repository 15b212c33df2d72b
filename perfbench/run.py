#!/usr/bin/env python3
"""Build and run the hac benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload compile_corpus --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --test     # the corpus generator's own test

The first call configures and builds the library and hac_perfbench from
source under .bench_build/ (a Release build); later calls rebuild
incrementally. hac_perfbench's last line of standard output is the result
object. Every file the run writes stays under .bench_build/.
"""

import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "perfbench")
RUN_TIMEOUT_S = 170

# Environment knobs of the library; hac_perfbench clears them as well and
# records what it found.
HAC_KNOBS = ("HAC_THREADS", "HAC_JIT", "HAC_JIT_CACHE", "HAC_JIT_CACHE_MB",
             "HAC_JIT_CC", "HAC_DEP_BUDGET", "HAC_PLAN_CACHE", "HAC_TRACE",
             "HAC_PROFILE", "HAC_TIMELINE")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no hac source tree next to perfbench/ (expected src/CMakeLists.txt)")
    os.makedirs(BUILD_ROOT, exist_ok=True)
    log_path = os.path.join(BUILD_ROOT, "perfbench-build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", target, "-j", jobs])
    with open(log_path, "a") as log:
        for cmd in steps:
            log.write("$ " + " ".join(cmd) + "\n")
            log.flush()
            rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                cwd=ROOT).returncode
            if rc != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                fail("build failed: " + " ".join(cmd))
    return os.path.join(BUILD, target)


def git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "none"


def source_digest():
    """sha256 over the library and benchmark sources, for checkouts that
    are not git repositories."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload",
                    choices=("compile_corpus", "stencil_eval", "native_sweep"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--test", action="store_true",
                    help="build and run the corpus generator test")
    args = ap.parse_args()
    if args.test:
        exe = build("perfbench_corpus_test")
        sys.exit(subprocess.run([exe], cwd=ROOT).returncode)
    if not args.workload:
        ap.error("--workload is required")
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    exe = build("hac_perfbench")
    work = os.path.join(BUILD_ROOT, "perfbench-work", str(os.getpid()))
    out_dir = os.path.join(BUILD_ROOT, "perfbench-out")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    env = {k: v for k, v in os.environ.items() if k not in HAC_KNOBS}
    # cc and the kernel loader stage their files under TMPDIR.
    env["TMPDIR"] = work
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work, "--out-dir", out_dir,
           "--git-sha", git_sha(), "--source-digest", source_digest()]
    # A process group of its own, so a timeout also stops hac_perfbench's
    # children (the reference interpreter processes, cc).
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, start_new_session=True)
    try:
        rc = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        rc = 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    sys.exit(rc if rc == 0 else 1)


if __name__ == "__main__":
    main()
