#!/usr/bin/env python3
"""Build and run the OFTT benchmark for one workload and seed.

Run from the repository root:

    python3 perfbench/run.py --workload swim_fleet --seed 1 --seconds 20 --trace 0

The first run configures and builds perfbench/ (the OFTT libraries plus
the benchmark program, an optimized build) into $CARGO_TARGET_DIR or .bench_build;
later runs only check the build is current. The program's standard output
is passed through: a stamp line, the scorecard, and as the last line one
JSON result. With --trace 1 the Chrome trace-event file is written to
<build>/traces/<workload>_seed<seed>.json. Exits non-zero, without a
result line, when the sources are missing, the build fails, an invariant
breaks or the run overruns its time limit.
"""
import argparse
import fcntl
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("swim_fleet", "swim_fleet_pdes", "opc_plant", "failover_pair")
RUN_LIMIT_S = 170
BUILD_LIMIT_S = 880


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def git_commit(root):
    """The commit of `root` when it is itself a git work tree, else 'unknown'."""
    if shutil.which("git") is None:
        return "unknown"
    try:
        top = subprocess.run(["git", "-C", str(root), "rev-parse", "--show-toplevel"],
                             capture_output=True, text=True, timeout=10)
        if top.returncode != 0 or Path(top.stdout.strip()).resolve() != root.resolve():
            return "unknown"
        head = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
        return head.stdout.strip() if head.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def build(root, build_dir):
    build_dir.mkdir(parents=True, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(build_dir / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # concurrent runs share one build
        steps = []
        if not (build_dir / "CMakeCache.txt").exists():
            steps.append(["cmake", "-S", str(root / "perfbench"), "-B", str(build_dir),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(build_dir), "--target", "oftt_perfbench",
                      "-j", jobs])
        for cmd in steps:
            try:
                proc = subprocess.run(cmd, capture_output=True, text=True,
                                      timeout=BUILD_LIMIT_S)
            except subprocess.TimeoutExpired:
                fail("build timed out", 4)
            if proc.returncode != 0:
                sys.stderr.write(proc.stdout[-4000:] + proc.stderr[-4000:])
                fail("build failed: " + " ".join(cmd), 4)
    return build_dir / "oftt_perfbench"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--short", action="store_true",
                    help="scaled-down inputs (tests); numbers are not comparable")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 0:
        fail("--seed and --seconds must be non-negative")

    root = Path.cwd()
    for need in ("src/CMakeLists.txt", "perfbench/CMakeLists.txt"):
        if not (root / need).is_file():
            fail(f"{need} not found: run from the root of an OFTT checkout")
    build_dir = root / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"
    t0 = time.monotonic()
    binary = build(root, build_dir)
    build_s = time.monotonic() - t0

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.short:
        cmd.append("--short")
    if args.trace == 1:
        traces = build_dir / "traces"
        traces.mkdir(exist_ok=True)
        cmd += ["--trace-out", str(traces / f"{args.workload}_seed{args.seed}.json")]

    print(f"# stamp seed={args.seed} nproc={os.cpu_count()} build=Release "
          f"commit={git_commit(root)} build_check_s={build_s:.1f}", flush=True)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired as e:
        sys.stdout.write(e.stdout or "")
        fail(f"run exceeded {RUN_LIMIT_S} s", 5)
    out = proc.stdout
    sys.stdout.write(out)
    sys.stdout.flush()
    if proc.returncode != 0:
        fail(f"oftt_perfbench exited with {proc.returncode}", proc.returncode)
    if not out.strip().splitlines()[-1].startswith('{"correct": true'):
        fail("oftt_perfbench printed no result line", 6)


if __name__ == "__main__":
    main()
