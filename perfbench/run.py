#!/usr/bin/env python3
"""Build and run the wall-clock benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the library from src/ plus the
benchmark into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench),
runs the benchmark's self-test, then one workload. The last line of standard
output is the result object; build logs go to standard error. Exits non-zero,
printing no result, when the sources are missing or anything fails.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
WORKLOADS = ("serve_open", "serve_offline", "attack_pgd", "fl_round")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    return target / "perfbench"


def run_logged(cmd, timeout):
    """Run a build step with its output on stderr; fail on error or timeout."""
    try:
        subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr, timeout=timeout,
                       check=True)
    except subprocess.TimeoutExpired:
        fail(f"timed out: {' '.join(cmd)}")
    except (subprocess.CalledProcessError, OSError) as exc:
        fail(f"failed: {' '.join(cmd)} ({exc})")


def build(out):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("no library sources under src/: run from the repository root")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (out / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_logged(cmd, BUILD_TIMEOUT_S)
    run_logged(["cmake", "--build", str(out), "-j", jobs, "--target", "perfbench",
                "perfbench_selftest"], BUILD_TIMEOUT_S)
    run_logged([str(out / "perfbench_selftest")], 60)


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
        if head.returncode == 0 and head.stdout.strip():
            return head.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return "sources-" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    out = build_dir()
    build(out)
    records = ROOT / ".perfbench_out"
    records.mkdir(exist_ok=True)
    cmd = [str(out / "perfbench"), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--commit", source_id(), "--out", str(records)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"{args.workload} exited with code {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("the last line of the benchmark's output is not a JSON object")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("the result object does not have the expected keys")
    print("\n".join(lines))


if __name__ == "__main__":
    main()
