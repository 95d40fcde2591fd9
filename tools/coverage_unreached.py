#!/usr/bin/env python3
"""List the src/ functions that tier-1 and the quickstart example never run.

    python3 tools/coverage_unreached.py [--jobs N]

Run from the repository root. Configures and builds the `coverage` preset
(Debug, --coverage, build-coverage/), clears old counters, runs the whole
CTest suite (tier-1) and examples/quickstart, then reads every object's
counters with `gcov --json-format` and writes each src/ function with zero
hits, demangled, to build-coverage/coverage-unreached.txt, one
`<file>:<line> <function>` per line, sorted. A function compiled into
several objects (a header inline, a template) counts as reached when any
object ran it. Report-only: a failing test is printed but changes neither
the list nor the exit status.
"""
import argparse
import concurrent.futures
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / "build-coverage"
SRC = ROOT / "src"
OUT = BUILD / "coverage-unreached.txt"


def run(cmd, check=True):
    print("+ " + " ".join(cmd), file=sys.stderr, flush=True)
    return subprocess.run(cmd, cwd=ROOT, check=check).returncode


def gcov_functions(gcno):
    """(file, line, demangled name, count) for every function of one object."""
    proc = subprocess.run(["gcov", "--json-format", "--stdout", str(gcno)], cwd=BUILD,
                          capture_output=True, text=True, check=False)
    found = []
    for f in json.loads(proc.stdout or "{}").get("files", []):
        path = Path(os.path.realpath(ROOT / f["file"]))
        if SRC not in path.parents:
            continue
        for fn in f.get("functions", []):
            found.append((str(path.relative_to(ROOT)), fn["start_line"],
                          fn.get("demangled_name", fn["name"]), fn["execution_count"]))
    return found


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", type=int, default=2, help="build, test and gcov parallelism")
    jobs = max(1, parser.parse_args().jobs)

    run(["cmake", "--preset", "coverage"])
    run(["cmake", "--build", "--preset", "coverage", "-j", str(jobs)])
    for gcda in BUILD.rglob("*.gcda"):
        gcda.unlink()
    tests_rc = run(["ctest", "--preset", "coverage", "-j", str(jobs)], check=False)
    quickstart_rc = run([str(BUILD / "examples" / "quickstart")], check=False)

    hits = {}
    with concurrent.futures.ThreadPoolExecutor(max_workers=jobs) as pool:
        for found in pool.map(gcov_functions, sorted(BUILD.rglob("*.gcno"))):
            for path, line, name, count in found:
                key = (path, line, name)
                hits[key] = hits.get(key, 0) + count
    unreached = sorted(k for k, count in hits.items() if count == 0)
    OUT.write_text("".join(f"{path}:{line} {name}\n" for path, line, name in unreached))
    print(f"{len(unreached)} of {len(hits)} src/ functions unreached -> "
          f"{OUT.relative_to(ROOT)} (ctest exit {tests_rc}, quickstart exit {quickstart_rc})")


if __name__ == "__main__":
    main()
