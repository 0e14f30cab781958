"""Golden cases of the endlab command line, and the one checker of them.

The table cases.json holds one row per case.  A row runs endlab with its
"argv" in a fresh directory that holds a copy of each spec file the argv
names: every argument ending in .json is one, read from specs/.  Its checks:

- "exit": the exit code; or "bench": a step of the "full" record of
  bench/expected.json, such as "catalog.verify", whose exit code and sha256
  of stdout are taken from there, so that each benchmark pin has one copy;
- "stdout_sha256": the sha256 of stdout;
- "fields": the values at dotted paths into the JSON on stdout, where an
  integer part indexes a list;
- "writes": the sha256 of each file the command writes;
- "dot_arrows": a DOT file the command writes, which must hold one arrow
  per geometric edge of stdout's tree, one fewer than its vertices;
- "shortlex": a letter order, in whose shortlex order the vertices of the
  cut on stdout must be listed.

Every row must also write nothing on stderr, and on stdout one JSON
document as endlab writes it: indented by 2, then a newline.  "why" says
what the case is there for.

tests/test_golden.py runs every row through endlab.cli.main in process.
Run as a script, this module runs every row through the installed endlab
console script instead, with TIMEOUT seconds for each, and exits 1 if any
row fails:

    python3 tests/golden/check.py
"""

import hashlib
import json
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPECS = HERE / "specs"
BENCH_EXPECTED = HERE.parents[1] / "bench" / "expected.json"
CASES = json.loads((HERE / "cases.json").read_text())
CHECKS = {"exit", "bench", "stdout_sha256", "fields", "writes", "dot_arrows", "shortlex"}
# the two refusals F2 at R = 12 and C6 past the cap must come at once, not
# after a walk; every other row takes under a second
TIMEOUT = 20
MISSING = object()


def inputs(case):
    """The spec files the row's argv names."""
    return [arg for arg in case["argv"] if arg.endswith(".json")]


def stage(case, directory):
    """Copy the row's spec files into directory."""
    for name in inputs(case):
        shutil.copyfile(SPECS / name, Path(directory) / name)


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def field(data, path):
    """The value at a dotted path into data, or MISSING."""
    try:
        for part in path.split("."):
            data = data[int(part)] if isinstance(data, list) else data[part]
    except (KeyError, IndexError, TypeError, ValueError):
        return MISSING
    return data


def problems(case, code, stdout, stderr, directory):
    """What the row's run, with exit code, stdout and stderr as bytes, in
    directory, gets wrong: a list of strings, empty when it passes."""
    found = []
    want_exit, want_sha = case.get("exit"), case.get("stdout_sha256")
    if "bench" in case:
        record = json.loads(BENCH_EXPECTED.read_text())["full"]
        for part in case["bench"].split("."):
            record = record[part]
        want_exit, want_sha = record["exit"], record["sha256"]
    if code != want_exit:
        found.append(f"exit {code}, want {want_exit}")
    if stderr:
        found.append(f"stderr {stderr[:200]!r}")
    if want_sha is not None and sha256(stdout) != want_sha:
        found.append(f"stdout sha256 {sha256(stdout)}, want {want_sha}")
    try:
        data = json.loads(stdout)
    except ValueError:
        return found + [f"stdout is not JSON: {stdout[:200]!r}"]
    if stdout.decode() != json.dumps(data, indent=2) + "\n":
        found.append("stdout is not one JSON document indented by 2")
    for path, want in case.get("fields", {}).items():
        got = field(data, path)
        if got is MISSING:
            found.append(f"{path} is missing")
        elif got != want:
            found.append(f"{path} = {got!r}, want {want!r}")
    for name, want in case.get("writes", {}).items():
        path = Path(directory) / name
        got = sha256(path.read_bytes()) if path.is_file() else "no file"
        if got != want:
            found.append(f"{name} sha256 {got}, want {want}")
    if "dot_arrows" in case:
        path = Path(directory) / case["dot_arrows"]
        arrows = sum(" -> " in line for line in path.read_text().splitlines()) if path.is_file() else MISSING
        counts = (field(data, "vertices"), field(data, "geometric_edges"), arrows)
        if MISSING in counts or not counts[0] == counts[1] + 1 == counts[2] + 1:
            found.append(f"vertices, geometric edges and arrows in {path.name}: {counts}")
    if "shortlex" in case:
        order, vertices = case["shortlex"], field(data, "cut.vertices")
        if vertices is MISSING or vertices != sorted(vertices, key=lambda w: (len(w), [order.index(c) for c in w])):
            found.append(f"cut.vertices is not in shortlex order over {order!r}")
    return found


def main():
    failed = 0
    for case in CASES:
        with tempfile.TemporaryDirectory() as directory:
            stage(case, directory)
            start = time.perf_counter()
            try:
                proc = subprocess.run(["endlab", *case["argv"]], cwd=directory, capture_output=True, timeout=TIMEOUT)
                found = problems(case, proc.returncode, proc.stdout, proc.stderr, directory)
            except subprocess.TimeoutExpired:
                found = [f"no exit within {TIMEOUT} s"]
            elapsed = time.perf_counter() - start
        failed += bool(found)
        print(f"{'FAIL' if found else 'ok'} {case['name']} ({elapsed:.2f} s)")
        for problem in found:
            print(f"  {problem}")
    print(f"{len(CASES) - failed} of {len(CASES)} golden cases pass")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
