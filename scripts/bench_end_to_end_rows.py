"""Time ``amplify.end_to_end`` in two checkouts and compare its fields.

Usage:
    python scripts/bench_end_to_end_rows.py PARENT CHANGE [--pairs 5] [--out FILE]

PARENT and CHANGE are checkouts of this repository (each with ``src/``).
Every run is a fresh Python process with one BLAS/OpenMP thread that imports
``pbtkit`` from its checkout, times one cold ``end_to_end`` call and reads
its own peak resident set (VmHWM, from /proc/self/status).  Each pair runs
both checkouts at every point, alternating which one runs first.  The JSON
record holds every run's wall time and VmHWM, their medians, and the
largest |change - parent| of each ``EndToEndResult`` field over all runs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

POINTS = [(3, 2, "honest"), (3, 2, "compressed"), (6, 2, "compressed"), (4, 3, "compressed")]
FIELDS = [
    "m",
    "epsilon",
    "w_residual",
    "amplified_residual",
    "amplified_bound",
    "discrepancy",
    "probability_error",
    "ancilla_purity",
    "ancilla_zero_weight",
]
CHILD = """
import json, sys, time
from pbtkit.amplify import end_to_end
n, d, variant = int(sys.argv[1]), int(sys.argv[2]), sys.argv[3]
t = time.perf_counter()
res = end_to_end(n, d, variant)
wall = time.perf_counter() - t
with open("/proc/self/status") as fh:
    hwm = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
fields = {f: getattr(res, f) for f in json.loads(sys.argv[4])}
print(json.dumps({"wall_s": wall, "vmhwm_mib": hwm / 1024, "fields": fields}))
"""
THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def run_child(tree: Path, child: str, *args: str) -> dict:
    """The JSON line that ``python -c child args`` prints in a fresh process
    importing ``pbtkit`` from ``tree``, one BLAS/OpenMP thread."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), **{v: "1" for v in THREADS})
    out = subprocess.run([sys.executable, "-c", child, *args], env=env, capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


def run_once(tree: Path, point: tuple) -> dict:
    n, d, variant = point
    return run_child(tree, CHILD, str(n), str(d), variant, json.dumps(FIELDS))


def source_digest(tree: Path) -> str:
    """A short sha256 of the checkout's ``src/pbtkit/*.py``, naming the code run."""
    digest = hashlib.sha256()
    for path in sorted((tree / "src" / "pbtkit").glob("*.py")):
        digest.update(path.name.encode() + path.read_bytes())
    return digest.hexdigest()[:12]


def alternate(trees: dict, points: list, pairs: int, run) -> dict:
    """``run(tree, point)`` for both checkouts at every point, ``pairs``
    times, alternating which one runs first; each point's runs, keyed by
    its values joined with commas, then by side."""
    runs = {",".join(map(str, point)): {side: [] for side in trees} for point in points}
    for pair in range(pairs):
        order = list(trees) if pair % 2 == 0 else list(trees)[::-1]
        for point in points:
            for side in order:
                result = run(trees[side], point)
                runs[",".join(map(str, point))][side].append(result)
                print(side, point, f"{result['wall_s']:.3f} s", f"{result['vmhwm_mib']:.1f} MiB")
    return runs


def _distance(a, b) -> float:
    """|a - b|, the largest over the entries of (nested) lists; for strings
    0 when they are equal and 1 when not."""
    if isinstance(a, list):
        return max((_distance(x, y) for x, y in zip(a, b)), default=0.0)
    if isinstance(a, str):
        return float(a != b)
    return abs(a - b)


def summarize(sides: dict, fields: list, metrics: tuple = ("wall_s", "vmhwm_mib")) -> dict:
    """Every run's ``metrics`` (wall time and VmHWM) with their medians, the
    first run's fields, the largest |change - parent| of each field over all
    runs, and the fields that are bit-identical in all of them."""
    entry = {}
    for metric in metrics:
        values = {side: [r[metric] for r in runs] for side, runs in sides.items()}
        entry[metric] = {
            **values,
            "median": {side: statistics.median(v) for side, v in values.items()},
        }
    entry["fields"] = {side: runs[0]["fields"] for side, runs in sides.items()}
    pairs = [(p["fields"], c["fields"]) for p in sides["parent"] for c in sides["change"]]
    entry["max_abs_diff"] = {f: max(_distance(c[f], p[f]) for p, c in pairs) for f in fields}
    entry["bit_identical"] = [f for f in fields if all(c[f] == p[f] for p, c in pairs)]
    return entry


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--pairs", type=int, default=5)
    ap.add_argument("--out", type=Path, default=Path("BENCH_end_to_end_rows.json"))
    args = ap.parse_args()
    trees = {"parent": args.parent, "change": args.change}
    runs = alternate(trees, POINTS, args.pairs, run_once)
    record = {
        "label": "end_to_end_rows",
        "command": "python scripts/bench_end_to_end_rows.py PARENT CHANGE "
        f"--pairs {args.pairs}",
        "machine": f"{platform.machine()}, {os.cpu_count()} CPUs, one BLAS/OpenMP thread per run",
        "sources": {side: source_digest(tree) for side, tree in trees.items()},
        "pairs": args.pairs,
        "points": {key: summarize(sides, FIELDS) for key, sides in runs.items()},
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")


if __name__ == "__main__":
    main()
