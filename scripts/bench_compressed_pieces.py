"""Time cold compressed ``pbt simulate --engine amplified-V`` in two
checkouts, and compare every report field.

Usage:
    python scripts/bench_compressed_pieces.py PARENT CHANGE [--pairs 5] [--out FILE]

PARENT and CHANGE are checkouts of this repository (each with ``src/``).
Every run is a fresh Python process with one BLAS/OpenMP thread and an
address-space limit of 6,000,000 KiB (``ulimit -v 6000000``) that imports
``pbtkit`` from its checkout, times one ``pbt simulate`` call and reads its
own peak resident set (VmHWM).  At (8,2), (9,2) and (6,3) each pair runs
both checkouts, alternating which one runs first (the runner of
``bench_end_to_end_rows.py``); (10,2) and (7,3) run in CHANGE alone, once
each.  Every run records its fidelity's distance from ``pgm_fidelity``.
Then at compressed (3,2), (6,2), (4,3) and (6,3) and honest (3,2) and (3,3)
one process per checkout and point computes every ``ProtocolReport`` and
``EndToEndResult`` field, and the record holds the largest
|change - parent| of each.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
from pathlib import Path

from bench_end_to_end_rows import alternate, run_child, source_digest, summarize

PAIRED = [(8, 2), (9, 2), (6, 3)]
CHANGE_ONLY = [(10, 2), (7, 3)]
FIELD_POINTS = [
    (3, 2, "compressed"),
    (6, 2, "compressed"),
    (4, 3, "compressed"),
    (6, 3, "compressed"),
    (3, 2, "honest"),
    (3, 3, "honest"),
]
LIMIT = """
import resource
resource.setrlimit(resource.RLIMIT_AS, (6000000 * 1024,) * 2)
"""
CHILD = LIMIT + """
import contextlib, io, json, sys, time
from pbtkit.cli import main
from pbtkit.pbt import pgm_fidelity
n, d = sys.argv[1:3]
out = io.StringIO()
t = time.perf_counter()
with contextlib.redirect_stdout(out):
    code = main(["simulate", "--n", n, "--d", d, "--engine", "amplified-V"])
wall = time.perf_counter() - t
with open("/proc/self/status") as fh:
    hwm = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
report = json.loads(out.getvalue())
gap = abs(report["fidelity"] - pgm_fidelity(int(n), int(d)))
print(json.dumps({"code": code, "wall_s": wall, "vmhwm_mib": hwm / 1024, "fidelity_gap": gap, "fields": report}))
"""
REPORT = ["probabilities", "fidelity", "discrepancy"]
FIELDS_CHILD = LIMIT + """
import json, sys
from dataclasses import asdict
import numpy as np
from pbtkit.amplify import end_to_end
from pbtkit.simulate import ProtocolRun, run
n, d, variant = int(sys.argv[1]), int(sys.argv[2]), sys.argv[3]

def plain(value):
    value = np.asarray(value)
    return np.stack([value.real, value.imag]).tolist() if np.iscomplexobj(value) else value.tolist()

report = asdict(run(ProtocolRun(n, d, engine="amplified-V", variant=variant)))
result = asdict(end_to_end(n, d, variant))
fields = {f"report.{k}": plain(v) for k, v in report.items() if k not in ("n", "d", "engine")}
fields.update({f"end_to_end.{k}": plain(v) for k, v in result.items() if not isinstance(v, str)})
print(json.dumps(fields))
"""


def run_once(tree: Path, point: tuple) -> dict:
    return run_child(tree, CHILD, *map(str, point))


def field_diffs(trees: dict) -> dict:
    """The largest |change - parent| of every report field, by point."""
    out = {}
    for point in FIELD_POINTS:
        sides = {side: run_child(tree, FIELDS_CHILD, *map(str, point)) for side, tree in trees.items()}
        wrapped = {side: [{"wall_s": 0.0, "vmhwm_mib": 0.0, "fields": f}] for side, f in sides.items()}
        out[",".join(map(str, point))] = summarize(wrapped, sorted(sides["parent"]))["max_abs_diff"]
        print(point, max(out[",".join(map(str, point))].values()))
    return out


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--pairs", type=int, default=5)
    ap.add_argument("--out", type=Path, default=Path("BENCH_compressed_pieces.json"))
    args = ap.parse_args()
    trees = {"parent": args.parent, "change": args.change}
    runs = alternate(trees, PAIRED, args.pairs, run_once)
    paired = {}
    for key, sides in runs.items():
        paired[key] = summarize(sides, REPORT)
        paired[key]["fidelity_gap"] = {side: max(r["fidelity_gap"] for r in rs) for side, rs in sides.items()}
    change_only = {}
    for point in CHANGE_ONLY:
        result = run_once(args.change, point)
        print("change", point, f"{result['wall_s']:.2f} s", f"{result['vmhwm_mib']:.1f} MiB")
        change_only[",".join(map(str, point))] = {k: result[k] for k in ("code", "wall_s", "vmhwm_mib", "fidelity_gap")}
    record = {
        "label": "compressed_pieces",
        "command": f"python scripts/bench_compressed_pieces.py PARENT CHANGE --pairs {args.pairs}",
        "machine": f"{platform.machine()}, {os.cpu_count()} CPUs, one BLAS/OpenMP thread per run, ulimit -v 6000000",
        "sources": {side: source_digest(tree) for side, tree in trees.items()},
        "pairs": args.pairs,
        "paired": paired,
        "change_only": change_only,
        "max_abs_field_diff": field_diffs(trees),
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")


if __name__ == "__main__":
    main()
