"""Time cold ``pbt simulate --engine amplified-V`` in two checkouts and
compare its reports.

Usage:
    python scripts/bench_shared_gates.py PARENT CHANGE [--pairs 10] [--big-pairs 2] [--out FILE]

PARENT and CHANGE are checkouts of this repository (each with ``src/``).
Every run is a fresh Python process with one BLAS/OpenMP thread that
imports ``pbtkit`` from its checkout, times one ``pbtkit.cli.main`` call of
``pbt simulate`` (the protocol and the report, the interpreter start and
imports not included) and reads its own peak resident set (VmHWM).  The
checkout runner, the alternation of the two checkouts and the summary are
those of ``bench_end_to_end_rows.py``: each point gets ``--pairs`` pairs
(honest (4,2) ``--big-pairs``), and the record holds every run's wall time
and VmHWM, their medians, and the largest |change - parent| of each
``ProtocolReport`` field (a list field's largest entry) over all runs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
from pathlib import Path

from bench_end_to_end_rows import alternate, run_child, source_digest, summarize

POINTS = [(3, 2, "honest"), (3, 3, "honest"), (6, 2, "compressed"), (4, 3, "compressed")]
BIG_POINTS = [(4, 2, "honest")]
FIELDS = ["probabilities", "fidelity", "discrepancy", "ancilla_weight", "outcome_states"]
CHILD = """
import contextlib, io, json, sys, time
import numpy as np
from pbtkit import simulate
from pbtkit.cli import main
reports = []
run = simulate.run
simulate.run = lambda spec: reports.append(run(spec)) or reports[-1]
n, d, variant = sys.argv[1:4]
argv = ["simulate", "--n", n, "--d", d, "--engine", "amplified-V", "--variant", variant]
t = time.perf_counter()
with contextlib.redirect_stdout(io.StringIO()):
    main(argv)
wall = time.perf_counter() - t
with open("/proc/self/status") as fh:
    hwm = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
(rep,) = reports
fields = {
    "probabilities": rep.probabilities,
    "fidelity": rep.fidelity,
    "discrepancy": rep.discrepancy,
    "ancilla_weight": rep.ancilla_weight,
    # each state's real and imaginary parts, entry by entry
    "outcome_states": [np.asarray(s).ravel().view(float).tolist() for s in rep.outcome_states],
}
print(json.dumps({"wall_s": wall, "vmhwm_mib": hwm / 1024, "fields": fields}))
"""


def run_once(tree: Path, point: tuple) -> dict:
    return run_child(tree, CHILD, *map(str, point))


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--big-pairs", type=int, default=2)
    ap.add_argument("--out", type=Path, default=Path("BENCH_shared_gates.json"))
    args = ap.parse_args()
    trees = {"parent": args.parent, "change": args.change}
    runs = alternate(trees, POINTS, args.pairs, run_once)
    runs.update(alternate(trees, BIG_POINTS, args.big_pairs, run_once))
    record = {
        "label": "shared_gates",
        "command": "python scripts/bench_shared_gates.py PARENT CHANGE "
        f"--pairs {args.pairs} --big-pairs {args.big_pairs}",
        "machine": f"{platform.machine()}, {os.cpu_count()} CPUs, one BLAS/OpenMP thread per run",
        "sources": {side: source_digest(tree) for side, tree in trees.items()},
        "pairs": {"default": args.pairs, ",".join(map(str, BIG_POINTS[0])): args.big_pairs},
        "points": {key: summarize(sides, FIELDS) for key, sides in runs.items()},
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")


if __name__ == "__main__":
    main()
